"""Seeded load generator: each workload's inputs as a pure function of the seed.

The library never sees the seed, only the inputs built here.  Every
workload is a closed loop with one client: op ``i`` is issued after op
``i - 1`` returns.  Ops cycle through a finite pool (``table``, ``edge``,
``verify``) so that each distinct output can be checked against a
high-precision reference outside the timed loop, or follow a
low-discrepancy sequence (``trigamma-sum``) so that any prefix of the op
stream covers the input range evenly.
"""

from __future__ import annotations

import math
import random
from functools import lru_cache

WORKLOADS = ("table", "edge", "verify", "trigamma-sum")

TABLE_RANGES = 24  # one sub-range per stratum of (-1, 1]
TABLE_ROWS = 8
TABLE_ORDERS = (0, 1, 2, 3, 4)
EDGE_DECADES = range(1, 16)
EDGE_ORDERS = (1, 2, 3, 4)
VERIFY_SEEDS = 4
SUM_LOG10_K = (4.0, 5.0)

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def table_ranges(seed: int) -> list[tuple[float, float]]:
    """One (z_start, z_end) per stratum of width 1/12, in a seeded order.

    Stratifying keeps the mix of polylog regions the same for every seed,
    so a run's cost does not hinge on where its few ranges happened to land.
    """
    rng = random.Random(f"table:{seed}")
    width = 2.0 / TABLE_RANGES
    ranges = []
    for j in range(TABLE_RANGES):
        start = -1.0 + width * (j + 0.75 * rng.random())
        if start <= -1.0:
            start = math.nextafter(-1.0, 0.0)
        ranges.append((start, min(start + width, 1.0)))
    rng.shuffle(ranges)
    return ranges


def edge_points(seed: int) -> list[tuple[int, float]]:
    """(n, z) pairs at z = 1 - 10^-(k+r) and z = -1 + 10^-(k+r), k = 1..15.

    One r in [0, 1) per (k, side); every order n = 1..4 is paired with
    every z.  The smallest offset, 10^-16, still rounds to a double
    strictly inside (-1, 1).
    """
    rng = random.Random(f"edge:{seed}")
    zs = []
    for k in EDGE_DECADES:
        for side in (1.0, -1.0):
            offset = 10.0 ** -(k + rng.random())
            zs.append(side * (1.0 - offset))
    pairs = [(n, z) for z in zs for n in EDGE_ORDERS]
    rng.shuffle(pairs)
    return pairs


def verify_seeds(seed: int) -> list[int]:
    """Suite seeds; ops cycle through them so each one runs repeatedly."""
    rng = random.Random(f"verify:{seed}")
    return [rng.randrange(1, 2**31) for _ in range(VERIFY_SEEDS)]


@lru_cache(maxsize=None)
def _sum_offset(seed: int) -> float:
    return random.Random(f"sum:{seed}").random()


def sum_terms(seed: int, i: int) -> int:
    """K for op i: log-uniform in 10^4..10^5 along a golden-ratio sequence."""
    x0 = _sum_offset(seed)
    lo, hi = SUM_LOG10_K
    return round(10.0 ** (lo + (hi - lo) * ((x0 + i * _GOLDEN) % 1.0)))


def pool(workload: str, seed: int) -> list:
    """The finite input pool op i draws from (as pool[i % len(pool)])."""
    if workload == "table":
        return table_ranges(seed)
    if workload == "edge":
        return edge_points(seed)
    if workload == "verify":
        return verify_seeds(seed)
    if workload == "trigamma-sum":
        return []  # unbounded: see sum_terms
    raise ValueError(f"unknown workload {workload!r}")
