"""Fixed-case microbenchmarks: the ROADMAP baseline cases, per layer.

Each case is timed in REPEATS repeats of a calibrated number of calls;
the metric is the median per-call time in microseconds and its spread
is the interquartile range of the repeats divided by that median.  Cases
over a grid of points take, per repeat, the median over the grid.
"""

from __future__ import annotations

import statistics
import time

REPEATS = 7
REPEAT_S = 0.003  # target length of one repeat of one point

POLYLOG_POINTS = (("p0.75", 0.75), ("m0.75", -0.75), ("m1", -1.0), ("1-1e-6", 1.0 - 1e-6), ("m3.7", -3.7))
TRIGAMMA_GRID = (1, 10, 100, 1000)
FRAK_I_POINT = 0.3


def _calibrate(fn) -> int:
    number = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(number):
            fn()
        if time.perf_counter() - t0 >= REPEAT_S / 4 or number >= 1 << 20:
            return max(1, int(number * REPEAT_S / max(time.perf_counter() - t0, 1e-9)))
        number *= 4


def _per_call_us(fn, number: int) -> float:
    t0 = time.perf_counter()
    for _ in range(number):
        fn()
    return (time.perf_counter() - t0) / number * 1e6


def time_grid(fns) -> tuple[float, float]:
    """(median us per call, relative IQR) of the per-repeat grid medians."""
    numbers = [_calibrate(fn) for fn in fns]
    samples = [
        statistics.median(_per_call_us(fn, number) for fn, number in zip(fns, numbers))
        for _ in range(REPEATS)
    ]
    q1, _, q3 = statistics.quantiles(samples, n=4)
    med = statistics.median(samples)
    return med, (q3 - q1) / med


def cases(mods: dict) -> dict:
    polylog = mods["polylog"].polylog
    trigamma = mods["polylog"].trigamma
    p_deriv = mods["orderderiv"].p_deriv
    frak_I = mods["orderderiv"].frak_I
    grid = mods["verify"]._FD_GRID
    out = {}
    for s in range(2, 6):
        for label, x in POLYLOG_POINTS:
            out[f"polylog.us.s{s}.{label}"] = [lambda s=s, x=x: polylog(s, x)]
    for n in range(1, 5):
        out[f"orderderiv.p_deriv.us.n{n}"] = [lambda n=n, z=z: p_deriv(n, z) for z in grid]
    out["orderderiv.frak_I.us"] = [lambda: frak_I(FRAK_I_POINT)]
    out["polylog.trigamma.us"] = [lambda k=k: trigamma(k) for k in TRIGAMMA_GRID]
    return out


def run(mods: dict) -> dict:
    """{name: value} with a ``<name>.spread`` entry next to every median."""
    result = {}
    for name, fns in cases(mods).items():
        med, spread = time_grid(fns)
        result[name] = med
        result[f"{name}.spread"] = spread
    return result
