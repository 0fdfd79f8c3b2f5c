"""Deterministic adaptive quadrature on finite intervals.

A fixed Gauss-Kronrod 7/15 pair per panel drives plain bisection: the
panel with the largest error estimate is split until the summed estimate
drops below the requested tolerance.  All nodes are interior, so
integrands only ever see the open interval.

One loop (``_integrate``) refines integrands of any number of components
on shared nodes; a panel's error is its components' largest, so every
component meets the tolerance.  ``integrate`` is its one-component call.

Endpoints flagged as singular (integrable, logarithmic-type) get a quintic
stretching x = a + w s^5 (w = b - a) first, which turns ln-type behaviour into a
bounded s^4 ln(s) profile: each halving toward the end gains 2^5 in x.  It moves
the nodes and scales the integrand's values by dx/ds = 5 w s^4.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from operator import mul
from typing import Callable, Iterable, Sequence

from .exceptions import ConvergenceError, DomainError
from .polylog import as_real

__all__ = ["EndpointFlag", "QuadResult", "integrate"]

# (node, Gauss-7 weight, Kronrod-15 weight), positive half; Gauss weight 0
# marks Kronrod-only nodes.  Values are correctly rounded doubles.
_GK15 = (
    (0.0, 0.417959183673469388, 0.209482141084727828),
    (0.207784955007898468, 0.0, 0.204432940075298892),
    (0.405845151377397167, 0.381830050505118945, 0.19035057806478541),
    (0.58608723546769113, 0.0, 0.169004726639267903),
    (0.74153118559939444, 0.279705391489276668, 0.140653259715525919),
    (0.864864423359769073, 0.0, 0.104790010322250184),
    (0.949107912342758525, 0.129484966168869693, 0.0630920926299785533),
    (0.991455371120812639, 0.0, 0.022935322010529225),
)

# The 15 signed nodes with their Gauss and Kronrod weights.
_SIGNED = [(sg * x, wg, wk) for x, wg, wk in _GK15 for sg in ((1.0, -1.0) if x else (1.0,))]
_NODES, _WG, _WK = zip(*_SIGNED)

_DEFAULT_TOL = 1e-10
_MIN_TOL = 1e-13
_MAX_PANELS = 10_000


@dataclass(frozen=True)
class EndpointFlag:
    """Marks which endpoints carry an (integrable) logarithmic singularity."""

    lower_singular: bool = False
    upper_singular: bool = False

    def __post_init__(self) -> None:
        if not (isinstance(self.lower_singular, bool) and isinstance(self.upper_singular, bool)):
            raise DomainError(f"EndpointFlag fields must be bools, got {self!r}")


@dataclass(frozen=True)
class QuadResult:
    """Adaptive integration outcome."""

    value: float
    abs_error_estimate: float
    subdivisions: int


# (base, width, quintic, first, last): s in (0, 1) maps to x = base + width s, or width s^5
# if quintic; first and last are the least and the largest float strictly between a and b.
_Chart = tuple[float, float, bool, float, float]


def _gk15_panel(
    columns: Callable[[list[float]], Iterable[Sequence[float]]], chart: _Chart, lo: float, hi: float
) -> tuple[tuple[float, ...], float]:
    """Gauss-Kronrod 7/15 on [lo, hi] of s; returns (kronrod per component,
    the largest |kronrod - gauss|).

    Raises ConvergenceError when any of them is not finite.
    """
    base, width, quintic, first, last = chart
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    ss = [mid + half * node for node in _NODES]
    xs = [base + width * (s * s * s * s * s if quintic else s) for s in ss]
    if min(xs) < first or max(xs) > last:
        # A node within half an ulp of a or b rounds onto it, as width * s^5 does
        # after a dozen or so halvings toward a singular end: move it a float inside.
        xs = [min(max(x, first), last) for x in xs]
    cols = columns(xs)
    if quintic:  # |dx/ds| = 5 |width| s^4 scales each value
        jac = [5.0 * (s * s) * (s * s) for s in ss]
        cols = [list(map(mul, jac, col)) for col in cols]
    scale = half * abs(width)
    values, err = [], 0.0
    for col in cols:
        try:
            value = scale * math.fsum(map(mul, _WK, col))
            diff = abs(value - scale * math.fsum(map(mul, _WG, col)))
        except (OverflowError, ValueError):  # fsum's overflow and inf - inf
            value = diff = math.nan
        # A NaN estimate would end the refinement loop as if converged.
        if not (math.isfinite(value) and math.isfinite(diff)):
            raise ConvergenceError(
                f"non-finite quadrature panel (value {value!r}, error estimate {diff!r})"
            )
        values.append(value)
        err = max(err, diff)
    return tuple(values), err


def _integrate(
    columns: Callable[[list[float]], Iterable[Sequence[float]]],
    a: float,
    b: float,
    tol: float = _DEFAULT_TOL,
    flags: EndpointFlag = EndpointFlag(),
) -> tuple[tuple[float, ...], float, int]:
    """``integrate`` of each component that ``columns(xs)`` returns, one
    sequence of values at the nodes xs per component.

    Returns (integral per component, error estimate, subdivisions).
    """
    # A finite b - a also keeps every node finite; the nodes need a float between a and b.
    a, b = as_real(a, "lower bound"), as_real(b, "upper bound")
    if not (a < b and math.isfinite(b - a) and math.nextafter(a, b) < b):
        raise DomainError(
            "integration bounds must satisfy a < b with finite b - a and a float between "
            f"them, got {a!r}, {b!r}"
        )
    # NaN would end refinement at once.
    if not as_real(tol, "tolerance") >= _MIN_TOL:
        raise DomainError(f"tolerance must be a number >= {_MIN_TOL:g}, got {tol!r}")
    if not isinstance(flags, EndpointFlag):
        raise DomainError(f"flags must be an EndpointFlag, got {flags!r}")

    span, inside = b - a, (math.nextafter(a, b), math.nextafter(b, a))
    charts: tuple[_Chart, ...] = ((a, span, False, *inside),)
    if flags.lower_singular and flags.upper_singular:
        charts = ((a, 0.5 * span, True, *inside), (b, -0.5 * span, True, *inside))
    elif flags.lower_singular:
        charts = ((a, span, True, *inside),)
    elif flags.upper_singular:
        charts = ((b, -span, True, *inside),)
    heap: list[tuple[float, int, float, float, tuple[float, ...], _Chart]] = []
    counter = panels = 0
    total_err = 0.0
    for chart in charts:
        vals, err = _gk15_panel(columns, chart, 0.0, 1.0)
        heapq.heappush(heap, (-err, counter, 0.0, 1.0, vals, chart))
        counter += 1
        panels += 1
        total_err += err

    while total_err > tol:
        if panels >= _MAX_PANELS:
            raise ConvergenceError(
                f"quadrature did not reach tol={tol:g} within {_MAX_PANELS} panels "
                f"(estimate {total_err:g})"
            )
        neg_err, _, lo, hi, _, chart = heapq.heappop(heap)
        total_err += neg_err  # neg_err is -err
        mid = 0.5 * (lo + hi)
        for piece in ((lo, mid), (mid, hi)):
            pvals, perr = _gk15_panel(columns, chart, *piece)
            heapq.heappush(heap, (-perr, counter, piece[0], piece[1], pvals, chart))
            counter += 1
            total_err += perr
        panels += 1

    # Sum in deterministic heap order, free of accumulation drift.
    values = tuple(map(math.fsum, zip(*(item[4] for item in heap))))
    total_err = math.fsum(-item[0] for item in heap)
    return values, total_err, panels


def integrate(
    f: Callable[[float], float],
    a: float,
    b: float,
    tol: float = _DEFAULT_TOL,
    flags: EndpointFlag = EndpointFlag(),
) -> QuadResult:
    """Adaptively integrate f over (a, b) to absolute tolerance ``tol``.

    The integrand must be evaluable on the open interval; it is never
    called at a or b.  Raises DomainError unless a < b, b - a is finite, a
    float lies strictly between them and ``flags`` is an EndpointFlag.  Raises
    ConvergenceError if ``_MAX_PANELS`` panels do not bring the error estimate
    under ``tol``, or if a panel's value or error estimate is not finite.
    """
    (value,), err, panels = _integrate(lambda xs: ([*map(f, xs)],), a, b, tol, flags)
    return QuadResult(value=value, abs_error_estimate=err, subdivisions=panels)
