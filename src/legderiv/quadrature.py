"""Deterministic adaptive quadrature on finite intervals.

A fixed Gauss-Kronrod 7/15 pair per panel drives plain bisection: the
panel with the largest error estimate is split until the summed estimate
drops below the requested tolerance.  All nodes are interior, so
integrands only ever see the open interval.

Endpoints flagged as singular (integrable, logarithmic-type) get a cubic
stretching x = a + (b-a) s^3 first, which turns ln-type behaviour into a
bounded s^2 ln(s) profile the panel rule converges on quickly.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, Iterable

from .exceptions import ConvergenceError, DomainError

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

_DEFAULT_TOL = 1e-10
_MIN_TOL = 1e-13
_MAX_PANELS = 10_000


@dataclass(frozen=True)
class EndpointFlag:
    """Marks which endpoints carry an (integrable) logarithmic singularity."""

    lower_singular: bool = False
    upper_singular: bool = False


@dataclass(frozen=True)
class QuadResult:
    """Adaptive integration outcome."""

    value: float
    abs_error_estimate: float
    subdivisions: int


def _gk15_panel(f: Callable[[float], float], lo: float, hi: float) -> tuple[float, float]:
    """Gauss-Kronrod 7/15 on [lo, hi]; returns (kronrod, |kronrod - gauss|).

    Raises ConvergenceError when either is not finite.
    """
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    gauss = 0.0
    kronrod = 0.0
    for node, wg, wk in _GK15:
        if node == 0.0:
            fv = f(mid)
            gauss += wg * fv
            kronrod += wk * fv
            continue
        f_hi = f(mid + half * node)
        f_lo = f(mid - half * node)
        gauss += wg * (f_hi + f_lo)
        kronrod += wk * (f_hi + f_lo)
    value, err = half * kronrod, abs(half * (kronrod - gauss))
    # A NaN estimate would end the refinement loop as if converged.
    if not (math.isfinite(value) and math.isfinite(err)):
        raise ConvergenceError(
            f"non-finite quadrature panel (value {value!r}, error estimate {err!r})"
        )
    return value, err


def _stretched_tasks(
    f: Callable[[float], float], a: float, b: float, flags: EndpointFlag
) -> Iterable[Callable[[float], float]]:
    """Rewrite the integral as unit-interval pieces with smoothed endpoints."""
    span = b - a

    def from_lower(base: float, width: float) -> Callable[[float], float]:
        def g(s: float) -> float:
            return 3.0 * width * s * s * f(base + width * s**3)

        return g

    def from_upper(base: float, width: float) -> Callable[[float], float]:
        def g(s: float) -> float:
            r = 1.0 - s
            return 3.0 * width * r * r * f(base - width * r**3)

        return g

    def plain(base: float, width: float) -> Callable[[float], float]:
        def g(s: float) -> float:
            return width * f(base + width * s)

        return g

    if flags.lower_singular and flags.upper_singular:
        return (from_lower(a, 0.5 * span), from_upper(b, 0.5 * span))
    if flags.lower_singular:
        return (from_lower(a, span),)
    if flags.upper_singular:
        return (from_upper(b, span),)
    return (plain(a, span),)


def integrate(
    f: Callable[[float], float],
    a: float,
    b: float,
    tol: float = _DEFAULT_TOL,
    flags: EndpointFlag = EndpointFlag(),
    max_panels: int = _MAX_PANELS,
) -> QuadResult:
    """Adaptively integrate f over (a, b) to absolute tolerance ``tol``.

    The integrand must be evaluable on the open interval; it is never
    called at a or b.  Raises ConvergenceError if ``max_panels`` panels do
    not bring the error estimate under ``tol``, or if a panel's value or
    error estimate is not finite.
    """
    if not a < b:
        raise DomainError(f"integration bounds must satisfy a < b, got {a!r}, {b!r}")
    if not tol >= _MIN_TOL:  # also rejects NaN, which would end refinement at once
        raise DomainError(f"tolerance must be at least {_MIN_TOL:g}, got {tol!r}")

    heap: list[tuple[float, int, float, float, float, Callable[[float], float]]] = []
    counter = 0
    total = 0.0
    total_err = 0.0
    panels = 0
    for g in _stretched_tasks(f, a, b, flags):
        val, err = _gk15_panel(g, 0.0, 1.0)
        heapq.heappush(heap, (-err, counter, 0.0, 1.0, val, g))
        counter += 1
        panels += 1
        total += val
        total_err += err

    while total_err > tol:
        if panels >= max_panels:
            raise ConvergenceError(
                f"quadrature did not reach tol={tol:g} within {max_panels} panels "
                f"(estimate {total_err:g})"
            )
        neg_err, _, lo, hi, val, g = heapq.heappop(heap)
        total -= val
        total_err += neg_err  # neg_err is -err
        mid = 0.5 * (lo + hi)
        for piece in ((lo, mid), (mid, hi)):
            pval, perr = _gk15_panel(g, *piece)
            heapq.heappush(heap, (-perr, counter, piece[0], piece[1], pval, g))
            counter += 1
            total += pval
            total_err += perr
        panels += 1

    # Re-sum in deterministic heap order to shed accumulation drift.
    total = math.fsum(item[4] for item in heap)
    total_err = math.fsum(-item[0] for item in heap)
    return QuadResult(value=total, abs_error_estimate=total_err, subdivisions=panels)
