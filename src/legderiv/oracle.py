"""Ground truth independent of every closed form in the package.

``order_derivatives`` differentiates the hypergeometric series

    P_nu(z) = sum_k c_k(nu) x^k,   c_k(nu) = prod_{j<k} (j-nu)(j+1+nu)/(j+1)^2,

with x = (1-z)/2, exactly in nu at nu = 0: each c_k is a polynomial in nu,
so carrying it as its Taylor coefficients through nu^4 (Taylor-mode
differentiation) gives P0..P4 in one pass, with no step size.
``ode_residuals`` checks the differential relation of ``p_derivs``,
d/dz[(1-z^2) Pn'] = -n P_{n-1} - n(n-1) P_{n-2}, integrated twice from z
to 1.  The boundary term (1-z^2) Pn' vanishes at z = 1 because Pn' is
finite there, and Pn(1) = 0 for n >= 1, so by parts

    (1-z^2) Pn(z) = int_z^1 [2s Pn(s) - (s-z)(n P_{n-1}(s) + n(n-1) P_{n-2}(s))] ds,

which takes no derivative: nothing in this module has a step size.  With
Qn = n P_{n-1} + n(n-1) P_{n-2} it is M + z N, M = int (2s Pn - s Qn) and N = int Qn,
so a grid of z takes one refinement per gap of the grid and 1 on the eight moments,
one row of p_derivs per node, and each z sums the gaps above it.
"""

from __future__ import annotations

import math

from .exceptions import ConvergenceError
from .orderderiv import _ABOVE_M1, _row
from .polylog import as_real
from .quadrature import _integrate

__all__ = ["order_derivatives", "ode_residuals"]

_SERIES_CAP = 100_000
_Z_FLOOR = -0.9  # series ratio (1-z)/2 reaches 0.95 here; trust ends


def order_derivatives(z: float) -> tuple[float, float, float, float, float]:
    """(P0, P1, P2, P3, P4) with Pn = [d^n P_nu(z)/d nu^n] at nu = 0, z in (-0.9, 1].

    Runs the term recurrence of the series with each term held as its
    Taylor coefficients in nu through degree 4 and returns n! times the
    summed nu^n coefficient.  Within 1e-14 relative for n = 1..4 on the
    whole domain (at most 3.5e-15 against mpmath, down to z = -0.9 + 2^-53).

    The terms are capped at ``_SERIES_CAP``: ConvergenceError if the sum has not
    settled within it.  The least caps that converge are 629 terms at
    z = -0.9 + 2^-53, 124 at -0.5, 55 at 0 and 2 at 1.
    """
    z = as_real(z, "order_derivatives argument", math.nextafter(_Z_FLOOR, 0.0), 1.0)
    x = 0.5 * (1.0 - z)
    # the nu^0..nu^4 coefficients of the term (c) and of the sum (s)
    c0, c1, c2, c3, c4 = s0, s1, s2, s3, s4 = 1.0, 0.0, 0.0, 0.0, 0.0
    tiny_streak = 0
    for k in range(_SERIES_CAP):
        # Multiply by (k - nu)(k + 1 + nu) = k(k+1) - nu - nu^2, then x/(k+1)^2.
        kk = k * (k + 1.0)
        scale = x / ((k + 1.0) * (k + 1.0))
        c0, c1, c2, c3, c4 = (
            scale * (kk * c0),
            scale * (kk * c1 - c0),
            scale * (kk * c2 - c1 - c0),
            scale * (kk * c3 - c2 - c1),
            scale * (kk * c4 - c3 - c2),
        )
        s0, s1, s2, s3, s4 = s0 + c0, s1 + c1, s2 + c2, s3 + c3, s4 + c4
        if (
            abs(c0) <= 1e-17 * abs(s0) + 1e-300 and abs(c1) <= 1e-17 * abs(s1) + 1e-300
            and abs(c2) <= 1e-17 * abs(s2) + 1e-300 and abs(c3) <= 1e-17 * abs(s3) + 1e-300
            and abs(c4) <= 1e-17 * abs(s4) + 1e-300
        ):
            tiny_streak += 1
            if tiny_streak >= 2:
                return s0, s1, 2.0 * s2, 6.0 * s3, 24.0 * s4  # n! times the nu^n sum
        else:
            tiny_streak = 0
    raise ConvergenceError(
        f"nu-Taylor series for the order-derivatives did not converge in {_SERIES_CAP} terms"
    )


def ode_residuals(z: float) -> tuple[float, float, float, float]:
    """|(1-z^2) Pn(z) - int_z^1 [2s Pn - (s-z)(n P_{n-1} + n(n-1) P_{n-2})] ds|, n = 1..4.

    The recurrence integrated twice from z in (-1, 1) to 1: the moment pass
    on the one-point grid (z,), one refinement at tol 1e-12 that every
    moment meets, with P0..P4 from one row of ``p_derivs`` per node.
    """
    z = as_real(z, "ode_residuals argument", _ABOVE_M1, math.nextafter(1.0, 0.0))
    return _ode_residuals((z,))[0]


def _ode_residuals(grid: tuple[float, ...]) -> list[tuple[float, float, float, float]]:
    # ode_residuals at each z of an ascending grid in (-1, 1): each gap of the grid and
    # 1 is refined once, at tol 1e-12/len(grid), on M1..M4 and N1..N4 side by side.
    def moments(s: float) -> tuple[float, ...]:
        p0, p1, p2, p3, p4 = _row(s)
        q2, q3, q4, s2 = 2 * p1 + 2 * p0, 3 * p2 + 6 * p1, 4 * p3 + 12 * p2, 2.0 * s
        return s2 * p1 - s * p0, s2 * p2 - s * q2, s2 * p3 - s * q3, s2 * p4 - s * q4, p0, q2, q3, q4

    tol, ends, gaps = 1e-12 / len(grid), (*grid, 1.0), []
    for a, b in zip(ends, ends[1:]):
        # No float, so no node, lies in a gap between adjacent floats, such as (1 - 2^-53, 1):
        # its moments are taken as 0, which moves M + z N at z = 1 - 2^-53 by under 2^-100.
        if math.nextafter(a, b) < b:
            gaps.append(_integrate(lambda xs: zip(*map(moments, xs)), a, b, tol=tol)[0])
        else:
            gaps.append((0.0,) * 8)
    residuals = []
    for k, z in enumerate(grid):
        above = [math.fsum(col) for col in zip(*gaps[k:])]
        rows = zip(_row(z)[1:], above, above[4:])
        residuals.append(tuple(abs((1.0 - z * z) * pn - (m + z * q)) for pn, m, q in rows))
    return residuals
