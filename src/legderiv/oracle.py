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

which takes no derivative: nothing in this module has a step size.  The
four orders share one quadrature over [z, 1] and one ``p_derivs`` per node.
"""

from __future__ import annotations

import math

from .exceptions import ConvergenceError, DomainError
from .orderderiv import p_derivs
from .polylog import as_order
from .quadrature import _integrate

__all__ = ["order_derivatives", "ode_residuals"]

_SERIES_CAP = 100_000
_Z_FLOOR = -0.9  # series ratio (1-z)/2 reaches 0.95 here; trust ends


def order_derivatives(
    z: float, max_terms: int = _SERIES_CAP
) -> tuple[float, float, float, float, float]:
    """(P0, P1, P2, P3, P4) with Pn = [d^n P_nu(z)/d nu^n] at nu = 0, z in (-0.9, 1].

    Runs the term recurrence of the series with each term held as its
    Taylor coefficients in nu through degree 4 and returns n! times the
    summed nu^n coefficient.  Within 1e-14 relative for n = 1..4 on the
    whole domain (at most 3.5e-15 against mpmath, down to z = -0.9 + 2^-53).
    """
    max_terms = as_order(max_terms, 1, math.inf, "max_terms")
    if not _Z_FLOOR < z <= 1.0:
        raise DomainError(f"order_derivatives expects z in ({_Z_FLOOR}, 1], got {z!r}")
    x = 0.5 * (1.0 - z)
    # the nu^0..nu^4 coefficients of the term (c) and of the sum (s)
    c0, c1, c2, c3, c4 = s0, s1, s2, s3, s4 = 1.0, 0.0, 0.0, 0.0, 0.0
    tiny_streak = 0
    for k in range(max_terms):
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
        f"nu-Taylor series for the order-derivatives did not converge in {max_terms} terms"
    )


def ode_residuals(z: float) -> tuple[float, float, float, float]:
    """|(1-z^2) Pn(z) - int_z^1 [2s Pn - (s-z)(n P_{n-1} + n(n-1) P_{n-2})] ds|, n = 1..4.

    The recurrence integrated twice from z in (-1, 1) to 1: one refinement
    at tol 1e-12 that every order meets, with P0..P4 from one ``p_derivs``
    per node.
    """
    if not -1.0 < z < 1.0:
        raise DomainError(f"ode_residuals expects z in (-1, 1), got {z!r}")

    def integrands(s: float) -> tuple[float, float, float, float]:
        p0, p1, p2, p3, p4 = p_derivs(s)
        two_s, d = 2.0 * s, s - z
        return (two_s * p1 - d * p0, two_s * p2 - d * (2 * p1 + 2 * p0),
                two_s * p3 - d * (3 * p2 + 6 * p1), two_s * p4 - d * (4 * p3 + 12 * p2))

    # No float, so no node, lies between z = 1 - 2^-53 and 1; the integrands vanish
    # at 1, and their integrals over that one-ulp gap are below 2^-100.
    integrals = (0.0,) * 4
    if math.nextafter(z, 1.0) < 1.0:
        integrals = _integrate(lambda xs: zip(*map(integrands, xs)), z, 1.0, tol=1e-12)[0]
    return tuple(abs((1.0 - z * z) * pn - q) for pn, q in zip(p_derivs(z)[1:], integrals))
