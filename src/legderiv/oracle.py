"""Ground truth independent of every closed form in the package.

``legendre_p`` evaluates P_nu(z) from its hypergeometric series

    P_nu(z) = sum_k c_k(nu) x^k,   c_k(nu) = prod_{j<k} (j-nu)(j+1+nu)/(j+1)^2,

with x = (1-z)/2 and P_nu(1) = 1.  ``order_derivatives`` differentiates that
series exactly in nu at nu = 0: each c_k is a polynomial in nu, so carrying
it as its Taylor coefficients through nu^4 (Taylor-mode differentiation)
gives P0..P4 in one pass, with no step size.  ``ode_residual`` checks the
defining differential relation

    d/dz[(1-z^2) dPn/dz] = -n P_{n-1} - n(n-1) P_{n-2}

for the closed forms, entirely via finite differences in z.
"""

from __future__ import annotations

from .exceptions import ConvergenceError, DomainError
from .orderderiv import p_deriv
from .polylog import as_order

__all__ = ["legendre_p", "order_derivatives", "ode_residual"]

_SERIES_CAP = 100_000
_Z_FLOOR = -0.9  # series ratio (1-z)/2 reaches 0.95 here; trust ends
_FACTORIALS = (1.0, 1.0, 2.0, 6.0, 24.0)


def legendre_p(nu: float, z: float, max_terms: int = _SERIES_CAP) -> float:
    """Legendre function of the first kind P_nu(z), |nu| <= 4, z in (-0.9, 1].

    Integer nu terminates the series exactly (Legendre polynomials).
    """
    if not abs(nu) <= 4.0:
        raise DomainError(f"legendre_p expects |nu| <= 4, got {nu!r}")
    if not _Z_FLOOR < z <= 1.0:
        raise DomainError(f"legendre_p expects z in ({_Z_FLOOR}, 1], got {z!r}")
    x = 0.5 * (1.0 - z)
    term = 1.0
    total = 1.0
    tiny_streak = 0
    for k in range(max_terms):
        term *= (k - nu) * (k + nu + 1.0) / ((k + 1.0) * (k + 1.0)) * x
        total += term
        if abs(term) <= 1e-17 * abs(total) + 1e-300:
            tiny_streak += 1
            if tiny_streak >= 2:
                return total
        else:
            tiny_streak = 0
    raise ConvergenceError(f"hypergeometric series for P_nu did not converge in {max_terms} terms")


def order_derivatives(
    z: float, max_terms: int = _SERIES_CAP
) -> tuple[float, float, float, float, float]:
    """(P0, P1, P2, P3, P4) with Pn = [d^n P_nu(z)/d nu^n] at nu = 0, z in (-0.9, 1].

    Runs the term recurrence of ``legendre_p`` with each term held as its
    Taylor coefficients in nu through degree 4 and returns n! times the
    summed nu^n coefficient.
    """
    if not _Z_FLOOR < z <= 1.0:
        raise DomainError(f"order_derivatives expects z in ({_Z_FLOOR}, 1], got {z!r}")
    x = 0.5 * (1.0 - z)
    term = [1.0, 0.0, 0.0, 0.0, 0.0]
    total = list(term)
    tiny_streak = 0
    for k in range(max_terms):
        # Multiply by (k - nu)(k + 1 + nu) = k(k+1) - nu - nu^2, then x/(k+1)^2.
        kk = k * (k + 1.0)
        scale = x / ((k + 1.0) * (k + 1.0))
        term = [
            scale * (kk * c - c1 - c2)
            for c, c1, c2 in zip(term, [0.0] + term[:4], [0.0, 0.0] + term[:3])
        ]
        total = [s + c for s, c in zip(total, term)]
        if all(abs(c) <= 1e-17 * abs(s) + 1e-300 for c, s in zip(term, total)):
            tiny_streak += 1
            if tiny_streak >= 2:
                return tuple(f * s for f, s in zip(_FACTORIALS, total))
        else:
            tiny_streak = 0
    raise ConvergenceError(
        f"nu-Taylor series for the order-derivatives did not converge in {max_terms} terms"
    )


def ode_residual(n: int, z: float, dz: float) -> float:
    """|d/dz[(1-z^2) dPn/dz] + n P_{n-1} + n(n-1) P_{n-2}| via differences in z.

    The left side is expanded to (1-z^2) Pn'' - 2z Pn' and both derivatives
    come from fourth-order five-point stencils, which keeps the roundoff
    floor well under the dz^2 level a nested first-difference would have.
    """
    n = as_order(n, 1, 4, "derivative order")
    if not dz > 0.0:
        raise DomainError(f"dz must be positive, got {dz!r}")
    if not (-1.0 < z - 2.0 * dz and z + 2.0 * dz <= 1.0):
        raise DomainError(f"z +/- 2dz must stay inside (-1, 1], got z={z!r}, dz={dz!r}")

    f_m2 = p_deriv(n, z - 2.0 * dz)
    f_m1 = p_deriv(n, z - dz)
    f_0 = p_deriv(n, z)
    f_p1 = p_deriv(n, z + dz)
    f_p2 = p_deriv(n, z + 2.0 * dz)
    first = (-f_p2 + 8.0 * f_p1 - 8.0 * f_m1 + f_m2) / (12.0 * dz)
    second = (-f_p2 + 16.0 * f_p1 - 30.0 * f_0 + 16.0 * f_m1 - f_m2) / (12.0 * dz * dz)
    lhs = (1.0 - z * z) * second - 2.0 * z * first
    rhs = -n * p_deriv(n - 1, z)
    if n >= 2:
        rhs -= n * (n - 1) * p_deriv(n - 2, z)
    return abs(lhs - rhs)
