"""Closed forms for the order-derivatives of the Legendre function at nu = 0.

``p_deriv(n, z)`` evaluates Pn(z) = [d^n P_nu(z) / d nu^n] at nu = 0 for
n = 0..4, with t = (1+z)/2 throughout:

    P0 = 1
    P1 = ln(t)
    P2 = -2 Li_2(1-t)
    P3 = 12 Li_3(t) - 6 ln(t) Li_2(t) - pi^2 ln(t) - 12 zeta(3)
    P4 = pi^4/15 + 24 [ ... ]          (grouped bracket, see the source)

The module also carries every intermediate closed form the P4 derivation
runs through: the inner integral I(z) = (1+z) P3(z), the antiderivative
frak_I of ln(t) Li_2(t)/(1-t) with its endpoint limits, the first
integrals int^z P_eta dz', and residual evaluators for the dilogarithm
reflection, the dilogarithm Landen transform, and the three-term
trilogarithm identity.

Everything diverges logarithmically as z -> -1 (n >= 1), so that endpoint
is a hard domain error rather than an infinity.
"""

from __future__ import annotations

import math

from .exceptions import DomainError
from .polylog import as_order, polylog, zeta_const

__all__ = [
    "p_deriv",
    "inner_integral_I",
    "frak_I",
    "frak_I_limit",
    "first_integral",
    "dilog_reflection",
    "dilog_landen",
    "trilog_identity",
]

_PI2 = math.pi**2
_PI4 = math.pi**4


def _check_z(n: int, z: float) -> float:
    z = float(z)
    if math.isnan(z):
        raise DomainError("argument is NaN")
    if n == 0:
        if not -1.0 <= z <= 1.0:
            raise DomainError(f"argument must lie in [-1, 1], got {z!r}")
    elif not -1.0 < z <= 1.0:
        raise DomainError(
            f"argument must lie in (-1, 1] for derivative order {n} "
            f"(logarithmic divergence at -1), got {z!r}"
        )
    return z


def p_deriv(n: int, z: float) -> float:
    """Order-derivative Pn(z) for n in 0..4, z in (-1, 1] (open at -1).

    Pn(1) is exactly 0 for n >= 1 and exactly 1 for n = 0.  The P4
    integration constants are pinned by P4(1) = 0: the coefficient of
    ln((1+z)/(1-z)) must vanish for P4 to stay finite at z = 1, which
    leaves only the additive constant pi^4/15.
    """
    n = as_order(n, 0, 4, "derivative order")
    z = _check_z(n, z)
    if n == 0:
        return 1.0
    t = 0.5 * (1.0 + z)
    if n == 1:
        return math.log(t)
    u = 0.5 * (1.0 - z)  # 1 - t without cancellation
    if n == 2:
        return -2.0 * polylog(2, u) + 0.0  # + 0.0 turns -0.0 into +0.0 at z = 1
    zeta3 = zeta_const(3)
    if n == 3:
        lt = math.log(t)
        return 12.0 * polylog(3, t) - 6.0 * lt * polylog(2, t) - _PI2 * lt - 12.0 * zeta3
    # n == 4: the ln(1-t) powers blow up at t = 1 while their sum cancels,
    # so the normalization point returns exactly 0 instead of NaN.
    if t == 1.0:
        return 0.0
    lt = math.log(t)
    lu = math.log(u)
    li2t = polylog(2, t)
    row1 = (
        0.5 * li2t * li2t
        - _PI2 / 6.0 * li2t
        + 2.0 * polylog(4, t)
        - 2.0 * polylog(4, u)
        + 2.0 * lt * (polylog(3, u) - zeta3)
    )
    row2 = lu**4 / 12.0 + _PI2 / 6.0 * lu * lu + 2.0 * polylog(4, -t / u)
    row3 = lt * lu * (li2t - _PI2 / 2.0 - lu * lu / 3.0 + lt * lu)
    # The +pi^4/36 completes the bracket so that it vanishes at t = 1,
    # which is what pins the overall constant to pi^4/15.
    return _PI4 / 15.0 + 24.0 * (row1 + row2 + row3 + _PI4 / 36.0)


def inner_integral_I(z: float) -> float:
    """The inner integral I(z) = int_{-1}^{z} [P3 + 3 P2] dz' = (1+z) P3(z).

    I(1) = 0 (the P3 bracket vanishes there) and I(z) -> 0 as z -> -1+,
    but z = -1 itself is outside the domain.
    """
    z = _check_z(1, z)
    return (z + 1.0) * p_deriv(3, z)


def frak_I(t: float) -> float:
    """Antiderivative of ln(t) Li_2(t) / (1 - t) on 0 < t < 1.

    The integration constant is fixed so that the endpoint limits are
    frak_I_limit(0) = -pi^4/45 and frak_I_limit(1) = -11 pi^4/360.
    """
    t = float(t)
    if not 0.0 < t < 1.0:
        raise DomainError(
            f"frak_I is defined on the open interval (0, 1), got {t!r}; "
            "endpoint values are provided by frak_I_limit"
        )
    u = 1.0 - t
    lt = math.log(t)
    lu = math.log1p(-t)
    d = lt - lu  # ln(t/(1-t))
    w = -t / u  # t/(t-1)
    li2t = polylog(2, t)
    li2u = polylog(2, u)
    li2w = polylog(2, w)
    total = (lt * lt - lt * lu) * li2t - lu * lu * li2u + d * d * li2w - 0.5 * li2t * li2t
    # The 2 ln(t) Li_3(t) term carries a minus sign: that is what makes the
    # t-derivative equal ln(t) Li_2(t)/(1-t) (the endpoint limits are
    # insensitive to this sign since ln(t) Li_3(t) -> 0 at both ends).
    total += -2.0 * lt * polylog(3, t) + 2.0 * lu * polylog(3, u) - 2.0 * d * polylog(3, w)
    total += 2.0 * (polylog(4, t) - polylog(4, u) + polylog(4, w))
    total += lu * lu * (0.5 * lt * lt - lt * lu + 0.25 * lu * lu)
    return total


def frak_I_limit(endpoint: int) -> float:
    """Endpoint limits of frak_I, obtained by cancelling the log powers.

    As t -> 1, the divergent ln(1-t) powers from the Landen-argument
    polylogarithms cancel against the explicit log polynomial, leaving
    -pi^4/72 + 2 zeta(4) - 7 pi^4/180 = -11 pi^4/360; as t -> 0 every
    term vanishes except -2 Li_4(1) = -pi^4/45.
    """
    if as_order(endpoint, 0, 1, "frak_I_limit endpoint") == 0:
        return -_PI4 / 45.0
    return -11.0 * _PI4 / 360.0


def first_integral(eta: int, z: float, li_order: int = 2) -> float:
    """First integrals int^z P_eta dz' for eta in {1, 2, 3}, as closed forms.

    The eta = 3 form contains a polylogarithm whose order is ambiguous in
    the source display; ``li_order`` selects the resolution (default 2,
    the order under which the z-dependence of d/dz matches P3 exactly).
    Note the printed eta = 3 form is off by the constant 24 zeta(3) in its
    derivative even then; see the verification suite, which reports it.
    """
    eta = as_order(eta, 1, 3, "first_integral eta")
    li_order = as_order(li_order, 1, 3, "li_order")
    z = _check_z(1, z)
    t = 0.5 * (1.0 + z)
    if eta == 1:
        return (1.0 + z) * (math.log(t) - 1.0)
    if eta == 2:
        u = 0.5 * (1.0 - z)
        return -2.0 * (1.0 + z) * (math.log(t) - 1.0) + 2.0 * (1.0 - z) * polylog(2, u)
    zeta3 = zeta_const(3)
    lt = math.log(t)
    head = 6.0 * (1.0 + z) * (
        2.0 * polylog(3, t)
        + _PI2 / 6.0
        - 1.0
        + 2.0 * zeta3
        - (polylog(2, t) + _PI2 / 6.0 - 1.0) * lt
    )
    if z == 1.0:
        return head  # the (1-z) group vanishes; avoids ln(0) * 0
    u = 0.5 * (1.0 - z)
    return head + 6.0 * (1.0 - z) * (polylog(li_order, t) + math.log(u) * lt)


def _check_unit_interval(x: float) -> float:
    x = float(x)
    if not 0.0 < x < 1.0:
        raise DomainError(f"identity arguments must lie in (0, 1), got {x!r}")
    return x


def dilog_reflection(x: float) -> float:
    """Residual of Li_2(1-x) + Li_2(x) - pi^2/6 + ln(x) ln(1-x); ~0 on (0,1)."""
    x = _check_unit_interval(x)
    return polylog(2, 1.0 - x) + polylog(2, x) - _PI2 / 6.0 + math.log(x) * math.log1p(-x)


def dilog_landen(x: float) -> float:
    """Residual of Li_2(x/(x-1)) + Li_2(x) + ln^2(1-x)/2; ~0 on (0,1)."""
    x = _check_unit_interval(x)
    lu = math.log1p(-x)
    return polylog(2, x / (x - 1.0)) + polylog(2, x) + 0.5 * lu * lu


def trilog_identity(x: float) -> float:
    """Residual of the three-term trilogarithm identity; ~0 on (0,1).

    Li_3(x/(x-1)) + Li_3(1-x) + Li_3(x) - zeta(3)
        = pi^2/6 ln(1-x) - 1/2 ln(x) ln^2(1-x) + 1/6 ln^3(1-x)
    """
    x = _check_unit_interval(x)
    lx = math.log(x)
    lu = math.log1p(-x)
    lhs = polylog(3, x / (x - 1.0)) + polylog(3, 1.0 - x) + polylog(3, x) - zeta_const(3)
    rhs = _PI2 / 6.0 * lu - 0.5 * lx * lu * lu + lu**3 / 6.0
    return lhs - rhs
