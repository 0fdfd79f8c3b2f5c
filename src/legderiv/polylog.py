"""Real-argument polylogarithms Li_s (s = 1..5), zeta constants, and trigamma.

This is the transcendental kernel the rest of the package is built on.
Everything is plain double precision and pure-functional.

Evaluation regions for Li_s(x), x <= 1:

* ``|x| <= 3/4``      direct power series  sum_{k>=1} x^k / k^s
* ``3/4 < x < 1``     s=2: Euler reflection via Li_2(1-x);
                      s=3: three-term Landen-type identity via Li_3(1-x)
                      and Li_3(x/(x-1));
                      s=4,5: expansion in u = ln(x) with zeta coefficients
                      (no elementary reflection exists at these orders)
* ``x = 1``           zeta(s) (s >= 2; Li_1(1) diverges)
* ``-1 <= x < -3/4``  duplication  Li_s(x) = 2^(1-s) Li_s(x^2) - Li_s(-x)
* ``x < -1``          real inversion identities in terms of Li_s(1/x)

Every sub-argument generated by the reflection/duplication/inversion
branches lands back in the series region after at most two hops, so the
recursion is shallow and cycle-free.  The series cut sits at 3/4 rather
than 1/2 because the s=3 identity maps arguments just above 1/2 back onto
themselves near x = (sqrt(5)-1)/2.
"""

from __future__ import annotations

import math
import operator
import sys

from .exceptions import DomainError

__all__ = ["polylog", "zeta_const", "trigamma"]

_SERIES_CUT = 0.75
_EPS = 1e-17
_MAX_SERIES_TERMS = 400

# zeta(3), zeta(5) to 30 significant digits; zeta(2), zeta(4) are exact
# pi-powers and are formed from math.pi at import time.
_ZETA2 = math.pi**2 / 6.0
_ZETA3 = 1.20205690315959428539973816151
_ZETA4 = math.pi**4 / 90.0
_ZETA5 = 1.03692775514336992633136548646

# zeta at non-positive integers, used by the ln(x)-expansion branch:
# zeta(0) = -1/2, zeta(-2m) = 0, zeta(-(2m-1)) = -B_2m / (2m).
_ZETA_NEG_ODD = {
    1: -1.0 / 12.0,
    3: 1.0 / 120.0,
    5: -1.0 / 252.0,
    7: 1.0 / 240.0,
    9: -1.0 / 132.0,
    11: 691.0 / 32760.0,
    13: -1.0 / 12.0,
    15: 3617.0 / 8160.0,
    17: -43867.0 / 14364.0,
    19: 174611.0 / 6600.0,
    21: -77683.0 / 276.0,
    23: 236364091.0 / 65520.0,
}

_LOG_EXPANSION_TERMS = 26  # next term is below 1e-30 for |ln x| <= ln(4/3)


def zeta_const(s: int) -> float:
    """Riemann zeta(s) for integer s in 2..5, full double precision."""
    if s == 2:
        return _ZETA2
    if s == 3:
        return _ZETA3
    if s == 4:
        return _ZETA4
    if s == 5:
        return _ZETA5
    raise DomainError(f"zeta_const defined for s in 2..5, got {s!r}")


def as_order(value: object, lo: int, hi: float, what: str) -> int:
    """``value`` as a plain int in lo..hi; any integer-like type but bool.

    Raises DomainError otherwise.
    """
    if not isinstance(value, bool):
        try:
            order = operator.index(value)
        except TypeError:
            pass
        else:
            if lo <= order <= hi:
                return order
    raise DomainError(f"{what} must be an integer in {lo}..{hi}, got {value!r}")


def _series(s: int, x: float) -> float:
    # sum x^k / k^s; the geometric tail bound |term| * a/(1-a) certifies
    # convergence since |x| <= 3/4 here.
    a = abs(x)
    power = x
    total = x
    for k in range(2, _MAX_SERIES_TERMS):
        power *= x
        total += power / float(k) ** s
        if abs(power) * a / (1.0 - a) <= _EPS * abs(total) + 1e-300:
            return total
    raise AssertionError("series region is |x| <= 3/4; cannot get here")


def _zeta_at(m: int) -> float:
    if m >= 2:
        return zeta_const(m)
    if m == 0:
        return -0.5
    if m < 0 and m % 2 == 0:
        return 0.0
    return _ZETA_NEG_ODD[-m]


def _log_expansion(s: int, x: float) -> float:
    # Li_s(x) = sum_{j>=0, j != s-1} zeta(s-j) u^j/j!
    #           + [H_{s-1} - ln(-u)] u^(s-1)/(s-1)!,   u = ln x in (-ln(4/3), 0)
    u = math.log(x)
    harmonic = sum(1.0 / i for i in range(1, s))
    total = u ** (s - 1) / math.factorial(s - 1) * (harmonic - math.log(-u))
    u_pow = 1.0
    fact = 1.0
    for j in range(_LOG_EXPANSION_TERMS):
        if j > 0:
            u_pow *= u
            fact *= j
        if j == s - 1:
            continue
        total += _zeta_at(s - j) * u_pow / fact
    return total


def _near_one(s: int, x: float) -> float:
    y = 1.0 - x  # in (0, 1/4): exact by Sterbenz since x in (3/4, 1)
    if s == 2:
        return _ZETA2 - math.log(x) * math.log(y) - _series(2, y)
    if s == 3:
        if y < 1e-6:
            # the three-term route cancels ln^3-sized pieces here and
            # slips past the 1e-13 target; the ln-expansion does not.
            return _log_expansion(3, x)
        lx = math.log(x)
        ly = math.log(y)
        poly = _ZETA2 * ly - 0.5 * lx * ly * ly + ly**3 / 6.0
        return _ZETA3 + poly - _series(3, y) - polylog(3, -x / y)
    return _log_expansion(s, x)


def _inversion(s: int, x: float) -> float:
    # x < -1; ln(-x) > 0 and 1/x lands in (-1, 0).
    lgm = math.log(-x)
    recip = polylog(s, 1.0 / x)
    if s == 2:
        return -recip - _ZETA2 - 0.5 * lgm * lgm
    if s == 3:
        return recip - _ZETA2 * lgm - lgm**3 / 6.0
    if s == 4:
        return -recip - 7.0 * _ZETA4 / 4.0 - 0.5 * _ZETA2 * lgm * lgm - lgm**4 / 24.0
    # s == 5: eta(4) = 7 zeta(4)/8 drives the odd-order inversion tail
    return recip - 7.0 * _ZETA4 / 4.0 * lgm - _ZETA2 / 6.0 * lgm**3 - lgm**5 / 120.0


def polylog(s: int, x: float) -> float:
    """Polylogarithm Li_s(x) = sum_{k>=1} x^k / k^s for real x <= 1.

    Accurate to ~1e-13 relative on |x| <= 1 and ~1e-12 for x < -1.
    Li_1 is returned in closed form, -ln(1-x).

    Raises DomainError for x > 1, for non-finite x and for the divergent
    point (s=1, x=1).
    """
    s = as_order(s, 1, 5, "polylogarithm order")
    x = float(x)
    if not -math.inf < x <= 1.0:
        raise DomainError(f"polylog requires finite x <= 1, got {x!r}")
    if s == 1:
        if x == 1.0:
            raise DomainError("Li_1(1) diverges")
        return -math.log1p(-x)
    if x == 1.0:
        return zeta_const(s)
    if abs(x) <= _SERIES_CUT:
        return _series(s, x)
    if x > 0.0:
        return _near_one(s, x)
    if x >= -1.0:
        return 2.0 ** (1 - s) * polylog(s, x * x) - polylog(s, -x)
    return _inversion(s, x)


# --- trigamma -------------------------------------------------------------

# Psi'(x) ~ 1/x + 1/(2x^2) + sum_j B_2j / x^(2j+1); truncating after B_12
# leaves |error| < |B_14| / x^15 < 4e-20 once x >= 20.
_TRIGAMMA_SHIFT = 20.0
_TRIGAMMA_MAX = sys.float_info.max
_BERNOULLI_TERMS = (
    1.0 / 6.0,
    -1.0 / 30.0,
    1.0 / 42.0,
    -1.0 / 30.0,
    5.0 / 66.0,
    -691.0 / 2730.0,
)


def _trigamma_asymptotic(x: float) -> float:
    inv = 1.0 / x
    inv2 = inv * inv
    total = inv + 0.5 * inv2
    power = inv * inv2
    for coeff in _BERNOULLI_TERMS:
        total += coeff * power
        power *= inv2
    return total


def trigamma(k: int) -> float:
    """Trigamma Psi'(k) = sum_{j>=0} 1/(k+j)^2 for integer k >= 1.

    Accepts any integer-like type but bool, up to the largest k that
    converts to a finite float.  Recurrence Psi'(k) = Psi'(k+1) + 1/k^2
    shifts the argument to >= 20, where the asymptotic expansion is
    accurate to well below 1e-13 relative.
    """
    # The plain-int test keeps the hot path as cheap as two isinstance calls.
    if type(k) is not int or not 0 < k <= _TRIGAMMA_MAX:
        k = as_order(k, 1, _TRIGAMMA_MAX, "trigamma argument")
    x = float(k)
    total = 0.0
    while x < _TRIGAMMA_SHIFT:
        total += 1.0 / (x * x)
        x += 1.0
    return total + _trigamma_asymptotic(x)
