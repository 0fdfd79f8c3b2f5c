"""Real-argument polylogarithms Li_s (s = 1..5), zeta constants, and trigamma.

This is the transcendental kernel the rest of the package is built on.
Everything is plain double precision and pure-functional.

Evaluation regions for Li_s(x), x <= 1:

* ``|x| <= 3/4``      power series  sum_{k=1..N} x^k / k^s, N = 108/93/79/67 for s = 2..5
* ``3/4 < x < 1``     26 terms of the expansion in u = ln(x) with zeta coefficients
* ``x = 1``           zeta(s) (s >= 2; Li_1(1) diverges)
* ``-1 <= x < -3/4``  duplication  Li_s(x) = 2^(1-s) Li_s(x^2) - Li_s(-x)
* ``x < -1``          real inversion identities in terms of Li_s(1/x)

Both series, and trigamma's asymptotic tail, are one Horner pass over a
table fixed at import, sized so that truncation stays below 2^-56 relative
on the whole region; nothing tests for convergence at run time.  The ln(x)
expansion converges for |ln x| < 2 pi; its 26 terms cover |ln x| <= ln(4/3),
which is what puts the series cut at 3/4.

Every sub-argument generated by the duplication/inversion branches lands
in the series or ln(x) region after at most two hops, so the recursion
is shallow and cycle-free.
"""

from __future__ import annotations

import math
import operator
import sys

from .exceptions import DomainError

__all__ = ["polylog", "zeta_const", "trigamma"]

_SERIES_CUT = 0.75

# zeta(3), zeta(5) to 30 significant digits; zeta(2), zeta(4) are exact
# pi-powers and are formed from math.pi at import time.
_ZETA2 = math.pi**2 / 6.0
_ZETA3 = 1.20205690315959428539973816151
_ZETA4 = math.pi**4 / 90.0
_ZETA5 = 1.03692775514336992633136548646

# Bernoulli numbers B_2, B_4, ..., B_24.  The ln(x) expansion takes
# zeta(1-2m) = -B_2m / (2m) from them, and trigamma the first six.
_BERNOULLI = (
    1.0 / 6.0,
    -1.0 / 30.0,
    1.0 / 42.0,
    -1.0 / 30.0,
    5.0 / 66.0,
    -691.0 / 2730.0,
    7.0 / 6.0,
    -3617.0 / 510.0,
    43867.0 / 798.0,
    -174611.0 / 330.0,
    854513.0 / 138.0,
    -236364091.0 / 2730.0,
)

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


def _horner(coeffs: tuple[float, ...], u: float) -> float:
    # sum_j coeffs[j] u^(n-1-j): the table lists the highest power first.
    total = 0.0
    for coeff in coeffs:
        total = total * u + coeff
    return total


def _series_coeffs(s: int) -> tuple[float, ...]:
    # 1/k^s for k = N..1: Li_s(x) = x * _horner(coeffs, x).  The tail after N
    # terms is below a^(N+1) / ((N+1)^s (1-a)) and |Li_s(x)| >= a (1 - a/2^s),
    # a = |x|; their ratio grows with a, so N is sized at the cut a = 3/4.
    a = _SERIES_CUT
    n = 1
    while a**n / ((n + 1) ** s * (1.0 - a) * (1.0 - a / 2**s)) > 2.0**-56:
        n += 1
    return tuple(1.0 / k**s for k in range(n, 0, -1))


_SERIES_COEFFS = {s: _series_coeffs(s) for s in range(2, 6)}


def _zeta_at(m: int) -> float:
    # zeta(m) for integer m <= 5, m != 1; zeta vanishes at negative even m.
    if m >= 2:
        return zeta_const(m)
    if m == 0:
        return -0.5
    if m % 2 == 0:
        return 0.0
    return -_BERNOULLI[-m // 2] / (1 - m)


def _log_coeffs(s: int) -> tuple[float, ...]:
    # zeta(s-j)/j!, highest j first; the pole j = s-1 contributes
    # H_{s-1}/(s-1)! here and its ln(-u) part in _log_expansion.
    coeffs = []
    for j in range(_LOG_EXPANSION_TERMS):
        zeta = sum(1.0 / i for i in range(1, s)) if j == s - 1 else _zeta_at(s - j)
        coeffs.append(zeta / math.factorial(j))
    return tuple(reversed(coeffs))


_LOG_COEFFS = {s: _log_coeffs(s) for s in range(2, 6)}


def _log_expansion(s: int, x: float) -> float:
    # Li_s(x) = sum_{j>=0, j != s-1} zeta(s-j) u^j/j!
    #           + [H_{s-1} - ln(-u)] u^(s-1)/(s-1)!,   u = ln x in (-ln(4/3), 0)
    u = math.log(x)
    return _horner(_LOG_COEFFS[s], u) - math.log(-u) * u ** (s - 1) / math.factorial(s - 1)


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

    Within 1e-15 relative for s = 2..5 in every region (at most 8.1e-16
    against mpmath over ~13k points covering every region and x = +-1 +- 2^-k).
    Li_1 is returned in closed form, -ln(1-x).  Li_s(-0.0) is -0.0.

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
        return x * _horner(_SERIES_COEFFS[s], x)
    if x > 0.0:
        return _log_expansion(s, x)
    if x >= -1.0:
        return 2.0 ** (1 - s) * polylog(s, x * x) - polylog(s, -x)
    return _inversion(s, x)


# --- trigamma -------------------------------------------------------------

# Psi'(x) ~ 1/x + 1/(2x^2) + sum_j B_2j / x^(2j+1); truncating after B_12
# leaves |error| < |B_14| / x^15 < 4e-20 once x >= 20.
_TRIGAMMA_SHIFT = 20.0
_TRIGAMMA_MAX = sys.float_info.max
_TRIGAMMA_COEFFS = _BERNOULLI[5::-1]  # B_12..B_2, highest order first


def _trigamma_asymptotic(x: float) -> float:
    inv = 1.0 / x
    inv2 = inv * inv
    return inv + 0.5 * inv2 + inv * inv2 * _horner(_TRIGAMMA_COEFFS, inv2)


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
