"""Real-argument polylogarithms Li_s (s = 1..5), zeta constants, and trigamma.

This is the transcendental kernel the rest of the package is built on.
Everything is plain double precision and pure-functional.

Evaluation regions for Li_s(x), x <= 1:

* ``|x| <= 1/2``      power series sum_k x^k / k^s, re-expanded about the midpoint
                      of each 1/8-wide piece; terms per piece, from -1/2 up:
                      s = 2: 12/12/12/13/13/14/15/16
                      s = 3: 11/11/11/12/12/13/13/14
                      s = 4: 10/11/11/11/11/12/12/13
                      s = 5: 10/10/10/10/11/11/11/12
* ``1/2 < x < 1``     16/17/16/15 terms of the expansion in u = ln(x) with zeta coefficients
* ``x = 1``           zeta(s) (s >= 2; Li_1(1) diverges)
* ``-1 <= x < -1/2``  duplication  Li_s(x) = 2^(1-s) Li_s(x^2) - Li_s(-x)
* ``x < -1``          real inversion identities in terms of Li_s(1/x)

Both series, and trigamma's asymptotic tail, are one Horner pass over a
table fixed at import; nothing tests for convergence at run time.  One rule
sizes both series and orderderiv's nu-tables: keep the rows up to the last
whose bound on the table's range reaches 2^-57 of |f| where the tail's share
of it is largest (``_sized_table``).  Each series is sized so on |x| <= 1/2,
then re-expanded about each piece's midpoint and sized again on the piece,
against the least |f| there (``_recentred``).  ``_piece(x)`` says which
piece's table runs, for polylog and orderderiv alike.

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

# Every series table, orderderiv's too, runs on |x| <= _SERIES_CUT, re-expanded
# about the midpoint of each 1/8-wide piece; _piece(x) says which piece runs.
_SERIES_CUT = 0.5
_MIDPOINTS = tuple((2 * i - 7) / 16.0 for i in range(8))
_RECENTRED_ROWS = 24  # (1/16)^24 = 2^-96: no re-centred table needs more rows

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


def _sized_table(coeffs: list[float], bounds: list[float], least: float) -> tuple[float, ...]:
    # ``coeffs`` (lowest power first) up to the last row whose bound on the table's
    # range reaches 2^-57 of ``least``, |f| where the tail's share of it is largest.
    n = 1 + max(k for k, bound in enumerate(bounds) if bound >= 2.0**-57 * least)
    return tuple(reversed(coeffs[:n]))


def _piece(x: float) -> int:
    # The 1/8-wide piece of [-1/2, 1/2] that holds x, numbered 0..7 from -1/2 up;
    # 8x and its floor are exact, and x = 1/2 joins the top piece.
    return min(math.floor(8.0 * x), 3) + 4


def _taylor_at(table: tuple[float, ...], c: float) -> list[float]:
    # The first _RECENTRED_ROWS Taylor coefficients about c, lowest power first, of
    # the polynomial ``table`` lists highest power first: each synthetic division
    # by (x - c) leaves the next one as its remainder.
    table, coeffs = list(table), []
    while table and len(coeffs) < _RECENTRED_ROWS:
        total = 0.0
        for k, coeff in enumerate(table):
            total = table[k] = total * c + coeff
        coeffs.append(table.pop())
    return coeffs


def _recentred(
    i: int, a: tuple[float, ...], b: tuple[float, ...] = ()
) -> tuple[tuple[float, ...], ...]:
    # f(x) = a(x) + ln(x) b(x), a and b listed highest power first, as tables in
    # h = x - c about piece i's midpoint c, cut alike.  Row j is at most
    # (|a_j| + L |b_j|) (1/16)^j on the piece, L the largest |ln x| there (x >= 2^-54,
    # the least t = (1+z)/2 of a float z > -1); |f| is monotone on every piece,
    # so it is least at one of the piece's ends.
    c = _MIDPOINTS[i]
    columns = [_taylor_at(table, c) for table in (a, b) if table]
    ends = (c - 0.0625, c + 0.0625)
    if b:
        ends = (max(ends[0], 2.0**-54), ends[1])
        rows = [abs(p) - math.log(ends[0]) * abs(q) for p, q in zip(*columns)]
        least = min(abs(_horner(a, x) + math.log(x) * _horner(b, x)) for x in ends)
    else:
        rows = [abs(p) for p in columns[0]]
        least = min(abs(_horner(a, x)) for x in ends)
    bounds = [row * 0.0625**j for j, row in enumerate(rows)]
    return tuple(_sized_table(coeffs, bounds, least) for coeffs in columns)


def _series_pieces(s: int) -> tuple[tuple[float, ...], ...]:
    # Li_s(x) = x * _horner(series, x) on |x| <= a = _SERIES_CUT, series = 1/k^s for
    # k = N..1: term k is at most a^k / k^s there, and the tail's share of |Li_s| is
    # largest at -a.  Piece i's table gives Li_s(x) = x * _horner(table, x - c_i).
    a = _SERIES_CUT
    coeffs = [1.0 / k**s for k in range(1, 81)]
    least = abs(sum(coeff * (-a) ** k for k, coeff in enumerate(coeffs, 1)))
    series = _sized_table(coeffs, [coeff * a**k for k, coeff in enumerate(coeffs, 1)], least)
    return tuple(_recentred(i, series)[0] for i in range(len(_MIDPOINTS)))


_SERIES_PIECES = {s: _series_pieces(s) for s in range(2, 6)}


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
    # zeta(s-j)/j! for j < 24, as far as _BERNOULLI reaches; the pole j = s-1
    # contributes H_{s-1}/(s-1)! here and its ln(-u) part in _log_expansion.  Row
    # j is at most |coeff ln(x)^j| on x > _SERIES_CUT, where Li_s is least at the cut.
    coeffs = []
    for j in range(2 * len(_BERNOULLI)):
        zeta = sum(1.0 / i for i in range(1, s)) if j == s - 1 else _zeta_at(s - j)
        coeffs.append(zeta / math.factorial(j))
    least = _SERIES_CUT * _horner(_SERIES_PIECES[s][-1], _SERIES_CUT - _MIDPOINTS[-1])
    bounds = [abs(c * math.log(_SERIES_CUT) ** j) for j, c in enumerate(coeffs)]
    return _sized_table(coeffs, bounds, least)


_LOG_COEFFS = {s: _log_coeffs(s) for s in range(2, 6)}


def _log_expansion(s: int, x: float) -> float:
    # Li_s(x) = sum_{j>=0, j != s-1} zeta(s-j) u^j/j!
    #           + [H_{s-1} - ln(-u)] u^(s-1)/(s-1)!,   u = ln x in (-ln 2, 0)
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

    Within 1e-15 relative for s = 2..5 in every region (at most 8.5e-16
    against mpmath over ~26k points covering every region, the piece and
    region edges x = k/8, k = -4..4, and x = +-1 +- 2^-k).
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
    if -_SERIES_CUT <= x <= _SERIES_CUT:
        i = _piece(x)
        return x * _horner(_SERIES_PIECES[s][i], x - _MIDPOINTS[i])
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
