"""Real-argument polylogarithms Li_s (s = 1..5), zeta constants, and trigamma.

This is the transcendental kernel the rest of the package is built on.
Everything is plain double precision and pure-functional.

Evaluation regions for Li_s(x), x <= 1:

* ``-1 <= x <= 1/2``  the power series sum_k x^k / k^s (|x| <= 1/2) or the series
                      about -1 (x < -1/2), re-expanded about the midpoint of each
                      1/8-wide piece; terms per piece, from -1 up:
                      s = 2: 11/11/11/11/12/12/12/13/13/14/15/16
                      s = 3: 10/10/11/11/11/11/11/12/12/13/13/14
                      s = 4: 10/10/10/10/10/11/11/11/11/12/12/13
                      s = 5: 9/9/9/10/10/10/10/10/11/11/11/12
* ``1/2 < x < 1``     a(v) + ln(v) b(v) in v = -ln(x) in (0, ln 2): a has zeta
                      coefficients, re-expanded about the midpoint of each 1/8-wide
                      piece of 0 <= v < 3/4, and b(v) = -(-v)^(s-1)/(s-1)! is one
                      monomial, evaluated in closed form; a rows per piece, from
                      x = 1 down:
                      s = 2: a 8/8/9/9/9/9
                      s = 3: a 9/9/9/9/9/9
                      s = 4: a 8/8/9/9/9/9
                      s = 5: a 9/9/9/9/9/9
* ``x = 1``           zeta(s) (s >= 2; Li_1(1) diverges)
* ``x < -1``          real inversion identities in terms of Li_s(1/x), 1/x on a piece

Every series, and trigamma's asymptotic tail, is one Horner pass over a
table fixed at import; nothing tests for convergence at run time.  Every
series table, orderderiv's nu-tables too, is sized in one step
(``_recentred``): its uncut source is re-expanded about the midpoint of its
1/8-wide piece, and the rows are kept up to the last whose bound on the piece
reaches 2^-57 of the least |f| there.  ``_piece(x)`` says which piece's table
runs on [-1, 1/2], for polylog and orderderiv alike; above 1/2 it is
floor(8v) + 8.  Inversion, the only branch that recurses, lands on a piece:
every call takes at most one hop.

The paper's P3, P4 and frak_I take Li_2, Li_3 and Li_4 at the same few
arguments (t, 1 - t, t/(t - 1)).  The private ``_li234(x)`` returns all three
from one pass: one Horner loop over the three piece tables side by side (the
zero-padded rows of ``_rows``), of x's piece on [-1, 1/2] or of the a rows of
v's piece above 1/2, then one log(v) times b(v) spelled as ``_li`` spells it;
below -1, one recursion at 1/x through the same inversion step (``_inverted``)
as ``_li``.  Each value equals ``polylog(s, x)`` bit for bit.  ``frak_I``, ``first_integral(3, .)``, ``_closed_form(3 and 4)`` and
verify's antiderivative displays call it.
"""

from __future__ import annotations

import itertools
import math
import operator
import sys

from .exceptions import DomainError

__all__ = ["polylog", "zeta_const", "trigamma"]

# Pieces 0..11 cover [-1, _SERIES_CUT] in x; above it pieces 8..13 cover v = -ln x in
# [0, 3/4).  Every piece table, orderderiv's too, is re-expanded about the 1/8-wide
# piece's midpoint; _piece(x) says which runs on [-1, _SERIES_CUT].
_SERIES_CUT = 0.5
_MIDPOINTS = tuple((2 * i - 15) / 16.0 for i in range(14))
_RECENTRED_ROWS = 24  # (1/16)^24 = 2^-96: no re-centred table needs more rows

# zeta(3), zeta(4), zeta(5) as literals; zeta(2) = pi^2/6 from math.pi, which
# rounds correctly where math.pi**4 / 90.0 falls one ulp short of zeta(4).
_ZETA2 = math.pi**2 / 6.0
_ZETA3 = 1.20205690315959428539973816151
_ZETA4 = 1.0823232337111381
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
    """Riemann zeta(s) for integer s in 2..5, correctly rounded to double."""
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
    if type(value) is int and lo <= value <= hi:
        return value
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


def _piece(x: float) -> int:
    # The 1/8-wide piece of [-1, 1/2] that holds x, numbered 0..11 from -1 up;
    # 8x and its floor are exact, and x = 1/2 joins the top piece.
    return min(math.floor(8.0 * x), 3) + 8


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
    i: int, a: tuple[float, ...], b: tuple[float, ...] = (), x0: float = 0.0
) -> tuple[tuple[float, ...], ...]:
    # f(x) = a(x) + ln(x) b(x), a and b listed highest power first in x - x0, as
    # tables in h = x - c about piece i's midpoint c, cut alike: the one place a series
    # table's length is decided.  Row j is at most (|a_j| + L |b_j|) (1/16)^j on the
    # piece, L the largest |ln x| there; x >= 2^-54, the least t = (1+z)/2 of a float
    # z > -1, and the least v = -ln x of a float x < 1 is ~2^-53.  |f| is monotone on
    # every piece, Li_s(e^-v) in v too, so it is least at one of its ends.  The rows
    # run to the longer column's end, and each column is cut to at most its own.
    # orderderiv keeps both columns; polylog's ln(x) pieces keep only a, since their
    # b(v) is a monomial that _li and _li234 evaluate in closed form.
    c = _MIDPOINTS[i]
    columns = [_taylor_at(table, c - x0) for table in (a, b) if table]
    ends = (c - 0.0625, c + 0.0625)
    if b:
        ends = (max(ends[0], 2.0**-54), ends[1])
        pairs = itertools.zip_longest(*columns, fillvalue=0.0)
        rows = [abs(p) - math.log(ends[0]) * abs(q) for p, q in pairs]
        least = min(abs(_horner(a, x - x0) + math.log(x) * _horner(b, x - x0)) for x in ends)
    else:
        rows = [abs(p) for p in columns[0]]
        least = min(abs(_horner(a, x - x0)) for x in ends)
    n = 1 + max(j for j, row in enumerate(rows) if row * 0.0625**j >= 2.0**-57 * least)
    return tuple(tuple(reversed(coeffs[:n])) for coeffs in columns)


def _series_pieces(s: int) -> tuple[tuple[float, ...], ...]:
    # Piece i's table gives Li_s(x) = x * _horner(table, x - c_i), re-centred by _recentred
    # from an uncut source.  Pieces 4..11: 1/k^s, k = 80..1.  Pieces 0..3: Li_s(-1 + h) / x
    # = -sum_j (d_0 + ... + d_j) h^j, j < 40, where x Li_s' = Li_{s-1} gives d_{j+1} =
    # (j d_j - d'_j) / (j+1), d' of Li_{s-1}, up from Li_1(-1 + h) = -ln 2 + sum_j (h/2)^j / j.
    d = [-math.log(2.0)] + [0.5**j / j for j in range(1, 40)]
    for r in range(2, s + 1):
        prev, d = d, [-(1.0 - 2.0 ** (1 - r)) * zeta_const(r)]
        for j in range(39):
            d.append((j * d[j] - prev[j]) / (j + 1))
    quotient = tuple(-total for total in itertools.accumulate(d))[::-1]
    series = tuple(1.0 / k**s for k in range(80, 0, -1))
    below = tuple(_recentred(i, quotient, x0=-1.0)[0] for i in range(4))
    return below + tuple(_recentred(i, series)[0] for i in range(4, 12))


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


def _log_pieces(s: int) -> dict[int, tuple[float, ...]]:
    # Li_s(e^-v) = a(v) + ln(v) b(v) for 0 < v < ln 2: a_j = (-1)^j zeta(s-j)/j! for
    # j < 24, as far as _BERNOULLI reaches, but H_{s-1}/(s-1)! at the pole j = s-1, whose
    # ln(v) part is the monomial b(v) = -(-v)^(s-1)/(s-1)!.  _recentred sizes a on the
    # pieces 8..13 of [0, 3/4) against the whole of f, b included, and only a is kept:
    # _li and _li234 evaluate b(v) as it stands.
    harmonic = sum(1.0 / k for k in range(1, s))
    zeta = [harmonic if j == s - 1 else _zeta_at(s - j) for j in range(2 * len(_BERNOULLI))]
    a = tuple((-1) ** j * z / math.factorial(j) for j, z in enumerate(zeta))[::-1]
    b = ((-1) ** s / math.factorial(s - 1),) + (0.0,) * (s - 1)
    return {i: _recentred(i, a, b)[0] for i in range(8, 14)}


_LOG_PIECES = {s: _log_pieces(s) for s in range(2, 6)}


def _inverted(s: int, recip: float, lgm: float) -> float:
    # Li_s(x) for x < -1 from recip = Li_s(1/x) and lgm = ln(-x) > 0.
    if s == 2:
        return -recip - _ZETA2 - 0.5 * lgm * lgm
    if s == 3:
        return recip - _ZETA2 * lgm - lgm**3 / 6.0
    if s == 4:
        return -recip - 7.0 * _ZETA4 / 4.0 - 0.5 * _ZETA2 * lgm * lgm - lgm**4 / 24.0
    # s == 5: eta(4) = 7 zeta(4)/8 drives the odd-order inversion tail
    return recip - 7.0 * _ZETA4 / 4.0 * lgm - _ZETA2 / 6.0 * lgm**3 - lgm**5 / 120.0


def _li(s: int, x: float) -> float:
    # Li_s(x) for s in 2..5 and finite x < 1, as checked by polylog; inversion maps
    # x < -1 (1/x in (-1, 0)) into the pieces, so every call enters here at most twice.
    if -1.0 <= x <= _SERIES_CUT:
        i = _piece(x)
        return x * _horner(_SERIES_PIECES[s][i], x - _MIDPOINTS[i])
    if x > 0.0:
        # v = -ln x lies in the piece floor(8v) + 8 of [0, 3/4); b(v) is built up
        # from b = v for s = 2 by the factor -v/k, as _li234 spells it.
        v = -math.log(x)
        i = math.floor(8.0 * v) + 8
        b = v
        for k in range(2, s):
            b *= -v / k
        return _horner(_LOG_PIECES[s][i], v - _MIDPOINTS[i]) + math.log(v) * b
    return _inverted(s, _li(s, 1.0 / x), math.log(-x))


def _rows(*columns: tuple[float, ...]) -> tuple[tuple[float, ...], ...]:
    # The columns side by side, each zero-padded at its high-power end to the
    # longest.  A Horner pass goes 0 -> 0*x + 0 = 0 -> 0*x + c = c through the
    # padding, so each column gives the same bits as its own _horner pass.
    width = max(map(len, columns))
    return tuple(zip(*((0.0,) * (width - len(col)) + col for col in columns)))


# _li234's tables: the s = 2, 3, 4 rows of each piece side by side, of [-1, 1/2]
# and of v in [0, 3/4) (the a rows).
_LI234_PIECES = tuple(_rows(*(_SERIES_PIECES[s][i] for s in (2, 3, 4))) for i in range(12))
_LI234_LOG = {i: _rows(*(_LOG_PIECES[s][i] for s in (2, 3, 4))) for i in range(8, 14)}


def _li234(x: float) -> tuple[float, float, float]:
    # (Li_2, Li_3, Li_4)(x) for finite x <= 1, each equal to polylog(s, x) bit for
    # bit: the three tables of x's piece in one Horner loop, one log(v) above 1/2.
    if -1.0 <= x <= _SERIES_CUT:
        i = _piece(x)
        h = x - _MIDPOINTS[i]
        rows = _LI234_PIECES[i]
    elif x == 1.0:
        return _ZETA2, _ZETA3, _ZETA4
    elif x > 0.0:
        v = -math.log(x)
        i = math.floor(8.0 * v) + 8
        h = v - _MIDPOINTS[i]
        rows = _LI234_LOG[i]
    else:
        r2, r3, r4 = _li234(1.0 / x)
        lgm = math.log(-x)
        return _inverted(2, r2, lgm), _inverted(3, r3, lgm), _inverted(4, r4, lgm)
    l2 = l3 = l4 = 0.0
    for c2, c3, c4 in rows:
        l2 = l2 * h + c2
        l3 = l3 * h + c3
        l4 = l4 * h + c4
    if x <= _SERIES_CUT:
        return x * l2, x * l3, x * l4
    lv = math.log(v)
    b3 = v * (-v / 2)
    return l2 + lv * v, l3 + lv * b3, l4 + lv * (b3 * (-v / 3))


def polylog(s: int, x: float) -> float:
    """Polylogarithm Li_s(x) = sum_{k>=1} x^k / k^s for real x <= 1.

    Within 1e-15 relative for s = 2..5 in every region (at most 4.8e-16
    against mpmath over ~100k points: 5000 random x per region and order,
    inversion on (-4, -1) and down to -1e12, the piece and region edges
    x = k/8, k = -8..4, and x = e^(-k/8), k = 1..5, with their neighbours,
    and x = 1 - 2^-k, -1 +- 2^-k).
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
    return _li(s, x)


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
    shifts the argument to >= 20, where the asymptotic expansion runs.
    Within 1e-15 relative (at most 2.2e-16 against mpmath over k = 1..199,
    300 random k <= 10^6, k = 10^6..10^300 and k = 2^1023).
    """
    x = float(as_order(k, 1, _TRIGAMMA_MAX, "trigamma argument"))
    total = 0.0
    while x < _TRIGAMMA_SHIFT:
        total += 1.0 / (x * x)
        x += 1.0
    return total + _trigamma_asymptotic(x)
