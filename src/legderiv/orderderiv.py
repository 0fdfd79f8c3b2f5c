"""Order-derivatives of the Legendre function at nu = 0.

``p_deriv(n, z)`` evaluates Pn(z) = [d^n P_nu(z) / d nu^n] at nu = 0 for
n = 0..4, with t = (1+z)/2 and u = (1-z)/2.  The paper's closed forms are

    P0 = 1
    P1 = ln(t)
    P2 = -2 Li_2(1-t)
    P3 = 12 Li_3(t) - 6 ln(t) Li_2(t) - pi^2 ln(t) - 12 zeta(3)
    P4 = pi^4/15 + 24 [ ... ]          (grouped bracket, see _closed_forms)

P0 and P1 are evaluated from them.  P2..P4 are one Horner pass over tables
fixed at import, split at z = 0: on z >= 0 the series in u of
P_nu = F(-nu, nu+1; 1; u), whose nu^n coefficients have one sign, so nothing
cancels as z -> 1 (for P2 that is the Li_2 series polylog runs); on z < 0
Pn = sum_k (A_k + B_k ln t) t^k (DLMF 15.8.10).  All 80 rows of each are
re-expanded about the midpoint of each 1/8-wide piece of [0, 1/2] and cut
once, on the piece, by ``polylog._recentred``; rows per piece, from u or t = 0 up:

    U (Pn/u^2)   n = 3: 14/15/16/18   n = 4: 14/14/15/16
    A and B      n = 2: 15/15/16/17   n = 3: 14/14/15/16   n = 4: 16/16/17/19

``polylog._piece`` picks the piece.  ``p_derivs(z)`` gives P0..P4 at one z
from one Horner loop over one piece's tables side by side, and ``p_deriv(n, z)``
is its element n.  ``p_derivs`` is the checked door to ``_row``, the unchecked
one that p_deriv, inner_integral_I, tables and integrands call on z checked or
built in range; the closed forms call ``polylog._li`` alike.  They stay as
``_closed_forms``, which the verification suite compares with the tables.

The module also carries every intermediate closed form the P4 derivation
runs through: the inner integral I(z) = (1+z) P3(z), the antiderivative
frak_I of ln(t) Li_2(t)/(1-t) with its endpoint limits, the first
integrals int^z P_eta dz', and the residuals of the dilogarithm reflection,
the dilogarithm Landen transform and the three-term trilogarithm identity.
``_frak_I`` and ``_first_integral_displays`` are the frak_I and first-integral
displays over their kernel values (``_frak_kernel``, ``_first_integral_kernel``);
they take only +, - and *, so the verification suite differentiates them on
values v + i*slope.  ``_identity_residuals(x)`` is the residual family: each
public residual is one element of it, and the suite reads all three per x.

Only P1 and P3 diverge as z -> -1 (the ln(t) coefficient sin(pi nu)/pi is odd
in nu; P2 -> -pi^2/3, P4 -> pi^4/5); z = -1 is a domain error for n >= 1.
"""

from __future__ import annotations

import math

from .polylog import _MIDPOINTS, _SERIES_PIECES, _ZETA3, _li, _piece, _recentred, as_order, as_real

__all__ = [
    "p_deriv",
    "p_derivs",
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
# Open ends, as the float next to each: z in (-1, 1] (P0 takes z = -1 too), t and x in (0, 1).
_ABOVE_M1 = math.nextafter(-1.0, 0.0)
_Z_WHAT = "argument for derivative orders 1..4 (P1 and P3 diverge at -1)"
_OPEN_UNIT = (math.ulp(0.0), math.nextafter(1.0, 0.0))


def _nu_tables() -> dict[int, dict[int, tuple[tuple[float, ...], ...]]]:
    # n -> piece -> (U, A, B) for the pieces 8..11 of [0, 1/2], each re-centred by
    # _recentred from all 80 rows of nu-Taylor coefficients.  With
    # s = -sin(pi nu)/pi, DLMF 15.8.10 gives B_k = -s c_k and A_k = s c_k [2 psi(k+1)
    # - psi(k-nu) - psi(k+1+nu)] = s c_k [1/k + nu/k^2 + (2 zeta(3,k) - 1/k^3) nu^2 + ...], as
    # s c_k = O(nu^2); at k = 0 psi(-nu)'s pole cancels s.
    zeta3 = _ZETA3  # zeta(3, k) = zeta(3) - sum_{j<k} 1/j^3
    c = [[1.0, 0.0, 0.0, 0.0, 0.0]]
    a = [[1.0, 0.0, -_PI2 / 6.0, -2.0 * zeta3, _PI4 / 120.0]]
    b = [[0.0, 1.0, 0.0, -_PI2 / 6.0, 0.0]]  # sin(pi nu)/pi
    for k in range(1, 80):
        prev = [0.0, 0.0] + c[-1]  # c_k = c_{k-1} ((k-1) k - nu - nu^2) / k^2
        c.append([((k - 1) * k * prev[i + 2] - prev[i + 1] - prev[i]) / k**2 for i in range(5)])
        b.append([0.0] + [x - _PI2 / 6.0 * y for x, y in zip(c[-1][:4], [0.0, 0.0] + c[-1])])
        prev, d2 = [0.0, 0.0] + b[-1], 2.0 * zeta3 - 1.0 / k**3
        a.append([-(prev[i + 2] / k + prev[i + 1] / k**2 + prev[i] * d2) for i in range(5)])
        zeta3 -= 1.0 / k**3
    tables = {}
    for n in (2, 3, 4):
        # Highest power first.  Pn / u^2 on z >= 0: c_0 = 1 only feeds P0, c_1 = 0 for
        # n >= 3, and without the u^2 the first piece would cancel as u -> 0.  P2 / u^2
        # is no power series (P2 = -2 Li_2(u)), so n = 2 has an empty U table.
        un, an, bn = (
            tuple(math.factorial(n) * row[n] for row in rows[::-1]) for rows in (c[2:], a, b)
        )
        tables[n] = {
            i: (_recentred(i, un) if n > 2 else ((),)) + _recentred(i, an, bn)
            for i in range(8, 12)
        }
    return tables


def _rows(*columns: tuple[float, ...]) -> tuple[tuple[float, ...], ...]:
    # The columns side by side, each zero-padded at its high-power end to the
    # longest.  A Horner pass goes 0 -> 0*x + 0 = 0 -> 0*x + c = c through the
    # padding, so each column gives the same bits as its own _horner pass.
    width = max(map(len, columns))
    return tuple(zip(*((0.0,) * (width - len(col)) + col for col in columns)))


_NU_TABLES = _nu_tables()
# p_derivs' rows per piece of [0, 1/2]: (Li_2 series, U3, U4) on z >= 0 and
# (A2, B2, A3, B3, A4, B4) on z < 0.  The Li_2 column is the table polylog(2, u)
# runs on the same piece, so P2 on z >= 0 keeps polylog's bits.
_U_ROWS = {
    i: _rows(_SERIES_PIECES[2][i], _NU_TABLES[3][i][0], _NU_TABLES[4][i][0]) for i in range(8, 12)
}
_T_ROWS = {
    i: _rows(*(_NU_TABLES[n][i][j] for n in (2, 3, 4) for j in (1, 2))) for i in range(8, 12)
}


def _check_z(n: int, z: float) -> float:
    return as_real(z, "argument", -1.0, 1.0) if n == 0 else as_real(z, _Z_WHAT, _ABOVE_M1, 1.0)


def p_deriv(n: int, z: float) -> float:
    """Order-derivative Pn(z) for n in 0..4, z in (-1, 1] (open at -1).

    Element n of p_derivs(z), so one order costs a full row; P0 = 1 also at
    z = -1.  Within 1e-15 relative on z >= 0 and for P1 and P2 on z < 0, and
    1e-14 for P3 and P4 on z < 0.  Pn(1) is exactly 0 for n >= 1.
    """
    n = as_order(n, 0, 4, "derivative order")
    z = _check_z(n, z)
    return 1.0 if n == 0 else _row(z)[n]


def p_derivs(z: float) -> tuple[float, float, float, float, float]:
    """All five order-derivatives (P0, P1, P2, P3, P4) at one z in (-1, 1].

    P0 = 1 and P1 = ln t in closed form; P2..P4 from one Horner pass over the
    rows of the piece that holds u or t: (Li_2 series, U3, U4) on z >= 0, where
    P2 is -2 Li_2(u), and (A2, B2, A3, B3, A4, B4) on z < 0, where Pn = An + Bn ln t
    with one ln t.  Within 1e-15 relative on z >= 0 and for P1 and P2 on z < 0,
    and 1e-14 for P3 and P4 on z < 0.
    """
    return _row(_check_z(1, z))


def _row(z: float) -> tuple[float, float, float, float, float]:
    # p_derivs' unchecked door, for a float z in (-1, 1] that is checked or built in range.
    if z >= 0.0:
        u = 0.5 * (1.0 - z)
        i = _piece(u)
        h = u - _MIDPOINTS[i]
        p2 = p3 = p4 = 0.0
        for c2, c3, c4 in _U_ROWS[i]:
            p2 = p2 * h + c2
            p3 = p3 * h + c3
            p4 = p4 * h + c4
        # + 0.0 turns -0.0 into +0.0 at z = 1
        return 1.0, math.log1p(-u) + 0.0, -2.0 * (u * p2) + 0.0, u * u * p3 + 0.0, u * u * p4 + 0.0
    t = 0.5 * (1.0 + z)
    i = _piece(t)
    h = t - _MIDPOINTS[i]
    a2 = b2 = a3 = b3 = a4 = b4 = 0.0
    for ca2, cb2, ca3, cb3, ca4, cb4 in _T_ROWS[i]:
        a2 = a2 * h + ca2
        b2 = b2 * h + cb2
        a3 = a3 * h + ca3
        b3 = b3 * h + cb3
        a4 = a4 * h + ca4
        b4 = b4 * h + cb4
    lt = math.log(t)
    return 1.0, lt, a2 + lt * b2, a3 + lt * b3, a4 + lt * b4


def _closed_forms(z: float) -> tuple[float, float, float, float]:
    """The paper's closed forms (P1, P2, P3, P4) at one z checked as p_derivs does,
    from one ln t, one Li_2(t) and one zeta(3).

    The P4 integration constants are pinned by P4(1) = 0: the coefficient
    of ln((1+z)/(1-z)) must vanish for P4 to stay finite at z = 1, which
    leaves only the additive constant pi^4/15.
    """
    t = 0.5 * (1.0 + z)
    u = 0.5 * (1.0 - z)  # 1 - t without cancellation
    lt = math.log(t)
    li2t = _li(2, t)
    zeta3 = _ZETA3
    # + 0.0 turns -0.0 into +0.0 at z = 1
    p1 = math.log1p(-u) + 0.0 if u < 0.5 else lt
    p2 = -2.0 * _li(2, u) + 0.0
    p3 = 12.0 * _li(3, t) - 6.0 * lt * li2t - _PI2 * lt - 12.0 * zeta3
    # P4's ln(1-t) powers blow up at t = 1 while their sum cancels, so the
    # normalization point returns exactly 0 instead of NaN.
    if t == 1.0:
        return p1, p2, p3, 0.0
    lu = math.log(u)
    row1 = (
        0.5 * li2t * li2t
        - _PI2 / 6.0 * li2t
        + 2.0 * _li(4, t)
        - 2.0 * _li(4, u)
        + 2.0 * lt * (_li(3, u) - zeta3)
    )
    row2 = lu**4 / 12.0 + _PI2 / 6.0 * lu * lu + 2.0 * _li(4, -t / u)
    row3 = lt * lu * (li2t - _PI2 / 2.0 - lu * lu / 3.0 + lt * lu)
    # The +pi^4/36 completes the bracket so that it vanishes at t = 1,
    # which is what pins the overall constant to pi^4/15.
    return p1, p2, p3, _PI4 / 15.0 + 24.0 * (row1 + row2 + row3 + _PI4 / 36.0)


def inner_integral_I(z: float) -> float:
    """The inner integral I(z) = int_{-1}^{z} [P3 + 3 P2] dz' = (1+z) P3(z).

    P3's bound carries over: within 1e-15 relative on z >= 0 and 1e-14 on
    z < 0 (at most 2.3e-16 against mpmath at z = -1 + 2^-53, -1 + 1e-12,
    -1 + 1e-6, -0.3, 0.3, 0.9 and 1 - 1e-12).  I(1) = 0 exactly (the P3
    bracket vanishes there) and I(z) -> 0 as z -> -1+, but z = -1 itself is
    outside the domain.
    """
    z = _check_z(1, z)
    return (z + 1.0) * _row(z)[3]


def frak_I(t: float) -> float:
    """Antiderivative of ln(t) Li_2(t) / (1 - t) on 0 < t < 1.

    The integration constant is fixed so that the endpoint limits are
    frak_I_limit(0) = -pi^4/45 and frak_I_limit(1) = -11 pi^4/360.
    """
    t = as_real(t, "frak_I argument (endpoint values: frak_I_limit)", *_OPEN_UNIT)
    return _frak_I(*_frak_kernel(t)[1:])


def _frak_kernel(t: float) -> tuple[float, ...]:
    # t, ln t, ln(1-t) and Li_2..Li_4 at t, 1 - t and t/(t - 1), t in (0, 1): frak_I's kernel
    u, w = 1.0 - t, t / (t - 1.0)  # nine calls spelled out: no comprehension frame per kernel
    return (t, math.log(t), math.log1p(-t), _li(2, t), _li(3, t), _li(4, t),
            _li(2, u), _li(3, u), _li(4, u), _li(2, w), _li(3, w), _li(4, w))


def _frak_I(lt, lu, li2t, li3t, li4t, li2u, li3u, li4u, li2w, li3w, li4w) -> complex:
    # frak_I from ln t, ln(1-t) and (Li_2, Li_3, Li_4) at t, 1 - t and t/(t - 1).
    d = lt - lu  # ln(t/(1-t))
    total = (lt * lt - lt * lu) * li2t - lu * lu * li2u + d * d * li2w - 0.5 * li2t * li2t
    # The 2 ln(t) Li_3(t) term carries a minus sign: that is what makes the
    # t-derivative equal ln(t) Li_2(t)/(1-t) (the endpoint limits are
    # insensitive to this sign since ln(t) Li_3(t) -> 0 at both ends).
    total += -2.0 * lt * li3t + 2.0 * lu * li3u - 2.0 * d * li3w
    total += 2.0 * (li4t - li4u + li4w)
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


def first_integral(eta: int, z: float) -> float:
    """First integrals int^z P_eta dz' for eta in {1, 2}, as closed forms.

    One element of the displays that ``_first_integral_displays`` evaluates
    together, so one display costs the whole family.  Within 2e-15 relative
    (at most 9.5e-16 against mpmath over 300 random z and z = -1 + 1e-12,
    -1 + 1e-6, 0 and 1).  The source's eta = 3 display, whose polylogarithm
    order is ambiguous, is measured by the verification suite only.
    """
    eta = as_order(eta, 1, 2, "first_integral eta")
    z = _check_z(1, z)
    return _first_integral_displays(z, *_first_integral_kernel(z))[eta - 1]


def _first_integral_kernel(z: float) -> tuple[float, float, float, float, float, float]:
    # ln t, ln u, (Li_1, Li_2, Li_3)(t) and Li_2(u).  The (1-z) group that ln u and
    # Li_1(t) sit in vanishes at z = 1 and is within 4e-16 of the head at z = 1 - 2^-53,
    # where t rounds to 1 and Li_1(t) would diverge: zeros there return the head.
    t, u = 0.5 * (1.0 + z), 0.5 * (1.0 - z)
    lu, li1t = (0.0, 0.0) if t == 1.0 else (math.log(u), _li(1, t))
    return math.log(t), lu, li1t, _li(2, t), _li(3, t), _li(2, u)


def _first_integral_displays(z: complex, *kernel: complex) -> tuple[complex, ...]:
    # int P1, int P2 and the eta = 3 display with Li_1, Li_2, Li_3 over their kernel
    # values; the eta = 3 rows share one head.
    lt, lu, li1t, li2t, li3t, li2u = kernel
    int1 = (1.0 + z) * (lt - 1.0)
    int2 = -2.0 * (1.0 + z) * (lt - 1.0) + 2.0 * (1.0 - z) * li2u
    bracket = 2.0 * li3t + _PI2 / 6.0 - 1.0 + 2.0 * _ZETA3 - (li2t + _PI2 / 6.0 - 1.0) * lt
    head, tail, lult = 6.0 * (1.0 + z) * bracket, 6.0 * (1.0 - z), lu * lt
    return (int1, int2, head + tail * (li1t + lult), head + tail * (li2t + lult),
            head + tail * (li3t + lult))


def _identity_residuals(x: float) -> tuple[float, float, float]:
    # The dilog reflection, dilog Landen and three-term trilog residuals at x in (0, 1),
    # over one ln x, ln(1 - x), 1 - x, x/(x - 1) and Li_2(x).
    lx, lu = math.log(x), math.log1p(-x)
    u, w = 1.0 - x, x / (x - 1.0)
    li2x = _li(2, x)
    reflection = _li(2, u) + li2x - _PI2 / 6.0 + lx * lu
    landen = _li(2, w) + li2x + 0.5 * lu * lu
    lhs = _li(3, w) + _li(3, u) + _li(3, x) - _ZETA3
    rhs = _PI2 / 6.0 * lu - 0.5 * lx * lu * lu + lu**3 / 6.0
    return reflection, landen, lhs - rhs


def dilog_reflection(x: float) -> float:
    """Residual of Li_2(1-x) + Li_2(x) - pi^2/6 + ln(x) ln(1-x); ~0 on (0,1)."""
    return _identity_residuals(as_real(x, "identity argument", *_OPEN_UNIT))[0]


def dilog_landen(x: float) -> float:
    """Residual of Li_2(x/(x-1)) + Li_2(x) + ln^2(1-x)/2; ~0 on (0,1)."""
    return _identity_residuals(as_real(x, "identity argument", *_OPEN_UNIT))[1]


def trilog_identity(x: float) -> float:
    """Residual of the three-term trilogarithm identity; ~0 on (0,1).

    Li_3(x/(x-1)) + Li_3(1-x) + Li_3(x) - zeta(3)
        = pi^2/6 ln(1-x) - 1/2 ln(x) ln^2(1-x) + 1/6 ln^3(1-x)
    """
    return _identity_residuals(as_real(x, "identity argument", *_OPEN_UNIT))[2]
