"""Closed-form order-derivatives and the intermediate closed-form integrals.

Frozen reference values were produced by two independent oracles run far
past double precision: Richardson-extrapolated nu-derivatives of the
hypergeometric series for the Pn values, and high-precision quadrature of
the defining integrands for the antiderivatives.
"""

import hashlib
import importlib
import math
import re

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from legderiv import (
    DomainError,
    EndpointFlag,
    dilog_landen,
    dilog_reflection,
    first_integral,
    frak_I,
    frak_I_limit,
    inner_integral_I,
    integrate,
    order_derivatives,
    p_deriv,
    p_derivs,
    polylog,
    trilog_identity,
    zeta_const,
)
from legderiv import orderderiv

PI = math.pi

# nu-derivative oracle values (hypergeometric series, extrapolated)
P3_REFERENCE = {
    -0.5: 4.585302905153478124205,
    0.0: 1.284434225200237364605,
    0.5: 0.236663733548885259623,
    0.9: 0.007825818184829168951102,
}
P4_REFERENCE = {
    -0.5: 6.170993218339768417216,
    0.0: 2.111652888252215047199,
    0.5: 0.4366868542568048258532,
    0.9: 0.01542987000636730945579,
}


# z = +-(1 - 10^-k), k = 1..15, a grid on each half of the domain, and
# z = +-1/4, +-1/2, +-3/4 (u or t = 3/8, 1/4, 1/8, ends of the table pieces)
# with their neighbours
PIECE_EDGES = tuple(
    e for z in (0.25, 0.5, 0.75) for e in (z, math.nextafter(z, 0.0), math.nextafter(z, 1.0)))
UPPER_HALF = tuple(1.0 - 10.0**-k for k in range(1, 16)) + (0.0, 0.2, 0.4, 0.6, 0.8) + PIECE_EDGES
LOWER_HALF = tuple(-(1.0 - 10.0**-k) for k in range(1, 16)) + (-0.2, -0.4, -0.6, -0.8) + tuple(
    -z for z in PIECE_EDGES)


def row_grid():
    # steps of 1/500, +-(1 - 10^-k), and each piece end of u or t (z = +-1/4, +-1/2,
    # +-3/4) and the split at z = 0 with its neighbours
    zs = [k / 500.0 for k in range(-499, 501)] + [1.0, 0.0, -0.0]
    for edge in (0.25, -0.25, 0.5, -0.5, 0.75, -0.75, 0.0):
        zs += [edge, math.nextafter(edge, 1.0), math.nextafter(edge, -1.0)]
    return zs + [sign * (1.0 - 10.0**-k) for k in range(1, 16) for sign in (1.0, -1.0)]


def mpmath_order_derivatives(z):
    # P0..P4 as nu-derivatives of mpmath's Legendre function, to 25 digits
    with mp.workdps(25):
        return list(mp.diffs(lambda nu: mp.legenp(nu, 0, mp.mpf(z), type=2), 0, 4))


def excess_over_gaps(fn, integrand, xs):
    # (fn(b) - fn(a) - int_a^b integrand, b - a) on each gap of the sorted xs: the
    # excess is 0 where fn is an antiderivative of the integrand and c (b - a) where
    # fn's slope exceeds it by a constant c, with no step size
    xs = sorted(float(x) for x in xs)
    return [
        (fn(b) - fn(a) - integrate(integrand, a, b, tol=1e-13).value, b - a)
        for a, b in zip(xs, xs[1:])
    ]


class TestPDeriv:
    def test_normalization_at_one(self):
        assert p_deriv(0, 1.0) == 1.0
        for n in (1, 2, 3, 4):
            assert abs(p_deriv(n, 1.0)) <= 1e-12

    def test_order_zero_is_constant(self):
        for z in (-1.0, -0.3, 0.0, 0.77, 1.0):
            assert p_deriv(0, z) == 1.0

    def test_first_order_is_log(self):
        assert p_deriv(1, 0.0) == -math.log(2.0)
        assert p_deriv(1, 1.0) == 0.0
        assert math.copysign(1.0, p_deriv(1, 1.0)) == 1.0

    def test_first_order_relative_accuracy_at_both_ends(self):
        # ln(t) with t = (1+z)/2 loses all digits to the rounding of t near
        # z = 1 unless it is formed as log1p(-(1-z)/2)
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40
        for k in range(1, 16):
            for z in (1.0 - 10.0**-k, -(1.0 - 10.0**-k)):
                reference = mp.log((1 + mp.mpf(z)) / 2)
                rel = float(abs((p_deriv(1, z) - reference) / reference))
                assert rel <= 1e-15, (z, rel)

    @pytest.mark.parametrize("zs,bound", [(UPPER_HALF, 1e-15), (LOWER_HALF, 1e-14)],
                             ids=["upper-half", "lower-half"])
    def test_relative_accuracy_against_mpmath(self, zs, bound):
        # P3 and P4 come from the u-series table on z >= 0 and the t-series
        # tables on z < 0; the closed forms lost every digit as z -> 1
        for z in zs:
            refs = mpmath_order_derivatives(z)
            for n in (1, 2, 3, 4):
                rel = float(abs((p_deriv(n, z) - refs[n]) / refs[n]))
                assert rel <= bound, (n, z, rel)

    def test_p2_on_the_lower_half_against_mpmath(self):
        # P2 = -2 Li_2(u) on z < 0 comes from the A2/B2 t-series rows; the closed
        # form loses up to 1.28e-15 there to the rounding of u = (1 - z)/2 near z = -1
        zs = [-k / 400.0 for k in range(1, 400)] + list(LOWER_HALF)
        zs += [-1.0 + 2.0**-53, -1.0 + 1e-12, -0.999999, -(2.0**-30)]
        with mp.workdps(40):
            for z in zs:
                reference = -2 * mp.polylog(2, (1 - mp.mpf(z)) / 2)
                rel = float(abs((p_deriv(2, z) - reference) / reference))
                assert rel <= 1e-15, (z, rel)

    def test_p_derivs_is_p_deriv_bit_for_bit(self):
        # p_deriv(n, z) is element n of the row, through its own domain check
        for z in row_grid():
            assert [v.hex() for v in p_derivs(z)] == [p_deriv(n, z).hex() for n in range(5)], z

    def test_one_domain_check_per_call(self, monkeypatch):
        # p_deriv and inner_integral_I check z, then read the row through the
        # unchecked door: one _check_z per call, as p_derivs itself makes
        checks = []
        check_z = orderderiv._check_z
        monkeypatch.setattr(orderderiv, "_check_z", lambda n, z: checks.append(z) or check_z(n, z))
        calls = [lambda z, n=n: p_deriv(n, z) for n in range(5)] + [inner_integral_I, p_derivs]
        for z in (-0.999, -0.5, 0.0, 0.3, 1.0):
            for call in calls:
                checks.clear()
                call(z)
                assert checks == [z]

    def test_row_bits_are_pinned(self):
        """sha256 of the .hex() of every p_derivs row over row_grid(), recorded
        with CPython 3.11.7 on glibc 2.36 (x86-64).

        A change that moves any bit of a row, such as a reassociated Horner
        update, fails here.  Another libm may round math.log or math.log1p
        differently in the last bit and so move a row without any change to
        the code.
        """
        text = "\n".join(" ".join(v.hex() for v in p_derivs(z)) for z in row_grid())
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == "b1ba96eb60c0b89989461dd774403fa7cdc2b14d1d671fd81b0c31e90b5dfe5e"

    def test_docstring_table_lengths(self):
        # The rows per piece the module docstring states are the lengths of the
        # U, A and B tables fixed at import, on the pieces of [0, 1/2] from 0 up;
        # n = 2 has A and B tables only.
        module = importlib.import_module("legderiv.orderderiv")
        stated = {}
        for line in module.__doc__.splitlines():
            for label, columns in (("U (Pn/u^2)", (0,)), ("A and B", (1, 2))):
                if line.strip().startswith(label):
                    for n, rows in re.findall(r"n = (\d): ([\d/]+)", line):
                        for j in columns:
                            stated[int(n), j] = [int(k) for k in rows.split("/")]
        assert sorted(stated) == [(2, 1), (2, 2), (3, 0), (3, 1), (3, 2), (4, 0), (4, 1), (4, 2)]
        for (n, j), rows in stated.items():
            assert [len(module._NU_TABLES[n][i][j]) for i in range(8, 12)] == rows, (n, j)
        assert all(module._NU_TABLES[2][i][0] == () for i in range(8, 12))

    def test_p_derivs_domain(self):
        for z in (-1.0, 1.5, float("nan"), float("-inf")):
            with pytest.raises(DomainError):
                p_derivs(z)

    def test_limits_at_minus_one(self):
        # The ln(t) coefficient sin(pi nu)/pi is odd in nu, so only P1 and P3
        # diverge as z -> -1, while P2 -> -pi^2/3 and P4 -> pi^4/5.  The t ln t
        # terms are still 3.6e-14 (P2) and 6.9e-13 (P4) at t = 5.0e-16, so each
        # limit carries its first-order term in t.
        z = -1.0 + 1e-15
        t = 0.5 * (1.0 + z)
        lt = math.log(t)
        assert p_deriv(2, z) == pytest.approx(-(PI**2) / 3.0 + 2.0 * t * (1.0 - lt), abs=1e-14)
        p4_limit = PI**4 / 5.0 + t * (48.0 * zeta_const(3) - 4.0 * PI**2 * (1.0 - lt))
        assert p_deriv(4, z) == pytest.approx(p4_limit, abs=1e-14)
        assert p_deriv(1, z) == pytest.approx(lt, rel=1e-15)
        assert p_deriv(3, z) == pytest.approx(-12.0 * zeta_const(3) - PI**2 * lt, rel=1e-15)

    def test_second_order_routes_through_polylog(self):
        # on z >= 0 only: on z < 0 P2 comes from the A2/B2 t-series rows
        rng = np.random.default_rng(3)
        for z in rng.uniform(0.0, 1.0, size=100):
            z = float(z)
            assert p_deriv(2, z) == -2.0 * polylog(2, 0.5 * (1.0 - z))

    @pytest.mark.parametrize("z,expected", sorted(P3_REFERENCE.items()))
    def test_third_order_frozen_values(self, z, expected):
        assert p_deriv(3, z) == pytest.approx(expected, abs=1e-13)

    @pytest.mark.parametrize("z,expected", sorted(P4_REFERENCE.items()))
    def test_fourth_order_frozen_values(self, z, expected):
        assert p_deriv(4, z) == pytest.approx(expected, abs=1e-12)

    def test_fourth_order_against_fd_oracle_at_origin(self):
        assert p_deriv(4, 0.0) == pytest.approx(order_derivatives(0.0)[4], abs=1e-12)

    def test_integer_like_order(self):
        for n in range(5):
            assert p_deriv(np.int64(n), 0.3) == p_deriv(n, 0.3)

    def test_no_nan_near_one(self):
        for z in (1.0 - 2.0**-k for k in range(1, 40)):
            assert math.isfinite(p_deriv(4, z))

    def test_closed_forms_where_t_rounds_to_one(self):
        # t = (1 + z)/2 is 1 at z = 1 and rounds to 1 at z = 1 - 2^-53, where the
        # closed forms' guard returns P4 = 0 instead of cancelling ln(1 - t) powers
        for z in (1.0, 1.0 - 2.0**-53):
            forms = orderderiv._closed_forms(z)
            assert all(math.isfinite(v) for v in forms), z
            assert all(abs(f - p) <= 1e-15 for f, p in zip(forms, p_derivs(z)[1:])), z

    def test_domain_errors(self):
        for n in (1, 2, 3, 4):
            with pytest.raises(DomainError):
                p_deriv(n, -1.0)
        with pytest.raises(DomainError):
            p_deriv(2, 1.5)
        with pytest.raises(DomainError):
            p_deriv(5, 0.0)
        with pytest.raises(DomainError):
            p_deriv(-1, 0.0)
        for n in (2.0, True):
            with pytest.raises(DomainError):
                p_deriv(n, 0.0)
        with pytest.raises(DomainError):
            p_deriv(2, float("nan"))
        assert p_deriv(0, -1.0) == 1.0  # constant order tolerates the endpoint


class TestInnerIntegral:
    def test_vanishes_at_one(self):
        assert inner_integral_I(1.0) == 0.0

    def test_value_at_origin(self):
        # I(0) equals the P3 bracket at t = 1/2 (prefactor is 1 there)
        bracket = (
            12.0 * polylog(3, 0.5)
            - 6.0 * math.log(0.5) * polylog(2, 0.5)
            - PI**2 * math.log(0.5)
            - 12.0 * zeta_const(3)
        )
        assert inner_integral_I(0.0) == pytest.approx(bracket, rel=1e-15)
        # cross-check by quadrature of its defining integrand from -1
        q = integrate(
            lambda zz: p_deriv(3, zz) + 3.0 * p_deriv(2, zz),
            -1.0,
            0.0,
            tol=1e-11,
            flags=EndpointFlag(lower_singular=True),
        )
        assert inner_integral_I(0.0) == pytest.approx(q.value, abs=1e-9)

    def test_relative_accuracy_against_mpmath(self):
        # the docstring's bound, P3's: 1e-15 on z >= 0 and 1e-14 on z < 0, at
        # both ends of the domain and between
        zs = [math.nextafter(-1.0, 0.0), -1.0 + 1e-12, -1.0 + 1e-6, -0.3, 0.3, 0.9, 1.0 - 1e-12]
        for z in zs:
            reference = (1 + mp.mpf(z)) * mpmath_order_derivatives(z)[3]
            rel = float(abs((inner_integral_I(z) - reference) / reference))
            assert rel <= (1e-15 if z >= 0.0 else 1e-14), (z, rel)

    def test_derivative_is_p3_plus_3p2(self):
        zs = np.random.default_rng(5).uniform(-0.9, 0.99, size=50)
        gaps = excess_over_gaps(inner_integral_I, lambda z: p_deriv(3, z) + 3.0 * p_deriv(2, z), zs)
        assert max(abs(excess) for excess, _ in gaps) <= 1e-13

    def test_domain(self):
        with pytest.raises(DomainError):
            inner_integral_I(-1.0)


class TestFrakI:
    def test_frozen_values(self):
        # high-precision evaluation of the antiderivative, anchored by
        # quadrature consistency below
        assert frak_I(0.5) == pytest.approx(-2.401015664734825740709, abs=1e-13)
        assert frak_I(0.25) == pytest.approx(-2.237522686233043236563, abs=1e-13)

    def test_derivative_matches_integrand(self):
        ts = np.random.default_rng(9).uniform(0.05, 0.95, size=50)
        gaps = excess_over_gaps(frak_I, lambda t: math.log(t) * polylog(2, t) / (1.0 - t), ts)
        assert max(abs(excess) for excess, _ in gaps) <= 1e-13

    def test_quadrature_consistency(self):
        res = integrate(
            lambda t: math.log(t) * polylog(2, t) / (1.0 - t), 0.25, 0.75, tol=1e-11
        )
        assert frak_I(0.75) - frak_I(0.25) == pytest.approx(res.value, abs=1e-10)

    def test_limits(self):
        assert frak_I_limit(0) == -(PI**4) / 45.0
        assert frak_I_limit(1) == -11.0 * PI**4 / 360.0
        assert frak_I_limit(1) - frak_I_limit(0) == pytest.approx(-(PI**4) / 120.0, abs=1e-13)
        assert frak_I_limit(np.int64(1)) == frak_I_limit(1)
        for endpoint in (2, True, False, 0.0, 1.0):
            with pytest.raises(DomainError):
                frak_I_limit(endpoint)

    def test_endpoint_approach_upper(self):
        # the log powers cancel; what is left decays like 2^-k * poly(k)
        gaps = [abs(frak_I(1.0 - 2.0**-k) - frak_I_limit(1)) for k in range(6, 21)]
        assert all(a > b for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] <= 1e-5

    def test_endpoint_approach_lower(self):
        gaps = [abs(frak_I(2.0**-k) - frak_I_limit(0)) for k in range(6, 21)]
        assert all(a > b for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] <= 1e-10

    def test_domain(self):
        for t in (0.0, 1.0, -0.5, 1.2):
            with pytest.raises(DomainError):
                frak_I(t)


def eta3_display(z, order=2):
    # the source's eta = 3 display with its ambiguous polylogarithm read as Li_order:
    # element order + 1 of the family, which the verification suite reads
    return orderderiv._first_integral_displays(z, *orderderiv._first_integral_kernel(z))[order + 1]


class TestFirstIntegrals:
    def test_eta1_endpoint_values(self):
        assert first_integral(1, 1.0) == -2.0
        # the (1+z) prefactor beats the log divergence
        assert abs(first_integral(1, -1.0 + 1e-12)) <= 1e-9

    @pytest.mark.parametrize("eta", [1, 2])
    def test_relative_accuracy_against_mpmath(self, eta):
        # the docstring's 2e-15 bound, at both ends of the domain and between
        zs = [-1.0 + 1e-12, -1.0 + 1e-6, math.nextafter(-1.0, 0.0), 0.0, 1.0 - 1e-12, 1.0]
        zs += [float(z) for z in np.random.default_rng(23).uniform(-1.0, 1.0, size=60)]
        with mp.workdps(40):
            for z in zs:
                x = mp.mpf(z)
                t = (1 + x) / 2
                reference = (1 + x) * (mp.log(t) - 1)
                if eta == 2:
                    reference = -2 * reference + 2 * (1 - x) * mp.polylog(2, (1 - x) / 2)
                rel = float(abs((first_integral(eta, z) - reference) / reference))
                assert rel <= 2e-15, (z, rel)

    def test_eta2_endpoint_value(self):
        assert first_integral(2, 1.0) == pytest.approx(4.0, abs=1e-14)

    @pytest.mark.parametrize("eta", [1, 2])
    def test_derivative_matches_p(self, eta):
        zs = np.random.default_rng(13).uniform(-0.9, 0.97, size=50)
        gaps = excess_over_gaps(lambda z: first_integral(eta, z), lambda z: p_deriv(eta, z), zs)
        assert max(abs(excess) for excess, _ in gaps) <= 1e-13

    def test_eta2_difference_matches_quadrature(self):
        res = integrate(lambda zz: p_deriv(2, zz), -0.5, 0.8, tol=1e-11)
        assert first_integral(2, 0.8) - first_integral(2, -0.5) == pytest.approx(
            res.value, abs=1e-9
        )

    def test_eta3_derivative_offset_is_constant(self):
        # as printed (with the ambiguous polylogarithm read as Li_2), the
        # derivative exceeds P3 by exactly 24 zeta(3); measured, not assumed
        zs = np.random.default_rng(17).uniform(-0.9, 0.97, size=25)
        gaps = excess_over_gaps(eta3_display, lambda z: p_deriv(3, z), zs)
        offsets = [excess / width for excess, width in gaps]
        expected = 24.0 * zeta_const(3)
        assert max(offsets) - min(offsets) <= 1e-9
        assert sum(offsets) / len(offsets) == pytest.approx(expected, abs=1e-9)

    def test_eta3_other_orders_are_z_dependent(self):
        zs = (-0.6, -0.5, 0.0, 0.1, 0.7, 0.8)
        for order in (1, 3):
            gaps = excess_over_gaps(lambda z: eta3_display(z, order), lambda z: p_deriv(3, z), zs)
            offsets = [excess / width for excess, width in gaps]
            assert max(offsets) - min(offsets) > 0.1

    def test_eta3_finite_at_one(self):
        value = eta3_display(1.0)
        expected = 12.0 * (2.0 * zeta_const(3) + PI**2 / 6.0 - 1.0 + 2.0 * zeta_const(3))
        assert value == pytest.approx(expected, rel=1e-14)

    def test_finite_where_t_rounds_to_one(self):
        # at z = 1 - 2^-53, t = (1 + z)/2 rounds to 1.0 although z < 1, so Li_1(t)
        # cannot be evaluated; every display is still finite at the domain's ends
        edges = (1.0 - 2.0**-53, 1.0 - 2.0**-52, 1.0, -1.0 + 2.0**-53)
        for z in edges:
            for eta in (1, 2):
                assert math.isfinite(first_integral(eta, z)), (z, eta)
            for order in (1, 2, 3):
                assert math.isfinite(eta3_display(z, order)), (z, order)
        z = 1.0 - 2.0**-53
        with mp.workdps(40):
            x = mp.mpf(z)
            t, u = (1 + x) / 2, (1 - x) / 2
            bracket = 2 * mp.polylog(3, t) + mp.pi**2 / 6 - 1 + 2 * mp.zeta(3)
            bracket -= (mp.polylog(2, t) + mp.pi**2 / 6 - 1) * mp.log(t)
            reference = 6 * (1 + x) * bracket + 6 * (1 - x) * (-mp.log(u) + mp.log(u) * mp.log(t))
            rel = float(abs((eta3_display(z, 1) - reference) / reference))
        assert rel <= 1e-15, rel

    def test_each_display_is_an_element_of_the_family(self):
        zs = [-1.0 + 2.0**-53, -0.5, 0.0, 0.3, 1.0 - 2.0**-53, 1.0]
        for z in zs:
            kernel = orderderiv._first_integral_kernel(z)
            family = [v.hex() for v in orderderiv._first_integral_displays(z, *kernel)]
            displays = [first_integral(1, z).hex(), first_integral(2, z).hex()]
            displays += [eta3_display(z, order).hex() for order in (1, 2, 3)]
            assert displays == family, z

    def test_domain(self):
        # eta = 3, the source's display, states no bound and is not offered
        for eta in (3, 4, 0):
            with pytest.raises(DomainError):
                first_integral(eta, 0.5)
        with pytest.raises(DomainError):
            first_integral(1, -1.0)
        assert first_integral(np.int64(2), 0.5) == first_integral(2, 0.5)
        for bad in (True, 1.0, 2.0):
            with pytest.raises(DomainError):
                first_integral(bad, 0.5)


class TestIdentityResiduals:
    def test_symmetric_point(self):
        assert abs(dilog_reflection(0.5)) <= 1e-14
        assert abs(dilog_landen(0.5)) <= 1e-14
        assert abs(trilog_identity(0.5)) <= 1e-14

    def test_random_points(self):
        rng = np.random.default_rng(23)
        for x in rng.uniform(0.01, 0.99, size=100):
            x = float(x)
            assert abs(dilog_reflection(x)) <= 1e-12
            assert abs(dilog_landen(x)) <= 1e-12
            assert abs(trilog_identity(x)) <= 1e-12

    # x = k/64, 1/3 and 1/2 with their neighbours (w = x/(x - 1) crosses the piece
    # edge -1/2 at 1/3; at 1/2 it crosses -1, where inversion starts, and 1 - x the
    # ln-region cut), and 0.01, 0.99, 2^-30, 1 - 2^-30
    GRID = [k / 64.0 for k in range(1, 64)] + [
        e for c in (1.0 / 3.0, 0.5) for e in (math.nextafter(c, 0.0), c, math.nextafter(c, 1.0))
    ] + [0.01, 0.99, 2.0**-30, 1.0 - 2.0**-30]

    def test_residual_bits_are_pinned(self):
        """sha256 of the residuals' hex over GRID, recorded with CPython 3.11.7 on
        glibc 2.36 (x86-64) when each residual was its own function.  Another libm
        may round math.log or math.log1p differently in the last bit."""
        fns = (dilog_reflection, dilog_landen, trilog_identity)
        text = "\n".join(fn(x).hex() for x in self.GRID for fn in fns)
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == "00d7d1b7c12b9658c95d3eccd561a964b7e02419d50e0b97e291ae8ea169b098"

    def test_each_residual_is_an_element_of_the_family(self):
        for x in self.GRID:
            family = [v.hex() for v in orderderiv._identity_residuals(x)]
            residuals = [fn(x).hex() for fn in (dilog_reflection, dilog_landen, trilog_identity)]
            assert residuals == family, x

    def test_domain(self):
        for fn in (dilog_reflection, dilog_landen, trilog_identity):
            for x in (0.0, 1.0, -0.2, 1.3):
                with pytest.raises(DomainError):
                    fn(x)


@settings(max_examples=150, derandomize=True)
@given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
def test_p2_polylog_equivalence_property(z):
    # P2 on z >= 0 runs polylog(2, u)'s own series table
    assert p_deriv(2, z) == -2.0 * polylog(2, 0.5 * (1.0 - z))


@settings(max_examples=100, derandomize=True)
@given(st.floats(min_value=0.01, max_value=0.99, allow_nan=False))
def test_identity_residuals_property(x):
    assert abs(dilog_reflection(x)) <= 1e-12
    assert abs(trilog_identity(x)) <= 1e-12
