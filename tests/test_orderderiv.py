"""Closed-form order-derivatives and the intermediate closed-form integrals.

Frozen reference values were produced by two independent oracles run far
past double precision: Richardson-extrapolated nu-derivatives of the
hypergeometric series for the Pn values, and high-precision quadrature of
the defining integrands for the antiderivatives.
"""

import math

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
    polylog,
    trilog_identity,
    zeta_const,
)

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


def central_derivative(fn, x, h=1e-5):
    d1 = (fn(x + h) - fn(x - h)) / (2.0 * h)
    d2 = (fn(x + h / 2) - fn(x - h / 2)) / h
    return (4.0 * d2 - d1) / 3.0


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

    def test_second_order_routes_through_polylog(self):
        rng = np.random.default_rng(3)
        for z in rng.uniform(-0.999, 1.0, size=100):
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

    def test_derivative_is_p3_plus_3p2(self):
        rng = np.random.default_rng(5)
        for z in rng.uniform(-0.9, 0.99, size=50):
            z = float(z)
            derivative = central_derivative(inner_integral_I, z)
            assert derivative == pytest.approx(
                p_deriv(3, z) + 3.0 * p_deriv(2, z), abs=1e-7, rel=1e-7
            )

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
        rng = np.random.default_rng(9)
        for t in rng.uniform(0.05, 0.95, size=50):
            t = float(t)
            derivative = central_derivative(frak_I, t)
            target = math.log(t) * polylog(2, t) / (1.0 - t)
            assert derivative == pytest.approx(target, abs=1e-7, rel=1e-7)

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


class TestFirstIntegrals:
    def test_eta1_endpoint_values(self):
        assert first_integral(1, 1.0) == -2.0
        # the (1+z) prefactor beats the log divergence
        assert abs(first_integral(1, -1.0 + 1e-12)) <= 1e-9

    def test_eta2_endpoint_value(self):
        assert first_integral(2, 1.0) == pytest.approx(4.0, abs=1e-14)

    @pytest.mark.parametrize("eta", [1, 2])
    def test_derivative_matches_p(self, eta):
        rng = np.random.default_rng(13)
        for z in rng.uniform(-0.9, 0.97, size=50):
            z = float(z)
            derivative = central_derivative(lambda zz: first_integral(eta, zz), z)
            assert derivative == pytest.approx(p_deriv(eta, z), abs=1e-7, rel=1e-7)

    def test_eta2_difference_matches_quadrature(self):
        res = integrate(lambda zz: p_deriv(2, zz), -0.5, 0.8, tol=1e-11)
        assert first_integral(2, 0.8) - first_integral(2, -0.5) == pytest.approx(
            res.value, abs=1e-9
        )

    def test_eta3_derivative_offset_is_constant(self):
        # as printed (with the ambiguous polylogarithm read as Li_2), the
        # derivative exceeds P3 by exactly 24 zeta(3); measured, not assumed
        rng = np.random.default_rng(17)
        offsets = []
        for z in rng.uniform(-0.9, 0.97, size=25):
            z = float(z)
            derivative = central_derivative(lambda zz: first_integral(3, zz), z)
            offsets.append(derivative - p_deriv(3, z))
        expected = 24.0 * zeta_const(3)
        assert max(offsets) - min(offsets) <= 1e-5
        assert sum(offsets) / len(offsets) == pytest.approx(expected, abs=1e-6)

    def test_eta3_other_orders_are_z_dependent(self):
        zs = (-0.6, 0.0, 0.7)
        for order in (1, 3):
            offsets = [
                central_derivative(lambda zz: first_integral(3, zz, li_order=order), z)
                - p_deriv(3, z)
                for z in zs
            ]
            assert max(offsets) - min(offsets) > 0.1

    def test_eta3_finite_at_one(self):
        value = first_integral(3, 1.0)
        expected = 12.0 * (2.0 * zeta_const(3) + PI**2 / 6.0 - 1.0 + 2.0 * zeta_const(3))
        assert value == pytest.approx(expected, rel=1e-14)

    def test_domain(self):
        with pytest.raises(DomainError):
            first_integral(4, 0.5)
        with pytest.raises(DomainError):
            first_integral(1, -1.0)
        with pytest.raises(DomainError):
            first_integral(3, 0.5, li_order=4)
        assert first_integral(np.int64(3), 0.5, np.int64(1)) == first_integral(3, 0.5, 1)
        for bad in (True, 1.0, 2.0):
            with pytest.raises(DomainError):
                first_integral(bad, 0.5)
            with pytest.raises(DomainError):
                first_integral(3, 0.5, li_order=bad)


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

    def test_domain(self):
        for fn in (dilog_reflection, dilog_landen, trilog_identity):
            for x in (0.0, 1.0, -0.2, 1.3):
                with pytest.raises(DomainError):
                    fn(x)


@settings(max_examples=150, derandomize=True)
@given(st.floats(min_value=-0.9999, max_value=1.0, allow_nan=False))
def test_p2_polylog_equivalence_property(z):
    assert p_deriv(2, z) == -2.0 * polylog(2, 0.5 * (1.0 - z))


@settings(max_examples=100, derandomize=True)
@given(st.floats(min_value=0.01, max_value=0.99, allow_nan=False))
def test_identity_residuals_property(x):
    assert abs(dilog_reflection(x)) <= 1e-12
    assert abs(trilog_identity(x)) <= 1e-12
