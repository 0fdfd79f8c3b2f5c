"""Adaptive quadrature: exactness battery, singular endpoints, error honesty."""

import math

import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from legderiv import ConvergenceError, DomainError, EndpointFlag, integrate

PI = math.pi


class TestSmoothBattery:
    def test_constant(self):
        res = integrate(lambda x: 1.0, 0.0, 1.0)
        assert res.value == pytest.approx(1.0, abs=1e-15)
        assert res.abs_error_estimate <= 1e-15
        assert res.subdivisions == 1

    @pytest.mark.parametrize("k", range(11))
    def test_monomials(self, k):
        res = integrate(lambda x, k=k: x**k, 0.0, 1.0)
        assert res.value == pytest.approx(1.0 / (k + 1), abs=1e-12)

    def test_oscillatory_smooth(self):
        res = integrate(math.sin, 0.0, 10.0, tol=1e-11)
        exact = 1.0 - math.cos(10.0)
        assert res.value == pytest.approx(exact, abs=max(1e-11, res.abs_error_estimate))

    def test_scipy_cross_check(self):
        f = lambda x: math.exp(-x) * math.cos(7.0 * x) / (1.0 + x * x)
        res = integrate(f, -2.0, 3.0, tol=1e-12)
        reference, _ = quad(f, -2.0, 3.0, epsabs=1e-13, epsrel=1e-13, limit=500)
        assert res.value == pytest.approx(reference, abs=1e-11)


class TestSingularEndpoints:
    def test_log_lower(self):
        res = integrate(math.log, 0.0, 1.0, flags=EndpointFlag(lower_singular=True))
        assert res.value == pytest.approx(-1.0, abs=max(1e-10, res.abs_error_estimate))

    def test_log_upper(self):
        res = integrate(
            lambda x: math.log1p(-x), 0.0, 1.0, flags=EndpointFlag(upper_singular=True)
        )
        assert res.value == pytest.approx(-1.0, abs=max(1e-10, res.abs_error_estimate))

    def test_log_product_both_ends(self):
        # int_0^1 ln(x) ln(1-x) dx = 2 - pi^2/6
        res = integrate(
            lambda x: math.log(x) * math.log1p(-x),
            0.0,
            1.0,
            flags=EndpointFlag(lower_singular=True, upper_singular=True),
        )
        assert res.value == pytest.approx(2.0 - PI**2 / 6.0, abs=1e-9)

    def test_log_squared(self):
        # int_0^1 ln^2(x) dx = 2
        res = integrate(
            lambda x: math.log(x) ** 2, 0.0, 1.0, flags=EndpointFlag(lower_singular=True)
        )
        assert res.value == pytest.approx(2.0, abs=1e-9)


class TestFrakIntegrand:
    def test_matches_antiderivative_difference(self):
        from legderiv import frak_I, polylog

        res = integrate(
            lambda t: math.log(t) * polylog(2, t) / (1.0 - t), 0.25, 0.75, tol=1e-11
        )
        assert res.value == pytest.approx(frak_I(0.75) - frak_I(0.25), abs=1e-10)


class TestContracts:
    def test_bad_bounds(self):
        with pytest.raises(DomainError):
            integrate(lambda x: x, 1.0, 0.0)
        with pytest.raises(DomainError):
            integrate(lambda x: x, 1.0, 1.0)

    def test_tolerance_floor(self):
        with pytest.raises(DomainError):
            integrate(lambda x: x, 0.0, 1.0, tol=1e-14)

    def test_nan_tolerance_rejected(self):
        # NaN compares false both against the floor and in the refinement
        # loop, so it used to return a one-panel value (0.48 for 0.020).
        f = lambda x: math.exp(-x) * math.sin(50.0 * x)
        with pytest.raises(DomainError):
            integrate(f, 0.0, 10.0, tol=math.nan)

    def test_panel_cap(self):
        # needle far too sharp for eight panels
        f = lambda x: 1.0 / (1e-12 + (x - 0.37) ** 2)
        with pytest.raises(ConvergenceError):
            integrate(f, 0.0, 1.0, tol=1e-10, max_panels=8)

    def test_nan_integrand_raises(self):
        with pytest.raises(ConvergenceError):
            integrate(lambda x: math.nan, 0.0, 1.0)

    def test_overflowing_integrand_raises(self):
        # 1/x overflows once bisection crowds nodes against the lower end
        with pytest.raises(ConvergenceError):
            integrate(lambda x: 1.0 / x if x else math.inf, 0.0, 1.0)

    def test_determinism(self):
        f = lambda x: math.sin(3.0 * x) / (1.0 + x)
        first = integrate(f, 0.0, 2.0)
        second = integrate(f, 0.0, 2.0)
        assert first == second

    def test_error_estimate_honest(self):
        f = lambda x: math.cos(5.0 * x) * math.exp(x)
        exact = (math.cos(5.0) * math.exp(1.0) + 5.0 * math.sin(5.0) * math.exp(1.0) - 1.0) / 26.0
        res = integrate(f, 0.0, 1.0, tol=1e-11)
        assert abs(res.value - exact) <= max(1e-11, res.abs_error_estimate)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.floats(min_value=-1.5, max_value=1.5, allow_nan=False),
    st.floats(min_value=0.1, max_value=1.4, allow_nan=False),
    st.floats(min_value=0.12, max_value=0.9, allow_nan=False),
)
def test_additivity(a, width, split):
    b = a + width
    c = a + split * width
    f = lambda x: math.exp(-x) + 0.3 * math.sin(4.0 * x)
    whole = integrate(f, a, b)
    left = integrate(f, a, c)
    right = integrate(f, c, b)
    budget = whole.abs_error_estimate + left.abs_error_estimate + right.abs_error_estimate
    assert left.value + right.value == pytest.approx(whole.value, abs=max(budget, 1e-12))
