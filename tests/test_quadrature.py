"""Adaptive quadrature: exactness battery, singular endpoints, error honesty."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from legderiv import ConvergenceError, DomainError, EndpointFlag, integrate, quadrature
from legderiv.quadrature import _integrate

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


    @pytest.mark.parametrize("a", [-1.0, 0.0])
    @pytest.mark.parametrize("both", [False, True], ids=["lower", "both"])
    @pytest.mark.parametrize("length", [0.1, 0.3, 1.0])
    def test_nodes_stay_strictly_inside(self, a, both, length):
        # at tol 1e-13 the quintic chart halves its end panel until width * s^5 falls
        # below half an ulp of a; such a node must still lie strictly inside (a, b)
        b = a + length
        nodes = []

        def f(x):
            nodes.append(x)
            return math.log(x - a) + (math.log(b - x) if both else 0.0)

        flags = EndpointFlag(lower_singular=True, upper_singular=both)
        res = integrate(f, a, b, tol=1e-13, flags=flags)
        assert a < min(nodes) and max(nodes) < b
        exact = (2.0 if both else 1.0) * length * (math.log(length) - 1.0)
        assert res.value == pytest.approx(exact, abs=1e-13)

    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("both", [False, True], ids=["lower", "both"])
    @pytest.mark.parametrize("b", [-0.9, -0.7, 0.0])
    def test_singular_p_derivs_from_minus_one(self, n, both, b):
        # P1 and P3 diverge like ln(1 + z) at -1, where p_derivs raises
        from legderiv import p_derivs

        flags = EndpointFlag(lower_singular=True, upper_singular=both)
        res = integrate(lambda z: p_derivs(z)[n], -1.0, b, tol=1e-13, flags=flags)
        assert res.abs_error_estimate <= 1e-13 and res.subdivisions <= 14


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
        # no float lies strictly between adjacent floats, so no node can
        with pytest.raises(DomainError):
            integrate(lambda x: x, 1.0, math.nextafter(1.0, 2.0))
        # infinite bounds, or a span that overflows, would hand x = inf to f
        for a, b in ((0.0, math.inf), (-math.inf, 0.0), (-1e308, 1e308)):
            with pytest.raises(DomainError):
                integrate(math.cos, a, b)

    def test_tolerance_floor(self):
        with pytest.raises(DomainError):
            integrate(lambda x: x, 0.0, 1.0, tol=1e-14)

    def test_nan_tolerance_rejected(self):
        # NaN compares false both against the floor and in the refinement
        # loop, so it used to return a one-panel value (0.48 for 0.020).
        f = lambda x: math.exp(-x) * math.sin(50.0 * x)
        with pytest.raises(DomainError):
            integrate(f, 0.0, 10.0, tol=math.nan)
        # nor is a bool, which would pass the floor as 1
        with pytest.raises(DomainError):
            integrate(f, 0.0, 10.0, tol=True)

    def test_panel_cap(self, monkeypatch):
        # needle far too sharp for eight panels; the loop reads quadrature._MAX_PANELS
        # when called
        monkeypatch.setattr(quadrature, "_MAX_PANELS", 8)
        f = lambda x: 1.0 / (1e-12 + (x - 0.37) ** 2)
        with pytest.raises(ConvergenceError, match="within 8 panels"):
            integrate(f, 0.0, 1.0, tol=1e-10)
        # a tol that is a Real but not a float reports the same, as the float it stands for
        with pytest.raises(ConvergenceError, match="tol=1e-10 within 8 panels"):
            integrate(f, 0.0, 1.0, tol=Fraction(1, 10**10))

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


def _tuple_valued(f):
    # the shared kernel's view of a tuple-valued f: one column per component
    return lambda xs: zip(*map(f, xs))


class TestSharedNodes:
    # The kernel integrates every component of a tuple-valued integrand over
    # one set of panels; integrate is its one-component call.
    COMPONENTS = (
        math.cos,
        lambda x: math.exp(-x) * math.cos(7.0 * x) / (1.0 + x * x),
        lambda x: 1.0 / (1e-3 + (x - 0.37) ** 2),
        lambda x: x**5,
    )

    @pytest.mark.parametrize("tol", [1e-10, 1e-12])
    def test_each_component_matches_its_own_integrate(self, tol):
        values, err, panels = _integrate(
            _tuple_valued(lambda x: tuple(f(x) for f in self.COMPONENTS)), -0.5, 2.0, tol
        )
        assert err <= tol and panels >= 1
        for value, f in zip(values, self.COMPONENTS):
            alone = integrate(f, -0.5, 2.0, tol)
            assert abs(value - alone.value) <= tol, (value, alone.value)

    def test_components_share_the_singular_stretching(self):
        flags = EndpointFlag(lower_singular=True, upper_singular=True)
        pair = lambda x: (math.log(x), math.log(x) * math.log1p(-x))
        (first, second), _, _ = _integrate(_tuple_valued(pair), 0.0, 1.0, 1e-10, flags)
        assert abs(first + 1.0) <= 1e-10
        assert abs(second - (2.0 - PI**2 / 6.0)) <= 1e-10

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", [0, 1, 2])
    def test_one_bad_component_raises(self, bad, where):
        # a non-finite value in any single component, at some nodes or at
        # every node, is a ConvergenceError, never a NaN
        def f(x):
            row = [math.sin(x), x * x, math.exp(x)]
            if x > 0.8:
                row[where] = bad
            return tuple(row)

        with pytest.raises(ConvergenceError):
            _integrate(_tuple_valued(f), 0.0, 1.0, 1e-12)
        with pytest.raises(ConvergenceError):
            _integrate(_tuple_valued(lambda x: f(x + 1.0)), 0.0, 1.0, 1e-12)

    def test_overflowing_sum_raises(self):
        # finite weighted values (each below 0.21e308) whose sum overflows
        with pytest.raises(ConvergenceError):
            _integrate(_tuple_valued(lambda x: (1.0, 1e308)), 0.0, 2.0, 1e-10)


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
