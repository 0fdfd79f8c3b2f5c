"""Oracle tests: nu-differentiation of the hypergeometric series, ODE residual."""

import math

import mpmath as mp
import numpy as np
import pytest

from legderiv import (
    ConvergenceError,
    DomainError,
    ode_residual,
    order_derivatives,
    p_deriv,
    polylog,
)

# the docstring's 1e-14 down to the floor of the domain, where the series
# ratio (1-z)/2 nears 0.95
MPMATH_POINTS = (
    (math.nextafter(-0.9, 0.0), -0.9 + 1e-12, -0.899, -0.85, -0.5, 0.0, 0.5, 0.9, 0.99)
    + tuple(1.0 - 10.0**-k for k in range(1, 16))
)


class TestOrderDerivativeFD:
    """order_derivatives, the oracle behind the closed-form-fd-n* checks."""

    def test_first_derivative_at_origin(self):
        assert order_derivatives(0.0)[1] == pytest.approx(-math.log(2.0), rel=1e-15)

    def test_second_derivative_matches_dilog(self):
        assert order_derivatives(0.5)[2] == pytest.approx(-2.0 * polylog(2, 0.25), rel=1e-14)

    def test_fourth_derivative_at_one(self):
        assert order_derivatives(1.0) == (1, 0, 0, 0, 0)

    def test_grid_agreement_with_closed_forms(self):
        for z in (-0.5, 0.0, 0.5, 0.9, 0.99):
            values = order_derivatives(z)
            assert values[0] == 1.0
            for n in (1, 2, 3, 4):
                assert values[n] == pytest.approx(p_deriv(n, z), abs=1e-12), (n, z)

    def test_against_mpmath(self):
        # one mp.diffs pass per z gives the nu-derivatives of every order; at 30
        # digits they agree with 60-digit ones to 1e-31 relative on these points
        for z in MPMATH_POINTS:
            values = order_derivatives(z)
            with mp.workdps(30):
                refs = list(mp.diffs(lambda nu: mp.legenp(nu, 0, mp.mpf(z), type=2), 0, 4))
                rels = [float(abs((values[n] - refs[n]) / refs[n])) for n in (1, 2, 3, 4)]
            for n, rel in enumerate(rels, start=1):
                assert rel <= 1e-14, (n, z, rel)

    @pytest.mark.parametrize("nu", [1e-2, -1e-2])
    def test_taylor_sum_matches_series(self, nu):
        for z in (-0.85, -0.3, 0.2, 0.7, 0.99):
            values = order_derivatives(z)
            taylor = sum(v * nu**n / math.factorial(n) for n, v in enumerate(values))
            with mp.workdps(30):
                reference = mp.legenp(nu, 0, mp.mpf(z), type=2)
            assert taylor == pytest.approx(float(reference), abs=1e-9), z

    def test_domain(self):
        for z in (-0.9, 1.1, float("nan")):
            with pytest.raises(DomainError):
                order_derivatives(z)

    def test_term_cap(self):
        with pytest.raises(ConvergenceError):
            order_derivatives(-0.85, max_terms=5)
        assert order_derivatives(0.3, max_terms=np.int64(500)) == order_derivatives(0.3)
        for cap in (True, 2.5, 500.0, 0):
            with pytest.raises(DomainError):
                order_derivatives(0.3, max_terms=cap)


class TestOdeResidual:
    @pytest.mark.parametrize(
        "n,z,bound",
        [(1, 0.5, 1e-9), (2, 0.0, 1e-9), (3, 0.3, 1e-9), (4, 0.25, 1e-9)],
    )
    def test_pointwise(self, n, z, bound):
        assert ode_residual(n, z, 1e-4) <= bound

    def test_pointwise_bounds_hold_across_the_band(self):
        # test_pointwise's bound at each of 401 z in [0.15, 0.35], not only at
        # its four points (the worst measures 2.6e-12, n = 4)
        for i in range(401):
            z = 0.15 + 0.2 * i / 400
            for n in (1, 2, 3, 4):
                assert ode_residual(n, z, 1e-4) <= 1e-9, (n, z)

    def test_domain(self):
        with pytest.raises(DomainError):
            ode_residual(0, 0.5, 1e-4)
        with pytest.raises(DomainError):
            ode_residual(2, 0.5, -1e-4)
        with pytest.raises(DomainError):
            ode_residual(2, 0.99999, 1e-4)
        # 12 dz^2 underflows: to 0 or to a subnormal; steps this small are
        # rejected before the stencil divides by 12 dz
        for dz in (1e-170, 1e-160):
            with pytest.raises(DomainError):
                ode_residual(2, 0.0, dz)
        for n in (True, 2.0):
            with pytest.raises(DomainError):
                ode_residual(n, 0.5, 1e-4)
        assert ode_residual(np.int64(2), 0.5, 1e-4) == ode_residual(2, 0.5, 1e-4)
