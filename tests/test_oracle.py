"""Oracle tests: hypergeometric Legendre series, nu-differentiation, ODE residual."""

import math

import mpmath as mp
import numpy as np
import pytest
from scipy.special import eval_legendre

from legderiv import (
    ConvergenceError,
    DomainError,
    legendre_p,
    ode_residual,
    order_derivatives,
    p_deriv,
    polylog,
)


def legendre_poly(m: int, z: float) -> float:
    if m == 0:
        return 1.0
    if m == 1:
        return z
    if m == 2:
        return 1.5 * z * z - 0.5
    return 2.5 * z**3 - 1.5 * z


class TestLegendreSeries:
    def test_degree_zero_and_one(self):
        assert legendre_p(0.0, 0.3) == 1.0
        assert legendre_p(1.0, 0.3) == pytest.approx(0.3, abs=1e-15)

    def test_at_z_one(self):
        for nu in (0.0, 0.5, -0.5, 1.0, 0.99):
            assert legendre_p(nu, 1.0) == 1.0

    def test_polynomial_exactness(self):
        rng = np.random.default_rng(11)
        for m in (0, 1, 2, 3):
            for z in rng.uniform(-0.89, 1.0, size=20):
                z = float(z)
                assert legendre_p(float(m), z) == pytest.approx(
                    legendre_poly(m, z), abs=1e-13, rel=1e-13
                )

    def test_scipy_cross_check(self):
        for m in (0, 1, 2, 3):
            for z in (-0.8, -0.2, 0.4, 0.95):
                assert legendre_p(float(m), z) == pytest.approx(
                    float(eval_legendre(m, z)), abs=1e-13
                )

    def test_nu_reflection_symmetry(self):
        # nu(nu+1) is invariant under nu -> -nu-1
        rng = np.random.default_rng(12)
        for _ in range(20):
            nu = float(rng.uniform(-0.999, 0.0))
            z = float(rng.uniform(-0.85, 1.0))
            assert legendre_p(nu, z) == pytest.approx(legendre_p(-nu - 1.0, z), rel=1e-12, abs=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            legendre_p(0.5, -0.95)
        with pytest.raises(DomainError):
            legendre_p(4.5, 0.0)
        with pytest.raises(DomainError):
            legendre_p(0.5, 1.1)

    def test_term_cap(self):
        with pytest.raises(ConvergenceError):
            legendre_p(0.5, -0.85, max_terms=5)


MPMATH_POINTS = (-0.5, 0.0, 0.5, 0.9, 0.99) + tuple(1.0 - 10.0**-k for k in range(1, 16))


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
        for z in MPMATH_POINTS:
            values = order_derivatives(z)
            for n in (1, 2, 3, 4):
                with mp.workdps(50):
                    ref = mp.diff(lambda nu: mp.legenp(nu, 0, mp.mpf(z), type=2), 0, n)
                    rel = float(abs((values[n] - ref) / ref))
                assert rel <= 1e-14, (n, z, rel)

    @pytest.mark.parametrize("nu", [1e-2, -1e-2])
    def test_taylor_sum_matches_series(self, nu):
        for z in (-0.85, -0.3, 0.2, 0.7, 0.99):
            values = order_derivatives(z)
            taylor = sum(v * nu**n / math.factorial(n) for n, v in enumerate(values))
            assert taylor == pytest.approx(legendre_p(nu, z), abs=1e-9), z

    def test_domain(self):
        for z in (-0.9, 1.1, float("nan")):
            with pytest.raises(DomainError):
                order_derivatives(z)

    def test_term_cap(self):
        with pytest.raises(ConvergenceError):
            order_derivatives(-0.85, max_terms=5)


class TestOdeResidual:
    @pytest.mark.parametrize(
        "n,z,bound",
        [(1, 0.5, 1e-6), (2, 0.0, 1e-6), (3, 0.3, 1e-6), (4, 0.25, 1e-5)],
    )
    def test_pointwise(self, n, z, bound):
        assert ode_residual(n, z, 1e-4) <= bound

    def test_domain(self):
        with pytest.raises(DomainError):
            ode_residual(0, 0.5, 1e-4)
        with pytest.raises(DomainError):
            ode_residual(2, 0.5, -1e-4)
        with pytest.raises(DomainError):
            ode_residual(2, 0.99999, 1e-4)
        for n in (True, 2.0):
            with pytest.raises(DomainError):
                ode_residual(n, 0.5, 1e-4)
        assert ode_residual(np.int64(2), 0.5, 1e-4) == ode_residual(2, 0.5, 1e-4)
