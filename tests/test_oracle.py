"""Oracle tests: nu-differentiation of the hypergeometric series, ODE residual."""

import math
import random

import mpmath as mp
import pytest

from legderiv import (
    ConvergenceError,
    DomainError,
    ode_residuals,
    order_derivatives,
    p_deriv,
    polylog,
)
from legderiv import oracle, verify

# the docstring's 1e-14 down to the floor of the domain, where the series
# ratio (1-z)/2 nears 0.95
MPMATH_POINTS = (
    (math.nextafter(-0.9, 0.0), -0.9 + 1e-12, -0.899, -0.85, -0.5, 0.0, 0.5, 0.9, 0.99)
    + tuple(1.0 - 10.0**-k for k in range(1, 16))
)


def _list_loop(z, max_terms=100_000):
    # The reference: the nu-Taylor loop with the term and the sum held as lists.
    x = 0.5 * (1.0 - z)
    term = [1.0, 0.0, 0.0, 0.0, 0.0]
    total = list(term)
    tiny_streak = 0
    for k in range(max_terms):
        kk = k * (k + 1.0)
        scale = x / ((k + 1.0) * (k + 1.0))
        term = [
            scale * (kk * c - c1 - c2)
            for c, c1, c2 in zip(term, [0.0] + term[:4], [0.0, 0.0] + term[:3])
        ]
        total = [s + c for s, c in zip(total, term)]
        if all(abs(c) <= 1e-17 * abs(s) + 1e-300 for c, s in zip(term, total)):
            tiny_streak += 1
            if tiny_streak >= 2:
                return tuple(f * s for f, s in zip((1.0, 1.0, 2.0, 6.0, 24.0), total))
        else:
            tiny_streak = 0
    raise ConvergenceError(f"no convergence in {max_terms} terms")


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

    def test_scalar_loop_keeps_the_list_loop_bits(self):
        rng = random.Random(2016)
        zs = [rng.uniform(-0.9, 1.0) for _ in range(200)]
        zs += [math.nextafter(-0.9, 0.0), -0.5, 0.0, 0.3, 1.0]
        for z in zs:
            assert [v.hex() for v in order_derivatives(z)] == [v.hex() for v in _list_loop(z)], z

    @pytest.mark.parametrize("z", [-0.85, 0.3, 0.99])
    def test_term_cap_is_the_list_loops(self, z, monkeypatch):
        # the least cap that converges, found on the reference by bisection, is
        # the scalar loop's too: one term fewer raises ConvergenceError; the loop
        # reads oracle._SERIES_CAP when called
        def converges(cap):
            try:
                _list_loop(z, cap)
            except ConvergenceError:
                return False
            return True

        lo, hi = 1, 4096  # converges(hi), not converges(lo)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if converges(mid) else (mid, hi)
        monkeypatch.setattr(oracle, "_SERIES_CAP", hi)
        assert order_derivatives(z) == _list_loop(z, hi)
        for cap in (lo, 1):
            monkeypatch.setattr(oracle, "_SERIES_CAP", cap)
            with pytest.raises(ConvergenceError):
                order_derivatives(z)

    def test_domain(self):
        for z in (-0.9, 1.1, float("nan")):
            with pytest.raises(DomainError):
                order_derivatives(z)

    def test_term_cap(self, monkeypatch):
        monkeypatch.setattr(oracle, "_SERIES_CAP", 5)
        with pytest.raises(ConvergenceError, match="in 5 terms"):
            order_derivatives(-0.85)


class TestOdeResidual:
    @pytest.mark.parametrize(
        "n,z,bound",
        [(1, 0.5, 1e-11), (2, 0.0, 1e-11), (3, 0.3, 1e-11), (4, 0.25, 1e-11)],
    )
    def test_pointwise(self, n, z, bound):
        assert ode_residuals(z)[n - 1] <= bound

    def test_pointwise_bounds_hold_across_the_band(self):
        # test_pointwise's bound at each of 401 z in [0.15, 0.35], not only at
        # its four points, and next to both ends of (-1, 1), for every order
        # (the worst measures 5.3e-14, n = 3 at z = -1 + 2^-53)
        band = [0.15 + 0.2 * i / 400 for i in range(401)]
        for z in band + [-1.0 + 2.0**-53, -0.99, 0.999999, 1.0 - 2.0**-53]:
            residuals = ode_residuals(z)
            assert len(residuals) == 4
            assert max(residuals) <= 1e-11, (z, residuals)

    def test_grid_pass_matches_each_point(self):
        # the recurrence check's one moment pass over the gaps of its grid gives
        # each z the residuals of ode_residuals(z), whose pass has one gap
        grid = verify._ODE_GRID
        for z, residuals in zip(grid, oracle._ode_residuals(grid)):
            assert residuals == pytest.approx(ode_residuals(z), rel=0.0, abs=1e-14), z

    def test_domain(self):
        for z in (1.0, -1.0, math.nan, math.inf):
            with pytest.raises(DomainError):
                ode_residuals(z)
