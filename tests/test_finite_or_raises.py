"""Every public evaluator returns a finite value or raises a package error,
and every evaluating CLI command prints finite values or exits 2 with a
one-line message.

Arguments are drawn from all doubles (NaN, +/-inf and subnormals included)
and, separately, from the documented domains, so that both the rejection
paths and the evaluation paths are exercised.
"""

import math

from click.testing import CliRunner
from hypothesis import example, given, settings, strategies as st

from legderiv import (
    ConvergenceError,
    DomainError,
    first_integral,
    frak_I,
    inner_integral_I,
    integrate,
    ode_residuals,
    order_derivatives,
    p_deriv,
    p_derivs,
    polylog,
)
from legderiv.cli import main
from legderiv.verify import trigamma_sum

ANY_Z = st.floats() | st.floats(min_value=-1.0, max_value=1.0)
ANY_X = st.floats() | st.floats(min_value=-10.0, max_value=1.0)
ANY_T = st.floats() | st.floats(min_value=0.0, max_value=1.0)
ANY_BOUND = st.floats() | st.floats(min_value=-10.0, max_value=10.0)
# Partial-sum lengths: small enough to sum quickly, or too large to accept.
ANY_TERMS = st.integers(max_value=300) | st.integers(min_value=10**8 + 1)


def finite_or_raises(fn, *args):
    try:
        value = fn(*args)
    except (DomainError, ConvergenceError):
        return
    values = value if isinstance(value, tuple) else (value,)
    assert all(math.isfinite(v) for v in values), (fn.__name__, args, value)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(min_value=0, max_value=4), ANY_Z)
def test_p_deriv(n, z):
    finite_or_raises(p_deriv, n, z)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(ANY_Z)
def test_p_derivs(z):
    finite_or_raises(p_derivs, z)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(min_value=1, max_value=5), ANY_X)
def test_polylog(s, x):
    finite_or_raises(polylog, s, x)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(ANY_T)
def test_frak_I(t):
    finite_or_raises(frak_I, t)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(min_value=1, max_value=3), st.integers(min_value=1, max_value=3), ANY_Z)
def test_first_integral(eta, li_order, z):
    finite_or_raises(first_integral, eta, z, li_order)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(ANY_Z)
def test_inner_integral_I(z):
    finite_or_raises(inner_integral_I, z)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(ANY_Z)
def test_order_derivatives(z):
    finite_or_raises(order_derivatives, z)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(ANY_Z)
def test_ode_residual(z):
    finite_or_raises(ode_residuals, z)


def integrate_cos(a, b):
    result = integrate(math.cos, a, b)
    return result.value, result.abs_error_estimate


@settings(max_examples=100, deadline=None, derandomize=True)
@given(ANY_BOUND, ANY_BOUND)
@example(0.0, math.inf)
@example(-1e308, 1e308)
def test_integrate(a, b):
    finite_or_raises(integrate_cos, a, b)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(ANY_TERMS | st.floats() | st.booleans(), st.booleans())
def test_trigamma_sum(terms, accelerate):
    finite_or_raises(trigamma_sum, terms, accelerate)


def finite_or_exit_two(args):
    result = CliRunner().invoke(main, args)
    if result.exit_code == 2:
        assert result.stdout == "" and result.stderr.count("\n") == 1, (args, result.stderr)
        return
    assert result.exit_code == 0, (args, result.output, result.exception)
    values = [float(line.split()[-1]) for line in result.stdout.splitlines()]
    assert values and all(math.isfinite(v) for v in values), (args, result.stdout)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(min_value=-2, max_value=6), ANY_Z)
def test_cli_eval(n, z):
    finite_or_exit_two(["eval", f"--n={n}", f"--z={z!r}"])


@settings(max_examples=100, deadline=None, derandomize=True)
@given(ANY_TERMS, st.booleans())
def test_cli_sum_trigamma(terms, accelerate):
    flags = [] if accelerate else ["--no-accelerate"]
    finite_or_exit_two(["sum-trigamma", *flags, "--", str(terms)])
