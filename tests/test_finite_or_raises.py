"""Every public evaluator returns a finite value or raises a package error.

Arguments are drawn from all doubles (NaN, +/-inf and subnormals included)
and, separately, from the documented domains, so that both the rejection
paths and the evaluation paths are exercised.
"""

import math

from hypothesis import given, settings, strategies as st

from legderiv import (
    ConvergenceError,
    DomainError,
    first_integral,
    frak_I,
    inner_integral_I,
    order_derivatives,
    p_deriv,
    polylog,
)

ANY_Z = st.floats() | st.floats(min_value=-1.0, max_value=1.0)
ANY_X = st.floats() | st.floats(min_value=-10.0, max_value=1.0)
ANY_T = st.floats() | st.floats(min_value=0.0, max_value=1.0)


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
