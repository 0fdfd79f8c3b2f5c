"""Every public evaluator returns a finite value on its documented domain and
raises DomainError off it, and every evaluating CLI command prints finite
values or exits 2 with a one-line message.

Arguments are drawn from all doubles (NaN, +/-inf and subnormals included)
and, separately, from the documented domains.  Each draw is sorted by the
domain's own predicate: an in-domain draw must return a finite value, and an
out-of-domain draw must raise DomainError.  Only ``integrate``, whose panel cap
an integrand may outrun, may raise ConvergenceError inside its domain.
"""

import math
import sys
from decimal import Decimal
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings, strategies as st

from legderiv import (
    ConvergenceError,
    DomainError,
    EndpointFlag,
    dilog_landen,
    dilog_reflection,
    first_integral,
    frak_I,
    frak_I_limit,
    inner_integral_I,
    integrate,
    ode_residuals,
    order_derivatives,
    p_deriv,
    p_derivs,
    polylog,
    trigamma,
    trilog_identity,
    zeta_const,
)
from legderiv.cli import TableSpec, main
from legderiv.verify import trigamma_sum

ANY_Z = st.floats() | st.floats(min_value=-1.0, max_value=1.0)
ANY_X = st.floats() | st.floats(min_value=-10.0, max_value=1.0)
ANY_T = st.floats() | st.floats(min_value=0.0, max_value=1.0)
ANY_BOUND = st.floats() | st.floats(min_value=-10.0, max_value=10.0)
# Partial-sum lengths: small enough to sum quickly, or too large to accept.
ANY_TERMS = st.integers(max_value=300) | st.integers(min_value=10**8 + 1)
# Endpoint flags: the two fields of an EndpointFlag, bools or not, from which the test
# builds one (a field that is not a bool raises DomainError then), and values that are
# not an EndpointFlag.
FLAG_FIELD = st.sampled_from([False, True, "no", None, 0, np.bool_(True)])
ANY_FLAGS = st.tuples(FLAG_FIELD, FLAG_FIELD) | st.sampled_from(
    [None, [True, False], "lower", True, {"lower_singular": True}]
)
# accelerate: bools, and truthy or falsy values that are not one.
ANY_ACCELERATE = st.booleans() | st.sampled_from(["no", "", None, 0, 1, np.bool_(True)])
# Integer-like arguments: ints about the accepted range, and floats and bools,
# which no order-like argument accepts.
ANY_INT = st.integers(min_value=-3, max_value=8) | st.floats() | st.booleans()


def is_int(value):
    return type(value) is int


def in_z_domain(z):
    return -1.0 < z <= 1.0


def in_unit_interval(x):
    return 0.0 < x < 1.0


def obeys_contract(fn, args, in_domain, may_not_converge=False):
    """A finite value (every element of a tuple) when ``in_domain``, else DomainError."""
    if not in_domain:
        with pytest.raises(DomainError):
            fn(*args)
        return
    try:
        value = fn(*args)
    except ConvergenceError:
        assert may_not_converge, (fn.__name__, args)
        return
    values = value if isinstance(value, tuple) else (value,)
    assert all(math.isfinite(v) for v in values), (fn.__name__, args, value)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(min_value=0, max_value=4), ANY_Z)
def test_p_deriv(n, z):
    # P0 = 1 also at z = -1
    obeys_contract(p_deriv, (n, z), in_z_domain(z) or (n == 0 and z == -1.0))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(ANY_Z)
def test_p_derivs(z):
    obeys_contract(p_derivs, (z,), in_z_domain(z))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(min_value=1, max_value=5), ANY_X)
def test_polylog(s, x):
    # Li_1(1) diverges
    obeys_contract(polylog, (s, x), -math.inf < x <= 1.0 and not (s == 1 and x == 1.0))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(ANY_T)
def test_frak_I(t):
    obeys_contract(frak_I, (t,), in_unit_interval(t))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(min_value=1, max_value=3), ANY_Z)
def test_first_integral(eta, z):
    # the source's eta = 3 display is measured by the verification suite, not offered
    obeys_contract(first_integral, (eta, z), eta <= 2 and in_z_domain(z))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(ANY_Z)
def test_inner_integral_I(z):
    obeys_contract(inner_integral_I, (z,), in_z_domain(z))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(ANY_Z)
def test_order_derivatives(z):
    obeys_contract(order_derivatives, (z,), -0.9 < z <= 1.0)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(ANY_Z)
def test_ode_residual(z):
    obeys_contract(ode_residuals, (z,), -1.0 < z < 1.0)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(ANY_BOUND, ANY_BOUND, ANY_FLAGS)
@example(0.0, math.inf, (False, False))
@example(-1e308, 1e308, (False, False))
@example(1.0, math.nextafter(1.0, 2.0), (False, False))
@example(-1e300, 1e300, (False, False))
@example(0.0, 1.0, None)
@example(0.0, 1.0, ("no", None))
def test_integrate(a, b, flags):
    # the integrand is only ever called strictly inside (a, b); a panel cap
    # that the error estimate does not meet raises ConvergenceError
    def cos_inside(x):
        assert a < x < b, (a, b, x)
        return math.cos(x)

    def integrate_cos(a, b, flags):
        if type(flags) is tuple:
            flags = EndpointFlag(*flags)
        result = integrate(cos_inside, a, b, flags=flags)
        return result.value, result.abs_error_estimate

    in_domain = a < b and math.isfinite(b - a) and math.nextafter(a, b) < b
    in_domain = in_domain and type(flags) is tuple and all(type(f) is bool for f in flags)
    obeys_contract(integrate_cos, (a, b, flags), in_domain, may_not_converge=True)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(ANY_TERMS | st.floats() | st.booleans(), ANY_ACCELERATE)
def test_trigamma_sum(terms, accelerate):
    in_domain = is_int(terms) and 1 <= terms <= 10**8 and type(accelerate) is bool
    obeys_contract(trigamma_sum, (terms, accelerate), in_domain)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(ANY_INT | st.integers(min_value=1) | st.integers(min_value=10**300, max_value=10**309))
@example(int(sys.float_info.max))
@example(int(sys.float_info.max) + 1)
def test_trigamma(k):
    # any integer from 1 up to the largest that converts to a finite float
    obeys_contract(trigamma, (k,), is_int(k) and 1 <= k <= sys.float_info.max)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(ANY_INT)
@example(3.0)
@example(np.float64(2))
def test_zeta_const(s):
    # a float equal to 2..5 is rejected, as by every order-like argument
    obeys_contract(zeta_const, (s,), is_int(s) and s in (2, 3, 4, 5))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(ANY_INT)
def test_frak_I_limit(endpoint):
    obeys_contract(frak_I_limit, (endpoint,), is_int(endpoint) and endpoint in (0, 1))


@pytest.mark.parametrize("identity", [dilog_reflection, dilog_landen, trilog_identity])
@settings(max_examples=100, deadline=None, derandomize=True)
@given(x=ANY_T)
def test_identity_residuals(identity, x):
    obeys_contract(identity, (x,), in_unit_interval(x))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    st.integers(min_value=-1, max_value=5)
    | st.none()
    | st.text(max_size=3)
    | st.lists(st.integers(min_value=-1, max_value=5), max_size=6)
)
@example(3)
def test_table_spec_orders(orders):
    # a nonempty list of distinct orders in 0..4; an int is not a list of one
    def first_z(orders):
        return TableSpec(orders=orders, z_start=0.0, z_end=1.0, steps=2, fmt="csv").z_start

    in_domain = type(orders) is list and orders and all(0 <= n <= 4 for n in orders)
    obeys_contract(first_z, (orders,), in_domain and len(set(orders)) == len(orders))


# Every real argument, at 0.5 inside its domain: one rule, polylog.as_real, for all.
REAL_ARGUMENTS = {
    "p_deriv": lambda x: p_deriv(1, x),
    "p_derivs": p_derivs,
    "inner_integral_I": inner_integral_I,
    "first_integral": lambda x: first_integral(1, x),
    "polylog": lambda x: polylog(2, x),
    "frak_I": frak_I,
    "dilog_reflection": dilog_reflection,
    "dilog_landen": dilog_landen,
    "trilog_identity": trilog_identity,
    "order_derivatives": order_derivatives,
    "ode_residuals": ode_residuals,
    "integrate_a": lambda x: integrate(math.cos, x, 1.0).value,
    "integrate_b": lambda x: integrate(math.cos, 0.0, x).value,
    "integrate_tol": lambda x: integrate(math.cos, 0.0, 1.0, tol=x).value,
    "TableSpec": lambda x: TableSpec(orders=(1,), z_start=x, z_end=1.0, steps=2, fmt="csv").z_start,
}


@pytest.mark.parametrize("name", list(REAL_ARGUMENTS))
def test_real_arguments(name):
    # any numbers.Real but bool gives the float's result; float() would also parse
    # a str or bytes and take True as 1.0, and these raise DomainError instead
    fn = REAL_ARGUMENTS[name]
    expected = fn(0.5)
    for real in (np.float64(0.5), np.float32(0.5), Fraction(1, 2), mpmath.mpf(0.5)):
        assert fn(real) == expected, (name, real)
    for bad in ("0.5", b"0.5", True, np.bool_(True), None, 0.5 + 0j, Decimal("0.5")):
        with pytest.raises(DomainError):
            fn(bad)


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
