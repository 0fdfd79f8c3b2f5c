"""Order-derivatives of the Legendre function P_nu(z) at nu = 0.

Closed forms for Pn(z) = [d^n P_nu(z)/d nu^n]_{nu=0}, n = 0..4, built on a
real-argument polylogarithm/trigamma kernel, together with the numerical
machinery (an exact nu-Taylor pass over the hypergeometric series as the
oracle, finite differences in z, adaptive quadrature) and a verification
harness that cross-checks every closed form against an independent route.
"""

from .exceptions import ConvergenceError, DomainError
from .oracle import legendre_p, ode_residual, order_derivatives
from .orderderiv import (
    dilog_landen,
    dilog_reflection,
    first_integral,
    frak_I,
    frak_I_limit,
    inner_integral_I,
    p_deriv,
    trilog_identity,
)
from .polylog import polylog, trigamma, zeta_const
from .quadrature import EndpointFlag, QuadResult, integrate
from .verify import (
    CheckReport,
    CheckResult,
    check_appendix_a,
    check_appendix_b,
    check_closed_forms,
    check_identities,
    check_quadrature_recurrence,
    run_suite,
    trigamma_sum,
    trigamma_sum_target,
)

__version__ = "0.1.0"

__all__ = [
    "ConvergenceError",
    "DomainError",
    "EndpointFlag",
    "QuadResult",
    "CheckReport",
    "CheckResult",
    "polylog",
    "zeta_const",
    "trigamma",
    "p_deriv",
    "inner_integral_I",
    "frak_I",
    "frak_I_limit",
    "first_integral",
    "dilog_reflection",
    "dilog_landen",
    "trilog_identity",
    "legendre_p",
    "order_derivatives",
    "ode_residual",
    "integrate",
    "check_closed_forms",
    "check_quadrature_recurrence",
    "check_identities",
    "check_appendix_a",
    "check_appendix_b",
    "run_suite",
    "trigamma_sum",
    "trigamma_sum_target",
    "__version__",
]
