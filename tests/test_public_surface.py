"""The public surface, pinned: every name of ``legderiv.__all__``, the parameter
names of each public callable, and each CLI command's options.  A new knob, a
renamed parameter or a dropped name fails here until this record changes with it.
"""

import inspect

import pytest

import legderiv
from legderiv import cli

PUBLIC_NAMES = [
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
    "p_derivs",
    "inner_integral_I",
    "frak_I",
    "frak_I_limit",
    "first_integral",
    "dilog_reflection",
    "dilog_landen",
    "trilog_identity",
    "order_derivatives",
    "ode_residuals",
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

# The exceptions take ValueError's and RuntimeError's arguments and have no signature.
PARAMETERS = {
    "EndpointFlag": ["lower_singular", "upper_singular"],
    "QuadResult": ["value", "abs_error_estimate", "subdivisions"],
    "CheckReport": ["results", "all_passed", "config"],
    "CheckResult": [
        "id", "sample_count", "max_abs_dev", "max_rel_dev", "tolerance", "passed", "note", "required"
    ],
    "polylog": ["s", "x"],
    "zeta_const": ["s"],
    "trigamma": ["k"],
    "p_deriv": ["n", "z"],
    "p_derivs": ["z"],
    "inner_integral_I": ["z"],
    "frak_I": ["t"],
    "frak_I_limit": ["endpoint"],
    "first_integral": ["eta", "z"],
    "dilog_reflection": ["x"],
    "dilog_landen": ["x"],
    "trilog_identity": ["x"],
    "order_derivatives": ["z"],
    "ode_residuals": ["z"],
    "integrate": ["f", "a", "b", "tol", "flags"],
    "check_closed_forms": [],
    "check_quadrature_recurrence": [],
    "check_identities": ["seed"],
    "check_appendix_a": ["seed"],
    "check_appendix_b": [],
    "run_suite": ["seed"],
    "trigamma_sum": ["terms", "accelerate"],
    "trigamma_sum_target": [],
}

CLI_OPTIONS = {
    None: [["--version"]],
    "eval": [["--n"], ["--z"]],
    "table": [["--orders"], ["--z-start"], ["--z-end"], ["--steps"], ["--format"], ["--output"]],
    "verify": [["--json"], ["--seed"]],
    "sum-trigamma": [["terms"], ["--no-accelerate"]],
}


def test_public_names():
    assert legderiv.__all__ == PUBLIC_NAMES
    assert cli.__all__ == ["main", "TableSpec"]


@pytest.mark.parametrize("name", list(PARAMETERS))
def test_parameter_names(name):
    assert list(inspect.signature(getattr(legderiv, name)).parameters) == PARAMETERS[name]


def test_every_public_callable_is_recorded():
    callables = {name for name in PUBLIC_NAMES if callable(getattr(legderiv, name))}
    assert callables - set(PARAMETERS) == {"ConvergenceError", "DomainError"}
    assert list(inspect.signature(cli.TableSpec).parameters) == [
        "orders", "z_start", "z_end", "steps", "fmt"
    ]


def test_cli_options():
    commands = {None: cli.main, **cli.main.commands}
    assert list(commands) == list(CLI_OPTIONS)
    for name, command in commands.items():
        assert [param.opts for param in command.params] == CLI_OPTIONS[name], name
