"""Acceptance gate: every criterion at its stated tolerance and budget.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.  Tolerances are pinned here, not computed.
"""

import json
import math
import time

import numpy as np
import pytest
from click.testing import CliRunner

from legderiv import (
    EndpointFlag,
    dilog_landen,
    dilog_reflection,
    frak_I,
    frak_I_limit,
    inner_integral_I,
    integrate,
    ode_residuals,
    order_derivatives,
    p_deriv,
    polylog,
    trigamma_sum,
    trigamma_sum_target,
    trilog_identity,
)
from legderiv.cli import main as cli_main
from legderiv.orderderiv import _first_integral_displays
from legderiv.verify import _complex_step, _t_displays, _t_kernel, _z_kernel

PI = math.pi

ORACLE_GRID = (-0.5, 0.0, 0.5, 0.9, 0.99, 0.9999, 1.0 - 1e-6, 1.0 - 1e-9, 1.0 - 1e-12)
ORACLE_TOL = {1: 1e-12, 2: 1e-12, 3: 1e-12, 4: 1e-12}


def report(criterion: int, text: str) -> None:
    print(f"PASS criterion {criterion}: {text}")


def test_criterion_1_normalization():
    p_deriv(4, 1.0)  # warm
    start = time.perf_counter()
    devs = [abs(p_deriv(0, 1.0) - 1.0)] + [abs(p_deriv(n, 1.0)) for n in range(1, 5)]
    elapsed = time.perf_counter() - start
    assert max(devs) <= 1e-12
    assert elapsed < 1e-3
    report(1, f"Pn(1) normalization, max dev {max(devs):.1e}, {elapsed * 1e6:.0f} us")


def test_criterion_2_oracle_agreement():
    start = time.perf_counter()
    worst = {}
    oracle = {z: order_derivatives(z) for z in ORACLE_GRID}
    for n in (1, 2, 3, 4):
        devs = [abs(p_deriv(n, z) - oracle[z][n]) for z in ORACLE_GRID]
        worst[n] = max(devs)
        assert worst[n] <= ORACLE_TOL[n], (n, worst[n])
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(2, "closed forms vs nu-derivative oracle, worst dev "
              + ", ".join(f"n={n}: {d:.1e}" for n, d in worst.items()) + f", {elapsed:.2f} s")


def test_criterion_3_ode_recurrence():
    start = time.perf_counter()
    worst = 0.0
    for z in (-0.5, 0.0, 0.25, 0.5, 0.9):
        worst = max(worst, max(ode_residuals(z)))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-11
    assert elapsed < 2.0
    report(3, f"differential recurrence residual, max {worst:.1e}, {elapsed:.2f} s")


def test_criterion_4_trigamma_sum():
    start = time.perf_counter()
    accelerated = trigamma_sum(10**4)
    dev = abs(accelerated - trigamma_sum_target())
    naive_gap = abs(trigamma_sum(10**3, accelerate=False) - trigamma_sum_target())
    elapsed = time.perf_counter() - start
    assert dev <= 1e-9
    assert naive_gap > 1e-4
    assert elapsed < 1.0
    report(4, f"tail-accelerated sum dev {dev:.1e}; naive K=1e3 misses by {naive_gap:.1e}, "
              f"{elapsed:.2f} s")


def test_criterion_5_frak_endpoints_and_quadrature():
    start = time.perf_counter()
    dev1 = abs(frak_I_limit(1) - (-11.0 * PI**4 / 360.0))
    dev0 = abs(frak_I_limit(0) - (-(PI**4) / 45.0))
    assert dev1 <= 1e-12 and dev0 <= 1e-12
    a, b = 2.0**-20, 1.0 - 2.0**-20
    quad = integrate(
        lambda t: math.log(t) * polylog(2, t) / (1.0 - t),
        a, b, tol=1e-10,
        flags=EndpointFlag(lower_singular=True, upper_singular=True),
    )
    quad_dev = abs(quad.value - (frak_I(b) - frak_I(a)))
    elapsed = time.perf_counter() - start
    assert quad_dev <= 1e-7
    assert elapsed < 5.0
    report(5, f"endpoint limits dev {max(dev0, dev1):.1e}; quadrature vs antiderivative "
              f"dev {quad_dev:.1e}, {elapsed:.2f} s")


def test_criterion_6_inner_integral_identity():
    start = time.perf_counter()
    devs = []
    for z in (-0.9, -0.7, -0.5, -0.3, -0.1, 0.1, 0.3, 0.5, 0.7, 0.9):
        quad = integrate(
            lambda zz: p_deriv(3, zz) + 3.0 * p_deriv(2, zz),
            -1.0, z, tol=1e-11,
            flags=EndpointFlag(lower_singular=True),
        )
        devs.append(abs(quad.value - inner_integral_I(z)))
    elapsed = time.perf_counter() - start
    assert max(devs) <= 1e-8
    assert elapsed < 10.0
    report(6, f"inner-integral identity at 10 points, max dev {max(devs):.1e}, {elapsed:.2f} s")


def test_criterion_7_identity_residuals():
    rng = np.random.default_rng(20140412)
    xs = rng.uniform(0.01, 0.99, size=100)
    start = time.perf_counter()
    worst = 0.0
    for x in xs:
        x = float(x)
        worst = max(worst, abs(dilog_reflection(x)), abs(dilog_landen(x)),
                    abs(trilog_identity(x)))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-12
    assert elapsed < 0.1
    report(7, f"di/trilog identity residuals at 100 points, max {worst:.1e}, {elapsed * 1e3:.0f} ms")


def test_criterion_8_antiderivative_hypotheses():
    rng = np.random.default_rng(8)
    ts = [float(t) for t in rng.uniform(0.05, 0.95, size=50)]

    # the complex-step slopes of the Li_4 Landen, Li_2(t)^2 and log-squares
    # displays, in that order
    slopes = [_complex_step(_t_displays, *_t_kernel(t)) for t in ts]
    li4_dev = max(abs(d[0] - polylog(4, t / (t - 1.0))) for d, t in zip(slopes, ts))
    logs_dev = max(abs(d[2] - (math.log(t) * math.log1p(-t)) ** 2) for d, t in zip(slopes, ts))
    assert li4_dev <= 1e-11
    assert logs_dev <= 1e-11

    # report-only measurements: the Li_2(t)^2 display and the third first
    # integral (under its best polylogarithm-order resolution, Li_2: element 3)
    li2sq_dev = max(abs(d[1] - polylog(2, t) ** 2) for d, t in zip(slopes, ts))
    i3_offsets = [
        _complex_step(_first_integral_displays, *_z_kernel(z))[3] - p_deriv(3, z)
        for z in (-0.6, -0.2, 0.2, 0.6)
    ]
    report(8, f"required antiderivatives pass (Li4 {li4_dev:.1e}, log^2ln^2 {logs_dev:.1e}); "
              f"informational: Li2^2 display dev {li2sq_dev:.1e}, third first-integral "
              f"derivative offset {sum(i3_offsets) / 4.0:.6f} (cf. 24 zeta(3) = 28.849366)")


def test_criterion_9_verify_json_determinism():
    runner = CliRunner()
    first = runner.invoke(cli_main, ["verify", "--json"])
    second = runner.invoke(cli_main, ["verify", "--json"])
    assert first.exit_code == 0 and second.exit_code == 0
    assert first.output == second.output
    assert json.loads(first.output)["all_passed"] is True
    report(9, f"verify --json byte-identical across runs ({len(first.output)} bytes)")
