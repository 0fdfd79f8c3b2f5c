"""Tests of the benchmark itself: python3 -m pytest perfbench/tests -q"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checking  # noqa: E402
import loadgen  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402

MODS = worker.load_library(need_cli=True)


SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


# --- load generator ------------------------------------------------------------------


@pytest.mark.parametrize("workload", ["table", "edge", "verify"])
def test_generator_is_deterministic_per_seed(workload):
    assert loadgen.pool(workload, 7) == loadgen.pool(workload, 7)
    assert loadgen.pool(workload, 7) != loadgen.pool(workload, 8)


def test_sum_terms_are_deterministic_and_in_range():
    first = [loadgen.sum_terms(7, i) for i in range(50)]
    assert first == [loadgen.sum_terms(7, i) for i in range(50)]
    assert first != [loadgen.sum_terms(8, i) for i in range(50)]
    assert all(10**4 <= k <= 10**5 for k in first)


def test_inputs_stay_inside_the_domain():
    for seed in range(20):
        for a, b in loadgen.table_ranges(seed):
            assert -1.0 < a < b <= 1.0
        for n, z in loadgen.edge_points(seed):
            assert n in (1, 2, 3, 4) and -1.0 < z < 1.0


# --- correctness checks ----------------------------------------------------------------


@pytest.mark.parametrize("z", [0.5, -0.2, -0.9])
def test_reference_matches_mpmath_legenp(z):
    mp = pytest.importorskip("mpmath")
    ref = checking.pn_reference(z)
    with mp.workdps(30):
        taylor = mp.taylor(lambda nu: mp.legenp(nu, 0, mp.mpf(z), type=2), 0, 4)
        for n in range(1, 5):
            assert abs(taylor[n] * math.factorial(n) - ref[n]) <= mp.mpf(10) ** -25 * abs(ref[n])


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_accuracy_check_flags_relative_perturbation(n):
    p_deriv = MODS["orderderiv"].p_deriv
    z = 0.3
    value = p_deriv(n, z)
    assert checking.check_value(n, z, value).target_ok
    perturbed = checking.check_value(n, z, value * (1.0 + 1e-9))
    assert not perturbed.target_ok
    assert 8.5 < perturbed.digits < 9.5


def test_table_check_flags_one_perturbed_cell():
    cli = MODS["cli"]
    spec = cli.TableSpec(orders=(0, 1, 2, 3, 4), z_start=-0.5, z_end=0.5, steps=5, fmt="csv")
    text = cli.render_table(spec)
    assert checking.check_table(text, -0.5, 0.5, 5, spec.orders).target_ok
    lines = text.splitlines()
    cells = lines[2].split(",")
    cells[4] = repr(float(cells[4]) * (1.0 + 1e-9))
    lines[2] = ",".join(cells)
    verdict = checking.check_table("\n".join(lines) + "\n", -0.5, 0.5, 5, spec.orders)
    assert verdict.gate_ok and not verdict.target_ok


def test_verify_determinism_check_flags_differing_json():
    report = MODS["verify"].run_suite(seed=3).to_json()
    altered = report.replace('"seed": 3', '"seed": 4')
    rec = worker.Recorder(keep_all=False)
    for out in (report, report, altered):
        rec.add(0, out)
    counts = run.tally("verify", 1, rec.to_json())
    assert counts["attempted"] == 3
    assert counts["failed"] == 1
    assert counts["fail_frac"] == pytest.approx(1 / 3)


def test_report_check_reads_all_passed_and_oracle_digits():
    report = json.loads(MODS["verify"].run_suite(seed=3).to_json())
    verdict = checking.check_report(json.dumps(report))
    assert verdict.gate_ok and 0.0 < verdict.digits <= 16.0
    report["all_passed"] = False
    assert not checking.check_report(json.dumps(report)).gate_ok


def test_sum_check_uses_the_criterion_4_bound():
    target = 7.0 * math.pi**4 / 360.0
    assert checking.check_sum(target).gate_ok
    assert not checking.check_sum(target + 2e-9).gate_ok


# --- latency statistics --------------------------------------------------------------


def test_tail_is_highest_ladder_percentile_with_ten_beyond():
    lat = worker.Latencies(capacity=1000)
    for ns in range(1, 101):
        lat.add(ns)
    summary = lat.summary()
    assert summary["p50_ns"] == 50
    assert (summary["tail_p"], summary["tail_ns"], summary["tail_beyond"]) == (90.0, 90, 10)


# --- tracing ------------------------------------------------------------------------


def test_polylog_regions_follow_the_module_table():
    region = tracing.polylog_region
    assert [region(2, x) for x in (0.75, -0.75, 0.9, -1.0, -3.7, 1.0)] == [
        "series", "series", "near_one", "dup", "inv", "exact"]
    assert region(1, 0.5) == "exact"


def test_tracer_counts_hops_and_restores_bindings():
    originals = {(m, a): getattr(MODS[m], a) for m, a in (("orderderiv", "polylog"), ("polylog", "polylog"))}
    tracer = tracing.Tracer(cap=1000)
    with tracing.traced(tracer, MODS):
        MODS["orderderiv"].p_deriv(4, 0.5)
    assert all(getattr(MODS[m], a) is fn for (m, a), fn in originals.items())
    layers = tracer.layer_metrics(1)
    assert layers["polylog.calls"] == 5
    assert layers["polylog.hops_per_call"] >= 1.0
    assert layers["orderderiv.p_deriv.calls.n4"] == 1
    assert layers["orderderiv.polylog_per_row"] == 5


def test_traced_run_reports_every_per_layer_metric():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "all", "--seed", "1",
         "--seconds", "0.5", "--trace", "1"],
        capture_output=True, text=True, timeout=600, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    expected = [(m["name"], m["unit"]) for m in SPEC["per_layer"]]
    for workload in loadgen.WORKLOADS:
        prefix = workload + "."
        got = [(k[len(prefix):], v["unit"]) for k, v in result["metrics"].items() if k.startswith(prefix)]
        assert got == expected


def test_end_to_end_units_match_the_spec():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == {
        name: run.E2E_UNITS[name] for name in run.JSON_E2E}


def test_run_fails_without_the_library_sources():
    bare = BENCH / "out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "table", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, timeout=180, cwd=bare,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
