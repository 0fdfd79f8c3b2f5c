"""legderiv benchmark: four closed-loop workloads, checked on every run.

    python3 perfbench/run.py --workload table --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 1

Workloads (see loadgen.py): ``table``, ``edge``, ``verify``,
``trigamma-sum``, or ``all`` to run the four in turn.  Each run

* times set-up in SETUP_PROBES fresh interpreters, one at a time
  (probe.py), and reports the median;
* runs the workload's closed loop for ``--seconds`` in a fresh worker
  process (worker.py); with ``--trace 1`` the loop alternates untraced
  and traced blocks and the fixed-case microbenchmarks follow;
* checks every output against references computed here, outside the
  timed loop (checking.py);
* prints a report, writes it with the environment record to
  ``perfbench/out/``, and prints as its last line one JSON object with
  the end-to-end metrics (``--trace 0``) or the per-layer metrics
  (``--trace 1``) that BENCHMARK.json lists.

It exits non-zero, without a result, when the checkout holds no legderiv
sources or a worker fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import checking
import loadgen

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
SETUP_PROBES = 9
WORKER_GRACE_S = 100.0


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


# --- environment ---------------------------------------------------------------


def _commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return "unknown"


def _src_digest() -> str:
    pkg = os.path.join(ROOT, "src", "legderiv")
    digest = hashlib.sha256()
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()[:16]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "commit": _commit(),
        "src_sha256": _src_digest(),
        "seed": seed,
        "loadavg": [round(v, 2) for v in os.getloadavg()],
    }


# --- processes ------------------------------------------------------------------


def _python(script: str, args: list[str], timeout: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, script)] + args
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout, cwd=ROOT)
    if proc.returncode != 0:
        raise BenchError(f"{script} exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure_setup(workload: str, seed: int) -> dict:
    """Medians over SETUP_PROBES fresh interpreters, spawned one at a time."""
    samples = []
    for _ in range(SETUP_PROBES):
        spawned = time.perf_counter()
        probe = _python("probe.py", ["--workload", workload, "--seed", str(seed)], 120.0)
        samples.append({
            "setup_s": probe["ready"] - spawned,
            "setup.interpreter_s": probe["start"] - spawned,
            "setup.legderiv_import_s": probe["legderiv_import_s"],
            "setup.click_import_s": probe["click_import_s"],
        })
    return {key: statistics.median(s[key] for s in samples) for key in samples[0]}


def run_worker(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    if trace:
        os.makedirs(OUT, exist_ok=True)
        args += ["--trace", "--trace-out", os.path.join(OUT, f"trace-{workload}-seed{seed}.jsonl")]
    return _python("worker.py", args, seconds + WORKER_GRACE_S)


# --- checks and statistics ---------------------------------------------------------


def verdicts(workload: str, seed: int, outputs: dict) -> dict:
    """Verdict per pool key, for every output the worker returned."""
    pool = loadgen.pool(workload, seed)
    out = {}
    for key, value in outputs.items():
        k = int(key)
        if workload == "table":
            a, b = pool[k]
            out[k] = checking.check_table(value, a, b, loadgen.TABLE_ROWS, loadgen.TABLE_ORDERS)
        elif workload == "edge":
            n, z = pool[k]
            out[k] = checking.check_value(n, z, value)
        elif workload == "verify":
            out[k] = checking.check_report(value)
        else:
            out[k] = checking.check_sum(value)
    return out


def tally(workload: str, seed: int, res: dict) -> dict:
    """Ops attempted, failing the gate and missing the target; worst digits."""
    checked = verdicts(workload, seed, res["outputs"])
    attempted = gate_failed = target_failed = 0
    notes = list(res["messages"])
    for key, ops in res["key_ops"].items():
        errors = res["errors"].get(key, 0)
        mismatches = res["mismatches"].get(key, 0)
        returned = ops - errors
        v = checked.get(int(key))
        attempted += ops
        gate_failed += errors + (mismatches if v is None or v.gate_ok else returned)
        target_failed += errors + (mismatches if v is None or v.target_ok else returned)
        if v is not None and v.note and len(notes) < 5:
            notes.append(v.note)
    if any(res["mismatches"].values()):
        notes.append(f"{sum(res['mismatches'].values())} outputs differed on a repeated input")
    return {
        "attempted": attempted,
        "failed": gate_failed,
        "fail_frac": target_failed / attempted if attempted else 1.0,
        "target_failed": target_failed,
        "accuracy_digits": min((v.digits for v in checked.values()), default=0.0),
        "notes": notes,
    }


# --- one run ------------------------------------------------------------------------

E2E_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_us": "us",
    "latency_tail_us": "us",
    "fail_frac": "ratio",
    "accuracy_digits": "digits",
    "peak_rss_mb": "MiB",
}
# The metrics BENCHMARK.json gates.  fail_frac and accuracy_digits read 0
# on some workloads, and latency_tail_us, set by the slowest ~10 % of ops,
# spread over more than the largest allowed bound across seeds on a shared
# 2-vCPU host; all three are printed by every run but not gated.
JSON_E2E = ("setup_s", "ops_per_s", "latency_p50_us", "peak_rss_mb")


_RATIOS = ("polylog.hops_per_call", "orderderiv.polylog_per_row", "oracle.legendre_p_per_fd",
           "fail_frac", "trace.overhead_frac")


def per_layer_units(name: str) -> str:
    if name.startswith("setup."):
        return "s"
    if name.endswith(".spread") or name in _RATIOS:
        return "ratio"
    if ".us." in name or name.endswith(".us"):
        return "us"
    if name.endswith("self_s") or name.endswith(".s"):
        return "s/op"
    if name == "accuracy_digits":
        return "digits"
    if name == "quadrature.err_est_max":
        return "abs"
    return "1/op"


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    env = environment(seed)  # before any work, so the load average is the one at start
    setup = measure_setup(workload, seed)
    res = run_worker(workload, seed, seconds, trace)
    counts = tally(workload, seed, res)
    lat = res["latency"]
    if not lat["samples"]:
        raise BenchError("no untraced op completed; raise --seconds")
    if trace:
        ops_per_s = res["trace"]["plain_ops"] / res["trace"]["plain_s"]
    else:
        ops_per_s = res["ops"] / res["loop_s"]
    e2e = {
        "setup_s": setup["setup_s"],
        "ops_per_s": ops_per_s,
        "latency_p50_us": lat["p50_ns"] / 1e3,
        "latency_tail_us": lat["tail_ns"] / 1e3,
        "fail_frac": counts["fail_frac"],
        "accuracy_digits": counts["accuracy_digits"],
        "peak_rss_mb": res["peak_rss_mb"],
    }
    report = {
        "workload": workload,
        "seconds": seconds,
        "trace": trace,
        "env": env,
        "end_to_end": e2e,
        "tail": {"percentile": lat["tail_p"], "beyond": lat["tail_beyond"], "samples": lat["samples"]},
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "target_failed": counts["target_failed"],
        "notes": counts["notes"],
    }
    if trace:
        t = res["trace"]
        traced_rate = t["traced_ops"] / t["traced_s"] if t["traced_s"] else 0.0
        layers = dict(t["layers"])
        layers.update({k: v for k, v in setup.items() if k.startswith("setup.")})
        layers.update(res["micro"])
        layers["fail_frac"] = counts["fail_frac"]
        layers["accuracy_digits"] = counts["accuracy_digits"]
        layers["trace.overhead_frac"] = 1.0 - traced_rate / e2e["ops_per_s"]
        report["per_layer"] = layers
        report["tracing"] = {
            "untraced_ops_per_s": e2e["ops_per_s"],
            "traced_ops_per_s": traced_rate,
            "traced_ops": t["traced_ops"],
            "spans_total": t["spans_total"],
            "spans_kept": t["spans_kept"],
        }
    return report


def print_report(r: dict) -> None:
    w = r["workload"]
    env = r["env"]
    print(f"[{w}] env python={env['python']} nproc={env['nproc']} cpu={env['cpu']!r} "
          f"commit={env['commit']} src_sha256={env['src_sha256']} seed={env['seed']} "
          f"loadavg={env['loadavg']}")
    e2e = r["end_to_end"]
    t = r["tail"]
    extra = {
        "ops_per_s": f"{r['attempted']} ops attempted",
        "latency_tail_us": f"p{t['percentile']:g}, {t['beyond']} samples beyond, n={t['samples']}",
        "fail_frac": f"{r['target_failed']} of {r['attempted']} ops miss the "
                     f"{checking.TARGET_REL:g} relative target",
        "setup_s": f"median of {SETUP_PROBES} fresh interpreters",
    }
    for name, unit in E2E_UNITS.items():
        note = f"  ({extra[name]})" if name in extra else ""
        print(f"[{w}] {name:<16} {e2e[name]:.6g} {unit}{note}")
    print(f"[{w}] gate: {r['failed']} of {r['attempted']} ops failed "
          "(raised, not repeatable, or outside the pinned acceptance tolerances)")
    for note in r["notes"]:
        print(f"[{w}] note: {note}")
    if r["trace"]:
        tr = r["tracing"]
        print(f"[{w}] tracing overhead: {r['per_layer']['trace.overhead_frac']:.3f} "
              f"(untraced {tr['untraced_ops_per_s']:.6g} ops/s, traced {tr['traced_ops_per_s']:.6g} "
              f"ops/s over {tr['traced_ops']} ops; {tr['spans_kept']} of {tr['spans_total']} spans kept)")
        for name, value in r["per_layer"].items():
            print(f"[{w}] {name:<40} {value:.6g} {per_layer_units(name)}")


def save(r: dict) -> None:
    os.makedirs(OUT, exist_ok=True)
    name = f"result-{r['workload']}-seed{r['env']['seed']}-trace{int(r['trace'])}.json"
    with open(os.path.join(OUT, name), "w", encoding="utf-8") as fh:
        json.dump(r, fh, indent=2)
        fh.write("\n")


def metrics_of(r: dict) -> dict:
    if r["trace"]:
        return {k: {"value": v, "unit": per_layer_units(k)} for k, v in r["per_layer"].items()}
    return {k: {"value": r["end_to_end"][k], "unit": E2E_UNITS[k]} for k in JSON_E2E}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=loadgen.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "legderiv", "__init__.py")):
        print(f"perfbench: no legderiv sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    names = loadgen.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        reports = [run_one(w, args.seed, args.seconds, bool(args.trace)) for w in names]
    except (BenchError, checking.ReferenceNotSettled, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for r in reports:
        print_report(r)
        save(r)
    if len(reports) == 1:
        metrics = metrics_of(reports[0])
    else:
        metrics = {f"{r['workload']}.{k}": v for r in reports for k, v in metrics_of(r).items()}
    result = {
        "correct": all(r["failed"] == 0 for r in reports),
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
