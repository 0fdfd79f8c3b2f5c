"""One workload's timed closed loop, run in a fresh interpreter.

    python3 perfbench/worker.py --workload table --seed 1 --seconds 10 [--trace]

Prints one JSON document: the op count and loop time, the median and
tail op latency, the outputs to be checked (one per pool entry, with a
count of ops whose output differed from the first output for the same
input), the errors raised, and the process's peak resident memory.

With ``--trace`` the loop alternates untraced and traced blocks, reports
the per-layer metrics of the traced ops and the throughput of both kinds
of block, writes the kept spans to ``--trace-out``, and then runs the
fixed-case microbenchmarks.

The worker imports nothing but the standard library, legderiv (from the
checkout's ``src/``) and, for ``table``, click; references and checks run
in the parent, outside this process.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import sys
import time
from array import array

import loadgen

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BLOCK_S = 0.5  # length of one untraced or traced block in a traced run
# Latencies go into a buffer allocated before the loop, so the process's
# peak memory does not grow with the number of ops.  A run ends early if
# it fills the buffer.
MAX_SAMPLES = 1 << 22
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0)
TAIL_BEYOND = 10


def load_library(need_cli: bool) -> dict:
    """Import legderiv from the checkout's src/ and return its submodules."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "legderiv", "__init__.py")):
        raise SystemExit(f"perfbench: no legderiv sources under {src}")
    if src not in sys.path:
        sys.path.insert(0, src)
    import legderiv

    if not os.path.abspath(legderiv.__file__).startswith(src + os.sep):
        raise SystemExit(f"perfbench: imported legderiv from {legderiv.__file__}, not {src}")
    names = ["polylog", "orderderiv", "oracle", "quadrature", "verify"]
    if need_cli:
        import legderiv.cli  # noqa: F401  (imports click)

        names.append("cli")
    return {name: sys.modules[f"legderiv.{name}"] for name in names}


class Workload:
    """Op i of a workload: ``arg(i)`` builds its input, ``call`` issues it.

    Attributes are looked up on the module at call time, so a traced block
    sees the wrapped bindings.
    """

    def __init__(self, name: str, seed: int, mods: dict) -> None:
        self.pool = loadgen.pool(name, seed)
        self.seed = seed
        if name == "table":
            cli = mods["cli"]
            self.pool = [
                cli.TableSpec(orders=loadgen.TABLE_ORDERS, z_start=a, z_end=b,
                              steps=loadgen.TABLE_ROWS, fmt="csv")
                for a, b in self.pool
            ]
            self.call = lambda spec: cli.render_table(spec)
            self.warm = lambda: self.call(self.pool[0])
        elif name == "edge":
            orderderiv = mods["orderderiv"]
            self.call = lambda nz: orderderiv.p_deriv(*nz)
            self.warm = lambda: orderderiv.p_deriv(4, 0.5)
        elif name == "verify":
            verify = mods["verify"]
            self.call = lambda s: verify.run_suite(seed=s).to_json()
            self.warm = lambda: self.call(self.pool[0])
        else:
            verify = mods["verify"]
            self.call = lambda k: verify.trigamma_sum(k)
            self.warm = lambda: self.call(10**4)

    def key(self, i: int) -> int:
        return i % len(self.pool) if self.pool else i

    def arg(self, i: int):
        return self.pool[i % len(self.pool)] if self.pool else loadgen.sum_terms(self.seed, i)


class Recorder:
    """Keeps the first output per input; counts later outputs that differ."""

    def __init__(self, keep_all: bool) -> None:
        self.keep_all = keep_all  # trigamma-sum: every op has its own input
        self.outputs: dict[int, object] = {}
        self.ops: dict[int, int] = {}
        self.mismatches: dict[int, int] = {}
        self.errors: dict[int, int] = {}
        self.messages: list[str] = []

    def add(self, key: int, out) -> None:
        self.ops[key] = self.ops.get(key, 0) + 1
        if isinstance(out, Exception):
            self.errors[key] = self.errors.get(key, 0) + 1
            if len(self.messages) < 5:
                self.messages.append(f"{type(out).__name__}: {out}")
        elif key not in self.outputs:
            self.outputs[key] = out
        elif out != self.outputs[key] and not self.keep_all:
            self.mismatches[key] = self.mismatches.get(key, 0) + 1

    def to_json(self) -> dict:
        return {
            "outputs": {str(k): v for k, v in self.outputs.items()},
            "key_ops": {str(k): v for k, v in self.ops.items()},
            "mismatches": {str(k): v for k, v in self.mismatches.items()},
            "errors": {str(k): v for k, v in self.errors.items()},
            "messages": self.messages,
        }


def issue(work: Workload, arg):
    try:
        return work.call(arg)
    except Exception as exc:  # an op that raises is recorded as failed
        return exc


class Latencies:
    """Per-op latencies in ns, in a buffer of fixed size."""

    def __init__(self, capacity: int = MAX_SAMPLES) -> None:
        self.buf = array("I", [0]) * capacity
        self.count = 0

    def full(self) -> bool:
        return self.count >= len(self.buf)

    def add(self, ns: int) -> None:
        self.buf[self.count] = min(ns, 0xFFFFFFFF)
        self.count += 1

    def summary(self) -> dict:
        """Median and the highest TAIL_LADDER percentile with TAIL_BEYOND samples beyond it."""
        values = sorted(self.buf[: self.count])
        out = {"samples": len(values)}
        if not values:
            return out
        out["p50_ns"] = percentile(values, 50.0)[0]
        for p in TAIL_LADDER:
            value, beyond = percentile(values, p)
            if p == TAIL_LADDER[0] or beyond >= TAIL_BEYOND:
                out.update(tail_p=p, tail_ns=value, tail_beyond=beyond)
        return out


def percentile(sorted_values, p: float) -> tuple[int, int]:
    """Nearest-rank percentile and the number of samples ranked above it."""
    rank = max(1, math.ceil(p / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def run_block(work: Workload, rec: Recorder, first: int, deadline: float,
              latencies: Latencies | None, tracer=None, op_id=None) -> int:
    """Issue ops first, first+1, ... until the deadline; return the next op index."""
    clock = time.perf_counter_ns
    i = first
    while True:
        arg = work.arg(i)
        if tracer is not None:
            tracer.op = i
            frame = tracer.enter(op_id)
            out = issue(work, arg)
            tracer.exit(frame)
        else:
            t0 = clock()
            out = issue(work, arg)
            latencies.add(clock() - t0)
        rec.add(work.key(i), out)
        i += 1
        if time.perf_counter() >= deadline or (latencies is not None and latencies.full()):
            return i


def recheck_singletons(work: Workload, rec: Recorder) -> None:
    """Issue once more, untimed, every input that ran only once, so that
    every output is compared with a second run of the same input."""
    if rec.keep_all:
        return
    for key, count in list(rec.ops.items()):
        if count == 1 and key in rec.outputs:
            out = issue(work, work.pool[key])
            if isinstance(out, Exception) or out != rec.outputs[key]:
                rec.mismatches[key] = rec.mismatches.get(key, 0) + 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=loadgen.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--trace-out", default=None)
    args = ap.parse_args(argv)

    mods = load_library(need_cli=args.workload == "table")
    work = Workload(args.workload, args.seed, mods)
    work.warm()
    rec = Recorder(keep_all=not work.pool)
    result = {"workload": args.workload, "seed": args.seed}

    latencies = Latencies()
    if not args.trace:
        start = time.perf_counter()
        ops = run_block(work, rec, 0, start + args.seconds, latencies)
        result.update(ops=ops, loop_s=time.perf_counter() - start)
    else:
        import micro
        import tracing

        tracer = tracing.Tracer()
        op_id = tracer.name_id("op")
        spent = {False: 0.0, True: 0.0}
        done = {False: 0, True: 0}
        end = time.perf_counter() + args.seconds
        i, traced = 0, False
        while time.perf_counter() < end and not latencies.full():
            t0 = time.perf_counter()
            block_end = min(t0 + BLOCK_S, end)
            if traced:
                with tracing.traced(tracer, mods):
                    nxt = run_block(work, rec, i, block_end, None, tracer, op_id)
            else:
                nxt = run_block(work, rec, i, block_end, latencies)
            spent[traced] += time.perf_counter() - t0
            done[traced] += nxt - i
            i, traced = nxt, not traced
        if args.trace_out:
            tracer.write(args.trace_out)
        result.update(
            trace={
                "plain_ops": done[False],
                "plain_s": spent[False],
                "traced_ops": done[True],
                "traced_s": spent[True],
                "spans_total": tracer.spans,
                "spans_kept": min(tracer.spans, tracer.cap),
                "layers": tracer.layer_metrics(done[True]),
            },
            micro=micro.run(mods),
        )

    # Peak memory so far: set-up and the loop, before the post-processing below.
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["latency"] = latencies.summary()
    recheck_singletons(work, rec)
    result.update(rec.to_json())
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
