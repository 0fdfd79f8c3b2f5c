"""Set-up probe: a fresh interpreter that prepares one workload and exits.

    python3 perfbench/probe.py --workload table --seed 1

Prints the ``time.perf_counter()`` readings (CLOCK_MONOTONIC, shared by
all processes on the machine) taken as the script starts, after
``import legderiv``, around ``import click`` and once the workload can
issue its first op: its imports are done, its inputs built and one
warm-up call made.  The parent subtracts its own reading taken just
before it spawned this process.  Workloads other than ``table`` do not
need click; for them its import is timed after the ready mark.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

import loadgen  # noqa: E402
import worker  # noqa: E402


def _timed_click_import() -> float:
    t0 = time.perf_counter()
    import click  # noqa: F401

    return time.perf_counter() - t0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=loadgen.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args()

    t0 = time.perf_counter()
    mods = worker.load_library(need_cli=False)
    legderiv_import_s = time.perf_counter() - t0
    click_import_s = None
    if args.workload == "table":
        click_import_s = _timed_click_import()
        mods = worker.load_library(need_cli=True)
    worker.Workload(args.workload, args.seed, mods).warm()
    ready = time.perf_counter()
    if click_import_s is None:
        click_import_s = _timed_click_import()
    json.dump({"start": START, "ready": ready, "legderiv_import_s": legderiv_import_s,
               "click_import_s": click_import_s}, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
