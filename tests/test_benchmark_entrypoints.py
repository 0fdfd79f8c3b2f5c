"""One op of every benchmark workload, through the benchmark's own worker.

perfbench/worker.py drives the library through ``cli.TableSpec(fmt=...)``
and ``cli.render_table``, ``verify.run_suite(seed=...).to_json()``,
``verify.trigamma_sum`` and ``orderderiv.p_deriv``.  Issuing one op per
workload makes a refactor that breaks any of those fail here, without
running the benchmark.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import loadgen  # noqa: E402
import worker  # noqa: E402


@pytest.mark.parametrize("name", loadgen.WORKLOADS)
def test_one_op_per_workload(name):
    work = worker.Workload(name, 1, worker.load_library(need_cli=True))
    assert work.call(work.arg(0)) is not None
