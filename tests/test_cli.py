"""CLI contract: formatting, exit codes, deterministic bytes."""

import hashlib
import json
import math

import numpy as np
import pytest
from click.testing import CliRunner

from legderiv import DomainError, __version__, p_deriv, verify
from legderiv.cli import TableSpec, main, render_table


@pytest.fixture()
def runner():
    return CliRunner()


def test_version(runner):
    result = runner.invoke(main, ["--version"])
    assert result.exit_code == 0
    assert result.output == f"legderiv, version {__version__}\n"


class TestEval:
    def test_minus_log_two(self, runner):
        result = runner.invoke(main, ["eval", "--n", "1", "--z", "0"])
        assert result.exit_code == 0
        assert result.output.strip() == "-0.693147180559945"

    def test_order_zero(self, runner):
        result = runner.invoke(main, ["eval", "--n", "0", "--z", "-0.3"])
        assert result.exit_code == 0
        assert result.output.strip() == "1"

    def test_domain_violation_exits_two(self, runner):
        result = runner.invoke(main, ["eval", "--n", "2", "--z", "-1"])
        assert result.exit_code == 2
        assert "error" in result.stderr

    def test_bad_order_exits_two(self, runner):
        result = runner.invoke(main, ["eval", "--n", "7", "--z", "0"])
        assert result.exit_code == 2
        result = runner.invoke(main, ["table", "--orders", "5", "--z-start", "0", "--z-end", "1"])
        assert result.exit_code == 2
        # A spec built in Python takes orders as polylog.as_order does: bool
        # and float are domain errors, and an integer-like order is a plain int.
        for order in (True, 1.0, 5, -1):
            with pytest.raises(DomainError):
                TableSpec(orders=(order,), z_start=0.0, z_end=1.0, steps=2, fmt="csv")
        spec = TableSpec(orders=(np.int64(2),), z_start=0.0, z_end=1.0, steps=2, fmt="csv")
        assert type(spec.orders[0]) is int
        assert render_table(spec).splitlines()[0] == "z,P2"

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_repeated_orders_are_a_domain_error(self, runner, fmt):
        # The CSV header would repeat the column while JSON collapsed the key.
        with pytest.raises(DomainError):
            TableSpec(orders=(3, 1, 3), z_start=0.0, z_end=1.0, steps=2, fmt=fmt)
        result = runner.invoke(main, ["table", "--orders", "3,1,3", "--z-start", "0",
                                      "--z-end", "1", "--steps", "2", "--format", fmt])
        assert result.exit_code == 0
        if fmt == "csv":
            assert result.output.splitlines()[0] == "z,P1,P3"
        else:
            assert list(json.loads(result.output)[0]) == ["z", "P1", "P3"]

    def test_spec_argument_types(self):
        # steps goes through polylog.as_order; z_start and z_end are stored as
        # floats, and bool is no number (z_end=True rendered a row "True,...").
        for steps in (2.5, True, 1, 10**6 + 1):
            with pytest.raises(DomainError):
                TableSpec(orders=(1,), z_start=0.0, z_end=1.0, steps=steps, fmt="csv")
        for z_start, z_end in ((0, True), (False, 1.0), ("0", 1.0), (0.0, None)):
            with pytest.raises(DomainError):
                TableSpec(orders=(1,), z_start=z_start, z_end=z_end, steps=2, fmt="csv")
        spec = TableSpec(orders=(1,), z_start=0, z_end=np.float64(1.0), steps=np.int64(2),
                         fmt="csv")
        assert (type(spec.z_start), type(spec.z_end), type(spec.steps)) == (float, float, int)
        assert [row.split(",")[0] for row in render_table(spec).splitlines()] == ["z", "0.0", "1.0"]


class TestTable:
    def test_two_point_grid(self, runner):
        result = runner.invoke(
            main,
            ["table", "--orders", "1", "--z-start", "0", "--z-end", "1", "--steps", "2"],
        )
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert lines[0] == "z,P1"
        assert lines[1] == f"{0.0!r},{-math.log(2.0)!r}"
        assert lines[2] == f"{1.0!r},{0.0!r}"

    def test_deterministic_bytes(self, runner):
        args = ["table", "--orders", "all", "--z-start", "-0.9", "--z-end", "1",
                "--steps", "37", "--format", "json"]
        first = runner.invoke(main, args)
        second = runner.invoke(main, args)
        assert first.exit_code == 0
        assert first.output == second.output

    def test_endpoint_row_normalization(self, runner):
        result = runner.invoke(
            main,
            ["table", "--orders", "all", "--z-start", "0", "--z-end", "1",
             "--steps", "3", "--format", "json"],
        )
        rows = json.loads(result.output)
        last = rows[-1]
        assert last["z"] == 1.0
        assert last["P0"] == 1.0
        assert last["P1"] == 0.0 and last["P2"] == 0.0
        assert last["P3"] == 0.0 and last["P4"] == 0.0

    def test_csv_header_subset(self, runner):
        result = runner.invoke(
            main,
            ["table", "--orders", "4,0", "--z-start", "-0.5", "--z-end", "0.5",
             "--steps", "2"],
        )
        assert result.output.splitlines()[0] == "z,P0,P4"

    def test_endpoints_exact_despite_float_stepping(self, runner):
        # -0.9 + 1.9 != 1.0 in binary; the grid must still end exactly at z_end
        result = runner.invoke(
            main,
            ["table", "--orders", "0", "--z-start", "-0.9", "--z-end", "1",
             "--steps", "7", "--format", "json"],
        )
        rows = json.loads(result.output)
        assert rows[0]["z"] == -0.9
        assert rows[-1]["z"] == 1.0

    def test_empty_orders_and_unknown_format_are_domain_errors(self):
        with pytest.raises(DomainError):
            TableSpec(orders=(), z_start=0.0, z_end=1.0, steps=2, fmt="csv")
        with pytest.raises(DomainError):
            TableSpec(orders=(1,), z_start=0.0, z_end=1.0, steps=2, fmt="xml")

    def test_unparsable_orders_exit_two(self, runner):
        result = runner.invoke(
            main, ["table", "--orders", "abc", "--z-start", "0", "--z-end", "1", "--steps", "2"]
        )
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1

    def test_bad_range_exits_two(self, runner):
        result = runner.invoke(
            main,
            ["table", "--orders", "1", "--z-start", "0.5", "--z-end", "-0.5",
             "--steps", "5"],
        )
        assert result.exit_code == 2

    @pytest.mark.parametrize("orders", ["all", "2,4", "1,3", "3"])
    def test_cells_are_p_deriv(self, runner, orders):
        # every row comes from one p_derivs pass, whichever orders it keeps;
        # each cell is repr(p_deriv(n, z))
        result = runner.invoke(
            main,
            ["table", "--orders", orders, "--z-start", "-0.95", "--z-end", "1",
             "--steps", "40"],
        )
        assert result.exit_code == 0
        header, *lines = result.output.splitlines()
        names = header.split(",")[1:]
        assert len(lines) == 40
        for line in lines:
            z_text, *cells = line.split(",")
            z = float(z_text)
            assert cells == [repr(p_deriv(int(name[1:]), z)) for name in names], z

    def test_ci_spec_bytes_are_pinned(self, runner):
        """sha256 of the CI workflow's table spec, recorded with CPython 3.11.7 on
        glibc 2.36 (x86-64); another libm may round math.log in the last bit."""
        result = runner.invoke(
            main, ["table", "--z-start", "-0.99", "--z-end", "1", "--steps", "2001"]
        )
        assert result.exit_code == 0
        digest = hashlib.sha256(result.stdout.encode()).hexdigest()
        assert digest == "e9121fff67b07e3a7d0727863ec207ee8df8a4368195ba77d81d910766f4cc31"

    def test_output_file(self, runner, tmp_path):
        target = tmp_path / "grid.csv"
        result = runner.invoke(
            main,
            ["table", "--orders", "0,1", "--z-start", "0", "--z-end", "1",
             "--steps", "2", "--output", str(target)],
        )
        assert result.exit_code == 0
        assert target.read_text().startswith("z,P0,P1\n")

    def test_unwritable_output_exits_two(self, runner, tmp_path):
        target = tmp_path / "missing" / "grid.csv"
        result = runner.invoke(
            main,
            ["table", "--orders", "0", "--z-start", "0", "--z-end", "1",
             "--steps", "2", "--output", str(target)],
        )
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1
        assert not target.parent.exists()


class TestVerify:
    def test_default_passes(self, runner):
        result = runner.invoke(main, ["verify"])
        assert result.exit_code == 0, result.output
        assert "all required checks passed" in result.output

    def test_json_deterministic(self, runner):
        first = runner.invoke(main, ["verify", "--json"])
        second = runner.invoke(main, ["verify", "--json"])
        assert first.exit_code == 0
        assert first.output == second.output
        doc = json.loads(first.output)
        assert doc["all_passed"] is True

    def test_closed_form_defect_exits_one(self, runner, monkeypatch):
        # the gates are fixed: a 1e-9 relative slip in P4 fails the table comparison
        closed_forms = verify._closed_forms

        def slipped(z):
            p1, p2, p3, p4 = closed_forms(z)
            return p1, p2, p3, p4 * (1.0 + 1e-9)

        monkeypatch.setattr(verify, "_closed_forms", slipped)
        result = runner.invoke(main, ["verify"])
        assert result.exit_code == 1
        rows = [line.split() for line in result.output.splitlines()]
        assert ["FAIL", "nu-tables-vs-closed-form"] in [row[:2] for row in rows]

    def test_bad_flag_exits_two(self, runner):
        # there is no tolerance flag to loosen a gate with, and the trigamma rows
        # walk K = 1000, which no flag sets
        for flag in (["--tol-fd", "1e-12"], ["--sum-terms", "1000"]):
            result = runner.invoke(main, ["verify", *flag])
            assert result.exit_code == 2, flag
            assert "No such option" in result.stderr, flag


class TestSumTrigamma:
    def test_accelerated(self, runner):
        result = runner.invoke(main, ["sum-trigamma", "10000"])
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert lines[0].startswith("sum 1.8940656589944")
        reference = float(lines[1].split()[1])
        assert reference == pytest.approx(7.0 * math.pi**4 / 360.0, rel=1e-15)
        assert f"{reference:.10g}" == "1.894065659"
        deviation = float(lines[2].split()[1])
        assert deviation <= 1e-9

    def test_ci_text_is_pinned(self, runner):
        # the CI workflow's sum-trigamma step prints exactly this
        result = runner.invoke(main, ["sum-trigamma", "10000"])
        assert result.exit_code == 0
        assert result.stdout == (
            "sum 1.89406565899449\nreference 1.89406565899449\ndeviation 2.220446e-16\n"
        )

    def test_naive_small_k(self, runner):
        result = runner.invoke(main, ["sum-trigamma", "10", "--no-accelerate"])
        assert result.exit_code == 0
        deviation = float(result.output.splitlines()[2].split()[1])
        assert deviation > 1e-2

    def test_bad_k_exits_two(self, runner):
        result = runner.invoke(main, ["sum-trigamma", "0"])
        assert result.exit_code == 2
        result = runner.invoke(main, ["sum-trigamma", "200000000"])
        assert result.exit_code == 2
