"""CLI contract: formatting, exit codes, deterministic bytes."""

import json
import math

import pytest
from click.testing import CliRunner

from legderiv import __version__
from legderiv.cli import main


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

    def test_bad_range_exits_two(self, runner):
        result = runner.invoke(
            main,
            ["table", "--orders", "1", "--z-start", "0.5", "--z-end", "-0.5",
             "--steps", "5"],
        )
        assert result.exit_code == 2

    def test_output_file(self, runner, tmp_path):
        target = tmp_path / "grid.csv"
        result = runner.invoke(
            main,
            ["table", "--orders", "0,1", "--z-start", "0", "--z-end", "1",
             "--steps", "2", "--output", str(target)],
        )
        assert result.exit_code == 0
        assert target.read_text().startswith("z,P0,P1\n")


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

    def test_tight_fd_tolerance_exits_one(self, runner):
        result = runner.invoke(main, ["verify", "--tol-fd", "1e-12"])
        assert result.exit_code == 1
        assert "tolerance-bound" in result.output

    def test_bad_flag_exits_two(self, runner):
        result = runner.invoke(main, ["verify", "--tol-fd", "not-a-number"])
        assert result.exit_code == 2
        # NaN or infinite tolerances would also make the JSON report invalid
        for flag in ("--tol-fd", "--tol-identities"):
            for value in ("nan", "inf", "-1", "0"):
                result = runner.invoke(main, ["verify", "--json", flag, value])
                assert result.exit_code == 2, (flag, value)


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
