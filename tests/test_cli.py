import json
import math

import pytest

from ratiolab.cli import main
from ratiolab.farey import MAX_FAREY_ORDER


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = text.splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


class TestNormCommand:
    def test_csv_table(self, capsys):
        code, out, err = run_cli(
            capsys, ["norm", "--f", "exp", "--m", "1", "--orders", "100,200,400"]
        )
        assert code == 0
        assert err == ""
        assert out.startswith("n,raw,normalized,predicted,abs_error\n")
        rows = parse_csv(out)
        assert [row["n"] for row in rows] == ["100", "200", "400"]
        predicted = float(rows[0]["predicted"])
        assert predicted == pytest.approx(1.718282, abs=1e-5)
        errors = [float(row["abs_error"]) for row in rows]
        assert errors[0] > errors[1] > errors[2]

    def test_output_ends_with_newline(self, capsys):
        _, out, _ = run_cli(capsys, ["norm", "--orders", "4,8"])
        assert out.endswith("\n")


class TestGammaCommand:
    def test_integral_routes_agree(self, capsys):
        code, out, _ = run_cli(
            capsys, ["gamma", "--mode", "integral", "--orders", "256", "--format", "json"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["meta"]["command"] == "gamma"
        (row,) = payload["rows"]
        assert row["matrix_route"] == pytest.approx(row["closed_route"], rel=1e-8)
        assert row["rel_diff"] <= 1e-8

    def test_reflection_residuals_small(self, capsys):
        code, out, _ = run_cli(capsys, ["gamma", "--mode", "reflection"])
        assert code == 0
        for row in parse_csv(out):
            assert abs(float(row["residual"])) <= 1e-12

    @pytest.mark.parametrize("mode", ["rowproduct", "sine-odd", "sine-even", "duplication"])
    def test_other_modes_run(self, capsys, mode):
        code, out, _ = run_cli(capsys, ["gamma", "--mode", mode])
        assert code == 0
        assert len(out.splitlines()) >= 2


class TestFareyCommand:
    def test_identity_at_five(self, capsys):
        code, out, _ = run_cli(capsys, ["farey", "--x", "5", "--f", "identity"])
        assert code == 0
        (row,) = parse_csv(out)
        assert row["phi"] == "10"
        assert float(row["average"]) == pytest.approx(0.55, abs=1e-12)


class TestEigenCommand:
    def test_small_orders(self, capsys):
        code, out, _ = run_cli(capsys, ["eigen", "--orders", "2,4"])
        assert code == 0
        rows = parse_csv(out)
        assert float(rows[0]["trace"]) == pytest.approx(2 * math.e, rel=1e-10)
        for row in rows:
            assert float(row["sum_sq"]) == pytest.approx(float(row["frobenius_sq"]), rel=1e-8)


class TestHadamardCommand:
    def test_orthogonality(self, capsys):
        code, out, _ = run_cli(capsys, ["hadamard", "--k", "0,1,2,3", "--check", "orthogonality"])
        assert code == 0
        assert all(row["is_hadamard"] == "true" for row in parse_csv(out))

    def test_oscillation_verdicts(self, capsys):
        code, out, _ = run_cli(capsys, ["hadamard", "--k", "2,3", "--check", "oscillation"])
        assert code == 0
        rows = parse_csv(out)
        assert rows[0]["verdict"] == "inconclusive"
        assert float(rows[0]["lower_bound"]) == 0.5
        assert rows[1]["verdict"] == "exceeds_half"

    def test_spectral(self, capsys):
        code, out, _ = run_cli(capsys, ["hadamard", "--k", "4", "--check", "spectral"])
        assert code == 0
        (row,) = parse_csv(out)
        assert row["sum_sq"] == row["order_sq"] == "256"


class TestOutputContracts:
    def test_json_round_trip_is_byte_identical(self, capsys):
        _, out, _ = run_cli(
            capsys, ["farey", "--x", "3,5", "--f", "exp", "--format", "json"]
        )
        payload = json.loads(out)
        assert json.dumps(payload, indent=2) + "\n" == out

    def test_identical_flags_identical_bytes(self, capsys):
        argv = ["norm", "--f", "lngamma", "--orders", "8,16", "--format", "json"]
        _, first, _ = run_cli(capsys, argv)
        _, second, _ = run_cli(capsys, argv)
        assert first == second

    def test_out_flag_writes_file(self, capsys, tmp_path):
        target = tmp_path / "report.csv"
        argv = ["hadamard", "--k", "1,2", "--check", "spectral"]
        code, stdout_text, _ = run_cli(capsys, argv)
        code2, empty, _ = run_cli(capsys, argv + ["--out", str(target)])
        assert code == code2 == 0
        assert empty == ""
        assert target.read_text(encoding="utf-8") == stdout_text

    def test_csv_uses_17_significant_digits(self, capsys):
        _, out, _ = run_cli(capsys, ["eigen", "--orders", "2"])
        row = parse_csv(out)[0]
        assert row["trace"] == f"{float(row['trace']):.17g}"


class TestExitCodes:
    @pytest.mark.parametrize(
        "argv",
        [
            ["norm", "--m", "0.5"],
            ["norm", "--orders", "100,50"],
            ["norm", "--orders", "abc"],
            ["norm", "--f", "unknown"],
            ["farey", "--x", "0"],
            ["gamma", "--mode", "reflection", "--orders", "4"],
            ["gamma", "--mode", "reflection", "--points", "1.5"],
            ["gamma", "--mode", "rowproduct", "--orders", "1,2"],
            ["eigen", "--tol", "-1"],
            ["hadamard", "--k", "-1"],
            ["nonsense"],
            ["eigen", "--orders", "4,8", "--tol", "nan"],
            ["eigen", "--tol", "inf"],
            ["norm", "--m", "nan"],
            ["norm", "--m", "inf"],
            ["gamma", "--mode", "duplication", "--points", "nan"],
            ["gamma", "--mode", "duplication", "--points", "1.0,inf"],
            ["farey", "--x", "5,3"],
            ["eigen", "--orders", "8,4"],
            ["hadamard", "--k", "3,2"],
            ["gamma", "--orders", "16,2"],
            ["gamma", "--mode", "integral", "--points", "0.5"],
            ["eigen", "--orders", "0"],
            ["gamma", "--mode", "sine-odd", "--orders", "0"],
            ["hadamard", "--check", "oscillation", "--k", "0,1"],
        ],
    )
    def test_usage_errors_exit_two(self, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2

    def test_computation_error_exits_one_with_diagnostic(self, capsys):
        code, out, err = run_cli(capsys, ["eigen", "--orders", "4096"])
        assert code == 1
        assert out == ""
        assert "error" in err.lower()

    def test_farey_beyond_capacity_exits_one(self, capsys):
        code, out, err = run_cli(capsys, ["farey", "--x", str(MAX_FAREY_ORDER + 1)])
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")

    def test_unwritable_out_path_exits_one_with_diagnostic(self, capsys, tmp_path):
        target = tmp_path / "missing" / "r.csv"
        code, out, err = run_cli(capsys, ["norm", "--orders", "3", "--out", str(target)])
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")
        assert not target.exists()
