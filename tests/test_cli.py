import json
import math

import pytest

from ratiolab import eigen, farey, hadamard, matrix_core, specfun
from ratiolab.cli import main
from ratiolab.eigen import MAX_EIGEN_ORDER
from ratiolab.farey import MAX_FAREY_ORDER
from ratiolab.matrix_core import MAX_NORM_ORDER
from ratiolab.specfun import MAX_STREAM_ORDER


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

    def test_reflection_at_a_subnormal_point(self, capsys):
        argv = ["gamma", "--mode", "reflection", "--points", "1e-320,0.5"]
        code, out, err = run_cli(capsys, argv)
        assert code == 0
        assert err == ""
        assert [float(row["s"]) for row in parse_csv(out)] == [1e-320, 0.5]

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

    def test_orthogonality_at_the_dense_limit(self, capsys):
        code, out, _ = run_cli(capsys, ["hadamard", "--k", "11", "--check", "orthogonality"])
        assert code == 0
        assert out == "k,order,is_hadamard\n11,2048,true\n"

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


#: stdout of runs whose values need no libm call or SIMD-dependent rounding
#: (identity and constant integrands, integer Hadamard checks), so the bytes
#: are the same on every IEEE-754 platform.
PINNED_OUTPUTS = {
    "norm --f identity --m 1": (
        "n,raw,normalized,predicted,abs_error\n"
        "64,2080,0.5078125,0.5,0.0078125\n"
        "128,8256,0.50390625,0.5,0.00390625\n"
        "256,32896,0.501953125,0.5,0.001953125\n"
    ),
    "norm --f identity --m 2": (
        "n,raw,normalized,predicted,abs_error\n"
        "64,1388.2479636345686,0.33892772549672084,0.33333333333333331,0.0055943921633875293\n"
        "128,5505.8110490308627,0.33604803766057512,0.33333333333333331,0.0027147043272418014\n"
        "256,21932.708114987607,0.33466656669597789,0.33333333333333331,0.0013332333626445703\n"
    ),
    "norm --f const1 --m 1": (
        "n,raw,normalized,predicted,abs_error\n"
        "64,4096,1,1,0\n128,16384,1,1,0\n256,65536,1,1,0\n"
    ),
    "norm --f const1 --m 2": (
        "n,raw,normalized,predicted,abs_error\n"
        "64,4096,1,1,0\n128,16384,1,1,0\n256,65536,1,1,0\n"
    ),
    # multi-block sums: these orders stream 2 to 16 blocks of SUM_BLOCK values
    "norm --f lngamma --m 2 --orders 300,514": (
        "n,raw,normalized,predicted,abs_error\n"
        "300,155177.18591762363,1.7241909546402625,1.8663170837935656,0.14212612915330314\n"
        "514,467400.58772625338,1.7691433168036359,1.8663170837935656,0.097173766989929744\n"
    ),
    "norm --f exp --m 3 --orders 1020": (
        "n,raw,normalized,predicted,abs_error\n"
        "1020,6624403.4491400337,6.3671697896386332,6.3618456410625557,0.0053241485760775475\n"
    ),
    "gamma --mode integral --orders 129,514": (
        "n,matrix_route,closed_route,abs_diff,rel_diff,limit\n"
        "129,0.88169267287927278,0.88169267287927267,1.1102230246251565e-16,"
        "1.2591950220019304e-16,0.91893853320467267\n"
        "514,0.90693654461739603,0.90693654461739581,2.2204460492503131e-16,"
        "2.4482926202814335e-16,0.91893853320467267\n"
    ),
    "farey --f identity --x 5,50,500": (
        "x,phi,average,predicted,abs_error,coprime_density\n"
        "5,10,0.55000000000000004,0.5,0.050000000000000044,0.76000000000000001\n"
        "50,774,0.50064599483204131,0.5,0.00064599483204130781,0.61880000000000002\n"
        "500,76116,0.50000656892112039,0.5,6.5689211203867615e-06,0.60892400000000002\n"
    ),
    # order 1: LAPACK returns the one entry of a 1 x 1 matrix as its eigenvalue
    "eigen --f identity --orders 1 --format json": (
        '{\n  "meta": {\n    "command": "eigen",\n    "integrand": "identity",\n'
        '    "orders": [\n      1\n    ]\n  },\n'
        '  "rows": [\n    {\n      "n": 1,\n      "trace": 1.0,\n      "trace_expected": 1.0,\n'
        '      "sum_sq": 1.0,\n      "frobenius_sq": 1.0,\n      "normalized_sum_sq": 1.0\n'
        "    }\n  ]\n}\n"
    ),
    "hadamard --check orthogonality --k 0,1,2,3,4": (
        "k,order,is_hadamard\n0,1,true\n1,2,true\n2,4,true\n3,8,true\n4,16,true\n"
    ),
    "hadamard --check oscillation --k 1,2,3,4,5": (
        "k,order,mismatch_count,lower_bound,verdict\n"
        "1,2,0,0,inconclusive\n2,4,1,0.5,inconclusive\n3,8,3,0.75,exceeds_half\n"
        "4,16,7,0.875,exceeds_half\n5,32,15,0.9375,exceeds_half\n"
    ),
    "hadamard --check spectral --k 0,1,2,3,4": (
        "k,order,sum_sq,order_sq\n0,1,1,1\n1,2,4,4\n2,4,16,16\n3,8,64,64\n4,16,256,256\n"
    ),
}


class TestPinnedOutputs:
    @pytest.mark.parametrize("command", sorted(PINNED_OUTPUTS))
    def test_bytes_match_pin(self, capsys, command):
        code, out, err = run_cli(capsys, command.split())
        assert code == 0
        assert err == ""
        assert out == PINNED_OUTPUTS[command]


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
            ["eigen", "--orders", "4,4"],
            ["hadamard", "--k", "-1"],
            ["nonsense"],
            ["eigen", "--orders", "2.5"],
            ["eigen", "--f", "unknown"],
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
            ["norm", "--orders", "4", "--timestamp"],
            ["eigen", "--tol", "1e-12"],
        ],
    )
    def test_usage_errors_exit_two(self, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2

    @staticmethod
    def exit_one(capsys, argv):
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (1, "")
        assert err.startswith("error: ")
        return err

    def test_computation_error_exits_one_with_diagnostic(self, capsys):
        assert "error" in self.exit_one(capsys, ["eigen", "--orders", "4096"]).lower()

    def test_eigen_beyond_jacobi_limit_exits_one(self, capsys):
        err = self.exit_one(capsys, ["eigen", "--orders", str(MAX_EIGEN_ORDER + 1)])
        assert err == f"error: order {MAX_EIGEN_ORDER + 1} exceeds eigen limit {MAX_EIGEN_ORDER}\n"

    def test_farey_beyond_capacity_exits_one(self, capsys):
        self.exit_one(capsys, ["farey", "--x", str(MAX_FAREY_ORDER + 1)])

    @pytest.mark.parametrize(
        "argv",
        [
            ["norm", "--orders", f"4,{MAX_NORM_ORDER + 1}"],
            ["gamma", "--mode", "integral", "--orders", str(MAX_NORM_ORDER + 1)],
        ],
        ids=["norm", "gamma-integral"],
    )
    def test_beyond_norm_budget_exits_one(self, capsys, argv):
        assert f"exceeds budget {MAX_NORM_ORDER}" in self.exit_one(capsys, argv)

    @pytest.mark.parametrize("mode", ["rowproduct", "sine-odd", "sine-even"])
    def test_beyond_gamma_budget_exits_one(self, capsys, mode):
        argv = ["gamma", "--mode", mode, "--orders", str(MAX_STREAM_ORDER + 1)]
        assert f"exceeds budget {MAX_STREAM_ORDER}" in self.exit_one(capsys, argv)

    # k = 15000 is asserted with its exact line in TestBudgetsCheckedFirst
    @pytest.mark.parametrize("k", ["12"])
    def test_hadamard_beyond_dense_limit_exits_one(self, capsys, k):
        assert "dense limit" in self.exit_one(capsys, ["hadamard", "--k", k])

    def test_duplication_overflow_exits_one(self, capsys):
        # ln Gamma(2z) overflows; a RuntimeWarning would fail the suite
        code, out, err = run_cli(capsys, ["gamma", "--mode", "duplication", "--points", "1e306"])
        assert code == 1
        assert out == ""
        assert err == "error: duplication residual is not finite at z = 1e+306\n"

    def test_quadrature_beyond_panel_budget_exits_one(self, capsys, monkeypatch):
        monkeypatch.setattr(matrix_core, "QUADRATURE_PANEL_BUDGET", 8)
        code, out, err = run_cli(capsys, ["norm", "--f", "lngamma", "--orders", "4"])
        assert code == 1
        assert out == ""
        assert err == "error: quadrature for 'lngamma'^(1.0) exceeded 8 panels\n"

    def test_overflowing_quadrature_exits_one_without_warning(self, capsys):
        # e^709 is finite, but the Simpson sums of its 709th power overflow
        err = self.exit_one(capsys, ["norm", "--f", "exp", "--m", "709", "--orders", "4"])
        assert err == "error: quadrature for 'exp'^(709.0) exceeded 1048576 panels\n"

    def test_unwritable_out_path_exits_one_with_diagnostic(self, capsys, tmp_path):
        target = tmp_path / "missing" / "r.csv"
        code, out, err = run_cli(capsys, ["norm", "--orders", "3", "--out", str(target)])
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")
        assert not target.exists()


def _refuse(*args, **kwargs):
    pytest.fail("a swept value's work ran before the last value's budget was checked")


class TestBudgetsCheckedFirst:
    """A sweep whose last value is over budget fails before any value's work:
    the patched function does the work of every value within budget."""

    @pytest.mark.parametrize(
        "argv,module,name,error",
        [
            (
                ["norm", "--f", "lngamma", "--orders", f"8000,{MAX_NORM_ORDER + 1}"],
                matrix_core,
                "sample_row",
                f"norm order {MAX_NORM_ORDER + 1} exceeds budget {MAX_NORM_ORDER}",
            ),
            (
                ["gamma", "--mode", "integral", "--orders", f"2,{MAX_NORM_ORDER + 1}"],
                matrix_core,
                "sample_row",
                f"norm order {MAX_NORM_ORDER + 1} exceeds budget {MAX_NORM_ORDER}",
            ),
            (
                ["gamma", "--mode", "rowproduct", "--orders", f"2,{MAX_STREAM_ORDER + 1}"],
                specfun,
                "_grid",
                f"row product order {MAX_STREAM_ORDER + 1} exceeds budget {MAX_STREAM_ORDER}",
            ),
            (
                ["gamma", "--mode", "sine-odd", "--orders", f"2,{MAX_STREAM_ORDER // 2}"],
                specfun,
                "_grid",
                f"sine product order {MAX_STREAM_ORDER + 1} exceeds budget {MAX_STREAM_ORDER}",
            ),
            (
                ["gamma", "--mode", "sine-even", "--orders", f"2,{MAX_STREAM_ORDER // 2 + 1}"],
                specfun,
                "_grid",
                f"sine product order {MAX_STREAM_ORDER + 2} exceeds budget {MAX_STREAM_ORDER}",
            ),
            (
                ["farey", "--x", f"{MAX_FAREY_ORDER - 1},{MAX_FAREY_ORDER + 1}"],
                farey,
                "_coprime_rows",
                f"Farey order {MAX_FAREY_ORDER + 1} exceeds materialization budget "
                f"{MAX_FAREY_ORDER}",
            ),
            (
                ["eigen", "--orders", f"{MAX_EIGEN_ORDER // 2},{MAX_EIGEN_ORDER + 1}"],
                eigen,
                "sample_row",
                f"order {MAX_EIGEN_ORDER + 1} exceeds eigen limit {MAX_EIGEN_ORDER}",
            ),
            (
                ["hadamard", "--k", "10,12"],
                hadamard,
                "SignMatrix",
                "order 2^12 exceeds dense limit 2048",
            ),
            (
                ["hadamard", "--k", "10,15000"],
                hadamard,
                "SignMatrix",
                "order 2^15000 exceeds dense limit 2048",
            ),
        ],
        ids=["norm", "gamma-integral", "rowproduct", "sine-odd", "sine-even", "farey", "eigen",
             "hadamard", "hadamard-15000"],
    )
    def test_last_value_fails_before_any_work(self, capsys, monkeypatch, argv, module, name, error):
        monkeypatch.setattr(module, name, _refuse)
        code, out, err = run_cli(capsys, argv)
        assert code == 1
        assert out == ""
        assert err == f"error: {error}\n"

    def test_points_keep_their_order(self, capsys):
        # the duplication points have no budget: the first failing point is
        # the one named
        argv = ["gamma", "--mode", "duplication", "--points", "1e306,1e307"]
        code, _, err = run_cli(capsys, argv)
        assert code == 1
        assert err == "error: duplication residual is not finite at z = 1e+306\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["farey", "--x", "2,3,5"],
            ["eigen", "--orders", "1,2,3"],
            ["norm", "--orders", "1,2,3"],
            ["gamma", "--mode", "rowproduct", "--orders", "2,3,4"],
            ["hadamard", "--k", "0,1,2"],
        ],
        ids=["farey", "eigen", "norm", "rowproduct", "hadamard"],
    )
    def test_rows_come_in_the_order_given(self, capsys, argv):
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        first = [row[next(iter(row))] for row in parse_csv(out)]
        assert first == argv[-1].split(",")
