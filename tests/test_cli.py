import json
import math

import pytest

from ratiolab import eigen, farey, hadamard, matrix_core, specfun
from ratiolab.cli import _render_csv, build_parser, main
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


#: The one list of CLI commands whose stdout bytes are pinned.  Their values
#: are exactly rounded sums, integer Hadamard checks and the reflection
#: residuals, so single samples that move by an ulp with numpy's SIMD kernels
#: leave the bytes alone; CI reruns these pins with the SIMD targets off.
#: Each command other than the JSON one is also run with --format json,
#: whose rows must render to the same CSV.
PINNED_OUTPUTS = {
    "norm --orders 4,8": (
        "n,raw,normalized,predicted,abs_error\n"
        "4,30.956756195519056,1.934797262219941,1.718281828459046,0.21651543376089499\n"
        "8,116.48904293945785,1.8201412959290288,1.718281828459046,0.10185946746998287\n"
    ),
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
    # the deepest left-edge quadrature a preset reaches that passes the edge
    # check (exp at m >= 5 stays out: its sums of exp(x)^m follow the numpy
    # kernels, see README)
    "norm --f lngamma --m 4 --orders 64": (
        "n,raw,normalized,predicted,abs_error\n"
        "64,39469.032213422419,9.6359941927300827,23.389514465513969,13.753520272783886\n"
    ),
    "norm --f exp --m 3 --orders 1020": (
        "n,raw,normalized,predicted,abs_error\n"
        "1020,6624403.4491400337,6.3671697896386332,6.3618456410625557,0.0053241485760775475\n"
    ),
    "gamma --mode integral --orders 2,16,129,300,514": (
        "n,matrix_route,closed_route,abs_diff,rel_diff,limit\n"
        "2,0.28618247146235021,0.28618247146234999,2.2204460492503131e-16,"
        "7.7588471365984191e-16,0.91893853320467267\n"
        "16,0.7416929213400032,0.74169292134000298,2.2204460492503131e-16,"
        "2.9937538641176109e-16,0.91893853320467267\n"
        "129,0.88169267287927278,0.88169267287927267,1.1102230246251565e-16,"
        "1.2591950220019304e-16,0.91893853320467267\n"
        "300,0.90015422865015648,0.90015422865015637,1.1102230246251565e-16,"
        "1.2333697818539529e-16,0.91893853320467267\n"
        "514,0.90693654461739603,0.90693654461739581,2.2204460492503131e-16,"
        "2.4482926202814335e-16,0.91893853320467267\n"
    ),
    # rowproduct and sine-even at 40000 stream two slices of specfun's grid
    "gamma --mode rowproduct --orders 2,40000": (
        "k,log_product,closed_form,abs_diff\n"
        "2,0.57236494292469953,0.57236494292469997,4.4408920985006262e-16\n"
        "40000,36751.324072287163,36751.324072287156,7.2759576141834259e-12\n"
    ),
    "gamma --mode sine-even --orders 2,40000": (
        "n,order,residual\n2,4,8.8817841970012523e-16\n40000,80000,5.8014120440930128e-07\n"
    ),
    # ln Gamma series values plus libm's log of t less its log of pi t / sin(pi t)
    "gamma --mode reflection": (
        "s,residual\n"
        "0.050000000000000003,-9.6277152916712794e-17\n"
        "0.10000000000000001,8.1878948066105295e-16\n"
        "0.14999999999999999,6.3143934525555778e-16\n"
        "0.20000000000000001,6.2450045135165055e-16\n"
        "0.25,5.5511151231257827e-16\n"
        "0.29999999999999999,6.3837823915946501e-16\n"
        "0.34999999999999998,9.9920072216264089e-16\n"
        "0.40000000000000002,2.1094237467877974e-15\n"
        "0.45000000000000001,1.1657341758564144e-15\n"
        "0.5,-1.0547118733938987e-15\n"
        "0.55000000000000004,1.0547118733938987e-15\n"
        "0.59999999999999998,2.1094237467877974e-15\n"
        "0.65000000000000002,9.9920072216264089e-16\n"
        "0.69999999999999996,4.4408920985006262e-16\n"
        "0.75,5.5511151231257827e-16\n"
        "0.80000000000000004,6.2450045135165055e-16\n"
        "0.84999999999999998,6.3143934525555778e-16\n"
        "0.90000000000000002,8.1878948066105295e-16\n"
        "0.94999999999999996,1.2490009027033011e-16\n"
    ),
    # 1, 2 and 3 take the edge shapes of farey_sequence's mirror about 1/2 (no
    # 1/2, an empty lower half, the first nonempty one); at 4095, 4096 and
    # 5000 it reaches its budget, where the key width w steps from 12 to 13 bits
    "farey --f identity --x 1,2,3,5,50,500,4095,4096,5000": (
        "x,phi,average,predicted,abs_error,coprime_density\n"
        "1,1,1,0.5,0.5,1\n"
        "2,2,0.75,0.5,0.25,0.75\n"
        "3,4,0.625,0.5,0.125,0.77777777777777779\n"
        "5,10,0.55000000000000004,0.5,0.050000000000000044,0.76000000000000001\n"
        "50,774,0.50064599483204131,0.5,0.00064599483204130781,0.61880000000000002\n"
        "500,76116,0.50000656892112039,0.5,6.5689211203867615e-06,0.60892400000000002\n"
        "4095,5097972,0.50000009807821622,0.5,9.8078216215213843e-08,0.60802241036673266\n"
        "4096,5100020,0.50000009803883128,0.5,9.803883127545987e-08,0.60796970129013062\n"
        "5000,7600458,0.50000006578550926,0.5,6.5785509262283881e-08,0.60803660000000004\n"
    ),
    "farey --f lngamma --x 50": (
        "x,phi,average,predicted,abs_error,coprime_density\n"
        "50,774,0.88578397386434482,0.918938533204681,0.033154559340336176,0.61880000000000002\n"
    ),
    # farey at 2000 sorts 34-bit keys and averages over many batches
    "farey --f exp --x 2000": (
        "x,phi,average,predicted,abs_error,coprime_density\n"
        "2000,1216588,1.7182816317117746,1.718281828459046,1.9674727136376191e-07,"
        "0.60829374999999997\n"
    ),
    # order 1: LAPACK returns the one entry of a 1 x 1 matrix as its eigenvalue
    "eigen --f identity --orders 1 --format json": (
        '{\n  "meta": {\n    "command": "eigen",\n    "integrand": "identity",\n'
        '    "orders": [\n      1\n    ]\n  },\n'
        '  "rows": [\n    {\n      "n": 1,\n      "trace": 1.0,\n      "trace_expected": 1.0,\n'
        '      "sum_sq": 1.0,\n      "frobenius_sq": 1.0,\n      "normalized_sum_sq": 1.0\n'
        "    }\n  ]\n}\n"
    ),
    # k = 10 and 11 double the Sylvester matrix in place up to DENSE_LIMIT
    "hadamard --check orthogonality --k 0,1,2,3,4,11": (
        "k,order,is_hadamard\n0,1,true\n1,2,true\n2,4,true\n3,8,true\n4,16,true\n"
        "11,2048,true\n"
    ),
    "hadamard --check oscillation --k 1,2,3,4,5,10,11": (
        "k,order,mismatch_count,lower_bound,verdict\n"
        "1,2,0,0,inconclusive\n2,4,1,0.5,inconclusive\n3,8,3,0.75,exceeds_half\n"
        "4,16,7,0.875,exceeds_half\n5,32,15,0.9375,exceeds_half\n"
        "10,1024,511,0.998046875,exceeds_half\n11,2048,1023,0.9990234375,exceeds_half\n"
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

    @pytest.mark.parametrize("command", sorted(c for c in PINNED_OUTPUTS if "--format" not in c))
    def test_json_rows_match_pin(self, capsys, command):
        code, out, err = run_cli(capsys, command.split() + ["--format", "json"])
        assert (code, err) == (0, "")
        assert _render_csv(json.loads(out)["rows"]) == PINNED_OUTPUTS[command]

    def test_one_parser_per_process_keeps_no_state(self, capsys):
        # a usage error and a computation error first leave the pinned bytes,
        # the default --orders included, as they are
        assert build_parser() is build_parser()
        with pytest.raises(SystemExit) as excinfo:
            main(["norm", "--f", "exp", "--m", "3", "--orders", "8,4"])
        assert excinfo.value.code == 2
        capsys.readouterr()
        assert run_cli(capsys, ["hadamard", "--k", "12"])[0] == 1
        command = "norm --f identity --m 1"
        assert run_cli(capsys, command.split()) == (0, PINNED_OUTPUTS[command], "")


#: stderr fragment that names the rule each usage error breaks; the order of
#: list values is checked, for every list option, by test_lists_must_strictly_increase
USAGE_ERRORS = {
    "norm --m 0.5": "argument --m: must be finite and >= 1, got 0.5",
    "norm --m nan": "argument --m: must be finite and >= 1, got nan",
    "norm --m inf": "argument --m: must be finite and >= 1, got inf",
    "norm --orders abc": "argument --orders: not a valid int: 'abc'",
    "eigen --orders 2.5": "argument --orders: not a valid int: '2.5'",
    "eigen --orders 0": "argument --orders: must be >= 1, got 0",
    "farey --x 0": "argument --x: must be >= 1, got 0",
    "gamma --mode sine-odd --orders 0": "argument --orders: must be >= 1, got 0",
    "gamma --mode rowproduct --orders 1,2": "argument --orders: must be >= 2, got 1",
    "hadamard --k -1": "argument --k: must be >= 0, got -1",
    "hadamard --check oscillation --k 0,1": "argument --k: must be >= 1, got 0",
    "gamma --mode reflection --points 1.5": "argument --points: must be in (0, 1), got 1.5",
    "gamma --mode duplication --points nan": "argument --points: must be finite and > 0, got nan",
    "gamma --mode duplication --points 1.0,inf": (
        "argument --points: must be finite and > 0, got inf"
    ),
    "gamma --mode reflection --orders 4": "argument --orders: does not apply to --mode reflection",
    "gamma --mode integral --points 0.5": "argument --points: does not apply to --mode integral",
    "norm --f unknown": "argument --f: invalid choice: 'unknown'",
    "eigen --f unknown": "argument --f: invalid choice: 'unknown'",
    "nonsense": "invalid choice: 'nonsense'",
    "norm --orders 4 --timestamp": "unrecognized arguments: --timestamp",
    "eigen --tol 1e-12": "unrecognized arguments: --tol 1e-12",
}


class TestExitCodes:
    @pytest.mark.parametrize("command", list(USAGE_ERRORS))
    def test_usage_errors_exit_two(self, capsys, command):
        with pytest.raises(SystemExit) as excinfo:
            main(command.split())
        assert excinfo.value.code == 2
        assert USAGE_ERRORS[command] in capsys.readouterr().err

    @pytest.mark.parametrize("picks", [(0, 0), (1, 0)], ids=["repeated", "decreasing"])
    @pytest.mark.parametrize(
        "argv,values",
        [
            (["norm", "--orders"], ("4", "8")),
            (["eigen", "--orders"], ("4", "8")),
            (["farey", "--x"], ("4", "8")),
            (["hadamard", "--k"], ("2", "3")),
            (["gamma", "--orders"], ("4", "8")),
            (["gamma", "--mode", "reflection", "--points"], ("0.25", "0.5")),
            (["gamma", "--mode", "duplication", "--points"], ("0.5", "1.0")),
        ],
        ids=["norm", "eigen", "farey", "hadamard", "gamma", "reflection", "duplication"],
    )
    def test_lists_must_strictly_increase(self, capsys, argv, values, picks):
        with pytest.raises(SystemExit) as excinfo:
            main(argv + [",".join(values[i] for i in picks)])
        assert excinfo.value.code == 2
        assert f"argument {argv[-1]}: must be strictly increasing" in capsys.readouterr().err

    @staticmethod
    def exit_one(capsys, argv):
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (1, "")
        assert err.startswith("error: ")
        return err

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
        assert err == "error: quadrature for 'exp'^(709.0) exceeded 524288 panels\n"

    def test_mass_below_the_quadrature_edge_exits_one(self, capsys):
        err = self.exit_one(capsys, ["norm", "--f", "lngamma", "--m", "5", "--orders", "4"])
        assert err == (
            "error: quadrature for 'lngamma'^(5.0) cannot bound the mass below the "
            f"left edge x = {matrix_core.OPEN_LEFT_EDGE}\n"
        )

    def test_exp_at_twenty_integrates(self, capsys):
        code, out, err = run_cli(capsys, ["norm", "--f", "exp", "--m", "20", "--orders", "4"])
        assert (code, err) == (0, "")
        assert parse_csv(out)[0]["predicted"] == "24258259.720489509"

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
                ["eigen", "--orders", "4096"],
                eigen,
                "sample_row",
                f"order 4096 exceeds eigen limit {MAX_EIGEN_ORDER}",
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
             "eigen-4096", "hadamard", "hadamard-15000"],
    )
    def test_last_value_fails_before_any_work(self, capsys, monkeypatch, argv, module, name, error):
        monkeypatch.setattr(module, name, _refuse)
        code, out, err = run_cli(capsys, argv)
        assert code == 1
        assert out == ""
        assert err == f"error: {error}\n"

    def test_points_run_largest_first(self, capsys):
        # both points overflow; the largest runs first and is the one named
        argv = ["gamma", "--mode", "duplication", "--points", "1e306,1e307"]
        code, _, err = run_cli(capsys, argv)
        assert code == 1
        assert err == "error: duplication residual is not finite at z = 1e+307\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["farey", "--x", "2,3,5"],
            ["eigen", "--orders", "1,2,3"],
            ["norm", "--orders", "1,2,3"],
            ["gamma", "--mode", "rowproduct", "--orders", "2,3,4"],
            ["hadamard", "--k", "0,1,2"],
            ["gamma", "--mode", "duplication", "--points", "0.5,1,2"],
        ],
        ids=["farey", "eigen", "norm", "rowproduct", "hadamard", "duplication"],
    )
    def test_rows_come_in_the_order_given(self, capsys, argv):
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        first = [row[next(iter(row))] for row in parse_csv(out)]
        assert first == argv[-1].split(",")
