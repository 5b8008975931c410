import math
import os
import re
import subprocess
import sys
from dataclasses import fields
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ratiolab
from ratiolab.errors import CapacityError, EvaluationError
from ratiolab.integrands import CONST1, EXP, IDENTITY, LNGAMMA, PRESETS
from ratiolab.matrix_core import (
    MAX_NORM_ORDER,
    OPEN_LEFT_EDGE,
    SUM_BLOCK,
    Integrand,
    NormReport,
    SampledMatrixSpec,
    _extract,
    convergence_table,
    exact_sum,
    matrix_entry,
    norm_power,
    predict_limit,
    sample_row,
    weighted_cesaro,
)

from oracles import exp_row_mean, naive_norm_power, naive_weighted_sum

E = math.e


def _fsum_or_nan(values):
    """math.fsum of the values, or nan where it raises (finite overflow, inf - inf)."""
    try:
        return math.fsum(values)
    except (OverflowError, ValueError):
        return math.nan


def _assert_exact_sum_is_fsum(chunks):
    """exact_sum of the chunks has the bits of fsum over their concatenation,
    in hex (so -0.0 differs from 0.0), and leaves the chunks as they are."""
    before = [c.copy() for c in chunks]
    values = [v for c in chunks for v in c.tolist()]
    assert exact_sum(iter(chunks)).hex() == _fsum_or_nan(values).hex()
    for chunk, copy in zip(chunks, before):
        np.testing.assert_array_equal(chunk, copy)


#: Largest order of the bitwise norm_power oracle; its triangle fills 3 blocks.
ORACLE_ORDER = 400


@lru_cache(maxsize=None)
def _triangle_entries(name):
    """Entries (j, k), j <= k <= ORACLE_ORDER, row by row, from matrix_entry."""
    spec = SampledMatrixSpec(PRESETS[name], ORACLE_ORDER)
    entries = np.array(
        [matrix_entry(spec, j, k) for k in range(1, ORACLE_ORDER + 1) for j in range(1, k + 1)]
    )
    entries.flags.writeable = False  # shared by every test through the cache
    return entries


#: Chunk sizes around the block edges, and anything up to two blocks.
_CHUNK_SIZES = st.one_of(
    st.sampled_from([0, 1, SUM_BLOCK - 1, SUM_BLOCK, SUM_BLOCK + 1]),
    st.integers(min_value=0, max_value=2 * SUM_BLOCK),
)


class TestExactSum:
    @given(values=st.lists(st.floats(), max_size=60))
    @settings(max_examples=300)
    def test_arbitrary_floats(self, values):
        # hypothesis floats include subnormals, signed zeros, values near
        # 1e308 (the fsum fallback) and inf/nan
        _assert_exact_sum_is_fsum([np.array(values, dtype=np.float64)])

    @given(
        values=st.lists(
            st.floats(min_value=-1e300, max_value=1e300), min_size=1, max_size=40
        ),
        eps=st.sampled_from([0.0, 2.0**-52, 2.0**-26, 1e-10]),
    )
    @settings(max_examples=200)
    def test_heavy_cancellation(self, values, eps):
        x = np.array(values)
        _assert_exact_sum_is_fsum([np.concatenate([x, -x * (1.0 + eps)])])

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        size=st.sampled_from([0, 1, 2, SUM_BLOCK - 1, SUM_BLOCK + 1, 3 * SUM_BLOCK + 5]),
        # binary exponents: subnormal, across 1e-300..1e300, near 1e308, all
        exponents=st.sampled_from([(-1100, -1000), (-997, 997), (1000, 1025), (-1100, 1025)]),
        zero_share=st.sampled_from([0.0, 0.3, 1.0]),
    )
    @settings(max_examples=60, deadline=None)
    def test_wide_arrays(self, seed, size, exponents, zero_share):
        rng = np.random.default_rng(seed)
        x = np.ldexp(rng.uniform(-1.0, 1.0, size), rng.integers(*exponents, size))
        zeros = rng.random(size) < zero_share
        x[zeros] = np.copysign(0.0, rng.uniform(-1.0, 1.0, int(zeros.sum())))
        _assert_exact_sum_is_fsum([x])

    def test_small_sizes(self):
        for values in ([], [0.0], [-0.0], [-0.0, -0.0], [5e-324], [1e308, 1e308], [1.0, -1.0]):
            _assert_exact_sum_is_fsum([np.array(values, dtype=np.float64)])

    def test_few_parts(self):
        # 1001 values spanning 2^-58..2^58: each pass strips 53 - 10 bits
        x = np.exp(np.linspace(-40.0, 40.0, 1001))
        assert len(_extract(x.copy(), np.empty_like(x))) <= 5

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        sizes=st.lists(_CHUNK_SIZES, max_size=6),
        special=st.sampled_from([(), (math.inf,), (-math.inf,), (math.nan,), (math.inf, -math.inf)]),
    )
    @example(seed=0, sizes=[], special=())
    @example(seed=1, sizes=[0, 0, 0], special=())
    @example(seed=2, sizes=[SUM_BLOCK], special=())
    @example(seed=3, sizes=[SUM_BLOCK - 3, 7, SUM_BLOCK], special=())
    @example(seed=5, sizes=[1, SUM_BLOCK, SUM_BLOCK - 1, 2], special=())
    @example(seed=4, sizes=[5, SUM_BLOCK + 1, 0, 9], special=(math.nan,))
    @settings(max_examples=30, deadline=None)
    def test_bitwise_fsum_of_concatenation(self, seed, sizes, special):
        rng = np.random.default_rng(seed)
        # binary exponents up to 997 (|x| < 1e300): no partial sum of fsum
        # overflows, so fsum raises only for inf - inf
        chunks = [np.ldexp(rng.uniform(-1.0, 1.0, n), rng.integers(-1100, 997, n)) for n in sizes]
        filled = [c for c in chunks if c.size]
        for value in special if filled else ():
            chunk = filled[rng.integers(len(filled))]
            chunk[rng.integers(chunk.size)] = value
        _assert_exact_sum_is_fsum(chunks)

    def test_block_too_large_to_extract_then_more(self):
        # |x| >= 1e305 is above a full block's extraction limit (2^1006), so the
        # first block goes to the parts as it is; alternating signs keep every
        # partial sum finite
        x = np.linspace(1e305, 2e305, SUM_BLOCK + 5)
        x[1::2] *= -1.0
        _assert_exact_sum_is_fsum([x[:7], x[7:]])

    def test_finite_overflow_is_nan(self):
        # math.fsum raises OverflowError on 2e308; the documented result is nan
        assert math.isnan(exact_sum([np.array([1e308]), np.array([1e308])]))

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="minor-fault counts of Linux")
    def test_blocks_reuse_their_buffers(self):
        pytest.importorskip("resource")
        # Order 1024 streams 524,800 values: 16 full blocks and a short one.
        # Fresh 256 KiB block buffers fault in about 96 pages per block;
        # buffers allocated once per sum fault in at most 128 per sum.  A
        # fresh interpreter, because inside a long-lived process even fresh
        # buffers may come from the allocator's heap and fault in nothing.
        blocks = 1024 * 1025 // 2 // SUM_BLOCK
        probe = (
            "import resource\n"
            "from ratiolab.integrands import EXP\n"
            "from ratiolab.matrix_core import SampledMatrixSpec, norm_power\n"
            "spec = SampledMatrixSpec(EXP, 1024)\n"
            "norm_power(spec, 1.0)\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "norm_power(spec, 1.0)\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
        )
        src = str(Path(ratiolab.__file__).parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        out = subprocess.run(
            [sys.executable, "-c", probe],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True, text=True, check=True,
        ).stdout
        assert int(out) < 16 * blocks


class TestMatrixEntry:
    def test_single_entry_is_f_of_one(self):
        assert matrix_entry(SampledMatrixSpec(EXP, 1), 1, 1) == pytest.approx(E, abs=1e-12)

    def test_off_diagonal_samples_ratio(self):
        spec = SampledMatrixSpec(EXP, 2)
        assert matrix_entry(spec, 1, 2) == pytest.approx(math.exp(0.5), abs=1e-12)

    def test_symmetry_of_swapped_indices(self):
        spec = SampledMatrixSpec(EXP, 3)
        assert matrix_entry(spec, 3, 2) == math.exp(2 / 3)
        assert matrix_entry(spec, 3, 2) == matrix_entry(spec, 2, 3)

    def test_out_of_range_raises(self):
        spec = SampledMatrixSpec(EXP, 3)
        for i, j in [(0, 1), (1, 0), (4, 1), (1, 4), (-1, 2)]:
            with pytest.raises(IndexError):
                matrix_entry(spec, i, j)

    @given(
        n=st.integers(min_value=1, max_value=30),
        data=st.data(),
    )
    @settings(max_examples=60)
    def test_symmetry_property(self, n, data):
        i = data.draw(st.integers(min_value=1, max_value=n))
        j = data.draw(st.integers(min_value=1, max_value=n))
        spec = SampledMatrixSpec(EXP, n)
        assert matrix_entry(spec, i, j) == matrix_entry(spec, j, i)

    def test_invalid_order_rejected(self):
        with pytest.raises(ValueError):
            SampledMatrixSpec(EXP, 0)

    def test_order_must_be_an_integer(self):
        # a float order would fail later in norm_power's range, and a bool is not an order
        for order in (2.5, True):
            with pytest.raises(ValueError, match="order must be an integer"):
                SampledMatrixSpec(EXP, order)
        assert SampledMatrixSpec(EXP, np.int64(3)).order == 3

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_entries_are_row_samples_bitwise(self, name):
        # one evaluation path: the scalar entry and the row that norm_power
        # and materialize sum are the same bits, for every entry with n <= 256
        integrand = PRESETS[name]
        spec = SampledMatrixSpec(integrand, 256)
        mismatches = [
            (j, k)
            for k in range(1, spec.order + 1)
            for j, value in enumerate(sample_row(integrand, k).tolist(), start=1)
            if matrix_entry(spec, j, k) != value
        ]
        assert mismatches == []


class TestSampleRow:
    def test_non_finite_value_names_sample_point(self):
        blowup = Integrand(eval=lambda x: np.where(x == 0.5, np.inf, 1.0), label="pole")
        with pytest.raises(EvaluationError, match="1/2"):
            sample_row(blowup, 2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_error_names_first_bad_point(self, bad):
        # non-finite from x = 1/2 on: 3/6 is named, not 4/6, and not 1/2
        tail = Integrand(eval=lambda x: np.where(x >= 0.5, bad, x), label="tail")
        with pytest.raises(EvaluationError, match=r"'tail' is not finite at 3/6$"):
            sample_row(tail, 6)

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_returns_fresh_float64_row(self, name):
        k = 12
        first, second = sample_row(PRESETS[name], k), sample_row(PRESETS[name], k)
        for row in (first, second):
            assert type(row) is np.ndarray and row.dtype == np.float64
            assert row.shape == (k,) and row.flags.writeable
        assert not np.shares_memory(first, second)
        assert first.tobytes() == second.tobytes()

    def test_grid_is_j_over_k(self):
        # the identity integrand returns the sample points themselves
        for k in (1, 2, 7, 1000):
            assert sample_row(IDENTITY, k).tolist() == [j / k for j in range(1, k + 1)]

    def test_other_dtypes_become_float64(self):
        single = Integrand(eval=lambda x: x.astype(np.float32), label="single")
        row = sample_row(single, 4)
        assert row.dtype == np.float64 and row.tolist() == [0.25, 0.5, 0.75, 1.0]


class TestNormPower:
    def test_order_one_is_single_entry(self):
        assert norm_power(SampledMatrixSpec(EXP, 1), 1.0) == pytest.approx(E, abs=1e-14)

    def test_order_two_closed_form(self):
        expected = 2 * E + 2 * math.exp(0.5)
        assert norm_power(SampledMatrixSpec(EXP, 2), 1.0) == pytest.approx(
            expected, abs=1e-12
        )

    def test_normalized_value_near_limit_at_100(self):
        spec = SampledMatrixSpec(EXP, 100)
        value = norm_power(spec, 1.0)
        assert abs(value / 100**2 - (E - 1)) <= 0.05
        assert value == pytest.approx(naive_norm_power(spec, 1.0), rel=1e-12)

    @pytest.mark.parametrize("m", [1.0, 2.0, 3.0])
    @pytest.mark.parametrize("n", [1, 2, 17, 512])
    def test_triangle_identity_against_naive(self, n, m):
        spec = SampledMatrixSpec(EXP, n)
        assert norm_power(spec, m) == pytest.approx(naive_norm_power(spec, m), rel=1e-12)

    def test_triangle_identity_lngamma(self):
        spec = SampledMatrixSpec(LNGAMMA, 33)
        assert norm_power(spec, 1.0) == pytest.approx(
            naive_norm_power(spec, 1.0), rel=1e-12
        )

    @pytest.mark.parametrize("m", [1.0, 2.0, 3.0])
    def test_scaling_by_two_is_homogeneous(self, m):
        doubled = Integrand(eval=lambda x: 2.0 * np.exp(x), label="2exp")
        base = norm_power(SampledMatrixSpec(EXP, 40), m)
        scaled = norm_power(SampledMatrixSpec(doubled, 40), m)
        assert scaled == pytest.approx(2.0**m * base, rel=1e-12)

    def test_exponent_below_one_rejected(self):
        for m in (0.5, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                norm_power(SampledMatrixSpec(EXP, 4), m)

    def test_sign_changing_integrand_uses_absolute_values(self):
        signed = Integrand(eval=lambda x: x - 0.6, label="shifted")
        spec = SampledMatrixSpec(signed, 9)
        assert norm_power(spec, 1.0) == pytest.approx(naive_norm_power(spec, 1.0), rel=1e-12)
        assert norm_power(spec, 1.0) > 0.0

    @pytest.mark.parametrize("value,m", [(1e200, 2.0), (1e308, 1.0)])
    def test_overflow_raises_evaluation_error(self, value, m):
        # 1e200^2 overflows each term, 3 * 1e308 overflows the sum
        big = Integrand(eval=lambda x: np.full_like(x, value), label="big")
        with pytest.raises(EvaluationError, match=re.escape(f"|big|^{m}")):
            norm_power(SampledMatrixSpec(big, 3), m)

    def test_capacity_limit_raises_before_sampling(self):
        def unsampled(x):
            raise AssertionError("a row was sampled")

        spec = SampledMatrixSpec(Integrand(eval=unsampled, label="unsampled"), MAX_NORM_ORDER + 1)
        with pytest.raises(CapacityError, match=f"norm order {MAX_NORM_ORDER + 1} exceeds budget"):
            norm_power(spec, 1.0)

    def test_full_sum_that_fits_does_not_overflow(self):
        # twice the triangle sum (2e308) overflows, but 2e308 - 1e308 fits
        big = Integrand(eval=lambda x: np.full_like(x, 1e308), label="big")
        assert norm_power(SampledMatrixSpec(big, 1), 1.0) == 1e308

    @pytest.mark.parametrize("order", [1, 2, 3, 5])
    @pytest.mark.parametrize("value", [1e308, 4.5e307, 4e307, 1.9e307, 1.7976931348623157e308, 3.5])
    def test_final_combination_near_overflow(self, value, order):
        # the final 2 T - n |f(1)| is one exact_sum of three values: it gives
        # the bits, or the overflow, of the exact accumulator over those values
        const = Integrand(eval=lambda x: np.full_like(x, value), label="const")
        triangle = exact_sum(np.full(k, value) for k in range(1, order + 1))
        expected = exact_sum([np.array([triangle, -order * value, triangle])])
        try:
            got = norm_power(SampledMatrixSpec(const, order), 1.0).hex()
        except EvaluationError:
            got = "overflow"
        assert got == (expected.hex() if math.isfinite(expected) else "overflow")

    def test_one_accumulator_per_call(self, monkeypatch):
        # two exact sums: the triangle over every row, then 2 T - n |f(1)|^2
        calls = []

        def recording(chunks):
            calls.append([np.array(chunk) for chunk in chunks])
            return exact_sum(calls[-1])

        monkeypatch.setattr(ratiolab.matrix_core, "exact_sum", recording)
        total = norm_power(SampledMatrixSpec(EXP, 30), 2.0)
        rows, combination = calls
        assert [row.size for row in rows] == list(range(1, 31))
        triangle, diagonal = exact_sum(rows), float(rows[0][0])
        assert len(combination) == 1
        assert combination[0].tolist() == [triangle, -30 * diagonal, triangle]
        assert total == exact_sum(combination)

    @pytest.mark.parametrize("m", [1.0, 2.0, 3.0])
    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_bitwise_against_fsum_oracle(self, name, m):
        # orders 100 / 300 / 400 fill 1 / 2 / 3 blocks of SUM_BLOCK values;
        # the powers go through numpy like the library's, because numpy's
        # vectorized pow and the C library's pow differ in the last bit
        entries = _triangle_entries(name)
        for n in (100, 300, ORACLE_ORDER):
            terms = np.abs(entries[: n * (n + 1) // 2]) ** m
            expected = 2.0 * math.fsum(terms.tolist()) - n * float(terms[0])
            assert norm_power(SampledMatrixSpec(PRESETS[name], n), m).hex() == expected.hex()


class TestNormReport:
    def test_order_two_report_values(self):
        report = NormReport(2, 1.0, norm_power(SampledMatrixSpec(EXP, 2), 1.0), E - 1)
        assert report.normalized == report.raw_norm_power / 4
        assert report.normalized == pytest.approx((2 * E + 2 * math.sqrt(E)) / 4, abs=1e-12)
        assert report.abs_error == abs(report.normalized - report.predicted_limit)
        assert report.abs_error == pytest.approx(0.4652, abs=5e-4)

    def test_stores_only_its_inputs(self):
        names = [f.name for f in fields(NormReport)]
        assert names == ["order", "exponent", "raw_norm_power", "predicted_limit"]
        report = NormReport(order=3, exponent=1.0, raw_norm_power=4.5, predicted_limit=0.25)
        assert report.normalized == 0.5
        assert report.abs_error == 0.25

    @pytest.mark.parametrize(
        "m,predicted",
        [(2.0, (E**2 - 1) / 2), (3.0, (E**3 - 1) / 3)],
    )
    def test_error_shrinks_as_order_doubles(self, m, predicted):
        errors = [
            NormReport(n, m, norm_power(SampledMatrixSpec(EXP, n), m), predicted).abs_error
            for n in (32, 64, 128)
        ]
        assert errors[0] > errors[1] > errors[2]


def _outward(lo: Fraction, hi: Fraction) -> tuple[float, float]:
    """The floats next outside the exact interval [lo, hi]."""
    a, b = float(lo), float(hi)
    return (
        a if Fraction(a) <= lo else math.nextafter(a, -math.inf),
        b if Fraction(b) >= hi else math.nextafter(b, math.inf),
    )


class TestConvergenceRate:
    """The rate of the limit: each row mean is a right Riemann sum, so by
    Euler-Maclaurin the normalized norm of a smooth f is
    I_m + (I_m - |f(0)|^m)/n + O(log n / n^2)."""

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_exp_first_order_term(self, m):
        # g = e^(mx): I_m = (e^m - 1)/m and g(0) = 1.  The next term of the
        # error is (g'(1) - g'(0)) * H_n / (6 n^2), so the gap below is about
        # m (e^m - 1) ln n / (6 n) and falls by ln(2n) / (2 ln n) ~ 0.55 per
        # doubling.  Bounds: at most m (e^m - 1) ln n / (4 n), and at most
        # 0.6 of the gap at half the order.
        limit = (E**m - 1) / m
        gaps = []
        for n in (1024, 2048, 4096):
            err = norm_power(SampledMatrixSpec(EXP, n), m) / (n * n) - limit
            gaps.append(abs(n * err - (limit - 1.0)))
            assert gaps[-1] <= m * (E**m - 1) * math.log(n) / (4 * n)
        assert gaps[1] <= 0.6 * gaps[0]
        assert gaps[2] <= 0.6 * gaps[1]

    @pytest.mark.parametrize("n", [1000, 1024, 2047])
    def test_identity_is_half_plus_half_over_n(self, n):
        # the triangle holds sum_k (k + 1)/2 = n(n + 3)/4 exactly, so the
        # normalized norm is 1/2 + 1/(2n); only the samples j/k are rounded
        normalized = norm_power(SampledMatrixSpec(IDENTITY, n), 1.0) / (n * n)
        exact = Fraction(1, 2) + Fraction(1, 2 * n)
        assert abs(Fraction(normalized) - exact) <= 4 * Fraction(math.ulp(0.5))

    @pytest.mark.parametrize("n", [256, 1024, 2048])
    def test_lngamma_error_is_minus_log_n_over_n(self, n):
        # ln Gamma(x) ~ -ln x at 0: row k misses ln(2 pi k)/(2k) of the
        # integral, so n * err = -ln n + O(1); bound |n err / ln n + 1| <= 0.03
        err = norm_power(SampledMatrixSpec(LNGAMMA, n), 1.0) / (n * n) - 0.5 * math.log(2 * math.pi)
        assert abs(n * err / math.log(n) + 1.0) <= 0.03

    @pytest.mark.parametrize("n", [256, 1024])
    @pytest.mark.parametrize("name,m", [("exp", 1), ("exp", 2), ("exp", 3), ("identity", 1), ("identity", 2)])
    def test_quadrature_inside_monotone_bracket(self, name, m, n):
        # For increasing g = |f|^m, row k's sum S_k lies in [k I, k I + D]
        # with D = g(1) - g(0), so the triangle sum T brackets the integral:
        # (T - n D) / N <= I <= T / N, N = n(n + 1)/2.
        f = PRESETS[name]
        g0, g1 = (Fraction(abs(float(f.eval(np.float64(x)))) ** m) for x in (0.0, 1.0))
        full = Fraction(norm_power(SampledMatrixSpec(f, n), m))
        triangle = (full + n * g1) / 2  # full = 2 T - n g(1)
        pairs = Fraction(n * (n + 1), 2)
        lo, hi = _outward((triangle - n * (g1 - g0)) / pairs, triangle / pairs)
        assert lo <= predict_limit(f, m) <= hi


class TestPredictLimit:
    def test_exponential(self):
        assert predict_limit(EXP, 1.0) == pytest.approx(E - 1, abs=1e-9)

    def test_unit_constant_any_exponent(self):
        for m in (1.0, 2.0, 7.5):
            assert predict_limit(CONST1, m) == pytest.approx(1.0, abs=1e-10)

    def test_identity_squared(self):
        assert predict_limit(IDENTITY, 2.0) == pytest.approx(1 / 3, abs=1e-10)

    def test_log_singularity_at_origin(self):
        assert predict_limit(LNGAMMA, 1.0) == pytest.approx(
            0.5 * math.log(2 * math.pi), abs=1e-9
        )

    def test_lngamma_squared_against_mpmath(self):
        # mpmath.quad(lambda x: mpmath.loggamma(x) ** 2, [0, 1]) at 30 digits
        assert predict_limit(LNGAMMA, 2.0) == pytest.approx(1.86631708379356208, abs=1e-9)

    def test_exp_at_twenty_stops_on_the_roundoff_test(self):
        # |exp|^20 reaches e^20 = 4.9e8, where 1e-10 per panel is below the panels' roundoff
        expected = math.expm1(20.0) / 20.0
        assert abs(predict_limit(EXP, 20.0) - expected) <= 1e-15 * expected

    def test_lngamma_at_four_keeps_its_bits(self):
        # the deepest left-edge refinement a preset reaches that passes the edge check
        assert predict_limit(LNGAMMA, 4.0).hex() == "0x1.763b73852b390p+4"

    @pytest.mark.parametrize(
        "f, m",
        [
            (lambda x: 1.0 / x, 1.0),
            (lambda x: x**-0.9, 1.0),
            (lambda x: x**-0.5, 1.0),
            (LNGAMMA.eval, 5.0),
        ],
        ids=["reciprocal", "inverse-0.9-power", "inverse-sqrt", "lngamma-fifth-power"],
    )
    def test_unbounded_mass_below_the_edge_fails_at_once(self, f, m):
        # 2 a |f(a)|^m > QUADRATURE_TOL at a = 2^-60: 2, 2^-5, 2^-29 and 2.2e-10
        message = re.escape(
            f"quadrature for 'f'^({m}) cannot bound the mass below the left edge "
            f"x = {OPEN_LEFT_EDGE}"
        )
        with pytest.raises(CapacityError, match=message):
            predict_limit(Integrand(eval=f, label="f"), m)

    def test_overflowing_simpson_sums_exhaust_budget(self):
        # every sample is finite, but a panel's Simpson sum overflows, so its delta
        # is nan and never passes; the suite turns a RuntimeWarning into an error
        spike = Integrand(
            eval=lambda x: np.where(np.abs(x - 0.5) < 1e-3, 1e308, 1.0), label="spike"
        )
        with pytest.raises(CapacityError, match="exceeded 524288 panels"):
            predict_limit(spike, 1.0)

    @pytest.mark.parametrize(
        "f, expected, tol",
        [
            # left-edge panels refine to depth 71; the integral over [2^-60, 1] is (1 - 2^-36)/0.6
            (lambda x: x**-0.4, (1.0 - 2.0**-36) / 0.6, 1e-14),
            (lambda x: np.where(x > 0.3, 1.0, 0.0), 0.7, 1e-15),
        ],
        ids=["inverse-0.4-power", "step-at-0.3"],
    )
    def test_refinement_stops_on_the_richardson_test(self, f, expected, tol):
        assert abs(predict_limit(Integrand(eval=f, label="f"), 1.0) - expected) <= tol

    def test_exponent_validation(self):
        for m in (0.5, math.nan, math.inf):
            with pytest.raises(ValueError):
                predict_limit(EXP, m)

    @pytest.mark.parametrize(
        "f, m, bad",
        [
            (lambda x: np.where(x > 0.25, np.inf, 0.0), 1.0, 0.5),
            (lambda x: np.full_like(x, np.nan), 1.0, OPEN_LEFT_EDGE),
            (lambda x: np.full_like(x, 1e200), 2.0, OPEN_LEFT_EDGE),
        ],
        ids=["inf-above-quarter", "nan-everywhere", "power-overflows"],
    )
    def test_non_finite_sample_fails_fast(self, f, m, bad):
        message = re.escape(f"|bad|^{m} is not finite at x = {bad}")
        with pytest.raises(EvaluationError, match=message):
            predict_limit(Integrand(eval=f, label="bad"), m)


class TestWeightedCesaro:
    def test_constant_ten_terms(self):
        assert weighted_cesaro([1.0] * 10) == pytest.approx(0.55, abs=1e-15)

    def test_constant_thousand_terms_near_half(self):
        value = weighted_cesaro([1.0] * 1000)
        assert value == pytest.approx(0.5005, abs=1e-12)
        assert abs(value - 0.5) <= 1e-3

    def test_exp_row_means_approach_half_limit(self):
        n = 500
        terms = [exp_row_mean(k) for k in range(1, n + 1)]
        value = weighted_cesaro(terms)
        assert value == pytest.approx(naive_weighted_sum(terms) / n**2, rel=1e-12)
        assert abs(value - (E - 1) / 2) <= 0.01

    @given(
        c=st.floats(min_value=-100, max_value=100, allow_nan=False),
        n=st.integers(min_value=1, max_value=400),
    )
    @settings(max_examples=60)
    def test_constant_sequence_closed_form(self, c, n):
        value = weighted_cesaro([c] * n)
        expected = c * (n + 1) / (2 * n)
        assert value == pytest.approx(expected, rel=1e-12, abs=1e-12)

    @given(st.lists(st.floats(min_value=-1e300, max_value=1e300), min_size=1, max_size=50))
    @settings(max_examples=200)
    def test_bitwise_fsum_of_weighted_terms(self, terms):
        n = len(terms)
        expected = math.fsum(k * a for k, a in enumerate(terms, start=1)) / (n * n)
        assert weighted_cesaro(terms).hex() == expected.hex()

    def test_overflowing_sum_is_nan(self):
        # 1.7e308 + 2 * 0.8e308 passes the float range; math.fsum would raise
        assert math.isnan(weighted_cesaro([1.7e308, 0.8e308]))

    def test_overflowing_term_is_inf_or_nan(self):
        # 2 * 1e308 overflows, and -3e308 with it; the suite turns a RuntimeWarning into an error
        assert weighted_cesaro([1e308, 1e308]) == math.inf
        assert math.isnan(weighted_cesaro([1e308, 1e308, -1e308]))

    def test_empty_terms_rejected(self):
        with pytest.raises(ValueError):
            weighted_cesaro([])

    def test_non_finite_terms_rejected(self):
        # float(10**400) raises OverflowError; that term is not finite either
        for terms in ([1.0, math.inf], [1.0, 10**400]):
            with pytest.raises(ValueError, match="terms must all be finite"):
                weighted_cesaro(terms)


class TestConvergenceTable:
    def test_single_order_one(self):
        rows = convergence_table(EXP, 1.0, [1])
        assert len(rows) == 1
        assert rows[0].normalized == pytest.approx(E, abs=1e-12)

    def test_errors_strictly_decreasing_exp(self):
        rows = convergence_table(EXP, 1.0, [100, 200, 400])
        for row in rows:
            spec = SampledMatrixSpec(EXP, row.order)
            assert row.raw_norm_power == pytest.approx(
                naive_norm_power(spec, 1.0), rel=1e-12
            )
        errors = [row.abs_error for row in rows]
        assert errors[0] > errors[1] > errors[2]

    def test_errors_strictly_decreasing_lngamma(self):
        rows = convergence_table(LNGAMMA, 1.0, [64, 128, 256])
        assert rows[0].predicted_limit == pytest.approx(
            0.5 * math.log(2 * math.pi), abs=1e-9
        )
        errors = [row.abs_error for row in rows]
        assert errors[0] > errors[1] > errors[2]

    def test_rows_keep_input_order_and_share_prediction(self):
        rows = convergence_table(EXP, 2.0, [3, 5, 9])
        assert [row.order for row in rows] == [3, 5, 9]
        assert len({row.predicted_limit for row in rows}) == 1

    def test_non_ascending_orders_rejected(self):
        with pytest.raises(ValueError):
            convergence_table(EXP, 1.0, [10, 10, 20])
        with pytest.raises(ValueError):
            convergence_table(EXP, 1.0, [])
