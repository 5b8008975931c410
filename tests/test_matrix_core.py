import math
import re
from dataclasses import fields
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ratiolab.errors import CapacityError, EvaluationError, QuadratureError
from ratiolab.integrands import CONST1, EXP, IDENTITY, LNGAMMA, PRESETS
from ratiolab.matrix_core import (
    MAX_NORM_ORDER,
    OPEN_LEFT_EDGE,
    SUM_BLOCK,
    Integrand,
    NormReport,
    SampledMatrixSpec,
    convergence_table,
    exact_parts,
    exact_sum,
    matrix_entry,
    norm_power,
    norm_report,
    predict_limit,
    sample_row,
    weighted_cesaro,
)

from oracles import exp_row_mean, naive_norm_power, naive_weighted_sum

E = math.e


def _sum_outcome(total):
    """The bits of total() in hex (so -0.0 differs from 0.0), or the name of what it raises."""
    try:
        return total().hex()
    except (OverflowError, ValueError) as exc:
        return type(exc).__name__


def _assert_exact_sum_is_fsum(x):
    before = x.copy()
    assert _sum_outcome(lambda: exact_sum(x)) == _sum_outcome(lambda: math.fsum(x.tolist()))
    np.testing.assert_array_equal(x, before)


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


class TestExactSum:
    @given(values=st.lists(st.floats(), max_size=60))
    @settings(max_examples=300)
    def test_arbitrary_floats(self, values):
        # hypothesis floats include subnormals, signed zeros, values near
        # 1e308 (the fsum fallback) and inf/nan
        _assert_exact_sum_is_fsum(np.array(values, dtype=np.float64))

    @given(
        values=st.lists(
            st.floats(min_value=-1e300, max_value=1e300), min_size=1, max_size=40
        ),
        eps=st.sampled_from([0.0, 2.0**-52, 2.0**-26, 1e-10]),
    )
    @settings(max_examples=200)
    def test_heavy_cancellation(self, values, eps):
        x = np.array(values)
        _assert_exact_sum_is_fsum(np.concatenate([x, -x * (1.0 + eps)]))

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
        _assert_exact_sum_is_fsum(x)

    def test_small_sizes(self):
        for values in ([], [0.0], [-0.0], [-0.0, -0.0], [5e-324], [1e308, 1e308], [1.0, -1.0]):
            _assert_exact_sum_is_fsum(np.array(values, dtype=np.float64))

    def test_few_parts(self):
        # 1001 values spanning 2^-58..2^58: each pass strips 53 - 10 bits
        x = np.exp(np.linspace(-40.0, 40.0, 1001))
        assert len(exact_parts(x)) <= 5


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
        report = norm_report(SampledMatrixSpec(EXP, 2), 1.0, E - 1)
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
            norm_report(SampledMatrixSpec(EXP, n), m, predicted).abs_error
            for n in (32, 64, 128)
        ]
        assert errors[0] > errors[1] > errors[2]


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

    def test_non_integrable_integrand_exhausts_budget(self):
        harmonic = Integrand(eval=lambda x: 1.0 / x, label="reciprocal")
        with pytest.raises(QuadratureError):
            predict_limit(harmonic, 1.0)

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

    def test_empty_terms_rejected(self):
        with pytest.raises(ValueError):
            weighted_cesaro([])

    def test_non_finite_terms_rejected(self):
        with pytest.raises(ValueError):
            weighted_cesaro([1.0, math.inf])


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
