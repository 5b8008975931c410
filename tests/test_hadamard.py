import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ratiolab.eigen import DenseSymmetric, jacobi_eigenvalues
from ratiolab.errors import CapacityError
from ratiolab.hadamard import (
    OscillationReport,
    SignMatrix,
    Verdict,
    is_hadamard,
    oscillation_bound,
    spectral_sum_sq,
    sylvester,
)

from oracles import last_two_rows_mismatches


def sign_matrix(rows) -> SignMatrix:
    entries = np.array(rows, dtype=np.int64)
    return SignMatrix(order=entries.shape[0], entries=entries)


class TestSylvester:
    def test_base_case(self):
        assert sylvester(0).entries.tolist() == [[1]]

    def test_first_doubling(self):
        assert sylvester(1).entries.tolist() == [[1, 1], [1, -1]]

    def test_order_eight_orthogonality_against_direct_product(self):
        matrix = sylvester(3)
        gram = matrix.entries @ matrix.entries.T
        assert np.array_equal(gram, 8 * np.eye(8, dtype=np.int64))
        assert is_hadamard(matrix)

    def test_symmetric_by_construction(self):
        for k in range(7):
            matrix = sylvester(k)
            assert np.array_equal(matrix.entries, matrix.entries.T)

    def test_validation(self):
        with pytest.raises(ValueError):
            sylvester(-1)
        with pytest.raises(CapacityError):
            sylvester(12)


class TestSignMatrix:
    def test_rejects_non_sign_entries(self):
        with pytest.raises(ValueError):
            SignMatrix(order=2, entries=np.array([[1, 0], [0, 1]], dtype=np.int64))

    def test_rejects_wrong_dtype(self):
        with pytest.raises(ValueError):
            SignMatrix(order=1, entries=np.array([[1.0]]))

    def test_entries_frozen(self):
        matrix = sylvester(2)
        with pytest.raises(ValueError):
            matrix.entries[0, 0] = -1


class TestIsHadamard:
    @pytest.mark.parametrize("k", range(7))
    def test_sylvester_family(self, k):
        assert is_hadamard(sylvester(k))

    def test_all_ones_is_not(self):
        assert not is_hadamard(sign_matrix([[1, 1], [1, 1]]))

    def test_single_flipped_entry_breaks_orthogonality(self):
        entries = sylvester(5).entries.copy()
        entries[3, 17] = -entries[3, 17]
        flipped = SignMatrix(order=32, entries=entries)
        gram = flipped.entries @ flipped.entries.T
        assert not np.array_equal(gram, 32 * np.eye(32, dtype=np.int64))
        assert not is_hadamard(flipped)

    def test_invariant_under_row_negation_and_permutation(self):
        rng = np.random.default_rng(7)
        matrix = sylvester(4)
        signs = rng.choice([-1, 1], size=16).astype(np.int64)
        perm = rng.permutation(16)
        transformed = (signs[:, None] * matrix.entries)[np.ix_(perm, perm)]
        assert is_hadamard(SignMatrix(order=16, entries=transformed))


class TestSpectralSumSq:
    def test_small_orders(self):
        assert spectral_sum_sq(sylvester(0)) == 1
        assert spectral_sum_sq(sylvester(2)) == 16

    def test_matches_eigenvalue_route(self):
        matrix = sylvester(4)
        assert spectral_sum_sq(matrix) == 256
        lam = jacobi_eigenvalues(DenseSymmetric(matrix.entries)).eigenvalues
        assert math.fsum((lam * lam).tolist()) == pytest.approx(256.0, rel=1e-8)

    @given(k=st.integers(min_value=0, max_value=5), data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_equals_order_squared_for_any_sign_matrix(self, k, data):
        n = 2**k
        bits = data.draw(
            st.lists(st.integers(0, 1), min_size=n * n, max_size=n * n)
        )
        entries = (2 * np.array(bits, dtype=np.int64) - 1).reshape(n, n)
        assert spectral_sum_sq(SignMatrix(order=n, entries=entries)) == n * n


class TestOscillationBound:
    def test_order_four_is_borderline(self):
        matrix = sylvester(2)
        report = oscillation_bound(matrix)
        assert report.mismatch_count == last_two_rows_mismatches(matrix.entries.tolist())
        assert report.mismatch_count == 1
        assert report.lower_bound == 0.5
        assert report.verdict is Verdict.INCONCLUSIVE

    def test_order_eight_exceeds_half(self):
        matrix = sylvester(3)
        report = oscillation_bound(matrix)
        assert report.mismatch_count == last_two_rows_mismatches(matrix.entries.tolist())
        assert report.mismatch_count >= 3
        assert report.lower_bound >= 0.75
        assert report.verdict is Verdict.EXCEEDS_HALF

    def test_constant_matrix_has_no_mismatches(self):
        report = oscillation_bound(sign_matrix([[1, 1], [1, 1]]))
        assert report.mismatch_count == 0
        assert report.lower_bound == 0.0
        assert report.verdict is Verdict.INCONCLUSIVE

    @pytest.mark.parametrize("k", [3, 4, 5, 6])
    def test_sylvester_bound_dominates_one_minus_two_over_n(self, k):
        matrix = sylvester(k)
        n = matrix.order
        report = oscillation_bound(matrix)
        assert report.mismatch_count == last_two_rows_mismatches(matrix.entries.tolist())
        assert report.mismatch_count >= n // 2 - 1
        assert report.lower_bound >= 1 - 2 / n
        assert report.verdict is Verdict.EXCEEDS_HALF

    def test_rejects_asymmetric_input(self):
        asymmetric = sign_matrix([[1, 1], [-1, 1]])
        with pytest.raises(ValueError):
            oscillation_bound(asymmetric)

    def test_rejects_order_one(self):
        with pytest.raises(ValueError):
            oscillation_bound(sylvester(0))

    def test_report_is_plain_data(self):
        report = oscillation_bound(sylvester(2))
        assert isinstance(report, OscillationReport)
        assert report.order == 4
