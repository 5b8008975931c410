import math
from dataclasses import fields
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ratiolab.eigen import DenseSymmetric, jacobi_eigenvalues
from ratiolab.errors import CapacityError
from ratiolab.hadamard import (
    DENSE_LIMIT,
    OscillationReport,
    SignMatrix,
    Verdict,
    is_hadamard,
    oscillation_bound,
    spectral_sum_sq,
    sylvester,
)

from oracles import (
    last_two_rows_mismatches,
    ratio_hadamard_brute,
    ratio_hadamard_search,
    sylvester_parity,
)


def sign_matrix(rows) -> SignMatrix:
    return SignMatrix(np.array(rows, dtype=np.int64))


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

    @pytest.mark.parametrize("k", range(DENSE_LIMIT.bit_length()))
    def test_entries_match_the_parity_reference(self, k):
        entries = sylvester(k).entries
        assert entries.dtype == np.int8
        assert not entries.flags.writeable
        np.testing.assert_array_equal(entries, sylvester_parity(k))

    def test_symmetric_by_construction(self):
        for k in range(7):
            matrix = sylvester(k)
            assert np.array_equal(matrix.entries, matrix.entries.T)

    def test_validation(self):
        with pytest.raises(ValueError):
            sylvester(-1)
        with pytest.raises(CapacityError):
            sylvester(12)

    @pytest.mark.parametrize("k", [14000, 15000, 10**5])
    def test_huge_k_is_a_capacity_error_before_2_to_the_k_is_formed(self, k):
        # 2^15000 has 4516 digits, past the int-to-str limit of an f-string
        with pytest.raises(CapacityError, match=f"order 2\\^{k} exceeds dense limit"):
            sylvester(k)

    def test_largest_dense_order(self):
        assert sylvester(11).order == 2048


class TestSignMatrix:
    def test_rejects_non_sign_entries(self):
        with pytest.raises(ValueError, match="\\+1 or -1"):
            SignMatrix(np.array([[1, 0], [0, 1]], dtype=np.int64))

    def test_rejects_wrong_dtype(self):
        with pytest.raises(ValueError, match="integer dtype"):
            SignMatrix(np.array([[1.0]]))

    @pytest.mark.parametrize(
        "entries", [np.array([1, -1]), np.ones((2, 3), dtype=np.int64)], ids=["1-d", "rectangular"]
    )
    def test_rejects_non_square(self, entries):
        with pytest.raises(ValueError, match="square"):
            SignMatrix(entries)

    def test_order_is_derived_from_entries(self):
        assert [f.name for f in fields(SignMatrix)] == ["entries"]
        assert SignMatrix(np.ones((3, 3), dtype=np.int64)).order == 3

    def test_keeps_a_private_int8_copy(self):
        source = np.array([[1, 1], [1, -1]])
        matrix = SignMatrix(source)
        assert source.flags.writeable
        source.flags.writeable = True
        source[1, 1] = 1
        assert matrix.entries.dtype == np.int8
        assert is_hadamard(matrix)
        np.testing.assert_array_equal(matrix.entries, [[1, 1], [1, -1]])

    def test_copies_int8_input(self):
        source = np.array([[1, -1], [-1, 1]], dtype=np.int8)
        matrix = SignMatrix(source)
        assert matrix.entries.dtype == np.int8
        assert not np.shares_memory(matrix.entries, source)
        np.testing.assert_array_equal(matrix.entries, [[1, -1], [-1, 1]])

    @pytest.mark.parametrize("value", [257, 255, -255])
    def test_rejects_entries_that_wrap_to_a_sign_in_int8(self, value):
        # int8 wraps 257 and -255 to 1 and 255 to -1: the check must see the caller's values
        with pytest.raises(ValueError, match="\\+1 or -1"):
            SignMatrix(np.array([[value]]))

    @pytest.mark.parametrize(
        "value,dtype",
        [
            (0, np.int64),
            (2, np.int64),
            (-2, np.int64),
            (-128, np.int8),
            (32767, np.int16),
            (np.iinfo(np.int64).min, np.int64),
            (255, np.uint8),
        ],
        ids=["0", "2", "-2", "int8-min", "int16-max", "int64-min", "uint8-max"],
    )
    def test_rejects_every_value_but_the_signs(self, value, dtype):
        entries = np.ones((2, 2), dtype=dtype)
        entries[1, 1] = value
        with pytest.raises(ValueError, match="\\+1 or -1"):
            SignMatrix(entries)

    @pytest.mark.parametrize(
        "entries",
        [
            np.empty((0, 0), dtype=np.int64),
            np.array([[1, -1], [-1, -1]], dtype=np.int16),
            np.ones((2, 2), dtype=np.uint8),
        ],
        ids=["0x0", "int16", "uint8-ones"],
    )
    def test_accepts_signs_in_any_integer_dtype(self, entries):
        matrix = SignMatrix(entries)
        assert matrix.entries.dtype == np.int8
        np.testing.assert_array_equal(matrix.entries, entries)

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
        flipped = SignMatrix(entries)
        gram = flipped.entries @ flipped.entries.T
        assert not np.array_equal(gram, 32 * np.eye(32, dtype=np.int64))
        assert not is_hadamard(flipped)

    @pytest.mark.parametrize("k", range(1, 7))
    def test_every_single_flipped_entry_is_rejected(self, k):
        # the flipped row's dot product with every other row moves by 2
        # (order 1 has no other row: [[-1]] is Hadamard)
        n = 1 << k
        entries = sylvester(k).entries
        for i in range(n):
            for j in range(n):
                flipped = entries.copy()
                flipped[i, j] = -flipped[i, j]
                assert not is_hadamard(SignMatrix(flipped)), (i, j)

    def test_largest_dense_order(self):
        matrix = sylvester(11)
        assert is_hadamard(matrix)
        entries = matrix.entries.copy()
        entries[2047, 1024] = -entries[2047, 1024]
        assert not is_hadamard(SignMatrix(entries))

    def test_capacity_limit_raises_before_the_float32_copy(self):
        # SignMatrix itself has no size cap; is_hadamard's exactness needs order
        # <= DENSE_LIMIT (test_largest_dense_order checks that order itself)
        n = DENSE_LIMIT + 1
        ones = SignMatrix(np.ones((n, n), dtype=np.int8))
        with pytest.raises(CapacityError, match=f"order {n} exceeds dense limit {DENSE_LIMIT}"):
            is_hadamard(ones)

    def test_invariant_under_row_negation_and_permutation(self):
        rng = np.random.default_rng(7)
        matrix = sylvester(4)
        signs = rng.choice([-1, 1], size=16).astype(np.int64)
        perm = rng.permutation(16)
        transformed = (signs[:, None] * matrix.entries)[np.ix_(perm, perm)]
        assert is_hadamard(SignMatrix(transformed))


class TestRatioSignCensus:
    """How many order-n sign matrices s(min(i,j)/max(i,j)), for a sign s on
    the reduced fractions, are Hadamard: the paper's claim at finite orders."""

    @pytest.mark.parametrize("n,count", [(1, 2), (2, 0), (4, 8), (8, 0)])
    def test_hadamard_counts(self, n, count):
        found = ratio_hadamard_search(n)
        assert len(found) == count
        for matrix in found:
            assert is_hadamard(SignMatrix(matrix))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_search_matches_brute_force(self, n):
        def listed(found):
            return sorted(matrix.tolist() for matrix in found)

        assert listed(ratio_hadamard_search(n)) == listed(ratio_hadamard_brute(n))

    def test_order_four_holds_j_minus_2i(self):
        # the census is no counterexample to the paper: its claim is asymptotic,
        # and order 4's oscillation verdict is inconclusive
        found = [matrix.tolist() for matrix in ratio_hadamard_search(4)]
        j_minus_2i = np.ones((4, 4), dtype=np.int64) - 2 * np.eye(4, dtype=np.int64)
        assert j_minus_2i.tolist() in found
        assert (-j_minus_2i).tolist() in found


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
        assert spectral_sum_sq(SignMatrix(entries)) == n * n


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
        assert [f.name for f in fields(OscillationReport)] == ["order", "mismatch_count"]

    def test_bound_and_verdict_derive_from_the_count(self):
        for order in range(2, 40):
            for mismatch_count in range(order):
                report = OscillationReport(order=order, mismatch_count=mismatch_count)
                assert report.lower_bound == 2.0 * mismatch_count / order
                exceeds = Fraction(2 * mismatch_count, order) > Fraction(1, 2)
                assert (report.verdict is Verdict.EXCEEDS_HALF) == exceeds
