import math

import numpy as np
import pytest

from ratiolab.eigen import (
    DenseSymmetric,
    jacobi_eigenvalues,
    materialize,
    spectral_sum_report,
)
from ratiolab.errors import CapacityError, ConvergenceError
from ratiolab.integrands import EXP, IDENTITY, LNGAMMA
from ratiolab.matrix_core import SampledMatrixSpec, norm_power

E = math.e


def pack(full: np.ndarray) -> DenseSymmetric:
    n = full.shape[0]
    rows, cols = np.tril_indices(n)
    return DenseSymmetric(order=n, entries=full[rows, cols].astype(np.float64))


class TestMaterialize:
    def test_order_one(self):
        dense = materialize(SampledMatrixSpec(EXP, 1))
        np.testing.assert_allclose(dense.entries, [E], rtol=1e-15)

    def test_order_two_exp_triangle(self):
        dense = materialize(SampledMatrixSpec(EXP, 2))
        np.testing.assert_allclose(dense.entries, [E, math.exp(0.5), E], rtol=1e-15)

    def test_order_two_lngamma_triangle(self):
        dense = materialize(SampledMatrixSpec(LNGAMMA, 2))
        expected = [0.0, 0.5 * math.log(math.pi), 0.0]
        np.testing.assert_allclose(dense.entries, expected, atol=1e-13)

    def test_capacity_limit(self):
        with pytest.raises(CapacityError):
            materialize(SampledMatrixSpec(EXP, 2049))

    def test_entry_accessor_and_dense_expansion(self):
        dense = materialize(SampledMatrixSpec(EXP, 5))
        full = dense.to_dense()
        for i in range(1, 6):
            for j in range(1, 6):
                assert dense.entry(i, j) == full[i - 1, j - 1]
                assert dense.entry(i, j) == dense.entry(j, i)
        with pytest.raises(IndexError):
            dense.entry(0, 1)
        with pytest.raises(IndexError):
            dense.entry(1, 6)

    def test_rejects_non_finite_entries(self):
        with pytest.raises(ValueError):
            DenseSymmetric(order=2, entries=np.array([1.0, math.nan, 2.0]))


class TestJacobi:
    def test_already_diagonal_needs_no_sweeps(self):
        dense = pack(np.diag([1.0, 2.0]))
        result = jacobi_eigenvalues(dense)
        np.testing.assert_allclose(result.eigenvalues, [1.0, 2.0], rtol=0, atol=0)
        assert result.sweeps_used == 0
        assert result.off_diag_residual == 0.0

    def test_antidiagonal_two_by_two(self):
        dense = pack(np.array([[0.0, 1.0], [1.0, 0.0]]))
        result = jacobi_eigenvalues(dense)
        np.testing.assert_allclose(result.eigenvalues, [-1.0, 1.0], atol=1e-15)

    def test_sampled_two_by_two_closed_form(self):
        dense = materialize(SampledMatrixSpec(EXP, 2))
        result = jacobi_eigenvalues(dense)
        expected = [E - math.sqrt(E), E + math.sqrt(E)]
        np.testing.assert_allclose(result.eigenvalues, expected, rtol=1e-12)

    def test_eigenvalues_ascending_and_residual_bounded(self):
        dense = materialize(SampledMatrixSpec(EXP, 48))
        result = jacobi_eigenvalues(dense, tol=1e-12)
        assert np.all(np.diff(result.eigenvalues) >= 0)
        initial = math.sqrt(float(np.sum(dense.to_dense() ** 2)))
        assert result.off_diag_residual <= 1e-12 * initial

    def test_non_convergence_carries_residual(self):
        dense = materialize(SampledMatrixSpec(EXP, 8))
        with pytest.raises(ConvergenceError) as excinfo:
            jacobi_eigenvalues(dense, max_sweeps=0)
        assert excinfo.value.residual > 0.0

    def test_parameter_validation(self):
        dense = materialize(SampledMatrixSpec(EXP, 2))
        for tol in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                jacobi_eigenvalues(dense, tol=tol)
        with pytest.raises(ValueError):
            jacobi_eigenvalues(dense, max_sweeps=-1)

    @pytest.mark.parametrize("integrand", [EXP, LNGAMMA, IDENTITY])
    @pytest.mark.parametrize("n", [2, 16, 64])
    def test_trace_identity(self, integrand, n):
        result = jacobi_eigenvalues(materialize(SampledMatrixSpec(integrand, n)))
        trace = math.fsum(result.eigenvalues.tolist())
        expected = n * integrand.eval(1.0)
        assert abs(trace - expected) <= 1e-8 * (1 + abs(expected))

    @pytest.mark.parametrize("integrand", [EXP, LNGAMMA])
    @pytest.mark.parametrize("n", [2, 16, 64])
    def test_frobenius_identity_against_entrywise_route(self, integrand, n):
        result = jacobi_eigenvalues(materialize(SampledMatrixSpec(integrand, n)))
        sum_sq = math.fsum((result.eigenvalues**2).tolist())
        entrywise = norm_power(SampledMatrixSpec(integrand, n), 2.0)
        assert sum_sq == pytest.approx(entrywise, rel=1e-8)

    def test_orthogonal_invariance_under_permutation(self):
        n = 32
        dense = materialize(SampledMatrixSpec(EXP, n))
        base = jacobi_eigenvalues(dense).eigenvalues
        rng = np.random.default_rng(20240817)
        perm = rng.permutation(n)
        shuffled = pack(dense.to_dense()[np.ix_(perm, perm)])
        permuted = jacobi_eigenvalues(shuffled).eigenvalues
        np.testing.assert_allclose(permuted, base, rtol=0, atol=1e-8)


class TestSpectralSumReport:
    def test_order_one(self):
        sums = spectral_sum_report(EXP, 1)
        assert sums.trace == pytest.approx(E, abs=1e-14)
        assert sums.sum_sq == pytest.approx(E**2, abs=1e-13)
        assert sums.normalized_sum_sq == pytest.approx(E**2, abs=1e-13)

    def test_order_two_closed_form(self):
        sums = spectral_sum_report(EXP, 2)
        assert sums.trace == pytest.approx(2 * E, rel=1e-12)
        assert sums.sum_sq == pytest.approx(2 * E**2 + 2 * E, rel=1e-12)
        assert sums.normalized_sum_sq == pytest.approx(5.0537, abs=1e-4)

    def test_normalized_square_sum_near_limit(self):
        sums = spectral_sum_report(EXP, 64)
        entrywise = norm_power(SampledMatrixSpec(EXP, 64), 2.0)
        assert sums.sum_sq == pytest.approx(entrywise, rel=1e-8)
        assert abs(sums.normalized_sum_sq - (E**2 - 1) / 2) <= 0.1
