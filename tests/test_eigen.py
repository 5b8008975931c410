import math

import mpmath
import numpy as np
import pytest

from ratiolab import eigen
from ratiolab.eigen import (
    JACOBI_TOL,
    MAX_JACOBI_ORDER,
    DenseSymmetric,
    jacobi_eigenvalues,
    materialize,
    spectral_sum_report,
)
from ratiolab.errors import CapacityError, ConvergenceError
from ratiolab.integrands import EXP, IDENTITY, LNGAMMA, PRESETS
from ratiolab.matrix_core import Integrand, SampledMatrixSpec, matrix_entry, norm_power

E = math.e

#: Orders of the closed-form oracle for the identity kernel, one doubling apart.
ORACLE_ORDERS = (64, 128, 256)


@pytest.fixture(scope="module")
def identity_spectra():
    """lambda / n of materialize(IDENTITY, n) for each oracle order, one solve each."""
    return {
        n: jacobi_eigenvalues(materialize(SampledMatrixSpec(IDENTITY, n))).eigenvalues / n
        for n in ORACLE_ORDERS
    }


class TestMaterialize:
    def test_order_one(self):
        dense = materialize(SampledMatrixSpec(EXP, 1))
        np.testing.assert_allclose(dense.entries, [[E]], rtol=1e-15)

    def test_order_two_exp_triangle(self):
        dense = materialize(SampledMatrixSpec(EXP, 2))
        off = math.exp(0.5)
        np.testing.assert_allclose(dense.entries, [[E, off], [off, E]], rtol=1e-15)

    def test_order_two_lngamma_triangle(self):
        dense = materialize(SampledMatrixSpec(LNGAMMA, 2))
        off = 0.5 * math.log(math.pi)
        np.testing.assert_allclose(dense.entries, [[0.0, off], [off, 0.0]], atol=1e-13)

    def test_capacity_limit(self, monkeypatch):
        def unsampled(*args):
            raise AssertionError("a row was sampled")

        monkeypatch.setattr(eigen, "sample_row", unsampled)
        n = MAX_JACOBI_ORDER + 1
        with pytest.raises(CapacityError, match=f"order {n} exceeds Jacobi limit"):
            materialize(SampledMatrixSpec(EXP, n))

    @pytest.mark.parametrize("n", [5, 33])
    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_entries_are_matrix_entries_bitwise(self, name, n):
        spec = SampledMatrixSpec(PRESETS[name], n)
        entries = materialize(spec).entries
        mismatches = [
            (i, j)
            for i in range(1, n + 1)
            for j in range(1, n + 1)
            if entries[i - 1, j - 1].hex() != matrix_entry(spec, i, j).hex()
        ]
        assert mismatches == []

    def test_entries_are_read_only(self):
        dense = materialize(SampledMatrixSpec(EXP, 3))
        assert not dense.entries.flags.writeable
        with pytest.raises(ValueError):
            dense.entries[0, 1] = 0.0

    def test_keeps_a_private_float64_copy(self):
        source = np.array([[1, 2], [2, 3]])
        dense = DenseSymmetric(source)
        assert dense.order == 2
        assert dense.entries.dtype == np.float64
        assert source.flags.writeable
        source[0, 1] = 5
        np.testing.assert_array_equal(dense.entries, [[1.0, 2.0], [2.0, 3.0]])

    @pytest.mark.parametrize(
        "entries, message",
        [
            (np.array([1.0, 0.5, 2.0]), "square"),
            (np.ones((2, 3)), "square"),
            (np.array([[1.0, 0.5], [0.25, 2.0]]), "symmetric"),
        ],
        ids=["packed-triangle", "rectangular", "asymmetric"],
    )
    def test_rejects_invalid_entries(self, entries, message):
        with pytest.raises(ValueError, match=message):
            DenseSymmetric(entries)

    def test_rejects_non_finite_entries(self):
        # symmetric and square, so only the finiteness check can reject them
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match="finite"):
                DenseSymmetric(np.array([[1.0, bad], [bad, 2.0]]))


class TestJacobi:
    def test_already_diagonal_needs_no_sweeps(self):
        result = jacobi_eigenvalues(DenseSymmetric(np.diag([1.0, 2.0])))
        np.testing.assert_allclose(result.eigenvalues, [1.0, 2.0], rtol=0, atol=0)
        assert result.sweeps_used == 0
        assert result.off_diag_residual == 0.0

    def test_antidiagonal_two_by_two(self):
        result = jacobi_eigenvalues(DenseSymmetric(np.array([[0.0, 1.0], [1.0, 0.0]])))
        np.testing.assert_allclose(result.eigenvalues, [-1.0, 1.0], atol=1e-15)

    def test_sampled_two_by_two_closed_form(self):
        dense = materialize(SampledMatrixSpec(EXP, 2))
        result = jacobi_eigenvalues(dense)
        expected = [E - math.sqrt(E), E + math.sqrt(E)]
        np.testing.assert_allclose(result.eigenvalues, expected, rtol=1e-12)

    def test_eigenvalues_ascending_and_residual_bounded(self):
        dense = materialize(SampledMatrixSpec(EXP, 48))
        result = jacobi_eigenvalues(dense)
        assert np.all(np.diff(result.eigenvalues) >= 0)
        initial = math.sqrt(float(np.sum(dense.entries**2)))
        assert result.off_diag_residual <= JACOBI_TOL * initial

    def test_non_convergence_carries_residual(self, monkeypatch):
        monkeypatch.setattr(eigen, "MAX_SWEEPS", 0)
        dense = materialize(SampledMatrixSpec(EXP, 8))
        with pytest.raises(ConvergenceError, match="in 0 sweeps") as excinfo:
            jacobi_eigenvalues(dense)
        assert excinfo.value.residual > 0.0

    def test_capacity_limit_raises_at_once(self):
        n = MAX_JACOBI_ORDER + 1
        with pytest.raises(CapacityError, match=f"order {n} exceeds Jacobi limit"):
            jacobi_eigenvalues(DenseSymmetric(np.zeros((n, n))))

    @pytest.mark.parametrize(
        "apq, zero_exactly",
        [(1e-160, False), (1e-310, True)],
        ids=["large-angle", "below-angle-resolution"],
    )
    def test_tiny_pair_next_to_a_rotated_pair(self, apq, zero_exactly):
        # the pair (1, 2) has diff = 1: at apq = 1e-160, theta = 5e159 and
        # theta^2 overflows, so t is the large-angle limit 1 / (2 theta); at
        # 1e-310, |apq| <= 1e-300 |diff| and the pair is zeroed, not rotated.
        # The pair (3, 4) keeps the matrix from counting as converged.
        full = np.zeros((4, 4))
        full[:2, :2] = [[0.0, apq], [apq, 1.0]]
        full[2:, 2:] = [[2.0, 1.0], [1.0, 2.0]]
        result = jacobi_eigenvalues(DenseSymmetric(full))
        assert result.sweeps_used == 1
        np.testing.assert_allclose(result.eigenvalues, [0.0, 1.0, 1.0, 3.0], rtol=0, atol=1e-15)
        assert abs(result.eigenvalues[0]) <= 1e-300
        assert (result.eigenvalues[0] == 0.0) == zero_exactly

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
        permuted = jacobi_eigenvalues(DenseSymmetric(dense.entries[np.ix_(perm, perm)])).eigenvalues
        np.testing.assert_allclose(permuted, base, rtol=0, atol=1e-8)

    @pytest.mark.parametrize(
        "integrand, n",
        [
            pytest.param(integrand, n, id=f"{integrand.label}-{n}")
            for integrand, orders in ((EXP, (64, 127, 128, 256)), (LNGAMMA, (64, 127, 128)))
            for n in orders
        ],
    )
    def test_eigenvalues_against_eigvalsh(self, integrand, n):
        # At the stopping residual r <= tol * ||A||_F, Weyl's inequality puts
        # every diagonal entry within r of its eigenvalue; the factor 2 leaves
        # room for rounding in the rotations.
        dense = materialize(SampledMatrixSpec(integrand, n))
        full = dense.entries
        bound = 2.0 * JACOBI_TOL * math.sqrt(float(np.sum(full * full)))
        got = jacobi_eigenvalues(dense).eigenvalues
        expected = np.linalg.eigvalsh(full)
        assert got.shape == (n,)
        assert float(np.max(np.abs(got - expected))) <= bound

    @pytest.mark.parametrize(
        "full",
        [
            np.zeros((1, 1)),
            np.array([[2.5]]),
            np.zeros((3, 3)),
            np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 0.0]]),
            np.array([[0.0, 0.0, 0.0], [0.0, 1.0, 1.0], [0.0, 1.0, 1.0]]),
            np.pad(np.ones((2, 2)), (0, 3)),
            np.pad(np.ones((2, 2)), (3, 0)),
            np.pad(np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]]), (1, 1)),
        ],
        ids=["zero1", "scalar1", "zero3", "ones2+0", "0+ones2", "ones2+0x3", "0x3+ones2", "0+tridiag3+0"],
    )
    def test_odd_orders_keep_exact_zero_eigenvalues(self, full):
        result = jacobi_eigenvalues(DenseSymmetric(full))
        expected = np.linalg.eigvalsh(full)
        assert result.eigenvalues.shape == (full.shape[0],)
        np.testing.assert_allclose(result.eigenvalues, expected, rtol=0, atol=1e-14)


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

    @pytest.mark.parametrize("n", [MAX_JACOBI_ORDER + 1, 2048, 4096])
    def test_capacity_limit_raises_before_sampling(self, n):
        def unsampled(x):
            raise AssertionError("a row was sampled")

        with pytest.raises(CapacityError, match=f"order {n} exceeds Jacobi limit"):
            spectral_sum_report(Integrand(eval=unsampled, label="unsampled"), n)


class TestIdentityKernelOracle:
    """The kernel min(s, t) / max(s, t) on [0, 1] has the eigenvalues
    mu_k = 8 / j_{1,k}^2, j_{1,k} the positive zeros of the Bessel function
    J_1, so lambda / n of the sampled identity matrix tends to them.  Its
    traces of K^3 and K^4 are the Rayleigh sums 8^3 sum j^-6 = 1/6 and
    8^4 sum j^-8 = 4/45."""

    @pytest.mark.parametrize("n", ORACLE_ORDERS)
    def test_top_eigenvalues_just_above_bessel_limits(self, identity_spectra, n):
        # measured n (lambda_k / n - mu_k): 0.279/0.093/0.057/0.047 at n = 64
        top = np.sort(identity_spectra[n])[::-1][:4]
        for k, value in enumerate(top, start=1):
            mu = 8.0 / float(mpmath.besseljzero(1, k)) ** 2
            assert mu < value <= mu + 0.3 / n, f"k={k}"

    @pytest.mark.parametrize("power, limit", [(3, 1 / 6), (4, 4 / 45)])
    def test_power_sums_approach_rayleigh_sums_from_above(self, identity_spectra, power, limit):
        # measured gaps 0.0040/0.0020/0.0010 (cubes), 0.0029/0.0014/0.0007 (fourth powers)
        gaps = [math.fsum((identity_spectra[n] ** power).tolist()) - limit for n in ORACLE_ORDERS]
        assert all(gap > 0 for gap in gaps)
        for coarse, fine in zip(gaps, gaps[1:]):
            assert 0.4 * coarse <= fine <= 0.6 * coarse
