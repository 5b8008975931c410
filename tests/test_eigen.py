import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ratiolab import eigen
from ratiolab.eigen import (
    MAX_EIGEN_ORDER,
    DenseSymmetric,
    jacobi_eigenvalues,
    materialize,
    spectral_sum_report,
)
from ratiolab.errors import CapacityError
from ratiolab.hadamard import sylvester
from ratiolab.integrands import EXP, IDENTITY, LNGAMMA, PRESETS
from ratiolab.matrix_core import Integrand, SampledMatrixSpec, matrix_entry, norm_power

E = math.e
#: Multisection steps that take a bracket from the Gershgorin width 2 ||T|| to the
#: floor eps ||T||: each step cuts it 16-fold, and 2 / eps = 2^53.
STEP_BOUND = math.ceil((np.finfo(np.float64).nmant + 1) / 4)

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
        n = MAX_EIGEN_ORDER + 1
        with pytest.raises(CapacityError, match=f"order {n} exceeds eigen limit"):
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
        # split at the exact zeros: every lone diagonal entry comes back bit for bit
        diagonal = [0.1, -3.0, 0.0, 2.0**-40, 7.25]
        result = jacobi_eigenvalues(DenseSymmetric(np.diag(diagonal)))
        assert result.eigenvalues.tolist() == sorted(diagonal)
        assert result.sweeps_used == 0

    def test_antidiagonal_two_by_two(self):
        result = jacobi_eigenvalues(DenseSymmetric(np.array([[0.0, 1.0], [1.0, 0.0]])))
        np.testing.assert_allclose(result.eigenvalues, [-1.0, 1.0], atol=1e-15)

    def test_sampled_two_by_two_closed_form(self):
        dense = materialize(SampledMatrixSpec(EXP, 2))
        result = jacobi_eigenvalues(dense)
        expected = [E - math.sqrt(E), E + math.sqrt(E)]
        np.testing.assert_allclose(result.eigenvalues, expected, rtol=1e-12)

    def test_eigenvalues_ascending_and_residual_bounded(self):
        # the residuals of the trace and of the squared Frobenius norm, which
        # the reduction to tridiagonal form preserves
        dense = materialize(SampledMatrixSpec(EXP, 48))
        lam = jacobi_eigenvalues(dense).eigenvalues
        assert np.all(np.diff(lam) >= 0)
        fro_sq = math.fsum((dense.entries**2).ravel().tolist())
        assert abs(math.fsum(lam.tolist()) - 48 * E) <= 1e-13 * math.sqrt(fro_sq)
        assert abs(math.fsum((lam * lam).tolist()) - fro_sq) <= 1e-13 * fro_sq

    @pytest.mark.parametrize(
        "full",
        [
            np.array([[0.0, 1e308], [1e308, 0.0]]),
            np.ones((7, 7)),
            np.diag([1.0, 2.0]) + np.diag([1e-300], 1) + np.diag([1e-300], -1),
        ],
        ids=["antidiagonal-1e308", "ones7", "tiny-coupling"],
    )
    def test_steps_stay_within_their_bound(self, full):
        assert jacobi_eigenvalues(DenseSymmetric(full)).sweeps_used <= STEP_BOUND

    def test_capacity_limit_raises_at_once(self):
        n = MAX_EIGEN_ORDER + 1
        with pytest.raises(CapacityError, match=f"order {n} exceeds eigen limit"):
            jacobi_eigenvalues(DenseSymmetric(np.zeros((n, n))))

    @pytest.mark.parametrize(
        "coupling", [1e-160, 1e-310], ids=["square-subnormal", "square-underflows"]
    )
    def test_tiny_coupling_next_to_a_coupled_block(self, coupling):
        # the eigenvalue near 0 is -coupling^2: at 1e-160 its square is
        # subnormal, at 1e-310 it underflows to 0 in the Sturm recurrence
        full = np.zeros((4, 4))
        full[:2, :2] = [[0.0, coupling], [coupling, 1.0]]
        full[2:, 2:] = [[2.0, 1.0], [1.0, 2.0]]
        result = jacobi_eigenvalues(DenseSymmetric(full))
        np.testing.assert_allclose(result.eigenvalues, [0.0, 1.0, 1.0, 3.0], rtol=0, atol=1e-15)

    @pytest.mark.parametrize("t", [1e-155, 1e-160, 1e-170])
    def test_tiny_row_is_reflected_without_underflow(self, t):
        # the first row's tail is reflected away; the squares of its entries
        # are subnormal or 0, so the reflector is built from the row / max|row|
        full = np.array([[1.0, t, t], [t, 1.0, 0.5], [t, 0.5, 1.0]])
        got = jacobi_eigenvalues(DenseSymmetric(full)).eigenvalues
        np.testing.assert_allclose(got, [0.5, 1.0, 1.5], rtol=0, atol=1e-15 * np.linalg.norm(full))

    @pytest.mark.parametrize("s", [1e308, 1e200, 1e-200, 1e-310])
    def test_antidiagonal_at_extreme_scales(self, s):
        # s^2 overflows at 1e200 and underflows at 1e-200; the scaled solver squares neither
        lam = jacobi_eigenvalues(DenseSymmetric(np.array([[0.0, s], [s, 0.0]]))).eigenvalues
        np.testing.assert_allclose(lam, [-s, s], rtol=1e-15, atol=0)

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_order_two_closed_form_for_every_preset(self, name):
        # [[a, b], [b, a]] has the eigenvalues a -/+ |b|; for lngamma (a = 0)
        # and const1 (a = b) the first bracket's midpoint is a, where the
        # first Sturm pivot is exactly 0
        full = materialize(SampledMatrixSpec(PRESETS[name], 2)).entries
        a, b = full[0, 0], abs(full[0, 1])
        got = jacobi_eigenvalues(DenseSymmetric(full)).eigenvalues
        np.testing.assert_allclose(got, [a - b, a + b], rtol=0, atol=1e-15 * math.hypot(a, b))

    @pytest.mark.parametrize("k", range(1, 7))
    def test_sylvester_spectrum(self, k):
        # H H^T = n I and H is symmetric: -sqrt(n) and sqrt(n), each n / 2 times
        n = 2**k
        lam = jacobi_eigenvalues(DenseSymmetric(sylvester(k).entries)).eigenvalues
        expected = np.repeat([-math.sqrt(n), math.sqrt(n)], n // 2)
        np.testing.assert_allclose(lam, expected, rtol=0, atol=1e-15 * n)

    @given(data=st.data(), n=st.integers(min_value=1, max_value=40))
    @settings(max_examples=60, deadline=None)
    def test_matches_eigvalsh_on_random_symmetric_matrices(self, data, n):
        # hypothesis fills most of the array with one repeated value; some rows
        # and columns are then zeroed
        values = st.one_of(st.sampled_from([0.0, 1.0, -0.5]), st.floats(-1e3, 1e3))
        upper = data.draw(hnp.arrays(np.float64, (n, n), elements=values))
        full = np.triu(upper) + np.triu(upper, 1).T
        zero = data.draw(hnp.arrays(bool, n))
        full[zero, :] = 0.0
        full[:, zero] = 0.0
        result = jacobi_eigenvalues(DenseSymmetric(full))
        top = float(np.max(np.abs(full)))  # ||A||_F from A / top, whose squares cannot underflow
        bound = 1e-13 * top * float(np.linalg.norm(full / top)) if top else 0.0
        assert float(np.max(np.abs(result.eigenvalues - np.linalg.eigvalsh(full)))) <= bound
        assert result.sweeps_used <= STEP_BOUND

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
        # both solvers are backward stable: measured worst 1.6e-15 ||A||_F
        dense = materialize(SampledMatrixSpec(integrand, n))
        full = dense.entries
        bound = 1e-13 * math.sqrt(float(np.sum(full * full)))
        result = jacobi_eigenvalues(dense)
        expected = np.linalg.eigvalsh(full)
        assert result.eigenvalues.shape == (n,)
        assert float(np.max(np.abs(result.eigenvalues - expected))) <= bound
        assert result.sweeps_used <= STEP_BOUND

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

    @pytest.mark.parametrize("n", [MAX_EIGEN_ORDER + 1, 2048, 4096])
    def test_capacity_limit_raises_before_sampling(self, n):
        def unsampled(x):
            raise AssertionError("a row was sampled")

        with pytest.raises(CapacityError, match=f"order {n} exceeds eigen limit"):
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
