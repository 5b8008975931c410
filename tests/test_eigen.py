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

from oracles import eigenvalues_reference

E = math.e

#: A random symmetric matrix of order 24: a + a^T, a standard normal.
_a = np.random.default_rng(20261019).standard_normal((24, 24))
RANDOM_SYMMETRIC = _a + _a.T


def frobenius_norm(full: np.ndarray) -> float:
    """||A||_F from A / max|a_ij|, whose squares can neither overflow nor underflow."""
    top = float(np.max(np.abs(full)))
    return top * float(np.linalg.norm(full / top)) if top else 0.0


#: Exponents alpha of the integrands x^alpha, and the orders, of TestSpectralLimit.
POWERS = (0.5, 1.0, 1.5, 2.0)
LIMIT_ORDERS = (64, 128, 256, 512)
#: How many of the largest eigenvalues TestSpectralLimit compares with their limits.
TOP = 5
#: Orders of the closed-form oracle for the identity kernel, one doubling apart.
ORACLE_ORDERS = (64, 128, 256)


@pytest.fixture(scope="module")
def power_spectra():
    """lambda / n of materialize(x^alpha, n), descending, for each alpha and limit order."""
    spectra = {}
    for alpha in POWERS:
        integrand = Integrand(eval=lambda x, a=alpha: np.power(x, a), label=f"x^{alpha}")
        for n in LIMIT_ORDERS:
            lam = jacobi_eigenvalues(materialize(SampledMatrixSpec(integrand, n))).eigenvalues
            spectra[alpha, n] = lam[::-1] / n
    return spectra


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

    @pytest.mark.parametrize(
        "entries",
        [
            [[True, False], [False, True]],
            np.array([[1 + 1j, 2], [2, 1]]),
            [["1", "2"], ["2", "1"]],
            np.array([[1, 2], [2, 1]], dtype=object),
        ],
        ids=["bool", "complex", "string", "object"],
    )
    def test_rejects_non_real_dtypes(self, entries):
        with pytest.raises(ValueError, match="entries must have a real dtype, got "):
            DenseSymmetric(entries)

    def test_accepts_lists_of_numbers(self):
        dense = DenseSymmetric([[1, 2.5], [2.5, 3]])
        assert dense.entries.dtype == np.float64
        np.testing.assert_array_equal(dense.entries, [[1.0, 2.5], [2.5, 3.0]])

    def test_rejects_non_finite_entries(self):
        # symmetric and square, so only the finiteness check can reject them
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match="finite"):
                DenseSymmetric(np.array([[1.0, bad], [bad, 2.0]]))


class TestJacobi:
    def test_diagonal_matrix_returns_its_entries_bitwise(self):
        result = jacobi_eigenvalues(DenseSymmetric(np.diag([1.0, 2.0])))
        np.testing.assert_allclose(result.eigenvalues, [1.0, 2.0], rtol=0, atol=0)
        assert result.sweeps_used == 0
        # a diagonal matrix is its own tridiagonal form: every entry comes back bit for bit
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

    def test_eigenvalues_frozen(self):
        result = jacobi_eigenvalues(materialize(SampledMatrixSpec(EXP, 3)))
        assert result.eigenvalues.dtype == np.float64
        with pytest.raises(ValueError):
            result.eigenvalues[0] = 0.0

    def test_eigenvalues_ascending_and_residual_bounded(self):
        # the residuals of the trace and of the squared Frobenius norm, which
        # the reduction to tridiagonal form preserves, up to orders where the
        # mpmath reference would take seconds to minutes
        for integrand, n in ((EXP, 48), (EXP, 127), (EXP, 128), (EXP, 256), (LNGAMMA, 127), (LNGAMMA, 128)):
            dense = materialize(SampledMatrixSpec(integrand, n))
            lam = jacobi_eigenvalues(dense).eigenvalues
            assert lam.shape == (n,)
            assert np.all(np.diff(lam) >= 0)
            fro_sq = math.fsum((dense.entries**2).ravel().tolist())
            trace = n * integrand.eval(1.0)
            assert abs(math.fsum(lam.tolist()) - trace) <= 1e-13 * math.sqrt(fro_sq), (integrand.label, n)
            assert abs(math.fsum((lam * lam).tolist()) - fro_sq) <= 1e-13 * fro_sq, (integrand.label, n)

    @pytest.mark.parametrize(
        "full",
        [
            np.array([[0.0, 1e308], [1e308, 0.0]]),
            np.ones((7, 7)),
            np.diag([1.0, 2.0]) + np.diag([1e-300], 1) + np.diag([1e-300], -1),
            np.diag([1e300, -1e-300, 1e-300, -1e300]) + np.eye(4, k=1) + np.eye(4, k=-1),
            RANDOM_SYMMETRIC * 1e300,
            RANDOM_SYMMETRIC * 1e-300,
        ],
        ids=["antidiagonal-1e308", "ones7", "tiny-coupling", "diagonal-1e300-mixed-signs",
             "random-1e300", "random-1e-300"],
    )
    def test_backward_stable_at_extreme_scales(self, full):
        # LAPACK reports no step count, so sweeps_used is 0; the eigenvalues are
        # backward stable: within a small multiple of eps ||A||_F.  In the mixed-sign
        # case that is 1.4e287, so it says nothing of the middle eigenvalues +-1
        result = jacobi_eigenvalues(DenseSymmetric(full))
        assert result.sweeps_used == 0
        expected = eigenvalues_reference(full)
        assert float(np.max(np.abs(result.eigenvalues - expected))) <= 1e-13 * frobenius_norm(full)

    def test_capacity_limit_raises_at_once(self):
        n = MAX_EIGEN_ORDER + 1
        with pytest.raises(CapacityError, match=f"order {n} exceeds eigen limit"):
            jacobi_eigenvalues(DenseSymmetric(np.zeros((n, n))))

    @pytest.mark.parametrize(
        "coupling", [1e-160, 1e-310], ids=["square-subnormal", "square-underflows"]
    )
    def test_tiny_coupling_next_to_a_coupled_block(self, coupling):
        # the eigenvalue near 0 is -coupling^2: subnormal at 1e-160, and 0
        # in float64 at 1e-310
        full = np.zeros((4, 4))
        full[:2, :2] = [[0.0, coupling], [coupling, 1.0]]
        full[2:, 2:] = [[2.0, 1.0], [1.0, 2.0]]
        result = jacobi_eigenvalues(DenseSymmetric(full))
        np.testing.assert_allclose(result.eigenvalues, [0.0, 1.0, 1.0, 3.0], rtol=0, atol=1e-15)

    @pytest.mark.parametrize("t", [1e-155, 1e-160, 1e-170])
    def test_tiny_first_row_survives_tridiagonal_reduction(self, t):
        # LAPACK reduces the matrix to tridiagonal form by Householder steps;
        # the squares of the first row's off-diagonal entries are subnormal or
        # 0, so the first step must scale that row before it takes its norm
        full = np.array([[1.0, t, t], [t, 1.0, 0.5], [t, 0.5, 1.0]])
        got = jacobi_eigenvalues(DenseSymmetric(full)).eigenvalues
        np.testing.assert_allclose(got, [0.5, 1.0, 1.5], rtol=0, atol=1e-15 * np.linalg.norm(full))

    @pytest.mark.parametrize("s", [1e308, 1e200, 1e-200, 1e-310])
    def test_antidiagonal_at_extreme_scales(self, s):
        # s^2 overflows at 1e200 and underflows at 1e-200, so LAPACK must
        # scale the matrix into range before it squares an entry
        lam = jacobi_eigenvalues(DenseSymmetric(np.array([[0.0, s], [s, 0.0]]))).eigenvalues
        np.testing.assert_allclose(lam, [-s, s], rtol=1e-15, atol=0)

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_order_two_closed_form_for_every_preset(self, name):
        # [[a, b], [b, a]] has the eigenvalues a -/+ |b|; lngamma has a = 0
        # and const1 a = b
        full = materialize(SampledMatrixSpec(PRESETS[name], 2)).entries
        a, b = full[0, 0], abs(full[0, 1])
        got = jacobi_eigenvalues(DenseSymmetric(full)).eigenvalues
        np.testing.assert_allclose(got, [a - b, a + b], rtol=0, atol=1e-15 * math.hypot(a, b))

    @pytest.mark.parametrize("k", range(1, 11))
    def test_sylvester_spectrum(self, k):
        # H H^T = n I and H is symmetric: -sqrt(n) and sqrt(n), each n / 2 times
        n = 2**k
        lam = jacobi_eigenvalues(DenseSymmetric(sylvester(k).entries)).eigenvalues
        expected = np.repeat([-math.sqrt(n), math.sqrt(n)], n // 2)
        np.testing.assert_allclose(lam, expected, rtol=0, atol=1e-15 * n)

    @given(data=st.data(), n=st.integers(min_value=1, max_value=40))
    @settings(max_examples=60, deadline=None)
    def test_matches_eigvalsh_on_random_symmetric_matrices(self, data, n):
        # eigvalsh is the solver; mpmath is the reference.  hypothesis fills
        # most of the array with one repeated value; some rows and columns
        # are then zeroed
        values = st.one_of(st.sampled_from([0.0, 1.0, -0.5]), st.floats(-1e3, 1e3))
        upper = data.draw(hnp.arrays(np.float64, (n, n), elements=values))
        full = np.triu(upper) + np.triu(upper, 1).T
        zero = data.draw(hnp.arrays(bool, n))
        full[zero, :] = 0.0
        full[:, zero] = 0.0
        result = jacobi_eigenvalues(DenseSymmetric(full))
        bound = 1e-13 * frobenius_norm(full)
        assert float(np.max(np.abs(result.eigenvalues - eigenvalues_reference(full)))) <= bound

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
        # the eigvalsh eigenvalues against an enclosure from np.linalg.eigh, whose
        # divide and conquer is not the root-free QR that eigvalsh runs on the same
        # tridiagonal form.  With A V - V W = R and ||V^T V - I||_2 = delta < 1,
        # Weyl's theorem on the polar factor of V puts the i-th eigenvalue of A
        # within (||R||_2 + 2 delta max|w|) / (1 - delta) of w_i: measured worst,
        # with the distance to w added, 1.1e-14 ||A||_F at exp-256.  At order 64
        # the mpmath reference checks them too (measured worst 1.1e-15 ||A||_F);
        # above it mpmath takes 10 s and more
        dense = materialize(SampledMatrixSpec(integrand, n))
        full = dense.entries
        bound = 1e-13 * math.sqrt(float(np.sum(full * full)))
        result = jacobi_eigenvalues(dense)
        assert result.eigenvalues.shape == (n,)
        w, v = np.linalg.eigh(full)
        delta = float(np.linalg.norm(v.T @ v - np.eye(n), 2))
        residual = float(np.linalg.norm(full @ v - v * w, 2))
        enclosure = (residual + 2 * delta * float(np.max(np.abs(w)))) / (1 - delta)
        assert float(np.max(np.abs(result.eigenvalues - w))) + enclosure <= bound
        if n <= 64:
            expected = eigenvalues_reference(full)
            assert float(np.max(np.abs(result.eigenvalues - expected))) <= bound

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
        expected = eigenvalues_reference(full)
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

    @pytest.mark.parametrize("integrand", [EXP, LNGAMMA], ids=["exp", "lngamma"])
    def test_square_sum_matches_entrywise_route_at_the_limit(self, integrand):
        # criterion 8's dual route at MAX_EIGEN_ORDER: measured gaps 7e-16 (exp), 3.1e-15 (lngamma)
        n = MAX_EIGEN_ORDER
        sums = spectral_sum_report(integrand, n)
        assert sums.sum_sq == pytest.approx(norm_power(SampledMatrixSpec(integrand, n), 2.0), rel=1e-8)

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


class TestSpectralLimit:
    """For f(x) = x^alpha, A / n is the Nystrom matrix of the kernel
    f(min(s, t) / max(s, t)) on [0, 1] at the nodes j / n.  The change of
    variable x = e^-s turns that kernel into e^(-alpha |s - t|), the Green's
    function of (alpha^2 - d^2/ds^2) / (2 alpha) on [0, inf) with
    J_(2 alpha - 1)(z) = 0 at s = 0, so lambda_k / n tends to
    mu_k = 8 alpha / j_(2 alpha - 1, k)^2, with an error close to c_k / n.
    Rayleigh's sums of Bessel zeros (Watson, section 15.51) give
    sum mu^2 = 1 / (2 alpha + 1), sum mu^3 = 1 / ((2 alpha + 1) (alpha + 1)) and
    sum mu^4 = (10 alpha + 6) / ((2 alpha + 1)^2 (2 alpha + 2) (2 alpha + 3)).
    At alpha = 1 the matrix is bitwise the identity preset's, and the sums
    of cubes and fourth powers are 1/6 and 4/45."""

    @staticmethod
    def limits(alpha):
        return np.array(
            [8 * alpha / float(mpmath.besseljzero(2 * alpha - 1, k)) ** 2 for k in range(1, TOP + 1)]
        )

    @pytest.mark.parametrize("alpha", POWERS)
    def test_richardson_value_matches_bessel_limits(self, power_spectra, alpha):
        # three points cancel errors a / n + b / n^2; measured worst gaps
        # 2.3e-9, 9.7e-8, 2.9e-7 and 1.1e-7 for alpha = 1/2, 1, 3/2, 2
        quarter, half, full = (power_spectra[alpha, n][:TOP] for n in LIMIT_ORDERS[-3:])
        extrapolated = (8 * full - 6 * half + quarter) / 3
        np.testing.assert_allclose(extrapolated, self.limits(alpha), rtol=0, atol=5e-7)

    @pytest.mark.parametrize("alpha, c", [(0.5, 0.35), (1.0, 0.3), (1.5, 0.24), (2.0, 0.21)])
    def test_top_eigenvalues_just_above_bessel_limits(self, power_spectra, alpha, c):
        # measured n (lambda_k / n - mu_k): 0.008 to 0.346 (alpha = 1/2),
        # 0.019 to 0.279, 0.023 to 0.236 and 0.026 to 0.207 (alpha = 2)
        mu = self.limits(alpha)
        for n in LIMIT_ORDERS:
            top = power_spectra[alpha, n][:TOP]
            assert np.all(mu < top) and np.all(top <= mu + c / n), n

    @pytest.mark.parametrize("alpha", POWERS)
    def test_plain_error_halves_with_each_doubling(self, power_spectra, alpha):
        # measured ratios of the largest error among the top 5: 1.997 to 2.049
        mu = self.limits(alpha)
        errors = [np.max(np.abs(power_spectra[alpha, n][:TOP] - mu)) for n in LIMIT_ORDERS]
        for coarse, fine in zip(errors, errors[1:]):
            assert 1.9 <= coarse / fine <= 2.1

    @pytest.mark.parametrize("power", [2, 3, 4])
    @pytest.mark.parametrize("alpha", POWERS)
    def test_power_sums_approach_rayleigh_sums_from_above(self, power_spectra, alpha, power):
        # measured ratios of successive gaps: 0.46 to 0.50
        a = 2 * alpha
        limit = {
            2: 1 / (a + 1),
            3: 2 / ((a + 1) * (a + 2)),
            4: (5 * a + 6) / ((a + 1) ** 2 * (a + 2) * (a + 3)),
        }[power]
        gaps = [
            math.fsum((power_spectra[alpha, n] ** power).tolist()) - limit for n in LIMIT_ORDERS
        ]
        assert all(gap > 0 for gap in gaps)
        for coarse, fine in zip(gaps, gaps[1:]):
            assert 0.4 * coarse <= fine <= 0.6 * coarse
