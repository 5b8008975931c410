import math

import mpmath
import numpy as np
import pytest

from ratiolab.specfun import (
    LN_GAMMA_INTEGRAND,
    duplication_residual,
    euler_reflection_residual,
    gamma_integral_closed_partial,
    gamma_integral_via_matrix,
    gamma_row_log_product,
    gamma_row_log_product_closed,
    ln_gamma,
    sine_half_product_log,
    sine_product_even_residual,
    sine_product_odd_residual,
)

mpmath.mp.dps = 50

LN_SQRT_2PI = 0.5 * math.log(2 * math.pi)


class TestLnGamma:
    def test_gamma_one_and_two_are_zero(self):
        assert abs(ln_gamma(1.0)) <= 1e-13
        assert abs(ln_gamma(2.0)) <= 1e-13

    def test_half_is_log_sqrt_pi(self):
        assert ln_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), abs=1e-13)

    def test_five_is_log_factorial_four(self):
        assert ln_gamma(5.0) == pytest.approx(math.log(24.0), abs=1e-12)

    def test_relative_accuracy_over_working_range(self):
        # evaluator contract: exp(ln_gamma) within 1e-12 of Gamma on [0.01, 30]
        grid = np.geomspace(0.01, 30.0, 120)
        for x in grid:
            exact = mpmath.gamma(mpmath.mpf(float(x)))
            ours = mpmath.exp(mpmath.mpf(ln_gamma(float(x))))
            assert abs(ours / exact - 1) <= 1e-12, f"x={x}"

    def test_domain_errors(self):
        for bad in (0.0, -1.0, -0.5):
            with pytest.raises(ValueError):
                ln_gamma(bad)

    def test_array_path_matches_scalar(self):
        xs = np.array([0.01, 0.3, 0.499, 0.5, 0.75, 1.0, 2.5, 17.0])
        vectorized = LN_GAMMA_INTEGRAND.eval(xs)
        scalar = np.array([float(ln_gamma(float(x))) for x in xs])
        np.testing.assert_allclose(vectorized, scalar, rtol=0, atol=0)

    def test_array_path_domain_error(self):
        for bad in (np.array([0.5, -1.0]), np.array([0.5, math.nan])):
            with pytest.raises(ValueError):
                LN_GAMMA_INTEGRAND.eval(bad)


class TestReflection:
    def test_half_point(self):
        assert abs(euler_reflection_residual(0.5)) <= 1e-12

    @pytest.mark.parametrize("s", [0.25, 0.9])
    def test_spot_points_against_mpmath(self, s):
        assert abs(euler_reflection_residual(s)) <= 1e-12
        lhs = mpmath.loggamma(s) + mpmath.loggamma(1 - s)
        rhs = mpmath.log(mpmath.pi / mpmath.sin(mpmath.pi * s))
        assert abs(lhs - rhs) <= mpmath.mpf("1e-40")

    def test_grid(self):
        for k in range(1, 20):
            assert abs(euler_reflection_residual(k / 20)) <= 1e-12

    def test_domain_errors(self):
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                euler_reflection_residual(bad)


class TestDuplication:
    def test_collapse_at_half(self):
        assert abs(duplication_residual(0.5)) <= 1e-13

    @pytest.mark.parametrize("z", [1.0, 3.7, 2.0, 10.0, 25.0])
    def test_spot_points(self, z):
        assert abs(duplication_residual(z)) <= 1e-12

    def test_domain_errors(self):
        for bad in (0.0, -3.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                duplication_residual(bad)


class TestSineProducts:
    def test_odd_exact_at_one(self):
        # 3 = 4 sin^2(pi/3) = 4 * (3/4)
        assert abs(sine_product_odd_residual(1)) <= 1e-12

    def test_even_exact_at_small_orders(self):
        assert abs(sine_product_even_residual(1)) <= 1e-12
        assert abs(sine_product_even_residual(2)) <= 1e-12

    @pytest.mark.parametrize("n", [2, 50])
    def test_odd_residual_scaled_bound(self, n):
        assert abs(sine_product_odd_residual(n)) <= 1e-10 * (2 * n + 1)

    def test_full_range_both_parities(self):
        for n in range(1, 201):
            assert abs(sine_product_odd_residual(n)) <= 1e-10 * (2 * n + 1)
            assert abs(sine_product_even_residual(n)) <= 1e-10 * (2 * n)

    def test_half_product_closed_form(self):
        # prod_{j<=k/2} sin(j pi / k) = sqrt(k) / sqrt(2)^(k-1), both parities
        for k in range(2, 101):
            ours = math.exp(sine_half_product_log(k))
            closed = math.sqrt(k) / math.sqrt(2.0) ** (k - 1)
            assert ours == pytest.approx(closed, rel=1e-10)

    def test_validation(self):
        with pytest.raises(ValueError):
            sine_product_odd_residual(0)
        with pytest.raises(ValueError):
            sine_product_even_residual(0)
        with pytest.raises(ValueError):
            sine_half_product_log(1)


class TestRowProduct:
    def test_k_two_is_log_sqrt_pi(self):
        assert gamma_row_log_product(2) == pytest.approx(0.5 * math.log(math.pi), abs=1e-13)

    def test_k_three_against_reflection_oracle(self):
        # Gamma(1/3) Gamma(2/3) = pi / sin(pi/3)
        expected = math.log(math.pi / math.sin(math.pi / 3))
        assert gamma_row_log_product(3) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(math.log(2 * math.pi / math.sqrt(3)), abs=1e-14)

    def test_k_hundred_matches_closed_form(self):
        assert gamma_row_log_product(100) == pytest.approx(
            gamma_row_log_product_closed(100), abs=1e-8
        )

    def test_full_range_scaled_bound(self):
        for k in range(2, 513):
            gap = abs(gamma_row_log_product(k) - gamma_row_log_product_closed(k))
            assert gap <= 1e-10 * k, f"k={k}"

    def test_validation(self):
        for fn in (gamma_row_log_product, gamma_row_log_product_closed):
            with pytest.raises(ValueError):
                fn(1)


class TestGammaIntegral:
    def test_closed_partial_at_one_is_zero(self):
        assert gamma_integral_closed_partial(1) == 0.0

    def test_closed_partial_against_mpmath(self):
        for n in (2, 16, 256):
            expected = (
                mpmath.mpf(n) * (n - 1) / 2 * mpmath.log(2 * mpmath.pi)
                - mpmath.log(mpmath.factorial(n))
            ) / n**2
            assert gamma_integral_closed_partial(n) == pytest.approx(
                float(expected), abs=1e-13
            )

    def test_closed_partial_converges(self):
        assert abs(gamma_integral_closed_partial(256) - LN_SQRT_2PI) <= 0.025
        assert abs(gamma_integral_closed_partial(4096) - LN_SQRT_2PI) <= 0.003

    def test_via_matrix_small_orders(self):
        assert abs(gamma_integral_via_matrix(1)) <= 1e-13
        assert gamma_integral_via_matrix(2) == pytest.approx(
            0.25 * math.log(math.pi), abs=1e-12
        )

    @pytest.mark.parametrize("n", [2, 16, 128, 512])
    def test_two_routes_agree(self, n):
        via_matrix = gamma_integral_via_matrix(n)
        closed = gamma_integral_closed_partial(n)
        assert via_matrix == pytest.approx(closed, rel=1e-8)

    def test_validation(self):
        with pytest.raises(ValueError):
            gamma_integral_closed_partial(0)
        with pytest.raises(ValueError):
            gamma_integral_via_matrix(0)
