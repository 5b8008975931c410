import math
import re
import tracemalloc
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ratiolab import specfun
from ratiolab.errors import CapacityError
from ratiolab.farey import farey_sequence
from ratiolab.matrix_core import SUM_BLOCK
from ratiolab.specfun import (
    LNGAMMA,
    LN_2PI,
    MAX_STREAM_ORDER,
    duplication_residual,
    euler_reflection_residual,
    gamma_integral_closed_partial,
    gamma_integral_via_matrix,
    gamma_row_log_product,
    gamma_row_log_product_closed,
    ln_gamma,
    sine_half_product_log,
    sine_product_residual,
)

from oracles import (
    closed_partial,
    gamma_integral_closed_partial_reference,
    gamma_row_log_product_reference,
    ln_gamma_reference,
    sine_half_product_log_reference,
)

mpmath.mp.dps = 50

LN_SQRT_2PI = 0.5 * math.log(2 * math.pi)


def _refuse(*args, **kwargs):
    raise AssertionError("work started before the capacity check")


def _refuse_work(monkeypatch):
    """Make the grid, every numpy term function and the sum refuse to run in specfun."""
    for name in ("_grid", "ln_gamma", "exact_sum"):
        monkeypatch.setattr(specfun, name, _refuse)
    monkeypatch.setattr(specfun, "np", SimpleNamespace(arange=_refuse, log=_refuse, sin=_refuse))


def _sine_terms(k):
    """The sine product's numpy terms over the whole range j <= k/2 at once."""
    return np.log(np.sin(np.arange(1, k // 2 + 1) * math.pi / k))


def _log_terms(n):
    """ln j for j <= n by numpy, over the whole range at once."""
    return np.log(np.arange(1.0, n + 1))


#: Term counts just below, at and just above the grid's slice boundaries.
_BOUNDARY_COUNTS = (SUM_BLOCK - 1, SUM_BLOCK, SUM_BLOCK + 1, 2 * SUM_BLOCK + 1)


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
        for bad in (0.0, -0.0, -1.0, -0.5, math.nan):
            for x in (bad, np.array(bad), np.full((2, 2), bad)):
                with pytest.raises(ValueError):
                    ln_gamma(x)

    def test_array_path_matches_scalar(self):
        xs = np.array([0.01, 0.3, 0.499, 0.5, 0.75, 1.0, 2.5, 17.0])
        vectorized = LNGAMMA.eval(xs)
        scalar = np.array([float(ln_gamma(float(x))) for x in xs])
        np.testing.assert_allclose(vectorized, scalar, rtol=0, atol=0)

    def test_array_path_domain_error(self):
        for bad in (np.array([0.5, -1.0]), np.array([0.5, math.nan])):
            with pytest.raises(ValueError):
                LNGAMMA.eval(bad)

    @pytest.mark.parametrize(
        "x", [5e-324, 3 * 2.0**-1074, 1e-310, math.nextafter(2.0**-1022, 0.0)]
    )
    def test_finite_at_subnormals(self, x):
        # ln Gamma(x) = -ln x + O(x) here; no 1 / x is ever formed, and a
        # RuntimeWarning escaping would fail the suite
        value = float(ln_gamma(x))
        assert math.isfinite(value)
        assert abs(value + math.log(x)) <= 1e-15 * abs(math.log(x))

    def test_calls_no_sine(self, monkeypatch):
        monkeypatch.setattr(np, "sin", _refuse)
        ln_gamma(np.arange(1, 101) / 100)

    @pytest.mark.parametrize("low,high", [(1e-6, 0.5), (0.5, 100.0)], ids=["below-half", "from-half"])
    def test_peak_memory_per_value(self, low, high):
        # the (10, size) array and the result: about 89 bytes per value
        x = np.random.default_rng(0).uniform(low, high, 10**6)
        tracemalloc.start()
        try:
            ln_gamma(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 100 * x.size

    def test_every_fraction_up_to_order_120_against_mpmath(self):
        # the 4,386 distinct j/k with k <= 120, the grid the matrix routes sample
        pairs = farey_sequence(120).fractions
        x = np.unique(pairs[:, 0] / pairs[:, 1])
        exact = np.array([float(mpmath.loggamma(mpmath.mpf(v))) for v in x.tolist()])
        assert x.size == 4386
        assert np.abs(ln_gamma(x) - exact).max() <= 2.5e-15


def _outcome(f, x):
    """Type, shape and bits of f(x), with floating-point warnings silenced."""
    with np.errstate(all="ignore"):
        result = f(x)
    return type(result), np.shape(result), np.asarray(result).tobytes()


def _assert_matches_reference(x):
    before = np.array(x, copy=True)
    assert _outcome(ln_gamma, x) == _outcome(ln_gamma_reference, x)
    assert np.array_equal(np.asarray(x), before) and np.asarray(x).dtype == before.dtype
    with np.errstate(all="ignore"):
        assert not np.shares_memory(ln_gamma(x), x)


def _read_only(a):
    a.setflags(write=False)
    return a


class TestLnGammaBitwise:
    """ln_gamma is bit for bit the plain Lanczos loop of oracles.ln_gamma_reference."""

    def test_every_row_up_to_3000_and_around_4096(self):
        for k in [*range(1, 3001), 4095, 4096, 4097, 8192]:
            row = np.arange(1, k + 1) / k
            assert ln_gamma(row).tobytes() == ln_gamma_reference(row).tobytes(), f"k={k}"

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=0.0, exclude_min=True),
            min_size=1,
            max_size=40,
        )
    )
    @example([5e-324])
    @example([2.0**-1022, 2.0**-1074 * 3])
    @example([0.5, math.nextafter(0.5, 0.0), 1.0, 2.0])
    @example([1e300, 1.0, 3.0, math.nextafter(0.5, 0.0)])
    @example([1.7976931348623157e308, math.inf])
    def test_positive_floats(self, values):
        _assert_matches_reference(np.array(values))
        for value in values[:3]:
            _assert_matches_reference(value)

    @pytest.mark.parametrize(
        "x",
        [
            0.3,
            7,
            np.float64(0.25),
            np.array(0.75),
            np.array([]),
            np.empty((0, 3)),
            np.arange(1, 13).reshape(3, 4) / 12,
            (np.arange(1, 13).reshape(3, 4) / 12).T,
            (np.arange(1, 25) / 8)[::3],
            np.arange(1, 9, dtype=np.float32) / 4,
            [0.125, 0.5, 9.0],
            _read_only(np.arange(1, 65) / 16),
            np.broadcast_to(np.arange(1, 5) / 4, (3, 4)),
        ],
        ids=[
            "float", "int", "numpy-float", "0-d", "empty", "empty-2d", "2d",
            "transposed", "strided", "float32", "list", "read-only", "broadcast",
        ],
    )
    def test_shapes_and_types(self, x):
        _assert_matches_reference(x)


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

    @pytest.mark.parametrize(
        "s", [k / 20 for k in range(11, 20)] + [1 - 2**-30, 1 - 1e-10, 0.9999999999999999]
    )
    def test_symmetric_under_s_to_one_minus_s(self, s):
        # 1 - s is exact for s >= 1/2, so both calls read the same ln Gamma
        # values; only a reference term computed from the rounded pi * s
        # would tell them apart
        assert euler_reflection_residual(s).hex() == euler_reflection_residual(1.0 - s).hex()
        assert abs(euler_reflection_residual(s)) <= 1e-12

    @pytest.mark.parametrize("s", [0.1, 0.25, 0.9])
    def test_detects_a_perturbed_series(self, monkeypatch, s):
        # both ln Gamma values come from the series, the reference from the
        # sine, so an error in the Lanczos numerators shows in the residual
        monkeypatch.setattr(
            specfun, "_LANCZOS_NUMERATORS", specfun._LANCZOS_NUMERATORS * (1 + 1e-9)
        )
        assert abs(euler_reflection_residual(s)) > 1e-10

    def test_domain_errors(self):
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                euler_reflection_residual(bad)

    @pytest.mark.parametrize("s", [5e-324, 1e-320, 1e-310, 5e-309, 6e-309])
    def test_finite_at_subnormals(self, s):
        # pi / sin(pi s) overflows below about 5.6e-309; pi s / sin(pi s) is
        # 1, and ln s (about -700) absorbs the series' ln Gamma(1) = -2^-50,
        # so the residual is exactly 0. A RuntimeWarning would fail the suite
        assert euler_reflection_residual(s) == 0.0


class TestDuplication:
    def test_collapse_at_half(self):
        assert abs(duplication_residual(0.5)) <= 1e-13

    # 1e-310: ln Gamma(z) and ln Gamma(2z) are finite at every positive double
    @pytest.mark.parametrize("z", [1.0, 3.7, 2.0, 10.0, 25.0, 1e-310])
    def test_spot_points(self, z):
        assert abs(duplication_residual(z)) <= 1e-12

    def test_domain_errors(self):
        for bad in (0.0, -3.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                duplication_residual(bad)

    @pytest.mark.parametrize("z", [1.3e305, 1e306, 1e308, 1.7976931348623157e308])
    def test_non_finite_residual_raises(self, z):
        # ln Gamma(2z) overflows; a RuntimeWarning escaping would fail the suite
        with pytest.raises(ValueError, match=re.escape(f"not finite at z = {z!r}")):
            duplication_residual(z)


class TestSineProducts:
    def test_odd_exact_at_one(self):
        # 3 = 4 sin^2(pi/3) = 4 * (3/4)
        assert abs(sine_product_residual(3)) <= 1e-12

    def test_even_exact_at_small_orders(self):
        assert abs(sine_product_residual(2)) <= 1e-12
        assert abs(sine_product_residual(4)) <= 1e-12

    @pytest.mark.parametrize("n", [2, 50])
    def test_odd_residual_scaled_bound(self, n):
        assert abs(sine_product_residual(2 * n + 1)) <= 1e-10 * (2 * n + 1)

    def test_full_range_both_parities(self):
        for n in range(1, 201):
            assert abs(sine_product_residual(2 * n + 1)) <= 1e-10 * (2 * n + 1)
            assert abs(sine_product_residual(2 * n)) <= 1e-10 * (2 * n)

    def test_half_product_closed_form(self):
        # prod_{j<=k/2} sin(j pi / k) = sqrt(k) / sqrt(2)^(k-1), both parities
        for k in range(2, 101):
            ours = math.exp(sine_half_product_log(k))
            closed = math.sqrt(k) / math.sqrt(2.0) ** (k - 1)
            assert ours == pytest.approx(closed, rel=1e-10)

    def test_validation(self):
        with pytest.raises(ValueError, match="k must be >= 2, got 1"):
            sine_product_residual(1)
        with pytest.raises(ValueError, match="k must be >= 2, got 0"):
            sine_product_residual(0)
        with pytest.raises(ValueError):
            sine_half_product_log(1)

    def test_slicing_is_exact(self):
        # the bits of math.fsum over the same numpy terms, computed unsliced
        for k in [*range(2, 1201), *(2 * c + p for c in _BOUNDARY_COUNTS for p in (0, 1)), 10**6]:
            assert sine_half_product_log(k).hex() == math.fsum(_sine_terms(k).tolist()).hex(), k

    def test_within_term_ulps_of_the_libm_loop(self):
        # sin and log are each within an ulp in numpy and in libm.  An ulp of
        # sin moves its log by at most 2^-52, and the two logs of one value
        # differ by at most an ulp of the term; both sums round once, so they
        # differ by at most those bounds plus an ulp of the result.
        for k in range(2, 3001):
            terms = _sine_terms(k)
            bound = np.spacing(np.abs(terms)).sum() + terms.size * 2.0**-52
            ours, libm = sine_half_product_log(k), sine_half_product_log_reference(k)
            assert abs(ours - libm) <= bound + math.ulp(max(abs(ours), abs(libm))), k

    @pytest.mark.parametrize("fn", [sine_half_product_log, sine_product_residual])
    def test_capacity_limit_raises_before_any_term(self, monkeypatch, fn):
        _refuse_work(monkeypatch)
        over = MAX_STREAM_ORDER + 1
        with pytest.raises(CapacityError, match=f"sine product order {over} exceeds budget"):
            fn(over)


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

    def test_bitwise_whole_row_reference(self):
        for k in [*range(2, 3001), *(c + 1 for c in _BOUNDARY_COUNTS), 10**5]:
            assert gamma_row_log_product(k).hex() == gamma_row_log_product_reference(k).hex(), k

    def test_capacity_limit_raises_before_the_row_is_built(self, monkeypatch):
        _refuse_work(monkeypatch)
        over = MAX_STREAM_ORDER + 1
        with pytest.raises(CapacityError, match=f"row product order {over} exceeds budget"):
            gamma_row_log_product(over)


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
        with pytest.raises(ValueError, match="order must be >= 1, got 0"):
            gamma_integral_via_matrix(0)

    def test_closed_partial_slicing_is_exact(self):
        # the bits of math.fsum over the same numpy terms, computed unsliced
        for n in [*range(1, 1201), *_BOUNDARY_COUNTS, 11059, 17500, 10**6]:
            expected = closed_partial(n, math.fsum(_log_terms(n).tolist()))
            assert gamma_integral_closed_partial(n).hex() == expected.hex(), n

    def test_closed_partial_within_term_ulps_of_the_libm_loop(self):
        # the two logs of one integer differ by at most an ulp of the term.
        # The two sums, then the two numerators, each round once, by at most
        # half an ulp of (n(n-1)/2) ln(2 pi); the quotients round once more.
        for n in range(2, 3001):
            log_gap = np.spacing(_log_terms(n)).sum() + 2 * math.ulp(0.5 * n * (n - 1) * LN_2PI)
            ours, libm = gamma_integral_closed_partial(n), gamma_integral_closed_partial_reference(n)
            assert abs(ours - libm) <= log_gap / (n * n) + math.ulp(max(ours, libm)), n

    def test_closed_partial_capacity_limit_raises_before_any_term(self, monkeypatch):
        _refuse_work(monkeypatch)
        over = MAX_STREAM_ORDER + 1
        with pytest.raises(CapacityError, match=f"closed-route order {over} exceeds budget"):
            gamma_integral_closed_partial(over)


@pytest.mark.parametrize(
    "route", [gamma_row_log_product, sine_half_product_log, gamma_integral_closed_partial]
)
def test_streamed_route_memory_stays_at_block_scale(route):
    # one SUM_BLOCK slice and its temporaries, not the 10^6 terms (115 MiB
    # for a whole ln Gamma row)
    tracemalloc.start()
    try:
        route(10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20
