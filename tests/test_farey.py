import itertools
import math
import tracemalloc
from dataclasses import fields
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ratiolab import farey
from ratiolab.errors import CapacityError, EvaluationError
from ratiolab.farey import (
    MAX_FAREY_ORDER,
    MAX_SIEVE_LIMIT,
    MAX_WEYL_ORDER,
    FareySequence,
    TotientTable,
    _coprime_rows,
    coprime_density,
    farey_sequence,
    phi_summatory,
    totient_sieve,
    weyl_average,
)
from ratiolab.integrands import CONST1, EXP, IDENTITY, PRESETS
from ratiolab.matrix_core import SUM_BLOCK, Integrand
from ratiolab.specfun import LN_2PI, LN_SQRT_2PI, LNGAMMA

from oracles import (
    brute_farey,
    chebyshev_psi,
    coprime_pair_count,
    coprime_row,
    farey_sequence_reference,
    linear_totients,
    mobius,
    phi_by_mobius,
    totient_direct,
    von_mangoldt,
)

E = math.e


@pytest.fixture(scope="module")
def mobius_table() -> list[int]:
    return mobius(MAX_SIEVE_LIMIT)


@pytest.fixture(scope="module")
def linear_table() -> list[int]:
    return linear_totients(10**6)


def around_squares(primes) -> list[int]:
    """p^2 - 1, p^2 and p^2 + 1 for each p: the orders at which p joins the
    primes <= sqrt(x) that the sieve and the row walk divide out."""
    return [n for p in primes for n in (p * p - 1, p * p, p * p + 1)]


def pairs(sequence: FareySequence) -> list[tuple[int, int]]:
    return [(b, c) for b, c in sequence.fractions.tolist()]


def reference_mean(integrand: Integrand, x: int) -> float:
    """math.fsum of the integrand over the reference Farey fractions of order x, over their count."""
    fractions = farey_sequence_reference(x)
    values = integrand.eval(fractions[:, 0] / fractions[:, 1])
    return math.fsum(values.tolist()) / fractions.shape[0]


class TestTotientSieve:
    def test_base_cases(self):
        table = totient_sieve(1)
        assert table.values.tolist() == [0, 1]
        assert totient_sieve(10).values[10] == 4
        assert totient_sieve(10).values.dtype == np.int32

    def test_limit_is_derived_from_values(self):
        assert [f.name for f in fields(TotientTable)] == ["values"]
        for x in (1, 2, 10, 97):
            assert totient_sieve(x).limit == x

    def test_primes_have_totient_p_minus_one(self):
        values = totient_sieve(50).values
        for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
            assert values[p] == p - 1

    def test_matches_direct_count(self):
        values = totient_sieve(100).values
        for n in range(1, 101):
            assert values[n] == totient_direct(n)

    @pytest.mark.parametrize(
        "x", sorted({1, 2, 3, 4, 10, 1000, 99991, 10**6, *around_squares((2, 3, 5, 7, 31, 997))})
    )
    def test_matches_linear_sieve(self, linear_table, x):
        assert totient_sieve(x).values.tolist() == linear_table[: x + 1]

    @given(x=st.integers(min_value=1, max_value=5000))
    @settings(max_examples=50, deadline=None)
    def test_matches_linear_sieve_property(self, x):
        assert totient_sieve(x).values.tolist() == linear_totients(x)

    def test_peak_memory_stays_near_the_result(self):
        # the table is the int32 phi itself; the peak adds the int32 cofactors
        # and the boolean rest <= 1 mask: 2.250x the table at 10^6
        tracemalloc.start()
        try:
            table = totient_sieve(10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.3 * table.values.nbytes

    def test_divisor_sum_identity(self):
        values = totient_sieve(200).values
        for n in range(1, 201):
            assert sum(values[d] for d in range(1, n + 1) if n % d == 0) == n

    def test_values_frozen(self):
        table = totient_sieve(10)
        with pytest.raises(ValueError):
            table.values[4] = 3

    def test_validation_and_capacity(self):
        with pytest.raises(ValueError):
            totient_sieve(0)
        with pytest.raises(CapacityError):
            totient_sieve(MAX_SIEVE_LIMIT + 1)


class TestPhiSummatory:
    def test_small_values(self):
        assert phi_summatory(1) == 1
        assert phi_summatory(5) == 10  # 1 + 1 + 2 + 2 + 4

    def test_matches_pair_enumeration(self):
        for x in (5, 17, 60):
            assert phi_summatory(x) == len(brute_farey(x))

    def test_asymptotic_density(self):
        assert abs(phi_summatory(1000) / 1e6 - 3 / math.pi**2) <= 0.005

    @pytest.mark.parametrize("x", [99991, 10**6, MAX_SIEVE_LIMIT])
    def test_matches_mobius_oracle(self, mobius_table, x):
        assert phi_summatory(x) == phi_by_mobius(x, mobius_table)


class TestCoprimeRows:
    @pytest.mark.parametrize("x", [*around_squares((2, 3, 7, 31)), 3000])
    def test_matches_gcd_oracle(self, x):
        rows = list(_coprime_rows(x))
        assert [c for c, _ in rows] == list(range(1, x + 1))
        for c, b in rows:
            assert b.dtype == np.int64
            np.testing.assert_array_equal(b, coprime_row(c))


class TestFareySequence:
    def test_order_one(self):
        seq = farey_sequence(1)
        assert seq.fractions.tolist() == [[1, 1]]
        assert seq.count == 1

    def test_count_is_derived_from_fractions(self):
        # order and count are read off the one stored array: its first row is 1/x
        assert [f.name for f in fields(FareySequence)] == ["fractions"]
        for x in (1, 2, 5, 4096, 4097):
            seq = farey_sequence(x)
            assert seq.order == x
            assert seq.count == seq.fractions.shape[0]

    def test_order_three(self):
        assert farey_sequence(3).fractions.tolist() == [[1, 3], [1, 2], [2, 3], [1, 1]]

    def test_order_five_endpoints_and_count(self):
        seq = farey_sequence(5)
        assert seq.count == 10
        assert seq.fractions[0].tolist() == [1, 5]
        assert seq.fractions[-1].tolist() == [1, 1]

    def test_matches_bruteforce_enumeration(self):
        for x in range(1, 41):
            assert pairs(farey_sequence(x)) == brute_farey(x)

    def test_count_matches_phi_summatory(self):
        for x in range(1, 151):
            assert farey_sequence(x).count == phi_summatory(x)

    @given(x=st.integers(min_value=1, max_value=150))
    @settings(max_examples=40, deadline=None)
    def test_neighbor_determinant_property(self, x):
        previous = None
        for b, c in pairs(farey_sequence(x)):
            assert 0 < b <= c <= x
            assert math.gcd(b, c) == 1
            if previous is not None:
                assert b * previous[1] - previous[0] * c == 1
            previous = (b, c)

    def test_matches_float_sort_reference_up_to_300(self):
        for x in range(1, 301):
            np.testing.assert_array_equal(farey_sequence(x).fractions, farey_sequence_reference(x))

    @pytest.mark.parametrize(
        "x",
        # the keyed lower half, (Phi(x) - 1) // 2, first exceeds one SUM_BLOCK
        # slice of keys at 464, and the key width w = x.bit_length() steps up
        # at 4096
        [
            *around_squares((2, 3, 7, 31)),
            *(328, 329, 463, 464, 1000, 2000, 4095, 4096, 4097, MAX_FAREY_ORDER),
        ],
    )
    def test_matches_float_sort_reference(self, x):
        fractions = farey_sequence(x).fractions
        assert fractions.dtype == np.int32
        np.testing.assert_array_equal(fractions, farey_sequence_reference(x))

    @given(x=st.integers(min_value=1, max_value=3000))
    @settings(max_examples=15, deadline=None)
    def test_matches_float_sort_reference_property(self, x):
        np.testing.assert_array_equal(farey_sequence(x).fractions, farey_sequence_reference(x))

    def test_neighbor_determinants_vectorized(self):
        # exact integer determinants check the integer-key sort independently
        # of the references, which sort by the float b/c
        fractions = farey_sequence(2000).fractions
        b, c = fractions[:, 0], fractions[:, 1]
        assert np.all(b[1:] * c[:-1] - b[:-1] * c[1:] == 1)
        assert fractions.shape[0] == phi_summatory(2000)

    @pytest.mark.parametrize("block", [1, 2, 7])
    def test_unpacks_across_slice_boundaries(self, monkeypatch, block):
        # pairs are unpacked one SUM_BLOCK slice of keys at a time, each
        # over its own keys
        monkeypatch.setattr(farey, "SUM_BLOCK", block)
        for x in range(1, 61):
            assert pairs(farey_sequence(x)) == brute_farey(x)

    def test_peak_memory_stays_near_the_result(self):
        # the keys are sorted and unpacked inside the returned pairs, so the
        # peak is the pairs plus the one reused SUM_BLOCK buffer of keys and
        # the coprime walk's rows: 1.137x the pairs at x = 1000
        tracemalloc.start()
        try:
            seq = farey_sequence(1000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.15 * seq.fractions.nbytes

    def test_fractions_frozen(self):
        seq = farey_sequence(5)
        with pytest.raises(ValueError):
            seq.fractions[0, 0] = 2

    def test_mean_is_closed_form_in_exact_arithmetic(self):
        for x in (1, 2, 3, 5, 17, 50, 120):
            seq = farey_sequence(x)
            total = sum(Fraction(b, c) for b, c in pairs(seq))
            assert total / seq.count == Fraction(seq.count + 1, 2 * seq.count)

    def test_validation(self):
        with pytest.raises(ValueError):
            farey_sequence(0)

    def test_capacity_limit(self):
        with pytest.raises(CapacityError):
            farey_sequence(MAX_FAREY_ORDER + 1)


class TestWeylAverage:
    def test_order_one_returns_f_of_one(self):
        assert weyl_average(EXP, 1) == math.exp(1.0)
        assert weyl_average(CONST1, 1) == 1.0

    def test_identity_at_five_is_eleven_twentieths(self):
        assert weyl_average(IDENTITY, 5) == pytest.approx(0.55, abs=1e-14)

    def test_exp_converges_to_integral(self):
        assert abs(weyl_average(EXP, 200) - (E - 1)) <= 0.02

    def test_streaming_agrees_bitwise_with_materialized(self):
        x = 500
        sequence = farey_sequence(x)
        materialized = (
            math.fsum(float(EXP.eval(b / c)) for b, c in pairs(sequence))
            / sequence.count
        )
        assert weyl_average(EXP, x).hex() == materialized.hex()

    @pytest.mark.parametrize("x", [1, 2, 17, 500])
    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_streaming_agrees_bitwise_with_materialized_per_preset(self, name, x):
        integrand = PRESETS[name]
        sequence = farey_sequence(x)
        materialized = (
            math.fsum(float(integrand.eval(b / c)) for b, c in pairs(sequence))
            / sequence.count
        )
        assert weyl_average(integrand, x).hex() == materialized.hex()

    @pytest.mark.parametrize("x", [328, 329, 330])
    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_batches_agree_bitwise_with_reference(self, name, x):
        # the stream closes its first batch of SUM_BLOCK or more values at
        # row 329: at 328 it is all tail, at 329 it ends on that batch, and
        # at 330 one more row follows it
        assert phi_summatory(328) < SUM_BLOCK <= phi_summatory(329)
        assert weyl_average(PRESETS[name], x).hex() == reference_mean(PRESETS[name], x).hex()

    @pytest.mark.parametrize("x", [40, 41])
    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_batch_of_exactly_sum_block_values(self, monkeypatch, name, x):
        # with the batch size lowered to Phi(40), the first batch ends on
        # exactly that many values at x = 40, and one row follows it at 41
        block = phi_summatory(40)
        monkeypatch.setattr(farey, "SUM_BLOCK", block)
        sizes = []

        def recording(t):
            sizes.append(t.size)
            return PRESETS[name].eval(t)

        average = weyl_average(Integrand(eval=recording, label=name), x)
        assert sizes == ([block] if x == 40 else [block, phi_summatory(41) - block])
        assert average.hex() == reference_mean(PRESETS[name], x).hex()

    def test_one_eval_call_per_batch(self):
        sizes = []

        def recording(t):
            sizes.append(t.size)
            return np.exp(t)

        weyl_average(Integrand(eval=recording, label="recording"), 2000)
        assert sum(sizes) == phi_summatory(2000)
        assert all(size >= SUM_BLOCK for size in sizes[:-1])
        assert all(size < SUM_BLOCK + 2000 for size in sizes)

    @pytest.mark.parametrize(
        "label,values",
        [
            ("inf", lambda x: np.where(x == 0.5, np.inf, x)),
            ("nan", lambda x: np.where(x == 0.5, np.nan, x)),
            ("big", lambda x: np.full_like(x, 1e308)),
        ],
        ids=["inf", "nan", "big"],
    )
    def test_non_finite_sum_raises_evaluation_error(self, label, values):
        # inf and nan at 1/2 reach the sum; a constant 1e308 overflows it
        with pytest.raises(EvaluationError, match=f"'{label}' over order 5 "):
            weyl_average(Integrand(eval=values, label=label), 5)

    def test_validation(self):
        with pytest.raises(ValueError):
            weyl_average(EXP, 0)

    def test_capacity_limit_raises_without_sampling(self):
        calls = []

        def counting(x):
            calls.append(np.size(x))
            return np.exp(x)

        with pytest.raises(CapacityError):
            weyl_average(Integrand(eval=counting, label="counting"), MAX_WEYL_ORDER + 1)
        assert calls == []

    def test_error_trend_along_doubling_orders(self):
        # equidistribution error fluctuates (it crosses zero), so assert the
        # endpoint improves and every point stays within the coarse bound
        errors = [abs(weyl_average(EXP, x) - (E - 1)) for x in (50, 100, 200, 400)]
        assert all(err <= 0.01 for err in errors)
        assert errors[-1] <= 1.1 * errors[0]


class TestLnGammaOverFarey:
    """Gauss's multiplication formula, inverted over the divisors of c, gives
    for c >= 2 the coprime row sum
    sum_{b<c, gcd(b,c)=1} ln Gamma(b/c) = (phi(c)/2) ln 2 pi - Lambda(c)/2,
    with Lambda von Mangoldt's function.  Summed over 2 <= c <= x, plus
    ln Gamma(1) = 0 for 1/1, the Farey average of ln Gamma is
    1/2 ln 2 pi - (ln 2 pi + psi(x)) / (2 Phi(x)): it tends to the integral
    1/2 ln 2 pi from below, with a deficit close to pi^2 / (6 x)."""

    def test_every_coprime_row_sum_up_to_2000(self):
        # measured worst gap: 6 ulps of the closed form
        phi = linear_totients(2000)
        for c in range(2, 2001):
            row = math.fsum(LNGAMMA.eval(coprime_row(c) / c).tolist())
            expected = phi[c] / 2 * LN_2PI - von_mangoldt(c) / 2
            assert abs(row - expected) <= 8 * math.ulp(expected), f"c={c}"

    @pytest.mark.parametrize("x", [100, 1000, 5000])
    def test_weyl_average_matches_closed_form(self, x):
        # measured gap: 1 ulp at each x
        phi_sum = sum(linear_totients(x))
        expected = LN_SQRT_2PI - (LN_2PI + chebyshev_psi(x)) / (2 * phi_sum)
        assert abs(weyl_average(LNGAMMA, x) - expected) <= 2 * math.ulp(expected)

    def test_scaled_deficit_approaches_zeta_two(self):
        # x (ln 2 pi + psi(x)) / (2 Phi(x)) -> pi^2 / 6, as psi(x) ~ x and
        # Phi(x) ~ 3 x^2 / pi^2; measured sqrt(x) |gap| <= 1.2 up to x = 200000
        limit = 10_000
        psi = itertools.accumulate(von_mangoldt(c) for c in range(1, limit + 1))
        phi_sums = itertools.accumulate(linear_totients(limit)[1:])
        for x, (psi_x, phi_sum) in enumerate(zip(psi, phi_sums), start=1):
            gap = x * (LN_2PI + psi_x) / (2 * phi_sum) - math.pi**2 / 6
            assert abs(gap) <= 2 / math.sqrt(x), f"x={x}"


class TestCoprimeDensity:
    def test_smallest_cases(self):
        assert coprime_density(1) == 1.0
        assert coprime_density(2) == 0.75

    def test_matches_gcd_double_loop(self):
        for n in (3, 10, 120):
            assert coprime_density(n) == coprime_pair_count(n) / n**2

    def test_converges_to_six_over_pi_squared(self):
        assert abs(coprime_density(1000) - 6 / math.pi**2) <= 0.01
