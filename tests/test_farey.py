import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ratiolab.errors import CapacityError
from ratiolab.farey import (
    MAX_FAREY_ORDER,
    MAX_SIEVE_LIMIT,
    coprime_density,
    farey_fractions,
    farey_sequence,
    phi_summatory,
    totient_sieve,
    weyl_average,
)
from ratiolab.integrands import CONST1, EXP, IDENTITY

from oracles import brute_farey, coprime_pair_count, totient_direct

E = math.e


class TestTotientSieve:
    def test_base_cases(self):
        table = totient_sieve(1)
        assert table.values == (0, 1)
        assert totient_sieve(10).values[10] == 4

    def test_primes_have_totient_p_minus_one(self):
        values = totient_sieve(50).values
        for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
            assert values[p] == p - 1

    def test_matches_direct_count(self):
        values = totient_sieve(100).values
        for n in range(1, 101):
            assert values[n] == totient_direct(n)

    def test_divisor_sum_identity(self):
        values = totient_sieve(200).values
        for n in range(1, 201):
            assert sum(values[d] for d in range(1, n + 1) if n % d == 0) == n

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


class TestFareySequence:
    def test_order_one(self):
        seq = farey_sequence(1)
        assert seq.fractions == ((1, 1),)
        assert seq.count == 1

    def test_order_three(self):
        assert farey_sequence(3).fractions == ((1, 3), (1, 2), (2, 3), (1, 1))

    def test_order_five_endpoints_and_count(self):
        seq = farey_sequence(5)
        assert seq.count == 10
        assert seq.fractions[0] == (1, 5)
        assert seq.fractions[-1] == (1, 1)

    def test_matches_bruteforce_enumeration(self):
        for x in range(1, 41):
            assert list(farey_sequence(x).fractions) == brute_farey(x)

    def test_count_matches_phi_summatory(self):
        for x in range(1, 151):
            assert farey_sequence(x).count == phi_summatory(x)

    @given(x=st.integers(min_value=1, max_value=150))
    @settings(max_examples=40, deadline=None)
    def test_neighbor_determinant_property(self, x):
        previous = None
        for b, c in farey_fractions(x):
            assert 0 < b <= c <= x
            assert math.gcd(b, c) == 1
            if previous is not None:
                assert b * previous[1] - previous[0] * c == 1
            previous = (b, c)

    def test_mean_is_closed_form_in_exact_arithmetic(self):
        for x in (1, 2, 3, 5, 17, 50, 120):
            seq = farey_sequence(x)
            total = sum(Fraction(b, c) for b, c in seq.fractions)
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
            math.fsum(EXP.eval(b / c) for b, c in sequence.fractions) / sequence.count
        )
        assert weyl_average(EXP, x) == materialized

    def test_error_trend_along_doubling_orders(self):
        # equidistribution error fluctuates (it crosses zero), so assert the
        # endpoint improves and every point stays within the coarse bound
        errors = [abs(weyl_average(EXP, x) - (E - 1)) for x in (50, 100, 200, 400)]
        assert all(err <= 0.01 for err in errors)
        assert errors[-1] <= 1.1 * errors[0]


class TestCoprimeDensity:
    def test_smallest_cases(self):
        assert coprime_density(1) == 1.0
        assert coprime_density(2) == 0.75

    def test_matches_gcd_double_loop(self):
        for n in (3, 10, 120):
            assert coprime_density(n) == coprime_pair_count(n) / n**2

    def test_converges_to_six_over_pi_squared(self):
        assert abs(coprime_density(1000) - 6 / math.pi**2) <= 0.01
