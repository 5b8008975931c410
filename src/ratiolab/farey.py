"""Farey sequences, the totient summatory function, and equidistribution averages.

The Farey sequence of order x is taken here as the ascending coprime
fractions b/c with 0 < b <= c <= x: it includes 1/1 and excludes 0,
diverging from the textbook convention that starts at 0/1.  Its length is
Phi(x) = sum_{n<=x} phi(n), which grows like (3/pi^2) x^2, and averaging a
Riemann integrable f over the sequence converges to the integral of f
over [0, 1].

farey_sequence and weyl_average walk the coprime pairs the same way, one
row per denominator c: the numerators b <= c with gcd(b, c) = 1, found
without any gcd as the survivors of a boolean mask from which the multiples
of each prime factor of c are cleared.  The average samples f at b/c row by
row; farey_sequence keeps the exact integer pairs and uses b/c only as the
key that sorts them.

Both the walk and totient_sieve need only the primes up to sqrt(x): every
n <= x has at most one prime factor above sqrt(x), and it is what remains
of n once the small primes are divided out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import CapacityError, EvaluationError
from .matrix_core import Integrand, exact_sum

#: Largest sieve/table size accepted before raising CapacityError.
MAX_SIEVE_LIMIT = 2_000_000
#: Largest order farey_sequence materializes: Phi(5000) = 7.6M int64 pairs (116 MiB) take
#: about 0.9 s and 390 MiB peak RSS to build in a fresh process (2-core x86).
MAX_FAREY_ORDER = 5000
#: Largest order weyl_average accepts: its O(x^2) samples take 1-1.5 s at x = 20000 for
#: exp, identity and const1, and 5.5-6 s for lngamma (2-core x86).
MAX_WEYL_ORDER = 20_000


@dataclass(frozen=True)
class TotientTable:
    """phi(n) for 1 <= n <= limit as a checked, read-only int64 copy;
    values[0] is an unused sentinel."""

    values: np.ndarray

    def __post_init__(self) -> None:
        a = np.asarray(self.values)
        if a.ndim != 1:
            raise ValueError(f"expected a 1-D array of totients, got shape {a.shape}")
        if not np.issubdtype(a.dtype, np.integer):
            raise ValueError(f"values must have an integer dtype, got {a.dtype}")
        a = a.astype(np.int64)  # a copy, even when a is int64 already
        a.flags.writeable = False
        object.__setattr__(self, "values", a)

    @property
    def limit(self) -> int:
        return len(self.values) - 1


@dataclass(frozen=True)
class FareySequence:
    """Materialized Farey fractions of one order, ascending, as rows (b, c)
    of a checked, read-only int64 copy of shape (count, 2)."""

    order: int
    fractions: np.ndarray

    def __post_init__(self) -> None:
        a = np.asarray(self.fractions)
        if a.ndim != 2 or a.shape[1] != 2:
            raise ValueError(f"expected a (count, 2) array of (b, c) pairs, got shape {a.shape}")
        if not np.issubdtype(a.dtype, np.integer):
            raise ValueError(f"fractions must have an integer dtype, got {a.dtype}")
        a = a.astype(np.int64)  # a copy, even when a is int64 already
        a.flags.writeable = False
        object.__setattr__(self, "fractions", a)

    @property
    def count(self) -> int:
        return self.fractions.shape[0]


def _small_primes(x: int) -> list[int]:
    """The primes p <= sqrt(x), ascending, by the sieve of Eratosthenes."""
    r = math.isqrt(x)
    is_prime = np.ones(r + 1, dtype=bool)
    is_prime[:2] = False
    for p in range(2, math.isqrt(r) + 1):
        if is_prime[p]:
            is_prime[p * p :: p] = False
    return np.flatnonzero(is_prime).tolist()


def totient_sieve(x: int) -> TotientTable:
    """Euler totients up to x by a sieve over the primes <= sqrt(x), exact integer arithmetic."""
    if x < 1:
        raise ValueError(f"x must be >= 1, got {x}")
    if x > MAX_SIEVE_LIMIT:
        raise CapacityError(f"sieve limit {x} exceeds budget {MAX_SIEVE_LIMIT}")
    # phi(n) = n * prod (1 - 1/p) over the primes p | n, one exact division per p;
    # rest[n] is n with every prime <= sqrt(x) divided out (int32 holds MAX_SIEVE_LIMIT)
    phi = np.arange(x + 1, dtype=np.int64)
    rest = np.arange(x + 1, dtype=np.int32)
    for p in _small_primes(x):
        phi[p::p] -= phi[p::p] // p
        q = p
        while q <= x:
            rest[q::q] //= p
            q *= p
    # what is left above 1 is the one prime factor > sqrt(x); apply it in place,
    # so the peak stays at phi, rest and the mask
    big = rest > 1
    np.floor_divide(phi, rest, out=rest, where=big)
    np.subtract(phi, rest, out=phi, where=big)
    del rest, big  # before TotientTable takes its private copy of phi
    return TotientTable(phi)


def phi_summatory(x: int) -> int:
    """Phi(x) = sum_{n<=x} phi(n), exactly; Phi(x)/x^2 approaches 3/pi^2."""
    return int(totient_sieve(x).values.sum())


def _coprime_rows(x: int) -> Iterator[tuple[int, np.ndarray]]:
    """(c, b) for each denominator c <= x, with b the ascending int64 array of
    the numerators b <= c with gcd(b, c) = 1."""
    primes = _small_primes(x)
    for c in range(1, x + 1):
        mask = np.ones(c + 1, dtype=bool)  # mask[b]: b is coprime to c
        mask[0] = False
        rest = c
        for p in primes:
            if p * p > rest:
                break
            if rest % p == 0:
                mask[::p] = False
                while rest % p == 0:
                    rest //= p
        if rest > 1:  # rest is prime: it has no factor <= sqrt(rest)
            mask[::rest] = False
        yield c, np.flatnonzero(mask)


def farey_sequence(x: int) -> FareySequence:
    """Materialized Farey sequence of order x; count equals Phi(x)."""
    if x < 1:
        raise ValueError(f"x must be >= 1, got {x}")
    if x > MAX_FAREY_ORDER:
        raise CapacityError(f"Farey order {x} exceeds materialization budget {MAX_FAREY_ORDER}")
    rows = [b for _, b in _coprime_rows(x)]
    c = np.repeat(np.arange(1, x + 1, dtype=np.int64), [row.size for row in rows])
    b = np.concatenate(rows)
    del rows  # each temporary goes once used, so the peak stays at 3x pairs
    # Sorting by the float b/c is exact: distinct fractions with c <= x differ
    # by at least 1/x^2 >= 4e-8 (x <= MAX_FAREY_ORDER), far above the rounding
    # error of at most 2^-54 in each quotient b/c <= 1, so no two keys tie or swap.
    order = np.argsort(b / c)
    pairs = np.empty((order.size, 2), dtype=np.int64)
    pairs[:, 0] = b[order]
    pairs[:, 1] = c[order]
    del b, c, order  # before FareySequence takes its private copy of pairs
    return FareySequence(order=x, fractions=pairs)


def weyl_average(integrand: Integrand, x: int) -> float:
    """Mean of the integrand over the Farey fractions of order x.

    Samples the coprime rows farey_sequence sorts, one grid row per
    denominator c <= x at the b/c with b <= c and gcd(b, c) = 1, and streams
    them into exact_sum; that sum does not depend on the order of the
    values, so the result is bit-identical to averaging over
    farey_sequence(x).fractions.  Raises EvaluationError if the sum is not
    finite, and CapacityError above MAX_WEYL_ORDER.
    """
    if x < 1:
        raise ValueError(f"x must be >= 1, got {x}")
    if x > MAX_WEYL_ORDER:
        raise CapacityError(f"Weyl average order {x} exceeds budget {MAX_WEYL_ORDER}")
    count = 0

    def rows() -> Iterator[np.ndarray]:
        nonlocal count
        for c, b in _coprime_rows(x):
            count += b.size
            yield integrand.eval(b / c)

    total = exact_sum(rows())
    if not math.isfinite(total):
        raise EvaluationError(f"average of {integrand.label!r} over order {x} is not finite")
    return total / count


def coprime_density(n: int) -> float:
    """Fraction of pairs (a, b) in [1, n]^2 with gcd(a, b) = 1.

    Exactly (2 Phi(n) - 1) / n^2: the coprime pairs with a <= b are counted
    by Phi(n) and only (1, 1) lies on the diagonal.  Approaches 6/pi^2.
    """
    phi_sum = phi_summatory(n)
    return (2 * phi_sum - 1) / (n * n)
