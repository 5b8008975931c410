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
of each prime factor of c are cleared.  The average samples f at b/c in
batches of consecutive rows, one integrand call per batch of at least
SUM_BLOCK values; farey_sequence packs each pair into one exact int64 key
that sorts in order of b/c, and unpacks the pairs from the sorted keys.

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
from .matrix_core import SUM_BLOCK, Integrand, exact_sum

#: Largest sieve/table size accepted before raising CapacityError.
MAX_SIEVE_LIMIT = 2_000_000
#: Largest order farey_sequence materializes: Phi(5000) = 7.6M int64 pairs (116 MiB) take
#: about 0.35-0.5 s and 261 MiB peak RSS to build in a fresh process (2-core x86).
MAX_FAREY_ORDER = 5000
#: Largest order weyl_average accepts: its O(x^2) samples take 1.1-1.8 s at x = 20000 for
#: exp, identity and const1, and about 6 s for lngamma (2-core x86).
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

    @classmethod
    def _adopt(cls, order: int, fractions: np.ndarray) -> FareySequence:
        """Freeze and keep, uncopied, an int64 (count, 2) array no one else holds."""
        fractions.flags.writeable = False
        sequence = object.__new__(cls)  # skips __post_init__ and its copy
        sequence.__dict__.update(order=order, fractions=fractions)
        return sequence

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
    # rest[n] is n with every prime <= sqrt(x) divided out (int32 holds
    # MAX_SIEVE_LIMIT, so phi is sieved in int32 too and widened by TotientTable)
    phi = np.arange(x + 1, dtype=np.int32)
    rest = np.arange(x + 1, dtype=np.int32)
    for p in _small_primes(x):
        phi[p::p] -= phi[p::p] // p
        q = p
        while q <= x:
            rest[q::q] //= p
            q *= p
    # what is left above 1 is the one prime factor > sqrt(x); apply it in place,
    # with x + 1 > phi(n) standing in where nothing is left (and at the unused
    # 0), so that the quotient there is 0
    rest[rest <= 1] = x + 1
    np.floor_divide(phi, rest, out=rest)
    phi -= rest
    del rest  # before TotientTable takes its private int64 copy of phi
    return TotientTable(phi)


def phi_summatory(x: int) -> int:
    """Phi(x) = sum_{n<=x} phi(n), exactly; Phi(x)/x^2 approaches 3/pi^2."""
    return int(totient_sieve(x).values.sum())


def _coprime_rows(x: int) -> Iterator[tuple[int, np.ndarray]]:
    """(c, b) for each denominator c <= x, with b the ascending int64 array of
    the numerators b <= c with gcd(b, c) = 1."""
    primes = _small_primes(x)
    ones = np.ones(x + 1, dtype=bool)
    for c in range(1, x + 1):
        mask = ones[: c + 1].copy()  # mask[b]: b is coprime to c
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
        yield c, mask.nonzero()[0]


def farey_sequence(x: int) -> FareySequence:
    """Materialized Farey sequence of order x; count equals Phi(x)."""
    if x < 1:
        raise ValueError(f"x must be >= 1, got {x}")
    if x > MAX_FAREY_ORDER:
        raise CapacityError(f"Farey order {x} exceeds materialization budget {MAX_FAREY_ORDER}")
    # Each pair is sorted as one exact int64 key (floor(b 2^s / c) << w) | c,
    # with x < 2^w and s = 2w.  Distinct fractions with c <= x differ by at
    # least 1/x^2 > 2^-s, so their floors strictly increase with b/c and the
    # low w bits (c) never decide the order.  Unpacking, q = key >> w gives
    # q c in (b 2^s - c, b 2^s], and c < 2^(s-1), so (q c + 2^(s-1)) >> s = b.
    # Every value stays below 2^(3w+1) <= 2^40 for x <= MAX_FAREY_ORDER.
    w = x.bit_length()
    s = 2 * w
    # Phi(x) <= x(x+1)/2 bounds the count; the tail past Phi(x) is never
    # written, so it takes address space but no memory
    key = np.empty(x * (x + 1) // 2, dtype=np.int64)
    count = 0
    for c, b in _coprime_rows(x):
        row = key[count : count + b.size]
        np.left_shift(b, s, out=row)
        row //= c
        row <<= w
        row |= c
        count += b.size
    key = key[:count]
    key.sort()
    pairs = np.empty((key.size, 2), dtype=np.int64)
    np.bitwise_and(key, (1 << w) - 1, out=pairs[:, 1])
    key >>= w
    key *= pairs[:, 1]
    key += 1 << (s - 1)
    np.right_shift(key, s, out=pairs[:, 0])
    return FareySequence._adopt(x, pairs)


def weyl_average(integrand: Integrand, x: int) -> float:
    """Mean of the integrand over the Farey fractions of order x.

    Samples the coprime rows farey_sequence sorts, one grid row per
    denominator c <= x at the b/c with b <= c and gcd(b, c) = 1, gathered
    into batches of consecutive rows that each hold at least SUM_BLOCK
    values (the last may hold fewer), one integrand call per batch, and
    streams them into exact_sum; that sum depends neither on the order of
    the values nor on their chunking, so the result is bit-identical to
    averaging over farey_sequence(x).fractions.  A batch holds fewer than
    SUM_BLOCK + x values, so the integrand's temporaries stay
    O(SUM_BLOCK + x).  Raises EvaluationError if the sum is not finite, and
    CapacityError above MAX_WEYL_ORDER.
    """
    if x < 1:
        raise ValueError(f"x must be >= 1, got {x}")
    if x > MAX_WEYL_ORDER:
        raise CapacityError(f"Weyl average order {x} exceeds budget {MAX_WEYL_ORDER}")
    count = 0

    def batches() -> Iterator[np.ndarray]:
        nonlocal count
        # rows are at most x long, so a batch of SUM_BLOCK or more fits;
        # exact_sum copies each batch before it asks for the next one, so
        # the points are refilled in place
        points = np.empty(SUM_BLOCK + x)
        size = 0
        for c, b in _coprime_rows(x):
            np.divide(b, c, out=points[size : size + b.size])
            size += b.size
            if size >= SUM_BLOCK:
                yield integrand.eval(points[:size])
                count += size
                size = 0
        if size:
            yield integrand.eval(points[:size])
            count += size

    total = exact_sum(batches())
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
