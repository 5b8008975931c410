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
SUM_BLOCK values; farey_sequence packs each pair below 1/2 into one exact
int64 key that sorts in order of b/c, unpacks those pairs from the sorted
keys, and writes the rest by the symmetry b/c <-> (c - b)/c about 1/2
(Hardy & Wright, An Introduction to the Theory of Numbers, section 3.1):
1/2, the mirrors of the lower half in reverse order, and 1/1.  It counts
the pairs first, as Phi(x) from the totient sieve, so that the keys are
written, sorted and unpacked inside the one array it returns.

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
#: Largest order farey_sequence materializes: Phi(5000) = 7.6M int32 pairs (58 MiB) take
#: about 0.12-0.22 s and 87 MiB peak RSS to build in a fresh process (2-core x86).
MAX_FAREY_ORDER = 5000
#: Largest order weyl_average accepts: its O(x^2) samples take 1.1-1.8 s at x = 20000 for
#: exp, identity and const1, and about 6 s for lngamma (2-core x86).
MAX_WEYL_ORDER = 20_000


@dataclass(frozen=True, eq=False)
class TotientTable:
    """phi(n) for 1 <= n <= limit as the sieve's own read-only int32 array
    (phi(n) <= MAX_SIEVE_LIMIT fits); values[0] is an unused sentinel."""

    values: np.ndarray

    @property
    def limit(self) -> int:
        return len(self.values) - 1


@dataclass(frozen=True, eq=False)
class FareySequence:
    """Materialized Farey fractions of one order, ascending, as rows (b, c)
    of a read-only int32 array of shape (count, 2); the first is 1/order."""

    fractions: np.ndarray

    @property
    def order(self) -> int:
        return int(self.fractions[0, 1])

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


def _totients(x: int) -> np.ndarray:
    """phi(n) for 0 <= n <= x as a writable int32 array, phi(0) = 0."""
    # phi(n) = n * prod (1 - 1/p) over the primes p | n, one exact division per p;
    # rest[n] is n with every prime <= sqrt(x) divided out (int32 holds
    # MAX_SIEVE_LIMIT, so phi is sieved in int32 too)
    phi = np.arange(x + 1, dtype=np.int32)
    rest = np.arange(x + 1, dtype=np.int32)
    for p in _small_primes(x):
        # exact: p still divides phi[n], as only primes below p were applied
        phi[p::p] //= p
        phi[p::p] *= p - 1
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
    return phi


def totient_sieve(x: int) -> TotientTable:
    """Euler totients up to x by a sieve over the primes <= sqrt(x), exact integer arithmetic."""
    if x < 1:
        raise ValueError(f"x must be >= 1, got {x}")
    if x > MAX_SIEVE_LIMIT:
        raise CapacityError(f"sieve limit {x} exceeds budget {MAX_SIEVE_LIMIT}")
    values = _totients(x)
    values.flags.writeable = False
    return TotientTable(values)


def phi_summatory(x: int) -> int:
    """Phi(x) = sum_{n<=x} phi(n), exactly; Phi(x)/x^2 approaches 3/pi^2."""
    return int(totient_sieve(x).values.sum(dtype=np.int64))


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
    # Each pair below 1/2 is sorted as one exact int64 key (floor(b 2^s / c) << w) | c,
    # with x < 2^w and s = 2w.  Distinct fractions with c <= x differ by at
    # least 1/x^2 > 2^-s, so their floors strictly increase with b/c and the
    # low w bits (c) never decide the order.  Unpacking, q = key >> w gives
    # q c in (b 2^s - c, b 2^s], and c < 2^(s-1), so (q c + 2^(s-1)) >> s = b.
    # Every value stays below 2^(3w+1) <= 2^40 for x <= MAX_FAREY_ORDER.
    w = x.bit_length()
    s = 2 * w
    count = int(_totients(x).sum(dtype=np.int64))
    # b/c <-> (c - b)/c mirrors the sequence about 1/2: for c >= 3, phi(c) is
    # even and b -> c - b pairs the numerators below c/2 with those above, so
    # only the half = (count - 1) // 2 fractions below 1/2 are keyed and
    # sorted.  Rows: those, then 1/2 (x >= 2), their mirrors in reverse order,
    # and 1/1 last.  Rows c = 1 and c = 2 have no numerator below c/2.
    half = (count - 1) // 2
    # Pair i's two int32 fill exactly the 8 bytes of int64 key i, so the keys
    # are written and sorted in the output itself, in lower, then unpacked
    # one SUM_BLOCK slice at a time through one reused buffer: a slice's
    # pairs overwrite only its own keys, which the buffer already holds.
    pairs = np.empty((count, 2), dtype=np.int32)
    lower = pairs[:half]
    key = lower.reshape(-1).view(np.int64)
    start = 0
    for c, b in _coprime_rows(x):
        b = b[: b.size // 2]  # the numerators below c/2
        row = key[start : start + b.size]
        np.left_shift(b, s, out=row)
        row //= c
        row <<= w
        row |= c
        start += b.size
    key.sort()
    buffer = np.empty(min(SUM_BLOCK, half), dtype=np.int64)
    for start in range(0, half, SUM_BLOCK):
        out = lower[start : start + SUM_BLOCK]
        q = buffer[: len(out)]
        q[...] = key[start : start + len(out)]
        np.bitwise_and(q, (1 << w) - 1, out=out[:, 1])
        q >>= w
        q *= out[:, 1]
        q += 1 << (s - 1)
        np.right_shift(q, s, out=out[:, 0])
    # the mirror (c - b, c) of row half - 1 - i is row half + 1 + i
    mirrored = lower[::-1]
    upper = pairs[half + 1 : -1]
    np.subtract(mirrored[:, 1], mirrored[:, 0], out=upper[:, 0])
    upper[:, 1] = mirrored[:, 1]
    pairs[half] = 1, 2  # at x = 1, row half is the last one, 1/1
    pairs[-1] = 1, 1
    pairs.flags.writeable = False
    return FareySequence(pairs)


def weyl_average(integrand: Integrand, x: int) -> float:
    """Mean of the integrand over the Farey fractions of order x.

    Samples the whole of each coprime row, where farey_sequence keys only
    the half below 1/2: one grid row per denominator c <= x at the b/c
    with b <= c and gcd(b, c) = 1, gathered into batches of consecutive
    rows that each hold at least SUM_BLOCK values (the last may hold
    fewer), one integrand call per batch, and streams them into
    exact_sum, whose sum depends neither on the order of the values nor
    on their chunking; divided by the Phi(x) values walked, it is
    bit-identical to the mean over its fractions.  A batch holds fewer
    than SUM_BLOCK + x values, so the integrand's temporaries stay
    O(SUM_BLOCK + x).  Raises EvaluationError if the sum is not finite,
    and CapacityError above MAX_WEYL_ORDER.
    """
    if x < 1:
        raise ValueError(f"x must be >= 1, got {x}")
    if x > MAX_WEYL_ORDER:
        raise CapacityError(f"Weyl average order {x} exceeds budget {MAX_WEYL_ORDER}")
    sizes = []

    def batches() -> Iterator[np.ndarray]:
        # rows are at most x long, so a batch of SUM_BLOCK or more fits, and
        # row x, never empty, ends the last one; exact_sum copies each batch
        # before it asks for the next one, so the points are refilled in place
        points = np.empty(SUM_BLOCK + x)
        size = 0
        for c, b in _coprime_rows(x):
            np.divide(b, c, out=points[size : size + b.size])
            size += b.size
            if size >= SUM_BLOCK or c == x:
                sizes.append(size)
                yield integrand.eval(points[:size])
                size = 0

    total = exact_sum(batches())
    if not math.isfinite(total):
        raise EvaluationError(f"average of {integrand.label!r} over order {x} is not finite")
    return total / sum(sizes)


def coprime_density(n: int) -> float:
    """Fraction of pairs (a, b) in [1, n]^2 with gcd(a, b) = 1.

    Exactly (2 Phi(n) - 1) / n^2: the coprime pairs with a <= b are counted
    by Phi(n) and only (1, 1) lies on the diagonal.  Approaches 6/pi^2.
    """
    phi_sum = phi_summatory(n)
    return (2 * phi_sum - 1) / (n * n)
