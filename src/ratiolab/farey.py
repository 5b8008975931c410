"""Farey sequences, the totient summatory function, and equidistribution averages.

The Farey sequence of order x is taken here as the ascending coprime
fractions b/c with 0 < b <= c <= x: it includes 1/1 and excludes 0,
diverging from the textbook convention that starts at 0/1.  Its length is
Phi(x) = sum_{n<=x} phi(n), which grows like (3/pi^2) x^2, and averaging a
Riemann integrable f over the sequence converges to the integral of f
over [0, 1].

Fractions are exact integer pairs throughout; floats only appear in the
final averages.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from typing import Iterator

import numpy as np

from .errors import CapacityError
from .matrix_core import Integrand, exact_parts

#: Largest sieve/table size accepted before raising CapacityError.
MAX_SIEVE_LIMIT = 2_000_000
#: Largest order farey_sequence materializes: Phi(5000) pairs at ~120 B each stay under 1 GiB.
MAX_FAREY_ORDER = 5000
#: Farey values sampled per integrand call in weyl_average.
WEYL_BLOCK = 1 << 14


@dataclass(frozen=True)
class TotientTable:
    """phi(n) for 1 <= n <= limit; values[0] is an unused sentinel."""

    limit: int
    values: tuple[int, ...]


@dataclass(frozen=True)
class FareySequence:
    """Materialized Farey fractions of one order, ascending, with their count."""

    order: int
    fractions: tuple[tuple[int, int], ...]
    count: int


def totient_sieve(x: int) -> TotientTable:
    """Euler totients up to x by a linear sieve, exact integer arithmetic."""
    if x < 1:
        raise ValueError(f"x must be >= 1, got {x}")
    if x > MAX_SIEVE_LIMIT:
        raise CapacityError(f"sieve limit {x} exceeds budget {MAX_SIEVE_LIMIT}")
    phi = [0] * (x + 1)
    phi[1] = 1
    is_composite = bytearray(x + 1)
    primes: list[int] = []
    for i in range(2, x + 1):
        if not is_composite[i]:
            primes.append(i)
            phi[i] = i - 1
        for p in primes:
            ip = i * p
            if ip > x:
                break
            is_composite[ip] = 1
            if i % p == 0:
                phi[ip] = phi[i] * p
                break
            phi[ip] = phi[i] * (p - 1)
    return TotientTable(limit=x, values=tuple(phi))


def phi_summatory(x: int) -> int:
    """Phi(x) = sum_{n<=x} phi(n), exactly; Phi(x)/x^2 approaches 3/pi^2."""
    return sum(totient_sieve(x).values[1:])


def farey_fractions(x: int) -> Iterator[tuple[int, int]]:
    """Stream the Farey fractions of order x ascending, as (b, c) pairs.

    Uses the two-term neighbor recurrence: from consecutive p/q < r/s the
    next fraction is (k*r - p) / (k*s - q) with k = (x + q) // s.  Seeded
    at 1/x and 1/(x-1), terminating at 1/1.  Single consumer per traversal.
    """
    if x < 1:
        raise ValueError(f"x must be >= 1, got {x}")
    if x == 1:
        yield (1, 1)
        return
    p, q = 1, x
    r, s = 1, x - 1
    yield (p, q)
    while (r, s) != (1, 1):
        yield (r, s)
        k = (x + q) // s
        p, q, r, s = r, s, k * r - p, k * s - q
    yield (1, 1)


def farey_sequence(x: int) -> FareySequence:
    """Materialized Farey sequence of order x; count equals Phi(x)."""
    if x > MAX_FAREY_ORDER:
        raise CapacityError(f"Farey order {x} exceeds materialization budget {MAX_FAREY_ORDER}")
    fractions = tuple(farey_fractions(x))
    return FareySequence(order=x, fractions=fractions, count=len(fractions))


def weyl_average(integrand: Integrand, x: int) -> float:
    """Mean of the integrand over the Farey fractions of order x.

    Streams the fractions in blocks of WEYL_BLOCK, samples each block
    with one integrand call and reduces it with exact_parts; one fsum of
    all the parts is the correctly rounded total.  Memory stays O(block),
    and the result is bit-identical to averaging over
    farey_sequence(x).fractions.
    """
    fractions = farey_fractions(x)
    count = 0
    parts: list[float] = []
    while block := [b / c for b, c in islice(fractions, WEYL_BLOCK)]:
        count += len(block)
        parts += exact_parts(integrand.eval(np.array(block)))
    return math.fsum(parts) / count


def coprime_density(n: int) -> float:
    """Fraction of pairs (a, b) in [1, n]^2 with gcd(a, b) = 1.

    Exactly (2 Phi(n) - 1) / n^2: the coprime pairs with a <= b are counted
    by Phi(n) and only (1, 1) lies on the diagonal.  Approaches 6/pi^2.
    """
    phi_sum = phi_summatory(n)
    return (2 * phi_sum - 1) / (n * n)
