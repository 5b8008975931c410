"""Sign matrices, Hadamard orthogonality, and the last-two-rows oscillation bound.

Everything here is exact integer arithmetic.  The oscillation bound reads
the last two rows of a symmetric sign matrix as consecutive ratio samples
of a hypothetical bounded function f (|f| <= 1): wherever the rows
disagree, f must swing by 2 inside one subinterval of the 1/n partition,
so the Riemann oscillation sum of any such f is at least
2 * (#disagreements) / n.  A bound above 1/2 rules out realization by a
Riemann integrable function.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError

#: Largest order sylvester builds and is_hadamard checks; larger orders raise CapacityError.
DENSE_LIMIT = 2048


@dataclass(frozen=True, eq=False)
class SignMatrix:
    """Square matrix of +1 and -1 entries, held as a checked, read-only int8
    copy, so the caller's array can neither change it later nor be frozen."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        a = np.asarray(self.entries)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"expected a square 2-D array, got shape {a.shape}")
        if not np.issubdtype(a.dtype, np.integer):
            raise ValueError(f"entries must have an integer dtype, got {a.dtype}")
        # reductions on the caller's dtype, before the cast, which wraps 257 to 1
        if a.size and not (a.min() >= -1 and a.max() <= 1 and np.count_nonzero(a) == a.size):
            raise ValueError("entries must all be +1 or -1")
        a = a.astype(np.int8)  # a copy, even when a is int8 already
        a.flags.writeable = False
        object.__setattr__(self, "entries", a)

    @property
    def order(self) -> int:
        return self.entries.shape[0]


class Verdict(enum.Enum):
    EXCEEDS_HALF = "exceeds_half"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class OscillationReport:
    """Last-two-rows mismatch count of an order-n sign matrix.  The verdict
    is EXCEEDS_HALF only when the bound 2 * mismatch_count / n is strictly
    above 1/2 (decided in integers): order 4 stays visibly INCONCLUSIVE."""

    order: int
    mismatch_count: int

    @property
    def lower_bound(self) -> float:
        return 2.0 * self.mismatch_count / self.order

    @property
    def verdict(self) -> Verdict:
        exceeds = 4 * self.mismatch_count > self.order
        return Verdict.EXCEEDS_HALF if exceeds else Verdict.INCONCLUSIVE


def sylvester(k: int) -> SignMatrix:
    """Order-2^k symmetric Hadamard matrix by the doubling construction."""
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if k > DENSE_LIMIT.bit_length() - 1:  # checked before a huge 2^k is formed
        raise CapacityError(f"order 2^{k} exceeds dense limit {DENSE_LIMIT}")
    h = np.empty((2**k, 2**k), dtype=np.int8)
    h[0, 0] = 1
    for m in (2**i for i in range(k)):  # double the top-left m x m block in place
        top = h[:m, :m]
        h[:m, m : 2 * m] = top
        h[m : 2 * m, :m] = top
        np.negative(top, out=h[m : 2 * m, m : 2 * m])
    return SignMatrix(h)


def is_hadamard(matrix: SignMatrix) -> bool:
    """True iff M M^T = n I exactly (all rows pairwise orthogonal); raises
    CapacityError above DENSE_LIMIT before the float32 copy is made."""
    if matrix.order > DENSE_LIMIT:
        raise CapacityError(f"order {matrix.order} exceeds dense limit {DENSE_LIMIT}")
    # A float32 BLAS product is exact here: every partial dot product is an
    # integer of magnitude <= order <= DENSE_LIMIT < 2^24, so any summation
    # order gives the same Gram matrix as exact integer arithmetic, and so
    # does subtracting n from its diagonal in place.
    e = matrix.entries.astype(np.float32)
    gram = e @ e.T
    gram.flat[:: matrix.order + 1] -= matrix.order
    return not gram.any()


def spectral_sum_sq(matrix: SignMatrix) -> int:
    """Squared Frobenius norm; equals order^2 for any sign matrix."""
    return int(np.sum(matrix.entries * matrix.entries))


def oscillation_bound(matrix: SignMatrix) -> OscillationReport:
    """Count the columns i <= n-1 where rows n-1 and n (1-based) differ in
    sign.  Requires a symmetric input: only symmetric sign matrices can
    arise as ratio samples of a single function."""
    n = matrix.order
    if n < 2:
        raise ValueError(f"order must be >= 2, got {n}")
    if not np.array_equal(matrix.entries, matrix.entries.T):
        raise ValueError("oscillation_bound requires a symmetric sign matrix")
    second_last = matrix.entries[n - 2, : n - 1]
    last = matrix.entries[n - 1, : n - 1]
    return OscillationReport(order=n, mismatch_count=int(np.sum(second_last * last == -1)))
