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

from .errors import DENSE_LIMIT, CapacityError


@dataclass(frozen=True)
class SignMatrix:
    """Square matrix whose entries are all +1 or -1, stored as int64."""

    order: int
    entries: np.ndarray

    def __post_init__(self) -> None:
        if self.entries.shape != (self.order, self.order):
            raise ValueError(
                f"expected shape ({self.order}, {self.order}), got {self.entries.shape}"
            )
        if self.entries.dtype != np.int64:
            raise ValueError(f"entries must be int64, got {self.entries.dtype}")
        if not np.all(np.abs(self.entries) == 1):
            raise ValueError("entries must all be +1 or -1")
        self.entries.flags.writeable = False


class Verdict(enum.Enum):
    EXCEEDS_HALF = "exceeds_half"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class OscillationReport:
    order: int
    mismatch_count: int
    lower_bound: float
    verdict: Verdict


def sylvester(k: int) -> SignMatrix:
    """Order-2^k symmetric Hadamard matrix by the doubling construction."""
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    order = 2**k
    if order > DENSE_LIMIT:
        raise CapacityError(f"order {order} exceeds dense limit {DENSE_LIMIT}")
    h = np.array([[1]], dtype=np.int64)
    for _ in range(k):
        h = np.block([[h, h], [h, -h]])
    return SignMatrix(order=order, entries=h)


def is_hadamard(matrix: SignMatrix) -> bool:
    """True iff M M^T = n I exactly (all rows pairwise orthogonal)."""
    # int64 row dot products are bounded by the order, far from overflow
    gram = matrix.entries @ matrix.entries.T
    return bool(np.array_equal(gram, matrix.order * np.eye(matrix.order, dtype=np.int64)))


def spectral_sum_sq(matrix: SignMatrix) -> int:
    """Squared Frobenius norm; equals order^2 for any sign matrix."""
    return int(np.sum(matrix.entries * matrix.entries))


def oscillation_bound(matrix: SignMatrix) -> OscillationReport:
    """Mismatch count of the last two rows and the induced oscillation bound.

    Counts the columns i <= n-1 where rows n-1 and n (1-based) differ in
    sign; the lower bound is exactly 2 * mismatch_count / n.  The verdict is
    EXCEEDS_HALF only when the bound is strictly above 1/2 (decided in
    integer arithmetic), so the borderline order-4 case stays visible as
    INCONCLUSIVE.  Requires a symmetric input: only symmetric sign matrices
    can arise as ratio samples of a single function.
    """
    n = matrix.order
    if n < 2:
        raise ValueError(f"order must be >= 2, got {n}")
    if not np.array_equal(matrix.entries, matrix.entries.T):
        raise ValueError("oscillation_bound requires a symmetric sign matrix")
    second_last = matrix.entries[n - 2, : n - 1]
    last = matrix.entries[n - 1, : n - 1]
    mismatch_count = int(np.sum(second_last * last == -1))
    lower_bound = 2.0 * mismatch_count / n
    verdict = Verdict.EXCEEDS_HALF if 4 * mismatch_count > n else Verdict.INCONCLUSIVE
    return OscillationReport(
        order=n,
        mismatch_count=mismatch_count,
        lower_bound=lower_bound,
        verdict=verdict,
    )
