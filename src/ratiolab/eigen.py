"""Dense symmetric eigenvalues and spectral-sum checks.

The eigenvalues come from LAPACK's symmetric driver, the one numpy ships
(numpy.linalg.eigvalsh).  Their spectral sums are one side of a dual-route
check against direct entrywise summation (the sum of eigenvalue squares
equals the squared Frobenius norm): LAPACK never sees the exact entrywise
sum that matrix_core.norm_power forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import CapacityError
from .matrix_core import Integrand, SampledMatrixSpec, exact_sum, sample_row

#: Largest order the eigen path accepts, for the dense n x n float64 copy that
#: materialize fills: `eigen --orders 1024` takes 0.2-0.3 s at 48 MiB peak RSS (2-core x86).
MAX_EIGEN_ORDER = 1024


@dataclass(frozen=True, eq=False)
class DenseSymmetric:
    """Symmetric matrix held as a checked, read-only float64 copy of its full
    array, so the caller's array can neither change it later nor be frozen."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        a = np.asarray(self.entries)
        if a.dtype.kind not in "iuf":
            raise ValueError(f"entries must have a real dtype, got {a.dtype}")
        a = a.astype(np.float64)  # a copy, even when a is float64 already
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"expected a square 2-D array, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ValueError("entries must all be finite")
        if not np.array_equal(a, a.T):
            raise ValueError("entries must be exactly symmetric")
        a.flags.writeable = False
        object.__setattr__(self, "entries", a)

    @property
    def order(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True, eq=False)
class EigenDecomposition:
    eigenvalues: np.ndarray  # ascending
    sweeps_used: int  # always 0: LAPACK reports no step count


def materialize(spec: SampledMatrixSpec) -> DenseSymmetric:
    """The sampled matrix: row k and column k hold f(j/k) for j <= k.

    Raises CapacityError above MAX_EIGEN_ORDER before any row is sampled.
    """
    n = spec.order
    if n > MAX_EIGEN_ORDER:
        raise CapacityError(f"order {n} exceeds eigen limit {MAX_EIGEN_ORDER}")
    full = np.empty((n, n), dtype=np.float64)
    for k in range(1, n + 1):
        row = sample_row(spec.integrand, k)
        full[k - 1, :k] = row
        full[:k, k - 1] = row
    return DenseSymmetric(full)


def jacobi_eigenvalues(matrix: DenseSymmetric) -> EigenDecomposition:
    """Eigenvalues of a dense symmetric matrix, ascending and read-only, by
    numpy.linalg.eigvalsh (LAPACK scales the matrix and splits it at zero
    off-diagonal entries itself).  Raises CapacityError above MAX_EIGEN_ORDER.

    The name and sweeps_used (always 0) stay only because the benchmark's
    tracing wraps this name and reads that field; ROADMAP items 1 and 10
    remove them."""
    n = matrix.order
    if n > MAX_EIGEN_ORDER:  # a matrix not built by materialize
        raise CapacityError(f"order {n} exceeds eigen limit {MAX_EIGEN_ORDER}")
    eigenvalues = np.linalg.eigvalsh(matrix.entries)
    eigenvalues.flags.writeable = False
    return EigenDecomposition(eigenvalues, sweeps_used=0)


class SpectralSums(NamedTuple):
    trace: float
    sum_sq: float
    normalized_sum_sq: float


def spectral_sum_report(integrand: Integrand, n: int) -> SpectralSums:
    """Trace, sum of squared eigenvalues, and the n^2-normalized square sum.

    The trace equals n * f(1) (every diagonal entry is f(1)) and the square
    sum equals the squared Frobenius norm, i.e. the entrywise 2-norm power;
    the normalized square sum tends to the integral of f^2 as n grows.
    Raises CapacityError above MAX_EIGEN_ORDER before any row is sampled.
    """
    lam = jacobi_eigenvalues(materialize(SampledMatrixSpec(integrand, n))).eigenvalues
    sum_sq = exact_sum([lam * lam])
    return SpectralSums(trace=exact_sum([lam]), sum_sq=sum_sq, normalized_sum_sq=sum_sq / (n * n))
