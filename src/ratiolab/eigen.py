"""Dense symmetric eigensolver (cyclic Jacobi) and spectral-sum checks.

The solver is a plain cyclic Jacobi iteration: short, robust, and
accuracy-friendly at desk scale, and independent of any external
linear-algebra eigensolver, so the spectral sums it produces can serve as
one side of a dual-route check against direct entrywise summation
(sum of eigenvalue squares equals the squared Frobenius norm).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DENSE_LIMIT, CapacityError, ConvergenceError
from .matrix_core import Integrand, SampledMatrixSpec, exact_sum, sample_row

DEFAULT_TOL = 1e-12
DEFAULT_MAX_SWEEPS = 64


@dataclass(frozen=True)
class DenseSymmetric:
    """Symmetric matrix stored as its packed lower triangle (row-major)."""

    order: int
    entries: np.ndarray

    def __post_init__(self) -> None:
        expected = self.order * (self.order + 1) // 2
        if self.entries.shape != (expected,):
            raise ValueError(
                f"packed triangle of order {self.order} needs {expected} entries, "
                f"got shape {self.entries.shape}"
            )
        if not np.all(np.isfinite(self.entries)):
            raise ValueError("entries must all be finite")
        self.entries.flags.writeable = False

    def entry(self, i: int, j: int) -> float:
        """Logical entry (i, j), 1-based; reads the stored (max, min) slot."""
        if not (1 <= i <= self.order) or not (1 <= j <= self.order):
            raise IndexError(f"indices ({i}, {j}) outside 1..{self.order}")
        r, c = max(i, j), min(i, j)
        return float(self.entries[r * (r - 1) // 2 + c - 1])

    def to_dense(self) -> np.ndarray:
        """Full symmetric (n, n) array; a fresh writable copy."""
        n = self.order
        full = np.zeros((n, n), dtype=np.float64)
        rows, cols = np.tril_indices(n)
        full[rows, cols] = self.entries
        full[cols, rows] = self.entries
        return full


@dataclass(frozen=True)
class EigenDecomposition:
    eigenvalues: np.ndarray  # ascending
    sweeps_used: int
    off_diag_residual: float


def materialize(spec: SampledMatrixSpec) -> DenseSymmetric:
    """Pack the sampled matrix's lower triangle: row k holds f(j/k), j <= k."""
    n = spec.order
    if n > DENSE_LIMIT:
        raise CapacityError(f"order {n} exceeds dense limit {DENSE_LIMIT}")
    packed = np.empty(n * (n + 1) // 2, dtype=np.float64)
    offset = 0
    for k in range(1, n + 1):
        packed[offset : offset + k] = sample_row(spec.integrand, k)
        offset += k
    return DenseSymmetric(order=n, entries=packed)


def _off_diag_frobenius(b: np.ndarray) -> float:
    # summed directly over off-diagonal entries: subtracting diagonal squares
    # from the total cancels catastrophically once the residual nears
    # sqrt(eps) * ||B||_F and would stall the convergence test
    off = b.copy()
    np.fill_diagonal(off, 0.0)
    return math.sqrt(float(np.sum(off * off)))


def jacobi_eigenvalues(
    matrix: DenseSymmetric,
    tol: float = DEFAULT_TOL,
    max_sweeps: int = DEFAULT_MAX_SWEEPS,
) -> EigenDecomposition:
    """Eigenvalues of a dense symmetric matrix by cyclic Jacobi rotations.

    Sweeps run until the off-diagonal Frobenius norm drops to tol times the
    initial Frobenius norm of the whole matrix; raises ConvergenceError
    (carrying the residual) if max_sweeps is exhausted first.  Eigenvalues
    are returned ascending.  Operates on a private working copy.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and > 0, got {tol}")
    if max_sweeps < 0:
        raise ValueError(f"max_sweeps must be >= 0, got {max_sweeps}")
    b = matrix.to_dense()
    n = matrix.order
    frobenius0 = math.sqrt(float(np.sum(b * b)))
    threshold = tol * frobenius0
    sweeps = 0
    while _off_diag_frobenius(b) > threshold:
        if sweeps >= max_sweeps:
            residual = _off_diag_frobenius(b)
            raise ConvergenceError(
                f"Jacobi did not converge in {max_sweeps} sweeps "
                f"(off-diagonal residual {residual:.3e}, threshold {threshold:.3e})",
                residual=residual,
            )
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = b[p, q]
                if apq == 0.0:
                    continue
                diff = b[q, q] - b[p, p]
                if abs(apq) <= 1e-300 * abs(diff):
                    # rotation angle below float resolution; annihilating the
                    # pair directly perturbs eigenvalues by at most 2|apq|
                    b[p, q] = 0.0
                    b[q, p] = 0.0
                    continue
                theta = diff / (2.0 * apq)
                if abs(theta) > 1e150:
                    # theta^2 would overflow; use the large-angle limit
                    t = 1.0 / (2.0 * theta)
                else:
                    t = math.copysign(1.0, theta) / (
                        abs(theta) + math.sqrt(theta * theta + 1.0)
                    )
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                rp = b[p, :].copy()
                rq = b[q, :].copy()
                b[p, :] = c * rp - s * rq
                b[q, :] = s * rp + c * rq
                cp = b[:, p].copy()
                cq = b[:, q].copy()
                b[:, p] = c * cp - s * cq
                b[:, q] = s * cp + c * cq
                # the rotation annihilates the (p, q) pair analytically
                b[p, q] = 0.0
                b[q, p] = 0.0
        sweeps += 1
    eigenvalues = np.sort(np.diagonal(b).copy())
    eigenvalues.flags.writeable = False
    return EigenDecomposition(
        eigenvalues=eigenvalues,
        sweeps_used=sweeps,
        off_diag_residual=_off_diag_frobenius(b),
    )


class SpectralSums(NamedTuple):
    trace: float
    sum_sq: float
    normalized_sum_sq: float


def spectral_sum_report(
    integrand: Integrand,
    n: int,
    tol: float = DEFAULT_TOL,
    max_sweeps: int = DEFAULT_MAX_SWEEPS,
) -> SpectralSums:
    """Trace, sum of squared eigenvalues, and the n^2-normalized square sum.

    The trace equals n * f(1) (every diagonal entry is f(1)) and the square
    sum equals the squared Frobenius norm, i.e. the entrywise 2-norm power;
    the normalized square sum tends to the integral of f^2 as n grows.
    """
    decomposition = jacobi_eigenvalues(
        materialize(SampledMatrixSpec(integrand, n)),
        tol=tol,
        max_sweeps=max_sweeps,
    )
    lam = decomposition.eigenvalues
    trace = exact_sum(lam)
    sum_sq = exact_sum(lam * lam)
    return SpectralSums(
        trace=trace, sum_sq=sum_sq, normalized_sum_sq=sum_sq / (n * n)
    )
