"""Dense symmetric eigenvalues and spectral-sum checks.

The solver reduces the matrix to tridiagonal form by Householder reflections
and brackets all n eigenvalues at once by Sturm-count multisection (Golub and
Van Loan, Matrix Computations, 8.3.1 and 8.4.1; Barth, Martin and Wilkinson,
Numer. Math. 1967).  It uses no external eigensolver, so its spectral sums can
serve as one side of a dual-route check against direct entrywise summation
(the sum of eigenvalue squares equals the squared Frobenius norm).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import CapacityError
from .matrix_core import Integrand, SampledMatrixSpec, exact_sum, sample_row

#: Largest order the eigen path accepts: the solver takes 2.7-3.1 s at order 1024 (2-core x86).
MAX_EIGEN_ORDER = 1024
#: Interior probes per bracket in one multisection step, which cuts the bracket 16-fold.
_PROBES = 15
#: Multisection steps before the loop stops: 14 reach the floor, one more absorbs rounding.
_MAX_STEPS = 15


@dataclass(frozen=True)
class DenseSymmetric:
    """Symmetric matrix held as a checked, read-only float64 copy of its full
    array, so the caller's array can neither change it later nor be frozen."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        a = np.array(self.entries, dtype=np.float64)
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


@dataclass(frozen=True)
class EigenDecomposition:
    eigenvalues: np.ndarray  # ascending
    sweeps_used: int  # multisection steps, one Sturm pass each


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


def _tridiagonalize(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """d and edges = (0, e, 0) of a tridiagonal matrix similar to the symmetric
    a (overwritten), by n - 2 Householder reflections, each one matvec and one
    rank-2 update; a row already tridiagonal is not reflected, so zeros stay."""
    n = a.shape[0]
    edges = np.zeros(n + 1)
    for k in range(n - 1):
        x = a[k, k + 1 :]
        if not x[1:].any():
            edges[k + 1] = x[0]
            continue
        # v is built from x / max|x|, so no square in it underflows
        size = float(np.max(np.abs(x)))
        v = x / size
        mu = math.sqrt(v @ v)
        edges[k + 1] = -math.copysign(mu * size, x[0])
        v[0] += math.copysign(mu, v[0])
        v /= math.sqrt(v @ v)
        # (I - 2 v v^T) B (I - 2 v v^T) = B - v w^T - w v^T, w = 2 (p - (v . p) v), p = B v
        block = a[k + 1 :, k + 1 :]
        p = block @ v
        w = 2.0 * (p - (v @ p) * v)
        block -= np.outer(v, w) + np.outer(w, v)
    return np.diagonal(a).copy(), edges


def _sturm_counts(rows: list, pivmin: float, x: np.ndarray) -> np.ndarray:
    """Eigenvalues below each x of the tridiagonal with rows (d_i, e^2_{i-1}),
    e^2_{-1} = 0: the negative pivots q_i = (d_i - x) - e^2_{i-1} / q_{i-1} of
    T - x.  A pivot <= pivmin counts as negative and becomes -pivmin before
    the next step, so no pivot is zero (Barth, Martin and Wilkinson, 1967)."""
    count = np.zeros(x.shape, dtype=np.intp)
    negative = np.empty(x.shape, dtype=bool)
    shifted = np.empty_like(x)
    q = np.ones_like(x)
    for d_i, e2_i in rows:
        np.divide(e2_i, q, out=q)
        np.subtract(d_i, x, out=shifted)
        np.subtract(shifted, q, out=q)
        np.less_equal(q, pivmin, out=negative)
        np.minimum(q, -pivmin, out=q, where=negative)
        count += negative
    return count


def _multisection(d: np.ndarray, edges: np.ndarray) -> tuple[np.ndarray, int]:
    """Every eigenvalue of the tridiagonal (d, edges = (0, e, 0)), ascending,
    and the multisection steps taken.  Each step probes every distinct bracket
    at _PROBES points in one Sturm pass and keeps, for eigenvalue j, the part
    with at most j and more than j eigenvalues below its ends, until every
    bracket is within 2 eps of its ends plus the floor eps ||T||: from the
    Gershgorin width 2 ||T||, at most ceil(53 / 4) = 14 steps."""
    e2 = edges[:-1] ** 2
    radius = np.abs(edges[:-1]) + np.abs(edges[1:])
    # low <= 0 <= high (initial=0.0 also serves an empty d) and lo <= hi below,
    # so max(-low, high) and max(-lo, hi) are the largest magnitudes
    low, high = float(np.min(d - radius, initial=0.0)), float(np.max(d + radius, initial=0.0))
    eps, tiny = np.finfo(np.float64).eps, np.finfo(np.float64).tiny
    floor = eps * max(-low, high)
    # pivmin keeps every e^2 / q below 1 / tiny; the pad keeps every
    # eigenvalue inside the first bracket despite rounding in the counts
    pivmin = tiny * max(1.0, float(np.max(e2, initial=0.0)))
    pad = 2.0 * d.size * floor + 4.0 * pivmin
    lo, hi = np.full(d.size, low - pad), np.full(d.size, high + pad)
    j = np.arange(d.size)[:, None]
    rows = list(zip(d.tolist(), e2.tolist()))
    fractions = np.arange(_PROBES + 2) / (_PROBES + 1)
    steps = 0
    while steps < _MAX_STEPS and np.any(hi - lo > 2.0 * eps * np.maximum(-lo, hi) + floor):
        steps += 1
        # brackets ascend with j, so equal brackets are neighbours: probe each once
        first = np.append(True, (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1]))
        owner = np.cumsum(first) - 1
        grid = lo[first, None] + (hi - lo)[first, None] * fractions
        grid[:, -1] = hi[first]
        counts = _sturm_counts(rows, pivmin, grid[:, 1:-1])
        below = np.count_nonzero(counts[owner] <= j, axis=1)
        lo, hi = grid[owner, below], grid[owner, below + 1]
    return lo + 0.5 * (hi - lo), steps


def jacobi_eigenvalues(matrix: DenseSymmetric) -> EigenDecomposition:
    """Eigenvalues of a dense symmetric matrix, ascending, by Householder
    tridiagonalization and Sturm-count multisection, on a private copy scaled
    by the least power of two above max |a_ij| (exact, and it keeps squares
    and pivots in range).  A tridiagonal entry with zero neighbours is an
    eigenvalue as it stands; the others come to within a few ulp or eps ||A||.
    sweeps_used counts multisection steps.  Raises CapacityError above
    MAX_EIGEN_ORDER."""
    n = matrix.order
    if n > MAX_EIGEN_ORDER:  # a matrix not built by materialize
        raise CapacityError(f"order {n} exceeds eigen limit {MAX_EIGEN_ORDER}")
    shift = math.frexp(float(np.max(np.abs(matrix.entries), initial=0.0)))[1]
    d, edges = _tridiagonalize(np.ldexp(matrix.entries, -shift))
    coupled = np.flatnonzero((edges[:-1] != 0.0) | (edges[1:] != 0.0))
    # edges[c + 1] joins c to c + 1, and is 0 where c + 1 is a lone entry or n
    values, steps = _multisection(d[coupled], np.append(0.0, edges[coupled + 1]))
    eigenvalues = np.ldexp(np.sort(np.concatenate((np.delete(d, coupled), values))), shift)
    eigenvalues.flags.writeable = False
    return EigenDecomposition(eigenvalues, sweeps_used=steps)


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
