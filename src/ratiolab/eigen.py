"""Dense symmetric eigensolver (round-robin Jacobi) and spectral-sum checks.

The solver is a Jacobi iteration in the round-robin ordering of Brent and
Luk: each step rotates n/2 disjoint index pairs at once as batched 2x2
products, so numpy does the work of a whole step in a few calls.  It is
short, robust and accuracy-friendly at desk scale, and independent of any
external linear-algebra eigensolver, so the spectral sums it produces can
serve as one side of a dual-route check against direct entrywise summation
(sum of eigenvalue squares equals the squared Frobenius norm).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import CapacityError, ConvergenceError
from .matrix_core import Integrand, SampledMatrixSpec, exact_sum, sample_row

#: Sweeps stop once the off-diagonal Frobenius norm is at most JACOBI_TOL * ||A||_F.
JACOBI_TOL = 1e-12
#: Sweeps jacobi_eigenvalues runs before it raises ConvergenceError.
MAX_SWEEPS = 64
#: Largest order the eigen path accepts: order 512 takes 13-24 s on a 2-core x86 machine.
MAX_JACOBI_ORDER = 512


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
    sweeps_used: int
    off_diag_residual: float


def materialize(spec: SampledMatrixSpec) -> DenseSymmetric:
    """The sampled matrix: row k and column k hold f(j/k) for j <= k.

    Raises CapacityError above MAX_JACOBI_ORDER before any row is sampled.
    """
    n = spec.order
    if n > MAX_JACOBI_ORDER:
        raise CapacityError(f"order {n} exceeds Jacobi limit {MAX_JACOBI_ORDER}")
    full = np.empty((n, n), dtype=np.float64)
    for k in range(1, n + 1):
        row = sample_row(spec.integrand, k)
        full[k - 1, :k] = row
        full[:k, k - 1] = row
    return DenseSymmetric(full)


def _off_diag_frobenius(b: np.ndarray) -> float:
    # summed directly over off-diagonal entries: subtracting diagonal squares
    # from the total cancels catastrophically once the residual nears
    # sqrt(eps) * ||B||_F and would stall the convergence test
    off = b.copy()
    np.fill_diagonal(off, 0.0)
    return math.sqrt(float(np.sum(off * off)))


def _round_robin_move(m: int) -> np.ndarray:
    """Slot permutation from one round-robin pairing to the next (m even).

    Slots 2i and 2i+1 hold pair i, so the even slots are the top row of the
    circle method and the odd slots its bottom row.  Slot 0 stays put and
    every other index moves one place around the circle: the top row shifts
    right, the bottom row shifts left, and the row ends turn over.  After
    m - 1 moves every two indices have been paired exactly once.
    """
    move = np.arange(m)
    if m > 2:
        move[2] = 1
        move[4::2] = np.arange(2, m - 2, 2)
        move[1 : m - 2 : 2] = np.arange(3, m, 2)
        move[m - 1] = m - 2
    return move


def _pair_rotations(b: np.ndarray) -> np.ndarray:
    """Jacobi rotations, shape (m/2, 2, 2), annihilating each (2i, 2i+1) entry."""
    m = b.shape[0]
    flat = b.reshape(-1)
    stride = 2 * (m + 1)
    apq = flat[1::stride]
    diff = flat[m + 1 :: stride] - flat[::stride]
    # skipped: apq == 0 (it fails the test as well), and angles below float
    # resolution, where annihilating the pair directly perturbs eigenvalues
    # by at most 2|apq|.  theta = inf gives t = 0, i.e. c = 1 and s = 0.
    rotate = np.abs(apq) > 1e-300 * np.abs(diff)
    theta = np.divide(diff, 2.0 * apq, out=np.full(apq.shape, np.inf), where=rotate)
    # hypot keeps theta^2 from overflowing: past |theta| ~ 1e8 it returns
    # |theta|, so t is exactly the large-angle limit 1 / (2 theta)
    t = np.copysign(1.0, theta) / (np.abs(theta) + np.hypot(theta, 1.0))
    c = 1.0 / np.hypot(t, 1.0)
    s = t * c
    return np.stack((c, -s, s, c), axis=-1).reshape(-1, 2, 2)


def jacobi_eigenvalues(matrix: DenseSymmetric) -> EigenDecomposition:
    """Eigenvalues of a dense symmetric matrix by round-robin Jacobi rotations.

    Each step rotates n/2 disjoint pairs at once, as batched 2x2 products on
    the rows and then the columns, and moves to the next pairing of the
    round-robin (circle-method) ordering of Brent and Luk (1985); a sweep of
    n - 1 steps visits every pair once.  An odd order gets a bye: a zero
    row and column that is never rotated (its pair entry stays zero) and is
    dropped at the end, so a true zero eigenvalue is neither lost nor added.

    Sweeps run until the off-diagonal Frobenius norm drops to JACOBI_TOL
    times the initial Frobenius norm of the whole matrix; raises
    ConvergenceError (carrying the residual) if MAX_SWEEPS are exhausted
    first, and CapacityError above MAX_JACOBI_ORDER.  Eigenvalues are
    returned ascending.  Operates on a private working copy.
    """
    n = matrix.order
    if n > MAX_JACOBI_ORDER:  # a matrix not built by materialize
        raise CapacityError(f"order {n} exceeds Jacobi limit {MAX_JACOBI_ORDER}")
    b = np.pad(matrix.entries, (0, n % 2))
    m = b.shape[0]
    slots = np.arange(m)  # original index in each slot; index n is the bye
    move = _round_robin_move(m)
    flat_stride = 2 * (m + 1)
    threshold = JACOBI_TOL * math.sqrt(float(np.sum(b * b)))
    sweeps = 0
    while (residual := _off_diag_frobenius(b)) > threshold:
        if sweeps >= MAX_SWEEPS:
            raise ConvergenceError(
                f"Jacobi did not converge in {MAX_SWEEPS} sweeps "
                f"(off-diagonal residual {residual:.3e}, threshold {threshold:.3e})",
                residual=residual,
            )
        for _ in range(m - 1):
            g = _pair_rotations(b)
            b = (g @ b.reshape(-1, 2, m)).reshape(m, m)
            # the column rotation is the row rotation of the transpose; the
            # matrix is symmetric, so its transpose is kept as the new matrix
            b = (g @ b.T.reshape(-1, 2, m)).reshape(m, m)
            # the rotations annihilate the pair entries analytically
            flat = b.reshape(-1)
            flat[1::flat_stride] = 0.0
            flat[m::flat_stride] = 0.0
            b = b.take(move, axis=0).take(move, axis=1)
            slots = slots[move]
        sweeps += 1
    eigenvalues = np.sort(np.diagonal(b)[slots < n])
    eigenvalues.flags.writeable = False
    return EigenDecomposition(eigenvalues, sweeps_used=sweeps, off_diag_residual=residual)


class SpectralSums(NamedTuple):
    trace: float
    sum_sq: float
    normalized_sum_sq: float


def spectral_sum_report(integrand: Integrand, n: int) -> SpectralSums:
    """Trace, sum of squared eigenvalues, and the n^2-normalized square sum.

    The trace equals n * f(1) (every diagonal entry is f(1)) and the square
    sum equals the squared Frobenius norm, i.e. the entrywise 2-norm power;
    the normalized square sum tends to the integral of f^2 as n grows.
    Raises CapacityError above MAX_JACOBI_ORDER before any row is sampled.
    """
    lam = jacobi_eigenvalues(materialize(SampledMatrixSpec(integrand, n))).eigenvalues
    sum_sq = exact_sum([lam * lam])
    return SpectralSums(trace=exact_sum([lam]), sum_sq=sum_sq, normalized_sum_sq=sum_sq / (n * n))
