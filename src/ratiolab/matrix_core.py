"""Function-sampled symmetric matrices and their entrywise m-norm limits.

The central object is the n-by-n symmetric matrix whose (i, j) entry is
f(min(i,j)/max(i,j)) for a function f defined on (0, 1].  For Riemann
integrable f the normalized entrywise norm (1/n^2) * sum |a_ij|^m tends
to the integral of |f|^m over [0, 1]; this module computes both sides of
that comparison without ever materializing the full matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import EvaluationError, QuadratureError

#: Absolute tolerance of predict_limit's adaptive quadrature.
QUADRATURE_TOL = 1e-10
#: Subdivision budget of predict_limit (panel count before giving up).
QUADRATURE_PANEL_BUDGET = 2**20
#: Left edge of the quadrature interval.  The integration interval is open
#: at 0: integrands are never evaluated at or below this point, and the
#: truncated mass is negligible (< 1e-16) for bounded or log-singular f.
OPEN_LEFT_EDGE = 2.0**-60

_MAX_RECURSION_DEPTH = 80
#: Most values norm_power hands to one exact_parts call (a block of whole
#: rows; a single longer row is its own block).  At 32K values the block's
#: temporaries stay near 1 MiB; 1M-value blocks raised peak RSS by ~24 MiB.
SUM_BLOCK = 1 << 15


@dataclass(frozen=True)
class Integrand:
    """A deterministic real function on (0, 1] with a short label.

    ``eval`` is vectorized: it maps a float64 array to a float64 array of
    the same shape, elementwise, and a float is accepted as a 0-d array
    (scalar callers take ``float(...)`` of the result).  It must be finite
    at every rational j/k with 1 <= j <= k; sample points never include 0.
    Matrix entries, rows, quadrature and Farey averages all sample this one
    function, so they see the same bits at the same point.
    """

    eval: Callable[[np.ndarray], np.ndarray]
    label: str


@dataclass(frozen=True)
class SampledMatrixSpec:
    """Order-n symmetric matrix with entries integrand(min(i,j)/max(i,j))."""

    integrand: Integrand
    order: int

    def __post_init__(self) -> None:
        if self.order < 1:
            raise ValueError(f"order must be >= 1, got {self.order}")


@dataclass(frozen=True)
class NormReport:
    """One row of a norm-convergence experiment.

    ``raw_norm_power`` is sum |a_ij|^m over all n^2 entries, ``normalized``
    is that value divided by n^2, and ``abs_error`` is the distance of the
    normalized value from the caller-supplied predicted limit.
    """

    order: int
    exponent: float
    raw_norm_power: float
    normalized: float
    predicted_limit: float
    abs_error: float


@dataclass(frozen=True)
class CesaroInput:
    """A finite real sequence a_1..a_n together with its claimed limit b."""

    terms: Sequence[float]
    claimed_limit: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "terms", tuple(float(t) for t in self.terms))
        if not self.terms:
            raise ValueError("terms must be nonempty")


def exact_parts(x: np.ndarray) -> list[float]:
    """Floats whose exact sum is exactly the sum of the values in x.

    Error-free extraction (Rump, Ogita and Oishi, "Accurate floating-point
    summation, part I", SIAM J. Sci. Comput. 2008): with sigma = 2^(e+shift),
    |x| <= 2^e and 2^shift >= size + 2, q = (x + sigma) - sigma is exact,
    every q lies on the grid ulp(sigma)/2 and their partial sums stay below
    sigma, so numpy sums the q exactly in any order.  x - q is exact too and
    is at most ulp(sigma)/2, so each pass strips 53 - shift leading bits,
    until nothing is left.  Values too large for sigma, and non-finite
    values, go to the result as they are.  math.fsum of the parts is the
    correctly rounded sum of x, the same bits as math.fsum(x.tolist()).
    """
    x = np.array(x, dtype=np.float64).ravel()
    shift = math.ceil(math.log2(x.size + 2))
    limit = math.ldexp(1.0, 1022 - shift)  # sigma + x stays finite below it
    q = np.empty_like(x)
    parts: list[float] = []
    while x.size:
        top = max(float(x.max()), -float(x.min()))
        if top == 0.0:
            break
        if not top < limit:
            return parts + x.tolist()
        sigma = math.ldexp(1.0, math.frexp(top)[1] + shift)
        np.add(x, sigma, out=q)
        q -= sigma
        parts.append(float(q.sum()))
        x -= q
    return parts


def exact_sum(x: np.ndarray) -> float:
    """Correctly rounded sum of the values in x; bitwise math.fsum(x.tolist())."""
    return math.fsum(exact_parts(x))


def matrix_entry(spec: SampledMatrixSpec, i: int, j: int) -> float:
    """Entry (i, j) of the sampled matrix, 1-based; symmetric in (i, j)."""
    n = spec.order
    if not (1 <= i <= n) or not (1 <= j <= n):
        raise IndexError(f"indices ({i}, {j}) outside 1..{n}")
    return float(spec.integrand.eval(min(i, j) / max(i, j)))


def sample_row(integrand: Integrand, k: int) -> np.ndarray:
    """Values f(j/k) for j = 1..k as a float64 array.

    Raises EvaluationError naming the offending sample point if the
    integrand returns a non-finite value anywhere in the row.
    """
    x = np.arange(1, k + 1, dtype=np.float64) / k
    values = np.asarray(integrand.eval(x), dtype=np.float64)
    if not np.all(np.isfinite(values)):
        j = int(np.argmin(np.isfinite(values))) + 1
        raise EvaluationError(
            f"integrand {integrand.label!r} is not finite at {j}/{k}"
        )
    return values


def _check_exponent(m: float) -> None:
    if not (math.isfinite(m) and m >= 1.0):
        raise ValueError(f"norm exponent must be finite and >= 1, got {m}")


def _abs_power(values: np.ndarray, m: float) -> np.ndarray:
    if m == 1.0:
        return np.abs(values)
    if m == 2.0:
        return values * values
    return np.abs(values) ** m


def norm_power(spec: SampledMatrixSpec, m: float) -> float:
    """sum |a_ij|^m over all n^2 entries, streamed over the lower triangle.

    By symmetry the full sum equals twice the triangle sum minus the
    diagonal, and every diagonal entry is f(k/k) = f(1).  Rows are sampled
    in ascending k and gathered into blocks of about SUM_BLOCK values, each
    reduced by exact_parts; one fsum of all the parts is the correctly
    rounded triangle sum, whatever the order or block size, so the result
    is reproducible bit for bit on a given platform.  Memory stays
    O(n + SUM_BLOCK).  Raises EvaluationError if the sum overflows.
    """
    _check_exponent(m)
    f = spec.integrand
    parts: list[float] = []
    block: list[np.ndarray] = []
    filled = 0
    # a term |f|^m that overflows to inf is reported below, not warned about
    with np.errstate(over="ignore"):
        for k in range(1, spec.order + 1):
            if filled + k > SUM_BLOCK and block:
                parts += exact_parts(np.concatenate(block))
                block, filled = [], 0
            block.append(_abs_power(sample_row(f, k), m))
            filled += k
            if k == 1:
                diagonal = float(block[-1][0])  # |f(1)|^m, every diagonal entry
        parts += exact_parts(np.concatenate(block))
    try:
        triangle = math.fsum(parts)
    except OverflowError:  # finite terms whose sum overflows
        triangle = math.inf
    total = 2.0 * triangle - spec.order * diagonal
    if not math.isfinite(total):
        raise EvaluationError(
            f"sum of |{f.label}|^{m} over order {spec.order} overflows"
        )
    return total


def norm_report(spec: SampledMatrixSpec, m: float, predicted: float) -> NormReport:
    """Raw and normalized m-norm power of the matrix against a predicted limit."""
    raw = norm_power(spec, m)
    n2 = spec.order * spec.order
    normalized = raw / n2
    return NormReport(
        order=spec.order,
        exponent=float(m),
        raw_norm_power=raw,
        normalized=normalized,
        predicted_limit=float(predicted),
        abs_error=abs(normalized - predicted),
    )


def predict_limit(integrand: Integrand, m: float) -> float:
    """Adaptive-quadrature value of the integral of |f(x)|^m over (0, 1].

    Composite Simpson with bisection; each split halves the local
    tolerance, so the total error stays below QUADRATURE_TOL.  The panels
    are refined level by level, and all unfinished panels of a level are
    evaluated in one call of the integrand; the accepted panels are summed
    exactly.  The interval is open at 0 (no evaluation at or below
    OPEN_LEFT_EDGE), which handles integrands with an integrable
    logarithmic singularity at the origin.  Raises QuadratureError once
    QUADRATURE_PANEL_BUDGET panels are spent.
    """
    _check_exponent(m)

    def g(x: np.ndarray) -> np.ndarray:
        return _abs_power(np.asarray(integrand.eval(x), dtype=np.float64), m)

    def simpson(a, b, fa, fmid, fb):
        return (b - a) / 6.0 * (fa + 4.0 * fmid + fb)

    a, b = OPEN_LEFT_EDGE, 1.0
    mid = 0.5 * (a + b)
    fa, fmid, fb = g(np.array([a, mid, b]))
    # one column per unfinished panel: a, mid, b, f(a), f(mid), f(b), Simpson
    panels = np.array([[a], [mid], [b], [fa], [fmid], [fb], [simpson(a, b, fa, fmid, fb)]])
    used = 3
    tol = QUADRATURE_TOL
    accepted: list[float] = []
    for depth in range(_MAX_RECURSION_DEPTH + 1):
        used += 2 * panels.shape[1]
        if used > QUADRATURE_PANEL_BUDGET:
            raise QuadratureError(
                f"quadrature for {integrand.label!r}^({m}) exceeded "
                f"{QUADRATURE_PANEL_BUDGET} panels"
            )
        a, mid, b, fa, fmid, fb, whole = panels
        lm = 0.5 * (a + mid)
        rm = 0.5 * (mid + b)
        flm, frm = np.split(g(np.concatenate([lm, rm])), 2)
        left = simpson(a, mid, fa, flm, fmid)
        right = simpson(mid, b, fmid, frm, fb)
        delta = left + right - whole
        # past _MAX_RECURSION_DEPTH the interval width is at the limit of
        # float resolution and the Richardson estimate is pure roundoff
        done = (np.abs(delta) <= 15.0 * tol) | (depth == _MAX_RECURSION_DEPTH)
        accepted += exact_parts((left + right + delta / 15.0)[done])
        if done.all():
            break
        # each unfinished panel [a, b] splits into [a, mid] and [mid, b]
        panels = np.concatenate(
            [
                np.stack([a, lm, mid, fa, flm, fmid, left]),
                np.stack([mid, rm, b, fmid, frm, fb, right]),
            ],
            axis=1,
        )[:, np.tile(~done, 2)]
        tol *= 0.5
    return math.fsum(accepted)


def weighted_cesaro(data: CesaroInput) -> float:
    """(a_1 + 2*a_2 + ... + n*a_n) / n^2.

    For sequences with a_k -> b this weighted mean approaches b/2.
    """
    terms = data.terms
    if not all(math.isfinite(t) for t in terms):
        raise ValueError("terms must all be finite")
    n = len(terms)
    return math.fsum(k * a for k, a in enumerate(terms, start=1)) / (n * n)


def convergence_table(
    integrand: Integrand, m: float, orders: Iterable[int]
) -> list[NormReport]:
    """One NormReport per order, all against the same predict_limit value.

    Orders must be strictly increasing.  Nothing is emitted if any inner
    computation fails.
    """
    orders = list(orders)
    if not orders:
        raise ValueError("orders must be nonempty")
    if any(b <= a for a, b in zip(orders, orders[1:])):
        raise ValueError(f"orders must be strictly increasing, got {orders}")
    predicted = predict_limit(integrand, m)
    return [
        norm_report(SampledMatrixSpec(integrand, n), m, predicted) for n in orders
    ]
