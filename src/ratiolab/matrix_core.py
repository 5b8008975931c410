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
from itertools import chain
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import CapacityError, EvaluationError

#: Absolute tolerance of predict_limit's adaptive quadrature.
QUADRATURE_TOL = 1e-10
#: Work budget of predict_limit: panels refined (two evaluations each) before giving up.
QUADRATURE_PANEL_BUDGET = 2**19
#: Left edge of the quadrature interval, which is open at 0: no integrand is
#: evaluated at or below it.  predict_limit refuses an integrand whose mass
#: below the edge it cannot bound by QUADRATURE_TOL (see there).
OPEN_LEFT_EDGE = 2.0**-60

#: Values exact_sum extracts at once: its stream fills one block of this
#: many values, a chunk split where it does not fit.  Its block and scratch
#: buffers, 256 KiB each at 32K, are allocated once per sum and refilled
#: block after block.
SUM_BLOCK = 1 << 15
#: Largest order norm_power accepts: its n(n+1)/2 samples take about 1.9 s
#: for exp and 8-9 s for lngamma at n = 20000 (2-core x86).
MAX_NORM_ORDER = 20_000


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
        if isinstance(self.order, bool) or not isinstance(self.order, (int, np.integer)):
            raise ValueError(f"order must be an integer, got {self.order!r}")
        if self.order < 1:
            raise ValueError(f"order must be >= 1, got {self.order}")


@dataclass(frozen=True)
class NormReport:
    """One row of a norm-convergence experiment: ``raw_norm_power`` is
    sum |a_ij|^m over all n^2 entries, compared with a predicted limit."""

    order: int
    exponent: float
    raw_norm_power: float
    predicted_limit: float

    @property
    def normalized(self) -> float:
        return self.raw_norm_power / (self.order * self.order)

    @property
    def abs_error(self) -> float:
        return abs(self.normalized - self.predicted_limit)


def _extract(x: np.ndarray, q: np.ndarray) -> list[float]:
    """Floats whose exact sum is exactly the sum of the values in x.

    Error-free extraction (Rump, Ogita and Oishi, "Accurate floating-point
    summation, part I", SIAM J. Sci. Comput. 2008): with sigma = 2^(e+shift),
    |x| <= 2^e and 2^shift >= size + 2, q = (x + sigma) - sigma is exact,
    every q lies on the grid ulp(sigma)/2 and their partial sums stay below
    sigma, so numpy sums the q exactly in any order.  x - q is exact too and
    is at most ulp(sigma)/2, so each pass strips 53 - shift leading bits,
    until nothing is left.  Values too large for sigma, and non-finite
    values, go to the result as they are.  math.fsum of the parts is the
    correctly rounded sum of x.  Runs in place on the 1-d float64 array x,
    which it overwrites with what is left after the passes, and uses q, of
    the same size, as scratch.
    """
    shift = math.ceil(math.log2(x.size + 2))
    limit = math.ldexp(1.0, 1022 - shift)  # sigma + x stays finite below it
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


def exact_sum(chunks: Iterable[np.ndarray]) -> float:
    """Correctly rounded sum of the values in a stream of 1-d arrays.

    The values are copied into one block buffer of SUM_BLOCK values, a chunk
    split across blocks where it does not fit, and each full block is
    extracted in place, so a sum of any length allocates its two block-sized
    buffers once; math.fsum of all parts rounds once.  The caller's chunks
    are left as they are, and the sum depends neither on order nor on
    chunking: it has the bits of math.fsum over the concatenated values, and
    an empty stream sums to 0.0.  If a value or the sum is not finite the
    result is inf or nan, not an error: nan where math.fsum raises (finite
    values whose sum overflows, or inf - inf).
    """
    parts: list[float] = []
    block = np.empty(SUM_BLOCK)
    scratch = np.empty(SUM_BLOCK)
    filled = 0
    for chunk in chunks:
        while filled + chunk.size >= SUM_BLOCK:
            take = SUM_BLOCK - filled
            block[filled:] = chunk[:take]
            parts += _extract(block, scratch)
            chunk = chunk[take:]
            filled = 0
        block[filled : filled + chunk.size] = chunk
        filled += chunk.size
    parts += _extract(block[:filled], scratch[:filled])
    try:
        return math.fsum(parts)
    except (OverflowError, ValueError):
        return math.nan


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
    x = np.arange(1, k + 1, dtype=np.float64)
    x /= k
    values = np.asarray(integrand.eval(x), dtype=np.float64)
    if not np.isfinite(values).all():
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

    By symmetry the full sum is twice the triangle sum minus the diagonal,
    and every diagonal entry is f(k/k) = f(1).  Rows are sampled in
    ascending k and summed by exact_sum, so the triangle sum is correctly
    rounded and the result is reproducible bit for bit on a given platform,
    in O(n + SUM_BLOCK) memory.  Raises EvaluationError if the sum overflows,
    and CapacityError above MAX_NORM_ORDER before any row is sampled.
    """
    _check_exponent(m)
    if spec.order > MAX_NORM_ORDER:
        raise CapacityError(f"norm order {spec.order} exceeds budget {MAX_NORM_ORDER}")
    f = spec.integrand
    # a term |f|^m that overflows to inf is reported below, not warned about
    with np.errstate(over="ignore"):
        rows = (_abs_power(sample_row(f, k), m) for k in range(1, spec.order + 1))
        first = next(rows)  # row 1 is [|f(1)|^m], every diagonal entry
        triangle = exact_sum(chain([first], rows))
    # 2 * triangle - n * |f(1)|^m, rounded once by exact_sum; 2 * triangle is
    # never formed.  The triangle holds the n diagonal terms, so no partial sum
    # exceeds the result, and the sum is nan only where it is not finite anyway.
    total = exact_sum([np.array([triangle, -spec.order * float(first[0]), triangle])])
    if not math.isfinite(total):
        raise EvaluationError(f"sum of |{f.label}|^{m} over order {spec.order} overflows")
    return total


def predict_limit(integrand: Integrand, m: float) -> float:
    """Adaptive-quadrature value of the integral of |f(x)|^m over (0, 1].

    Composite Simpson with bisection.  A panel [a, b] whose two halves sum
    to S is accepted when delta = S - whole is finite and
    |delta| <= max(15 QUADRATURE_TOL (b - a), 16 eps S): its share of the
    tolerance, or the roundoff of its own Simpson sums where that is larger
    (Gander and Gautschi, "Adaptive quadrature - revisited", BIT 40, 2000).
    The panels are refined level by level, and all unfinished panels of a
    level are evaluated in one call of the integrand; the accepted panels
    are summed exactly.  The interval is open at 0 (no evaluation at or
    below a = OPEN_LEFT_EDGE), which handles integrands with an integrable
    singularity at the origin.  The mass below a is never sampled, so the
    first samples must bound it: CapacityError is raised at once when
    2 a |f(a)|^m > QUADRATURE_TOL, which bounds that mass by QUADRATURE_TOL
    for x^-p and |ln x|^m wherever it lets them through.  Raises
    EvaluationError, naming the smallest bad point of the batch, as soon as
    a value |f(x)|^m is not finite, and CapacityError once
    QUADRATURE_PANEL_BUDGET panels are spent.
    """
    _check_exponent(m)

    def g(x: np.ndarray) -> np.ndarray:
        values = _abs_power(np.asarray(integrand.eval(x), dtype=np.float64), m)
        finite = np.isfinite(values)
        if not finite.all():
            bad = float(np.min(x[~finite]))
            raise EvaluationError(f"|{integrand.label}|^{m} is not finite at x = {bad}")
        return values

    def simpson(a, b, fa, fmid, fb):
        return (b - a) / 6.0 * (fa + 4.0 * fmid + fb)

    # g reports an |f|^m that overflows; a Simpson sum that overflows never passes
    with np.errstate(over="ignore", invalid="ignore"):
        a, b = OPEN_LEFT_EDGE, 1.0
        fa, fmid, fb = g(np.array([a, 0.5 * (a + b), b]))
        if 2.0 * a * fa > QUADRATURE_TOL:
            raise CapacityError(
                f"quadrature for {integrand.label!r}^({m}) cannot bound the mass "
                f"below the left edge x = {a}"
            )
        # one column per unfinished panel: a, b, f(a), f(mid), f(b), with mid = (a + b) / 2
        panels = np.array([[a], [b], [fa], [fmid], [fb]])
        used = 0
        accepted: list[np.ndarray] = []
        while panels.shape[1]:
            used += panels.shape[1]
            if used > QUADRATURE_PANEL_BUDGET:
                raise CapacityError(
                    f"quadrature for {integrand.label!r}^({m}) exceeded "
                    f"{QUADRATURE_PANEL_BUDGET} panels"
                )
            a, b, fa, fmid, fb = panels
            mid = 0.5 * (a + b)
            lm = 0.5 * (a + mid)
            rm = 0.5 * (mid + b)
            flm, frm = np.split(g(np.concatenate([lm, rm])), 2)
            halves = simpson(a, mid, fa, flm, fmid) + simpson(mid, b, fmid, frm, fb)
            delta = halves - simpson(a, b, fa, fmid, fb)
            # a panel too narrow to split re-samples its own points, so its delta is 0
            bound = np.maximum(15.0 * QUADRATURE_TOL * (b - a), 16.0 * math.ulp(1.0) * halves)
            done = np.isfinite(delta) & (np.abs(delta) <= bound)
            accepted.append((halves + delta / 15.0)[done])
            # each unfinished panel [a, b] splits into [a, mid] and [mid, b]
            panels = np.concatenate(
                [np.stack([a, mid, fa, flm, fmid]), np.stack([mid, b, fmid, frm, fb])], axis=1
            )[:, np.tile(~done, 2)]
    return exact_sum(accepted)


def weighted_cesaro(terms: Sequence[float]) -> float:
    """(a_1 + 2*a_2 + ... + n*a_n) / n^2.

    For sequences with a_k -> b this weighted mean approaches b/2.  A term
    k*a_k or a sum past the float range gives inf or nan, as exact_sum does.
    """
    try:
        terms = np.array([float(t) for t in terms])
    except OverflowError:  # an integer past the float range
        raise ValueError("terms must all be finite") from None
    if not terms.size:
        raise ValueError("terms must be nonempty")
    if not np.isfinite(terms).all():
        raise ValueError("terms must all be finite")
    with np.errstate(over="ignore"):  # a term k*a_k past the float range is inf
        return exact_sum([np.arange(1, terms.size + 1) * terms]) / terms.size**2


def convergence_table(
    integrand: Integrand, m: float, orders: Iterable[int]
) -> list[NormReport]:
    """One NormReport per order, all against the same predict_limit value.

    Orders must be strictly increasing.  Nothing is emitted if any inner
    computation fails; the reports are computed from the largest order
    down, so an order past MAX_NORM_ORDER raises before any row is sampled.
    """
    orders = list(orders)
    if not orders:
        raise ValueError("orders must be nonempty")
    if any(b <= a for a, b in zip(orders, orders[1:])):
        raise ValueError(f"orders must be strictly increasing, got {orders}")
    predicted = predict_limit(integrand, m)
    raw = {n: norm_power(SampledMatrixSpec(integrand, n), m) for n in orders[::-1]}
    return [NormReport(n, float(m), raw[n], predicted) for n in orders]
