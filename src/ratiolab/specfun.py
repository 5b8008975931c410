"""Self-contained log-Gamma evaluation and the classical identities around it.

The evaluator is a fixed-coefficient Lanczos approximation (shift 7, nine
coefficients, ~15 significant digits), implemented locally so the package
does not depend on platform math-library Gamma availability and can be
validated against elementary arithmetic through the identity suite below:
reflection, duplication, sine products, Gamma row products, and the
integral of ln Gamma over [0, 1] computed by two independent routes.

Identity operations return signed residuals rather than booleans;
tolerances belong to the tests, not the library.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from .errors import CapacityError
from .matrix_core import SUM_BLOCK, Integrand, SampledMatrixSpec, exact_sum, norm_power

#: Lanczos shift g: the series argument is offset by g + 1/2.
LANCZOS_SHIFT = 7.0
#: Rational-approximation constants for shift 7 (c_0 followed by c_1..c_8).
LANCZOS_COEFFICIENTS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)

#: Offsets of ln_gamma's one broadcast add, one per row: z + i for the terms
#: c_i / (z + i), i = 1..8, then z + g and z + 1/2 for the tail.
_LANCZOS_OFFSETS = np.array(
    [*range(1, len(LANCZOS_COEFFICIENTS)), LANCZOS_SHIFT, 0.5], dtype=np.float64
)[:, np.newaxis]
#: The numerators c_1..c_8, as a column against the first eight offsets.
_LANCZOS_NUMERATORS = np.array(LANCZOS_COEFFICIENTS[1:])[:, np.newaxis]

#: Largest order of each O(k) route below; each streams SUM_BLOCK slices into
#: exact_sum, so memory stays flat: at 10^8 the row product, sine product and
#: closed route take 4.2 / 1.3 / 0.8 s, at most 34 MiB peak RSS (2-core x86).
MAX_STREAM_ORDER = 100_000_000

LN_2 = math.log(2.0)
LN_2PI = math.log(2.0 * math.pi)
LN_SQRT_2PI = 0.5 * LN_2PI
LN_SQRT_PI = 0.5 * math.log(math.pi)


def ln_gamma(x: np.ndarray) -> np.ndarray:
    """ln Gamma elementwise over positive x, from the fixed Lanczos table.

    Vectorized like a numpy ufunc: an array gives an array of the same
    shape, a float gives a numpy float; the caller's array is not written.
    Arguments below 1/2 take the recurrence ln Gamma(x + 1) - ln x: the
    series argument stays away from the pole at 0, no sine is called (so
    the reflection identity checks the series independently), and every
    positive double, down to 5e-324, gives a finite value.

    The input is flattened, so every shape takes the same numpy calls, and
    the series takes few of them.  One broadcast add forms, in one
    (10, size) array, z + i for the eight terms c_i / (z + i) and
    z + g and z + 1/2 for the tail; one broadcast divide turns the first
    eight rows into the terms.  Every value keeps the bits of the plain
    per-coefficient loop (ln_gamma_reference in tests/oracles.py), which
    rules out two shortcuts: the tail argument is (z + g) + 1/2, rounded
    twice, since z + (g + 1/2) rounds once and differs; and the terms are
    added to c_0 one row at a time, in coefficient order, since
    np.add.reduce over the coefficient axis is not sequential for a
    one-element input.  ln x is taken, and subtracted, only below 1/2, in
    place in the spent t row.  Peak memory is about 89 bytes per value,
    the (10, size) array and the result, whichever side of 1/2 the values
    lie on.
    """
    x = np.asarray(x, dtype=np.float64)
    flat = x.reshape(-1)
    # nan, 0 and negatives all fail the comparison; an empty x passes
    if not flat.min(initial=np.inf) > 0:
        raise ValueError("ln_gamma requires all arguments > 0")
    # the series argument z is x below 1/2 and x - 1 from 1/2 up
    shifted = (flat - (flat >= 0.5)) + _LANCZOS_OFFSETS
    terms, (t, z_half) = shifted[:-2], shifted[-2:]
    np.divide(_LANCZOS_NUMERATORS, terms, out=terms)
    s = terms[0]
    s += LANCZOS_COEFFICIENTS[0]
    for term in terms[1:]:
        s += term
    t += 0.5
    out = np.log(t)
    out *= z_half
    out += LN_SQRT_2PI
    out -= t
    out += np.log(s, out=s)
    small = flat < 0.5
    np.subtract(out, np.log(flat, out=t, where=small), out=out, where=small)
    return out.reshape(x.shape)[()]


#: ln Gamma packaged for matrix sampling; ln Gamma(x) >= 0 on (0, 1].
LNGAMMA = Integrand(eval=ln_gamma, label="lngamma")


def _grid(start: int, stop: int) -> Iterator[np.ndarray]:
    """The float64 integers start <= j < stop, in slices of SUM_BLOCK values."""
    for first in range(start, stop, SUM_BLOCK):
        yield np.arange(first, min(first + SUM_BLOCK, stop), dtype=np.float64)


def euler_reflection_residual(s: float) -> float:
    """ln Gamma(s) + ln Gamma(1-s) - ln(pi / sin(pi s)) for 0 < s < 1.

    With t = min(s, 1 - s), ln_gamma reads its series at 1 + t and 1 - t
    and subtracts ln t, which the residual adds back, so it sets two
    independent series values against ln(pi t / sin(pi t)): a direct
    accuracy probe of the evaluator.  It is finite at every s in (0, 1).
    """
    if not 0.0 < s < 1.0:
        raise ValueError(f"reflection requires 0 < s < 1, got {s!r}")
    # Near s = 1, rounding pi * s swamps the small 1 - s that sin(pi s)
    # depends on; sin(pi (1 - s)) is the same value, and 1 - s is exact
    # for s >= 1/2.  pi / sin(pi t) overflows below t = 5.6e-309, while
    # pi t / sin(pi t) is exactly 1 there
    t = min(s, 1.0 - s)
    lhs = float(ln_gamma(s)) + float(ln_gamma(1.0 - s)) + math.log(t)
    return lhs - math.log(math.pi * t / math.sin(math.pi * t))


def duplication_residual(z: float) -> float:
    """Signed residual of sqrt(pi) Gamma(2z) = 2^(2z-1) Gamma(z) Gamma(z + 1/2).

    Raises ValueError naming z where the residual is not finite: above about
    z = 1.2e305, ln Gamma(2z) overflows.
    """
    if not (math.isfinite(z) and z > 0):
        raise ValueError(f"duplication requires finite z > 0, got {z!r}")
    # an overflowing ln Gamma is reported below, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        residual = (
            LN_SQRT_PI
            + float(ln_gamma(2.0 * z))
            - (2.0 * z - 1.0) * LN_2
            - float(ln_gamma(z))
            - float(ln_gamma(z + 0.5))
        )
    if not math.isfinite(residual):
        raise ValueError(f"duplication residual is not finite at z = {z!r}")
    return residual


def sine_product_residual(k: int) -> float:
    """k - 2^(k-1) * prod_{j=1..floor(k/2)} sin^2(j pi / k), for k >= 2.

    The product is accumulated in log space: in double precision the plain
    product underflows, and 2^(k-1) overflows, past k of about 1024.
    """
    return k - math.exp((k - 1) * LN_2 + 2.0 * sine_half_product_log(k))


def sine_half_product_log(k: int) -> float:
    """log of prod_{j=1..floor(k/2)} sin(j pi / k); equals (ln k - (k-1) ln 2) / 2.

    Raises CapacityError above MAX_STREAM_ORDER before any term is computed.
    """
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if k > MAX_STREAM_ORDER:
        raise CapacityError(f"sine product order {k} exceeds budget {MAX_STREAM_ORDER}")
    return exact_sum(np.log(np.sin(j * math.pi / k)) for j in _grid(1, k // 2 + 1))


def gamma_row_log_product(k: int) -> float:
    """sum_{j=1..k-1} ln Gamma(j/k), i.e. the log of prod Gamma(j/k).

    Equals ((k-1)/2) ln(2 pi) - (1/2) ln k; see gamma_row_log_product_closed.
    Raises CapacityError above MAX_STREAM_ORDER before any term is computed.
    """
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if k > MAX_STREAM_ORDER:
        raise CapacityError(f"row product order {k} exceeds budget {MAX_STREAM_ORDER}")
    return exact_sum(ln_gamma(j / k) for j in _grid(1, k))


def gamma_row_log_product_closed(k: int) -> float:
    """Closed form of gamma_row_log_product, from elementary constants only."""
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    return 0.5 * (k - 1) * LN_2PI - 0.5 * math.log(k)


def gamma_integral_closed_partial(n: int) -> float:
    """(1/n^2) * [ (n(n-1)/2) ln(2 pi) - ln n! ]; tends to ln sqrt(2 pi).

    ln n! is summed exactly from numpy's ln j, deliberately bypassing the
    Gamma evaluator, so this route stays independent of it and the
    cross-check against gamma_integral_via_matrix is meaningful.  Raises
    CapacityError above MAX_STREAM_ORDER before any term is computed.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n > MAX_STREAM_ORDER:
        raise CapacityError(f"closed-route order {n} exceeds budget {MAX_STREAM_ORDER}")
    log_factorial = exact_sum(np.log(j) for j in _grid(1, n + 1))
    return (0.5 * n * (n - 1) * LN_2PI - log_factorial) / (n * n)


def gamma_integral_via_matrix(n: int) -> float:
    """(1/n^2) * entrywise 1-norm of the order-n ln Gamma sampled matrix.

    Analytically identical to gamma_integral_closed_partial(n); computing
    it through the matrix route cross-validates the Lanczos evaluator
    against pure elementary arithmetic.
    """
    spec = SampledMatrixSpec(LNGAMMA, n)
    return norm_power(spec, 1.0) / (n * n)
