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

import numpy as np

from .matrix_core import Integrand, SampledMatrixSpec, exact_sum, norm_power

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

LN_2 = math.log(2.0)
LN_2PI = math.log(2.0 * math.pi)
LN_SQRT_2PI = 0.5 * LN_2PI
LN_SQRT_PI = 0.5 * math.log(math.pi)


def ln_gamma(x: np.ndarray) -> np.ndarray:
    """ln Gamma elementwise over positive x, from the fixed Lanczos table.

    Vectorized like a numpy ufunc: an array gives an array of the same
    shape, a float gives a numpy float.  Arguments below 1/2 are routed
    through the reflection formula Gamma(x) Gamma(1-x) = pi / sin(pi x),
    which keeps the series argument away from the pole at 0 and preserves
    accuracy there.
    """
    x = np.asarray(x, dtype=np.float64)
    if not np.all(x > 0):
        raise ValueError("ln_gamma requires all arguments > 0")
    reflect = x < 0.5
    xr = np.where(reflect, 1.0 - x, x)
    z = xr - 1.0
    s = np.full_like(z, LANCZOS_COEFFICIENTS[0])
    for i, c in enumerate(LANCZOS_COEFFICIENTS[1:], start=1):
        s += c / (z + i)
    t = z + LANCZOS_SHIFT + 0.5
    out = np.asarray(LN_SQRT_2PI + (z + 0.5) * np.log(t) - t + np.log(s))
    if reflect.any():
        xm = x[reflect]
        out[reflect] = np.log(np.pi / np.sin(np.pi * xm)) - out[reflect]
    return out[()]


#: ln Gamma packaged for matrix sampling; ln Gamma(x) >= 0 on (0, 1].
LN_GAMMA_INTEGRAND = Integrand(eval=ln_gamma, label="lngamma")


def euler_reflection_residual(s: float) -> float:
    """ln Gamma(s) + ln Gamma(1-s) - ln(pi / sin(pi s)) for 0 < s < 1.

    The magnitude is a direct accuracy probe of the evaluator.
    """
    if not 0.0 < s < 1.0:
        raise ValueError(f"reflection requires 0 < s < 1, got {s!r}")
    return (
        float(ln_gamma(s))
        + float(ln_gamma(1.0 - s))
        - math.log(math.pi / math.sin(math.pi * s))
    )


def duplication_residual(z: float) -> float:
    """Signed residual of sqrt(pi) Gamma(2z) = 2^(2z-1) Gamma(z) Gamma(z + 1/2)."""
    if not (math.isfinite(z) and z > 0):
        raise ValueError(f"duplication requires finite z > 0, got {z!r}")
    return (
        LN_SQRT_PI
        + float(ln_gamma(2.0 * z))
        - (2.0 * z - 1.0) * LN_2
        - float(ln_gamma(z))
        - float(ln_gamma(z + 0.5))
    )


def sine_product_odd_residual(n: int) -> float:
    """(2n+1) - 2^(2n) * prod_{k=1..n} sin^2(k pi / (2n+1)).

    The product is accumulated in log space; the plain product underflows
    past n of roughly 250 in double precision.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    order = 2 * n + 1
    return order - math.exp((order - 1) * LN_2 + 2.0 * sine_half_product_log(order))


def sine_product_even_residual(n: int) -> float:
    """2n - 2^(2n-1) * prod_{k=1..n} sin^2(k pi / (2n)), in log space."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    order = 2 * n
    return order - math.exp((order - 1) * LN_2 + 2.0 * sine_half_product_log(order))


def sine_half_product_log(k: int) -> float:
    """log of prod_{j=1..floor(k/2)} sin(j pi / k); equals (ln k - (k-1) ln 2) / 2."""
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    return math.fsum(math.log(math.sin(j * math.pi / k)) for j in range(1, k // 2 + 1))


def gamma_row_log_product(k: int) -> float:
    """sum_{j=1..k-1} ln Gamma(j/k), i.e. the log of prod Gamma(j/k).

    Equals ((k-1)/2) ln(2 pi) - (1/2) ln k; see gamma_row_log_product_closed.
    """
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    return exact_sum(ln_gamma(np.arange(1, k) / k))


def gamma_row_log_product_closed(k: int) -> float:
    """Closed form of gamma_row_log_product, from elementary constants only."""
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    return 0.5 * (k - 1) * LN_2PI - 0.5 * math.log(k)


def gamma_integral_closed_partial(n: int) -> float:
    """(1/n^2) * [ (n(n-1)/2) ln(2 pi) - ln n! ]; tends to ln sqrt(2 pi).

    ln n! is summed directly from ln k, deliberately bypassing the Gamma
    evaluator, so this route stays independent of it and the cross-check
    against gamma_integral_via_matrix is meaningful.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    log_factorial = math.fsum(math.log(k) for k in range(1, n + 1))
    return (0.5 * n * (n - 1) * LN_2PI - log_factorial) / (n * n)


def gamma_integral_via_matrix(n: int) -> float:
    """(1/n^2) * entrywise 1-norm of the order-n ln Gamma sampled matrix.

    Analytically identical to gamma_integral_closed_partial(n); computing
    it through the matrix route cross-validates the Lanczos evaluator
    against pure elementary arithmetic.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    spec = SampledMatrixSpec(LN_GAMMA_INTEGRAND, n)
    return norm_power(spec, 1.0) / (n * n)
