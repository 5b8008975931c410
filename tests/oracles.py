"""Independent brute-force oracles used to pin expected values in the tests.

Everything here deliberately ignores the package's streaming/compensated
implementations: plain Python loops, plain summation, exhaustive
enumeration.  Slow but unarguable.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import mpmath
import numpy as np

from ratiolab.farey import farey_sequence
from ratiolab.matrix_core import Integrand, SampledMatrixSpec, matrix_entry
from ratiolab.specfun import LANCZOS_COEFFICIENTS, LANCZOS_SHIFT, LN_2PI, LN_SQRT_2PI, ln_gamma


def naive_norm_power(spec: SampledMatrixSpec, m: float) -> float:
    """Plain double loop over all n^2 entries with plain summation."""
    total = 0.0
    for i in range(1, spec.order + 1):
        for j in range(1, spec.order + 1):
            total += abs(matrix_entry(spec, i, j)) ** m
    return total


def ln_gamma_reference(x: np.ndarray) -> np.ndarray:
    """ln Gamma by the plain Lanczos loop: one temporary per coefficient,
    ln Gamma(x + 1) - ln x below 1/2, with ln x subtracted from a gathered
    subset.

    The bit-for-bit reference of specfun.ln_gamma, which evaluates the same
    series with its terms fused.
    """
    x = np.asarray(x, dtype=np.float64)
    if not np.all(x > 0):
        raise ValueError("ln_gamma requires all arguments > 0")
    small = x < 0.5
    # the series gives ln Gamma(z + 1)
    z = np.where(small, x, x - 1.0)
    s = np.full_like(z, LANCZOS_COEFFICIENTS[0])
    for i, c in enumerate(LANCZOS_COEFFICIENTS[1:], start=1):
        s += c / (z + i)
    t = z + LANCZOS_SHIFT + 0.5
    out = np.asarray(LN_SQRT_2PI + (z + 0.5) * np.log(t) - t + np.log(s))
    out[small] = out[small] - np.log(x[small])
    return out[()]


def eigenvalues_reference(full) -> np.ndarray:
    """Eigenvalues of the symmetric array full, ascending float64, by
    mpmath.eigsy (Householder reduction and implicit QL) at 30 digits on the
    exact float64 entries: no LAPACK or BLAS call and no float64 rounding
    before the final conversion."""
    with mpmath.workdps(30):
        values = mpmath.eigsy(mpmath.matrix(np.asarray(full, dtype=np.float64).tolist()), eigvals_only=True)
    return np.sort(np.array([float(v) for v in values]))


def sine_half_product_log_reference(k: int) -> float:
    """log of prod_{j<=k/2} sin(j pi / k) by the scalar libm loop, summed by math.fsum."""
    return math.fsum(math.log(math.sin(j * math.pi / k)) for j in range(1, k // 2 + 1))


def gamma_row_log_product_reference(k: int) -> float:
    """sum_{j<k} ln Gamma(j/k) from the whole row, evaluated at once, summed by math.fsum."""
    return math.fsum(ln_gamma(np.arange(1, k) / k).tolist())


def closed_partial(n: int, log_factorial: float) -> float:
    """(1/n^2) * [ (n(n-1)/2) ln(2 pi) - ln n! ], given ln n!."""
    return (0.5 * n * (n - 1) * LN_2PI - log_factorial) / (n * n)


def gamma_integral_closed_partial_reference(n: int) -> float:
    """The closed route with ln n! from the scalar libm loop, summed by math.fsum."""
    return closed_partial(n, math.fsum(math.log(j) for j in range(1, n + 1)))


def naive_weighted_sum(terms) -> float:
    """Plain accumulation of sum k * a_k."""
    total = 0.0
    for k, a in enumerate(terms, start=1):
        total += k * a
    return total


def brute_farey(x: int) -> list[tuple[int, int]]:
    """All coprime pairs 0 < b <= c <= x, sorted by value."""
    pairs = [
        (b, c)
        for c in range(1, x + 1)
        for b in range(1, c + 1)
        if math.gcd(b, c) == 1
    ]
    pairs.sort(key=lambda bc: bc[0] / bc[1])
    return pairs


def coprime_row(c: int) -> np.ndarray:
    """The numerators 1 <= b <= c with gcd(b, c) = 1, ascending int64, one gcd per b."""
    b = np.arange(1, c + 1, dtype=np.int64)
    return b[np.gcd(b, c) == 1]


def farey_sequence_reference(x: int) -> np.ndarray:
    """The Farey fractions of order x as ascending (b, c) rows of an int64
    (count, 2) array, sorted by a float argsort of b/c.

    The bit-for-bit reference of farey.farey_sequence, which sorts exact
    integer keys.  Sorting by the float b/c is exact here too: distinct
    fractions with c <= x differ by at least 1/x^2 (4e-8 at x = 5000), far
    above the rounding error of at most 2^-54 in each quotient b/c <= 1.
    """
    rows = [coprime_row(c) for c in range(1, x + 1)]
    c = np.repeat(np.arange(1, x + 1, dtype=np.int64), [row.size for row in rows])
    b = np.concatenate(rows)
    order = np.argsort(b / c)
    return np.stack([b[order], c[order]], axis=1)


def totient_direct(n: int) -> int:
    """Count residues 1 <= k <= n coprime to n."""
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def linear_totients(limit: int) -> list[int]:
    """phi(n) for 0 <= n <= limit (phi[0] = 0) by a linear sieve: each
    composite is struck once, from its least prime factor."""
    phi = [0] * (limit + 1)
    phi[1] = 1
    is_composite = bytearray(limit + 1)
    primes: list[int] = []
    for i in range(2, limit + 1):
        if not is_composite[i]:
            primes.append(i)
            phi[i] = i - 1
        for p in primes:
            ip = i * p
            if ip > limit:
                break
            is_composite[ip] = 1
            if i % p == 0:
                phi[ip] = phi[i] * p
                break
            phi[ip] = phi[i] * (p - 1)
    return phi


def mobius(limit: int) -> list[int]:
    """mu(n) for 0 <= n <= limit (mu[0] unused) by a plain prime-marking loop."""
    mu = [1] * (limit + 1)
    is_composite = bytearray(limit + 1)
    for p in range(2, limit + 1):
        if is_composite[p]:
            continue
        is_composite[p * p :: p] = b"\x01" * len(range(p * p, limit + 1, p))
        for multiple in range(p, limit + 1, p):
            mu[multiple] = -mu[multiple]
        for multiple in range(p * p, limit + 1, p * p):
            mu[multiple] = 0
    return mu


def phi_by_mobius(x: int, mu: list[int]) -> int:
    """Phi(x) = (1 + sum_{d<=x} mu(d) floor(x/d)^2) / 2, with mu from mobius(limit >= x).

    Counts the coprime pairs in [1, x]^2 by Moebius inversion, without any
    totient: there are 2 Phi(x) - 1 of them.
    """
    return (1 + sum(mu[d] * (x // d) ** 2 for d in range(1, x + 1))) // 2


def coprime_pair_count(n: int) -> int:
    """Exhaustive gcd double loop over [1, n]^2."""
    return sum(
        1 for a in range(1, n + 1) for b in range(1, n + 1) if math.gcd(a, b) == 1
    )


def exp_row_mean(k: int) -> float:
    """(1/k) * sum_{j<=k} e^(j/k), plainly accumulated."""
    total = 0.0
    for j in range(1, k + 1):
        total += math.exp(j / k)
    return total / k


def last_two_rows_mismatches(entries) -> int:
    """Direct recount of sign disagreements between the last two rows."""
    n = len(entries)
    count = 0
    for i in range(n - 1):
        if entries[n - 2][i] * entries[n - 1][i] == -1:
            count += 1
    return count


def ratio_hadamard_search(n: int) -> list[np.ndarray]:
    """Every Hadamard matrix of order n with entries s(min(i,j)/max(i,j)) for
    some sign s on the reduced fractions, as int64 arrays, by a pruned search.

    The variables are the fractions b/c of farey_sequence(n).  Row i holds s
    at j/i for j <= i and at i/j for j > i, so, with the rows filled from n
    down, row i is complete once the fractions whose denominator divides i
    are set: those not set by a later row are its new variables.  A partial
    sign is extended by every choice for them and kept only if the completed
    row is orthogonal to every later row.  This walks the tree of a
    backtracking search one level at a time, with all partial signs of a
    level extended at once: order 8 takes about 0.1 s, order 10 about 4 s,
    and at order 12 one level would hold about 75 GiB of partial signs.
    """
    index = {(b, c): v for v, (b, c) in enumerate(farey_sequence(n).fractions.tolist())}

    def variable(i: int, j: int) -> int:
        g = math.gcd(i, j)
        return index[(min(i, j) // g, max(i, j) // g)]

    # cells[i - 1, j - 1]: the variable of entry (i, j)
    cells = np.array([[variable(i, j) for j in range(1, n + 1)] for i in range(1, n + 1)])
    signs = np.zeros((1, len(index)), dtype=np.int64)  # one partial sign per array row
    unset = np.ones(len(index), dtype=bool)
    for i in range(n, 0, -1):
        free = np.unique(cells[i - 1][unset[cells[i - 1]]])
        unset[free] = False
        choices = np.array(list(itertools.product((1, -1), repeat=free.size)), dtype=np.int64)
        signs = np.repeat(signs, len(choices), axis=0)
        signs[:, free] = np.tile(choices, (len(signs) // len(choices), 1))
        row = signs[:, cells[i - 1]]
        for later in range(i, n):
            signs = signs[(row * signs[:, cells[later]]).sum(axis=1) == 0]
            row = signs[:, cells[i - 1]]
    return [sign[cells] for sign in signs]


def ratio_hadamard_brute(n: int) -> list[np.ndarray]:
    """Every Hadamard ratio sign matrix of order n (see ratio_hadamard_search),
    by trying every sign on the fractions j/k <= 1 with k <= n, reduced by
    Fraction, and testing M M^T = n I in integers."""
    fractions = sorted({Fraction(j, k) for k in range(1, n + 1) for j in range(1, k + 1)})
    position = {f: v for v, f in enumerate(fractions)}
    cells = np.array(
        [[position[Fraction(min(i, j), max(i, j))] for j in range(1, n + 1)] for i in range(1, n + 1)]
    )
    found = []
    for signs in itertools.product((1, -1), repeat=len(fractions)):
        matrix = np.array(signs, dtype=np.int64)[cells]
        if np.array_equal(matrix @ matrix.T, n * np.eye(n, dtype=np.int64)):
            found.append(matrix)
    return found
