"""Correctness checks of operation outputs against independent references.

Each check parses one operation's output and returns a list of problems;
an empty list means the output is correct. The references never call into
``ratiolab``: closed forms, a Moebius count of Phi(x), ``math.lgamma`` and
brute-force Sylvester entries. Tolerances are those of the acceptance
suite (tests/test_acceptance.py) unless a comment says otherwise.
"""

from __future__ import annotations

import csv
import io
import math
from functools import lru_cache

from plan import cli_option, int_list

E = math.e
LN_2PI = math.log(2.0 * math.pi)
LN_SQRT_2PI = 0.5 * LN_2PI
#: Integral of ln Gamma(x)^2 over (0, 1], from mpmath.quad at 30 digits.
LNGAMMA_SQ_INTEGRAL = 1.86631708379356208099296793798

#: Integral of |f|^m over (0, 1] for the (integrand, m) pairs the workloads use.
INTEGRALS = {
    ("exp", 1.0): E - 1.0,
    ("lngamma", 2.0): LNGAMMA_SQ_INTEGRAL,
    ("identity", 1.0): 0.5,
}
#: f(1) for the presets, for the eigen trace.
AT_ONE = {"exp": E, "lngamma": 0.0}

PREDICTION_TOL = 1e-9  # predict_limit promises 1e-10 absolute
ROUTE_REL_TOL = 1e-8  # criterion 4
CLOSED_ROUTE_REL_TOL = 1e-12
WEYL_TOL = 0.01  # criterion 7
SPECTRAL_REL_TOL = 1e-8  # criterion 8


def _mobius(limit: int) -> list[int]:
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


# cached so that the traced run can look up Farey lengths cheaply; the
# Moebius table itself is dropped, so it does not add to peak memory
@lru_cache(maxsize=None)
def phi_mobius(x: int) -> int:
    """Phi(x) = (1 + sum_d mu(d) floor(x/d)^2) / 2, independent of any sieve of phi."""
    mu = _mobius(x)
    return (1 + sum(mu[d] * (x // d) ** 2 for d in range(1, x + 1))) // 2


def norm_bound(integrand: str, m: float, n: int) -> float:
    """Largest accepted |normalized - limit| at order n.

    exp, m = 1: criterion 1's 5/n. exp, m >= 2: criterion 2's 0.02.
    lngamma has a logarithmic singularity at 0, so no acceptance criterion
    covers its m = 2 norm; its error measures about 1.3 ln(n)^2 / n for
    n = 512..4096 and the bound here is 2 ln(n)^2 / n.
    """
    if integrand == "lngamma":
        return 2.0 * math.log(n) ** 2 / n
    return 5.0 / n if m == 1.0 else 0.02


def _rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def _check_norm(argv, rows) -> list[str]:
    integrand = cli_option(argv, "--f")
    m = float(cli_option(argv, "--m"))
    orders = int_list(argv, "--orders")
    limit = INTEGRALS[(integrand, m)]
    problems = []
    if [int(r["n"]) for r in rows] != orders:
        problems.append(f"rows {[r['n'] for r in rows]} != orders {orders}")
    for r in rows:
        n = int(r["n"])
        raw, normalized = float(r["raw"]), float(r["normalized"])
        predicted, abs_error = float(r["predicted"]), float(r["abs_error"])
        if normalized != raw / (n * n) or abs_error != abs(normalized - predicted):
            problems.append(f"n={n}: normalized/abs_error inconsistent with raw/predicted")
        if abs(predicted - limit) > PREDICTION_TOL:
            problems.append(f"n={n}: predicted {predicted!r} != integral {limit!r}")
        if abs(normalized - limit) > norm_bound(integrand, m, n):
            problems.append(f"n={n}: error {abs(normalized - limit):.3e} above bound")
    return problems


def _check_gamma(argv, rows) -> list[str]:
    orders = int_list(argv, "--orders")
    problems = []
    if [int(r["n"]) for r in rows] != orders:
        problems.append(f"rows {[r['n'] for r in rows]} != orders {orders}")
    for r in rows:
        n = int(r["n"])
        matrix, closed = float(r["matrix_route"]), float(r["closed_route"])
        reference = (0.5 * n * (n - 1) * LN_2PI - math.lgamma(n + 1)) / (n * n)
        if not _close(closed, reference, CLOSED_ROUTE_REL_TOL):
            problems.append(f"n={n}: closed route {closed!r} != lgamma reference {reference!r}")
        if not _close(matrix, closed, ROUTE_REL_TOL):
            problems.append(f"n={n}: routes differ, {matrix!r} vs {closed!r}")
        if float(r["limit"]) != LN_SQRT_2PI:
            problems.append(f"n={n}: limit {r['limit']} != ln sqrt(2 pi)")
    return problems


def _check_farey(argv, rows) -> list[str]:
    xs = int_list(argv, "--x")
    limit = INTEGRALS[(cli_option(argv, "--f"), 1.0)]
    problems = []
    if [int(r["x"]) for r in rows] != xs:
        problems.append(f"rows {[r['x'] for r in rows]} != x {xs}")
    for r in rows:
        x, phi = int(r["x"]), int(r["phi"])
        average, predicted = float(r["average"]), float(r["predicted"])
        if phi != phi_mobius(x):
            problems.append(f"x={x}: phi {phi} != Moebius count {phi_mobius(x)}")
        if abs(predicted - limit) > PREDICTION_TOL:
            problems.append(f"x={x}: predicted {predicted!r} != integral {limit!r}")
        if abs(average - predicted) > WEYL_TOL:
            problems.append(f"x={x}: average {average!r} too far from {predicted!r}")
        if float(r["coprime_density"]) != (2 * phi - 1) / (x * x):
            problems.append(f"x={x}: coprime_density {r['coprime_density']} != (2 phi - 1)/x^2")
    return problems


def _check_eigen(argv, rows) -> list[str]:
    orders = int_list(argv, "--orders")
    at_one = AT_ONE[cli_option(argv, "--f")]
    problems = []
    if [int(r["n"]) for r in rows] != orders:
        problems.append(f"rows {[r['n'] for r in rows]} != orders {orders}")
    for r in rows:
        n = int(r["n"])
        trace, expected = float(r["trace"]), float(r["trace_expected"])
        sum_sq, frobenius_sq = float(r["sum_sq"]), float(r["frobenius_sq"])
        # the trace may be ~0 (lngamma(1) = 0), so it is compared on the
        # scale of the matrix, ||A||_F, rather than relative to itself
        scale = max(abs(expected), math.sqrt(frobenius_sq))
        if abs(expected - n * at_one) > 1e-12 * max(scale, 1.0):
            problems.append(f"n={n}: trace_expected {expected!r} != n f(1)")
        if abs(trace - expected) > SPECTRAL_REL_TOL * scale:
            problems.append(f"n={n}: trace {trace!r} vs expected {expected!r}")
        if not _close(sum_sq, frobenius_sq, SPECTRAL_REL_TOL):
            problems.append(f"n={n}: sum_sq {sum_sq!r} vs frobenius_sq {frobenius_sq!r}")
        if float(r["normalized_sum_sq"]) != sum_sq / (n * n):
            problems.append(f"n={n}: normalized_sum_sq != sum_sq / n^2")
    return problems


def _sylvester_sign(i: int, j: int) -> int:
    return -1 if bin(i & j).count("1") % 2 else 1


def _check_hadamard(argv, rows) -> list[str]:
    ks = int_list(argv, "--k")
    check = cli_option(argv, "--check")
    problems = []
    if [int(r["k"]) for r in rows] != ks:
        problems.append(f"rows {[r['k'] for r in rows]} != k {ks}")
    for r in rows:
        k, n = int(r["k"]), int(r["order"])
        if n != 2**k:
            problems.append(f"k={k}: order {n} != 2^k")
        if check == "orthogonality":
            if r["is_hadamard"] != "true":
                problems.append(f"k={k}: Sylvester matrix reported as not Hadamard")
            continue
        mismatches = sum(
            _sylvester_sign(n - 2, j) != _sylvester_sign(n - 1, j) for j in range(n - 1)
        )
        verdict = "exceeds_half" if 4 * mismatches > n else "inconclusive"
        if int(r["mismatch_count"]) != mismatches:
            problems.append(f"k={k}: mismatch_count {r['mismatch_count']} != {mismatches}")
        if float(r["lower_bound"]) != 2.0 * mismatches / n:
            problems.append(f"k={k}: lower_bound {r['lower_bound']} != 2 mismatches / n")
        if r["verdict"] != verdict:
            problems.append(f"k={k}: verdict {r['verdict']} != {verdict}")
    return problems


_CLI_CHECKS = {
    "norm": _check_norm,
    "gamma": _check_gamma,
    "farey": _check_farey,
    "eigen": _check_eigen,
    "hadamard": _check_hadamard,
}


def problems(op, output: str) -> list[str]:
    """Everything wrong with ``output`` as the result of operation ``op``."""
    kind, arg = op
    try:
        if kind == "coprime_density":
            expected = (2 * phi_mobius(arg) - 1) / (arg * arg)
            return [] if float(output) == expected else [f"{output} != (2 Phi(N) - 1)/N^2 = {expected!r}"]
        rows = _rows(output)
        if not rows:
            return ["no output rows"]
        return _CLI_CHECKS[arg[0]](arg, rows)
    except (KeyError, ValueError, TypeError) as exc:
        return [f"unparseable output: {exc!r}"]
