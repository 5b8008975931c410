"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the pytest verdicts.  Tolerances are pinned here and match
the module contracts; every expected value is either a closed form or
backed by a brute-force oracle in oracles.py.
"""

import math
import time
from fractions import Fraction

from ratiolab.eigen import jacobi_eigenvalues, materialize, spectral_sum_report
from ratiolab.farey import coprime_density, farey_sequence, phi_summatory, weyl_average
from ratiolab.hadamard import Verdict, is_hadamard, oscillation_bound, spectral_sum_sq, sylvester
from ratiolab.integrands import EXP
from ratiolab.matrix_core import SampledMatrixSpec, norm_report, norm_power, weighted_cesaro
from ratiolab.specfun import (
    duplication_residual,
    euler_reflection_residual,
    gamma_integral_closed_partial,
    gamma_integral_via_matrix,
    gamma_row_log_product,
    gamma_row_log_product_closed,
    sine_product_residual,
)

from oracles import brute_farey, exp_row_mean

E = math.e
LN_SQRT_2PI = 0.5 * math.log(2 * math.pi)
DUPLICATION_GRID = (0.5, 1.0, 2.0, 3.7, 10.0, 25.0)


def _verdict(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_norm_limit_m1():
    orders = [64, 128, 256, 512, 1024, 2048, 4096]
    started = time.perf_counter()
    reports = [
        norm_report(SampledMatrixSpec(EXP, n), 1.0, E - 1) for n in orders
    ]
    elapsed = time.perf_counter() - started
    bounds_ok = all(r.abs_error <= 5 / r.order for r in reports)
    ratios = [
        reports[i + 1].abs_error / reports[i].abs_error
        for i in range(len(orders) - 1)
        if orders[i] >= 256
    ]
    ratios_ok = all(ratio <= 0.75 for ratio in ratios)
    runtime_ok = elapsed <= 10.0
    _verdict(
        "criterion 1 (norm limit, m=1)",
        bounds_ok and ratios_ok and runtime_ok,
        f"max n*err = {max(r.abs_error * r.order for r in reports):.3f} (<= 5), "
        f"max halving ratio = {max(ratios):.3f} (<= 0.75), runtime {elapsed:.2f}s (<= 10s)",
    )


def test_criterion_2_norm_limit_m2_m3():
    checks = []
    for m, limit in ((2.0, (E**2 - 1) / 2), (3.0, (E**3 - 1) / 3)):
        normalized = norm_power(SampledMatrixSpec(EXP, 4096), m) / 4096**2
        checks.append((m, abs(normalized - limit)))
    ok = all(err <= 0.02 for _, err in checks)
    _verdict(
        "criterion 2 (norm limit, m=2,3)",
        ok,
        ", ".join(f"m={m:g}: |err| = {err:.2e} (<= 0.02)" for m, err in checks),
    )


def test_criterion_3_weighted_cesaro_claim():
    n = 500
    terms = [exp_row_mean(k) for k in range(1, n + 1)]
    value = weighted_cesaro(terms)
    err = abs(value - (E - 1) / 2)
    _verdict(
        "criterion 3 (weighted Cesaro)",
        err <= 0.01,
        f"value = {value:.6f}, |err| = {err:.2e} (<= 0.01)",
    )


def test_criterion_4_gamma_integral_two_routes():
    rels = []
    for n in (2, 16, 128, 512):
        via_matrix = gamma_integral_via_matrix(n)
        closed = gamma_integral_closed_partial(n)
        rels.append(abs(via_matrix - closed) / abs(closed))
    routes_ok = all(rel <= 1e-8 for rel in rels)
    tail_err = abs(gamma_integral_closed_partial(4096) - LN_SQRT_2PI)
    _verdict(
        "criterion 4 (Gamma integral)",
        routes_ok and tail_err <= 0.01,
        f"max route rel diff = {max(rels):.2e} (<= 1e-8), "
        f"closed(4096) err = {tail_err:.2e} (<= 0.01)",
    )


def test_criterion_5_identity_suite():
    reflection = max(
        abs(euler_reflection_residual(k / 20)) for k in range(1, 20)
    )
    duplication = max(abs(duplication_residual(z)) for z in DUPLICATION_GRID)
    row_product = max(
        abs(gamma_row_log_product(k) - gamma_row_log_product_closed(k)) / k
        for k in range(2, 513)
    )
    sine = max(
        max(
            abs(sine_product_residual(2 * n + 1)) / (2 * n + 1),
            abs(sine_product_residual(2 * n)) / (2 * n),
        )
        for n in range(1, 201)
    )
    ok = (
        reflection <= 1e-12
        and duplication <= 1e-12
        and row_product <= 1e-10
        and sine <= 1e-10
    )
    _verdict(
        "criterion 5 (identity suite)",
        ok,
        f"reflection {reflection:.1e} (<= 1e-12), duplication {duplication:.1e} (<= 1e-12), "
        f"row-product/k {row_product:.1e} (<= 1e-10), sine/order {sine:.1e} (<= 1e-10)",
    )


def test_criterion_6_farey_structure():
    brute_ok = all(
        farey_sequence(x).fractions.tolist() == [list(p) for p in brute_farey(x)]
        for x in range(1, 101)
    )
    neighbor_ok = True
    for x in range(1, 301):
        previous = None
        for b, c in farey_sequence(x).fractions.tolist():
            if previous is not None and b * previous[1] - previous[0] * c != 1:
                neighbor_ok = False
            previous = (b, c)
    phi_err = abs(phi_summatory(1000) / 1e6 - 3 / math.pi**2)
    density_err = abs(coprime_density(1000) - 6 / math.pi**2)
    mean_ok = True
    for x in range(1, 201):
        seq = farey_sequence(x)
        total = sum(Fraction(b, c) for b, c in seq.fractions.tolist())
        if total / seq.count != Fraction(seq.count + 1, 2 * seq.count):
            mean_ok = False
    ok = (
        brute_ok
        and neighbor_ok
        and phi_err <= 0.005
        and density_err <= 0.01
        and mean_ok
    )
    _verdict(
        "criterion 6 (Farey structure)",
        ok,
        f"brute match x<=100: {brute_ok}, neighbor det x<=300: {neighbor_ok}, "
        f"Phi(1000) err {phi_err:.2e} (<= 5e-3), density err {density_err:.2e} (<= 1e-2), "
        f"exact mean x<=200: {mean_ok}",
    )


def test_criterion_7_weyl_average():
    err = abs(weyl_average(EXP, 400) - (E - 1))
    _verdict(
        "criterion 7 (Weyl average)",
        err <= 0.01,
        f"|average - (e-1)| = {err:.2e} (<= 0.01)",
    )


def test_criterion_8_spectral_sums():
    started = time.perf_counter()
    trace_rels = []
    frobenius_rels = []
    normalized_at_256 = None
    for n in (2, 16, 64, 256):
        sums = spectral_sum_report(EXP, n)
        trace_rels.append(abs(sums.trace - n * E) / (n * E))
        entrywise = norm_power(SampledMatrixSpec(EXP, n), 2.0)
        frobenius_rels.append(abs(sums.sum_sq - entrywise) / entrywise)
        if n == 256:
            normalized_at_256 = sums.normalized_sum_sq
    elapsed = time.perf_counter() - started
    limit_err = abs(normalized_at_256 - (E**2 - 1) / 2)
    ok = (
        max(trace_rels) <= 1e-8
        and max(frobenius_rels) <= 1e-8
        and limit_err <= 0.05
        and elapsed <= 60.0
    )
    _verdict(
        "criterion 8 (spectral sums)",
        ok,
        f"max trace rel {max(trace_rels):.1e} (<= 1e-8), "
        f"max Frobenius rel {max(frobenius_rels):.1e} (<= 1e-8), "
        f"normalized(256) err {limit_err:.2e} (<= 0.05), runtime {elapsed:.1f}s (<= 60s)",
    )


def test_criterion_9_hadamard_oscillation():
    orthogonal_ok = all(is_hadamard(sylvester(k)) for k in range(7))
    spectral_ok = all(
        spectral_sum_sq(sylvester(k)) == (2**k) ** 2 for k in range(7)
    )
    bounds_ok = True
    for k in (3, 4, 5, 6):
        report = oscillation_bound(sylvester(k))
        n = 2**k
        if report.lower_bound < 1 - 2 / n or report.verdict is not Verdict.EXCEEDS_HALF:
            bounds_ok = False
    border = oscillation_bound(sylvester(2))
    border_ok = border.lower_bound == 0.5 and border.verdict is Verdict.INCONCLUSIVE
    ok = orthogonal_ok and spectral_ok and bounds_ok and border_ok
    _verdict(
        "criterion 9 (Hadamard oscillation)",
        ok,
        f"orthogonality k<=6: {orthogonal_ok}, spectral n^2: {spectral_ok}, "
        f"bound >= 1-2/n orders 8..64: {bounds_ok}, order-4 borderline 0.5/inconclusive: {border_ok}",
    )
