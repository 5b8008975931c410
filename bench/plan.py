"""Workload definitions: a seed becomes a fixed list of operations.

Each workload is a list of operations. An operation is either a ``ratiolab``
CLI invocation (``("cli", argv)``) or one direct library call
(``("coprime_density", n)``). The seed draws every order and ``x`` value
from a narrow fixed band around a centre, so the total work of a pass
stays within a few percent across seeds; the program only ever sees the
generated arguments.

This module also derives, from the operations alone, how many calls each
traced library function must receive in one pass. The traced run compares
those arithmetic counts with the counts its wrappers saw.
"""

from __future__ import annotations

import random

#: Relative half-width of every order / x band.
BAND = 0.01

# Centres of the bands. Work grows like n^2 (norm, Farey) or n^3 (Jacobi),
# so a 1% band keeps each workload's total work within about 2-3%.
NORM_EXP_ORDERS = (1024, 4096, 8192)
NORM_LNGAMMA_ORDERS = (512, 2048, 4096)
GAMMA_ORDERS = (2, 16, 128, 512, 1024, 2048)
FAREY_X = (500, 1000, 2000)
COPRIME_N = 1_000_000
# Jacobi sweep counts change from one order to the next, so the small
# orders stay fixed and only the largest one moves, inside a band where the
# sweep count of both integrands is constant (8 for exp, 9 for lngamma).
EIGEN_ORDER_BANDS = ((2, 2), (16, 16), (64, 64), (127, 129))
# Orthogonality costs ~n^3 integer multiplications: k = 9 dominates and
# stays; the smaller k are drawn from bands. k = 2 (order 4) is the
# borderline "inconclusive" oscillation case and is always present.
HADAMARD_ORTHOGONALITY_K_BANDS = ((1, 3), (4, 6), (7, 8), (9, 9))
HADAMARD_OSCILLATION_K_BANDS = ((2, 2), (3, 5), (6, 8), (10, 10))

WORKLOADS = ("norm_table", "farey_stats", "spectral")


def _around(rng: random.Random, centres) -> tuple[int, ...]:
    return tuple(
        rng.randint(round(c * (1 - BAND)), round(c * (1 + BAND))) for c in centres
    )


def _from_bands(rng: random.Random, bands) -> tuple[int, ...]:
    return tuple(rng.randint(lo, hi) for lo, hi in bands)


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


def operations(workload: str, seed: int) -> list[tuple]:
    """The operations of one pass of ``workload`` for ``seed``."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "norm_table":
        return [
            ("cli", ("norm", "--f", "exp", "--m", "1", "--orders", _csv(_around(rng, NORM_EXP_ORDERS)))),
            ("cli", ("norm", "--f", "lngamma", "--m", "2", "--orders", _csv(_around(rng, NORM_LNGAMMA_ORDERS)))),
            ("cli", ("gamma", "--mode", "integral", "--orders", _csv(_around(rng, GAMMA_ORDERS)))),
        ]
    if workload == "farey_stats":
        return [
            ("cli", ("farey", "--f", "identity", "--x", _csv(_around(rng, FAREY_X)))),
            ("cli", ("farey", "--f", "exp", "--x", _csv(_around(rng, FAREY_X)))),
            ("coprime_density", _around(rng, (COPRIME_N,))[0]),
        ]
    if workload == "spectral":
        return [
            ("cli", ("eigen", "--f", "exp", "--orders", _csv(_from_bands(rng, EIGEN_ORDER_BANDS)))),
            ("cli", ("eigen", "--f", "lngamma", "--orders", _csv(_from_bands(rng, EIGEN_ORDER_BANDS)))),
            ("cli", ("hadamard", "--check", "orthogonality", "--k", _csv(_from_bands(rng, HADAMARD_ORTHOGONALITY_K_BANDS)))),
            ("cli", ("hadamard", "--check", "oscillation", "--k", _csv(_from_bands(rng, HADAMARD_OSCILLATION_K_BANDS)))),
        ]
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def cli_option(argv, name: str) -> str:
    """Value following ``name`` in a generated argv."""
    return argv[list(argv).index(name) + 1]


def int_list(argv, name: str) -> list[int]:
    return [int(v) for v in cli_option(argv, name).split(",")]


def expected_counts(ops, phi) -> dict[str, int]:
    """Calls and work counts one pass must show at the traced boundaries.

    ``phi(x)`` is the Farey length Phi(x), supplied by the caller from an
    independent count. Every sampled order n evaluates rows k = 1..n, i.e.
    n(n+1)/2 integrand values and one sample_row call per row.
    """
    counts: dict[str, int] = {}

    def add(name: str, value: int) -> None:
        counts[name] = counts.get(name, 0) + value

    def sampled(n: int) -> None:
        add("matrix_core.sample_row.calls", n)
        add("matrix_core.sample_row.evals", n * (n + 1) // 2)
        add("matrix_core.norm_power.calls", 1)
        add("matrix_core.norm_power.terms", n * (n + 1) // 2)

    def sieved(n: int) -> None:
        add("farey.coprime_density.calls", 1)
        add("farey.totient_sieve.calls", 1)
        add("farey.totient_sieve.entries", n)

    for kind, arg in ops:
        if kind == "coprime_density":
            sieved(arg)
            continue
        add("cli.main.calls", 1)
        command = arg[0]
        if command == "norm":
            add("matrix_core.predict_limit.calls", 1)
            add("matrix_core.convergence_table.calls", 1)
            for n in int_list(arg, "--orders"):
                sampled(n)
        elif command == "gamma":
            for n in int_list(arg, "--orders"):
                add("specfun.gamma_integral_via_matrix.calls", 1)
                add("specfun.gamma_integral_closed_partial.calls", 1)
                sampled(n)
        elif command == "farey":
            add("matrix_core.predict_limit.calls", 1)
            for x in int_list(arg, "--x"):
                add("farey.farey_sequence.calls", 1)
                add("farey.farey_sequence.fractions", phi(x))
                add("farey.weyl_average.calls", 1)
                add("farey.weyl_average.fractions", phi(x))
                sieved(x)
        elif command == "eigen":
            for n in int_list(arg, "--orders"):
                add("eigen.materialize.calls", 1)
                add("eigen.jacobi_eigenvalues.calls", 1)
                # materialize samples every row, then the Frobenius
                # cross-check samples them again through norm_power
                add("matrix_core.sample_row.calls", n)
                add("matrix_core.sample_row.evals", n * (n + 1) // 2)
                sampled(n)
        elif command == "hadamard":
            ks = int_list(arg, "--k")
            add("hadamard.sylvester.calls", len(ks))
            if cli_option(arg, "--check") == "orthogonality":
                add("hadamard.is_hadamard.calls", len(ks))
                add("hadamard.is_hadamard.mults", sum(8**k for k in ks))
            else:
                add("hadamard.oscillation_bound.calls", len(ks))
    return counts
