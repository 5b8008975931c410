"""Self-tests of the benchmark harness: spans, workload plans and output checks.

Run with ``python3 -m pytest -q bench``.
"""

import csv
import io
import json
import math
from pathlib import Path

import pytest

import checks
import harness
import plan
import run
from spans import REQUIRED_BINDINGS, Tracer

SMALL_OPS = [
    ("cli", ("norm", "--f", "exp", "--m", "1", "--orders", "16,64")),
    ("cli", ("norm", "--f", "lngamma", "--m", "2", "--orders", "32,128")),
    ("cli", ("gamma", "--mode", "integral", "--orders", "2,16,40")),
    ("cli", ("farey", "--f", "identity", "--x", "400,430")),
    ("cli", ("farey", "--f", "exp", "--x", "401,420")),
    ("coprime_density", 300),
    ("cli", ("eigen", "--f", "exp", "--orders", "2,9")),
    ("cli", ("eigen", "--f", "lngamma", "--orders", "3,8")),
    ("cli", ("hadamard", "--check", "orthogonality", "--k", "1,3,4")),
    ("cli", ("hadamard", "--check", "oscillation", "--k", "1,2,3,5")),
]


class FakeClock:
    def __init__(self, *ticks):
        self._ticks = iter(ticks)

    def __call__(self):
        return next(self._ticks)


def test_self_time_of_nested_spans():
    tracer = Tracer(clock=FakeClock(0.0, 1.0, 3.0, 10.0))
    inner = tracer.wrap("inner", lambda: None)
    outer = tracer.wrap("outer", lambda: inner())
    outer()
    assert tracer.stats["inner.busy_s"] == 2.0
    assert tracer.stats["inner.self_s"] == 2.0
    assert tracer.stats["outer.busy_s"] == 10.0
    assert tracer.stats["outer.self_s"] == 8.0


def test_self_time_of_repeated_and_grandchild_spans():
    # outer [0, 20]: inner [1, 3], inner [4, 9] with leaf [5, 6], leaf [10, 14]
    tracer = Tracer(clock=FakeClock(0, 1, 3, 4, 5, 6, 9, 10, 14, 20))
    leaf = tracer.wrap("leaf", lambda: None)
    calls = iter([lambda: None, leaf])
    inner = tracer.wrap("inner", lambda: next(calls)())

    def body():
        inner()
        inner()
        leaf()

    tracer.wrap("outer", body)()
    stats = tracer.stats
    assert (stats["inner.calls"], stats["inner.busy_s"], stats["inner.self_s"]) == (2, 7, 6)
    assert (stats["leaf.calls"], stats["leaf.busy_s"], stats["leaf.self_s"]) == (2, 5, 5)
    assert (stats["outer.busy_s"], stats["outer.self_s"]) == (20, 20 - 7 - 4)


def test_span_of_a_raising_call_counts_an_error_and_closes():
    tracer = Tracer(clock=FakeClock(0, 1, 2, 5, 6, 7))

    def fail():
        raise ValueError("boom")

    failing = tracer.wrap("failing", fail)
    outer = tracer.wrap("outer", lambda: pytest.raises(ValueError, failing))
    outer()
    tracer.wrap("after", lambda: None)()
    assert tracer.stats["failing.errors"] == 1
    assert tracer.stats["outer.errors"] == 0
    assert tracer.stats["outer.self_s"] == 5 - 1
    assert tracer.stats["after.self_s"] == 1


def test_install_wraps_every_binding_and_uninstall_restores():
    import ratiolab.cli
    import ratiolab.eigen
    import ratiolab.matrix_core

    original = ratiolab.matrix_core.sample_row
    tracer = Tracer()
    patched = tracer.install()
    try:
        for name, modules in REQUIRED_BINDINGS.items():
            for module in modules:
                assert f"{module}.{name}" in patched
        assert ratiolab.eigen.sample_row is ratiolab.matrix_core.sample_row
        assert ratiolab.eigen.sample_row.__wrapped__ is original
        assert ratiolab.cli.norm_power is ratiolab.matrix_core.norm_power
    finally:
        tracer.uninstall()
    assert ratiolab.eigen.sample_row is original


def test_traced_counts_equal_arithmetic_counts():
    tracer = Tracer()
    tracer.install()
    try:
        harness.Run(SMALL_OPS).run_pass()
    finally:
        tracer.uninstall()
    expected = plan.expected_counts(SMALL_OPS, checks.phi_mobius)
    assert expected["matrix_core.sample_row.evals"] == (
        sum(n * (n + 1) // 2 for n in (16, 64, 32, 128, 2, 16, 40)) + 2 * sum(n * (n + 1) // 2 for n in (2, 9, 3, 8))
    )
    assert harness.count_mismatches([dict(tracer.stats)], expected) == []
    expected["matrix_core.sample_row.evals"] += 1
    assert len(harness.count_mismatches([dict(tracer.stats)], expected)) == 1


@pytest.mark.parametrize("workload", plan.WORKLOADS)
def test_same_seed_gives_the_same_operations(workload):
    assert plan.operations(workload, 7) == plan.operations(workload, 7)
    assert any(plan.operations(workload, 7) != plan.operations(workload, s) for s in range(8, 20))


def _work(ops) -> float:
    """Rough cost of a pass: n^2 per sampled or Farey order, n^3 per Jacobi order."""
    total = 0.0
    for kind, arg in ops:
        if kind == "coprime_density":
            total += arg
        elif arg[0] == "eigen":
            total += sum(n**3 for n in plan.int_list(arg, "--orders"))
        elif arg[0] == "hadamard":
            total += sum(8**k for k in plan.int_list(arg, "--k"))
        else:
            total += sum(n**2 for n in plan.int_list(arg, "--orders" if arg[0] != "farey" else "--x"))
    return total


@pytest.mark.parametrize("workload", plan.WORKLOADS)
def test_inputs_stay_inside_their_bands(workload):
    centres = {
        ("norm", "exp"): plan.NORM_EXP_ORDERS,
        ("norm", "lngamma"): plan.NORM_LNGAMMA_ORDERS,
        ("gamma", None): plan.GAMMA_ORDERS,
        ("farey", "identity"): plan.FAREY_X,
        ("farey", "exp"): plan.FAREY_X,
    }
    bands = {
        ("eigen", "exp"): plan.EIGEN_ORDER_BANDS,
        ("eigen", "lngamma"): plan.EIGEN_ORDER_BANDS,
        ("hadamard", "orthogonality"): plan.HADAMARD_ORTHOGONALITY_K_BANDS,
        ("hadamard", "oscillation"): plan.HADAMARD_OSCILLATION_K_BANDS,
    }
    works = []
    for seed in range(50):
        ops = plan.operations(workload, seed)
        works.append(_work(ops))
        for kind, arg in ops:
            if kind == "coprime_density":
                centre_bands = [(plan.COPRIME_N * 0.99, plan.COPRIME_N * 1.01)]
                values = [arg]
            else:
                key = (arg[0], plan.cli_option(arg, "--f") if "--f" in arg else
                       plan.cli_option(arg, "--check") if "--check" in arg else None)
                option = {"farey": "--x", "hadamard": "--k"}.get(arg[0], "--orders")
                values = plan.int_list(arg, option)
                centre_bands = bands.get(key) or [(c * 0.99, c * 1.01) for c in centres[key]]
            assert len(values) == len(centre_bands)
            assert all(lo - 0.5 <= v <= hi + 0.5 for v, (lo, hi) in zip(values, centre_bands)), (seed, arg)
            assert values == sorted(set(values))
    assert max(works) / min(works) <= 1.06


def test_phi_mobius_matches_a_gcd_count():
    for x in (1, 2, 3, 10, 57):
        brute = sum(1 for c in range(1, x + 1) for b in range(1, c + 1) if math.gcd(b, c) == 1)
        assert checks.phi_mobius(x) == brute


def _corrupt(text: str, column: str, value: str) -> str:
    rows = list(csv.DictReader(io.StringIO(text)))
    rows[-1][column] = value
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return out.getvalue()


CORRUPTIONS = {
    "norm": ("normalized", lambda v: repr(float(v) * (1 + 1e-6))),
    "gamma": ("matrix_route", lambda v: repr(float(v) * (1 + 1e-6))),
    "farey": ("phi", lambda v: str(int(v) + 1)),
    "eigen": ("sum_sq", lambda v: repr(float(v) * (1 + 1e-6))),
}


@pytest.mark.parametrize("op", SMALL_OPS, ids=harness.describe)
def test_correct_output_passes_and_corrupted_row_fails(op):
    output = harness.execute(op)
    assert checks.problems(op, output) == []
    kind, arg = op
    if kind == "coprime_density":
        corrupted = repr(float(output) + 1e-12)
    elif arg[0] == "hadamard":
        column, value = ("is_hadamard", "false") if "orthogonality" in arg else ("verdict", "inconclusive")
        corrupted = _corrupt(output, column, value)
    else:
        column, change = CORRUPTIONS[arg[0]]
        last = list(csv.DictReader(io.StringIO(output)))[-1]
        corrupted = _corrupt(output, column, change(last[column]))
    assert corrupted != output
    assert checks.problems(op, corrupted) != []

    outputs = iter([output, corrupted])
    run_ = harness.Run([op], execute=lambda _: next(outputs))
    run_.run_pass()
    assert run_.failures == []
    run_.run_pass()  # bytes differ from the first pass
    assert (run_.attempted, len(run_.failures)) == (2, 1)

    run_ = harness.Run([op], execute=lambda _: corrupted)
    run_.run_pass()
    assert (run_.attempted, len(run_.failures)) == (1, 1)


def test_raising_or_failing_operation_is_counted_as_failed():
    run_ = harness.Run([("cli", ("norm", "--orders", "0"))])
    run_.run_pass()
    assert (run_.attempted, len(run_.failures)) == (1, 1)
    assert "exit status 2" in run_.failures[0]


def test_benchmark_json_names_the_metrics_run_prints():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, run.unit_of(name)) for name in run.PER_LAYER
    ]
    assert [w["name"] for w in spec["workloads"]] == list(plan.WORKLOADS)
