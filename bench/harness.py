"""The measuring loop of one workload, run inside the fresh worker process.

A warm-up pass runs every operation once and checks each output against
its independent reference (checks.py); its output bytes become the
reference for the rest of the run, so any later pass whose bytes differ
fails that operation (the CLI promises byte-identical output for identical
flags). Timed passes follow until ``--seconds`` is used up, with at least
MIN_PASSES of them.

Without tracing every timed pass is plain. With tracing, plain and traced
passes alternate, so the tracing overhead is measured in the same process
and under the same conditions; the traced passes give the per-layer
metrics and must show exactly the calls and work counts that plan.py
derives from the operations.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import platform
import resource
import statistics
import time

import numpy as np
import ratiolab.cli
import ratiolab.farey

import checks
import plan
from spans import Tracer

MIN_PASSES = 3


def describe(op) -> str:
    kind, arg = op
    return f"{kind}({arg})" if kind != "cli" else "ratiolab " + " ".join(arg)


def execute(op) -> str:
    """Run one operation in-process and return its output.

    Raises RuntimeError when the CLI exits with a non-zero status.
    """
    kind, arg = op
    if kind == "coprime_density":
        return repr(ratiolab.farey.coprime_density(arg))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = ratiolab.cli.main(list(arg))
        except SystemExit as exc:  # argparse rejects a usage error this way
            status = exc.code
    if status != 0:
        raise RuntimeError(f"exit status {status}: {err.getvalue().strip()}")
    return out.getvalue()


class Run:
    """Passes over one workload's operations, with their failures."""

    def __init__(self, ops, execute=execute):
        self.ops = ops
        self._execute = execute
        self._reference: dict[int, str] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def run_pass(self) -> tuple[float, int]:
        """Seconds spent in the operations, and CLI output bytes, of one pass."""
        elapsed = 0.0
        output_bytes = 0
        for index, op in enumerate(self.ops):
            self.attempted += 1
            started = time.perf_counter()
            try:
                output = self._execute(op)
            except Exception as exc:  # any raise is a failed operation; the run goes on
                elapsed += time.perf_counter() - started
                self.failures.append(f"{describe(op)}: {exc!r}")
                continue
            elapsed += time.perf_counter() - started
            if op[0] == "cli":
                output_bytes += len(output.encode())
            if index in self._reference:
                if output != self._reference[index]:
                    self.failures.append(f"{describe(op)}: output bytes differ from the first pass")
                continue
            problems = checks.problems(op, output)
            if problems:
                self.failures.append(f"{describe(op)}: {'; '.join(problems)}")
            else:
                self._reference[index] = output
        return elapsed, output_bytes


def _quartiles(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": median, "q3": q3, "n": len(values)}


def _keep_going(passes, started: float, seconds: float) -> bool:
    """Another pass is due if fewer than MIN_PASSES ran or one more fits."""
    if len(passes) < MIN_PASSES:
        return True
    return time.perf_counter() - started + statistics.median(passes) <= seconds


def _rate(stats, count: str, busy: str) -> float:
    return stats[count] / stats[busy] if stats.get(busy) else 0.0


def layer_metrics(snapshots: list[dict], plain: list[float], traced: list[float]) -> dict:
    """Per-layer metrics from the traced passes.

    Times are medians over the traced passes; counts are per pass (they
    are identical in every pass). Rates divide a count by a median busy time.
    """
    names = sorted({name for snapshot in snapshots for name in snapshot})
    stats = {}
    for name in names:
        values = [snapshot.get(name, 0) for snapshot in snapshots]
        stats[name] = statistics.median(values) if name.endswith("_s") else values[0]
    for prefix, count in (
        ("matrix_core.sample_row", "evals"),
        ("matrix_core.sample_row.exp", "evals"),
        ("matrix_core.sample_row.lngamma", "evals"),
        ("matrix_core.norm_power", "terms"),
        ("farey.farey_sequence", "fractions"),
        ("farey.weyl_average", "fractions"),
        ("eigen.jacobi_eigenvalues", "pair_visits"),
    ):
        stats[f"{prefix}.{count}_per_s"] = _rate(stats, f"{prefix}.{count}", f"{prefix}.busy_s")
    stats["trace.errors"] = sum(v for k, v in stats.items() if k.endswith(".errors"))
    stats["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    return stats


def count_mismatches(snapshots: list[dict], expected: dict) -> list[str]:
    """Every traced count that differs from the arithmetic count, per pass."""
    return [
        f"pass {i}: {name} traced {snapshot.get(name, 0)} != computed {value}"
        for i, snapshot in enumerate(snapshots)
        for name, value in sorted(expected.items())
        if snapshot.get(name, 0) != value
    ]


def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    with open("/proc/self/maps") as maps:
        paths = {line.split()[-1] for line in maps if "openblas" in line and ".so" in line}
    for path in sorted(paths):
        library = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            function = getattr(library, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                return function()
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
    }


def main(argv=None) -> dict:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=plan.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    ops = plan.operations(args.workload, args.seed)
    run = Run(ops)
    run.run_pass()  # warm-up: fills caches, checks outputs, records reference bytes
    started = time.perf_counter()
    result = {"operations": [describe(op) for op in ops]}
    if not args.trace:
        passes = []
        while _keep_going(passes, started, args.seconds):
            passes.append(run.run_pass()[0])
        result["wall_s"] = _quartiles(passes)
        result["passes"] = passes
    else:
        plain, traced, snapshots = [], [], []
        while _keep_going([a + b for a, b in zip(plain, traced)], started, args.seconds):
            plain.append(run.run_pass()[0])
            tracer = Tracer()
            result["patched"] = tracer.install()
            try:
                elapsed, output_bytes = run.run_pass()
            finally:
                tracer.uninstall()
            tracer.add("cli.output_bytes", output_bytes)
            traced.append(elapsed)
            snapshots.append(dict(tracer.stats))
        result["plain_wall_s"] = _quartiles(plain)
        result["traced_wall_s"] = _quartiles(traced)
        result["layers"] = layer_metrics(snapshots, plain, traced)
        result["count_mismatches"] = count_mismatches(
            snapshots, plan.expected_counts(ops, checks.phi_mobius)
        )
    result.update(
        attempted=run.attempted,
        failed=len(run.failures),
        failures=run.failures[:20],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        environment=environment(),
    )
    return result
