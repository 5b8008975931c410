"""ratiolab benchmark: run one workload and print its metrics.

Run from the repository root:

    python3 bench/run.py --workload norm_table --seed 1 --seconds 30 --trace 0

Workloads (operations in plan.py): norm_table, farey_stats, spectral. The
load is a closed loop with one client: one operation at a time, each run
in-process through ``ratiolab.cli.main(argv)`` (or one library call) and
waited for before the next. The workload runs in its own fresh worker
process (worker.py), so its memory and set-up stand alone.

With ``--trace 0`` the metrics are end to end: ``wall_s`` (median time of a
pass over the operations), ``setup_s`` (median over SETUP_SAMPLES fresh
processes of interpreter start until the first operation can be issued),
``peak_rss_mb`` (peak resident memory of the worker) and ``ok_ratio``
(operations that passed their checks / operations attempted). With
``--trace 1`` they are the per-layer metrics in PER_LAYER, taken from
wrappers installed around ratiolab's public functions (spans.py).

Standard output ends with two JSON lines: a full report (environment, pass
quartiles, failures, every traced statistic) and the result object
``{"correct", "attempted", "failed", "metrics"}``. A readable summary goes
to standard error. The exit status is 0 when a result was printed, 1 when
the worker failed and 2 when the ratiolab sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from plan import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
#: Fresh processes timed for setup_s: SETUP_SAMPLES - 1 probes plus the worker.
SETUP_SAMPLES = 11
#: Seconds after which the worker is killed and the run fails.
DEADLINE_S = 170

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB", "ok_ratio": "1"}

PER_LAYER = (
    "cli.main.busy_s",
    "cli.main.self_s",
    "cli.output_bytes",
    "matrix_core.sample_row.calls",
    "matrix_core.sample_row.evals",
    "matrix_core.sample_row.busy_s",
    "matrix_core.sample_row.evals_per_s",
    "matrix_core.sample_row.exp.evals_per_s",
    "matrix_core.sample_row.lngamma.evals_per_s",
    "matrix_core.norm_power.calls",
    "matrix_core.norm_power.busy_s",
    "matrix_core.norm_power.self_s",
    "matrix_core.norm_power.terms",
    "matrix_core.norm_power.terms_per_s",
    "matrix_core.predict_limit.calls",
    "matrix_core.predict_limit.busy_s",
    "matrix_core.convergence_table.busy_s",
    "specfun.gamma_integral_via_matrix.busy_s",
    "specfun.gamma_integral_closed_partial.busy_s",
    "farey.farey_sequence.calls",
    "farey.farey_sequence.busy_s",
    "farey.farey_sequence.fractions",
    "farey.farey_sequence.fractions_per_s",
    "farey.weyl_average.busy_s",
    "farey.weyl_average.fractions_per_s",
    "farey.totient_sieve.calls",
    "farey.totient_sieve.busy_s",
    "farey.totient_sieve.entries",
    "farey.coprime_density.busy_s",
    "eigen.materialize.busy_s",
    "eigen.jacobi_eigenvalues.calls",
    "eigen.jacobi_eigenvalues.busy_s",
    "eigen.jacobi_eigenvalues.sweeps",
    "eigen.jacobi_eigenvalues.pair_visits",
    "eigen.jacobi_eigenvalues.pair_visits_per_s",
    "hadamard.sylvester.busy_s",
    "hadamard.is_hadamard.busy_s",
    "hadamard.is_hadamard.mults",
    "hadamard.oscillation_bound.busy_s",
    "trace.errors",
    "trace.overhead_s",
)


def unit_of(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    return "B" if name.endswith("_bytes") else "count"


class WorkerError(RuntimeError):
    pass


def _spawn(args: list[str], env: dict, deadline: float) -> tuple[float, str]:
    """Start a worker; return its set-up time and the rest of its stdout."""
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "worker.py"), *args],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - started
        if first != "ready\n":
            raise WorkerError(f"worker did not finish set-up (said {first!r})")
        rest, _ = proc.communicate(timeout=max(deadline - time.perf_counter(), 1.0))
    except subprocess.TimeoutExpired:
        raise WorkerError(f"worker still running after {DEADLINE_S} s") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with status {proc.returncode}")
    return setup_s, rest


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ratiolab" / "__init__.py").is_file():
        print(f"error: ratiolab sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.perf_counter() + DEADLINE_S
    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    env.setdefault("OPENBLAS_NUM_THREADS", str(nproc))
    worker_args = [
        f"--workload={args.workload}",
        f"--seed={args.seed}",
        f"--seconds={args.seconds}",
        f"--trace={args.trace}",
    ]
    try:
        probes = [] if args.trace else [
            _spawn(["--setup-only"], env, deadline)[0] for _ in range(SETUP_SAMPLES - 1)
        ]
        setup_s, output = _spawn(worker_args, env, deadline)
        result = json.loads(output.splitlines()[-1])
    except (WorkerError, IndexError, json.JSONDecodeError) as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 1

    setup_samples = probes + [setup_s]
    attempted, failed = result["attempted"], result["failed"]
    correct = failed == 0
    if args.trace:
        correct = correct and not result["count_mismatches"]
        metrics = {name: result["layers"].get(name, 0) for name in PER_LAYER}
        units = {name: unit_of(name) for name in PER_LAYER}
    else:
        metrics = {
            "wall_s": result["wall_s"]["median"],
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": result["peak_rss_mb"],
            "ok_ratio": (attempted - failed) / attempted,
        }
        units = END_TO_END

    report = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": {
            **result.pop("environment"),
            "nproc": nproc,
            "cpu_model": _cpu_model(),
            "openblas_num_threads_env": env["OPENBLAS_NUM_THREADS"],
            "seed": args.seed,
            "git_commit": _git_commit(),
        },
        "setup_samples_s": setup_samples,
        "worker": result,
    }
    print(json.dumps(report))
    for name, value in metrics.items():
        print(f"{args.workload:<12} {name:<45} {value:<22.10g} {units[name]}", file=sys.stderr)
    if not args.trace:
        print(f"{args.workload:<12} {'failed_ratio':<45} {failed / attempted:<22.10g} 1", file=sys.stderr)
    for failure in result["failures"] + result.get("count_mismatches", []):
        print(f"{args.workload:<12} FAILED {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
