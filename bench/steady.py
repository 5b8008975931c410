"""Steadiness report: repeat run.py over seeds and summarise the spread.

Run from the repository root, for example

    python3 bench/steady.py --seeds 1-10 --out bench/results/seed_baseline.json

For every workload and end-to-end metric it prints the median over the
seeds, the quartiles (``statistics.quantiles(values, n=4)``) and the spread
(q3 - q1) / median next to the metric's bound in BENCHMARK.json. With
``--trace`` it adds one traced run per workload (first seed) and keeps its
per-layer metrics, including ``trace.overhead_s``. ``--out`` writes the
whole report as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from plan import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """The full report and the result object of one run.py call."""
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    report, result = (json.loads(line) for line in done.stdout.splitlines()[-2:])
    return report, result


def summarise(values: list[float], bound) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    spread = (q3 - q1) / median if median else 0.0
    return {"values": values, "q1": q1, "median": median, "q3": q3, "spread": spread, "bound": bound}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    out = {"run_seconds": spec["run_seconds"], "seeds": args.seeds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = [run_once(workload, seed, spec["run_seconds"], 0) for seed in args.seeds]
        out.setdefault("environment", runs[0][0]["environment"])
        entry = {
            "correct": all(result["correct"] for _, result in runs),
            "failed": sum(result["failed"] for _, result in runs),
            "attempted": sum(result["attempted"] for _, result in runs),
            "end_to_end": {
                name: summarise([result["metrics"][name]["value"] for _, result in runs], bound)
                for name, bound in bounds.items()
            },
            "passes_per_run": [report["worker"]["wall_s"]["n"] for report, _ in runs],
        }
        for name, row in entry["end_to_end"].items():
            print(
                f"{workload:<12} {name:<12} median {row['median']:<12.6g} {units[name]:<4} "
                f"q1 {row['q1']:<12.6g} q3 {row['q3']:<12.6g} "
                f"spread {row['spread']:.4f} (bound {row['bound']})",
                flush=True,
            )
        print(f"{workload:<12} failed_ratio {entry['failed'] / entry['attempted']:<12.6g} 1", flush=True)
        if args.trace:
            report, result = run_once(workload, args.seeds[0], spec["run_seconds"], 1)
            entry["trace"] = {
                "seed": args.seeds[0],
                "correct": result["correct"],
                "count_mismatches": report["worker"]["count_mismatches"],
                "plain_wall_s": report["worker"]["plain_wall_s"],
                "traced_wall_s": report["worker"]["traced_wall_s"],
                "metrics": {name: m["value"] for name, m in result["metrics"].items()},
            }
            print(f"{workload:<12} trace.overhead_s {entry['trace']['metrics']['trace.overhead_s']:.4g}"
                  f" correct {result['correct']}", flush=True)
        out["workloads"][workload] = entry
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
