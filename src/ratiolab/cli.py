"""Experiment runner: every module as a subcommand with machine-readable output.

Subcommands: norm, gamma, farey, eigen, hadamard.  Output is CSV (header
row, '.' decimal point, 17 significant digits, LF line endings) or JSON
(one top-level object with "meta" and "rows").  Runs are deterministic:
identical flags produce identical bytes, unless --timestamp is given.

Exit status: 0 on success, 2 on usage errors, 1 on computation errors.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from datetime import datetime, timezone
from typing import Optional, Sequence

from . import eigen as eigen_mod
from . import farey as farey_mod
from . import hadamard as hadamard_mod
from . import specfun
from .errors import CapacityError, ConvergenceError, EvaluationError, QuadratureError
from .integrands import PRESETS, by_name
from .matrix_core import SampledMatrixSpec, convergence_table, norm_power, predict_limit

_REFLECTION_GRID = tuple(k / 20 for k in range(1, 20))
_DUPLICATION_GRID = (0.5, 1.0, 2.0, 3.7, 10.0, 25.0)


def _int_list(text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")
    if not values:
        raise argparse.ArgumentTypeError("expected at least one integer")
    return values


def _float_list(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated reals, got {text!r}")
    if not values:
        raise argparse.ArgumentTypeError("expected at least one real")
    return values


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _render_csv(rows: list[dict]) -> str:
    header = list(rows[0].keys())
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_format_value(row[key]) for key in header))
    return "\n".join(lines) + "\n"


def _render_json(meta: dict, rows: list[dict]) -> str:
    return json.dumps({"meta": meta, "rows": rows}, indent=2) + "\n"


def _require_ascending(parser: argparse.ArgumentParser, name: str, values: Sequence[int]) -> None:
    if any(b <= a for a, b in zip(values, values[1:])):
        parser.error(f"{name} must be strictly increasing, got {list(values)}")


def _run_norm(args) -> tuple[list[dict], dict]:
    integrand = by_name(args.f)
    reports = convergence_table(integrand, args.m, args.orders)
    rows = [
        {
            "n": r.order,
            "raw": r.raw_norm_power,
            "normalized": r.normalized,
            "predicted": r.predicted_limit,
            "abs_error": r.abs_error,
        }
        for r in reports
    ]
    meta = {"command": "norm", "integrand": args.f, "m": args.m, "orders": list(args.orders)}
    return rows, meta


def _run_gamma(args) -> tuple[list[dict], dict]:
    mode = args.mode
    rows: list[dict] = []
    if mode == "integral":
        for n in args.orders:
            via_matrix = specfun.gamma_integral_via_matrix(n)
            closed = specfun.gamma_integral_closed_partial(n)
            abs_diff = abs(via_matrix - closed)
            # a zero reference (n = 1) degrades the relative gap to absolute
            rel_diff = abs_diff / abs(closed) if closed != 0.0 else abs_diff
            rows.append(
                {
                    "n": n,
                    "matrix_route": via_matrix,
                    "closed_route": closed,
                    "abs_diff": abs_diff,
                    "rel_diff": rel_diff,
                    "limit": specfun.LN_SQRT_2PI,
                }
            )
    elif mode == "rowproduct":
        for k in args.orders:
            log_product = specfun.gamma_row_log_product(k)
            closed = specfun.gamma_row_log_product_closed(k)
            rows.append(
                {
                    "k": k,
                    "log_product": log_product,
                    "closed_form": closed,
                    "abs_diff": abs(log_product - closed),
                }
            )
    elif mode == "sine-odd":
        rows = [
            {"n": n, "order": 2 * n + 1, "residual": specfun.sine_product_odd_residual(n)}
            for n in args.orders
        ]
    elif mode == "sine-even":
        rows = [
            {"n": n, "order": 2 * n, "residual": specfun.sine_product_even_residual(n)}
            for n in args.orders
        ]
    elif mode == "reflection":
        rows = [
            {"s": s, "residual": specfun.euler_reflection_residual(s)}
            for s in args.points
        ]
    else:  # duplication
        rows = [
            {"z": z, "residual": specfun.duplication_residual(z)}
            for z in args.points
        ]
    meta = {"command": "gamma", "mode": mode}
    if mode in ("reflection", "duplication"):
        meta["points"] = list(args.points)
    else:
        meta["orders"] = list(args.orders)
    return rows, meta


def _run_farey(args) -> tuple[list[dict], dict]:
    integrand = by_name(args.f)
    predicted = predict_limit(integrand, 1.0)
    rows = []
    for x in args.x:
        sequence = farey_mod.farey_sequence(x)
        average = farey_mod.weyl_average(integrand, x)
        rows.append(
            {
                "x": x,
                "phi": sequence.count,
                "average": average,
                "predicted": predicted,
                "abs_error": abs(average - predicted),
                "coprime_density": farey_mod.coprime_density(x),
            }
        )
    meta = {"command": "farey", "integrand": args.f, "x": list(args.x)}
    return rows, meta


def _run_eigen(args) -> tuple[list[dict], dict]:
    integrand = by_name(args.f)
    rows = []
    for n in args.orders:
        sums = eigen_mod.spectral_sum_report(integrand, n, tol=args.tol)
        frobenius_sq = norm_power(SampledMatrixSpec(integrand, n), 2.0)
        rows.append(
            {
                "n": n,
                "trace": sums.trace,
                "trace_expected": n * float(integrand.eval(1.0)),
                "sum_sq": sums.sum_sq,
                "frobenius_sq": frobenius_sq,
                "normalized_sum_sq": sums.normalized_sum_sq,
            }
        )
    meta = {
        "command": "eigen",
        "integrand": args.f,
        "orders": list(args.orders),
        "tol": args.tol,
    }
    return rows, meta


def _run_hadamard(args) -> tuple[list[dict], dict]:
    rows = []
    for k in args.k:
        matrix = hadamard_mod.sylvester(k)
        if args.check == "orthogonality":
            rows.append(
                {"k": k, "order": matrix.order, "is_hadamard": hadamard_mod.is_hadamard(matrix)}
            )
        elif args.check == "oscillation":
            report = hadamard_mod.oscillation_bound(matrix)
            rows.append(
                {
                    "k": k,
                    "order": report.order,
                    "mismatch_count": report.mismatch_count,
                    "lower_bound": report.lower_bound,
                    "verdict": report.verdict.value,
                }
            )
        else:  # spectral
            rows.append(
                {
                    "k": k,
                    "order": matrix.order,
                    "sum_sq": hadamard_mod.spectral_sum_sq(matrix),
                    "order_sq": matrix.order**2,
                }
            )
    meta = {"command": "hadamard", "check": args.check, "k": list(args.k)}
    return rows, meta


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ratiolab",
        description="Numerical experiments on ratio-sampled symmetric matrices",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_common(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--format", choices=("csv", "json"), default="csv")
        sub.add_argument("--out", default=None, help="output path (default: stdout)")
        sub.add_argument(
            "--timestamp",
            action="store_true",
            help="include a timestamp in JSON meta (breaks byte determinism)",
        )

    norm = subparsers.add_parser("norm", help="entrywise m-norm convergence table")
    norm.add_argument("--f", choices=sorted(PRESETS), default="exp")
    norm.add_argument("--m", type=float, default=1.0)
    norm.add_argument("--orders", type=_int_list, default=(64, 128, 256))
    add_common(norm)
    norm.set_defaults(handler=_run_norm)

    gamma = subparsers.add_parser("gamma", help="log-Gamma identity suite")
    gamma.add_argument(
        "--mode",
        choices=("integral", "rowproduct", "sine-odd", "sine-even", "reflection", "duplication"),
        default="integral",
    )
    gamma.add_argument("--orders", type=_int_list, default=None)
    gamma.add_argument("--points", type=_float_list, default=None)
    add_common(gamma)
    gamma.set_defaults(handler=_run_gamma)

    farey = subparsers.add_parser("farey", help="Farey sequence statistics and averages")
    farey.add_argument("--x", type=_int_list, required=True)
    farey.add_argument("--f", choices=sorted(PRESETS), default="identity")
    add_common(farey)
    farey.set_defaults(handler=_run_farey)

    eig = subparsers.add_parser("eigen", help="spectral sums of sampled matrices")
    eig.add_argument("--f", choices=sorted(PRESETS), default="exp")
    eig.add_argument("--orders", type=_int_list, default=(2, 16, 64))
    eig.add_argument("--tol", type=float, default=eigen_mod.DEFAULT_TOL)
    add_common(eig)
    eig.set_defaults(handler=_run_eigen)

    had = subparsers.add_parser("hadamard", help="Hadamard construction and oscillation bound")
    had.add_argument("--k", type=_int_list, required=True)
    had.add_argument(
        "--check", choices=("orthogonality", "oscillation", "spectral"), default="orthogonality"
    )
    add_common(had)
    had.set_defaults(handler=_run_hadamard)

    return parser


def _validate(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    if args.command == "norm":
        if not (math.isfinite(args.m) and args.m >= 1.0):
            parser.error(f"--m must be finite and >= 1, got {args.m}")
        if any(n < 1 for n in args.orders):
            parser.error("--orders must all be >= 1")
        _require_ascending(parser, "--orders", args.orders)
    elif args.command == "gamma":
        if args.mode in ("reflection", "duplication"):
            if args.orders is not None:
                parser.error(f"--orders does not apply to mode {args.mode}")
            if args.points is None:
                args.points = _REFLECTION_GRID if args.mode == "reflection" else _DUPLICATION_GRID
            if args.mode == "reflection" and any(not 0.0 < s < 1.0 for s in args.points):
                parser.error("--points for reflection must lie in (0, 1)")
            if args.mode == "duplication" and not all(
                math.isfinite(z) and z > 0.0 for z in args.points
            ):
                parser.error("--points for duplication must be finite and > 0")
        else:
            if args.points is not None:
                parser.error(f"--points does not apply to mode {args.mode}")
            if args.orders is None:
                args.orders = (2, 16, 128, 512) if args.mode in ("integral", "rowproduct") else (1, 2, 50, 200)
            minimum = 2 if args.mode == "rowproduct" else 1
            if any(n < minimum for n in args.orders):
                parser.error(f"--orders must all be >= {minimum} for mode {args.mode}")
            _require_ascending(parser, "--orders", args.orders)
    elif args.command == "farey":
        if any(x < 1 for x in args.x):
            parser.error("--x must all be >= 1")
        _require_ascending(parser, "--x", args.x)
    elif args.command == "eigen":
        if not (math.isfinite(args.tol) and args.tol > 0):
            parser.error(f"--tol must be finite and > 0, got {args.tol}")
        if any(n < 1 for n in args.orders):
            parser.error("--orders must all be >= 1")
        _require_ascending(parser, "--orders", args.orders)
    elif args.command == "hadamard":
        if any(k < 0 for k in args.k):
            parser.error("--k must all be >= 0")
        _require_ascending(parser, "--k", args.k)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _validate(parser, args)
    try:
        rows, meta = args.handler(args)
    except (
        CapacityError,
        ConvergenceError,
        EvaluationError,
        QuadratureError,
        ValueError,
        IndexError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.timestamp:
        meta["timestamp"] = datetime.now(timezone.utc).isoformat()
    text = _render_csv(rows) if args.format == "csv" else _render_json(meta, rows)
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
