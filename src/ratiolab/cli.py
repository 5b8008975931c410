"""Experiment runner: every module as a subcommand with machine-readable output.

Subcommands: norm, gamma, farey, eigen, hadamard.  Output is CSV (header
row, '.' decimal point, 17 significant digits, LF line endings) or JSON
(one top-level object with "meta" and "rows").  Runs are deterministic:
identical flags produce identical bytes, except that from order 256 on the
last bits of eigen's values follow the BLAS thread count.

Exit status: 0 on success, 2 on usage errors, 1 on computation errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from typing import Callable, NamedTuple, Optional, Sequence

from . import eigen as eigen_mod
from . import farey as farey_mod
from . import hadamard as hadamard_mod
from . import specfun
from .integrands import PRESETS
from .matrix_core import SampledMatrixSpec, convergence_table, norm_power, predict_limit


def _number(convert: Callable[[str], float], rule: str, ok: Callable[[float], bool]):
    """argparse type: one number, read by convert, that must satisfy ok (stated as rule)."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not a valid {convert.__name__}: {text!r}") from None
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text}")
        return value

    return parse


def _at_least(minimum: int):
    return _number(int, f">= {minimum}", lambda n: n >= minimum)


def _list(item):
    """argparse type: comma-separated item values, strictly increasing."""
    def parse(text: str) -> tuple:
        values = tuple(item(part) for part in text.split(","))
        if any(b <= a for a, b in zip(values, values[1:])):
            raise argparse.ArgumentTypeError(f"must be strictly increasing, got {text}")
        return values

    return parse


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


def _largest_first(row: Callable[..., dict], values: Sequence) -> list[dict]:
    """row(value) for each value, in the order given, computed from the last value down.

    Every budget is a ceiling and every list is strictly increasing, so a
    value past its budget raises before any other value's work.
    """
    return [row(value) for value in reversed(values)][::-1]


def _run_norm(args) -> tuple[list[dict], dict]:
    reports = convergence_table(PRESETS[args.f], args.m, args.orders)
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


class _Sweep(NamedTuple):
    """One gamma --mode or hadamard --check: the option it sweeps, and how."""
    option: str  # dest of the swept option
    item: Callable[[str], object]  # argparse type: the rule each value must satisfy
    row: Callable[..., dict]  # one output row per swept value
    default: Optional[tuple] = None  # values when the option is not given


def _integral_row(n: int) -> dict:
    via_matrix = specfun.gamma_integral_via_matrix(n)
    closed = specfun.gamma_integral_closed_partial(n)
    abs_diff = abs(via_matrix - closed)
    # a zero reference (n = 1) degrades the relative gap to absolute
    rel_diff = abs_diff / abs(closed) if closed != 0.0 else abs_diff
    return {
        "n": n,
        "matrix_route": via_matrix,
        "closed_route": closed,
        "abs_diff": abs_diff,
        "rel_diff": rel_diff,
        "limit": specfun.LN_SQRT_2PI,
    }


def _rowproduct_row(k: int) -> dict:
    log_product = specfun.gamma_row_log_product(k)
    closed = specfun.gamma_row_log_product_closed(k)
    abs_diff = abs(log_product - closed)
    return {"k": k, "log_product": log_product, "closed_form": closed, "abs_diff": abs_diff}


def _sine_row(n: int, order: int) -> dict:
    return {"n": n, "order": order, "residual": specfun.sine_product_residual(order)}


GAMMA_MODES = {
    "integral": _Sweep("orders", _at_least(1), _integral_row, (2, 16, 128, 512)),
    "rowproduct": _Sweep("orders", _at_least(2), _rowproduct_row, (2, 16, 128, 512)),
    "sine-odd": _Sweep("orders", _at_least(1), lambda n: _sine_row(n, 2 * n + 1), (1, 2, 50, 200)),
    "sine-even": _Sweep("orders", _at_least(1), lambda n: _sine_row(n, 2 * n), (1, 2, 50, 200)),
    "reflection": _Sweep(
        "points",
        _number(float, "in (0, 1)", lambda s: 0.0 < s < 1.0),
        lambda s: {"s": s, "residual": specfun.euler_reflection_residual(s)},
        tuple(k / 20 for k in range(1, 20)),
    ),
    "duplication": _Sweep(
        "points",
        _number(float, "finite and > 0", lambda z: 0.0 < z < math.inf),
        lambda z: {"z": z, "residual": specfun.duplication_residual(z)},
        (0.5, 1.0, 2.0, 3.7, 10.0, 25.0),
    ),
}


def _run_farey(args) -> tuple[list[dict], dict]:
    integrand = PRESETS[args.f]
    predicted = predict_limit(integrand, 1.0)

    def row(x: int) -> dict:
        # the count alone is kept, so the fractions are freed before the walk below
        phi = farey_mod.farey_sequence(x).count
        average = farey_mod.weyl_average(integrand, x)
        return {
            "x": x,
            "phi": phi,
            "average": average,
            "predicted": predicted,
            "abs_error": abs(average - predicted),
            "coprime_density": farey_mod.coprime_density(x),
        }

    meta = {"command": "farey", "integrand": args.f, "x": list(args.x)}
    return _largest_first(row, args.x), meta


def _run_eigen(args) -> tuple[list[dict], dict]:
    integrand = PRESETS[args.f]

    def row(n: int) -> dict:
        sums = eigen_mod.spectral_sum_report(integrand, n)
        frobenius_sq = norm_power(SampledMatrixSpec(integrand, n), 2.0)
        return {
            "n": n,
            "trace": sums.trace,
            "trace_expected": n * float(integrand.eval(1.0)),
            "sum_sq": sums.sum_sq,
            "frobenius_sq": frobenius_sq,
            "normalized_sum_sq": sums.normalized_sum_sq,
        }

    meta = {"command": "eigen", "integrand": args.f, "orders": list(args.orders)}
    return _largest_first(row, args.orders), meta


def _oscillation_row(k: int) -> dict:
    report = hadamard_mod.oscillation_bound(hadamard_mod.sylvester(k))
    return {
        "k": k,
        "order": report.order,
        "mismatch_count": report.mismatch_count,
        "lower_bound": report.lower_bound,
        "verdict": report.verdict.value,
    }


#: Each check's row is that of the Sylvester matrix of order 2^k.
HADAMARD_CHECKS = {
    "orthogonality": _Sweep(
        "k",
        _at_least(0),
        lambda k: {
            "k": k,
            "order": 2**k,
            "is_hadamard": hadamard_mod.is_hadamard(hadamard_mod.sylvester(k)),
        },
    ),
    # order 2^0 = 1 has no last two rows to compare
    "oscillation": _Sweep("k", _at_least(1), _oscillation_row),
    "spectral": _Sweep(
        "k",
        _at_least(0),
        lambda k: {
            "k": k,
            "order": 2**k,
            "sum_sq": hadamard_mod.spectral_sum_sq(hadamard_mod.sylvester(k)),
            "order_sq": 4**k,
        },
    ),
}


def _run_sweep(args) -> tuple[list[dict], dict]:
    """Rows of a gamma --mode or hadamard --check: its option is parsed by its
    rule, and the other modes' options are rejected, as usage errors."""
    parser, selector, table = args.sweep
    choice = getattr(args, selector)
    sweep = table[choice]
    for option in {other.option for other in table.values()} - {sweep.option}:
        if getattr(args, option) is not None:
            parser.error(f"argument --{option}: does not apply to --{selector} {choice}")
    text = getattr(args, sweep.option)
    try:
        values = sweep.default if text is None else _list(sweep.item)(text)
    except argparse.ArgumentTypeError as exc:
        parser.error(f"argument --{sweep.option}: {exc}")
    meta = {"command": args.command, selector: choice, sweep.option: list(values)}
    return _largest_first(sweep.row, values), meta


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process: parse_args keeps no state in it."""
    parser = argparse.ArgumentParser(
        prog="ratiolab",
        description="Numerical experiments on ratio-sampled symmetric matrices",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_common(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--format", choices=("csv", "json"), default="csv")
        sub.add_argument("--out", default=None, help="output path (default: stdout)")

    norm = subparsers.add_parser("norm", help="entrywise m-norm convergence table")
    norm.add_argument("--f", choices=sorted(PRESETS), default="exp")
    norm.add_argument(
        "--m", type=_number(float, "finite and >= 1", lambda m: 1.0 <= m < math.inf), default=1.0
    )
    norm.add_argument("--orders", type=_list(_at_least(1)), default=(64, 128, 256))
    add_common(norm)
    norm.set_defaults(handler=_run_norm)

    gamma = subparsers.add_parser("gamma", help="log-Gamma identity suite")
    gamma.add_argument("--mode", choices=tuple(GAMMA_MODES), default="integral")
    gamma.add_argument("--orders", default=None)
    gamma.add_argument("--points", default=None)
    add_common(gamma)
    gamma.set_defaults(handler=_run_sweep, sweep=(gamma, "mode", GAMMA_MODES))

    farey = subparsers.add_parser("farey", help="Farey sequence statistics and averages")
    farey.add_argument("--x", type=_list(_at_least(1)), required=True)
    farey.add_argument("--f", choices=sorted(PRESETS), default="identity")
    add_common(farey)
    farey.set_defaults(handler=_run_farey)

    eig = subparsers.add_parser("eigen", help="spectral sums of sampled matrices")
    eig.add_argument("--f", choices=sorted(PRESETS), default="exp")
    eig.add_argument("--orders", type=_list(_at_least(1)), default=(2, 16, 64))
    add_common(eig)
    eig.set_defaults(handler=_run_eigen)

    had = subparsers.add_parser("hadamard", help="Hadamard construction and oscillation bound")
    had.add_argument("--k", required=True)
    had.add_argument("--check", choices=tuple(HADAMARD_CHECKS), default="orthogonality")
    add_common(had)
    had.set_defaults(handler=_run_sweep, sweep=(had, "check", HADAMARD_CHECKS))

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        rows, meta = args.handler(args)
        text = _render_csv(rows) if args.format == "csv" else _render_json(meta, rows)
        if args.out is None:
            sys.stdout.write(text)
        else:
            with open(args.out, "w", encoding="utf-8", newline="") as handle:
                handle.write(text)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
