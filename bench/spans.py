"""Outside-in tracing: wrap ratiolab's public functions from the benchmark.

Nothing under ``src/`` is modified. ``Tracer.install`` replaces each traced
function with a timing wrapper in every ``ratiolab`` module namespace that
binds it (``sample_row`` is bound in both ``matrix_core`` and ``eigen``,
``norm_power`` in ``matrix_core``, ``specfun`` and ``cli``, and so on), and
``uninstall`` puts the originals back.

For each wrapped function the tracer keeps ``calls``, ``busy_s``, ``self_s``
(busy time minus the time covered by wrapped children) and ``errors``.
Work counts (integrand evaluations, Jacobi pair visits, ...) are computed
from each call's arguments and return value.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

from checks import phi_mobius


def _count_sample_row(add, args, result, busy):
    integrand, k = args[0], args[1]
    add("matrix_core.sample_row.evals", k)
    add(f"matrix_core.sample_row.{integrand.label}.evals", k)
    add(f"matrix_core.sample_row.{integrand.label}.busy_s", busy)


def _count_norm_power(add, args, result, busy):
    n = args[0].order
    add("matrix_core.norm_power.terms", n * (n + 1) // 2)


def _count_jacobi(add, args, result, busy):
    n = args[0].order
    add("eigen.jacobi_eigenvalues.sweeps", result.sweeps_used)
    add("eigen.jacobi_eigenvalues.pair_visits", result.sweeps_used * n * (n - 1) // 2)


def _count_is_hadamard(add, args, result, busy):
    add("hadamard.is_hadamard.mults", args[0].order ** 3)


def _count_farey_sequence(add, args, result, busy):
    add("farey.farey_sequence.fractions", result.count)


def _count_weyl_average(add, args, result, busy):
    add("farey.weyl_average.fractions", phi_mobius(args[1]))


def _count_totient_sieve(add, args, result, busy):
    add("farey.totient_sieve.entries", result.limit)


#: (module, function, work counter or None) for every traced function.
TRACED = (
    ("cli", "main", None),
    ("matrix_core", "sample_row", _count_sample_row),
    ("matrix_core", "norm_power", _count_norm_power),
    ("matrix_core", "predict_limit", None),
    ("matrix_core", "convergence_table", None),
    ("specfun", "gamma_integral_via_matrix", None),
    ("specfun", "gamma_integral_closed_partial", None),
    ("farey", "farey_sequence", _count_farey_sequence),
    ("farey", "weyl_average", _count_weyl_average),
    ("farey", "totient_sieve", _count_totient_sieve),
    ("farey", "coprime_density", None),
    ("eigen", "materialize", None),
    ("eigen", "jacobi_eigenvalues", _count_jacobi),
    ("eigen", "spectral_sum_report", None),
    ("hadamard", "sylvester", None),
    ("hadamard", "is_hadamard", _count_is_hadamard),
    ("hadamard", "oscillation_bound", None),
)

#: Namespaces that must be patched for each name; checked on install.
REQUIRED_BINDINGS = {
    "sample_row": ("matrix_core", "eigen"),
    "norm_power": ("matrix_core", "specfun", "cli"),
    "predict_limit": ("matrix_core", "cli"),
    "convergence_table": ("cli",),
}


class Tracer:
    """Span statistics for wrapped functions, kept in memory."""

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self._children: list[float] = []  # per open span: time covered by children
        self._patched: list[tuple[object, str, object]] = []
        self.stats: dict[str, float] = defaultdict(int)

    def add(self, name: str, value) -> None:
        self.stats[name] += value

    def wrap(self, name: str, fn, count=None):
        """``fn`` with a span named ``name`` around every call."""
        clock, children, add = self._clock, self._children, self.add

        def traced(*args, **kwargs):
            children.append(0.0)
            started = clock()
            failed = True
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                busy = clock() - started
                covered = children.pop()
                if children:
                    children[-1] += busy
                add(f"{name}.calls", 1)
                add(f"{name}.busy_s", busy)
                add(f"{name}.self_s", busy - covered)
                add(f"{name}.errors", int(failed))
            if count is not None:
                count(add, args, result, busy)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> list[str]:
        """Wrap every TRACED function in every ratiolab namespace binding it.

        Returns the patched bindings as ``module.attribute`` strings and
        raises RuntimeError if a required binding was not found.
        """
        modules = {
            name: module
            for name, module in list(sys.modules.items())
            if name == "ratiolab" or name.startswith("ratiolab.")
        }
        patched = []
        for module_name, function_name, count in TRACED:
            original = getattr(modules[f"ratiolab.{module_name}"], function_name)
            wrapper = self.wrap(f"{module_name}.{function_name}", original, count)
            for name, module in modules.items():
                for attribute, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attribute, wrapper)
                        self._patched.append((module, attribute, original))
                        patched.append(f"{name.removeprefix('ratiolab.')}.{attribute}")
        missing = [
            f"{module}.{name}"
            for name, modules_needed in REQUIRED_BINDINGS.items()
            for module in modules_needed
            if f"{module}.{name}" not in patched
        ]
        if missing:
            self.uninstall()
            raise RuntimeError(f"trace wrappers not installed in {missing}")
        return patched

    def uninstall(self) -> None:
        for module, attribute, original in reversed(self._patched):
            setattr(module, attribute, original)
        self._patched.clear()
