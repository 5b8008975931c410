"""Exception types shared across the package; each budget lives with the code it bounds."""

from __future__ import annotations


class CapacityError(ValueError):
    """Requested size exceeds one of the package's fixed budgets."""


class EvaluationError(ValueError):
    """An integrand returned a non-finite value at a sample point."""


class QuadratureError(RuntimeError):
    """Adaptive quadrature exhausted its subdivision budget."""


class ConvergenceError(RuntimeError):
    """Iterative solver failed to reach its tolerance within the sweep budget."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual
