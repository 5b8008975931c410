"""Exception types, and the dense capacity limit, shared across the package."""

from __future__ import annotations

#: Largest matrix order stored densely; larger orders raise CapacityError.
DENSE_LIMIT = 2048


class CapacityError(ValueError):
    """Requested size exceeds the configured dense/memory budget."""


class EvaluationError(ValueError):
    """An integrand returned a non-finite value at a sample point."""


class QuadratureError(RuntimeError):
    """Adaptive quadrature exhausted its subdivision budget."""


class ConvergenceError(RuntimeError):
    """Iterative solver failed to reach its tolerance within the sweep budget."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual
