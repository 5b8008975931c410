"""Exception types shared across the package; each budget lives with the code it bounds."""

from __future__ import annotations


class CapacityError(ValueError):
    """Requested size exceeds one of the package's fixed budgets."""


class EvaluationError(ValueError):
    """An integrand returned a non-finite value at a sample point."""
