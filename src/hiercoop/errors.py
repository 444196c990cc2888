"""Exceptions shared across the package."""
from __future__ import annotations


class DomainError(ValueError):
    """Inputs fall outside the model's domain (rate ratio, log arguments)."""


class PlanError(ValueError):
    """A layer count or a tuple of cluster sizes violates a structural invariant."""

    def __init__(self, field: str, reason: str) -> None:
        self.field = field
        self.reason = reason
        super().__init__(f"{field}: {reason}")


class InfeasibleError(ValueError):
    """The requested hierarchy does not fit the node budget."""
