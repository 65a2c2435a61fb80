"""Exception types shared across the package."""

__all__ = ["ValidationError", "NumericError"]


class ValidationError(ValueError):
    """Invalid input data or configuration (bad file, broken invariant)."""


class NumericError(RuntimeError):
    """Numerical failure: singular linear system, non-finite matrix entries."""
