"""Exception types shared across the package, and the one rule for valid numbers."""

import math

__all__ = ["ValidationError", "NumericError"]


class ValidationError(ValueError):
    """Invalid input data or configuration (bad file, broken invariant)."""


class NumericError(RuntimeError):
    """Numerical failure: singular linear system, non-finite matrix entries."""


def _number(value, name: str, least: float = 0, closed: bool = False, integral: bool = False):
    """``value`` as a float (an int with ``integral``) that is finite and above
    ``least``, or equal to it when ``closed``.  Anything else raises ValidationError
    naming ``name``, a bool or a string too, though float() takes them."""
    try:
        if isinstance(value, (bool, str, bytes)):
            raise TypeError
        x = float(value)
    except (TypeError, ValueError, OverflowError):
        raise ValidationError(f"{name} must be a number, got {value!r}") from None
    if not (least <= x if closed else least < x) or not math.isfinite(x):
        raise ValidationError(f"{name} must be finite and {'>=' if closed else '>'} {least}, got {value}")
    if integral and not x.is_integer():
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    return int(value if isinstance(value, int) else x) if integral else x
