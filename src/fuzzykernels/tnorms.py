"""T-norm operators realizing fuzzy-set intersection.

A T-norm is a commutative, associative, monotone map [0,1]^2 -> [0,1] with
neutral element 1.  Four classics are provided:

    minimum      min(a, b)
    product      a * b
    lukasiewicz  max(a + b - 1, 0)
    drastic      a if b == 1, b if a == 1, else 0

They are pointwise ordered: drastic <= lukasiewicz <= product <= minimum.
"""

from __future__ import annotations

import enum

import numpy as np

from .errors import ValidationError

__all__ = ["TNorm", "apply_array"]


class _ByName(enum.EnumMeta):
    def __call__(cls, value, *args, **kwargs):
        """What is no string or member goes to ``_missing_``: Enum's lookup compares an array elementwise."""
        return super().__call__(value, *args, **kwargs) if isinstance(value, (str, cls)) else cls._missing_(value)


class TNorm(enum.Enum, metaclass=_ByName):
    MINIMUM = "min"
    PRODUCT = "product"
    LUKASIEWICZ = "lukasiewicz"
    DRASTIC = "drastic"

    @classmethod
    def _missing_(cls, value):
        """``TNorm(value)`` reads a name case-insensitively, 'minimum' as 'min'; others raise ValidationError."""
        key = value.strip().lower() if isinstance(value, str) else None
        for t in cls:
            if t.value == ("min" if key == "minimum" else key):
                return t
        raise ValidationError(f"unknown T-norm value {value!r}; expected one of {', '.join(t.value for t in cls)}")


def apply_array(t: TNorm, a, b) -> np.ndarray:
    """Elementwise T-norm of two broadcastable arrays of degrees.

    No range check: callers pass degrees already known to lie in [0, 1].
    """
    if t is TNorm.MINIMUM:
        return np.minimum(a, b)
    if t is TNorm.PRODUCT:
        return np.multiply(a, b)
    if t is TNorm.LUKASIEWICZ:
        return np.maximum(np.add(a, b) - 1.0, 0.0)
    if t is TNorm.DRASTIC:
        # the case split demands exact boundary comparison; degrees are
        # never clamped
        return np.where(np.equal(b, 1.0), a, np.where(np.equal(a, 1.0), b, 0.0))
    raise ValidationError(f"t must be a TNorm, got {t!r}")
