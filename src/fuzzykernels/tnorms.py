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

from .errors import ValidationError, _number
from .sets import DiscreteFuzzySet, _check_same_ground

__all__ = ["TNorm", "apply", "apply_array", "intersect"]


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

    @classmethod
    def from_name(cls, name: str) -> "TNorm":
        """Resolve a config name; what is no string, a member too, goes to ``_missing_``."""
        return cls(name) if isinstance(name, str) else cls._missing_(name)


def apply(t: TNorm, a: float, b: float) -> float:
    """Evaluate the T-norm on two degrees in [0, 1], each under :func:`errors._number`'s rule."""
    a, b = _number(a, "a", 0, closed=True, most=1), _number(b, "b", 0, closed=True, most=1)
    return float(apply_array(t, a, b))


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


def intersect(x: DiscreteFuzzySet, y: DiscreteFuzzySet, t: TNorm) -> DiscreteFuzzySet:
    """Pointwise T-norm intersection of two fuzzy sets on the same ground space.

    T is evaluated once, over the sorted common support, and zero results are
    dropped, so the support is where T is positive, within supp(x) & supp(y).
    The reference intersection and non-singleton kernels build on it.
    """
    _check_same_ground(x, y)
    common = sorted(x.support & y.support)
    values = apply_array(t, [x.degrees[i] for i in common], [y.degrees[i] for i in common])
    return DiscreteFuzzySet(x.ground, {i: d for i, d in zip(common, values.tolist()) if d > 0.0})
