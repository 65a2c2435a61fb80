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
from .sets import DiscreteFuzzySet, _check_same_ground

__all__ = ["TNorm", "apply", "apply_array", "intersect"]


class TNorm(enum.Enum):
    MINIMUM = "min"
    PRODUCT = "product"
    LUKASIEWICZ = "lukasiewicz"
    DRASTIC = "drastic"

    @classmethod
    def from_name(cls, name: str) -> "TNorm":
        """Resolve a config name, case-insensitively ('min' or 'minimum' both work)."""
        key = str(name).strip().lower()
        aliases = {"min": cls.MINIMUM, "minimum": cls.MINIMUM}
        if key in aliases:
            return aliases[key]
        for member in cls:
            if member.value == key:
                return member
        raise ValidationError(f"unknown T-norm {name!r}; expected one of min, product, lukasiewicz, drastic")


def apply(t: TNorm, a: float, b: float) -> float:
    """Evaluate the T-norm on two degrees in [0, 1]."""
    a = float(a)
    b = float(b)
    if not (0.0 <= a <= 1.0 and 0.0 <= b <= 1.0):
        raise ValueError(f"T-norm arguments must lie in [0, 1], got ({a}, {b})")
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
    raise TypeError(f"not a TNorm: {t!r}")


def intersect(x: DiscreteFuzzySet, y: DiscreteFuzzySet, t: TNorm) -> DiscreteFuzzySet:
    """Pointwise T-norm intersection of two fuzzy sets on the same ground space.

    Zero results are dropped, so the support shrinks to where the T-norm is
    positive (always a subset of supp(x) & supp(y)).
    """
    _check_same_ground(x, y)
    common = x.support & y.support
    degrees = {}
    for idx in common:
        d = apply(t, x.degrees[idx], y.degrees[idx])
        if d > 0.0:
            degrees[idx] = d
    return DiscreteFuzzySet(x.ground, degrees)
