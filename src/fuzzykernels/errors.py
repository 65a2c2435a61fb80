"""Exception types shared across the package, and the one rule for valid numbers."""

import math
import os

import numpy as np

__all__ = ["ValidationError", "NumericError"]


class ValidationError(ValueError):
    """Invalid input data or configuration (bad file, broken invariant)."""


class NumericError(RuntimeError):
    """Numerical failure: singular linear system, non-finite matrix entries."""


def _number(value, name: str, least: float = 0, closed: bool = False, integral: bool = False, most: float = math.inf):
    """``value`` as a float (an int with ``integral``) that is finite, at most
    ``most`` and above ``least``, or equal to it when ``closed``.  Anything else
    raises ValidationError naming ``name``, a bool or a string too, though float()
    takes them."""
    try:
        if isinstance(value, (bool, np.bool_, str, bytes)):
            raise TypeError
        x = float(value)
    except (TypeError, ValueError, OverflowError):
        raise ValidationError(f"{name} must be a number, got {value!r}") from None
    if not (least <= x if closed else least < x) or not x <= most or not math.isfinite(x):
        bound = f" and {'>=' if closed else '>'} {least}" if least > -math.inf else ""
        bound += f" and <= {most}" if most < math.inf else ""
        raise ValidationError(f"{name} must be finite{bound}, got {value}")
    if integral and not x.is_integer():
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    return int(value if isinstance(value, (int, np.integer)) else x) if integral else x


def _instance(value, types, name: str):
    """``value`` if it is an instance of ``types``, a class or a tuple of classes; anything else raises
    ValidationError naming ``name``."""
    if not isinstance(value, types):
        kinds = " or ".join(t.__name__ for t in (types if isinstance(types, tuple) else (types,)))
        raise ValidationError(f"{name} must be a {kinds}, got {value!r}")
    return value


_PATH = (str, os.PathLike)  # a file path; open() would take an int or a bool as a file descriptor


_REAL = (int, float, np.integer, np.floating)  # bool is an int, and is excluded where this is read
_REAL_KINDS = "iuf"  # the dtype kinds of int and float arrays, whose every element is _REAL


def _numbers(values, name: str, least: float = -math.inf, closed: bool = False, finite: bool = True) -> np.ndarray:
    """``values`` (nested lists or an array) as a new float array whose every
    element passes :func:`_number`'s rule; the first element that does not
    raises ValidationError naming it by its index, as in ``name[1][0]``.  With
    ``finite`` false, any element of a number type passes, NaN and inf too."""
    a = values if isinstance(values, np.ndarray) else np.array(values, dtype=object)
    types = set() if a.dtype.kind in _REAL_KINDS else {*map(type, a.flat)}  # of each element of any other array
    try:  # the common case, real numbers in range, takes a few numpy calls
        if not any(issubclass(t, bool) or not issubclass(t, _REAL) for t in types):
            x = a.astype(float)
            if not finite or np.isfinite(x).all() and (x >= least if closed else x > least).all():
                return x
    except OverflowError:  # an int too large for a float
        pass
    flat = a.ravel().tolist()
    row = flat[0] if flat and isinstance(flat[0], (list, tuple)) else None  # ragged rows: the first sets their length
    for k, v in enumerate(flat):
        label = name + "".join(f"[{i}]" for i in np.unravel_index(k, a.shape))
        if row is None:
            _number(v, label, least, closed)
        elif np.shape(v) != np.shape(row):
            raise ValidationError(f"{label} must be a list of length {len(row)}, as the first is, got {v!r}")
    return a.astype(float)


def _labels(values, size: int) -> np.ndarray:
    """``values`` as a flat float vector of ``size`` labels, each +1 or -1, under :func:`_numbers`'
    rule; anything else raises ValidationError naming ``labels`` or the element, as ``labels[0]``."""
    y = _numbers(values, "labels")
    if y.shape != (size,):
        raise ValidationError(f"labels must match the data: a flat vector of {size} entries, got shape {y.shape}")
    bad = np.flatnonzero(np.abs(y) != 1)
    if bad.size:
        raise ValidationError(f"labels[{bad[0]}] must be +1 or -1, got {y[bad[0]]:g}")
    return y
