"""Exception types shared across the package, and the one rule for valid numbers."""

import math

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
    return int(value if isinstance(value, int) else x) if integral else x


_REAL = (int, float, np.integer, np.floating)  # bool is an int, and is excluded where this is read


def _numbers(values, name: str, least: float = -math.inf, closed: bool = False) -> np.ndarray:
    """``values`` (nested lists or an array) as a new float array whose every
    element passes :func:`_number`'s rule; the first element that does not
    raises ValidationError naming it by its index, as in ``name[1][0]``."""
    a = values if isinstance(values, np.ndarray) else np.array(values, dtype=object)
    flat = a.ravel().tolist()
    try:  # the common case, real numbers in range, takes a few passes in C
        if not any(issubclass(t, bool) or not issubclass(t, _REAL) for t in {*map(type, flat)}):
            low = min(flat, default=math.inf)  # fsum is exact: a finite one means no NaN or inf
            if math.isfinite(math.fsum(flat)) and (least <= low if closed else least < low):
                return a.astype(float)
    except (OverflowError, ValueError):  # an int too large for a float, or fsum of inf and -inf
        pass
    row = flat[0] if flat and isinstance(flat[0], (list, tuple)) else None  # ragged rows: the first sets their length
    for k, v in enumerate(flat):
        label = name + "".join(f"[{i}]" for i in np.unravel_index(k, a.shape))
        if row is None:
            _number(v, label, least, closed)
        elif np.shape(v) != np.shape(row):
            raise ValidationError(f"{label} must be a list of length {len(row)}, as the first is, got {v!r}")
    return a.astype(float)
