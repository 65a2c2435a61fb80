"""Fuzzy sets over a finite ground space.

A fuzzy set is identified with its membership function mapping elements to
degrees in [0, 1], and both representations are callable as one:

* :class:`DiscreteFuzzySet` stores positive degrees sparsely over the indexed
  points of a :class:`GroundSpace`, as two read-only arrays of indices and
  degrees; anything not stored has degree exactly 0, so the support is simply
  the stored indices.  Its ``degrees`` mapping is built on first read.
* :class:`GaussianFuzzySet` is parametric: a product of per-dimension Gaussian
  bumps ``exp(-(x_d - m_d)^2 / (2 sigma_d^2))``.  Centred on a crisp vector it
  is that vector's epistemic fuzzification.

Every number that defines a set, a point or a cell measure passes the rule of
``errors._numbers``.  All types are immutable and every function here is pure.
"""

from __future__ import annotations

import operator
from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import ValidationError, _instance, _number, _numbers

__all__ = [
    "GroundSpace",
    "Partition",
    "DiscreteFuzzySet",
    "GaussianFuzzySet",
    "fuzzify_from_histogram",
]


def _index(value) -> int:
    """A ground-space index as an int; a bool, or a value of a type that is not
    an integer (1.5, 1.0, "1"), raises ValidationError instead of being truncated."""
    if type(value) is int:
        return value
    if isinstance(value, bool):
        raise ValidationError(f"index {value!r} is not an integer")
    try:
        return operator.index(value)
    except TypeError as exc:
        raise ValidationError(f"index {value!r} is not an integer") from exc


def _built(cls, **fields):
    """An instance of ``cls`` holding ``fields``, for a batch constructor that checked them."""
    obj = cls.__new__(cls)
    obj.__dict__.update(fields)
    return obj


class Partition:
    """Pairwise-disjoint cells of ground-space indices, one measure per cell.

    The cells must tile the index range 0..n-1 exactly (no gaps, no overlap).
    When ``measures`` is omitted the counting measure ``rho(A) = |A|`` is used.
    """

    def __init__(self, cells: Sequence[Iterable[int]], measures: Sequence[float] | None = None):
        if not isinstance(cells, Iterable):
            raise ValidationError(f"cells must be a list of cells, got {cells!r}")
        norm_cells = []
        for k, cell in enumerate(cells):
            if not isinstance(cell, Iterable):
                raise ValidationError(f"cells[{k}] must be a list of ground indices, got {cell!r}")
            idxs = [*cell]
            if {*map(type, idxs)} != {int}:  # _index refuses a bool, float or string, and converts a numpy int
                idxs = [*map(_index, idxs)]
            if not idxs:
                raise ValidationError(f"cell {k} is empty")
            norm_cells.append(tuple(sorted(idxs)))
        self.cells: tuple[tuple[int, ...], ...] = tuple(norm_cells)

        flat = [i for cell in self.cells for i in cell]
        n = len(flat)
        if len(set(flat)) < n:
            raise ValidationError("cells are not pairwise disjoint")
        if n and (min(flat) < 0 or max(flat) >= n):  # n distinct indices in 0..n-1 are all of them
            raise ValidationError("cells must cover the index set 0..n-1 without gaps")
        self.size = n
        cell_index = np.empty(n, dtype=np.intp)
        cell_index[np.array(flat, dtype=np.intp)] = np.repeat(np.arange(len(self.cells)), [*map(len, self.cells)])
        cell_index.flags.writeable = False
        self.cell_index: np.ndarray = cell_index  # cell number of each ground index

        if measures is None:
            meas = np.array([float(len(cell)) for cell in self.cells])
        else:
            meas = _numbers(measures, "measures", 0, closed=True)
            if meas.shape != (len(self.cells),):
                raise ValidationError(f"measures need one measure per cell ({len(self.cells)}), got shape {meas.shape}")
        meas.flags.writeable = False
        self.measures: np.ndarray = meas

    def __len__(self) -> int:
        return len(self.cells)

    def __eq__(self, other) -> bool:
        if other is self:
            return True
        if not isinstance(other, Partition):
            return NotImplemented
        return self.cells == other.cells and np.array_equal(self.measures, other.measures)

    def __repr__(self) -> str:
        return f"Partition({len(self.cells)} cells over {self.size} indices)"


class GroundSpace:
    """Finite, explicitly enumerated domain: an ordered list of real vectors.

    Points are addressed by their stable integer index 0..len-1; fuzzy sets
    are keyed by index, never by float equality of coordinates.  An optional
    :class:`Partition` over the indices supports the intersection kernel.
    """

    def __init__(self, points: Sequence[Sequence[float]] | np.ndarray, partition: Partition | None = None):
        pts = _numbers(points, "points")
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2 or pts.shape[0] == 0 or pts.shape[1] == 0:
            raise ValidationError("points must be a non-empty list of equal-dimension vectors")
        pts.flags.writeable = False
        self.points: np.ndarray = pts
        if partition is not None and not isinstance(partition, Partition):
            raise ValidationError(f"partition must be a Partition, got {partition!r}")
        if partition is not None and partition.size != len(pts):
            raise ValidationError(
                f"partition covers {partition.size} indices but the ground space has {len(pts)} points"
            )
        self.partition = partition

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def __len__(self) -> int:
        return self.points.shape[0]

    def __eq__(self, other) -> bool:
        if other is self:
            return True
        if not isinstance(other, GroundSpace):
            return NotImplemented
        return np.array_equal(self.points, other.points) and self.partition == other.partition

    def __repr__(self) -> str:
        return f"GroundSpace({len(self)} points, dim={self.dim})"


class DiscreteFuzzySet:
    """Sparse membership function over a ground space.

    Held as two read-only arrays in the order its mapping was given: ``_idx``,
    point indices (intp), and ``_deg``, their degrees in (0, 1] (float64).
    Degrees equal to 0 are never stored, so ``support`` is exactly ``_idx``.
    ``degrees`` maps index -> degree in that order and is built on first read.
    """

    def __init__(self, ground: GroundSpace, degrees: Mapping[int, float]):
        _instance(ground, GroundSpace, "ground")
        if not isinstance(degrees, Mapping):
            raise ValidationError(f"degrees must be a mapping of index to degree, got {degrees!r}")
        self.ground = ground
        n = len(ground)
        clean: dict[int, float] = {}
        for idx, deg in degrees.items():
            i = _index(idx)
            if not 0 <= i < n:
                raise ValidationError(f"index {i} outside ground space of {n} points")
            clean[i] = _number(deg, f"degree at index {i}", 0, most=1)
        self._idx, self._deg = np.fromiter(clean, np.intp, len(clean)), np.fromiter(clean.values(), float, len(clean))
        self._idx.flags.writeable = self._deg.flags.writeable = False

    @classmethod
    def _slot(cls, ground: GroundSpace, objs: Sequence[dict]) -> list[DiscreteFuzzySet] | None:
        """One set per dict of index strings to degrees, as in a dataset file, by the rule of ``__init__``
        checked over all the dicts at once, each set's arrays views of the slot's.  Every key must be
        canonical, plain decimal with no zero padding, so one dict's keys name distinct indices.  None,
        never an exception, where a key is not ("", "01", " 1", 1), a set breaks the rule or a degree is
        neither an int nor a float (a bool is neither); the record loop then builds or refuses the slot."""
        keys = [k for obj in objs for k in obj]
        degs = [d for obj in objs for d in obj.values()]
        try:
            digits = "".join(keys)
            if keys and not (digits.isascii() and digits.isdigit()):
                return None
            at = np.array(degs, dtype=float)
        except (TypeError, ValueError, OverflowError):  # a key that is not a string; a degree that is no
            return None  # number, or an int too large for a float
        # an empty key drops a number; no key is shorter than its index's digit count (1 + the powers of ten up
        # to it), so the sum is len(digits) only where none is padded; past intp a key saturates at 19 digits
        idx = np.fromstring(" ".join(keys), np.intp, sep=" ")
        canonical = len(digits) == len(idx) + np.searchsorted(10 ** np.arange(1, 19), idx, "right").sum()
        if (len(idx) != len(keys) or not canonical or idx.max(initial=-1) >= len(ground)
                or {*map(type, degs)} - {float, int} or not ((0.0 < at) & (at <= 1.0)).all()):  # also false for NaN
            return None
        idx.flags.writeable = at.flags.writeable = False  # and so is each set's view of them
        ends = np.cumsum([*map(len, objs)]).tolist()
        return [_built(cls, ground=ground, _idx=idx[a:b], _deg=at[a:b]) for a, b in zip([0, *ends], ends)]

    @cached_property
    def degrees(self) -> Mapping[int, float]:
        return MappingProxyType(dict(zip(self._idx.tolist(), self._deg.tolist())))

    @property
    def support(self) -> frozenset[int]:
        return frozenset(self._idx.tolist())

    def __call__(self, idx: int) -> float:
        """Degree of membership of the point at ``idx``; 0 outside the support."""
        i = _index(idx)
        if not 0 <= i < len(self.ground):
            raise ValidationError(f"index {i} outside ground space of {len(self.ground)} points")
        return self.degrees.get(i, 0.0)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DiscreteFuzzySet):
            return NotImplemented
        return self.ground == other.ground and self.degrees == other.degrees

    def __repr__(self) -> str:
        return f"DiscreteFuzzySet({len(self._idx)} of {len(self.ground)} points)"


def _gaussian_parameters(means, widths, names=("means", "widths")) -> tuple[np.ndarray, np.ndarray]:
    """Two vectors of one length d >= 1 (a scalar is d = 1) by :func:`errors._numbers`' rule, widths > 0;
    an error names an element as ``means[1]`` and a shape by both names."""
    m, s = np.atleast_1d(_numbers(means, names[0])), np.atleast_1d(_numbers(widths, names[1], 0))
    if m.ndim != 1 or m.shape != s.shape or m.size == 0:
        raise ValidationError(f"{names[0]} and {names[1]} must be equal-length non-empty vectors")
    return m, s


class GaussianFuzzySet:
    """Parametric fuzzy set ``x -> prod_d exp(-(x_d - m_d)^2 / (2 sigma_d^2))``."""

    def __init__(self, means: Sequence[float] | np.ndarray, widths: Sequence[float] | np.ndarray):
        m, s = _gaussian_parameters(means, widths)
        m.flags.writeable = False
        s.flags.writeable = False
        self.means: np.ndarray = m
        self.widths: np.ndarray = s

    @classmethod
    def _slot(cls, means: Sequence, widths: Sequence) -> list[GaussianFuzzySet] | None:
        """``[GaussianFuzzySet(m, s) for m, s in zip(means, widths)]`` by the rule of ``__init__``, checked
        over the stacks at once; None, never an exception, where a set breaks it or the stacks are not
        both N x d with d >= 1 (a scalar mean, ragged rows)."""
        try:
            m, s = _numbers(means, "means"), _numbers(widths, "widths", 0)
        except (ValueError, TypeError):  # ValidationError too; and a ragged stack that astype cannot take
            return None
        if m.ndim != 2 or m.shape != s.shape or m.shape[1] == 0:
            return None
        m.flags.writeable = s.flags.writeable = False  # and so is each set's row of them
        return [_built(cls, means=row_m, widths=row_s) for row_m, row_s in zip(m, s)]

    @property
    def dim(self) -> int:
        return self.means.size

    def __call__(self, x) -> float:
        """The membership degree at a point of matching dimension."""
        v = np.atleast_1d(_numbers(x, "x"))
        if v.shape != self.means.shape:
            raise ValidationError(f"point has dimension {v.size}, fuzzy set has {self.dim}")
        z = (v - self.means) / self.widths
        return float(np.exp(-0.5 * np.dot(z, z)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, GaussianFuzzySet):
            return NotImplemented
        return np.array_equal(self.means, other.means) and np.array_equal(self.widths, other.widths)

    def __repr__(self) -> str:
        return f"GaussianFuzzySet(dim={self.dim})"


def fuzzify_from_histogram(samples: Sequence[float], ground: GroundSpace) -> DiscreteFuzzySet:
    """Data-driven fuzzification of scalar samples over a grid of bin centers.

    Each sample is assigned to its nearest bin center (ties go to the lower
    index), in memory O(samples + bins); counts are divided by the maximum
    count, so the tallest bin has degree exactly 1 and empty bins stay out
    of the support.
    """
    vals = _numbers(samples, "samples")
    if vals.ndim != 1:
        raise ValidationError(f"samples must be a flat list of numbers, got shape {vals.shape}")
    _instance(ground, GroundSpace, "ground")
    if vals.size == 0:
        raise ValidationError("cannot fuzzify an empty sample list")
    if ground.dim != 1:
        raise ValidationError("histogram fuzzification needs a 1-dimensional ground space")
    # ascending samples keep _nearest's reduceat linear; the counts do not depend on their order
    counts = np.bincount(_nearest(np.sort(vals), ground.points[:, 0]), minlength=len(ground))
    peak = counts.max()
    degrees = {int(i): counts[i] / peak for i in np.nonzero(counts)[0]}
    return DiscreteFuzzySet(ground, degrees)


def _nearest(vals: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Per value v, the lowest index among the centers c at the least
    ``abs(v - c)``, as ``abs(vals[:, None] - centers).argmin(axis=1)`` gives,
    in O(len(vals) + len(centers)) memory.  In the centers' stable sort the
    rounded distance falls up to v's insertion point and rises after it, so
    the centers at the least distance are one run around that point; a
    bisection finds the run's two ends and a ``reduceat`` the lowest index
    in it."""
    order = np.argsort(centers, kind="stable")
    s = centers[order]
    p = np.searchsorted(s, vals)  # s[:p] < v <= s[p:]

    def dist(j):
        return np.abs(vals - s[np.minimum(j, len(s) - 1)])

    least = np.minimum(dist(np.maximum(p - 1, 0)), dist(p))
    lo = _bisect(lambda j: dist(j) <= least, np.zeros_like(p), p)
    hi = _bisect(lambda j: dist(j) > least, p, np.full_like(p, len(s)))
    # the runs [lo, hi) are reduceat's even slices; the appended entry makes hi = len(s) a valid start
    return np.minimum.reduceat(np.append(order, 0), np.column_stack([lo, hi]).ravel())[::2]


def _bisect(holds, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Per query, the first j in [lo, hi) at which ``holds(j)``, false then
    true along j, is true; hi where it never is."""
    while (live := lo < hi).any():
        mid = (lo + hi) // 2
        ok = holds(mid)
        lo, hi = np.where(live & ~ok, mid + 1, lo), np.where(live & ok, mid, hi)
    return lo
