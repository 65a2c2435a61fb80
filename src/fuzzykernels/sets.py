"""Fuzzy sets over a finite ground space.

A fuzzy set is identified with its membership function mapping elements to
degrees in [0, 1].  Two representations are provided:

* :class:`DiscreteFuzzySet` stores positive degrees sparsely over the indexed
  points of a :class:`GroundSpace`; anything not stored has degree exactly 0,
  so the support is simply the stored key set.
* :class:`GaussianFuzzySet` is parametric: a product of per-dimension Gaussian
  bumps ``exp(-(x_d - m_d)^2 / (2 sigma_d^2))``.

All types are immutable after construction and every function here is pure.
"""

from __future__ import annotations

import operator
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "GroundSpace",
    "Partition",
    "DiscreteFuzzySet",
    "GaussianFuzzySet",
    "membership",
    "gaussian_membership",
    "fuzzify_gaussian",
    "fuzzify_from_histogram",
    "support_cells",
    "support_measure",
]


def _index(value) -> int:
    """A ground-space index as an int; a bool, or a value of a type that is not
    an integer (1.5, 1.0, "1"), raises ValueError instead of being truncated."""
    if type(value) is int:  # the parsed-dataset case, once per stored degree: keep it cheap
        return value
    if isinstance(value, bool):
        raise ValueError(f"index {value!r} is not an integer")
    try:
        return operator.index(value)
    except TypeError as exc:
        raise ValueError(f"index {value!r} is not an integer") from exc


class Partition:
    """Pairwise-disjoint cells of ground-space indices, one measure per cell.

    The cells must tile the index range 0..n-1 exactly (no gaps, no overlap).
    When ``measures`` is omitted the counting measure ``rho(A) = |A|`` is used.
    """

    def __init__(self, cells: Sequence[Iterable[int]], measures: Sequence[float] | None = None):
        norm_cells = []
        for k, cell in enumerate(cells):
            idxs = tuple(sorted(_index(i) for i in cell))
            if not idxs:
                raise ValueError(f"cell {k} is empty")
            norm_cells.append(idxs)
        self.cells: tuple[tuple[int, ...], ...] = tuple(norm_cells)

        flat = [i for cell in self.cells for i in cell]
        if len(flat) != len(set(flat)):
            raise ValueError("cells are not pairwise disjoint")
        n = len(flat)
        if set(flat) != set(range(n)):
            raise ValueError("cells must cover the index set 0..n-1 without gaps")
        self.size = n
        cell_index = np.empty(n, dtype=np.intp)
        for k, cell in enumerate(self.cells):
            cell_index[list(cell)] = k
        cell_index.flags.writeable = False
        self.cell_index: np.ndarray = cell_index  # cell number of each ground index

        if measures is None:
            meas = np.array([float(len(cell)) for cell in self.cells])
        else:
            meas = np.asarray(measures, dtype=float)
            if meas.shape != (len(self.cells),):
                raise ValueError("need exactly one measure per cell")
            if not np.isfinite(meas).all() or (meas < 0).any():
                raise ValueError("cell measures must be finite and non-negative")
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
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2 or pts.shape[0] == 0 or pts.shape[1] == 0:
            raise ValueError("points must be a non-empty list of equal-dimension vectors")
        if not np.isfinite(pts).all():
            raise ValueError("points must be finite")
        pts.flags.writeable = False
        self.points: np.ndarray = pts
        if partition is not None and partition.size != len(pts):
            raise ValueError(
                f"partition covers {partition.size} indices but the ground space has {len(pts)} points"
            )
        self.partition = partition

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def __len__(self) -> int:
        return self.points.shape[0]

    def point(self, idx: int) -> np.ndarray:
        return self.points[idx]

    def __eq__(self, other) -> bool:
        if other is self:
            return True
        if not isinstance(other, GroundSpace):
            return NotImplemented
        return np.array_equal(self.points, other.points) and self.partition == other.partition

    def __repr__(self) -> str:
        return f"GroundSpace({len(self)} points, dim={self.dim})"


def _check_same_ground(x: "DiscreteFuzzySet", y: "DiscreteFuzzySet") -> None:
    if x.ground != y.ground:
        raise ValueError("fuzzy sets live on different ground spaces")


def _check_partition(ground: GroundSpace, partition: Partition) -> None:
    """Reject a partition that is not the ground space's own (or, when the
    ground carries none, one that does not cover its indices)."""
    own = ground.partition
    if partition.size != len(ground) or (own is not None and partition != own):
        raise ValueError("partition does not belong to the fuzzy sets' ground space")


class DiscreteFuzzySet:
    """Sparse membership function over a ground space.

    ``degrees`` maps point index -> degree in (0, 1].  Degrees equal to 0 are
    never stored, so ``support`` is exactly the stored key set.
    """

    def __init__(self, ground: GroundSpace, degrees: Mapping[int, float]):
        self.ground = ground
        n = len(ground)
        clean: dict[int, float] = {}
        for idx, deg in degrees.items():
            i = _index(idx)
            if not 0 <= i < n:
                raise ValueError(f"index {i} outside ground space of {n} points")
            d = float(deg)
            if not 0.0 < d <= 1.0 or not np.isfinite(d):
                raise ValueError(f"degree {d!r} at index {i} outside (0, 1]")
            clean[i] = d
        self._degrees = clean
        self.degrees: Mapping[int, float] = MappingProxyType(clean)

    @property
    def support(self) -> frozenset[int]:
        return frozenset(self._degrees)

    @property
    def height(self) -> float:
        """Maximum membership degree (0 for the empty fuzzy set)."""
        return max(self._degrees.values(), default=0.0)

    def __call__(self, idx: int) -> float:
        return membership(self, idx)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DiscreteFuzzySet):
            return NotImplemented
        return self.ground == other.ground and self._degrees == other._degrees

    def __repr__(self) -> str:
        return f"DiscreteFuzzySet({len(self._degrees)} of {len(self.ground)} points)"


class GaussianFuzzySet:
    """Parametric fuzzy set ``x -> prod_d exp(-(x_d - m_d)^2 / (2 sigma_d^2))``."""

    def __init__(self, means: Sequence[float] | np.ndarray, widths: Sequence[float] | np.ndarray):
        m = np.atleast_1d(np.asarray(means, dtype=float))
        s = np.atleast_1d(np.asarray(widths, dtype=float))
        if m.ndim != 1 or m.shape != s.shape or m.size == 0:
            raise ValueError("means and widths must be equal-length non-empty vectors")
        if not np.isfinite(m).all() or not np.isfinite(s).all():
            raise ValueError("means and widths must be finite")
        if (s <= 0).any():
            raise ValueError("every width must be strictly positive")
        m.flags.writeable = False
        s.flags.writeable = False
        self.means: np.ndarray = m
        self.widths: np.ndarray = s

    @property
    def dim(self) -> int:
        return self.means.size

    def __call__(self, x) -> float:
        return gaussian_membership(self, x)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GaussianFuzzySet):
            return NotImplemented
        return np.array_equal(self.means, other.means) and np.array_equal(self.widths, other.widths)

    def __repr__(self) -> str:
        return f"GaussianFuzzySet(dim={self.dim})"


def membership(fs: DiscreteFuzzySet, idx: int) -> float:
    """Degree of membership of the point at ``idx``; 0 outside the support."""
    i = _index(idx)
    if not 0 <= i < len(fs.ground):
        raise ValueError(f"index {i} outside ground space of {len(fs.ground)} points")
    return fs._degrees.get(i, 0.0)


def gaussian_membership(fs: GaussianFuzzySet, x) -> float:
    """Evaluate the Gaussian membership product at a point of matching dimension."""
    v = np.atleast_1d(np.asarray(x, dtype=float))
    if v.shape != fs.means.shape:
        raise ValueError(f"point has dimension {v.size}, fuzzy set has {fs.dim}")
    z = (v - fs.means) / fs.widths
    return float(np.exp(-0.5 * np.dot(z, z)))


def fuzzify_gaussian(value, widths) -> GaussianFuzzySet:
    """Epistemic fuzzification of a crisp vector: peak at ``value``, given widths."""
    return GaussianFuzzySet(means=value, widths=widths)


def fuzzify_from_histogram(samples: Sequence[float], ground: GroundSpace) -> DiscreteFuzzySet:
    """Data-driven fuzzification of scalar samples over a grid of bin centers.

    Each sample is assigned to its nearest bin center (ties go to the lower
    index); counts are divided by the maximum count, so the tallest bin has
    degree exactly 1 and empty bins stay out of the support.
    """
    vals = np.asarray(samples, dtype=float)
    if vals.size == 0:
        raise ValueError("cannot fuzzify an empty sample list")
    if not np.isfinite(vals).all():
        raise ValueError("samples must be finite")
    if ground.dim != 1:
        raise ValueError("histogram fuzzification needs a 1-dimensional ground space")
    centers = ground.points[:, 0]
    # argmin returns the first (lowest-index) bin on exact distance ties
    nearest = np.abs(vals[:, None] - centers[None, :]).argmin(axis=1)
    counts = np.bincount(nearest, minlength=len(ground))
    peak = counts.max()
    degrees = {int(i): counts[i] / peak for i in np.nonzero(counts)[0]}
    return DiscreteFuzzySet(ground, degrees)


def support_cells(fs: DiscreteFuzzySet, partition: Partition) -> set[int]:
    """Indices of the partition cells entirely contained in ``supp(fs)``."""
    _check_partition(fs.ground, partition)
    supp = fs.support
    return {k for k, cell in enumerate(partition.cells) if all(i in supp for i in cell)}


def support_measure(fs: DiscreteFuzzySet, partition: Partition) -> float:
    """Measure of the support: sum of rho(A) over cells contained in it."""
    covered = support_cells(fs, partition)
    return float(sum(partition.measures[k] for k in sorted(covered)))
