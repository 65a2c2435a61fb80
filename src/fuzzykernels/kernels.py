"""The four kernel families on fuzzy sets, plus the base kernels they build on.

Families
--------
cross_product
    Sum over all support pairs of ``k1(point_a, point_b) * k2(deg_a, deg_b)``,
    where ``k1`` compares ground-space elements and ``k2`` compares degrees.
weighted_cross_product
    Same double sum with a non-negative per-point measure weight on each
    factor; with unit weights it reduces to the plain cross product.
intersection
    Cell-aggregated T-norm overlap: for every partition cell contained in
    both supports, sum the pointwise T-norm values and weight by the cell
    measure rho(A).
nonsingleton / nonsingleton_gaussian
    Height of the T-norm intersection (an exact max over the finite ground
    space).  For pairs of Gaussian fuzzy sets under the product T-norm the
    supremum has the closed form
    ``prod_d exp(-(m_d - m'_d)^2 / (2 (sigma_d^2 + sigma'_d^2)))``.
distance_inner / distance_poly / distance_gaussian
    Distance substitution kernels built from a metric between fuzzy sets,
    by default the ratio metric ``sum|X-Y| / sum(X+Y)``.

The per-family functions below evaluate one pair and are the reference.
:func:`evaluate` and :func:`gram.compute_gram` run a batched engine instead:
one array path per family computes a whole (rows x columns) block of kernel
values at once.  Its arithmetic has a fixed order, so repeated evaluations
are bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable, Mapping, Sequence, Union

import numpy as np

from .dataset import _parse_attribute
from .errors import NumericError, ValidationError
from .sets import (
    DiscreteFuzzySet,
    GaussianFuzzySet,
    GroundSpace,
    Partition,
    _check_partition,
    _check_same_ground,
)
from .tnorms import TNorm, apply as tnorm_apply, apply_array as tnorm_array

__all__ = [
    "LinearKernel",
    "RBFKernel",
    "PolynomialKernel",
    "BaseKernel",
    "base_eval",
    "base_kernel_from_config",
    "cross_product_kernel",
    "weighted_cross_product_kernel",
    "intersection_kernel",
    "nonsingleton_kernel",
    "nonsingleton_gaussian_kernel",
    "ratio_distance",
    "distance_inner",
    "distance_polynomial_kernel",
    "distance_gaussian_kernel",
    "FuzzyKernelSpec",
    "evaluate",
    "spec_from_config",
]


# ---------------------------------------------------------------------------
# Base kernels on ground elements and on degrees
# ---------------------------------------------------------------------------

def _number(value, key: str, integral: bool = False) -> float | int:
    """``value`` as a float (an int with ``integral``); a value that is not a
    number, or not integral where asked, raises ValidationError naming ``key``."""
    try:
        x = float(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{key} must be a number, got {value!r}") from exc
    if integral and not x.is_integer():
        raise ValidationError(f"{key} must be an integer, got {value!r}")
    return int(x) if integral else x


@dataclass(frozen=True)
class LinearKernel:
    """k(u, v) = <u, v>"""

    def __call__(self, u: np.ndarray, v: np.ndarray) -> float:
        return float(np.dot(u, v))

    def pairwise(self, U: np.ndarray, V: np.ndarray) -> np.ndarray:
        return U @ V.T


@dataclass(frozen=True)
class RBFKernel:
    """k(u, v) = exp(-gamma ||u - v||^2)"""

    gamma: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "gamma", _number(self.gamma, "gamma"))
        if not self.gamma > 0:
            raise ValueError("rbf gamma must be > 0")

    def __call__(self, u: np.ndarray, v: np.ndarray) -> float:
        diff = np.asarray(u, dtype=float) - np.asarray(v, dtype=float)
        return float(np.exp(-self.gamma * np.dot(diff, diff)))

    def pairwise(self, U: np.ndarray, V: np.ndarray) -> np.ndarray:
        U, V = np.asarray(U, dtype=float), np.asarray(V, dtype=float)
        if U.ndim != 2 or V.ndim != 2 or U.shape[1] != V.shape[1]:
            raise ValueError(f"need 2-D inputs with equal column counts, got {U.shape} and {V.shape}")
        sq = np.zeros((len(U), len(V)))
        # dimensions accumulate in a fixed order, with m x m temporaries only
        for k in range(U.shape[1]):
            sq += np.square(U[:, k, None] - V[None, :, k])
        return np.exp(-self.gamma * sq)


@dataclass(frozen=True)
class PolynomialKernel:
    """k(u, v) = (coef0 + gamma <u, v>)^degree"""

    coef0: float = 0.0
    gamma: float = 1.0
    degree: int = 2

    def __post_init__(self):
        for key, integral in (("coef0", False), ("gamma", False), ("degree", True)):
            object.__setattr__(self, key, _number(getattr(self, key), key, integral))
        if not self.coef0 >= 0:
            raise ValueError("polynomial coef0 must be >= 0")
        if not self.gamma > 0:
            raise ValueError("polynomial gamma must be > 0")
        if self.degree < 1:
            raise ValueError("polynomial degree must be an integer >= 1")

    def __call__(self, u: np.ndarray, v: np.ndarray) -> float:
        return float((self.coef0 + self.gamma * np.dot(u, v)) ** self.degree)

    def pairwise(self, U: np.ndarray, V: np.ndarray) -> np.ndarray:
        return (self.coef0 + self.gamma * (U @ V.T)) ** self.degree


BaseKernel = Union[LinearKernel, RBFKernel, PolynomialKernel]


def base_eval(k: BaseKernel, u, v) -> float:
    """Evaluate a base kernel on two equal-dimension vectors (or scalars)."""
    uv = np.atleast_1d(np.asarray(u, dtype=float))
    vv = np.atleast_1d(np.asarray(v, dtype=float))
    if uv.shape != vv.shape:
        raise ValueError(f"dimension mismatch: {uv.shape} vs {vv.shape}")
    return k(uv, vv)


def base_kernel_from_config(cfg: Mapping) -> BaseKernel:
    """Build a base kernel from ``{"kind": ..., params...}``."""
    if not isinstance(cfg, Mapping) or "kind" not in cfg:
        raise ValidationError(f"base kernel config needs a 'kind' key, got {cfg!r}")
    kind = str(cfg["kind"]).lower()
    try:
        if kind == "linear":
            return LinearKernel()
        if kind == "rbf":
            return RBFKernel(gamma=cfg.get("gamma", 1.0))
        if kind == "polynomial":
            return PolynomialKernel(**{k: cfg[k] for k in ("coef0", "gamma", "degree") if k in cfg})
    except ValueError as exc:
        raise ValidationError(f"bad base kernel config {cfg!r}: {exc}") from exc
    raise ValidationError(f"unknown base kernel kind {cfg['kind']!r}")


# ---------------------------------------------------------------------------
# Cross product kernels
# ---------------------------------------------------------------------------

def _sorted_support(fs: DiscreteFuzzySet) -> tuple[list[int], np.ndarray]:
    idxs = sorted(fs.support)
    degs = np.array([fs.degrees[i] for i in idxs], dtype=float)
    return idxs, degs


def cross_product_kernel(
    x: DiscreteFuzzySet, y: DiscreteFuzzySet, k1: BaseKernel, k2: BaseKernel
) -> float:
    """Sum of ``k1(points) * k2(degrees)`` over all pairs of support elements."""
    _check_same_ground(x, y)
    ix, dx = _sorted_support(x)
    iy, dy = _sorted_support(y)
    if not ix or not iy:
        return 0.0
    pts = x.ground.points
    kmat = k1.pairwise(pts[ix], pts[iy]) * k2.pairwise(dx[:, None], dy[:, None])
    return float(kmat.sum())


def weighted_cross_product_kernel(
    x: DiscreteFuzzySet,
    y: DiscreteFuzzySet,
    k1: BaseKernel,
    k2: BaseKernel,
    weights: Sequence[float] | np.ndarray,
) -> float:
    """Cross product kernel under a per-point measure: each term picks up w(a)w(b).

    Unit weights recover :func:`cross_product_kernel`; probability weights give
    the reading where ground elements are drawn at random.
    """
    _check_same_ground(x, y)
    w = np.asarray(weights, dtype=float)
    if w.shape != (len(x.ground),):
        raise ValueError(
            f"need one weight per ground point ({len(x.ground)}), got shape {w.shape}"
        )
    if not np.isfinite(w).all() or (w < 0).any():
        raise ValueError("weights must be finite and non-negative")
    ix, dx = _sorted_support(x)
    iy, dy = _sorted_support(y)
    if not ix or not iy:
        return 0.0
    pts = x.ground.points
    kmat = k1.pairwise(pts[ix], pts[iy]) * k2.pairwise(dx[:, None], dy[:, None])
    kmat = kmat * np.outer(w[ix], w[iy])
    return float(kmat.sum())


# ---------------------------------------------------------------------------
# Intersection kernel
# ---------------------------------------------------------------------------

def intersection_kernel(
    x: DiscreteFuzzySet, y: DiscreteFuzzySet, t: TNorm, p: Partition
) -> float:
    """Measure-weighted T-norm overlap aggregated over partition cells.

    Only cells entirely contained in *both* supports contribute; a cell only
    partially covered by either support contributes nothing.
    """
    _check_same_ground(x, y)
    _check_partition(x.ground, p)
    sx = x.support
    sy = y.support
    total = 0.0
    for cell, rho in zip(p.cells, p.measures):
        if all(i in sx for i in cell) and all(i in sy for i in cell):
            cell_sum = 0.0
            for i in cell:
                cell_sum += tnorm_apply(t, x.degrees[i], y.degrees[i])
            total += cell_sum * float(rho)
    return total


# ---------------------------------------------------------------------------
# Non-singleton kernels
# ---------------------------------------------------------------------------

def nonsingleton_kernel(x: DiscreteFuzzySet, y: DiscreteFuzzySet, t: TNorm) -> float:
    """Height of the T-norm intersection: max over indices of T(x(i), y(i)).

    T(a, 0) = 0 for every T-norm, so only the common support matters and
    disjoint supports give 0.
    """
    _check_same_ground(x, y)
    best = 0.0
    for idx in sorted(x.support & y.support):
        v = tnorm_apply(t, x.degrees[idx], y.degrees[idx])
        if v > best:
            best = v
    return best


def nonsingleton_gaussian_kernel(x: GaussianFuzzySet, y: GaussianFuzzySet) -> float:
    """Closed form of the product-T-norm supremum for Gaussian memberships.

    Returns ``prod_d exp(-(m_d - m'_d)^2 / (2 (sigma_d^2 + sigma'_d^2)))``,
    which is 1 exactly when the mean vectors coincide.
    """
    if x.dim != y.dim:
        raise ValueError(f"dimension mismatch: {x.dim} vs {y.dim}")
    dm = x.means - y.means
    var = x.widths**2 + y.widths**2
    return float(np.exp(-0.5 * float(np.sum(dm * dm / var))))


# ---------------------------------------------------------------------------
# Distance-based kernels
# ---------------------------------------------------------------------------

Metric = Callable[[DiscreteFuzzySet, DiscreteFuzzySet], float]


def ratio_distance(x: DiscreteFuzzySet, y: DiscreteFuzzySet) -> float:
    """Ratio metric ``sum |X - Y| / sum (X + Y)`` over the union of supports.

    Ranges over [0, 1]: 0 iff the membership functions agree, 1 iff the
    supports are disjoint.  Undefined (raises) when both sets are empty.
    """
    _check_same_ground(x, y)
    union = sorted(x.support | y.support)
    if not union:
        raise ValueError("ratio distance is undefined for two empty fuzzy sets (0/0)")
    num = 0.0
    den = 0.0
    for idx in union:
        a = x.degrees.get(idx, 0.0)
        b = y.degrees.get(idx, 0.0)
        num += abs(a - b)
        den += a + b
    return num / den


def distance_inner(
    x: DiscreteFuzzySet, y: DiscreteFuzzySet, x0: DiscreteFuzzySet, d: Metric = ratio_distance
) -> float:
    """Inner product induced by a metric and a reference point:
    ``(d(x,x0)^2 + d(y,x0)^2 - d(x,y)^2) / 2``."""
    return 0.5 * (d(x, x0) ** 2 + d(y, x0) ** 2 - d(x, y) ** 2)


def distance_polynomial_kernel(
    x: DiscreteFuzzySet,
    y: DiscreteFuzzySet,
    x0: DiscreteFuzzySet,
    d: Metric = ratio_distance,
    coef0: float = 0.0,
    gamma: float = 1.0,
    degree: int = 1,
) -> float:
    """Polynomial kernel over the metric-induced inner product."""
    if coef0 < 0 or not gamma > 0 or int(degree) != degree or degree < 1:
        raise ValueError("need coef0 >= 0, gamma > 0 and integer degree >= 1")
    return float((coef0 + gamma * distance_inner(x, y, x0, d)) ** degree)


def distance_gaussian_kernel(
    x: DiscreteFuzzySet, y: DiscreteFuzzySet, d: Metric = ratio_distance, gamma: float = 1.0
) -> float:
    """Gaussian kernel over a metric: ``exp(-gamma d(x, y)^2)``."""
    if not gamma > 0:
        raise ValueError("gamma must be > 0")
    return math.exp(-gamma * d(x, y) ** 2)


# ---------------------------------------------------------------------------
# Kernel specs: declarative configuration and uniform dispatch
# ---------------------------------------------------------------------------

FuzzyDatum = Union[DiscreteFuzzySet, GaussianFuzzySet]
Record = Union[FuzzyDatum, tuple]


@dataclass(frozen=True)
class FuzzyKernelSpec:
    """Declarative description of a kernel on fuzzy sets.

    Each family takes only its own fields (the family table ``_FAMILIES``);
    any other field set away from its default raises ValidationError.

    * cross_product: ``k1``, ``k2`` (both default to linear);
    * weighted_cross_product: ``k1``, ``k2``, ``weights``;
    * intersection / nonsingleton: ``tnorm``;
    * nonsingleton_gaussian: none;
    * distance_inner: ``metric``, ``reference`` (required: one fuzzy set, or one per attribute);
    * distance_poly: ``metric``, ``reference``, ``coef0``, ``gamma``, ``degree``;
    * distance_gaussian: ``metric``, ``gamma``.
    """

    family: str
    k1: BaseKernel | None = None
    k2: BaseKernel | None = None
    tnorm: TNorm | None = None
    weights: tuple[float, ...] | None = None
    metric: Union[str, Metric] = "ratio"
    reference: tuple[DiscreteFuzzySet, ...] | None = None
    coef0: float = 0.0
    gamma: float = 1.0
    degree: int = 1

    def __post_init__(self):
        _, takes = _family(self.family)
        for f in fields(self)[1:]:  # an untaken field keeps its default, which passes every check below
            value = getattr(self, f.name)  # compared by identity first, so never elementwise
            default = value is f.default or (isinstance(value, (str, int, float)) and value == f.default)
            if f.name not in takes and not default:
                raise ValidationError(f"kernel family {self.family!r} takes no {f.name!r}")
        for key, integral in (("coef0", False), ("gamma", False), ("degree", True)):
            object.__setattr__(self, key, _number(getattr(self, key), key, integral))
        for key in ("k1", "k2"):
            if key in takes and getattr(self, key) is None:
                object.__setattr__(self, key, LinearKernel())
        if "weights" in takes:
            try:
                if isinstance(self.weights, (str, bytes, Mapping)):  # iterable, but not a list of numbers
                    raise TypeError
                weights = tuple(float(w) for w in self.weights)
            except (TypeError, ValueError, OverflowError) as exc:
                raise ValidationError(f"weights must be a list of numbers, got {self.weights!r}") from exc
            if any(not w >= 0 or not math.isfinite(w) for w in weights):
                raise ValidationError("weights must be finite and non-negative")
            object.__setattr__(self, "weights", weights)
        if "tnorm" in takes and self.tnorm is None:
            raise ValidationError(f"{self.family} needs a T-norm")
        if "reference" in takes:
            refs = (self.reference,) if isinstance(self.reference, FuzzyDatum) else self.reference
            if not isinstance(refs, Sequence) or not refs:
                raise ValidationError(f"{self.family} needs one reference fuzzy set or a non-empty list")
            object.__setattr__(self, "reference", tuple(refs))
        if not self.coef0 >= 0 or not self.gamma > 0 or self.degree < 1:
            raise ValidationError(f"{self.family} needs coef0 >= 0, gamma > 0, integer degree >= 1")
        if self.metric != "ratio" and not callable(self.metric):
            raise ValidationError(f"unknown metric {self.metric!r}; only 'ratio' is built in")


def _as_record(datum: Record) -> tuple[FuzzyDatum, ...]:
    if isinstance(datum, (DiscreteFuzzySet, GaussianFuzzySet)):
        return (datum,)
    return tuple(datum)


def evaluate(spec: FuzzyKernelSpec, x: Record, y: Record) -> float:
    """Evaluate the configured kernel on two fuzzy data.

    A datum is either a single fuzzy set (attribute 0, which meets the first of
    per-attribute references) or a tuple of them (a multi-attribute record);
    records combine per-attribute kernel values by product.  This is a 1 x 1
    block of the batched engine that computes Gram matrices.
    """
    return float(_kernel_matrix(spec, [x], [y], ("x",), ("y",))[0, 0])


# ---------------------------------------------------------------------------
# Batched engine: one array path per family
# ---------------------------------------------------------------------------

# elements of one broadcast temporary (2 MiB of float64); a row block takes
# as many rows as fit
_BLOCK_ELEMENTS = 1 << 18


class _Pairs:
    """Index space of one kernel block: ids for messages, and whether the
    block is a Gram matrix on (data, data), of which only the upper triangle
    (row <= column) is needed."""

    def __init__(self, row_ids: Sequence[str], col_ids: Sequence[str], symmetric: bool):
        self.row_ids = row_ids
        self.col_ids = col_ids
        self.symmetric = symmetric
        self.shape = (len(row_ids), len(col_ids))

    def label(self, i: int, j: int) -> str:
        return f"kernel evaluation failed for pair ({self.row_ids[i]}, {self.col_ids[j]})"

    def first(self, bad) -> tuple[int, int] | None:
        """First flagged pair in row-major (upper-triangle) order, or None."""
        if not np.any(bad):
            return None
        bad = np.broadcast_to(bad, self.shape)
        hits = np.argwhere(np.triu(bad) if self.symmetric else bad)
        return (int(hits[0][0]), int(hits[0][1])) if len(hits) else None

    def check(self, bad, message: Union[str, Callable[[int, int], str]]) -> None:
        """Raise ValidationError naming the first pair flagged in ``bad``."""
        hit = self.first(bad)
        if hit is not None:
            text = message(*hit) if callable(message) else message
            raise ValidationError(f"{self.label(*hit)}: {text}")

    def indices(self):
        for i in range(self.shape[0]):
            for j in range(i if self.symmetric else 0, self.shape[1]):
                yield i, j

    def row_blocks(self, per_row: int):
        """(first row, row stop, first column) of row blocks whose temporaries,
        ``per_row`` elements for each row, stay within the element budget."""
        step = max(1, _BLOCK_ELEMENTS // max(per_row, 1))
        for a in range(0, self.shape[0], step):
            yield a, min(a + step, self.shape[0]), a if self.symmetric else 0


def _kernel_matrix(
    spec: FuzzyKernelSpec,
    rows: Sequence[Record],
    cols: Sequence[Record],
    row_ids: Sequence[str],
    col_ids: Sequence[str],
    symmetric: bool = False,
) -> np.ndarray:
    """Kernel values between two lists of records, attribute by attribute.

    With ``symmetric`` (``cols`` is ``rows``) only the upper triangle is
    computed and then mirrored, so the result is exactly symmetric.  Malformed
    input raises ValidationError and a non-finite value NumericError, each
    naming the first offending pair in row-major (upper-triangle) order.
    """
    pairs = _Pairs(row_ids, col_ids, symmetric)
    xs = [_as_record(r) for r in rows]
    ys = xs if symmetric else [_as_record(c) for c in cols]
    nx = np.array([len(x) for x in xs])
    ny = nx if symmetric else np.array([len(y) for y in ys])
    pairs.check(
        nx[:, None] != ny[None, :],
        lambda i, j: f"records have different arity: {nx[i]} vs {ny[j]}",
    )
    if nx[0] == 0:
        pairs.check(True, "empty record")
    refs = spec.reference  # a bare fuzzy set is a lone attribute 0, not a record
    if refs is not None and len(refs) not in (1, nx[0]) and not isinstance(rows[0], FuzzyDatum):
        pairs.check(True, f"reference has {len(refs)} attributes but records have {nx[0]}")
    block = _FAMILIES[spec.family][0]
    values = np.ones(pairs.shape)
    with np.errstate(all="ignore"):  # non-finite values are reported below, by pair
        for slot in range(nx[0]):
            xa = [x[slot] for x in xs]
            values *= block(spec, xa, xa if symmetric else [y[slot] for y in ys], slot, pairs)
    hit = pairs.first(~np.isfinite(values))
    if hit is not None:
        i, j = hit
        raise NumericError(
            f"kernel value {values[i, j]} is not finite for pair ({row_ids[i]}, {col_ids[j]})"
        )
    if symmetric:
        values = np.triu(values) + np.triu(values, 1).T
    return values


def _check_kind(spec: FuzzyKernelSpec, xs: list, ys: list, pairs: _Pairs, kind: type) -> None:
    bx = np.array([not isinstance(a, kind) for a in xs])
    by = bx if pairs.symmetric else np.array([not isinstance(a, kind) for a in ys])
    pairs.check(
        bx[:, None] | by[None, :],
        lambda i, j: f"kernel family {spec.family!r} needs {kind.__name__} attributes, "
        f"got {type(xs[i] if bx[i] else ys[j]).__name__}",
    )


def _discrete(
    spec: FuzzyKernelSpec, xs: list, ys: list, pairs: _Pairs, ref: DiscreteFuzzySet | None = None
) -> tuple[GroundSpace, np.ndarray, np.ndarray, np.ndarray]:
    """Check that every pair of attributes (and ``ref``) are discrete fuzzy
    sets on one ground space.  Returns that ground space, the active ground
    columns and the rows' and columns' degree matrices over them."""
    _check_kind(spec, xs, ys, pairs, DiscreteFuzzySet)
    if ref is not None and not isinstance(ref, DiscreteFuzzySet):
        pairs.check(True, f"the reference must be a DiscreteFuzzySet, got {type(ref).__name__}")
    # flag each set (and ref) off the first row's ground: the first flagged pair
    # in pair order is the first pair that comparing every pair would find
    ground = xs[0].ground
    gx = np.array([x.ground != ground for x in xs])
    gy = gx if pairs.symmetric else np.array([y.ground != ground for y in ys], dtype=bool)
    bad = gx[:, None] | gy[None, :] | (ref is not None and ref.ground != ground)
    pairs.check(bad, "fuzzy sets live on different ground spaces")
    cols = _active(xs, ys, [] if ref is None else [ref])
    mx = _memberships(xs, cols)
    return ground, cols, mx, mx if pairs.symmetric else _memberships(ys, cols)


def _active(*groups: Sequence[DiscreteFuzzySet]) -> np.ndarray:
    """Sorted ground indices that lie in the support of some set of ``groups``.

    Every array path works on these columns only, so sparse data and a 1 x 1
    evaluation never pay for the whole ground space.
    """
    return np.unique(np.array([i for sets in groups for fs in sets for i in fs.degrees], dtype=np.intp))


def _memberships(sets: Sequence[DiscreteFuzzySet], cols: np.ndarray) -> np.ndarray:
    """Degree matrix of ``sets`` over the ground indices ``cols`` (sorted, and
    covering every support); zero outside the supports."""
    out = np.zeros((len(sets), len(cols)))
    for i, fs in enumerate(sets):
        if fs.degrees:
            out[i, np.searchsorted(cols, list(fs.degrees))] = list(fs.degrees.values())
    return out


def _segment_sum(a: np.ndarray, sizes: np.ndarray, axis: int) -> np.ndarray:
    """Sums of a 2-D array over consecutive runs of ``sizes`` entries along
    ``axis``; an empty run sums to 0."""
    shape = list(a.shape)
    shape[axis] = len(sizes)
    out = np.zeros(shape)
    full = sizes > 0
    if full.any():
        sums = np.add.reduceat(a, (np.cumsum(sizes) - sizes)[full], axis=axis)
        if axis == 0:
            out[full] = sums
        else:
            out[:, full] = sums
    return out


def _cross_block(spec: FuzzyKernelSpec, xs: list, ys: list, slot: int, pairs: _Pairs) -> np.ndarray:
    ground, cols, mx, my = _discrete(spec, xs, ys, pairs)
    pts = ground.points[cols]
    k1 = spec.k1.pairwise(pts, pts)
    if spec.weights is not None:
        w = np.asarray(spec.weights)
        if w.shape != (len(ground),):
            pairs.check(True, f"got {w.size} weights for {len(ground)} ground points")
        k1 = k1 * np.outer(w[cols], w[cols])
    # a linear k2 vanishes off the supports, so the double sum is the bilinear
    # form M K1 M^T; an overflowing k1 entry would turn 0 * inf into NaN for
    # pairs that never meet it, so that case sums over the supports instead
    if isinstance(spec.k2, LinearKernel) and np.isfinite(k1).all():
        return mx @ k1 @ my.T
    return _support_sum(spec.k2, k1, mx, my, pairs)


def _support_sum(
    k2: BaseKernel, k1: np.ndarray, mx: np.ndarray, my: np.ndarray, pairs: _Pairs
) -> np.ndarray:
    """Sum of ``k1[a, b] k2(x_a, y_b)`` over a in supp x, b in supp y, on the
    supports packed row after row."""
    rx, ax = np.nonzero(mx)
    ry, ay = np.nonzero(my)
    dx, dy = mx[rx, ax], my[ry, ay]
    nx = np.bincount(rx, minlength=len(mx))
    ny = np.bincount(ry, minlength=len(my))
    ox = np.concatenate(([0], np.cumsum(nx)))
    oy = np.concatenate(([0], np.cumsum(ny)))
    out = np.zeros(pairs.shape)
    for a, b, c0 in pairs.row_blocks(int(nx.max(initial=0)) * len(dy)):
        sx = slice(ox[a], ox[b])
        sy = slice(oy[c0], oy[-1])
        terms = k1[np.ix_(ax[sx], ay[sy])] * k2.pairwise(dx[sx, None], dy[sy, None])
        out[a:b, c0:] = _segment_sum(_segment_sum(terms, nx[a:b], 0), ny[c0:], 1)
    return out


def _tnorm_block(
    t: TNorm, a: np.ndarray, b: np.ndarray, pairs: _Pairs, weights: np.ndarray | None = None
) -> np.ndarray:
    """Per pair, the ``weights``-weighted sum over ground points of
    ``T(a_ip, b_jp)``, or with no weights its max (the intersection height)."""
    out = np.zeros(pairs.shape)
    for r0, r1, c0 in pairs.row_blocks(a.shape[1] * len(b)):
        rows = a[r0:r1]
        # T(0, y) = 0: points outside every support of the row block add nothing
        used = np.flatnonzero(rows.any(axis=0))
        tv = tnorm_array(t, rows[:, None, used], b[None, c0:, used])
        out[r0:r1, c0:] = tv.max(axis=-1, initial=0.0) if weights is None else tv @ weights[used]
    return out


def _intersection_block(spec: FuzzyKernelSpec, xs: list, ys: list, slot: int, pairs: _Pairs) -> np.ndarray:
    ground, cols, mx, my = _discrete(spec, xs, ys, pairs)
    part = ground.partition
    if part is None:
        pairs.check(True, "intersection kernel needs a partition on the ground space")
    cells, cell_of = np.unique(part.cell_index[cols], return_inverse=True)
    size = np.bincount(part.cell_index)[cells]

    def whole_cells(m: np.ndarray) -> np.ndarray:
        # degrees on the cells that lie wholly inside the row's support; the
        # zeros elsewhere are exact, and T(a, 0) = 0 for every T-norm
        rows, at = np.nonzero(m)
        count = np.zeros((len(m), len(cells)), dtype=np.intp)
        np.add.at(count, (rows, cell_of[at]), 1)
        return np.where((count == size)[:, cell_of], m, 0.0)

    a = whole_cells(mx)
    b = a if pairs.symmetric else whole_cells(my)
    return _tnorm_block(spec.tnorm, a, b, pairs, part.measures[cells][cell_of])


def _nonsingleton_block(spec: FuzzyKernelSpec, xs: list, ys: list, slot: int, pairs: _Pairs) -> np.ndarray:
    _, _, mx, my = _discrete(spec, xs, ys, pairs)
    return _tnorm_block(spec.tnorm, mx, my, pairs)


def _gaussian_block(spec: FuzzyKernelSpec, xs: list, ys: list, slot: int, pairs: _Pairs) -> np.ndarray:
    _check_kind(spec, xs, ys, pairs, GaussianFuzzySet)
    dx = np.array([x.dim for x in xs])
    dy = dx if pairs.symmetric else np.array([y.dim for y in ys])
    pairs.check(dx[:, None] != dy[None, :], lambda i, j: f"dimension mismatch: {dx[i]} vs {dy[j]}")
    mx = np.array([x.means for x in xs])
    vx = np.array([x.widths for x in xs]) ** 2
    if pairs.symmetric:
        my, vy = mx, vx
    else:
        my, vy = np.array([y.means for y in ys]), np.array([y.widths for y in ys]) ** 2
    out = np.zeros(pairs.shape)
    for a, b, c0 in pairs.row_blocks(len(ys)):
        s = np.zeros((b - a, len(ys) - c0))
        # dimensions accumulate in a fixed order, so a pair's value does not
        # depend on where it sits in the block
        for k in range(mx.shape[1]):
            dm = mx[a:b, k, None] - my[None, c0:, k]
            s += dm * dm / (vx[a:b, k, None] + vy[None, c0:, k])
        out[a:b, c0:] = np.exp(-0.5 * s)
    return out


def _distance_block(spec: FuzzyKernelSpec, xs: list, ys: list, slot: int, pairs: _Pairs) -> np.ndarray:
    refs = spec.reference
    ref = None if refs is None else refs[0] if len(refs) == 1 else refs[slot]
    if isinstance(spec.metric, str):
        d, dx, dy = _ratio_distances(spec, xs, ys, ref, pairs)
    else:
        _check_kind(spec, xs, ys, pairs, DiscreteFuzzySet)
        d, dx, dy = _metric_distances(spec.metric, xs, ys, ref, pairs)
    if ref is None:  # distance_gaussian
        return np.exp(-spec.gamma * d**2)
    # distance_inner keeps coef0 = 0, gamma = 1 and degree = 1, which leave every bit of inner as it is
    inner = 0.5 * (dx[:, None] ** 2 + dy[None, :] ** 2 - d**2)
    return (spec.coef0 + spec.gamma * inner) ** spec.degree


def _ratio_distances(
    spec: FuzzyKernelSpec, xs: list, ys: list, ref: DiscreteFuzzySet | None, pairs: _Pairs
):
    """Ratio metric ``|X - Y|_1 / (|X|_1 + |Y|_1)`` between rows and columns,
    and from each row and column to ``ref``."""
    _, cols, mx, my = _discrete(spec, xs, ys, pairs, ref)
    sx, sy = mx.sum(axis=1), my.sum(axis=1)
    bad = (sx == 0)[:, None] & (sy == 0)[None, :]
    if ref is not None:
        m0 = _memberships([ref], cols)
        s0 = m0.sum()
        if s0 == 0:
            bad |= (sx == 0)[:, None] | (sy == 0)[None, :]
    pairs.check(bad, "ratio distance is undefined for two empty fuzzy sets (0/0)")
    d = np.zeros(pairs.shape)
    for a, b, c0 in pairs.row_blocks(len(my) * len(cols)):
        d[a:b, c0:] = np.abs(mx[a:b, None, :] - my[None, c0:, :]).sum(axis=-1)
    d /= sx[:, None] + sy[None, :]
    if ref is None:
        return d, None, None
    dx = np.abs(mx - m0).sum(axis=1) / (sx + s0)
    dy = dx if pairs.symmetric else np.abs(my - m0).sum(axis=1) / (sy + s0)
    return d, dx, dy


def _metric_distances(metric: Metric, xs: list, ys: list, ref, pairs: _Pairs):
    """A user metric is opaque Python: one call per pair, and one per record
    to ``ref``, made in pair order so that a failure names its pair."""
    d = np.zeros(pairs.shape)
    dx = np.zeros(len(xs))
    dy = dx if pairs.symmetric else np.zeros(len(ys))
    seen_x = np.zeros(len(xs), dtype=bool)
    seen_y = seen_x if pairs.symmetric else np.zeros(len(ys), dtype=bool)
    for i, j in pairs.indices():
        try:
            if ref is not None and not seen_x[i]:
                dx[i] = metric(xs[i], ref)
                seen_x[i] = True
            if ref is not None and not seen_y[j]:
                dy[j] = metric(ys[j], ref)
                seen_y[j] = True
            d[i, j] = metric(xs[i], ys[j])
        except Exception as exc:
            raise ValidationError(f"{pairs.label(i, j)}: {exc}") from exc
    return d, dx, dy


# the one place that knows what a family is: its batch function and the spec fields it takes
_FAMILIES = {
    "cross_product": (_cross_block, ("k1", "k2")),
    "weighted_cross_product": (_cross_block, ("k1", "k2", "weights")),
    "intersection": (_intersection_block, ("tnorm",)),
    "nonsingleton": (_nonsingleton_block, ("tnorm",)),
    "nonsingleton_gaussian": (_gaussian_block, ()),
    "distance_inner": (_distance_block, ("metric", "reference")),
    "distance_poly": (_distance_block, ("metric", "reference", "coef0", "gamma", "degree")),
    "distance_gaussian": (_distance_block, ("metric", "gamma")),
}


def _family(name: str) -> tuple[Callable, tuple[str, ...]]:
    if name not in _FAMILIES:
        raise ValidationError(f"unknown kernel family {name!r}; expected one of {', '.join(_FAMILIES)}")
    return _FAMILIES[name]


def spec_from_config(cfg: Mapping, ground: GroundSpace | None = None) -> FuzzyKernelSpec:
    """Build a :class:`FuzzyKernelSpec` from a plain config mapping.

    ``ground`` is needed to resolve discrete reference fuzzy sets for the
    distance families.  A key that the family does not take raises ValidationError.
    """
    if not isinstance(cfg, Mapping) or "family" not in cfg:
        raise ValidationError("kernel config needs a 'family' key")
    family = str(cfg["family"]).lower()
    for key in cfg:
        if key != "family" and key not in _family(family)[1]:
            raise ValidationError(f"kernel family {family!r} takes no {key!r}")
    # the spec converts and checks the values of the other keys itself
    kwargs = dict(cfg, family=family)
    for key in ("k1", "k2"):
        if key in cfg:
            kwargs[key] = base_kernel_from_config(cfg[key])
    if "tnorm" in cfg:
        kwargs["tnorm"] = TNorm.from_name(cfg["tnorm"])
    if "reference" in cfg:
        refs = [cfg["reference"]] if isinstance(cfg["reference"], Mapping) else cfg["reference"]
        if not isinstance(refs, (list, tuple)):
            raise ValidationError(f"reference must be an attribute object or a list of them, got {refs!r}")
        kwargs["reference"] = [_parse_attribute(r, ground, f"reference[{k}]") for k, r in enumerate(refs)]
    return FuzzyKernelSpec(**kwargs)
