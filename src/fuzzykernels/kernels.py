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
    Distance substitution kernels built from a distance between fuzzy sets:
    in a spec the ratio distance ``sum|X-Y| / sum(X+Y)``, which is no metric
    (it breaks the triangle inequality); the scalar references take any ``d``.

Which Grams are PSD (positive semidefinite), for base kernels in ``_RANGES``.  A record's kernel, the
product of its attributes', is PSD where each is (Schur's product theorem).

    (weighted_)cross_product       PSD: <sum_a w(a) phi1(a) (x) phi2(X(a)), the same for Y>; w = 1 unweighted
    intersection, min or product   PSD: a sum of rho(A) >= 0 times products of PSD kernels (min(s, t), st)
    intersection, other T-norms    not PSD in general: T(1/2, 1/2) = 0 < T(1/2, 1) = 1/2 (lukasiewicz, drastic)
    nonsingleton, every T-norm     not PSD in general: a max, not a sum; {0, 1}, {0}, {1} give 1 - sqrt(2)
    nonsingleton_gaussian          not PSD in general; PSD if a slot shares one width vector (RBF of the means)
    distance_inner, distance_poly  not PSD in general: PSD if d is Hilbertian, and the ratio distance is not
    distance_gaussian              not PSD in general: PSD for every gamma iff d is Hilbertian (Schoenberg)

The per-family functions below evaluate one pair and are the reference.
:func:`evaluate` and :func:`gram.compute_gram` run a batched engine instead.
Its one layout is a list of items split at a first column into rows and
columns, where a pair is computed when its column item is not before its row
item: a Gram is first column 0, its upper triangle mirrored, and ``evaluate``
the one pair of a two-item block.  A family prepares each attribute slot once
and returns ``(cost, band)``; the engine cuts the rows into bands within a
budget and multiplies each band into one n x n output array.  Intersection
and non-singleton join the support entries that share a ground point, so
their work follows sum |supp x & supp y|; the cross product takes the gemm
``M K1 M^T``, in one band, for a linear ``k2`` and a finite ``K1``, and a sum
over support pairs otherwise; the distance families take ``|X - Y|_1`` by
broadcasting rows against columns over the active ground points.  The
arithmetic has a fixed order, so repeated evaluations are bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable, Mapping, Sequence, Union

import numpy as np

from .dataset import _parse_attribute
from .errors import NumericError, ValidationError, _instance, _number, _numbers
from .sets import DiscreteFuzzySet, GaussianFuzzySet, GroundSpace, Partition
from .tnorms import TNorm, apply_array as tnorm_array

__all__ = [
    "LinearKernel",
    "RBFKernel",
    "PolynomialKernel",
    "BaseKernel",
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

# where each scalar parameter keeps the kernels positive definite: _number's (least, closed, integral)
_RANGES = {"coef0": (0, True, False), "gamma": (0, False, False), "degree": (1, True, True)}


def _check_params(obj) -> None:
    """Convert and check each scalar parameter field of a frozen dataclass."""
    for f in fields(obj):
        if f.name in _RANGES:
            object.__setattr__(obj, f.name, _number(getattr(obj, f.name), f.name, *_RANGES[f.name]))


def _rows(U, V) -> tuple[np.ndarray, np.ndarray]:
    """Two 2-D arrays of points (one per row) with equal column counts, under :func:`errors._numbers`' rule."""
    U, V = _numbers(U, "U"), _numbers(V, "V")
    if U.ndim != 2 or V.ndim != 2 or U.shape[1] != V.shape[1]:
        raise ValidationError(f"need 2-D inputs U and V with equal column counts, got {U.shape} and {V.shape}")
    return U, V


@dataclass(frozen=True)
class LinearKernel:
    """k(u, v) = <u, v>"""

    def pairwise(self, U: np.ndarray, V: np.ndarray) -> np.ndarray:
        U, V = _rows(U, V)
        return U @ V.T


@dataclass(frozen=True)
class RBFKernel:
    """k(u, v) = exp(-gamma ||u - v||^2)"""

    gamma: float = 1.0

    __post_init__ = _check_params

    def pairwise(self, U: np.ndarray, V: np.ndarray) -> np.ndarray:
        U, V = _rows(U, V)
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

    __post_init__ = _check_params

    def pairwise(self, U: np.ndarray, V: np.ndarray) -> np.ndarray:
        U, V = _rows(U, V)
        return (self.coef0 + self.gamma * (U @ V.T)) ** self.degree


BaseKernel = Union[LinearKernel, RBFKernel, PolynomialKernel]
_BASE_KERNELS = {"linear": LinearKernel, "rbf": RBFKernel, "polynomial": PolynomialKernel}


def base_kernel_from_config(cfg: Mapping) -> BaseKernel:
    """Build a base kernel from ``{"kind": ..., params...}``."""
    if not isinstance(cfg, Mapping) or "kind" not in cfg:
        raise ValidationError(f"base kernel config (cfg) needs a 'kind' key, got {cfg!r}")
    name = str(cfg["kind"]).lower()
    if name not in _BASE_KERNELS:
        raise ValidationError(f"unknown base kernel kind {cfg['kind']!r}")
    takes = {f.name for f in fields(_BASE_KERNELS[name])}
    for key in cfg:
        if key != "kind" and key not in takes:
            raise ValidationError(f"base kernel {name!r} takes no {key!r}")
    return _BASE_KERNELS[name](**{key: value for key, value in cfg.items() if key != "kind"})


# ---------------------------------------------------------------------------
# Cross product kernels
# ---------------------------------------------------------------------------

def _check_same_ground(x: DiscreteFuzzySet, y: DiscreteFuzzySet) -> None:
    """Two discrete sets on one ground space; anything else raises ValidationError, naming ``x`` or ``y``
    where it is no DiscreteFuzzySet."""
    _instance(x, DiscreteFuzzySet, "x")
    _instance(y, DiscreteFuzzySet, "y")
    if x.ground != y.ground:
        raise ValidationError("fuzzy sets live on different ground spaces")


def _sorted_support(fs: DiscreteFuzzySet) -> tuple[list[int], np.ndarray]:
    idxs = sorted(fs.support)
    degs = np.array([fs.degrees[i] for i in idxs], dtype=float)
    return idxs, degs


def cross_product_kernel(
    x: DiscreteFuzzySet, y: DiscreteFuzzySet, k1: BaseKernel, k2: BaseKernel
) -> float:
    """Sum of ``k1(points) * k2(degrees)`` over all pairs of support elements:
    the weighted cross product under unit weights, which multiply exactly."""
    _check_same_ground(x, y)
    return weighted_cross_product_kernel(x, y, k1, k2, np.ones(len(x.ground)))


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
    for name, k in (("k1", k1), ("k2", k2)):  # a reference takes any object with a pairwise method
        if not callable(getattr(k, "pairwise", None)):
            raise ValidationError(f"{name} must be a base kernel, with a pairwise method, got {k!r}")
    w = _numbers(weights, "weights", 0, closed=True)
    if w.shape != (len(x.ground),):
        raise ValidationError(f"weights must give one weight per ground point ({len(x.ground)}), got shape {w.shape}")
    ix, dx = _sorted_support(x)
    iy, dy = _sorted_support(y)
    pts = x.ground.points
    kmat = k1.pairwise(pts[ix], pts[iy]) * k2.pairwise(dx[:, None], dy[:, None])
    kmat = kmat * np.outer(w[ix], w[iy])
    return float(kmat.sum())


# ---------------------------------------------------------------------------
# Intersection kernel
# ---------------------------------------------------------------------------

def _intersect(x: DiscreteFuzzySet, y: DiscreteFuzzySet, t: TNorm) -> dict[int, float]:
    """The T-norm intersection, ``{i: T(x(i), y(i))}`` on the sorted common support with zeros kept, by one call."""
    _check_same_ground(x, y)
    common = sorted(x.support & y.support)
    values = tnorm_array(t, [x.degrees[i] for i in common], [y.degrees[i] for i in common])
    return dict(zip(common, values.tolist()))


def intersection_kernel(
    x: DiscreteFuzzySet, y: DiscreteFuzzySet, t: TNorm, p: Partition
) -> float:
    """Measure-weighted T-norm overlap aggregated over partition cells: the
    intersection's degrees summed over each cell, times its measure.

    Only cells entirely contained in *both* supports contribute; a cell only
    partially covered by either support contributes nothing.  A partition not
    the ground's own, or of another size, raises ValidationError.
    """
    _instance(p, Partition, "p")
    z, own, total = _intersect(x, y, t), x.ground.partition, 0.0
    if p.size != len(x.ground) or (own is not None and p != own):
        raise ValidationError("partition does not belong to the fuzzy sets' ground space")
    for k, cell in enumerate(p.cells):
        if all(i in z for i in cell):  # the cell lies in both supports
            cell_sum = 0.0
            for i in cell:  # added in turn: sum() compensates since Python 3.12
                cell_sum += z[i]
            total += cell_sum * float(p.measures[k])
    return total


# ---------------------------------------------------------------------------
# Non-singleton kernels
# ---------------------------------------------------------------------------

def nonsingleton_kernel(x: DiscreteFuzzySet, y: DiscreteFuzzySet, t: TNorm) -> float:
    """Height of the T-norm intersection: max over indices of T(x(i), y(i)).

    T(a, 0) = 0 for every T-norm, so only the common support matters and
    disjoint supports give 0.
    """
    return max(_intersect(x, y, t).values(), default=0.0)


def nonsingleton_gaussian_kernel(x: GaussianFuzzySet, y: GaussianFuzzySet) -> float:
    """Closed form of the product-T-norm supremum for Gaussian memberships.

    Returns ``prod_d exp(-(m_d - m'_d)^2 / (2 (sigma_d^2 + sigma'_d^2)))``,
    which is 1 exactly when the mean vectors coincide.  It is taken as
    ``exp(-z.z / 2)`` with ``z = (m - m') / hypot(sigma, sigma')`` on halved
    operands (see _halved), so every finite input gives a finite value.
    """
    _instance(x, GaussianFuzzySet, "x")
    _instance(y, GaussianFuzzySet, "y")
    if x.dim != y.dim:
        raise ValidationError(f"dimension mismatch: {x.dim} vs {y.dim}")
    m, w = _halved([x, y])
    with np.errstate(over="ignore"):  # a z too large to square gives 0
        return float(np.exp(-0.5 * float(np.sum(np.square((m[0] - m[1]) / np.hypot(*w))))))


def _halved(sets: list[GaussianFuzzySet]) -> tuple[np.ndarray, np.ndarray]:
    """The sets' means and widths, halved so that no ``m - m'`` or ``hypot(w,
    w')`` overflows: exact unless a half is subnormal, and no width halves to 0."""
    m, w = np.array([x.means for x in sets]), np.array([x.widths for x in sets])
    return m / 2, w - w / 2


# ---------------------------------------------------------------------------
# Distance-based kernels
# ---------------------------------------------------------------------------

Metric = Callable[[DiscreteFuzzySet, DiscreteFuzzySet], float]


def ratio_distance(x: DiscreteFuzzySet, y: DiscreteFuzzySet) -> float:
    """Ratio distance ``sum |X - Y| / sum (X + Y)`` over the union of supports.

    Ranges over [0, 1]: 0 iff the membership functions agree, 1 iff the
    supports are disjoint.  Undefined (raises) when both sets are empty.  It is
    symmetric but not a metric: for crisp sets A = {0}, B = {1}, C = {0, 1},
    d(A, B) = 1 > d(A, C) + d(C, B) = 2/3.
    """
    _check_same_ground(x, y)
    union = sorted(x.support | y.support)
    if not union:
        raise ValidationError("ratio distance is undefined for two empty fuzzy sets (0/0)")
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
    """Inner product induced by a distance and a reference point:
    ``(d(x,x0)^2 + d(y,x0)^2 - d(x,y)^2) / 2``."""
    _check_same_ground(x, y)
    _instance(x0, DiscreteFuzzySet, "x0")
    _instance(d, Callable, "d")
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
    """Polynomial kernel over the distance-induced inner product."""
    k = PolynomialKernel(coef0, gamma, degree)  # which checks the parameters
    return float((k.coef0 + k.gamma * distance_inner(x, y, x0, d)) ** k.degree)


def distance_gaussian_kernel(
    x: DiscreteFuzzySet, y: DiscreteFuzzySet, d: Metric = ratio_distance, gamma: float = 1.0
) -> float:
    """Gaussian kernel over a distance: ``exp(-gamma d(x, y)^2)``."""
    _instance(d, Callable, "d")
    return math.exp(-RBFKernel(gamma).gamma * d(x, y) ** 2)


# ---------------------------------------------------------------------------
# Kernel specs: declarative configuration and uniform dispatch
# ---------------------------------------------------------------------------

FuzzyDatum = Union[DiscreteFuzzySet, GaussianFuzzySet]
Record = Union[FuzzyDatum, tuple]


@dataclass(frozen=True)
class FuzzyKernelSpec:
    """Declarative description of a kernel on fuzzy sets.

    Each family takes only its own fields and attributes of one kind, Gaussian
    fuzzy sets for nonsingleton_gaussian and discrete ones otherwise (the
    family table ``_FAMILIES``); any other field set away from its default
    raises ValidationError.

    * cross_product: ``k1``, ``k2`` (both default to linear);
    * weighted_cross_product: ``k1``, ``k2``, ``weights``;
    * intersection / nonsingleton: ``tnorm``;
    * nonsingleton_gaussian: none;
    * distance_inner: ``metric``, ``reference`` (required: one fuzzy set, or one per attribute);
    * distance_poly: ``metric``, ``reference``, ``coef0``, ``gamma``, ``degree``;
    * distance_gaussian: ``metric``, ``gamma``.

    ``metric`` is ``"ratio"`` only, the one distance the engine computes; a
    general distance ``d`` goes to the scalar references, such as :func:`distance_inner`.
    """

    family: str
    k1: BaseKernel | None = None
    k2: BaseKernel | None = None
    tnorm: TNorm | None = None
    weights: tuple[float, ...] | None = None
    metric: str = "ratio"
    reference: tuple[DiscreteFuzzySet, ...] | None = None
    coef0: float = 0.0
    gamma: float = 1.0
    degree: int = 1

    def __post_init__(self):
        takes = _family(self.family)[1]
        for f in fields(self)[1:]:  # an untaken field keeps its default, which passes every check below
            value = getattr(self, f.name)  # compared by identity first, so never elementwise
            default = value is f.default or (isinstance(value, (str, int, float)) and value == f.default)
            if f.name not in takes and not default:
                raise ValidationError(f"kernel family {self.family!r} takes no {f.name!r}")
        _check_params(self)
        for key in ("k1", "k2"):
            base = getattr(self, key)
            if key in takes and base is None:
                object.__setattr__(self, key, LinearKernel())
            elif key in takes:
                _instance(base, tuple(_BASE_KERNELS.values()), key)
        if "weights" in takes:
            weights = None  # a string, mapping or None is no list, whatever it iterates to
            if isinstance(self.weights, (list, tuple, np.ndarray)):
                weights = _numbers(self.weights, "weights", 0, closed=True)
            if weights is None or weights.ndim != 1:
                raise ValidationError(f"weights must be a list of numbers, got {self.weights!r}")
            object.__setattr__(self, "weights", tuple(weights.tolist()))
        if "tnorm" in takes and not isinstance(self.tnorm, TNorm):
            raise ValidationError(f"{self.family} needs a T-norm: tnorm must be a TNorm, got {self.tnorm!r}")
        if "reference" in takes:
            refs = (self.reference,) if isinstance(self.reference, FuzzyDatum) else self.reference
            if not isinstance(refs, (list, tuple)) or not refs:
                raise ValidationError(f"{self.family} needs one reference fuzzy set or a non-empty list")
            object.__setattr__(self, "reference", tuple(refs))
        if not (isinstance(self.metric, str) and self.metric == "ratio"):
            raise ValidationError(f"unknown metric {self.metric!r}; only 'ratio' is built in")


def _as_record(datum: Record) -> tuple[FuzzyDatum, ...]:
    return tuple(datum) if isinstance(datum, (tuple, list)) else (datum,)


def evaluate(spec: FuzzyKernelSpec, x: Record, y: Record) -> float:
    """Evaluate the configured kernel on two fuzzy data.

    A datum is a tuple or list of fuzzy sets (a multi-attribute record), or
    else one fuzzy set (attribute 0, which meets the first of per-attribute
    references); records combine per-attribute kernel values by product.
    This is the (x, y) pair of a two-item block of the batched engine that
    computes Gram matrices: x its one row, y its one column.
    """
    return float(_kernel_matrix(spec, [x, y], ("x", "y"), 1)[0, 0])


# ---------------------------------------------------------------------------
# Batched engine: one item list per block, array paths per family
# ---------------------------------------------------------------------------

# elements of one broadcast temporary (2 MiB of float64); a row block takes
# as many rows as fit
_BLOCK_ELEMENTS = 1 << 18


class _Pairs:
    """Index space of one kernel block: a list of items (the records, or one
    attribute of each) with one id each.  Rows are the items before
    ``first_col`` (every item when it is 0) and columns the items from
    ``first_col`` on; ``rows`` and ``cols`` are those two ranges as slices,
    so an array over the items gives the rows' and the columns' values as
    views.  Row ``i`` meets column ``j``, item ``cols.start + j``, when that
    item is not before ``i``: from column :meth:`start` on.  So ``first_col
    = 0`` gives a Gram's upper triangle, and ``first_col`` = the row count
    every pair of rows x columns.

    A check flags items, not pairs, and names the first pair in row-major
    (upper-triangle) order that meets a flagged item.  Row 0 meets every
    column first, so that is (0, first flagged column), or (0, 0) if item 0
    is flagged; if only rows are flagged, as only ``first_col > 0`` allows,
    it is (first flagged row, 0).  Where both items must be flagged, it is
    (first flagged row, first flagged column): in a Gram, the first flagged
    item's diagonal pair."""

    def __init__(self, ids: Sequence[str], first_col: int):
        self.ids = ids
        self.rows = slice(0, first_col or len(ids))
        self.cols = slice(first_col, len(ids))
        self.shape = (self.rows.stop, len(ids) - first_col)

    def start(self, i: int) -> int:
        """Row ``i``'s first computed column."""
        return max(i - self.cols.start, 0)

    def name(self, i: int, j: int) -> str:
        return f"pair ({self.ids[i]}, {self.ids[self.cols.start + j]})"

    def check(self, flag, message: Union[str, Callable[[int, int], str]], both: bool = False) -> None:
        """Raise ValidationError naming the first pair (see above) that meets
        an item flagged in ``flag``, one bool per item or one for all; with
        ``both``, the first pair of two flagged items.  A callable ``message``
        takes that pair's row item and column item."""
        flag = np.broadcast_to(np.asarray(flag, dtype=bool), (self.cols.stop,))
        row, col = flag[self.rows], flag[self.cols]
        if both:
            hit = (row.argmax(), col.argmax()) if row.any() and col.any() else None
        else:
            col = col | row[0]
            hit = (0, col.argmax()) if col.any() else (row.argmax(), 0) if row.any() else None
        if hit is not None:
            text = message(hit[0], self.cols.start + hit[1]) if callable(message) else message
            raise ValidationError(f"kernel evaluation failed for {self.name(*hit)}: {text}")

    def row_blocks(self, cost):
        """(first, stop) of the bands whose temporaries stay within the
        element budget: ``cost`` elements for each row, or one count per row;
        each band takes as many as fit, and at least one, so a cost of 0 gives
        one band.  A band of rows meets the columns from its first row's :meth:`start` on."""
        cost = np.full(self.shape[0], cost) if np.isscalar(cost) else cost
        done = np.concatenate(([0], np.cumsum(cost)))
        a = 0
        while a < len(cost):
            b = max(a + 1, int(np.searchsorted(done, done[a] + _BLOCK_ELEMENTS, "right")) - 1)
            yield a, b
            a = b


def _kernel_matrix(
    spec: FuzzyKernelSpec, items: Sequence[Record], ids: Sequence[str], first_col: int = 0
) -> np.ndarray:
    """Kernel values over one list of records with one id each, attribute by
    attribute: rows x columns as _Pairs splits them at ``first_col``.

    The items of each attribute slot are checked against the family's kind,
    then its block prepares them once and returns ``(cost, band)``.  This one
    loop multiplies ``band(a, b, c0)``, rows ``a:b`` against the columns from
    ``c0``, into an array of ones, so slot 0 keeps its bits.  With
    ``first_col = 0`` the block is a Gram matrix: only its upper triangle is
    computed and then mirrored, so it is exactly symmetric.  Malformed input raises
    ValidationError and a non-finite value NumericError, each naming the first
    offending pair in row-major (upper-triangle) order.  A block with no rows
    or no columns has no pair to name, so it raises ValidationError up front.
    """
    _instance(spec, FuzzyKernelSpec, "spec")
    pairs = _Pairs(ids, first_col)
    if not all(pairs.shape):
        raise ValidationError(f"kernel block has no {'columns' if pairs.shape[0] else 'rows'}")
    records = [_as_record(r) for r in items]
    arity = np.array([len(r) for r in records])
    pairs.check(arity != arity[0], lambda p, q: f"records have different arity: {arity[p]} vs {arity[q]}")
    pairs.check(arity[0] == 0, "empty record")
    refs = spec.reference  # a datum that is no tuple or list is a lone attribute 0, not a record
    if refs is not None and len(refs) not in (1, arity[0]) and isinstance(items[0], (tuple, list)):
        pairs.check(True, f"reference has {len(refs)} attributes but records have {arity[0]}")
    block, _, kind = _FAMILIES[spec.family]
    values = np.ones(pairs.shape)
    with np.errstate(all="ignore"):  # non-finite values are reported below, by pair
        for slot in range(arity[0]):
            attrs = [r[slot] for r in records]
            bad = np.array([not isinstance(a, kind) for a in attrs])
            pairs.check(bad, lambda p, q: f"kernel family {spec.family!r} needs {kind.__name__} attributes, "
                        f"got {type(attrs[p] if bad[p] else attrs[q]).__name__}")
            cost, band = block(spec, attrs, slot, pairs)
            for a, b in pairs.row_blocks(cost):
                values[a:b, pairs.start(a):] *= band(a, b, pairs.start(a))
            del band  # and the slot's arrays with it, before the next slot's
        # a row with a non-finite value has a non-finite sum; only those rows are scanned
        for i in np.flatnonzero(~np.isfinite(values.sum(axis=1))):
            j = [c for c in np.flatnonzero(~np.isfinite(values[i])) if c >= pairs.start(i)]
            if j:
                raise NumericError(f"kernel value {values[i, j[0]]} is not finite for {pairs.name(i, j[0])}")
    # a Gram's upper triangle mirrored in bands of rows: left of each band's diagonal
    # block one copy of the rows above, the block from its own upper triangle; adding
    # 0.0 right of it makes each -0.0 a 0, which prints as 0
    for a, b in pairs.row_blocks(len(values)) if not first_col else ():
        values[a:b, :a] = values[:a, a:b].T
        values[a:b, a:b] = np.triu(values[a:b, a:b]) + np.tril(values[a:b, a:b].T, -1)
        values[a:b, b:] += 0.0
    return values


def _discrete(attrs: list, pairs: _Pairs, ref: DiscreteFuzzySet | None = None) -> tuple[GroundSpace, tuple]:
    """Check that the attributes (and ``ref``, packed as the last item)
    share one ground space, and join the index and degree arrays each set
    holds: the engine's one reader of them.  Returns that ground space and
    the supports packed in (point, item) order, as the join walks them:
    ``(size, item, idx, deg)``, each support's size and each entry's item,
    ground index and degree."""
    if ref is not None and not isinstance(ref, DiscreteFuzzySet):
        pairs.check(True, f"the reference must be a DiscreteFuzzySet, got {type(ref).__name__}")
    ground = attrs[0].ground
    bad = np.array([x.ground is not ground and x.ground != ground for x in attrs])
    bad |= ref is not None and ref.ground is not ground and ref.ground != ground
    pairs.check(bad, "fuzzy sets live on different ground spaces")
    sets = attrs if ref is None else [*attrs, ref]
    size = np.fromiter((len(x._idx) for x in sets), np.intp, len(sets))
    idx, deg = np.concatenate([x._idx for x in sets]), np.concatenate([x._deg for x in sets])
    item = np.repeat(np.arange(len(sets)), size)
    # a fixed summation order over each support, whatever the order each set was given in
    order = np.argsort(idx * len(sets) + item)  # keys are unique, so any sort will do
    return ground, (size, item[order], idx[order], deg[order])


def _dense(packed: tuple) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The active columns of packed supports (every ground index in one, so
    sparse data never pays for the whole ground), each entry's position among
    them, and the items' degree matrix over them."""
    size, item, idx, deg = packed
    new = np.diff(idx, prepend=-1) != 0  # idx ascends, as packed
    cols, at = idx[new], np.cumsum(new) - 1
    m = np.zeros((len(size), len(cols)))
    m[item, at] = deg
    return cols, at, m


def _segment_sum(a: np.ndarray, sizes: np.ndarray, axis: int) -> np.ndarray:
    """Sums of a 2-D array over consecutive runs of ``sizes`` entries along
    ``axis``; an empty run sums to 0."""
    out = np.zeros(a.shape[:axis] + (len(sizes),) + a.shape[axis + 1 :])
    full = sizes > 0
    if full.any():
        sums = np.add.reduceat(a, (np.cumsum(sizes) - sizes)[full], axis=axis)
        np.moveaxis(out, axis, 0)[full] = np.moveaxis(sums, axis, 0)
    return out


def _cross_block(spec: FuzzyKernelSpec, attrs: list, slot: int, pairs: _Pairs) -> tuple:
    ground, packed = _discrete(attrs, pairs)
    (size, item, _, deg), (cols, at, m) = packed, _dense(packed)
    pts = ground.points[cols]
    k1 = spec.k1.pairwise(pts, pts)
    if spec.weights is not None:
        w = np.asarray(spec.weights)
        pairs.check(w.shape != (len(ground),), f"got {w.size} weights for {len(ground)} ground points")
        k1 = k1 * np.outer(w[cols], w[cols])
    # a linear k2 vanishes off the supports, so the double sum is the bilinear
    # form M K1 M^T; an overflowing k1 entry would turn 0 * inf into NaN for
    # pairs that never meet it, so that case sums over the supports instead
    if isinstance(spec.k2, LinearKernel) and np.isfinite(k1).all():
        mk = m[pairs.rows] @ k1  # the band holds mk and m; k1 is freed on return
        return 0, lambda a, b, c0: mk[a:b] @ m[pairs.cols][c0:].T
    # the sum of k1[a, b] k2(x_a, y_b) over a in supp x, b in supp y, on the
    # supports packed item after item, each in ascending ground order
    order = np.argsort(item * len(cols) + at)
    at, deg, start = at[order], deg[order], np.concatenate(([0], np.cumsum(size)))
    nx, ny = size[pairs.rows], size[pairs.cols]

    def band(a, b, c0):
        sx, sy = slice(start[a], start[b]), slice(start[pairs.cols.start + c0], start[pairs.cols.stop])
        terms = spec.k2.pairwise(deg[sx, None], deg[sy, None])
        terms *= k1[np.ix_(at[sx], at[sy])]
        return _segment_sum(_segment_sum(terms, nx[a:b], 0), ny[c0:], 1)
    # a row costs about four temporaries per term, and a row of partial sums
    return (4 * nx + 1) * int(ny.sum()), band


def _join(t: TNorm, item, idx, deg, pairs: _Pairs, weight: np.ndarray | None = None) -> tuple:
    """Per pair, the sum over common support points p of ``weight_p T(x_p,
    y_p)``, or with no weights its max (the intersection height).  T(a, 0) = 0,
    so only entries that share a point meet: the work follows sum |supp x &
    supp y|.  A band takes its rows' entries item by item, so a pair meets its
    common points in ascending ground order; a row costs 8 per term and its width."""
    key = idx * pairs.cols.stop + item  # ascending, as packed
    # a row entry meets the column entries of its point whose item is not
    # before its own (see _Pairs); an entry of an item past the rows meets none
    first = np.maximum(np.arange(len(key)), np.searchsorted(key, key - item + pairs.cols.start))
    count = (np.searchsorted(idx, idx, "right") - first) * (item < pairs.rows.stop)
    width = pairs.shape[1] - np.maximum(np.arange(pairs.shape[0]) - pairs.cols.start, 0)
    by_item = np.argsort(item.astype(np.min_scalar_type(pairs.cols.stop)), kind="stable")  # a radix sort
    start = np.searchsorted(item[by_item], np.arange(pairs.rows.stop + 1))

    def band(a, b, c0):
        e = by_item[start[a] : start[b]]
        c = count[e]
        other = np.repeat(first[e] - np.cumsum(c) + c, c) + np.arange(c.sum())
        v = tnorm_array(t, np.repeat(deg[e], c), deg[other])
        out = np.zeros((b - a, pairs.shape[1] - c0))
        cell = np.repeat((item[e] - a) * out.shape[1] - pairs.cols.start - c0, c) + item[other]
        if weight is None:
            np.maximum.at(out.reshape(-1), cell, v)
        else:
            np.add.at(out.reshape(-1), cell, v * np.repeat(weight[e], c))
        return out
    return 8 * np.bincount(item, count, pairs.cols.stop)[pairs.rows] + width, band


def _intersection_block(spec: FuzzyKernelSpec, attrs: list, slot: int, pairs: _Pairs) -> tuple:
    ground, (_, item, idx, deg) = _discrete(attrs, pairs)
    part = ground.partition
    pairs.check(part is None, "intersection kernel needs a partition on the ground space")
    # only entries of cells wholly inside their item's support count (T(a, 0) = 0);
    # a cell's entries need not be adjacent in ground order, so a sort counts them
    cell = part.cell_index[idx]
    _, share, count = np.unique(item * len(part) + cell, return_inverse=True, return_counts=True)
    whole = count[share] == np.bincount(part.cell_index)[cell]
    return _join(spec.tnorm, item[whole], idx[whole], deg[whole], pairs, part.measures[cell[whole]])


def _nonsingleton_block(spec: FuzzyKernelSpec, attrs: list, slot: int, pairs: _Pairs) -> tuple:
    _, (_, item, idx, deg) = _discrete(attrs, pairs)
    return _join(spec.tnorm, item, idx, deg, pairs)


def _gaussian_block(spec: FuzzyKernelSpec, attrs: list, slot: int, pairs: _Pairs) -> tuple:
    dim = np.array([x.dim for x in attrs])
    pairs.check(dim != dim[0], lambda p, q: f"dimension mismatch: {dim[p]} vs {dim[q]}")
    means, widths = _halved(attrs)
    # one fuzzification gives a slot one width vector: then each dimension
    # takes one hypot, equal bit for bit to every pair's own
    shared = np.hypot(widths[0], widths[0]) if (widths == widths[0]).all() else None
    mx, wx, my, wy = means[pairs.rows, None], widths[pairs.rows, None], means[pairs.cols], widths[pairs.cols]

    def band(a, b, c0):
        s = np.zeros((b - a, len(my) - c0))
        # dimensions accumulate in a fixed order, so a pair's value does not
        # depend on where it sits in the block
        for k in range(means.shape[1]):
            h = np.hypot(wx[a:b, :, k], wy[c0:, k]) if shared is None else shared[k]
            s += np.square((mx[a:b, :, k] - my[c0:, k]) / h)
        return np.exp(-0.5 * s)
    return len(my), band


def _distance_block(spec: FuzzyKernelSpec, attrs: list, slot: int, pairs: _Pairs) -> tuple:
    """The family's kernel of the ratio distance ``|X - Y|_1 / (|X|_1 + |Y|_1)``, rows against columns."""
    refs = spec.reference
    ref = None if refs is None else refs[0] if len(refs) == 1 else refs[slot]
    cols, _, m = _dense(_discrete(attrs, pairs, ref)[1])
    s = m.sum(axis=1)
    # against an empty reference, one empty item of a pair is enough to fail
    both = ref is None or s[-1] != 0
    pairs.check(s[: len(attrs)] == 0, "ratio distance is undefined for two empty fuzzy sets (0/0)", both)
    mx, my, sx, sy = m[pairs.rows], m[pairs.cols], s[pairs.rows, None], s[pairs.cols]
    d0 = None if ref is None else np.abs(m - m[-1]).sum(axis=1) / (s + s[-1])  # to the reference, last in m

    def band(a, b, c0):
        d = np.abs(mx[a:b, None, :] - my[None, c0:, :]).sum(axis=-1) / (sx[a:b] + sy[c0:])
        if ref is None:  # distance_gaussian
            return np.exp(-spec.gamma * d**2)
        # distance_inner keeps coef0 = 0, gamma = 1 and degree = 1, which leave every bit of inner as it is
        inner = 0.5 * (d0[pairs.rows][a:b, None] ** 2 + d0[pairs.cols][c0:] ** 2 - d**2)
        return (spec.coef0 + spec.gamma * inner) ** spec.degree
    return len(my) * len(cols), band


# the one place that knows what a family is: its batch function, the spec
# fields it takes, and the kind of fuzzy set each of its attributes must be
_FAMILIES = {
    "cross_product": (_cross_block, ("k1", "k2"), DiscreteFuzzySet),
    "weighted_cross_product": (_cross_block, ("k1", "k2", "weights"), DiscreteFuzzySet),
    "intersection": (_intersection_block, ("tnorm",), DiscreteFuzzySet),
    "nonsingleton": (_nonsingleton_block, ("tnorm",), DiscreteFuzzySet),
    "nonsingleton_gaussian": (_gaussian_block, (), GaussianFuzzySet),
    "distance_inner": (_distance_block, ("metric", "reference"), DiscreteFuzzySet),
    "distance_poly": (_distance_block, ("metric", "reference", "coef0", "gamma", "degree"), DiscreteFuzzySet),
    "distance_gaussian": (_distance_block, ("metric", "gamma"), DiscreteFuzzySet),
}


def _family(name: str) -> tuple[Callable, tuple[str, ...], type]:
    if not isinstance(name, str) or name not in _FAMILIES:
        raise ValidationError(f"unknown kernel family {name!r}; expected one of {', '.join(_FAMILIES)}")
    return _FAMILIES[name]


def spec_from_config(cfg: Mapping, ground: GroundSpace | None = None) -> FuzzyKernelSpec:
    """Build a :class:`FuzzyKernelSpec` from a plain config mapping.

    ``ground`` is needed to resolve discrete reference fuzzy sets for the
    distance families.  A key that the family does not take raises ValidationError.
    """
    if not isinstance(cfg, Mapping) or "family" not in cfg:
        raise ValidationError(f"kernel config (cfg) needs a 'family' key, got {cfg!r}")
    if ground is not None and not isinstance(ground, GroundSpace):
        raise ValidationError(f"ground must be a GroundSpace or None, got {ground!r}")
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
        kwargs["tnorm"] = TNorm(cfg["tnorm"])
    if "reference" in cfg:
        refs = [cfg["reference"]] if isinstance(cfg["reference"], Mapping) else cfg["reference"]
        if not isinstance(refs, (list, tuple)):
            raise ValidationError(f"reference must be an attribute object or a list of them, got {refs!r}")
        kwargs["reference"] = [_parse_attribute(r, ground, f"reference[{k}]") for k, r in enumerate(refs)]
    return FuzzyKernelSpec(**kwargs)
