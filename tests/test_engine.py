"""Differential tests of the batched engine behind compute_gram and evaluate.

Each family's array path must reproduce, to a relative 1e-12, a Gram built
pair by pair from the scalar per-family functions and one built from the
brute-force oracles in ``oracles.py``.  The row-block budget is varied so
that blocks of one row, of a few rows and of the whole data are all run.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fuzzykernels import (
    DiscreteFuzzySet,
    FuzzyKernelSpec,
    GaussianFuzzySet,
    GroundSpace,
    LinearKernel,
    NumericError,
    PolynomialKernel,
    RBFKernel,
    TNorm,
    ValidationError,
    compute_gram,
    cross_product_kernel,
    distance_gaussian_kernel,
    distance_inner,
    distance_polynomial_kernel,
    evaluate,
    intersection_kernel,
    kernels,
    nonsingleton_gaussian_kernel,
    nonsingleton_kernel,
    ratio_distance,
    weighted_cross_product_kernel,
)

import oracles

REL = 1e-12
# an exact zero may come back as rounding noise of the largest entry
FLOOR = 1e-15

BASE = {
    "linear": (LinearKernel(), {}),
    "rbf": (RBFKernel(gamma=0.7), {"gamma": 0.7}),
    "polynomial": (
        PolynomialKernel(coef0=1.0, gamma=0.5, degree=3),
        {"coef0": 1.0, "gamma": 0.5, "degree": 3},
    ),
}
TNORMS = ["min", "product", "lukasiewicz", "drastic"]

# derandomized, so every run of the suite draws the same instances
engine_settings = settings(max_examples=100, deadline=None, derandomize=True)

seeds = st.integers(0, 2**32 - 1)
budgets = st.sampled_from([1, 40, 1 << 20])


def assert_close(got, want, mag=None):
    """``|got - want| <= REL * mag + FLOOR * max |want|``.

    ``mag`` is the size of the terms summed into each value, |want| by
    default.  Where terms of both signs cancel (a linear k1 on points of both
    signs, the metric-induced inner product), summing them in another order
    moves the result relative to the terms, not to the result.
    """
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    mag = np.abs(want) if mag is None else np.asarray(mag, dtype=float)
    tol = REL * mag + FLOOR * np.abs(want).max(initial=0.0)
    far = np.argwhere(~(np.abs(got - want) <= tol))
    if len(far):
        at = tuple(far[0])
        pytest.fail(f"{len(far)} entries differ, first {at}: {got[at]!r} vs {want[at]!r}")


def pairwise(data, fn):
    """Gram built pair by pair, per-attribute values multiplied in slot order."""
    n = len(data)
    out = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            v = 1.0
            for slot, (x, y) in enumerate(zip(data[i], data[j])):
                v *= fn(x, y, slot)
            out[i, j] = v
    return out


def check_family(data, spec, budget, scalar, oracle, size=None):
    """compute_gram under a row-block budget against the scalar and oracle
    Grams; the engine's rectangular path (the first rows against every
    record) and evaluate on single attributes against the same values.
    ``size(x, y, slot)`` gives the size of the summed terms (see assert_close)."""
    ids = [str(i) for i in range(len(data))]
    k = (len(data) + 1) // 2
    with mock.patch.object(kernels, "_BLOCK_ELEMENTS", budget):
        got = compute_gram(data, spec).values
        rect = kernels._kernel_matrix(spec, data[:k], data, ids[:k], ids)
    assert np.array_equal(got, got.T)
    mag = None if size is None else pairwise(data, size)
    want = pairwise(data, scalar)
    assert_close(got, want, mag)
    assert_close(got, pairwise(data, oracle), mag)
    assert_close(rect, want[:k], None if mag is None else mag[:k])
    for i in range(min(len(data), 3)):
        for j in range(len(data)):
            x, y = data[i][0], data[j][0]
            assert_close(evaluate(spec, x, y), scalar(x, y, 0), None if size is None else size(x, y, 0))


class Magnitude:
    """A base kernel's absolute value: a cross product built from it sums the
    sizes of the terms that the kernel value sums."""

    def __init__(self, k):
        self.k = k

    def pairwise(self, U, V):
        return np.abs(self.k.pairwise(U, V))


def random_set(rng, ground, allow_empty=True):
    """Random support, whole partition cells, or a crisp (height-1) set."""
    kind = int(rng.integers(3))
    if kind == 1 and ground.partition is not None:
        return oracles.random_cell_aligned(rng, ground, ground.partition, force_height_one=True)
    if kind == 2:
        size = int(rng.integers(0 if allow_empty else 1, len(ground) + 1))
        return DiscreteFuzzySet(ground, {int(i): 1.0 for i in rng.choice(len(ground), size, replace=False)})
    return oracles.random_discrete(rng, ground, allow_empty=allow_empty)


def discrete_data(rng, n_points, n_records, n_attrs, n_cells=None, allow_empty=True):
    """One-point grounds, single-cell and all-singleton partitions all arise
    from the drawn sizes."""
    part = None if n_cells is None else oracles.random_partition(rng, n_points, n_cells)
    ground = GroundSpace(rng.uniform(-1, 1, size=(n_points, 2)), partition=part)
    data = [
        tuple(random_set(rng, ground, allow_empty) for _ in range(n_attrs)) for _ in range(n_records)
    ]
    return ground, data


shapes = dict(
    seed=seeds,
    n_points=st.integers(1, 9),
    n_records=st.integers(1, 7),
    n_attrs=st.integers(1, 3),
    budget=budgets,
)


@engine_settings
@given(k1=st.sampled_from(sorted(BASE)), k2=st.sampled_from(sorted(BASE)), weighted=st.booleans(), **shapes)
def test_cross_product_families(k1, k2, weighted, seed, n_points, n_records, n_attrs, budget):
    rng = np.random.default_rng(seed)
    ground, data = discrete_data(rng, n_points, n_records, n_attrs)
    (b1, p1), (b2, p2) = BASE[k1], BASE[k2]
    if weighted:
        w = rng.uniform(0.0, 2.0, n_points) * (rng.random(n_points) < 0.8)
        spec = FuzzyKernelSpec(family="weighted_cross_product", k1=b1, k2=b2, weights=tuple(w))
        scalar = lambda x, y, s: weighted_cross_product_kernel(x, y, b1, b2, w)
        size = lambda x, y, s: weighted_cross_product_kernel(x, y, Magnitude(b1), Magnitude(b2), w)
        oracle = lambda x, y, s: oracles.bf_weighted_cross_product(
            x, y, lambda u, v: oracles.bf_base_eval(k1, u, v, **p1),
            lambda u, v: oracles.bf_base_eval(k2, u, v, **p2), w,
        )
    else:
        spec = FuzzyKernelSpec(family="cross_product", k1=b1, k2=b2)
        scalar = lambda x, y, s: cross_product_kernel(x, y, b1, b2)
        size = lambda x, y, s: cross_product_kernel(x, y, Magnitude(b1), Magnitude(b2))
        oracle = lambda x, y, s: oracles.bf_cross_product_support(
            x, y, lambda u, v: oracles.bf_base_eval(k1, u, v, **p1),
            lambda u, v: oracles.bf_base_eval(k2, u, v, **p2),
        )
    check_family(data, spec, budget, scalar, oracle, size)


@engine_settings
@given(tname=st.sampled_from(TNORMS), n_cells=st.integers(1, 10), **shapes)
def test_intersection(tname, n_cells, seed, n_points, n_records, n_attrs, budget):
    rng = np.random.default_rng(seed)
    ground, data = discrete_data(rng, n_points, n_records, n_attrs, n_cells=n_cells)
    t = TNorm.from_name(tname)
    spec = FuzzyKernelSpec(family="intersection", tnorm=t)
    scalar = lambda x, y, s: intersection_kernel(x, y, t, ground.partition)
    oracle = lambda x, y, s: oracles.bf_intersection(x, y, tname, ground.partition)
    check_family(data, spec, budget, scalar, oracle)


@engine_settings
@given(tname=st.sampled_from(TNORMS), **shapes)
def test_nonsingleton(tname, seed, n_points, n_records, n_attrs, budget):
    rng = np.random.default_rng(seed)
    _, data = discrete_data(rng, n_points, n_records, n_attrs)
    t = TNorm.from_name(tname)
    spec = FuzzyKernelSpec(family="nonsingleton", tnorm=t)
    scalar = lambda x, y, s: nonsingleton_kernel(x, y, t)
    oracle = lambda x, y, s: oracles.bf_nonsingleton(x, y, tname)
    check_family(data, spec, budget, scalar, oracle)


@engine_settings
@given(
    seed=seeds, dim=st.integers(1, 4), n_records=st.integers(1, 7), n_attrs=st.integers(1, 3),
    log_width=st.floats(-150.0, 1.0), budget=budgets,
)
def test_nonsingleton_gaussian(seed, dim, n_records, n_attrs, log_width, budget):
    # widths down to 1e-150: the closed form's variance stays a normal float
    rng = np.random.default_rng(seed)
    scale = 10.0**log_width
    base = rng.normal(size=dim)
    data = [
        tuple(
            GaussianFuzzySet(base + scale * rng.normal(size=dim), scale * rng.uniform(0.5, 2.0, dim))
            for _ in range(n_attrs)
        )
        for _ in range(n_records)
    ]
    spec = FuzzyKernelSpec(family="nonsingleton_gaussian")
    # the grid-supremum oracle cannot resolve widths near 0; acceptance
    # criterion 2 checks the closed form against it
    scalar = lambda x, y, s: nonsingleton_gaussian_kernel(x, y)
    check_family(data, spec, budget, scalar, scalar)


@engine_settings
@given(
    family=st.sampled_from(["distance_inner", "distance_poly", "distance_gaussian"]),
    per_slot=st.booleans(),
    user_metric=st.booleans(),
    **shapes,
)
def test_distance_families(family, per_slot, user_metric, seed, n_points, n_records, n_attrs, budget):
    rng = np.random.default_rng(seed)
    ground, data = discrete_data(rng, n_points, n_records, n_attrs, allow_empty=False)
    refs = tuple(random_set(rng, ground, allow_empty=False) for _ in range(n_attrs if per_slot else 1))
    # the brute-force ratio metric, passed as a callable, takes the per-pair loop
    metric = oracles.bf_ratio_distance if user_metric else "ratio"
    ref = lambda s: refs[s if per_slot else 0]
    d = ratio_distance
    # the inner product 0.5 (d(x,r)^2 + d(y,r)^2 - d(x,y)^2) can cancel
    term_size = lambda x, y, s: 0.5 * (d(x, ref(s)) ** 2 + d(y, ref(s)) ** 2 + d(x, y) ** 2)
    size = None
    if family == "distance_gaussian":
        spec = FuzzyKernelSpec(family=family, metric=metric, gamma=1.5)
        scalar = lambda x, y, s: distance_gaussian_kernel(x, y, gamma=1.5)
        oracle = lambda x, y, s: np.exp(-1.5 * oracles.bf_ratio_distance(x, y) ** 2)
    elif family == "distance_inner":
        spec = FuzzyKernelSpec(family=family, metric=metric, reference=refs)
        scalar = lambda x, y, s: distance_inner(x, y, ref(s))
        oracle = lambda x, y, s: distance_inner(x, y, ref(s), oracles.bf_ratio_distance)
        size = term_size
    else:
        spec = FuzzyKernelSpec(family=family, metric=metric, reference=refs, coef0=1.0, gamma=0.5, degree=3)
        scalar = lambda x, y, s: distance_polynomial_kernel(x, y, ref(s), coef0=1.0, gamma=0.5, degree=3)
        oracle = lambda x, y, s: (1.0 + 0.5 * distance_inner(x, y, ref(s), oracles.bf_ratio_distance)) ** 3
        size = lambda x, y, s: (1.0 + 0.5 * term_size(x, y, s)) ** 3
    check_family(data, spec, budget, scalar, oracle, size)


# ---------------------------------------------------------------------------
# Errors name the first offending pair
# ---------------------------------------------------------------------------

IDS = ["a", "b", "c", "d"]


@pytest.fixture
def line():
    return GroundSpace([[0.0], [1.0], [2.0]])


def test_wrong_attribute_type_names_pair(line):
    data = [DiscreteFuzzySet(line, {0: 1.0})] * 2 + [GaussianFuzzySet([0.0], [1.0])]
    want = r"pair \(a, c\): .*needs DiscreteFuzzySet attributes, got GaussianFuzzySet"
    with pytest.raises(ValidationError, match=want):
        compute_gram(data, FuzzyKernelSpec(family="cross_product"), item_ids=IDS[:3])


def test_different_ground_names_pair(line):
    other = GroundSpace([[0.0], [1.0], [5.0]])
    data = [DiscreteFuzzySet(line, {0: 1.0})] * 3 + [DiscreteFuzzySet(other, {0: 1.0})]
    spec = FuzzyKernelSpec(family="nonsingleton", tnorm=TNorm.MINIMUM)
    with pytest.raises(ValidationError, match=r"pair \(a, d\): fuzzy sets live on different ground spaces"):
        compute_gram(data, spec, item_ids=IDS)
    # a rectangular block: the foreign set among the columns, then among the rows only
    with pytest.raises(ValidationError, match=r"pair \(a, d\): fuzzy sets live on different ground spaces"):
        kernels._kernel_matrix(spec, data[:2], data, IDS[:2], IDS)
    with pytest.raises(ValidationError, match=r"pair \(d, a\): fuzzy sets live on different ground spaces"):
        kernels._kernel_matrix(spec, data, data[:3], IDS, IDS[:3])
    # a reference on another ground space fails the first pair
    ref_spec = FuzzyKernelSpec(family="distance_inner", reference=data[3])
    with pytest.raises(ValidationError, match=r"pair \(a, a\): fuzzy sets live on different ground spaces"):
        compute_gram(data[:3], ref_spec, item_ids=IDS[:3])


def test_arity_names_pair(line):
    x = DiscreteFuzzySet(line, {0: 1.0})
    data = [(x, x), (x, x), (x,)]
    with pytest.raises(ValidationError, match=r"pair \(a, c\): records have different arity: 2 vs 1"):
        compute_gram(data, FuzzyKernelSpec(family="cross_product"), item_ids=IDS[:3])


def test_reference_kind_names_pair(line):
    spec = FuzzyKernelSpec(family="distance_inner", reference=(GaussianFuzzySet([0.0], [1.0]),))
    with pytest.raises(ValidationError, match=r"pair \(a, a\): the reference must be a DiscreteFuzzySet"):
        compute_gram([DiscreteFuzzySet(line, {0: 1.0})] * 2, spec, item_ids=IDS[:2])


def test_both_empty_ratio_distance_names_pair(line):
    full = DiscreteFuzzySet(line, {0: 1.0})
    empty = DiscreteFuzzySet(line, {})
    spec = FuzzyKernelSpec(family="distance_gaussian")
    with pytest.raises(ValidationError, match=r"pair \(b, b\): ratio distance is undefined"):
        compute_gram([full, empty, full, empty], spec, item_ids=IDS)


class TwoArgError(Exception):
    def __init__(self, where, what):
        super().__init__(f"{where}: {what}")


def test_user_metric_error_keeps_its_cause(line):
    def metric(x, y):
        if 2 in x.support or 2 in y.support:
            raise TwoArgError("metric", "point 2 is not allowed")
        return 0.5

    data = [DiscreteFuzzySet(line, {i: 1.0}) for i in range(3)]
    spec = FuzzyKernelSpec(family="distance_gaussian", metric=metric)
    with pytest.raises(ValidationError, match=r"pair \(a, c\): metric: point 2 is not allowed") as info:
        compute_gram(data, spec, item_ids=IDS[:3])
    assert isinstance(info.value.__cause__, TwoArgError)


def test_non_finite_value_names_first_pair():
    # polynomial k1 overflows only on the huge point: k1(1e80, 1e80) = inf
    ground = GroundSpace([[1.0], [1e80], [2.0]])
    data = [DiscreteFuzzySet(ground, {i: 1.0}) for i in (0, 1, 2)]
    k1 = PolynomialKernel(coef0=0.0, gamma=1.0, degree=2)
    spec = FuzzyKernelSpec(family="cross_product", k1=k1)
    with np.errstate(over="ignore"):
        ref = pairwise([(x,) for x in data], lambda x, y, s: cross_product_kernel(x, y, k1, LinearKernel()))
    assert list(zip(*np.nonzero(~np.isfinite(np.triu(ref))))) == [(1, 1)]
    with pytest.raises(NumericError, match=r"not finite for pair \(b, b\)"):
        compute_gram(data, spec, item_ids=IDS[:3])
    # a pair that never meets the huge point stays finite
    assert evaluate(spec, data[0], data[2]) == pytest.approx(4.0)
