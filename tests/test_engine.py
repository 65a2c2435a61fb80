"""Differential tests of the batched engine behind compute_gram and evaluate.

Each family's array path must reproduce, to a relative 1e-12, a Gram built
pair by pair from the scalar per-family functions and one built from the
brute-force oracles in ``oracles.py``.  The row-block budget is varied so
that blocks of one row, of a few rows and of the whole data are all run.
"""

import tracemalloc
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
    Partition,
    PolynomialKernel,
    RBFKernel,
    TNorm,
    ValidationError,
    compute_gram,
    cross_product_kernel,
    dataset_from_obj,
    distance_gaussian_kernel,
    distance_inner,
    distance_polynomial_kernel,
    evaluate,
    intersection_kernel,
    kernels,
    nonsingleton_gaussian_kernel,
    nonsingleton_kernel,
    ratio_distance,
    spec_from_config,
    weighted_cross_product_kernel,
)

import oracles
from test_benchmark_outputs import workloads

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


def rect(spec, rows, cols, row_ids, col_ids):
    """The engine's rows x columns block: one item list, the columns from ``len(rows)`` on."""
    return kernels._kernel_matrix(spec, [*rows, *cols], [*row_ids, *col_ids], len(rows))


def check_family(data, spec, budget, scalar, oracle, size=None):
    """compute_gram under a row-block budget against the scalar and oracle
    Grams; the engine's rectangular path (the first rows against every
    record) and evaluate on single attributes against the same values.
    ``size(x, y, slot)`` gives the size of the summed terms (see assert_close)."""
    ids = [str(i) for i in range(len(data))]
    k = (len(data) + 1) // 2
    with mock.patch.object(kernels, "_BLOCK_ELEMENTS", budget):
        got = compute_gram(data, spec).values
        block = rect(spec, data[:k], data, ids[:k], ids)
    assert np.array_equal(got, got.T)
    mag = None if size is None else pairwise(data, size)
    want = pairwise(data, scalar)
    assert_close(got, want, mag)
    assert_close(got, pairwise(data, oracle), mag)
    assert_close(block, want[:k], None if mag is None else mag[:k])
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
    t = TNorm(tname)
    spec = FuzzyKernelSpec(family="intersection", tnorm=t)
    scalar = lambda x, y, s: intersection_kernel(x, y, t, ground.partition)
    oracle = lambda x, y, s: oracles.bf_intersection(x, y, tname, ground.partition)
    check_family(data, spec, budget, scalar, oracle)


@engine_settings
@given(tname=st.sampled_from(TNORMS), **shapes)
def test_nonsingleton(tname, seed, n_points, n_records, n_attrs, budget):
    rng = np.random.default_rng(seed)
    _, data = discrete_data(rng, n_points, n_records, n_attrs)
    t = TNorm(tname)
    spec = FuzzyKernelSpec(family="nonsingleton", tnorm=t)
    scalar = lambda x, y, s: nonsingleton_kernel(x, y, t)
    oracle = lambda x, y, s: oracles.bf_nonsingleton(x, y, tname)
    check_family(data, spec, budget, scalar, oracle)


@engine_settings
@given(
    seed=seeds, dim=st.integers(1, 4), n_records=st.integers(1, 7), n_attrs=st.integers(1, 3),
    log_mean=st.floats(-300.0, 300.0), log_width=st.floats(-300.0, 300.0), budget=budgets, shared=st.booleans(),
)
def test_nonsingleton_gaussian(seed, dim, n_records, n_attrs, log_mean, log_width, budget, shared):
    # means spread by about a width around a common level; the level and the
    # widths range apart from 1e-300 to 1e300, where squares over- or underflow;
    # ``shared`` gives every record of a slot one width vector, as one fuzzification does
    rng = np.random.default_rng(seed)
    level, scale = 10.0**log_mean * rng.normal(size=dim), 10.0**log_width
    slot_widths = scale * rng.uniform(0.5, 2.0, (n_attrs, dim))
    data = [
        tuple(
            GaussianFuzzySet(level + scale * rng.normal(size=dim), w if shared else scale * rng.uniform(0.5, 2.0, dim))
            for w in slot_widths
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
    **shapes,
)
def test_distance_families(family, per_slot, seed, n_points, n_records, n_attrs, budget):
    rng = np.random.default_rng(seed)
    ground, data = discrete_data(rng, n_points, n_records, n_attrs, allow_empty=False)
    refs = tuple(random_set(rng, ground, allow_empty=False) for _ in range(n_attrs if per_slot else 1))
    ref = lambda s: refs[s if per_slot else 0]
    d = ratio_distance
    # the inner product 0.5 (d(x,r)^2 + d(y,r)^2 - d(x,y)^2) can cancel
    term_size = lambda x, y, s: 0.5 * (d(x, ref(s)) ** 2 + d(y, ref(s)) ** 2 + d(x, y) ** 2)
    size = None
    if family == "distance_gaussian":
        spec = FuzzyKernelSpec(family=family, gamma=1.5)
        scalar = lambda x, y, s: distance_gaussian_kernel(x, y, gamma=1.5)
        oracle = lambda x, y, s: np.exp(-1.5 * oracles.bf_ratio_distance(x, y) ** 2)
    elif family == "distance_inner":
        spec = FuzzyKernelSpec(family=family, reference=refs)
        scalar = lambda x, y, s: distance_inner(x, y, ref(s))
        oracle = lambda x, y, s: distance_inner(x, y, ref(s), oracles.bf_ratio_distance)
        size = term_size
    else:
        spec = FuzzyKernelSpec(family=family, reference=refs, coef0=1.0, gamma=0.5, degree=3)
        scalar = lambda x, y, s: distance_polynomial_kernel(x, y, ref(s), coef0=1.0, gamma=0.5, degree=3)
        oracle = lambda x, y, s: (1.0 + 0.5 * distance_inner(x, y, ref(s), oracles.bf_ratio_distance)) ** 3
        size = lambda x, y, s: (1.0 + 0.5 * term_size(x, y, s)) ** 3
    check_family(data, spec, budget, scalar, oracle, size)


@pytest.mark.parametrize(
    "x, y, want",
    [
        # widths**2 underflows to 0, and 0/0 once gave NaN
        pytest.param(GaussianFuzzySet([1.0], [1e-200]), GaussianFuzzySet([1.0], [1e-200]), 1.0, id="tiny-widths"),
        # (1e200)**2 overflows, and inf/inf once gave NaN
        pytest.param(
            GaussianFuzzySet([1e200], [1e200]), GaussianFuzzySet([0.0], [1e200]), np.exp(-0.25), id="huge-scale",
        ),
        # m - m' and hypot(w, w') both overflow, and inf/inf gave NaN; halved, z is 1
        pytest.param(
            GaussianFuzzySet([8.75 * 2.0**1020], [10.5 * 2.0**1020]),
            GaussianFuzzySet([-8.75 * 2.0**1020], [14.0 * 2.0**1020]),
            np.exp(-0.5),
            id="near-float-limit",
        ),
        # the smallest width must not halve to 0, which gave 0/0
        pytest.param(GaussianFuzzySet([0.0], [5e-324]), GaussianFuzzySet([0.0], [5e-324]), 1.0, id="smallest-width"),
    ],
)
def test_nonsingleton_gaussian_is_exact_at_extreme_scales(x, y, want):
    assert nonsingleton_gaussian_kernel(x, y) == want
    assert compute_gram([x, y], FuzzyKernelSpec(family="nonsingleton_gaussian")).values[0, 1] == want


def test_shared_widths_leave_grams_bit_identical():
    # one extra record whose widths differ by one ulp makes the block decline
    # the one-hypot-per-dimension path; the shared records' pairs keep every bit
    rng = np.random.default_rng(16)
    widths = rng.uniform(0.5, 2.0, 3)
    data = [GaussianFuzzySet(rng.normal(size=3), widths) for _ in range(30)]
    spec = FuzzyKernelSpec(family="nonsingleton_gaussian")
    odd = GaussianFuzzySet(rng.normal(size=3), np.nextafter(widths, np.inf))
    for budget in (1, 7, kernels._BLOCK_ELEMENTS):
        with mock.patch.object(kernels, "_BLOCK_ELEMENTS", budget):
            want = compute_gram(data, spec).values
            got = compute_gram([*data, odd], spec).values
        assert got[:30, :30].tobytes() == want.tobytes(), budget
        assert got[30].tolist() == [nonsingleton_gaussian_kernel(odd, y) for y in [*data, odd]], budget


def test_degree_order_leaves_grams_bit_identical():
    # a set's degrees may be given in any order; every family sums over a
    # support in ground order, so Grams and rectangular blocks keep every bit,
    # also where the join meets row and column entries of one point in turn
    rng = np.random.default_rng(11)
    ground, data = discrete_data(rng, 30, 12, 2, n_cells=6, allow_empty=False)

    def rebuilt(fs, keys):
        return DiscreteFuzzySet(ground, {k: fs.degrees[k] for k in keys})

    ascending = [tuple(rebuilt(fs, sorted(fs.degrees)) for fs in rec) for rec in data]
    shuffled = [tuple(rebuilt(fs, rng.permutation(sorted(fs.degrees)).tolist()) for fs in rec) for rec in data]
    refs = (ascending[0][0], shuffled[1][1])
    specs = [
        *(FuzzyKernelSpec(family="cross_product", k1=BASE[k1][0], k2=BASE[k2][0]) for k1 in BASE for k2 in BASE),
        FuzzyKernelSpec(
            family="weighted_cross_product", k1=BASE["rbf"][0], k2=BASE["rbf"][0], weights=rng.uniform(0, 2, 30)
        ),
        *(
            FuzzyKernelSpec(family=f, tnorm=TNorm(t))
            for f in ("intersection", "nonsingleton")
            for t in TNORMS
        ),
        FuzzyKernelSpec(family="distance_gaussian", gamma=1.5),
        FuzzyKernelSpec(family="distance_inner", reference=refs),
        FuzzyKernelSpec(family="distance_poly", reference=refs, coef0=1.0, gamma=0.5, degree=3),
    ]
    ids = [str(i) for i in range(len(data))]
    for spec in specs:
        want = compute_gram(ascending, spec).values
        assert compute_gram(shuffled, spec).values.tobytes() == want.tobytes(), spec.family
        for rows, cols in ((slice(0, 5), slice(5, None)), (slice(5, None), slice(0, 5))):
            want = rect(spec, ascending[rows], ascending[cols], ids[rows], ids[cols])
            got = rect(spec, shuffled[rows], shuffled[cols], ids[rows], ids[cols])
            assert got.tobytes() == want.tobytes(), (spec.family, rows)


JOIN_FAMILIES = ["intersection", "nonsingleton"]


def assert_budget_free(data, spec, label):
    """The Gram and a rectangular block keep every bit under one row per band,
    a few rows, and the default budget."""
    ids = [str(i) for i in range(len(data))]
    got = []
    for budget in (1, 7, kernels._BLOCK_ELEMENTS):
        with mock.patch.object(kernels, "_BLOCK_ELEMENTS", budget):
            got.append(compute_gram(data, spec).values)
            got.append(rect(spec, data[:15], data, ids[:15], ids))
    for k in range(2, len(got)):
        assert got[k].tobytes() == got[k % 2].tobytes(), (label, k)


@pytest.mark.parametrize("family", JOIN_FAMILIES)
def test_join_grams_do_not_depend_on_the_budget(family):
    # every pair takes its common points in ascending ground order, whatever the row bands
    rng = np.random.default_rng(12)
    _, data = discrete_data(rng, 30, 40, 2, n_cells=8)
    for tname in TNORMS:
        assert_budget_free(data, FuzzyKernelSpec(family=family, tnorm=TNorm(tname)), tname)


def test_cross_product_grams_do_not_depend_on_the_budget():
    # both the bilinear form and the support sum, with and without weights
    rng = np.random.default_rng(17)
    _, data = discrete_data(rng, 30, 40, 2)
    for k1 in BASE:
        for k2 in BASE:
            assert_budget_free(data, FuzzyKernelSpec(family="cross_product", k1=BASE[k1][0], k2=BASE[k2][0]), (k1, k2))
    weights = rng.uniform(0, 2, 30)
    assert_budget_free(data, FuzzyKernelSpec(family="weighted_cross_product", weights=weights), "weighted")


@pytest.mark.parametrize("shared", [True, False], ids=["shared-widths", "per-record-widths"])
def test_gaussian_grams_do_not_depend_on_the_budget(shared):
    rng = np.random.default_rng(18)
    widths = rng.uniform(0.5, 2.0, (2, 3))
    data = [
        tuple(GaussianFuzzySet(rng.normal(size=3), w if shared else rng.uniform(0.5, 2.0, 3)) for w in widths)
        for _ in range(40)
    ]
    assert_budget_free(data, FuzzyKernelSpec(family="nonsingleton_gaussian"), shared)


def workload_specs(data):
    """(spec, bitwise) for each family that applies to a workload's records:
    the join and Gaussian families, whose pairs sum in one fixed order, and
    the cross product, whose gemm sums in another order than evaluate's block."""
    if isinstance(data[0][0], GaussianFuzzySet):
        return [(FuzzyKernelSpec(family="nonsingleton_gaussian"), True)]
    joins = JOIN_FAMILIES if data[0][0].ground.partition is not None else ["nonsingleton"]
    return [
        *((FuzzyKernelSpec(family=f, tnorm=TNorm(t)), True) for f in joins for t in TNORMS),
        (FuzzyKernelSpec(family="cross_product", k1=RBFKernel(gamma=0.5)), False),
    ]


@pytest.mark.parametrize("name", workloads.NAMES)
def test_a_pair_is_computed_the_same_wherever_it_sits(name):
    # a Gram's upper triangle, a block of rows x columns and evaluate's one
    # pair are one layout, so a pair's value does not depend on where it sits
    data = dataset_from_obj(workloads.generate(name, 3).document).records
    ids = [str(i) for i in range(len(data))]
    k = 6
    for spec, bitwise in workload_specs(data):
        want = compute_gram(data, spec).values
        got = np.array([
            rect(spec, data[:k], data, ids[:k], ids),
            [[evaluate(spec, data[i], y) for y in data] for i in range(k)],
        ])
        if bitwise:
            assert (got.view(np.uint64) == want[:k].view(np.uint64)).all(), (spec.family, spec.tnorm)
        else:
            assert_close(got, np.broadcast_to(want[:k], got.shape))


def test_gram_mirrors_the_upper_triangle_bitwise():
    # a stub family's bands return an upper triangle of -0.0, subnormals and
    # both signs over a lower triangle of junk; the Gram is that upper triangle
    # mirrored, bit for bit, with every -0.0 made +0.0
    n = 23
    rng = np.random.default_rng(19)
    upper = rng.normal(size=(n, n)) * rng.choice([1.0, 1e-300, 1e300], (n, n))
    upper[rng.random((n, n)) < 0.2] = -0.0
    upper[rng.random((n, n)) < 0.1] = 0.0
    upper[rng.random((n, n)) < 0.1] = -5e-324
    upper[rng.random((n, n)) < 0.1] = 3e-310
    upper[np.diag_indices(n)] = -0.0
    upper[0, 0], upper[1, 1] = 5e-324, -2.5e-310
    junk = np.where(np.tri(n, k=-1, dtype=bool), rng.choice([np.nan, -1e308, -0.0, 7.0], (n, n)), upper)
    blocks = []

    def stub(spec, attrs, slot, pairs):
        blocks.append(pairs.shape)
        return n, lambda a, b, c0: junk[a:b, c0:]

    below = np.tri(n, k=-1, dtype=bool)
    want = np.where(below, upper.T, upper) + 0.0
    assert (np.signbit(want) == (want < 0)).all()  # no -0.0 left
    data = [GaussianFuzzySet([0.0], [1.0])] * n
    with mock.patch.dict(kernels._FAMILIES, stub=(stub, (), GaussianFuzzySet)):
        spec = FuzzyKernelSpec(family="stub")
        for budget in (1, 7, 4 * n, kernels._BLOCK_ELEMENTS):
            with mock.patch.object(kernels, "_BLOCK_ELEMENTS", budget):
                got = compute_gram(data, spec).values
            assert got.tobytes() == want.tobytes(), budget
    assert blocks == [(n, n)] * 4


@pytest.mark.parametrize("family", JOIN_FAMILIES)
def test_join_grams_are_permutation_equivariant(family):
    # permuting the records permutes the Gram, bit for bit
    rng = np.random.default_rng(13)
    _, data = discrete_data(rng, 30, 40, 2, n_cells=8)
    perm = rng.permutation(len(data))
    for tname in TNORMS:
        spec = FuzzyKernelSpec(family=family, tnorm=TNorm(tname))
        want = compute_gram(data, spec).values[np.ix_(perm, perm)]
        assert compute_gram([data[i] for i in perm], spec).values.tobytes() == want.tobytes(), tname


@pytest.mark.parametrize("family", JOIN_FAMILIES)
def test_join_memory_follows_the_supports(family):
    # 400 sets of two 4-point cells on an 8000-point ground: memory follows
    # the Gram and the supports, not records x active ground
    rng = np.random.default_rng(14)
    ground = GroundSpace(np.arange(8000.0)[:, None], Partition([range(k, k + 4) for k in range(0, 8000, 4)]))
    data = [
        DiscreteFuzzySet(ground, {4 * int(c) + k: rng.uniform(0.05, 1.0) for c in two for k in range(4)})
        for two in (rng.choice(2000, 2, replace=False) for _ in range(400))
    ]
    spec = FuzzyKernelSpec(family=family, tnorm=TNorm.MINIMUM)
    compute_gram(data, spec)
    tracemalloc.start()
    try:
        compute_gram(data, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 8 * (400 * 400 + 400 * 8) + 8 * kernels._BLOCK_ELEMENTS


# every family but the gemm, whose one band is its whole product
BANDED = {
    "support-sum": dict(family="cross_product", k1=RBFKernel(0.5), k2=RBFKernel(1.0)),
    "weighted": dict(family="weighted_cross_product", k2=PolynomialKernel(1.0, 1.0, 2), weights=[0.5] * 32),
    "intersection": dict(family="intersection", tnorm=TNorm.PRODUCT),
    "nonsingleton": dict(family="nonsingleton", tnorm=TNorm.MINIMUM),
    "gaussian": dict(family="nonsingleton_gaussian"),
    "distance_gaussian": dict(family="distance_gaussian"),
    "distance_inner": dict(family="distance_inner", reference=0),
    "distance_poly": dict(family="distance_poly", reference=0, coef0=1.0, degree=2),
}


@pytest.mark.parametrize("name", BANDED)
def test_a_gram_holds_one_array_and_one_band(name):
    # 400 records of two attributes on 32 ground points: the peak is the Gram,
    # 8 n^2 bytes, plus C arrays the size of the band budget and the supports.
    # A row is the least band, so supports of 1-4 points keep one row of the
    # support sum (about |supp x| sum |supp y| terms) within the budget.
    n, C = 400, 10
    rng = np.random.default_rng(21)
    ground = GroundSpace(np.linspace(-2, 2, 32)[:, None], Partition([[k, k + 1] for k in range(0, 32, 2)]))

    def one():
        lo = int(rng.integers(0, 28))
        return DiscreteFuzzySet(ground, {k: rng.uniform(0.05, 1.0) for k in range(lo, lo + int(rng.integers(1, 5)))})

    data = [(one(), one()) for _ in range(n)]
    supp = sum(len(x.degrees) for r in data for x in r)
    fields = dict(BANDED[name])
    if "reference" in fields:
        fields["reference"] = data[0]
    if name == "gaussian":
        data = [tuple(GaussianFuzzySet(rng.normal(size=3), rng.uniform(0.5, 2, 3)) for _ in "ab") for _ in data]
        supp = 0
    spec = FuzzyKernelSpec(**fields)
    with mock.patch.object(kernels, "_BLOCK_ELEMENTS", 1 << 12):
        compute_gram(data, spec)
        tracemalloc.start()
        try:
            compute_gram(data, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * n * n + C * 8 * (kernels._BLOCK_ELEMENTS + supp), peak / (8 * n * n)


@pytest.mark.parametrize("budget", [1, 7, 64, 1000])
def test_row_blocks_cover_the_rows_in_bands_within_the_budget(budget):
    # one count per row or per entry of a longer list, some costing nothing,
    # or one count for all rows: the bands run in order with no gap, each
    # within the budget or one long, and each stops only where one more would
    # break the budget
    rng = np.random.default_rng(15)
    for trial in range(40):
        n, symmetric = int(rng.integers(1, 30)), bool(trial % 2)
        if trial % 4 < 2:
            size = n if trial % 8 < 4 else int(rng.integers(n + 1, 4 * n + 2))
            cost = rng.integers(0, 3 * budget, size) * (rng.random(size) < 0.8)
            per_row = cost
        else:
            per_row = int(rng.integers(1, 2 * budget + 1))
            cost = np.full(n, per_row)
        with mock.patch.object(kernels, "_BLOCK_ELEMENTS", budget):
            pairs = kernels._Pairs([""] * (n if symmetric else 2 * n), 0 if symmetric else n)
            bands = list(pairs.row_blocks(per_row))
        assert [a for a, _ in bands] == [0] + [b for _, b in bands[:-1]]
        assert bands[-1][1] == len(cost)
        for a, b in bands:
            assert b > a
            assert cost[a:b].sum() <= budget or b == a + 1
            assert b == len(cost) or cost[a : b + 1].sum() > budget


# ---------------------------------------------------------------------------
# Errors name the first offending pair
# ---------------------------------------------------------------------------

IDS = ["a", "b", "c", "d"]


@pytest.fixture
def line():
    return GroundSpace([[0.0], [1.0], [2.0]])


def test_wrong_attribute_type_names_pair(line):
    x = DiscreteFuzzySet(line, {0: 1.0})
    spec = FuzzyKernelSpec(family="cross_product")
    want = r"pair \(0, 2\): .*needs DiscreteFuzzySet attributes, got GaussianFuzzySet"
    with pytest.raises(ValidationError, match=want):
        compute_gram([x, x, GaussianFuzzySet([0.0], [1.0])], spec)
    # a datum that is neither a fuzzy set nor a tuple or list of them is a lone attribute of the wrong kind
    with pytest.raises(ValidationError, match=r"pair \(x, y\): .*needs DiscreteFuzzySet attributes, got int"):
        evaluate(spec, 5, x)
    with pytest.raises(ValidationError, match=r"pair \(0, 2\): .*needs DiscreteFuzzySet attributes, got float"):
        compute_gram([x, x, 3.0], spec)


def test_different_ground_names_pair(line):
    other = GroundSpace([[0.0], [1.0], [5.0]])
    data = [DiscreteFuzzySet(line, {0: 1.0})] * 3 + [DiscreteFuzzySet(other, {0: 1.0})]
    spec = FuzzyKernelSpec(family="nonsingleton", tnorm=TNorm.MINIMUM)
    with pytest.raises(ValidationError, match=r"pair \(0, 3\): fuzzy sets live on different ground spaces"):
        compute_gram(data, spec)
    # a rectangular block: the foreign set among the columns, then among the rows only
    with pytest.raises(ValidationError, match=r"pair \(a, d\): fuzzy sets live on different ground spaces"):
        rect(spec, data[:2], data, IDS[:2], IDS)
    with pytest.raises(ValidationError, match=r"pair \(d, a\): fuzzy sets live on different ground spaces"):
        rect(spec, data, data[:3], IDS, IDS[:3])
    # a reference on another ground space fails the first pair
    ref_spec = FuzzyKernelSpec(family="distance_inner", reference=data[3])
    with pytest.raises(ValidationError, match=r"pair \(0, 0\): fuzzy sets live on different ground spaces"):
        compute_gram(data[:3], ref_spec)


def test_arity_names_pair(line):
    x = DiscreteFuzzySet(line, {0: 1.0})
    data = [(x, x), (x, x), (x,)]
    with pytest.raises(ValidationError, match=r"pair \(0, 2\): records have different arity: 2 vs 1"):
        compute_gram(data, FuzzyKernelSpec(family="cross_product"))


def test_reference_kind_names_pair(line):
    spec = FuzzyKernelSpec(family="distance_inner", reference=(GaussianFuzzySet([0.0], [1.0]),))
    with pytest.raises(ValidationError, match=r"pair \(0, 0\): the reference must be a DiscreteFuzzySet"):
        compute_gram([DiscreteFuzzySet(line, {0: 1.0})] * 2, spec)


def test_both_empty_ratio_distance_names_pair(line):
    full = DiscreteFuzzySet(line, {0: 1.0})
    empty = DiscreteFuzzySet(line, {})
    spec = FuzzyKernelSpec(family="distance_gaussian")
    with pytest.raises(ValidationError, match=r"pair \(1, 1\): ratio distance is undefined"):
        compute_gram([full, empty, full, empty], spec)


@pytest.mark.parametrize("family", ["distance_inner", "distance_gaussian"])
def test_metric_is_the_ratio_distance_only(line, family):
    # the engine computes the ratio distance alone; a callable, even the
    # brute-force ratio metric, is refused, and configs may still spell the default
    ref = {"reference": DiscreteFuzzySet(line, {1: 1.0})} if family == "distance_inner" else {}
    with pytest.raises(ValidationError, match=r"unknown metric .*; only 'ratio' is built in"):
        FuzzyKernelSpec(family=family, metric=oracles.bf_ratio_distance, **ref)
    assert spec_from_config({"family": "distance_gaussian", "metric": "ratio"}) == FuzzyKernelSpec("distance_gaussian")


@pytest.mark.parametrize("empty", ["rows", "columns"])
def test_empty_block_side_raises(line, empty):
    # an empty block has no pair, so no pair check fires; the weight count
    # and the missing partition once ended in IndexError and AttributeError.
    # No rows is an empty item list (first_col = 0 makes every item a row),
    # no columns one item with first_col = 1
    x = (DiscreteFuzzySet(line, {0: 1.0, 2: 0.5}),)
    items = [] if empty == "rows" else [x]
    for spec in (
        FuzzyKernelSpec(family="weighted_cross_product", weights=[1.0]),
        FuzzyKernelSpec(family="intersection", tnorm=TNorm.MINIMUM),
    ):
        with pytest.raises(ValidationError, match=f"kernel block has no {empty}"):
            kernels._kernel_matrix(spec, items, ["a"] * len(items), len(items))


def test_non_finite_value_names_first_pair():
    # polynomial k1 overflows only on the huge point: k1(1e80, 1e80) = inf
    ground = GroundSpace([[1.0], [1e80], [2.0]])
    data = [DiscreteFuzzySet(ground, {i: 1.0}) for i in (0, 1, 2)]
    k1 = PolynomialKernel(coef0=0.0, gamma=1.0, degree=2)
    spec = FuzzyKernelSpec(family="cross_product", k1=k1)
    with np.errstate(over="ignore"):
        ref = pairwise([(x,) for x in data], lambda x, y, s: cross_product_kernel(x, y, k1, LinearKernel()))
    assert list(zip(*np.nonzero(~np.isfinite(np.triu(ref))))) == [(1, 1)]
    with pytest.raises(NumericError, match=r"not finite for pair \(1, 1\)"):
        compute_gram(data, spec)
    # a pair that never meets the huge point stays finite
    assert evaluate(spec, data[0], data[2]) == pytest.approx(4.0)


LINE = GroundSpace([[0.0], [1.0], [2.0]])
FULL, EMPTY = DiscreteFuzzySet(LINE, {0: 1.0}), DiscreteFuzzySet(LINE, {})
G1, G2 = GaussianFuzzySet([0.0], [1.0]), GaussianFuzzySet([0.0, 1.0], [1.0, 1.0])
# k1(1e80, 1e80) = inf: only the pair of two S[1] overflows
S = [DiscreteFuzzySet(GroundSpace([[1.0], [1e80], [2.0]]), {i: 1.0}) for i in range(3)]
SQUARE = FuzzyKernelSpec(family="cross_product", k1=PolynomialKernel(coef0=0.0, gamma=1.0, degree=2))


@pytest.mark.parametrize(
    "spec, rows, cols, pair, error",
    [
        pytest.param(
            FuzzyKernelSpec(family="distance_gaussian"), [FULL, EMPTY, FULL], [FULL, FULL, EMPTY, EMPTY],
            "b, z", "ratio distance is undefined", id="ratio-both-empty",
        ),
        *(
            pytest.param(
                FuzzyKernelSpec(family="distance_inner", reference=EMPTY), rows, cols, pair,
                "ratio distance is undefined", id=f"empty-reference-{pair[0]}",
            )
            for rows, cols, pair in (([FULL, EMPTY], [FULL, FULL], "b, x"), ([FULL, FULL], [FULL, EMPTY], "a, y"))
        ),
        pytest.param(
            FuzzyKernelSpec(family="nonsingleton_gaussian"), [G1, G2], [G1, G1], "b, x", "dimension mismatch: 2 vs 1",
            id="dimension-rectangular",
        ),
        pytest.param(
            FuzzyKernelSpec(family="nonsingleton_gaussian"), [G1, G1, G2], None, "0, 2", "dimension mismatch: 1 vs 2",
            id="dimension-gram",
        ),
        pytest.param(
            FuzzyKernelSpec(family="cross_product"), [FULL, G1], [FULL, FULL], "b, x", "got GaussianFuzzySet",
            id="kind-rows-only",
        ),
        pytest.param(
            FuzzyKernelSpec(family="cross_product"), [(FULL, FULL), (FULL,)], [(FULL, FULL)] * 2, "b, x",
            "records have different arity: 1 vs 2", id="arity-rows-only",
        ),
        pytest.param(SQUARE, [S[0], S[2], S[1]], [S[2], S[1], S[0]], "c, y", "not finite", id="non-finite"),
        # with no attribute, the slot loop would leave no values to return
        pytest.param(FuzzyKernelSpec(family="cross_product"), [(), ()], None, "0, 0", "empty record", id="empty-record"),
        pytest.param(
            FuzzyKernelSpec(family="cross_product"), [(), ()], [()], "a, x", "empty record", id="empty-record-rectangular",
        ),
    ],
)
def test_checks_name_the_first_pair_in_both_layouts(spec, rows, cols, pair, error):
    # a rectangular block's rows are named a, b, c, ... and its columns x, y, z, w;
    # no cols is a Gram on the rows, which names them by position
    with pytest.raises((ValidationError, NumericError)) as info:
        if cols is None:
            compute_gram(rows, spec)
        else:
            rect(spec, rows, cols, IDS[: len(rows)], ["x", "y", "z", "w"][: len(cols)])
    assert f"pair ({pair})" in str(info.value)
    assert error in str(info.value)
    assert isinstance(info.value, NumericError if error == "not finite" else ValidationError)
