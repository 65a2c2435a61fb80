import math
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fuzzykernels import kernels
from fuzzykernels import (
    DiscreteFuzzySet,
    GaussianFuzzySet,
    GroundSpace,
    Partition,
    ValidationError,
    fuzzify_from_histogram,
)

import oracles

# small integers make exact ties and duplicate centers; values near 1e17 and beyond
# make distances that round to the same float; the full range overflows to inf
_LINE = st.one_of(
    st.integers(-4, 4).map(float),
    st.floats(-1e3, 1e3),
    st.sampled_from([1e17, -1e17, 1e17 + 16, 2.0**60, 1.7e308, -1.7e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@pytest.fixture
def ground6():
    return GroundSpace([[float(i)] for i in range(6)])


class TestGroundSpace:
    def test_scalar_points_become_column_vectors(self):
        g = GroundSpace([0.0, 5.0, 10.0])
        assert g.dim == 1
        assert len(g) == 3
        assert g.points[1, 0] == 5.0

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            GroundSpace([])

    def test_rejects_ragged(self):
        with pytest.raises(ValueError):
            GroundSpace([[1.0], [1.0, 2.0]])

    def test_points_immutable(self, ground6):
        with pytest.raises(ValueError):
            ground6.points[0, 0] = 9.9

    def test_int_too_large_for_a_float_is_named(self):
        # it passes the type screen, and the float conversion's OverflowError sends it to the element loop
        with pytest.raises(ValidationError, match=r"points\[0\]\[0\] must be a number"):
            GroundSpace([[10**400]])

    def test_partition_size_must_match(self):
        p = Partition([[0, 1], [2]])
        with pytest.raises(ValueError):
            GroundSpace([[0.0], [1.0]], partition=p)


class TestPartition:
    def test_counting_measure_default(self):
        p = Partition([[0, 1], [2, 3, 4]])
        assert p.measures.tolist() == [2.0, 3.0]

    def test_rejects_overlap(self):
        with pytest.raises(ValueError, match="disjoint"):
            Partition([[0, 1], [1, 2]])

    def test_rejects_gap(self):
        with pytest.raises(ValueError, match="cover"):
            Partition([[0, 1], [3]])

    @pytest.mark.parametrize(
        "cells, message",
        [
            ([[0], 1], r"cells\[1\] must be a list of ground indices, got 1"),
            ([[0], None], r"cells\[1\] must be a list of ground indices, got None"),
            # overlap is named before gaps, also for indices outside 0..n-1 or too large for an index array
            ([[0], [2**63]], "cover"),
            ([[0], [2**63, 2**63]], "disjoint"),
            ([[5], [5]], "disjoint"),
        ],
    )
    def test_names_the_bad_cell_or_check(self, cells, message):
        with pytest.raises(ValueError, match=message):
            Partition(cells)

    def test_rejects_empty_cell(self):
        with pytest.raises(ValueError, match="empty"):
            Partition([[0, 1], []])

    def test_rejects_negative_measure(self):
        with pytest.raises(ValueError):
            Partition([[0], [1]], measures=[1.0, -0.5])

    @pytest.mark.parametrize("index", [1.5, 1.0, True, np.True_, "1", float("nan")])
    def test_rejects_non_integer_index(self, index):
        # 1.5 and True were once read as index 1
        with pytest.raises(ValueError, match="not an integer"):
            Partition([[0, index], [2]])

    def test_accepts_numpy_integer_index(self):
        p = Partition([[0, np.int64(1)], [np.intp(2)]])
        assert p.cells == ((0, 1), (2,))
        assert all(type(i) is int for cell in p.cells for i in cell)


class TestMembership:
    def test_stored_value(self, ground6):
        fs = DiscreteFuzzySet(ground6, {3: 0.7})
        assert fs(3) == 0.7

    def test_unstored_index_is_zero(self, ground6):
        fs = DiscreteFuzzySet(ground6, {3: 0.7})
        assert fs(5) == 0.0

    def test_empty_set(self, ground6):
        fs = DiscreteFuzzySet(ground6, {})
        assert fs(0) == 0.0

    def test_invalid_index(self, ground6):
        fs = DiscreteFuzzySet(ground6, {3: 0.7})
        with pytest.raises(ValueError):
            fs(6)

    def test_rejects_zero_degree(self, ground6):
        with pytest.raises(ValueError):
            DiscreteFuzzySet(ground6, {0: 0.0})

    def test_rejects_degree_above_one(self, ground6):
        with pytest.raises(ValueError):
            DiscreteFuzzySet(ground6, {0: 1.5})

    def test_rejects_foreign_index(self, ground6):
        with pytest.raises(ValueError):
            DiscreteFuzzySet(ground6, {17: 0.5})

    @pytest.mark.parametrize("index", [1.5, True, "1"])
    def test_rejects_non_integer_index(self, ground6, index):
        with pytest.raises(ValueError, match="not an integer"):
            DiscreteFuzzySet(ground6, {index: 0.5})
        with pytest.raises(ValueError, match="not an integer"):
            DiscreteFuzzySet(ground6, {1: 0.5})(index)

    @given(st.dictionaries(st.integers(0, 5), st.floats(1e-6, 1.0), max_size=6))
    def test_positive_membership_iff_support(self, degrees):
        g = GroundSpace([[float(i)] for i in range(6)])
        fs = DiscreteFuzzySet(g, degrees)
        for idx in range(6):
            assert (fs(idx) > 0) == (idx in fs.support)


class TestSlotKeys:
    """``DiscreteFuzzySet._slot`` takes a dataset file's keys only where each is canonical:
    the index in plain decimal, with no zero padding."""

    GROUND = GroundSpace(np.arange(1001.0))
    BOUNDARIES = ["0", "9", "10", "99", "100", "999", "1000"]  # where the digit count changes

    def test_canonical_keys_give_their_indices(self):
        objs = [{k: 0.5} for k in self.BOUNDARIES] + [dict.fromkeys(self.BOUNDARIES, 0.5)]
        for fs, obj in zip(DiscreteFuzzySet._slot(self.GROUND, objs), objs, strict=True):
            assert fs._idx.tolist() == [*map(int, obj)]
            assert fs._idx.dtype == np.intp and not fs._idx.flags.writeable

    @pytest.mark.parametrize("key", ["01", "00", "", "9" * 20, 0])
    def test_a_key_that_is_not_canonical_declines_the_slot(self, key):
        assert DiscreteFuzzySet._slot(self.GROUND, [{key: 0.5}]) is None
        assert DiscreteFuzzySet._slot(self.GROUND, [{"1000": 0.5, "5": 1.0}, {"7": 0.5, key: 0.5}]) is None


class TestGaussianMembership:
    def test_peak_at_mean(self):
        fs = GaussianFuzzySet([0.0], [1.0])
        assert fs([0.0]) == 1.0

    def test_one_dim_value(self):
        fs = GaussianFuzzySet([0.0], [1.0])
        assert fs([1.0]) == pytest.approx(math.exp(-0.5), rel=1e-12)

    def test_product_across_dimensions(self):
        fs = GaussianFuzzySet([0.0, 0.0], [1.0, 2.0])
        assert fs([1.0, 2.0]) == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_other_real_number_types_convert(self):
        # no int or float, so the element loop checks them, and they convert as float() does
        assert GaussianFuzzySet([Fraction(1, 3)], [Decimal("1.5")]) == GaussianFuzzySet([1 / 3], [1.5])

    def test_dimension_mismatch(self):
        fs = GaussianFuzzySet([0.0, 0.0], [1.0, 1.0])
        with pytest.raises(ValueError):
            fs([1.0])

    @given(st.floats(-5, 5), st.floats(0.5, 5.0), st.floats(-5, 5))
    def test_strictly_positive_and_peaked(self, mean, width, x):
        # ranges chosen so the exponent stays clear of float64 underflow
        fs = GaussianFuzzySet([mean], [width])
        v = fs([x])
        assert 0.0 < v <= 1.0
        assert v <= fs([mean])


class TestFuzzifyGaussian:
    """Epistemic fuzzification of a crisp vector is the constructor centred on it."""

    def test_field_passthrough(self):
        fs = GaussianFuzzySet([1.5], [0.2])
        assert fs.means.tolist() == [1.5]
        assert fs.widths.tolist() == [0.2]

    def test_peak_property(self):
        fs = GaussianFuzzySet([0.0, 0.0], [1.0, 1.0])
        assert fs([0.0, 0.0]) == 1.0

    def test_zero_width_rejected(self):
        with pytest.raises(ValueError):
            GaussianFuzzySet([2.0], [0.0])


class TestFuzzifyFromHistogram:
    def test_all_mass_in_one_bin(self):
        g = GroundSpace([0.0, 5.0, 10.0])
        fs = fuzzify_from_histogram([5, 5, 5], g)
        assert dict(fs.degrees) == {1: 1.0}

    def test_normalized_by_max_count(self):
        g = GroundSpace([0.0, 5.0, 10.0])
        fs = fuzzify_from_histogram([0, 0, 5], g)
        assert dict(fs.degrees) == {0: 1.0, 1: 0.5}

    def test_empty_samples_rejected(self):
        g = GroundSpace([0.0, 5.0, 10.0])
        with pytest.raises(ValueError):
            fuzzify_from_histogram([], g)

    def test_tie_goes_to_lower_index(self):
        g = GroundSpace([0.0, 5.0])
        fs = fuzzify_from_histogram([2.5], g)  # equidistant from both centers
        assert dict(fs.degrees) == {0: 1.0}

    def test_needs_one_dimensional_ground(self):
        g = GroundSpace([[0.0, 0.0], [1.0, 1.0]])
        with pytest.raises(ValueError):
            fuzzify_from_histogram([0.5], g)

    @given(st.lists(st.floats(-10, 10), min_size=1, max_size=40))
    def test_max_degree_exactly_one(self, samples):
        g = GroundSpace([-10.0, -5.0, 0.0, 5.0, 10.0])
        fs = fuzzify_from_histogram(samples, g)
        assert max(fs.degrees.values()) == 1.0
        assert all(0 < d <= 1 for d in fs.degrees.values())

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(centers=st.lists(_LINE, min_size=1, max_size=24), samples=st.lists(_LINE, min_size=1, max_size=24))
    def test_matches_the_full_distance_table(self, centers, samples):
        with np.errstate(over="ignore"):  # both sides see inf for a distance beyond the float range
            want = oracles.bf_histogram_degrees(samples, centers)
            fs = fuzzify_from_histogram(samples, GroundSpace(centers))
        assert dict(fs.degrees) == want

    def test_memory_is_not_samples_times_bins(self):
        # a samples x bins table would be 160 MB; the sorted search holds a few copies of the 0.8 MB ground
        g = GroundSpace(np.linspace(-5.0, 5.0, 100_000))
        samples = np.random.default_rng(21).normal(size=200)
        tracemalloc.start()
        try:
            fs = fuzzify_from_histogram(samples, g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
        assert max(fs.degrees.values()) == 1.0


G3 = GroundSpace([0.0, 1.0, 2.0])


# each constructor's argument, and the id of a row below that sets it to a value of the wrong type
CONSTRUCTOR_ARGUMENTS = {
    "GroundSpace.points": "points-string",
    "GroundSpace.partition": "ground-partition-string",
    "Partition.cells": "partition-none",
    "Partition.measures": "measure-string",
    "DiscreteFuzzySet.ground": "discrete-ground-none",
    "DiscreteFuzzySet.degrees": "discrete-degrees-none",
    "GaussianFuzzySet.means": "gaussian-string",
    "GaussianFuzzySet.widths": "gaussian-bool",
}

BAD_ARGUMENTS = [
    # an argument of the wrong type, once a TypeError, an AttributeError, or (a string ground) accepted
    pytest.param(lambda: Partition(None), "cells must be a list of cells, got None", id="partition-none"),
    pytest.param(
        lambda: GroundSpace([0.0], partition="x"), "partition must be a Partition", id="ground-partition-string",
    ),
    pytest.param(lambda: DiscreteFuzzySet(G3, None), "degrees must be a mapping", id="discrete-degrees-none"),
    pytest.param(lambda: DiscreteFuzzySet(None, {}), "ground must be a GroundSpace", id="discrete-ground-none"),
    pytest.param(
        lambda: DiscreteFuzzySet("g", {0: 1.0}), "ground must be a GroundSpace", id="discrete-ground-string",
    ),
    # each check of sets.py, once a plain ValueError
    pytest.param(lambda: DiscreteFuzzySet(G3, {True: 0.5}), "index True is not an integer", id="index-bool"),
    pytest.param(lambda: DiscreteFuzzySet(G3, {1.5: 0.5}), "index 1.5 is not an integer", id="index-float"),
    pytest.param(lambda: DiscreteFuzzySet(G3, {3: 0.5}), "index 3 outside ground space", id="index-outside"),
    pytest.param(lambda: DiscreteFuzzySet(G3, {0: 0.5})(3), "index 3 outside ground space", id="call-outside"),
    pytest.param(lambda: Partition([[0], 5]), r"cells\[1\] must be a list", id="cell-not-a-list"),
    pytest.param(lambda: Partition([[0], []]), "cell 1 is empty", id="cell-empty"),
    pytest.param(lambda: Partition([[0, 1], [1]]), "not pairwise disjoint", id="cells-overlap"),
    pytest.param(lambda: Partition([[0], [2]]), "without gaps", id="cells-gap"),
    pytest.param(lambda: GroundSpace([]), "non-empty list", id="points-empty"),
    pytest.param(lambda: GroundSpace([0.0], Partition([[0], [1]])), "covers 2 indices", id="partition-size"),
    # and kernels.py's check that two sets share one ground, which its reference kernels run
    pytest.param(
        lambda: kernels._check_same_ground(DiscreteFuzzySet(G3, {}), DiscreteFuzzySet(GroundSpace([0.0]), {})),
        "different ground spaces", id="grounds-differ",
    ),
    pytest.param(lambda: GaussianFuzzySet([0.0], [1.0])([0.0, 1.0]), "point has dimension 2", id="gaussian-call"),
    pytest.param(lambda: fuzzify_from_histogram([], G3), "empty sample list", id="histogram-empty"),
    pytest.param(
        lambda: fuzzify_from_histogram([1.0], GroundSpace([[0.0, 1.0]])), "1-dimensional", id="histogram-2d",
    ),
    pytest.param(lambda: Partition([[0], [1]], measures=[1.0]), "one measure per cell", id="measure-count"),
    pytest.param(lambda: GaussianFuzzySet([0.0, 1.0], [1.0]), "equal-length", id="gaussian-shapes"),
    pytest.param(lambda: GaussianFuzzySet([0.0], [np.inf]), "finite", id="gaussian-infinite-width"),
    pytest.param(
        lambda: fuzzify_from_histogram([1.0, np.nan], GroundSpace([0.0, 1.0])), r"samples\[1\] must be finite",
        id="histogram-nan-sample",
    ),
    # a string, a bool or a nested list where a number belongs, each once read by
    # np.asarray(..., dtype=float) as the number it spells, as 1.0, or as one more axis
    pytest.param(
        lambda: GaussianFuzzySet([0.0, "0.5"], [1.0, 1.0]), r"means\[1\] must be a number", id="gaussian-string",
    ),
    pytest.param(lambda: GaussianFuzzySet([0.0], [True]), r"widths\[0\] must be a number", id="gaussian-bool"),
    pytest.param(
        lambda: GaussianFuzzySet([0.0, [1.0]], [1.0, 1.0]), r"means\[1\] must be a number", id="gaussian-nested",
    ),
    pytest.param(lambda: GroundSpace([["0"], [1.0]]), r"points\[0\]\[0\] must be a number", id="points-string"),
    pytest.param(lambda: GroundSpace([[0.0], [True]]), r"points\[1\]\[0\] must be a number", id="points-bool"),
    pytest.param(lambda: GroundSpace([0.0, [1.0, 2.0]]), r"points\[1\] must be a number", id="points-nested"),
    pytest.param(
        lambda: GroundSpace([[0.0], [1.0, 2.0]]), r"points\[1\] must be a list of length 1", id="points-ragged",
    ),
    pytest.param(
        lambda: Partition([[0], [1]], measures=["2", 1.0]), r"measures\[0\] must be a number", id="measure-string",
    ),
    pytest.param(
        lambda: Partition([[0], [1]], measures=[2.0, True]), r"measures\[1\] must be a number", id="measure-bool",
    ),
    pytest.param(
        lambda: Partition([[0], [1]], measures=[2.0, [1.0]]), r"measures\[1\] must be a number",
        id="measure-nested",
    ),
    pytest.param(
        lambda: fuzzify_from_histogram([1.0, "2"], GroundSpace([0.0, 1.0])), r"samples\[1\] must be a number",
        id="histogram-string",
    ),
    pytest.param(
        lambda: fuzzify_from_histogram([True], GroundSpace([0.0, 1.0])), r"samples\[0\] must be a number",
        id="histogram-bool",
    ),
    pytest.param(
        lambda: fuzzify_from_histogram([1.0, [2.0]], GroundSpace([0.0, 1.0])), r"samples\[1\] must be a number",
        id="histogram-nested",
    ),
]


@pytest.mark.parametrize("call, match", BAD_ARGUMENTS)
def test_bad_arguments_raise_value_error(call, match):
    with pytest.raises(ValidationError, match=match):
        call()


def test_each_constructor_argument_has_a_row():
    assert set(CONSTRUCTOR_ARGUMENTS.values()) <= {row.id for row in BAD_ARGUMENTS}
