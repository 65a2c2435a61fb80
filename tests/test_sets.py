import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fuzzykernels import (
    DiscreteFuzzySet,
    GaussianFuzzySet,
    GroundSpace,
    Partition,
    fuzzify_from_histogram,
    fuzzify_gaussian,
    gaussian_membership,
    membership,
    support_cells,
    support_measure,
)


@pytest.fixture
def ground6():
    return GroundSpace([[float(i)] for i in range(6)])


class TestGroundSpace:
    def test_scalar_points_become_column_vectors(self):
        g = GroundSpace([0.0, 5.0, 10.0])
        assert g.dim == 1
        assert len(g) == 3
        assert g.point(1)[0] == 5.0

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            GroundSpace([])

    def test_rejects_ragged(self):
        with pytest.raises(ValueError):
            GroundSpace([[1.0], [1.0, 2.0]])

    def test_points_immutable(self, ground6):
        with pytest.raises(ValueError):
            ground6.points[0, 0] = 9.9

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
        assert membership(fs, 3) == 0.7

    def test_unstored_index_is_zero(self, ground6):
        fs = DiscreteFuzzySet(ground6, {3: 0.7})
        assert membership(fs, 5) == 0.0

    def test_empty_set(self, ground6):
        fs = DiscreteFuzzySet(ground6, {})
        assert membership(fs, 0) == 0.0
        assert fs.height == 0.0

    def test_invalid_index(self, ground6):
        fs = DiscreteFuzzySet(ground6, {3: 0.7})
        with pytest.raises(ValueError):
            membership(fs, 6)

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
            membership(DiscreteFuzzySet(ground6, {1: 0.5}), index)

    @given(st.dictionaries(st.integers(0, 5), st.floats(1e-6, 1.0), max_size=6))
    def test_positive_membership_iff_support(self, degrees):
        g = GroundSpace([[float(i)] for i in range(6)])
        fs = DiscreteFuzzySet(g, degrees)
        for idx in range(6):
            assert (membership(fs, idx) > 0) == (idx in fs.support)


class TestGaussianMembership:
    def test_peak_at_mean(self):
        fs = GaussianFuzzySet([0.0], [1.0])
        assert gaussian_membership(fs, [0.0]) == 1.0

    def test_one_dim_value(self):
        fs = GaussianFuzzySet([0.0], [1.0])
        assert gaussian_membership(fs, [1.0]) == pytest.approx(math.exp(-0.5), rel=1e-12)

    def test_product_across_dimensions(self):
        fs = GaussianFuzzySet([0.0, 0.0], [1.0, 2.0])
        assert gaussian_membership(fs, [1.0, 2.0]) == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_dimension_mismatch(self):
        fs = GaussianFuzzySet([0.0, 0.0], [1.0, 1.0])
        with pytest.raises(ValueError):
            gaussian_membership(fs, [1.0])

    @given(st.floats(-5, 5), st.floats(0.5, 5.0), st.floats(-5, 5))
    def test_strictly_positive_and_peaked(self, mean, width, x):
        # ranges chosen so the exponent stays clear of float64 underflow
        fs = GaussianFuzzySet([mean], [width])
        v = gaussian_membership(fs, [x])
        assert 0.0 < v <= 1.0
        assert v <= gaussian_membership(fs, [mean])


class TestFuzzifyGaussian:
    def test_field_passthrough(self):
        fs = fuzzify_gaussian([1.5], [0.2])
        assert fs.means.tolist() == [1.5]
        assert fs.widths.tolist() == [0.2]

    def test_peak_property(self):
        fs = fuzzify_gaussian([0.0, 0.0], [1.0, 1.0])
        assert gaussian_membership(fs, [0.0, 0.0]) == 1.0

    def test_zero_width_rejected(self):
        with pytest.raises(ValueError):
            fuzzify_gaussian([2.0], [0.0])


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
        assert fs.height == 1.0
        assert all(0 < d <= 1 for d in fs.degrees.values())


class TestSupportCells:
    def test_subset_cells_only(self):
        p = Partition([[0, 1], [2, 3]])
        g = GroundSpace([[float(i)] for i in range(4)], partition=p)
        fs = DiscreteFuzzySet(g, {0: 0.5, 1: 0.9})
        assert support_cells(fs, p) == {0}

    def test_partial_coverage_excluded(self):
        p = Partition([[0, 1], [2, 3]])
        g = GroundSpace([[float(i)] for i in range(4)], partition=p)
        fs = DiscreteFuzzySet(g, {0: 0.5, 1: 0.9, 2: 0.4})
        assert support_cells(fs, p) == {0}

    def test_empty_support(self):
        p = Partition([[0, 1], [2, 3]])
        g = GroundSpace([[float(i)] for i in range(4)], partition=p)
        fs = DiscreteFuzzySet(g, {})
        assert support_cells(fs, p) == set()

    def test_foreign_partition_rejected(self):
        p = Partition([[0, 1], [2, 3]])
        g = GroundSpace([[float(i)] for i in range(4)], partition=p)
        fs = DiscreteFuzzySet(g, {0: 0.5})
        with pytest.raises(ValueError):
            support_cells(fs, Partition([[0], [1], [2]]))

    def test_cell_membership_criterion(self):
        # a cell belongs iff its minimum membership is positive
        p = Partition([[0, 1], [2, 3], [4, 5]])
        g = GroundSpace([[float(i)] for i in range(6)], partition=p)
        fs = DiscreteFuzzySet(g, {0: 0.1, 1: 0.2, 2: 0.3, 4: 1.0, 5: 0.01})
        got = support_cells(fs, p)
        for k, cell in enumerate(p.cells):
            min_deg = min(membership(fs, i) for i in cell)
            assert (k in got) == (min_deg > 0)

    def test_support_measure(self):
        p = Partition([[0, 1], [2, 3]], measures=[2.5, 7.0])
        g = GroundSpace([[float(i)] for i in range(4)], partition=p)
        fs = DiscreteFuzzySet(g, {0: 0.5, 1: 0.9})
        assert support_measure(fs, p) == 2.5
