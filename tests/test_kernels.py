import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fuzzykernels import (
    DiscreteFuzzySet,
    FuzzyKernelSpec,
    GaussianFuzzySet,
    GroundSpace,
    LinearKernel,
    Partition,
    PolynomialKernel,
    RBFKernel,
    TNorm,
    ValidationError,
    apply_array,
    base_kernel_from_config,
    check_psd,
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
    spec_from_config,
    weighted_cross_product_kernel,
)

import oracles


class TestBaseKernels:
    def test_linear_dot(self):
        assert LinearKernel().pairwise(np.array([[2.0]]), np.array([[3.0]])).tolist() == [[6.0]]

    def test_rbf_at_zero_distance(self):
        u = np.array([[1.0, 2.0]])
        assert RBFKernel(gamma=1.0).pairwise(u, u).tolist() == [[1.0]]

    def test_polynomial(self):
        k = PolynomialKernel(coef0=1.0, gamma=1.0, degree=2)
        assert k.pairwise(np.array([[1.0]]), np.array([[1.0]])).tolist() == [[4.0]]

    def test_dimension_mismatch(self):
        for k in [LinearKernel(), RBFKernel(), PolynomialKernel()]:
            with pytest.raises(ValueError):
                k.pairwise(np.ones((1, 1)), np.ones((1, 2)))

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            RBFKernel(gamma=0.0)
        with pytest.raises(ValueError):
            PolynomialKernel(degree=0)
        with pytest.raises(ValueError):
            PolynomialKernel(coef0=-1.0)

    def test_from_config(self):
        assert base_kernel_from_config({"kind": "linear"}) == LinearKernel()
        assert base_kernel_from_config({"kind": "rbf", "gamma": 0.5}) == RBFKernel(gamma=0.5)
        k = base_kernel_from_config({"kind": "polynomial", "coef0": 1, "gamma": 2, "degree": 3})
        assert k == PolynomialKernel(coef0=1.0, gamma=2.0, degree=3)
        with pytest.raises(ValidationError):
            base_kernel_from_config({"kind": "sigmoid"})

    def test_pairwise_matches_single(self):
        rng = np.random.default_rng(3)
        U = rng.normal(size=(4, 2))
        V = rng.normal(size=(5, 2))
        for k, kind, params in [
            (LinearKernel(), "linear", {}),
            (RBFKernel(gamma=0.7), "rbf", {"gamma": 0.7}),
            (PolynomialKernel(1.0, 0.5, 3), "polynomial", {"coef0": 1.0, "gamma": 0.5, "degree": 3}),
        ]:
            M = k.pairwise(U, V)
            for i in range(4):
                for j in range(5):
                    assert M[i, j] == pytest.approx(oracles.bf_base_eval(kind, U[i], V[j], **params), rel=1e-12)

    def test_rbf_pairwise_rejects_mismatched_columns(self):
        # a column-by-column sum would index past V's one column (IndexError)
        with pytest.raises(ValueError):
            RBFKernel().pairwise(np.zeros((2, 2)), np.zeros((3, 1)))

    def test_rbf_pairwise_rejects_1d_input(self):
        with pytest.raises(ValueError):
            RBFKernel().pairwise(np.zeros(3), np.zeros(3))

    def test_rbf_pairwise_accepts_array_likes(self):
        assert RBFKernel(gamma=0.5).pairwise([[0.0, 1.0]], [[0.0, 1.0], [1.0, 1.0]]).tolist() == [
            [1.0, math.exp(-0.5)]
        ]

    def test_integral_degree_kept_fractional_rejected(self):
        assert type(PolynomialKernel(degree=2.0).degree) is int
        with pytest.raises(ValidationError, match="degree must be an integer"):
            PolynomialKernel(degree=2.5)


@pytest.fixture
def line_ground():
    # points at coordinates 0..5 so linear k1 values are easy to read
    return GroundSpace([[float(i)] for i in range(6)])


class TestCrossProduct:
    def test_single_pair(self, line_ground):
        x = DiscreteFuzzySet(line_ground, {2: 0.5})
        y = DiscreteFuzzySet(line_ground, {3: 1.0})
        v = cross_product_kernel(x, y, LinearKernel(), LinearKernel())
        assert v == pytest.approx(2 * 3 * 0.5 * 1.0)

    def test_two_by_one_support(self, line_ground):
        x = DiscreteFuzzySet(line_ground, {1: 1.0, 2: 0.5})
        y = DiscreteFuzzySet(line_ground, {1: 0.5})
        v = cross_product_kernel(x, y, LinearKernel(), LinearKernel())
        assert v == pytest.approx(1 * 1 * 1.0 * 0.5 + 2 * 1 * 0.5 * 0.5)

    def test_empty_side_gives_zero(self, line_ground):
        x = DiscreteFuzzySet(line_ground, {})
        y = DiscreteFuzzySet(line_ground, {3: 1.0})
        assert cross_product_kernel(x, y, LinearKernel(), LinearKernel()) == 0.0
        assert cross_product_kernel(y, x, LinearKernel(), LinearKernel()) == 0.0

    def test_mismatched_grounds(self, line_ground):
        other = GroundSpace([[1.0]])
        x = DiscreteFuzzySet(line_ground, {0: 1.0})
        y = DiscreteFuzzySet(other, {0: 1.0})
        with pytest.raises(ValueError):
            cross_product_kernel(x, y, LinearKernel(), LinearKernel())

    def test_matches_all_pairs_bruteforce(self):
        # zero-degree terms vanish under a linear k2, so the all-index loop
        # must agree with the support-restricted sum
        rng = np.random.default_rng(11)
        for _ in range(25):
            n = int(rng.integers(2, 15))
            ground = GroundSpace(rng.uniform(-2, 2, size=(n, 2)))
            x = oracles.random_discrete(rng, ground, allow_empty=True)
            y = oracles.random_discrete(rng, ground, allow_empty=True)
            for k1, k1_fn in [
                (LinearKernel(), lambda u, v: oracles.bf_base_eval("linear", u, v)),
                (RBFKernel(gamma=0.8), lambda u, v: oracles.bf_base_eval("rbf", u, v, gamma=0.8)),
            ]:
                got = cross_product_kernel(x, y, k1, LinearKernel())
                want = oracles.bf_cross_product_all_pairs(
                    x, y, k1_fn, lambda u, v: oracles.bf_base_eval("linear", u, v)
                )
                assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_matches_support_bruteforce_general_k2(self):
        rng = np.random.default_rng(12)
        k2 = RBFKernel(gamma=2.0)
        for _ in range(25):
            n = int(rng.integers(2, 15))
            ground = GroundSpace(rng.uniform(-2, 2, size=(n, 1)))
            x = oracles.random_discrete(rng, ground)
            y = oracles.random_discrete(rng, ground)
            got = cross_product_kernel(x, y, RBFKernel(gamma=0.8), k2)
            want = oracles.bf_cross_product_support(
                x,
                y,
                lambda u, v: oracles.bf_base_eval("rbf", u, v, gamma=0.8),
                lambda u, v: oracles.bf_base_eval("rbf", u, v, gamma=2.0),
            )
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


class TestWeightedCrossProduct:
    def test_unit_weights_reduce_to_plain(self, line_ground):
        rng = np.random.default_rng(5)
        x = oracles.random_discrete(rng, line_ground)
        y = oracles.random_discrete(rng, line_ground)
        w = np.ones(len(line_ground))
        assert weighted_cross_product_kernel(
            x, y, LinearKernel(), LinearKernel(), w
        ) == pytest.approx(cross_product_kernel(x, y, LinearKernel(), LinearKernel()))

    def test_single_pair_weighted(self, line_ground):
        x = DiscreteFuzzySet(line_ground, {2: 0.5})
        y = DiscreteFuzzySet(line_ground, {3: 1.0})
        w = np.full(len(line_ground), 0.5)
        v = weighted_cross_product_kernel(x, y, LinearKernel(), LinearKernel(), w)
        assert v == pytest.approx(3.0 * 0.25)

    def test_null_measure_gives_zero(self, line_ground):
        rng = np.random.default_rng(6)
        x = oracles.random_discrete(rng, line_ground)
        y = oracles.random_discrete(rng, line_ground)
        w = np.zeros(len(line_ground))
        assert weighted_cross_product_kernel(x, y, LinearKernel(), LinearKernel(), w) == 0.0

    def test_negative_weight_rejected(self, line_ground):
        x = DiscreteFuzzySet(line_ground, {0: 1.0})
        w = np.full(len(line_ground), -1.0)
        with pytest.raises(ValueError, match=r"weights\[0\] must be finite and >= 0"):
            weighted_cross_product_kernel(x, x, LinearKernel(), LinearKernel(), w)

    def test_weight_count_must_match_the_ground(self, line_ground):
        x = DiscreteFuzzySet(line_ground, {0: 1.0})
        with pytest.raises(ValidationError, match="one weight per ground point"):
            weighted_cross_product_kernel(x, x, LinearKernel(), LinearKernel(), [1.0, 1.0])

    def test_matches_bruteforce(self, line_ground):
        rng = np.random.default_rng(7)
        for _ in range(10):
            x = oracles.random_discrete(rng, line_ground)
            y = oracles.random_discrete(rng, line_ground)
            w = rng.uniform(0, 2, len(line_ground))
            got = weighted_cross_product_kernel(x, y, LinearKernel(), LinearKernel(), w)
            want = oracles.bf_weighted_cross_product(
                x,
                y,
                lambda u, v: oracles.bf_base_eval("linear", u, v),
                lambda u, v: oracles.bf_base_eval("linear", u, v),
                w,
            )
            assert got == pytest.approx(want, rel=1e-12)


class TestIntersect:
    """``kernels._intersect``, the T-norm intersection that both discrete reference kernels read."""

    @pytest.fixture
    def ground(self):
        return GroundSpace([[float(i)] for i in range(4)], Partition([[0, 1], [2, 3]]))

    def test_single_overlap_minimum(self, ground):
        x = DiscreteFuzzySet(ground, {0: 0.8})
        y = DiscreteFuzzySet(ground, {0: 0.5})
        assert kernels._intersect(x, y, TNorm.MINIMUM) == {0: 0.5}

    @pytest.mark.parametrize("t", list(TNorm))
    def test_disjoint_supports_give_empty(self, ground, t):
        x = DiscreteFuzzySet(ground, {0: 0.8, 1: 0.9})
        y = DiscreteFuzzySet(ground, {2: 0.5, 3: 1.0})
        assert kernels._intersect(x, y, t) == {}

    def test_pointwise_product_on_overlap(self, ground):
        x = DiscreteFuzzySet(ground, {0: 0.6, 1: 0.9})
        y = DiscreteFuzzySet(ground, {1: 0.9, 2: 0.3})
        assert kernels._intersect(x, y, TNorm.PRODUCT) == pytest.approx({1: 0.81})

    @pytest.mark.parametrize("t", list(TNorm))
    @given(
        dx=st.dictionaries(st.integers(0, 3), st.floats(1e-3, 1.0), max_size=4),
        dy=st.dictionaries(st.integers(0, 3), st.floats(1e-3, 1.0), max_size=4),
    )
    def test_keys_are_the_sorted_common_support(self, t, dx, dy):
        # zeros stay: the intersection kernel reads "in both supports" off the keys
        ground = GroundSpace([[float(i)] for i in range(4)])
        x, y = DiscreteFuzzySet(ground, dx), DiscreteFuzzySet(ground, dy)
        z = kernels._intersect(x, y, t)
        assert list(z) == sorted(x.support & y.support)
        assert all(v == float(apply_array(t, x(i), y(i))) for i, v in z.items())

    @pytest.mark.parametrize(
        "call",
        [kernels._intersect, nonsingleton_kernel, lambda x, y, t: intersection_kernel(x, y, t, x.ground.partition)],
        ids=["intersect", "nonsingleton", "intersection"],
    )
    def test_mismatched_grounds_rejected(self, ground, call):
        x = DiscreteFuzzySet(ground, {0: 0.5})
        y = DiscreteFuzzySet(GroundSpace([[9.0], [8.0]]), {0: 0.5})
        with pytest.raises(ValidationError, match="different ground spaces"):
            call(x, y, TNorm.MINIMUM)


class TestIntersectionKernel:
    @pytest.fixture
    def part4(self):
        return Partition([[0, 1], [2, 3]], measures=[2.0, 2.0])

    @pytest.fixture
    def ground4(self, part4):
        return GroundSpace([[float(i)] for i in range(4)], partition=part4)

    def test_hand_evaluated_example(self, ground4, part4):
        x = DiscreteFuzzySet(ground4, {0: 0.8, 1: 0.6})
        y = DiscreteFuzzySet(ground4, {0: 0.5, 1: 1.0, 2: 0.3, 3: 0.2})
        v = intersection_kernel(x, y, TNorm.MINIMUM, part4)
        assert v == pytest.approx((min(0.8, 0.5) + min(0.6, 1.0)) * 2.0)
        assert v == pytest.approx(2.2)

    @pytest.mark.parametrize("t", list(TNorm))
    def test_disjoint_supports(self, ground4, part4, t):
        x = DiscreteFuzzySet(ground4, {0: 0.8, 1: 0.6})
        y = DiscreteFuzzySet(ground4, {2: 0.3, 3: 0.2})
        assert intersection_kernel(x, y, t, part4) == 0.0

    @pytest.mark.parametrize("t", list(TNorm))
    def test_empty_set_gives_zero(self, ground4, part4, t):
        x = DiscreteFuzzySet(ground4, {})
        y = DiscreteFuzzySet(ground4, {i: 1.0 for i in range(4)})
        assert intersection_kernel(x, y, t, part4) == intersection_kernel(y, x, t, part4) == 0.0

    def test_a_cell_counts_where_both_supports_cover_it(self):
        p = Partition([[0, 1], [2, 3], [4, 5]])
        g = GroundSpace([[float(i)] for i in range(6)], partition=p)
        x = DiscreteFuzzySet(g, {0: 0.1, 1: 0.2, 2: 0.3, 4: 1.0, 5: 0.01})  # covers cells 0 and 2, not 1
        y = DiscreteFuzzySet(g, {i: 1.0 for i in range(6)})
        want = (0.1 + 0.2) * 2.0 + (1.0 + 0.01) * 2.0
        assert intersection_kernel(x, y, TNorm.MINIMUM, p) == intersection_kernel(y, x, TNorm.MINIMUM, p)
        assert intersection_kernel(x, y, TNorm.MINIMUM, p) == pytest.approx(want)

    def test_self_similarity_counting_measure(self):
        p = Partition([[0, 1], [2, 3]])
        g = GroundSpace([[float(i)] for i in range(4)], partition=p)
        x = DiscreteFuzzySet(g, {0: 1.0, 1: 1.0})
        assert intersection_kernel(x, x, TNorm.MINIMUM, p) == pytest.approx(4.0)

    def test_foreign_partition_rejected(self):
        own = Partition([[0], [1]])
        g = GroundSpace([[0.0], [1.0]], partition=own)
        x = DiscreteFuzzySet(g, {0: 1.0, 1: 1.0})
        with pytest.raises(ValueError, match="partition does not belong"):
            intersection_kernel(x, x, TNorm.MINIMUM, Partition([[0, 1]]))
        assert intersection_kernel(x, x, TNorm.MINIMUM, own) == 2.0

    @pytest.mark.parametrize(
        "own, p",
        [
            (None, Partition([[0], [1], [2]])),  # another size, on a ground that carries no partition
            (Partition([[0], [1]]), Partition([[0], [1], [2]])),  # another size than the ground's own
            (Partition([[0], [1]]), Partition([[1], [0]])),  # the ground's cells in another order
            (Partition([[0], [1]]), Partition([[0], [1]], measures=[1.0, 2.0])),  # its cells, other measures
        ],
        ids=["size-no-own", "size", "order", "measures"],
    )
    def test_partition_not_the_grounds_rejected(self, own, p):
        x = DiscreteFuzzySet(GroundSpace([[0.0], [1.0]], partition=own), {0: 1.0, 1: 1.0})
        with pytest.raises(ValidationError, match="partition does not belong"):
            intersection_kernel(x, x, TNorm.MINIMUM, p)

    def test_any_partition_of_the_size_of_a_ground_without_one(self):
        x = DiscreteFuzzySet(GroundSpace([[0.0], [1.0]]), {0: 1.0, 1: 1.0})
        assert intersection_kernel(x, x, TNorm.MINIMUM, Partition([[0], [1]], measures=[1.0, 2.0])) == 3.0

    def test_partial_cell_contributes_nothing(self, ground4, part4):
        x = DiscreteFuzzySet(ground4, {0: 0.8})  # covers half of cell 0
        y = DiscreteFuzzySet(ground4, {0: 0.5, 1: 1.0})
        assert intersection_kernel(x, y, TNorm.MINIMUM, part4) == 0.0

    @pytest.mark.parametrize("tname", ["min", "product", "lukasiewicz", "drastic"])
    def test_matches_bruteforce(self, tname):
        rng = np.random.default_rng(21)
        t = TNorm(tname)
        for _ in range(20):
            n = int(rng.integers(4, 16))
            n_cells = int(rng.integers(2, min(5, n)))
            p = oracles.random_partition(rng, n, n_cells)
            g = GroundSpace(rng.uniform(-1, 1, size=(n, 1)), partition=p)
            x = oracles.random_discrete(rng, g, allow_empty=True)
            y = oracles.random_discrete(rng, g, allow_empty=True)
            got = intersection_kernel(x, y, t, p)
            want = oracles.bf_intersection(x, y, "min" if tname == "min" else tname, p)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("t", list(TNorm))
    def test_sums_t_over_the_cells_both_supports_cover(self, t):
        # cells in ascending order, points in cell order, each sum times its cell's measure: the same floats
        rng = np.random.default_rng(22)
        for _ in range(10):
            n = int(rng.integers(4, 14))
            p = oracles.random_partition(rng, n, 3)
            g = GroundSpace(rng.uniform(-1, 1, size=(n, 1)), partition=p)
            x = oracles.random_discrete(rng, g, allow_empty=True)
            y = oracles.random_discrete(rng, g, allow_empty=True)
            want = 0.0
            for cell, measure in zip(p.cells, p.measures):
                if all(x(i) > 0.0 and y(i) > 0.0 for i in cell):
                    cell_sum = 0.0
                    for i in cell:
                        cell_sum += float(apply_array(t, x(i), y(i)))
                    want += cell_sum * float(measure)
            assert intersection_kernel(x, y, t, p) == want

    def test_random_partition_caps_cells_at_ground_size(self):
        rng = np.random.default_rng(23)
        for n in range(1, 8):
            for n_cells in range(1, n + 3):
                p = oracles.random_partition(rng, n, n_cells)
                assert isinstance(p, Partition)
                assert p.size == n
                assert len(p.cells) == min(n_cells, n)


class TestNonsingleton:
    def test_self_kernel_is_height(self, line_ground):
        x = DiscreteFuzzySet(line_ground, {0: 0.3, 4: 0.9})
        assert nonsingleton_kernel(x, x, TNorm.MINIMUM) == 0.9

    @pytest.mark.parametrize("t", list(TNorm))
    def test_disjoint_supports(self, line_ground, t):
        x = DiscreteFuzzySet(line_ground, {0: 0.6})
        y = DiscreteFuzzySet(line_ground, {1: 0.9})
        assert nonsingleton_kernel(x, y, t) == 0.0

    @pytest.mark.parametrize("t", list(TNorm))
    def test_empty_set_gives_zero(self, line_ground, t):
        x = DiscreteFuzzySet(line_ground, {})
        y = DiscreteFuzzySet(line_ground, {0: 1.0, 1: 0.5})
        assert nonsingleton_kernel(x, y, t) == nonsingleton_kernel(y, x, t) == nonsingleton_kernel(x, x, t) == 0.0

    def test_exhaustive_max(self, line_ground):
        x = DiscreteFuzzySet(line_ground, {0: 0.6, 1: 0.9})
        y = DiscreteFuzzySet(line_ground, {0: 0.9, 1: 0.5})
        v = nonsingleton_kernel(x, y, TNorm.PRODUCT)
        assert v == pytest.approx(max(0.6 * 0.9, 0.9 * 0.5))

    @pytest.mark.parametrize("tname", ["min", "product", "lukasiewicz", "drastic"])
    def test_matches_bruteforce(self, tname):
        rng = np.random.default_rng(31)
        t = TNorm(tname)
        g = GroundSpace(rng.uniform(-1, 1, size=(10, 1)))
        for _ in range(20):
            x = oracles.random_discrete(rng, g, allow_empty=True)
            y = oracles.random_discrete(rng, g, allow_empty=True)
            assert nonsingleton_kernel(x, y, t) == pytest.approx(
                oracles.bf_nonsingleton(x, y, "min" if tname == "min" else tname),
                abs=1e-15,
            )


class TestNonsingletonGaussian:
    def test_identical_sets(self):
        x = GaussianFuzzySet([0.0, 1.0], [1.0, 2.0])
        assert nonsingleton_gaussian_kernel(x, x) == 1.0

    def test_one_dim_value(self):
        x = GaussianFuzzySet([0.0], [1.0])
        y = GaussianFuzzySet([2.0], [1.0])
        assert nonsingleton_gaussian_kernel(x, y) == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_grid_supremum_oracle_one_dim(self):
        x = GaussianFuzzySet([0.0], [1.0])
        y = GaussianFuzzySet([2.0], [1.0])
        closed = nonsingleton_gaussian_kernel(x, y)
        grid = oracles.grid_sup_gaussian_product([0.0], [1.0], [2.0], [1.0])
        assert abs(closed - grid) < 1e-6

    def test_dimension_mismatch(self):
        x = GaussianFuzzySet([0.0], [1.0])
        y = GaussianFuzzySet([0.0, 0.0], [1.0, 1.0])
        with pytest.raises(ValidationError, match="dimension mismatch: 1 vs 2"):
            nonsingleton_gaussian_kernel(x, y)

    def test_monotone_in_mean_gap(self):
        widths = [0.7]
        gaps = np.linspace(0.0, 5.0, 11)
        vals = [
            nonsingleton_gaussian_kernel(GaussianFuzzySet([0.0], widths), GaussianFuzzySet([g], widths))
            for g in gaps
        ]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert all(0 < v <= 1 for v in vals)


class TestRatioDistance:
    def test_identical_sets(self, line_ground):
        x = DiscreteFuzzySet(line_ground, {0: 0.4, 2: 0.8})
        assert ratio_distance(x, x) == 0.0

    def test_two_term_example(self, line_ground):
        x = DiscreteFuzzySet(line_ground, {0: 1.0})
        y = DiscreteFuzzySet(line_ground, {0: 0.5})
        assert ratio_distance(x, y) == pytest.approx(0.5 / 1.5)

    def test_disjoint_supports(self, line_ground):
        x = DiscreteFuzzySet(line_ground, {0: 0.7})
        y = DiscreteFuzzySet(line_ground, {1: 0.2, 3: 0.4})
        assert ratio_distance(x, y) == 1.0

    def test_both_empty_rejected(self, line_ground):
        x = DiscreteFuzzySet(line_ground, {})
        with pytest.raises(ValidationError, match="undefined for two empty fuzzy sets"):
            ratio_distance(x, x)

    def test_breaks_the_triangle_inequality(self, line_ground):
        # on crisp sets it is one minus the Dice coefficient, a distance but no metric
        a, b, c = (DiscreteFuzzySet(line_ground, dict.fromkeys(s, 1.0)) for s in ([0], [1], [0, 1]))
        assert ratio_distance(a, b) == 1.0
        assert ratio_distance(a, c) == ratio_distance(c, b) == pytest.approx(1 / 3)
        assert ratio_distance(a, b) > ratio_distance(a, c) + ratio_distance(c, b)

    @given(
        dx=st.dictionaries(st.integers(0, 5), st.floats(1e-3, 1.0), max_size=6),
        dy=st.dictionaries(st.integers(0, 5), st.floats(1e-3, 1.0), max_size=6),
    )
    def test_symmetric_bounded(self, dx, dy):
        if not dx and not dy:
            return
        g = GroundSpace([[float(i)] for i in range(6)])
        x = DiscreteFuzzySet(g, dx)
        y = DiscreteFuzzySet(g, dy)
        d = ratio_distance(x, y)
        assert 0.0 <= d <= 1.0
        assert d == ratio_distance(y, x)

    @given(
        dx=st.dictionaries(st.integers(0, 5), st.floats(1e-3, 1.0), min_size=1, max_size=6),
        dy=st.dictionaries(st.integers(0, 5), st.floats(1e-3, 1.0), max_size=6),
        c=st.floats(1e-3, 1.0),
    )
    @settings(max_examples=60)
    def test_scale_invariance(self, dx, dy, c):
        g = GroundSpace([[float(i)] for i in range(6)])
        x = DiscreteFuzzySet(g, dx)
        y = DiscreteFuzzySet(g, dy)
        xs = DiscreteFuzzySet(g, {i: c * d for i, d in dx.items()})
        ys = DiscreteFuzzySet(g, {i: c * d for i, d in dy.items()})
        assert ratio_distance(xs, ys) == pytest.approx(ratio_distance(x, y), rel=1e-12)

    def test_zero_iff_equal(self, line_ground):
        x = DiscreteFuzzySet(line_ground, {0: 0.4, 2: 0.8})
        y = DiscreteFuzzySet(line_ground, {0: 0.4, 2: 0.7})
        assert ratio_distance(x, y) > 0.0


class TestDistanceKernels:
    @pytest.fixture
    def trio(self, line_ground):
        x = DiscreteFuzzySet(line_ground, {0: 1.0})
        y = DiscreteFuzzySet(line_ground, {1: 1.0})
        z = DiscreteFuzzySet(line_ground, {0: 0.5, 1: 0.5})
        return x, y, z

    def test_inner_with_equal_args(self, trio):
        x, _, z = trio
        assert distance_inner(x, x, z) == pytest.approx(ratio_distance(x, z) ** 2)

    def test_inner_at_reference_vanishes(self, trio):
        x, y, _ = trio
        assert distance_inner(x, y, x) == pytest.approx(0.0)

    def test_inner_three_call_composition(self, trio):
        x, y, z = trio
        dxz = ratio_distance(x, z)
        dyz = ratio_distance(y, z)
        dxy = ratio_distance(x, y)
        assert distance_inner(x, y, z) == pytest.approx(0.5 * (dxz**2 + dyz**2 - dxy**2))
        # by hand: d(x,z) = (0.5 + 0.5) / (1.5 + 0.5) = 0.5 = d(y,z), d(x,y) = 1
        assert (dxz, dyz, dxy) == (0.5, 0.5, 1.0)
        assert distance_inner(x, y, z) == pytest.approx(0.5 * (0.25 + 0.25 - 1.0))

    def test_polynomial_degenerate_is_inner(self, trio):
        x, y, z = trio
        assert distance_polynomial_kernel(x, y, z, coef0=0.0, gamma=1.0, degree=1) == pytest.approx(
            distance_inner(x, y, z)
        )

    def test_polynomial_at_reference(self, trio):
        x, y, _ = trio
        v = distance_polynomial_kernel(x, y, x, coef0=1.0, gamma=1.0, degree=2)
        assert v == pytest.approx(1.0)

    def test_polynomial_rejects_zero_degree(self, trio):
        x, y, z = trio
        with pytest.raises(ValueError):
            distance_polynomial_kernel(x, y, z, degree=0)

    def test_gaussian_identical(self, trio):
        x, _, _ = trio
        assert distance_gaussian_kernel(x, x, gamma=1.0) == 1.0

    def test_gaussian_disjoint(self, trio):
        x, y, _ = trio
        assert distance_gaussian_kernel(x, y, gamma=1.0) == pytest.approx(math.exp(-1.0))

    def test_gaussian_plugin(self):
        # gamma=2, d=0.5 -> exp(-0.5), via a stub metric
        g = GroundSpace([[0.0]])
        x = DiscreteFuzzySet(g, {0: 1.0})
        v = distance_gaussian_kernel(x, x, d=lambda a, b: 0.5, gamma=2.0)
        assert v == pytest.approx(math.exp(-0.5))

    def test_gaussian_rejects_bad_gamma(self, trio):
        x, y, _ = trio
        with pytest.raises(ValueError):
            distance_gaussian_kernel(x, y, gamma=0.0)


# a reference that parses without a ground space
GAUSSIAN_REFERENCE = {"type": "gaussian", "m": [0.0], "sigma": [1.0]}

# the spec fields each family takes; the family table in kernels.py must agree
TAKES = {
    "cross_product": {"k1", "k2"},
    "weighted_cross_product": {"k1", "k2", "weights"},
    "intersection": {"tnorm"},
    "nonsingleton": {"tnorm"},
    "nonsingleton_gaussian": set(),
    "distance_inner": {"metric", "reference"},
    "distance_poly": {"metric", "reference", "coef0", "gamma", "degree"},
    "distance_gaussian": {"metric", "gamma"},
}
# a value other than the default for every field; weights is an array, which
# must not be compared elementwise
FIELD_VALUES = {
    "k1": RBFKernel(gamma=0.5),
    "k2": PolynomialKernel(),
    "tnorm": TNorm.MINIMUM,
    "weights": np.zeros(3),
    "metric": ratio_distance,
    "reference": GaussianFuzzySet([0.0], [1.0]),
    "coef0": 1.0,
    "gamma": 2.0,
    "degree": 3,
}


@pytest.mark.parametrize(
    "family, field",
    [(family, field) for family, takes in TAKES.items() for field in FIELD_VALUES if field not in takes],
)
def test_field_not_taken_is_rejected(family, field):
    with pytest.raises(ValidationError, match=f"kernel family '{family}' takes no '{field}'"):
        FuzzyKernelSpec(family=family, **{field: FIELD_VALUES[field]})


@pytest.mark.parametrize("n_refs, arity", [(3, 2), (2, 1), (2, 3)])
def test_reference_count_is_one_or_the_arity(line_ground, n_refs, arity):
    # three references on two-attribute records once used the first two, and
    # two on one-attribute records the first
    x = DiscreteFuzzySet(line_ground, {0: 1.0, 1: 0.5})
    r = DiscreteFuzzySet(line_ground, {1: 0.5, 2: 1.0})
    spec = FuzzyKernelSpec(family="distance_inner", reference=(r,) * n_refs)
    want = rf"pair \(x, y\): reference has {n_refs} attributes but records have {arity}"
    with pytest.raises(ValidationError, match=want):
        evaluate(spec, (x,) * arity, (x,) * arity)
    for count in (1, arity):
        spec = FuzzyKernelSpec(family="distance_inner", reference=(r,) * count)
        assert evaluate(spec, (x,) * arity, (x,) * arity) == pytest.approx(distance_inner(x, x, r) ** arity)


class TestEvaluateDispatch:
    def test_nonsingleton_gaussian_identical_records(self):
        spec = FuzzyKernelSpec(family="nonsingleton_gaussian")
        rec = (GaussianFuzzySet([0.0], [1.0]), GaussianFuzzySet([3.0], [0.5]))
        assert evaluate(spec, rec, rec) == 1.0

    def test_cross_product_delegation(self, line_ground):
        spec = FuzzyKernelSpec(family="cross_product")
        x = DiscreteFuzzySet(line_ground, {2: 0.5})
        y = DiscreteFuzzySet(line_ground, {3: 1.0})
        assert evaluate(spec, x, y) == pytest.approx(3.0)

    def test_two_attribute_product(self):
        spec = FuzzyKernelSpec(family="nonsingleton_gaussian")
        xa = (GaussianFuzzySet([0.0], [1.0]), GaussianFuzzySet([0.0], [2.0]))
        ya = (GaussianFuzzySet([2.0], [1.0]), GaussianFuzzySet([1.0], [2.0]))
        want = nonsingleton_gaussian_kernel(xa[0], ya[0]) * nonsingleton_gaussian_kernel(xa[1], ya[1])
        assert evaluate(spec, xa, ya) == pytest.approx(want, rel=1e-12)
        # cross-check against the direct two-dimensional closed form
        direct = nonsingleton_gaussian_kernel(
            GaussianFuzzySet([0.0, 0.0], [1.0, 2.0]), GaussianFuzzySet([2.0, 1.0], [1.0, 2.0])
        )
        assert evaluate(spec, xa, ya) == pytest.approx(direct, rel=1e-12)

    def test_family_datum_mismatch(self, line_ground):
        spec = FuzzyKernelSpec(family="nonsingleton_gaussian")
        x = DiscreteFuzzySet(line_ground, {0: 1.0})
        with pytest.raises(ValidationError):
            evaluate(spec, x, x)

    def test_arity_mismatch(self):
        spec = FuzzyKernelSpec(family="nonsingleton_gaussian")
        a = GaussianFuzzySet([0.0], [1.0])
        with pytest.raises(ValidationError):
            evaluate(spec, (a,), (a, a))

    def test_intersection_needs_partition(self, line_ground):
        spec = FuzzyKernelSpec(family="intersection", tnorm=TNorm.MINIMUM)
        x = DiscreteFuzzySet(line_ground, {0: 1.0})
        with pytest.raises(ValidationError):
            evaluate(spec, x, x)

    @pytest.mark.parametrize(
        "cfg",
        [
            {"family": "cross_product", "k1": {"kind": "rbf", "gamma": 0.5}, "k2": {"kind": "linear"}},
            {"family": "intersection", "tnorm": "min"},
            {"family": "nonsingleton", "tnorm": "product"},
            {"family": "nonsingleton_gaussian"},
            {"family": "distance_gaussian", "gamma": 2.0},
            # every family once with every key it takes
            {
                "family": "weighted_cross_product",
                "k1": {"kind": "rbf", "gamma": 0.5},
                "k2": {"kind": "polynomial", "degree": 2},
                "weights": [1.0, 0.5],
            },
            {"family": "distance_inner", "metric": "ratio", "reference": GAUSSIAN_REFERENCE},
            {
                "family": "distance_poly",
                "metric": "ratio",
                "reference": [GAUSSIAN_REFERENCE],
                "coef0": 1.0,
                "gamma": 0.5,
                "degree": 2,
            },
            {"family": "distance_gaussian", "metric": "ratio", "gamma": 2.0},
        ],
    )
    def test_spec_from_config_round_trips_family(self, cfg):
        spec = spec_from_config(cfg)
        assert spec.family == cfg["family"]

    @pytest.mark.parametrize("form", ["value", "NAME", "Name", "member"])
    @pytest.mark.parametrize("t", list(TNorm))
    def test_spec_from_config_reads_a_tnorm_name_or_member(self, line_ground, t, form):
        # a member once went to the name lookup's refusal: "unknown T-norm value <TNorm.MINIMUM: 'min'>"
        tnorm = {"value": t.value, "NAME": t.name, "Name": t.name.title(), "member": t}[form]
        spec = spec_from_config({"family": "nonsingleton", "tnorm": tnorm}, line_ground)
        assert spec.tnorm is t

    @pytest.mark.parametrize("bad", ["hamacher", 3, None, ["min"], np.array([[1.0, 2.0]])], ids=repr)
    def test_spec_from_config_refuses_what_names_no_tnorm(self, line_ground, bad):
        with pytest.raises(ValidationError, match="unknown T-norm value"):
            spec_from_config({"family": "nonsingleton", "tnorm": bad}, line_ground)

    def test_spec_from_config_reference(self, line_ground):
        cfg = {
            "family": "distance_inner",
            "reference": {"type": "discrete", "degrees": {"0": 0.5, "1": 0.5}},
        }
        spec = spec_from_config(cfg, line_ground)
        assert len(spec.reference) == 1
        assert spec.reference[0].degrees[0] == 0.5
        with pytest.raises(ValidationError):
            spec_from_config(cfg)  # no ground space to resolve against

    def test_single_reference_set_is_wrapped(self, line_ground):
        # a Gaussian reference is accepted by the spec; evaluation rejects its kind
        g = GaussianFuzzySet([0.0], [1.0])
        spec = FuzzyKernelSpec(family="distance_inner", reference=g)
        assert len(spec.reference) == 1 and spec.reference[0] is g
        x = DiscreteFuzzySet(line_ground, {0: 1.0})
        with pytest.raises(ValidationError, match="reference must be a DiscreteFuzzySet"):
            evaluate(spec, x, x)

    @pytest.mark.parametrize("weights", ["12", b"12", {"0": 1, "1": 3}, [1.0, "2"], [1.0, True], [1.0, [2.0]]])
    def test_weights_must_be_a_list_of_numbers(self, weights):
        # the first three iterate to numbers: (1, 2), (49, 50) and the keys (0, 1);
        # a list names its first element that is no number
        match = r"weights\[1\] must be a number" if isinstance(weights, list) else "weights must be a list"
        with pytest.raises(ValidationError, match=match):
            FuzzyKernelSpec(family="weighted_cross_product", weights=weights)

    @pytest.mark.parametrize("refs", [(), []])
    def test_empty_reference_rejected(self, refs):
        with pytest.raises(ValidationError, match="reference"):
            FuzzyKernelSpec(family="distance_poly", reference=refs)

    def test_spec_validation(self):
        with pytest.raises(ValidationError):
            FuzzyKernelSpec(family="wavelet")
        with pytest.raises(ValidationError):
            FuzzyKernelSpec(family="intersection")  # missing tnorm
        with pytest.raises(ValidationError):
            FuzzyKernelSpec(family="weighted_cross_product")  # missing weights
        with pytest.raises(ValidationError):
            FuzzyKernelSpec(family="distance_gaussian", gamma=0.0)
        with pytest.raises(ValidationError):
            FuzzyKernelSpec(family="distance_inner")  # missing reference

    def test_symmetry_across_families(self, line_ground):
        rng = np.random.default_rng(41)
        x = oracles.random_discrete(rng, line_ground)
        y = oracles.random_discrete(rng, line_ground)
        ref = DiscreteFuzzySet(line_ground, {0: 0.5, 3: 0.5})
        specs = [
            FuzzyKernelSpec(family="cross_product", k1=RBFKernel(gamma=0.3)),
            FuzzyKernelSpec(family="weighted_cross_product", weights=tuple(rng.uniform(0, 1, 6))),
            FuzzyKernelSpec(family="nonsingleton", tnorm=TNorm.PRODUCT),
            FuzzyKernelSpec(family="distance_inner", reference=ref),
            FuzzyKernelSpec(family="distance_poly", reference=ref, coef0=1.0, gamma=0.5, degree=2),
            FuzzyKernelSpec(family="distance_gaussian", gamma=1.5),
        ]
        for spec in specs:
            assert evaluate(spec, x, y) == pytest.approx(evaluate(spec, y, x), rel=1e-14)


def _crisp(ground, *supports):
    return [DiscreteFuzzySet(ground, dict.fromkeys(support, 1.0)) for support in supports]


G4 = GroundSpace([[float(i)] for i in range(4)], Partition([[i] for i in range(4)], [1.0] * 4))


# one fixed counterexample per "not PSD in general" row of the module docstring's table
@pytest.mark.parametrize(
    "spec, data, smallest",
    [
        *(
            pytest.param(
                FuzzyKernelSpec(family="intersection", tnorm=t), [DiscreteFuzzySet(G4, {0: d}) for d in (0.5, 1.0)],
                (1 - math.sqrt(2)) / 2, id=f"intersection-{t.value}",
            )
            for t in (TNorm.LUKASIEWICZ, TNorm.DRASTIC)
        ),
        *(
            pytest.param(
                FuzzyKernelSpec(family="nonsingleton", tnorm=t), _crisp(G4, [0, 1], [0], [1]), 1 - math.sqrt(2),
                id=f"nonsingleton-{t.value}",
            )
            for t in TNorm
        ),
        pytest.param(
            FuzzyKernelSpec(family="nonsingleton_gaussian"),
            [GaussianFuzzySet([m], [s]) for m, s in ((0.0, 0.5), (1.0, 2.0), (2.0, 0.5))], -0.24812520025325566,
            id="nonsingleton_gaussian-per-record-widths",
        ),
        *(
            pytest.param(
                FuzzyKernelSpec(family=family, reference=DiscreteFuzzySet(G4, {0: 1.0})),
                _crisp(G4, [0, 1], [0, 2], [1, 2]), -0.2093520158626566, id=family,
            )
            for family in ("distance_inner", "distance_poly")
        ),
        pytest.param(
            FuzzyKernelSpec(family="distance_gaussian", gamma=1.0), _crisp(G4, [0], [1], [0, 1]),
            -0.09485214154148564, id="distance_gaussian",
        ),
    ],
)
def test_not_psd_in_general(spec, data, smallest):
    report = check_psd(compute_gram(data, spec))
    assert report.verdict == "indefinite"
    assert report.min_eigenvalue == pytest.approx(smallest, abs=1e-12)


# each "PSD" row of the module docstring's table as a property, on records of two attributes (the table's
# Schur product line), with every base-kernel parameter at its bound in kernels._RANGES (just inside an
# open one) or at an interior value, so a change to _RANGES is checked against the theorem
psd_settings = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def _in_range(name):
    least, closed, integral = kernels._RANGES[name]
    if integral:
        return st.sampled_from([least, least + 1, least + 6])
    edge = least if closed else math.nextafter(least, math.inf)
    return st.sampled_from([edge, least + 1e-3, least + 1.0, least + 1e3])


base_kernels = st.one_of(
    st.just(LinearKernel()),
    st.builds(RBFKernel, gamma=_in_range("gamma")),
    st.builds(PolynomialKernel, coef0=_in_range("coef0"), gamma=_in_range("gamma"), degree=_in_range("degree")),
)


def _discrete_records(seed, partition=False):
    """2-13 records of two attributes on 1-11 ground points at a scale of 0.01-100; with ``partition``,
    cells of random measure, a fifth of them 0, and about half the sets made of whole cells."""
    rng = np.random.default_rng(seed)
    n, scale = int(rng.integers(1, 12)), 10.0 ** rng.uniform(-2, 2)
    part = oracles.random_partition(rng, n, int(rng.integers(1, n + 1))) if partition else None
    if part is not None:
        part = Partition(part.cells, rng.uniform(0, 50, len(part.cells)) * (rng.random(len(part.cells)) < 0.8))
    ground = GroundSpace(rng.uniform(-scale, scale, (n, 2)), part)

    def one():
        whole = part is not None and rng.random() < 0.5
        return oracles.random_cell_aligned(rng, ground, part) if whole else oracles.random_discrete(rng, ground)

    return [(one(), one()) for _ in range(int(rng.integers(2, 14)))]


def assert_psd(data, spec):
    report = check_psd(compute_gram(data, spec))
    assert report.verdict == "PSD", (report.min_eigenvalue, report.max_eigenvalue)


@psd_settings
@given(seed=st.integers(0, 2**32 - 1), k1=base_kernels, k2=base_kernels, weighted=st.booleans())
def test_cross_product_is_psd(seed, k1, k2, weighted):
    data = _discrete_records(seed)
    if not weighted:
        spec = FuzzyKernelSpec(family="cross_product", k1=k1, k2=k2)
    else:  # a weight of 0, 0.5 or 3 per point
        w = np.random.default_rng(seed).choice([0.0, 0.5, 3.0], len(data[0][0].ground))
        spec = FuzzyKernelSpec(family="weighted_cross_product", k1=k1, k2=k2, weights=w)
    assert_psd(data, spec)


@psd_settings
@given(seed=st.integers(0, 2**32 - 1), tnorm=st.sampled_from([TNorm.MINIMUM, TNorm.PRODUCT]))
def test_intersection_with_min_or_product_is_psd(seed, tnorm):
    assert_psd(_discrete_records(seed, partition=True), FuzzyKernelSpec(family="intersection", tnorm=tnorm))


@psd_settings
@given(seed=st.integers(0, 2**32 - 1))
def test_nonsingleton_gaussian_with_one_width_vector_per_slot_is_psd(seed):
    rng = np.random.default_rng(seed)
    dim, scale = int(rng.integers(1, 4)), 10.0 ** rng.uniform(-2, 2)
    widths = scale * rng.uniform(0.1, 3.0, (2, dim))
    n = int(rng.integers(2, 14))
    data = [tuple(GaussianFuzzySet(scale * rng.normal(size=dim), w) for w in widths) for _ in range(n)]
    assert_psd(data, FuzzyKernelSpec(family="nonsingleton_gaussian"))
