import numpy as np
import pytest
from hypothesis import given, strategies as st

from fuzzykernels import (
    DiscreteFuzzySet,
    GroundSpace,
    Partition,
    TNorm,
    ValidationError,
    apply,
    intersect,
    intersection_kernel,
    nonsingleton_kernel,
    tnorms,
)

ALL_TNORMS = list(TNorm)
unit = st.floats(0.0, 1.0)


class TestApply:
    def test_limit_condition_product(self):
        assert apply(TNorm.PRODUCT, 0.5, 1.0) == 0.5

    def test_lukasiewicz_clips_at_zero(self):
        assert apply(TNorm.LUKASIEWICZ, 0.4, 0.5) == 0.0

    def test_drastic_zero_when_neither_is_one(self):
        assert apply(TNorm.DRASTIC, 0.4, 0.5) == 0.0

    def test_minimum(self):
        assert apply(TNorm.MINIMUM, 0.3, 0.7) == 0.3

    @pytest.mark.parametrize("bad", [-0.1, 1.1, 2.0])
    @pytest.mark.parametrize("t", ALL_TNORMS)
    def test_rejects_out_of_range(self, t, bad):
        with pytest.raises(ValueError):
            apply(t, bad, 0.5)
        with pytest.raises(ValueError):
            apply(t, 0.5, bad)

    def test_rejects_a_name_for_a_tnorm(self):
        with pytest.raises(ValidationError, match="t must be a TNorm, got 'min'"):
            apply("min", 0.5, 0.5)

    def test_from_name_aliases(self):
        assert TNorm.from_name("min") is TNorm.MINIMUM
        assert TNorm.from_name("MINIMUM") is TNorm.MINIMUM
        assert TNorm.from_name("Product") is TNorm.PRODUCT
        assert TNorm.from_name("lukasiewicz") is TNorm.LUKASIEWICZ
        assert TNorm.from_name("DRASTIC") is TNorm.DRASTIC
        with pytest.raises(ValueError):
            TNorm.from_name("hamacher")

    @pytest.mark.parametrize("bad", ["hamacher", 5, None, TNorm.MINIMUM, np.array([[1.0, 2.0]])], ids=repr)
    def test_from_name_refuses_what_names_no_tnorm(self, bad):
        with pytest.raises(ValidationError, match="unknown T-norm value"):
            TNorm.from_name(bad)


class TestAxioms:
    @pytest.mark.parametrize("t", ALL_TNORMS)
    @given(a=unit, b=unit)
    def test_commutative(self, t, a, b):
        assert apply(t, a, b) == apply(t, b, a)

    @pytest.mark.parametrize("t", ALL_TNORMS)
    @given(a=unit, b=unit, c=unit)
    def test_associative(self, t, a, b, c):
        left = apply(t, a, apply(t, b, c))
        right = apply(t, apply(t, a, b), c)
        assert left == pytest.approx(right, abs=1e-15)

    @pytest.mark.parametrize("t", ALL_TNORMS)
    @given(a=unit, b=unit, c=unit)
    def test_monotone(self, t, a, b, c):
        lo, hi = min(b, c), max(b, c)
        assert apply(t, a, lo) <= apply(t, a, hi)

    @pytest.mark.parametrize("t", ALL_TNORMS)
    @given(a=unit)
    def test_neutral_element_one(self, t, a):
        assert apply(t, a, 1.0) == pytest.approx(a, abs=1e-15)

    @given(a=unit, b=unit)
    def test_pointwise_ordering(self, a, b):
        dra = apply(TNorm.DRASTIC, a, b)
        luk = apply(TNorm.LUKASIEWICZ, a, b)
        pro = apply(TNorm.PRODUCT, a, b)
        mini = apply(TNorm.MINIMUM, a, b)
        eps = 1e-12
        assert dra <= luk + eps <= pro + 2 * eps <= mini + 3 * eps

    @pytest.mark.parametrize("t", ALL_TNORMS)
    @given(a=unit, b=unit)
    def test_codomain(self, t, a, b):
        assert 0.0 <= apply(t, a, b) <= 1.0


class TestIntersect:
    @pytest.fixture
    def ground(self):
        return GroundSpace([[float(i)] for i in range(4)])

    def test_single_overlap_minimum(self, ground):
        x = DiscreteFuzzySet(ground, {0: 0.8})
        y = DiscreteFuzzySet(ground, {0: 0.5})
        assert dict(intersect(x, y, TNorm.MINIMUM).degrees) == {0: 0.5}

    @pytest.mark.parametrize("t", ALL_TNORMS)
    def test_disjoint_supports_give_empty(self, ground, t):
        x = DiscreteFuzzySet(ground, {0: 0.8, 1: 0.9})
        y = DiscreteFuzzySet(ground, {2: 0.5, 3: 1.0})
        assert intersect(x, y, t).support == frozenset()

    def test_pointwise_product_on_overlap(self, ground):
        x = DiscreteFuzzySet(ground, {0: 0.6, 1: 0.9})
        y = DiscreteFuzzySet(ground, {1: 0.9, 2: 0.3})
        out = intersect(x, y, TNorm.PRODUCT)
        assert dict(out.degrees) == pytest.approx({1: 0.81})

    @pytest.mark.parametrize("t", ALL_TNORMS)
    def test_tnorm_is_applied_once_per_pair(self, monkeypatch, t):
        # the intersection and the two reference kernels read off it once called T per shared point
        calls = []

        def counting(*args, apply_array=tnorms.apply_array):
            calls.append(args)
            return apply_array(*args)

        monkeypatch.setattr(tnorms, "apply_array", counting)
        part = Partition([[0, 1], [2, 3], [4, 5], [6, 7]])
        ground = GroundSpace([[float(i)] for i in range(8)], part)
        x = DiscreteFuzzySet(ground, {i: 1.0 - 0.1 * i for i in range(7)})
        y = DiscreteFuzzySet(ground, {i: 1.0 for i in range(1, 8)})  # 6 shared points; cells 1 and 2 in both
        for call in (intersect, nonsingleton_kernel, lambda x, y, t: intersection_kernel(x, y, t, part)):
            calls.clear()
            call(x, y, t)
            assert len(calls) == 1

    def test_mismatched_grounds_rejected(self, ground):
        other = GroundSpace([[9.0], [8.0]])
        x = DiscreteFuzzySet(ground, {0: 0.5})
        y = DiscreteFuzzySet(other, {0: 0.5})
        with pytest.raises(ValueError):
            intersect(x, y, TNorm.MINIMUM)

    @pytest.mark.parametrize("t", ALL_TNORMS)
    @given(
        dx=st.dictionaries(st.integers(0, 3), st.floats(1e-3, 1.0), max_size=4),
        dy=st.dictionaries(st.integers(0, 3), st.floats(1e-3, 1.0), max_size=4),
    )
    def test_support_shrinks(self, t, dx, dy):
        ground = GroundSpace([[float(i)] for i in range(4)])
        x = DiscreteFuzzySet(ground, dx)
        y = DiscreteFuzzySet(ground, dy)
        out = intersect(x, y, t)
        assert out.support <= (x.support & y.support)
