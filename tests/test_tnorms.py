import numpy as np
import pytest
from hypothesis import given, strategies as st

from fuzzykernels import (
    DiscreteFuzzySet,
    GroundSpace,
    Partition,
    TNorm,
    ValidationError,
    apply_array,
    intersection_kernel,
    kernels,
    nonsingleton_kernel,
)

ALL_TNORMS = list(TNorm)
unit = st.floats(0.0, 1.0)


class TestApplyArray:
    def test_limit_condition_product(self):
        assert apply_array(TNorm.PRODUCT, 0.5, 1.0) == 0.5

    def test_lukasiewicz_clips_at_zero(self):
        assert apply_array(TNorm.LUKASIEWICZ, 0.4, 0.5) == 0.0

    def test_drastic_zero_when_neither_is_one(self):
        assert apply_array(TNorm.DRASTIC, 0.4, 0.5) == 0.0

    def test_minimum(self):
        assert apply_array(TNorm.MINIMUM, 0.3, 0.7) == 0.3

    def test_rejects_a_name_for_a_tnorm(self):
        with pytest.raises(ValidationError, match="t must be a TNorm, got 'min'"):
            apply_array("min", 0.5, 0.5)

    def test_name_aliases(self):
        assert TNorm("min") is TNorm.MINIMUM
        assert TNorm("MINIMUM") is TNorm.MINIMUM
        assert TNorm("Product") is TNorm.PRODUCT
        assert TNorm("lukasiewicz") is TNorm.LUKASIEWICZ
        assert TNorm("DRASTIC") is TNorm.DRASTIC
        assert TNorm(TNorm.MINIMUM) is TNorm.MINIMUM  # a member is itself
        with pytest.raises(ValueError):
            TNorm("hamacher")

    @pytest.mark.parametrize("bad", ["hamacher", 5, None, np.array([[1.0, 2.0]])], ids=repr)
    def test_refuses_what_names_no_tnorm(self, bad):
        with pytest.raises(ValidationError, match="unknown T-norm value"):
            TNorm(bad)

    @pytest.mark.parametrize("t", ALL_TNORMS)
    def test_every_member_by_value_name_and_itself(self, t):
        for name in (t.value, t.value.upper(), t.name, t.name.lower(), t.name.title(), t):
            assert TNorm(name) is t

    @pytest.mark.parametrize("t", ALL_TNORMS)
    def test_empty_operands_give_an_empty_float_array(self, t):
        # two sets with no common support: the reference kernels call it with two empty lists
        out = apply_array(t, [], [])
        assert out.shape == (0,) and out.dtype == np.float64

    @pytest.mark.parametrize("t", ALL_TNORMS)
    @given(pairs=st.lists(st.tuples(unit, unit), max_size=8))
    def test_elementwise_matches_scalar_calls(self, t, pairs):
        # the reference kernels call it once over a whole common support
        out = apply_array(t, [a for a, _ in pairs], [b for _, b in pairs])
        assert out.shape == (len(pairs),)
        assert out.tolist() == [float(apply_array(t, a, b)) for a, b in pairs]


class TestAxioms:
    @pytest.mark.parametrize("t", ALL_TNORMS)
    @given(a=unit, b=unit)
    def test_commutative(self, t, a, b):
        assert apply_array(t, a, b) == apply_array(t, b, a)

    @pytest.mark.parametrize("t", ALL_TNORMS)
    @given(a=unit, b=unit, c=unit)
    def test_associative(self, t, a, b, c):
        left = apply_array(t, a, apply_array(t, b, c))
        right = apply_array(t, apply_array(t, a, b), c)
        assert left == pytest.approx(right, abs=1e-15)

    @pytest.mark.parametrize("t", ALL_TNORMS)
    @given(a=unit, b=unit, c=unit)
    def test_monotone(self, t, a, b, c):
        lo, hi = min(b, c), max(b, c)
        assert apply_array(t, a, lo) <= apply_array(t, a, hi)

    @pytest.mark.parametrize("t", ALL_TNORMS)
    @given(a=unit)
    def test_neutral_element_one(self, t, a):
        assert apply_array(t, a, 1.0) == pytest.approx(a, abs=1e-15)

    @given(a=unit, b=unit)
    def test_pointwise_ordering(self, a, b):
        dra = apply_array(TNorm.DRASTIC, a, b)
        luk = apply_array(TNorm.LUKASIEWICZ, a, b)
        pro = apply_array(TNorm.PRODUCT, a, b)
        mini = apply_array(TNorm.MINIMUM, a, b)
        eps = 1e-12
        assert dra <= luk + eps <= pro + 2 * eps <= mini + 3 * eps

    @pytest.mark.parametrize("t", ALL_TNORMS)
    @given(a=unit, b=unit)
    def test_codomain(self, t, a, b):
        assert 0.0 <= apply_array(t, a, b) <= 1.0


@pytest.mark.parametrize("t", ALL_TNORMS)
def test_tnorm_is_applied_once_per_pair(monkeypatch, t):
    # the two reference kernels built on the T-norm intersection call T once, over all shared points
    calls = []

    def counting(*args, apply_array=kernels.tnorm_array):
        calls.append(args)
        return apply_array(*args)

    monkeypatch.setattr(kernels, "tnorm_array", counting)
    part = Partition([[0, 1], [2, 3], [4, 5], [6, 7]])
    ground = GroundSpace([[float(i)] for i in range(8)], part)
    x = DiscreteFuzzySet(ground, {i: 1.0 - 0.1 * i for i in range(7)})
    y = DiscreteFuzzySet(ground, {i: 1.0 for i in range(1, 8)})  # 6 shared points; cells 1 and 2 in both
    for call in (nonsingleton_kernel, lambda x, y, t: intersection_kernel(x, y, t, part)):
        calls.clear()
        call(x, y, t)
        assert len(calls) == 1
