import numpy as np
import pytest

from fuzzykernels import (
    FuzzyKernelSpec,
    GaussianFuzzySet,
    GramMatrix,
    NumericError,
    cross_validate,
    fit,
    fuzzify_gaussian,
    mmd_permutation_test,
    mmd_statistic,
    predict,
)


def as_gram(values):
    v = np.asarray(values, dtype=float)
    return GramMatrix(values=v, spec=None, item_ids=[str(i) for i in range(v.shape[0])])


class TestFit:
    def test_identity_gram_scales_labels(self):
        y = np.array([1.0, -1.0, 1.0, -1.0])
        model = fit(as_gram(np.eye(4)), y, regularization=0.5)
        assert model.coefficients == pytest.approx(y / 1.5)
        assert model.bias == 0.0

    def test_scalar_solve(self):
        model = fit(as_gram([[2.0]]), [1], regularization=1.0)
        assert model.coefficients == pytest.approx([1.0 / 3.0])

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            fit(as_gram(np.eye(3)), [1, -1], regularization=1.0)

    def test_rejects_nonpositive_regularization(self):
        with pytest.raises(ValueError):
            fit(as_gram(np.eye(2)), [1, -1], regularization=0.0)

    def test_rejects_labels_outside_pm1(self):
        with pytest.raises(ValueError):
            fit(as_gram(np.eye(2)), [1, 2], regularization=1.0)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_gram_raises_numeric_error(self, bad):
        # np.linalg.solve does not check its input: with inf on the diagonal
        # it returns finite coefficients for a meaningless system
        g = np.eye(2)
        g[0, 0] = bad
        with pytest.raises(NumericError, match="non-finite"):
            fit(as_gram(g), [1, -1], regularization=1.0)
        with pytest.raises(NumericError, match="non-finite"):
            fit(g, [1, -1], regularization=1.0)

    def test_non_square_gram_rejected(self):
        # a 3 x 1 array once broadcast against the ridge term into a 3 x 3 system
        with pytest.raises(ValueError, match="must be square"):
            fit(np.ones((3, 1)), [1, -1, 1], regularization=1.0)


class TestPredict:
    def test_recovers_training_labels(self):
        y = np.array([1, -1, 1])
        model = fit(as_gram(np.eye(3)), y, regularization=0.5)
        pred = predict(model, np.eye(3))
        assert pred.tolist() == y.tolist()

    def test_zero_row_breaks_tie_to_plus_one(self):
        model = fit(as_gram(np.eye(2)), [1, -1], regularization=1.0)
        pred = predict(model, np.zeros((1, 2)))
        assert pred.tolist() == [1]

    def test_hand_two_by_two(self):
        model = fit(as_gram(np.eye(2)), [1, -1], regularization=1.0)
        # coefficients are [0.5, -0.5]
        cross = np.array([[0.2, 0.8], [0.9, 0.1]])
        scores = cross @ model.coefficients
        pred = predict(model, cross)
        assert pred.tolist() == [1 if s >= 0 else -1 for s in scores]
        assert pred.tolist() == [-1, 1]

    def test_shape_mismatch(self):
        model = fit(as_gram(np.eye(2)), [1, -1], regularization=1.0)
        with pytest.raises(ValueError):
            predict(model, np.zeros((1, 3)))

    def test_interpolation_with_vanishing_ridge(self):
        # strictly PD Gram + tiny ridge reproduces training labels
        rng = np.random.default_rng(20)
        a = rng.normal(size=(10, 10))
        gram = a @ a.T + 10 * np.eye(10)
        y = np.where(rng.random(10) < 0.5, 1.0, -1.0)
        model = fit(as_gram(gram), y, regularization=1e-10)
        assert predict(model, gram).tolist() == y.tolist()

    def test_joint_scaling_invariance(self):
        # scaling Gram, cross and ridge by the same c leaves predictions unchanged
        rng = np.random.default_rng(21)
        a = rng.normal(size=(8, 8))
        gram = a @ a.T + 8 * np.eye(8)
        cross = rng.normal(size=(5, 8))
        y = np.where(rng.random(8) < 0.5, 1.0, -1.0)
        base = predict(fit(as_gram(gram), y, 0.3), cross)
        for c in (0.1, 7.0, 250.0):
            scaled = predict(fit(as_gram(c * gram), y, c * 0.3), c * cross)
            assert scaled.tolist() == base.tolist()


class TestCrossValidate:
    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(22)
        a = rng.normal(size=(20, 20))
        gram = as_gram(a @ a.T + 20 * np.eye(20))
        y = np.where(rng.random(20) < 0.5, 1.0, -1.0)
        r1 = cross_validate(gram, y, regularization=0.1, folds=5, seed=7)
        r2 = cross_validate(gram, y, regularization=0.1, folds=5, seed=7)
        assert r1 == r2

    def test_fold_count_validated(self):
        gram = as_gram(np.eye(4))
        with pytest.raises(ValueError):
            cross_validate(gram, [1, -1, 1, -1], regularization=0.1, folds=1)
        with pytest.raises(ValueError):
            cross_validate(gram, [1, -1, 1, -1], regularization=0.1, folds=5)

    def test_non_square_gram_rejected(self):
        # a 4 x 2 array once failed with a raw IndexError inside a fold
        with pytest.raises(ValueError, match="must be square"):
            cross_validate(np.ones((4, 2)), [1, -1, 1, -1], regularization=1.0, folds=2)


class TestMmdStatistic:
    def test_identical_samples_cancel(self):
        g = np.array([[1.0, 0.4], [0.4, 1.0]])
        assert mmd_statistic(g, g, g) == 0.0

    def test_direct_formula(self):
        assert mmd_statistic([[1.0]], [[1.0]], [[0.5]]) == pytest.approx(1.0)

    def test_never_negative(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            a = rng.normal(size=(6, 4))
            k = a @ a.T
            assert mmd_statistic(k[:3, :3], k[3:, 3:], k[:3, 3:]) >= 0.0

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            mmd_statistic(np.eye(2), np.eye(3), np.eye(2))

    def test_non_square_sample_gram_rejected(self):
        # a 2 x 3 gxx once passed the cross-matrix check and gave 0.0
        with pytest.raises(ValueError, match="must be square"):
            mmd_statistic(np.ones((2, 3)), np.ones((2, 2)), np.ones((2, 2)))
        with pytest.raises(ValueError, match="must be square"):
            mmd_statistic(np.ones((2, 2)), np.ones((3, 2)), np.ones((2, 3)))

    def test_invariant_under_joint_permutation(self):
        rng = np.random.default_rng(24)
        a = rng.normal(size=(10, 6))
        k = a @ a.T
        gxx, gyy, gxy = k[:5, :5], k[5:, 5:], k[:5, 5:]
        base = mmd_statistic(gxx, gyy, gxy)
        pa = rng.permutation(5)
        pb = rng.permutation(5)
        permuted = mmd_statistic(
            gxx[np.ix_(pa, pa)], gyy[np.ix_(pb, pb)], gxy[np.ix_(pa, pb)]
        )
        assert permuted == pytest.approx(base, rel=1e-12)


class TestMmdPermutationTest:
    @pytest.fixture
    def spec(self):
        return FuzzyKernelSpec(family="nonsingleton_gaussian")

    def _sample(self, rng, n, shift=0.0, width=0.4):
        return [fuzzify_gaussian([rng.normal() + shift], [width]) for _ in range(n)]

    def test_identical_samples(self, spec):
        rng = np.random.default_rng(25)
        sample = self._sample(rng, 8)
        res = mmd_permutation_test(sample, list(sample), spec, n_permutations=50, seed=3)
        assert res.statistic == 0.0
        assert res.p_value == 1.0

    def test_reproducible(self, spec):
        rng = np.random.default_rng(26)
        a = self._sample(rng, 8)
        b = self._sample(rng, 8, shift=1.0)
        r1 = mmd_permutation_test(a, b, spec, n_permutations=100, seed=11)
        r2 = mmd_permutation_test(a, b, spec, n_permutations=100, seed=11)
        assert r1 == r2

    def test_parallel_matches_sequential(self, spec):
        rng = np.random.default_rng(27)
        a = self._sample(rng, 6)
        b = self._sample(rng, 7, shift=0.5)
        r1 = mmd_permutation_test(a, b, spec, n_permutations=60, seed=5, n_jobs=1)
        r8 = mmd_permutation_test(a, b, spec, n_permutations=60, seed=5, n_jobs=8)
        assert r1 == r8

    def test_p_value_range(self, spec):
        rng = np.random.default_rng(28)
        a = self._sample(rng, 6)
        b = self._sample(rng, 6, shift=4.0)
        res = mmd_permutation_test(a, b, spec, n_permutations=99, seed=1)
        assert 1.0 / 100.0 <= res.p_value <= 1.0

    def test_separated_samples_reject(self, spec):
        rng = np.random.default_rng(29)
        a = self._sample(rng, 20)
        b = self._sample(rng, 20, shift=3.0)
        res = mmd_permutation_test(a, b, spec, n_permutations=500, seed=2)
        assert res.p_value <= 0.05

    def test_result_records_provenance(self, spec):
        rng = np.random.default_rng(30)
        a = self._sample(rng, 5)
        b = self._sample(rng, 5)
        res = mmd_permutation_test(a, b, spec, n_permutations=25, seed=9)
        assert res.n_permutations == 25
        assert res.seed == 9
        assert res.generator == "numpy-pcg64"

    def test_empty_sample_rejected(self, spec):
        rng = np.random.default_rng(31)
        with pytest.raises(ValueError):
            mmd_permutation_test([], self._sample(rng, 3), spec, seed=0)
