import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fuzzykernels import (
    FuzzyKernelSpec,
    GaussianFuzzySet,
    GramMatrix,
    NumericError,
    ValidationError,
    compute_gram,
    cross_validate,
    fit,
    learn,
    mmd_permutation_test,
    mmd_statistic,
    predict,
)

import oracles


def as_gram(values):
    v = np.asarray(values, dtype=float)
    return GramMatrix(values=v)


class TestFit:
    def test_identity_gram_scales_labels(self):
        y = np.array([1.0, -1.0, 1.0, -1.0])
        model = fit(as_gram(np.eye(4)), y, regularization=0.5)
        assert model == pytest.approx(y / 1.5)

    def test_scalar_solve(self):
        model = fit(as_gram([[2.0]]), [1], regularization=1.0)
        assert model == pytest.approx([1.0 / 3.0])

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            fit(as_gram(np.eye(3)), [1, -1], regularization=1.0)

    def test_rejects_nonpositive_regularization(self):
        # an infinite ridge once reached the solver and warned about NaNs
        for ridge in (0.0, np.inf, np.nan):
            with pytest.raises(ValueError):
                fit(as_gram(np.eye(2)), [1, -1], regularization=ridge)

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

    def test_singular_system_raises_numeric_error(self):
        # G + lambda I = [[0]]
        with pytest.raises(NumericError, match="singular"):
            fit(as_gram([[-1.0]]), [1], regularization=1.0)

    def test_non_finite_coefficients_raise_numeric_error(self):
        # G + lambda I is a subnormal (~1.7e-316) whose inverse overflows
        with pytest.raises(NumericError, match="non-finite coefficients"):
            fit(as_gram([[-1e-300]]), [1], regularization=1.0000000000000002e-300)

    def test_ridge_that_overflows_the_diagonal_raises(self):
        # 1e308 + 1e308 on the diagonal once warned of overflow and solved a system with inf in it
        with pytest.raises(NumericError, match="diagonal entry 0 of gram \\+ regularization \\* I is not finite"):
            fit(np.full((2, 2), 1e308), [1, -1], 1e308)

    def test_empty_gram_rejected(self):
        # a model with no coefficients would label every test row +1
        for gram in (as_gram(np.zeros((0, 0))), np.zeros((0, 0))):
            with pytest.raises(ValidationError, match="gram must be non-empty"):
                fit(gram, [], regularization=1.0)

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
        scores = cross @ model
        pred = predict(model, cross)
        assert pred.tolist() == [1 if s >= 0 else -1 for s in scores]
        assert pred.tolist() == [-1, 1]

    def test_non_finite_decision_value_raises_naming_the_row(self):
        # row 0's exact value is 0, label +1, but its products overflow; its NaN once read as -1
        model = fit(np.eye(2) * 1e-300, [1, -1], 1e-300)
        with pytest.raises(NumericError, match="decision value of row 0 is not finite"):
            predict(model, [[1e308, 1e308], [1e308, 0.0]])

    def test_coefficients_may_be_a_list(self):
        # a list once failed with AttributeError: 'list' object has no attribute 'shape'
        assert predict([1.0, 2.0], [[1.0, 2.0]]).tolist() == [1]

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

    def test_ridge_that_overflows_the_diagonal_raises(self):
        # each fold's system once had inf on its diagonal, and the folds scored [1.0, 0.0]
        with pytest.raises(NumericError, match="diagonal entry 0 of gram \\+ regularization \\* I is not finite"):
            cross_validate(np.full((4, 4), 1e308), [1, -1, 1, -1], 1e308, folds=2, seed=0)

    def test_non_square_gram_rejected(self):
        # a 4 x 2 array once failed with a raw IndexError inside a fold
        with pytest.raises(ValueError, match="must be square"):
            cross_validate(np.ones((4, 2)), [1, -1, 1, -1], regularization=1.0, folds=2)


def _cv_case(n, psd, seed):
    """A random n x n Gram, PSD (a Gaussian Gram matrix of random points) or
    indefinite (a random symmetric matrix), and random +/-1 labels."""
    rng = np.random.default_rng(seed)
    if psd:
        x = rng.normal(size=(n, 3))
        g = np.exp(-0.5 * ((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=2))
    else:
        a = rng.normal(size=(n, n))
        g = a + a.T
    return g, np.where(rng.random(n) < 0.5, 1.0, -1.0)


# (n, PSD?, folds, seed, ridge): even and uneven folds, leave-one-out, several seeds and ridges
CV_CASES = [
    (20, True, 5, 0, 0.1), (23, True, 5, 7, 1.0), (17, True, 4, 3, 1e-6), (12, True, 12, 1, 0.5),
    (2, True, 2, 4, 1.0), (20, False, 5, 2, 0.3), (31, False, 7, 11, 2.0), (9, False, 9, 5, 1e-3),
    (40, True, 3, 2**60 + 1, 1e-8),
]


class TestCrossValidateOracle:
    @pytest.mark.parametrize("n, psd, folds, seed, ridge", CV_CASES)
    def test_equals_fit_and_predict_per_fold(self, n, psd, folds, seed, ridge):
        g, y = _cv_case(n, psd, seed % 1000)
        expected = oracles.bf_cross_validate(g, y, ridge, folds, seed)
        assert cross_validate(as_gram(g), y, ridge, folds=folds, seed=seed) == expected
        assert cross_validate(g, y.tolist(), ridge, folds=folds, seed=seed) == expected
        assert cross_validate(np.asfortranarray(g), y, ridge, folds=folds, seed=seed) == expected

    @pytest.mark.parametrize("n, psd, folds, seed, ridge", CV_CASES)
    def test_fold_coefficients_are_fits_bit_for_bit(self, n, psd, folds, seed, ridge, monkeypatch):
        g, y = _cv_case(n, psd, seed % 1000)
        solves = []

        def recording_solve(block, labels, regularization, solve=learn._dual_solve):
            solves.append((block, labels, solve(block, labels, regularization)))
            return solves[-1][2]

        monkeypatch.setattr(learn, "_dual_solve", recording_solve)
        cross_validate(g, y, ridge, folds=folds, seed=seed)
        monkeypatch.undo()
        chunks = np.array_split(np.random.default_rng(seed).permutation(n), folds)
        assert len(solves) == folds
        for k, (block, labels, coef) in enumerate(solves):
            train = np.concatenate(chunks[:k] + chunks[k + 1:])
            assert block.tobytes() == g[np.ix_(train, train)].tobytes()
            assert labels.tobytes() == y[train].tobytes()
            assert coef.tobytes() == fit(g[np.ix_(train, train)], y[train], ridge).tobytes()

    def test_zero_decision_value_predicts_plus_one(self):
        # a diagonal Gram makes every cross block zero, so each test score is
        # exactly 0 and each fold's accuracy is its share of +1 labels
        y = np.array([1.0, -1.0, -1.0, 1.0, -1.0, 1.0, 1.0])
        accuracies, _ = cross_validate(np.diag(np.arange(1.0, 8.0)), y, 0.5, folds=3, seed=5)
        chunks = np.array_split(np.random.default_rng(5).permutation(7), 3)
        assert accuracies == [float(np.mean(y[c] == 1)) for c in chunks]
        assert (accuracies, float(np.mean(accuracies))) == oracles.bf_cross_validate(
            np.diag(np.arange(1.0, 8.0)), y, 0.5, 3, 5
        )

    def test_non_finite_decision_value_raises(self):
        # the fold that tests item 2 trains on items 0 and 1, whose tiny block gives
        # coefficients near 5e299, and item 2's cross row of 1e308 overflows with them
        g = np.array([[1e-300, 0.0, 1e308], [0.0, 1e-300, 1e308], [1e308, 1e308, 1e-300]])
        with pytest.raises(NumericError, match="decision value of row 0 is not finite"):
            cross_validate(g, [1, 1, -1], 1e-300, folds=3, seed=0)

    def test_fold_gathers_no_rows_by_n_temporary(self):
        # a fold holds its m x m training block and the system G + lambda I built
        # from it; a gather that takes the m training rows first, then their
        # columns, adds an m x n temporary beside the block (1.51 MB here)
        g, y = _cv_case(500, True, 36)
        tracemalloc.start()
        try:
            cross_validate(g, y, 0.5, folds=2, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 8 * 250**2 + 16 * 8 * 500, peak

    def test_arguments_are_checked_in_order(self):
        # gram, labels, folds, seed, then regularization: each call has two bad
        # arguments and names the earlier one
        bad = {"gram": np.ones((4, 2)), "labels": [1, 2, 1, -1], "folds": 1, "seed": -1, "regularization": 0.0}
        good = {"gram": np.eye(4), "labels": [1, -1, 1, -1], "folds": 2, "seed": 0, "regularization": 1.0}
        names = list(bad)
        for i, first in enumerate(names[:-1]):
            for later in names[i + 1 :]:
                with pytest.raises(ValueError, match=rf"\b{first}\b"):
                    cross_validate(**{**good, first: bad[first], later: bad[later]})


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

    def test_overflowing_means_raise_numeric_error(self):
        # finite entries whose sums overflow once gave NaN and a RuntimeWarning
        big = np.full((2, 2), 1e308)
        with pytest.raises(NumericError, match="MMD statistic is not finite"):
            mmd_statistic(big, big, big)

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
        return [GaussianFuzzySet([rng.normal() + shift], [width]) for _ in range(n)]

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

    @pytest.mark.parametrize(
        "values, match",
        [
            # a finite statistic (0) and row sums, but the total overflows
            ([[0.6e308, 0.6e308], [0.6e308, 0.6e308]], "pooled Gram's sums are not finite"),
            # finite sums, but twice the row sum of the replica that puts item 0 in A overflows
            ([[0.9e308, 0.05e308], [0.05e308, 1e-300]], "replica of the MMD null overflows"),
        ],
    )
    def test_overflowing_sums_raise_numeric_error(self, spec, monkeypatch, values, match):
        monkeypatch.setattr(learn, "compute_gram", lambda data, spec, n_jobs: as_gram(values))
        with pytest.raises(NumericError, match=match):
            mmd_permutation_test(["a"], ["b"], spec, n_permutations=20, seed=0)

    def test_empty_sample_rejected(self, spec):
        rng = np.random.default_rng(31)
        with pytest.raises(ValidationError, match="both samples must be non-empty"):
            mmd_permutation_test([], self._sample(rng, 3), spec, seed=0)

    def test_counts_every_repeat_of_the_observed_split(self, spec):
        # n = 1, N = 24: 13 of the 200 replicas give record 0 the smallest of
        # their 24 keys from the one random(N) stream, so draw it as sample A
        # again; re-summing the reordered B block once put every repeat below
        # the observed statistic, and the p-value came out repeats/201 too small
        rng = np.random.default_rng(1)
        pooled = [GaussianFuzzySet([rng.normal()], [0.4]) for _ in range(24)]
        res = mmd_permutation_test(pooled[:1], pooled[1:], spec, n_permutations=200, seed=0)
        stream = np.random.default_rng(0)
        repeats = sum(np.argsort(stream.random(24), kind="stable")[0] == 0 for _ in range(200))
        assert repeats == 13
        g = compute_gram(pooled, spec).values
        assert res.p_value == oracles.bf_mmd_p_value(g, 1, 200, 0)
        assert round(res.p_value * 201) >= 1 + repeats

    @pytest.mark.parametrize("n, m", [(6, 7), (7, 6)])
    def test_result_independent_of_block_size(self, spec, monkeypatch, n, m):
        # replica r takes the r-th N keys of one stream however the replicas
        # are blocked: one per block, 5 per block, and the default budget
        rng = np.random.default_rng(33)
        a = self._sample(rng, n)
        b = self._sample(rng, m, shift=0.3)
        results = []
        for budget in (1, 3 * (n + m) * 7, learn._NULL_BLOCK_ELEMENTS):
            monkeypatch.setattr(learn, "_NULL_BLOCK_ELEMENTS", budget)
            results.append(mmd_permutation_test(a, b, spec, n_permutations=250, seed=4))
        assert results[0] == results[1] == results[2]

    def test_ragged_last_block_matches_the_oracle(self, spec, monkeypatch):
        # 7 replicas per block: 250 = 35 * 7 + 5 leaves a ragged last block
        rng = np.random.default_rng(34)
        pooled = self._sample(rng, 6) + self._sample(rng, 7, shift=0.3)
        monkeypatch.setattr(learn, "_NULL_BLOCK_ELEMENTS", 4 * 13 * 7)
        res = mmd_permutation_test(pooled[:6], pooled[6:], spec, n_permutations=250, seed=4)
        assert res.p_value == oracles.bf_mmd_p_value(compute_gram(pooled, spec).values, 6, 250, 4)

    def test_replicas_over_several_blocks_and_chunks_match_the_oracle(self, spec, monkeypatch):
        # a budget of 832 gives blocks of 832 // (4 * 13) = 16 rows and chunks of 832 // 16 // 16 = 3 blocks:
        # 250 replicas are 5 whole chunks and a ragged one of 10, each chunk scored at once
        rng = np.random.default_rng(37)
        pooled = self._sample(rng, 6) + self._sample(rng, 7, shift=0.3)
        monkeypatch.setattr(learn, "_NULL_BLOCK_ELEMENTS", 832)
        heights, select = [], learn._smaller_sample_rows
        monkeypatch.setattr(
            learn, "_smaller_sample_rows", lambda keys, n, m: heights.append(len(keys)) or select(keys, n, m)
        )
        res = mmd_permutation_test(pooled[:6], pooled[6:], spec, n_permutations=250, seed=4)
        assert heights == [16] * 15 + [10]
        assert res.p_value == oracles.bf_mmd_p_value(compute_gram(pooled, spec).values, 6, 250, 4)
        assert 1 < round(res.p_value * 251) < 251  # some replicas count and some do not

    def test_null_pass_memory_is_blocked(self, spec):
        # 5000 replicas' 120 keys drawn up front take 4.8 MB; blocks stay
        # within the Gram and the block budget, whether A (60 + 60) or B
        # (61 + 59) is marked
        for n, m in [(60, 60), (61, 59)]:
            rng = np.random.default_rng(32)
            a = self._sample(rng, n)
            b = self._sample(rng, m, shift=0.4)
            tracemalloc.start()
            try:
                mmd_permutation_test(a, b, spec, n_permutations=5000, seed=0)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 4 * 8 * (120 * 120 + learn._NULL_BLOCK_ELEMENTS), (n, m)

    def test_null_allocates_no_gram_sized_float_array(self, spec, monkeypatch):
        # beyond the Gram itself, the null takes the block budget and the N x N bool finite checks of
        # mmd_statistic; the tolerance's max|G| was once an N x N float temporary, 2.9 MB at N = 600
        x = np.random.default_rng(35).normal(size=(600, 3))
        g = np.exp(-0.5 * ((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=2))
        monkeypatch.setattr(learn, "compute_gram", lambda records, spec, n_jobs: as_gram(g))
        tracemalloc.start()
        try:
            mmd_permutation_test([None] * 300, [None] * 300, spec, n_permutations=2000, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 8 * learn._NULL_BLOCK_ELEMENTS + 600 * 600, peak

    def test_large_null_blocks_grow_with_the_gram(self, spec, monkeypatch):
        # above N = 1024 a block's four N-wide temporaries hold N^2 / 16 elements, not the fixed budget:
        # 17 rows at N = 1100, where the budget alone gives 14.  Beyond the Gram, the null's peak is one
        # such block of 8-byte elements, plus N^2 / 4 bytes for the previous block's M or mmd_statistic's bool
        # check of a sample's block: 0.66 of 0.91 MB here, and 1.29 MB with blocks of N^2 / 8
        total = 1100
        x = np.random.default_rng(36).normal(size=(total, 3))
        sq = (x * x).sum(axis=1)
        g = np.exp(-0.5 * np.maximum(sq[:, None] + sq[None, :] - 2 * x @ x.T, 0.0))
        monkeypatch.setattr(learn, "compute_gram", lambda records, spec, n_jobs: as_gram(g))
        heights, select = [], learn._smaller_sample_rows
        monkeypatch.setattr(
            learn, "_smaller_sample_rows", lambda keys, n, m: heights.append(len(keys)) or select(keys, n, m)
        )
        tracemalloc.start()
        try:
            mmd_permutation_test([None] * 551, [None] * 549, spec, n_permutations=100, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert learn._NULL_BLOCK_ELEMENTS // (4 * total) == 14
        assert heights == [17] * 5 + [15]
        assert peak <= 8 * max(learn._NULL_BLOCK_ELEMENTS, total * total // 16) + total * total // 4, peak

    def test_null_count_between_none_and_all_at_the_benchmark_shape(self, spec):
        # the benchmark's MMD shape (60 + 60 records, one 3-D Gaussian attribute whose width vector
        # every record shares) counts no replica there, so a wrongly picked replica would not show in
        # its p-value; here both samples share one law, and 28 of 300 replicas, in 3 blocks, count
        rng = np.random.default_rng(0)
        widths = rng.uniform(0.5, 1.0, size=3)
        pooled = [GaussianFuzzySet(rng.normal(0.0, 0.3, size=3), widths) for _ in range(120)]
        res = mmd_permutation_test(pooled[:60], pooled[60:], spec, n_permutations=300, seed=0)
        assert res.p_value == oracles.bf_mmd_p_value(compute_gram(pooled, spec).values, 60, 300, 0)
        assert res.p_value * 301 == pytest.approx(29)


@pytest.mark.parametrize("n, m", [(1, 5), (3, 3), (4, 2), (5, 1), (1, 1), (150, 150), (1, 299), (299, 1)])
def test_split_of_tied_keys_is_the_stable_argsort_split(n, m):
    """Keys whose n-th and (n+1)-th smallest are equal split as the first n
    of a stable argsort, the lower record index first, with A or B marked;
    so do random untied rows.  N = 300 passes numpy's small-array sort sizes."""
    base = (np.random.default_rng(n + m).permutation(n + m) + 1.0) / (n + m + 1)
    keys = np.tile(base, (10, 1))  # row 5 keeps its distinct keys
    keys[6:] = np.random.default_rng(n * m).random((4, n + m))
    keys[2:4] = keys[2:4, ::-1]  # the tied pair in the other record order
    for row in (0, 2):
        order = np.argsort(keys[row])
        keys[row, order[n]] = keys[row, order[n - 1]]  # tie at the lower key
        keys[row + 1, order[n - 1]] = keys[row + 1, order[n]]  # tie at the higher key
    keys[4] = 0.5  # every key equal
    want = np.zeros(keys.shape)
    for row, ranked in enumerate(np.argsort(keys, axis=1, kind="stable")):
        want[row, ranked[:n] if n <= m else ranked[n:]] = 1.0
    assert (want.sum(axis=1) == min(n, m)).all()
    np.testing.assert_array_equal(learn._smaller_sample_rows(keys, n, m), want)


def _stable_split(keys, n, m):
    """0/1 rows of the smaller sample, where A is the first n of each row's stable argsort."""
    in_a = np.argsort(np.argsort(keys, kind="stable"), kind="stable") < n
    return (in_a if n <= m else ~in_a).astype(float)


@pytest.mark.parametrize("n, m", [(3, 4), (4, 3), (1, 6), (6, 1)])
def test_split_where_float32_rounding_merges_the_boundary_keys(n, m):
    """Rows are sorted as float32, so doubles that round to one float32 at the n-th and (n+1)-th smallest
    key, or tie exactly there, must still split as the stable argsort of the doubles."""
    near = np.nextafter(0.5, 1.0)
    assert np.float32(near) == np.float32(0.5) and near != 0.5
    below, above, top = np.linspace(0.1, 0.4, n - 1), np.linspace(0.6, 0.9, m - 1), 1 - 2.0 ** -np.arange(41, 40 + m)
    keys = np.array([
        [*below, near, 0.5, *above],  # distinct doubles that round to one float32, the larger first
        [*below, 0.5, near, *above],  # the same, the smaller first
        [*below, 0.5, 0.5, *above],  # an exact tie of doubles
        [*below, 1 - 2.0**-30, 1 - 2.0**-40, *top],  # every key from the n-th on rounds up to 1.0f
        [*below, 1 - 2.0**-20, 1 - 2.0**-40, *top],  # the n-th is a float32 below 1.0f
    ])[:, np.random.default_rng(0).permutation(n + m)]  # the boundary keys among the others
    np.testing.assert_array_equal(learn._smaller_sample_rows(keys, n, m), _stable_split(keys, n, m))


# derandomized, so every run of the suite draws the same instances
@settings(max_examples=200, deadline=None, derandomize=True)
@given(n=st.integers(1, 40), m=st.integers(1, 40), bits=st.integers(1, 30), seed=st.integers(0, 2**32 - 1))
def test_split_of_keys_on_a_fine_grid_is_the_stable_argsort_split(n, m, bits, seed):
    """Keys 1 - k 2^-30 for k in [1, 2^bits]: float32 spaces [0.5, 1) by 2^-24, so it merges up to 64 grid
    points, and a small ``bits`` makes exact ties of doubles common too."""
    k = np.random.default_rng(seed).integers(1, 2**bits, size=(8, n + m), endpoint=True)
    keys = 1.0 - k * 2.0**-30
    np.testing.assert_array_equal(learn._smaller_sample_rows(keys, n, m), _stable_split(keys, n, m))


def _mmd_values(kind, n, m, rng):
    """One-dimensional sample values of a differential case."""
    if kind == "identical":
        a = rng.normal(size=n)
        return a, a.copy()
    if kind == "constant":  # every Gram entry equal
        return np.full(n, 0.3), np.full(m, 0.3)
    if kind == "duplicated":  # records repeat, so distinct splits tie
        pool = rng.normal(size=3)
        return rng.choice(pool, n), rng.choice(pool, m)
    return rng.normal(size=n), rng.normal(0.5, 1.0, size=m)


# derandomized, so every run of the suite draws the same instances
@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(["shifted", "identical", "constant", "duplicated"]),
    n=st.integers(1, 40),
    m=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
    permutations=st.integers(1, 60),
)
# N = 2 and 3: a third to half of the replicas repeat the observed split
@example(kind="shifted", n=1, m=1, seed=0, permutations=60)
@example(kind="shifted", n=2, m=1, seed=1, permutations=60)
@example(kind="duplicated", n=1, m=2, seed=2, permutations=60)
@example(kind="identical", n=40, m=40, seed=3, permutations=60)
@example(kind="constant", n=1, m=40, seed=4, permutations=60)
@example(kind="shifted", n=40, m=1, seed=5, permutations=60)
def test_mmd_permutation_test_matches_tie_oracle(kind, n, m, seed, permutations):
    """p-value equal to the brute-force oracle's, and the statistic bit-equal
    to mmd_statistic of the given split."""
    spec = FuzzyKernelSpec(family="nonsingleton_gaussian")
    a, b = _mmd_values(kind, n, m, np.random.default_rng(seed))
    pooled = [GaussianFuzzySet([v], [0.4]) for v in np.concatenate([a, b])]
    n = len(a)
    res = mmd_permutation_test(pooled[:n], pooled[n:], spec, n_permutations=permutations, seed=seed)
    g = compute_gram(pooled, spec).values
    assert res.statistic == mmd_statistic(g[:n, :n], g[n:, n:], g[:n, n:])
    assert res.p_value == oracles.bf_mmd_p_value(g, n, permutations, seed)


@pytest.mark.parametrize(
    "call, match",
    [
        pytest.param(lambda: fit(as_gram(np.eye(2)), [[1, -1]], 1.0), "flat vector", id="fit-nested-labels"),
        pytest.param(
            lambda: cross_validate(as_gram(np.eye(4)), [1, -1, 1], 1.0, folds=2), "labels must match",
            id="cv-label-count",
        ),
        # a fractional, string or missing fold count once ended in a raw TypeError
        pytest.param(
            lambda: cross_validate(as_gram(np.eye(4)), [1, -1, 1, -1], 1.0, folds=2.5), "folds must be an integer",
            id="cv-fractional-folds",
        ),
        pytest.param(
            lambda: mmd_statistic(np.ones((0, 0)), np.eye(2), np.ones((0, 2))), "two non-empty samples",
            id="mmd-empty-sample",
        ),
        pytest.param(
            lambda: mmd_permutation_test(
                [GaussianFuzzySet([0.0], [1.0])], [GaussianFuzzySet([1.0], [1.0])],
                FuzzyKernelSpec(family="nonsingleton_gaussian"), n_permutations=0,
            ),
            "n_permutations must be finite and >= 1", id="mmd-no-permutations",
        ),
    ],
)
def test_bad_arguments_raise_value_error(call, match):
    with pytest.raises(ValidationError, match=match):
        call()
