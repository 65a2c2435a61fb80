import numpy as np
import pytest

from fuzzykernels import (
    DiscreteFuzzySet,
    FuzzyKernelSpec,
    GaussianFuzzySet,
    GramMatrix,
    GroundSpace,
    LinearKernel,
    NumericError,
    check_psd,
    compute_gram,
    cross_product_kernel,
    normalize,
    read_matrix,
    write_matrix,
)

import oracles


@pytest.fixture
def gaussian_spec():
    return FuzzyKernelSpec(family="nonsingleton_gaussian")


class TestComputeGram:
    def test_single_datum(self, gaussian_spec):
        g = compute_gram([GaussianFuzzySet([1.0], [0.5])], gaussian_spec)
        assert g.values.shape == (1, 1)
        assert g.values[0, 0] == 1.0
        assert g.item_ids == ["0"]

    def test_identical_gaussians_all_ones(self, gaussian_spec):
        data = [GaussianFuzzySet([0.0], [1.0]), GaussianFuzzySet([0.0], [1.0])]
        g = compute_gram(data, gaussian_spec)
        assert np.array_equal(g.values, np.ones((2, 2)))

    def test_three_discrete_match_bruteforce(self):
        rng = np.random.default_rng(8)
        ground = GroundSpace(rng.uniform(-1, 1, size=(8, 2)))
        data = [oracles.random_discrete(rng, ground) for _ in range(3)]
        spec = FuzzyKernelSpec(family="cross_product")
        g = compute_gram(data, spec)
        for i in range(3):
            for j in range(3):
                want = oracles.bf_cross_product_support(
                    data[i],
                    data[j],
                    lambda u, v: oracles.bf_base_eval("linear", u, v),
                    lambda u, v: oracles.bf_base_eval("linear", u, v),
                )
                assert g.values[i, j] == pytest.approx(want, rel=1e-12)

    def test_exact_symmetry(self):
        rng = np.random.default_rng(9)
        ground = GroundSpace(rng.uniform(-1, 1, size=(10, 1)))
        data = [oracles.random_discrete(rng, ground) for _ in range(12)]
        spec = FuzzyKernelSpec(family="cross_product")
        g = compute_gram(data, spec)
        assert np.array_equal(g.values, g.values.T)

    def test_order_equivariance(self, gaussian_spec):
        rng = np.random.default_rng(10)
        data = [GaussianFuzzySet([rng.normal()], [rng.uniform(0.3, 2.0)]) for _ in range(7)]
        g = compute_gram(data, gaussian_spec)
        perm = rng.permutation(7)
        g2 = compute_gram([data[i] for i in perm], gaussian_spec)
        assert np.array_equal(g2.values, g.values[np.ix_(perm, perm)])

    def test_parallel_bit_identical(self):
        rng = np.random.default_rng(11)
        ground = GroundSpace(rng.uniform(-1, 1, size=(12, 2)))
        data = [oracles.random_discrete(rng, ground) for _ in range(20)]
        spec = FuzzyKernelSpec(family="cross_product")
        seq = compute_gram(data, spec, n_jobs=1)
        par = compute_gram(data, spec, n_jobs=8)
        assert np.array_equal(seq.values, par.values)

    def test_eval_error_names_the_pair(self, gaussian_spec):
        data = [GaussianFuzzySet([0.0], [1.0]), GaussianFuzzySet([0.0, 1.0], [1.0, 1.0])]
        with pytest.raises(ValueError, match=r"\(0, 1\)"):
            compute_gram(data, gaussian_spec, item_ids=["0", "1"])

    def test_empty_dataset_rejected(self, gaussian_spec):
        with pytest.raises(ValueError):
            compute_gram([], gaussian_spec)


class TestCheckPsd:
    def test_identity_is_psd(self):
        rep = check_psd(np.eye(3))
        assert rep.verdict == "PSD"
        assert rep.min_eigenvalue == pytest.approx(1.0)

    def test_indefinite_two_by_two(self):
        rep = check_psd(np.array([[1.0, 2.0], [2.0, 1.0]]))
        assert rep.verdict == "indefinite"
        assert rep.min_eigenvalue == pytest.approx(-1.0)
        assert rep.max_eigenvalue == pytest.approx(3.0)

    def test_gaussian_gram_is_psd(self):
        rng = np.random.default_rng(12)
        widths = rng.uniform(0.3, 2.0, 2)
        data = [
            (GaussianFuzzySet([rng.normal()], [widths[0]]), GaussianFuzzySet([rng.normal()], [widths[1]]))
            for _ in range(25)
        ]
        g = compute_gram(data, FuzzyKernelSpec(family="nonsingleton_gaussian"))
        assert check_psd(g).verdict == "PSD"

    def test_nonfinite_rejected(self):
        m = np.eye(2)
        m[0, 1] = m[1, 0] = np.nan
        with pytest.raises(NumericError):
            check_psd(m)

    def test_spectrum_is_reported(self):
        rep = check_psd(np.diag([1.0, 2.0, 3.0]))
        assert rep.eigenvalues.tolist() == [1.0, 2.0, 3.0]

    def test_bad_tolerance(self):
        with pytest.raises(ValueError):
            check_psd(np.eye(2), tol=0.0)


class TestNormalize:
    def _gram(self, values):
        v = np.asarray(values, dtype=float)
        return GramMatrix(values=v, spec=None, item_ids=[str(i) for i in range(v.shape[0])])

    def test_unit_diagonal_unchanged(self):
        m = np.array([[1.0, 0.3], [0.3, 1.0]])
        out = normalize(self._gram(m))
        assert np.array_equal(out.values, m)

    def test_rank_one_example(self):
        out = normalize(self._gram([[4.0, 2.0], [2.0, 1.0]]))
        assert out.values == pytest.approx(np.ones((2, 2)))

    def test_zero_diagonal_rejected(self):
        with pytest.raises(ValueError):
            normalize(self._gram([[0.0, 0.0], [0.0, 1.0]]))

    def test_idempotent_bitwise(self):
        rng = np.random.default_rng(13)
        a = rng.normal(size=(6, 6))
        m = a @ a.T + 6 * np.eye(6)
        once = normalize(self._gram(m))
        twice = normalize(once)
        assert np.array_equal(once.values, twice.values)

    def test_preserves_psd_verdict(self):
        rng = np.random.default_rng(14)
        a = rng.normal(size=(6, 6))
        psd = a @ a.T + 6 * np.eye(6)
        indef = psd.copy()
        indef[0, 1] = indef[1, 0] = psd.max() * 3
        for m in (psd, indef):
            before = check_psd(m).verdict
            after = check_psd(normalize(self._gram(m))).verdict
            assert before == after


class TestMatrixFile:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(15)
        m = rng.normal(size=(5, 5))
        m = (m + m.T) / 2
        path = tmp_path / "gram.txt"
        write_matrix(path, m)
        back = read_matrix(path)
        assert np.array_equal(back, m)  # 17 significant digits round-trips float64

    def test_header_is_size(self, tmp_path):
        path = tmp_path / "gram.txt"
        write_matrix(path, np.eye(3))
        lines = path.read_text().splitlines()
        assert lines[0] == "3"
        assert len(lines) == 4

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("not-a-number\n")
        with pytest.raises(ValueError):
            read_matrix(path)

    @pytest.mark.parametrize(
        "text",
        [
            "-1\n",  # was a 1-D empty array
            "2\n1 2\n3 4\n5 6\n",  # rows after the n-th were ignored
            "2\n1 2\n",
            "2\n",
            "2\n1 2 3\n4 5 6\n",
            "2\n1 2\n3\n",
            "2\n1 2\n3 x\n",
            "0\n1\n",
            "",
        ],
    )
    def test_rejects_body_that_is_not_n_by_n(self, tmp_path, text):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(ValueError):
            read_matrix(path)

    @pytest.mark.parametrize("n", [0, 1])
    def test_small_round_trip(self, tmp_path, n):
        m = np.full((n, n), -0.0)
        path = tmp_path / "gram.txt"
        write_matrix(path, m)
        back = read_matrix(path)
        assert back.shape == (n, n)
        assert np.array_equal(np.signbit(back), np.signbit(m))
