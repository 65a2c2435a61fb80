import re
import tracemalloc

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
    ValidationError,
    check_psd,
    compute_gram,
    cross_product_kernel,
    normalize,
    read_matrix,
    write_matrix,
)
from fuzzykernels.gram import _BAND

import oracles


@pytest.fixture
def gaussian_spec():
    return FuzzyKernelSpec(family="nonsingleton_gaussian")


class TestComputeGram:
    def test_single_datum(self, gaussian_spec):
        g = compute_gram([GaussianFuzzySet([1.0], [0.5])], gaussian_spec)
        assert g.values.shape == (1, 1)
        assert g.values[0, 0] == 1.0

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
            compute_gram(data, gaussian_spec)

    def test_empty_dataset_rejected(self, gaussian_spec):
        with pytest.raises(ValueError):
            compute_gram([], gaussian_spec)

    def test_n_jobs_is_keyword_only(self, gaussian_spec):
        # an id list passed third raises instead of binding to the ignored n_jobs
        data = [GaussianFuzzySet([0.0], [1.0])] * 2
        with pytest.raises(TypeError):
            compute_gram(data, gaussian_spec, ["a", "b"])


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

    def test_overflowed_spectrum_raises_naming_the_eigenvalue(self):
        # finite entries near the float limit give an infinite largest eigenvalue, once a PSD verdict
        with pytest.raises(NumericError, match=r"eigenvalue 2 of g is not finite: inf"):
            check_psd(np.full((3, 3), 0.7e308))

    def test_spectrum_is_reported(self):
        rep = check_psd(np.diag([1.0, 2.0, 3.0]))
        assert rep.eigenvalues.tolist() == [1.0, 2.0, 3.0]

    def test_empty_matrix_rejected(self, tmp_path):
        # once a raw IndexError from an empty spectrum, also from a matrix file holding only "0"
        path = tmp_path / "empty.txt"
        path.write_text("0\n")
        for m in (np.zeros((0, 0)), read_matrix(path)):
            with pytest.raises(ValidationError, match="non-empty matrix"):
                check_psd(m)

    @pytest.mark.parametrize(
        "m, pair",
        [
            # x^T m x = -3 at x = (1, -1), but the lower triangle alone reads as PSD
            ([[1.0, 5.0], [0.0, 1.0]], "g[0, 1] = 5 and g[1, 0] = 0"),
            # x^T m x = 0 for every x, but the lower triangle alone reads as indefinite
            ([[0.0, -3.0], [3.0, 0.0]], "g[0, 1] = -3 and g[1, 0] = 3"),
            # the first pair in row-major order, not the largest
            ([[1.0, 0.0, 0.1], [0.0, 1.0, 9.0], [0.0, 0.0, 1.0]], "g[0, 2] = 0.10000000000000001 and g[2, 0] = 0"),
        ],
    )
    def test_non_symmetric_rejected_naming_the_pair(self, m, pair):
        with pytest.raises(ValidationError, match=re.escape(pair)):
            check_psd(np.array(m))

    def test_asymmetry_within_tolerance_passes(self):
        # the bound is tol * max(1, max|g|): 1e-8 on a unit-scale matrix, 1e-3 at scale 1e5
        for scale, skew in ((1.0, 5e-9), (1e5, 5e-4)):
            m = scale * np.eye(3)
            m[0, 1] = skew
            assert check_psd(m).verdict == "PSD"
            m[0, 1] = 4 * skew
            with pytest.raises(ValidationError, match=r"g\[0, 1\]"):
                check_psd(m)

    def test_bad_tolerance(self):
        # an infinite tolerance once passed every matrix as PSD
        for tol in (0.0, np.inf, np.nan):
            with pytest.raises(ValueError):
                check_psd(np.array([[1.0, 2.0], [2.0, 1.0]]), tol=tol)


class TestNormalize:
    def _gram(self, values):
        v = np.asarray(values, dtype=float)
        return GramMatrix(values=v)

    def test_unit_diagonal_unchanged(self):
        m = np.array([[1.0, 0.3], [0.3, 1.0]])
        out = normalize(self._gram(m))
        assert np.array_equal(out.values, m)

    def test_rank_one_example(self):
        out = normalize(self._gram([[4.0, 2.0], [2.0, 1.0]]))
        assert out.values == pytest.approx(np.ones((2, 2)))

    def test_zero_diagonal_rejected(self):
        with pytest.raises(ValidationError, match="strictly positive diagonal"):
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
        with pytest.raises(ValidationError, match="bad matrix file header"):
            read_matrix(path)

    def test_bad_entry(self, tmp_path):
        # numpy's own ValueError once came through as it is; its position text stays
        path = tmp_path / "bad.txt"
        path.write_text("2\n1 2\n3 x\n")
        with pytest.raises(ValidationError, match=r"bad matrix file body: .*'x'.* at row 1, column 2"):
            read_matrix(path)

    @pytest.mark.parametrize(
        "make",
        [
            pytest.param(lambda path: None, id="missing"),  # each was a raw OSError or UnicodeDecodeError
            pytest.param(lambda path: path.mkdir(), id="directory"),
            pytest.param(lambda path: path.write_bytes(b"2\n1 0\n0 \xff\n"), id="not-utf8"),
        ],
    )
    def test_unreadable_file_names_it(self, tmp_path, make):
        path = tmp_path / "gram.txt"
        make(path)
        with pytest.raises(ValidationError, match=re.escape(str(path))):
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
            "\u0662\n1 2\n3 4\n",  # int() reads an Arabic-Indic 2 as 2, so this read as 2 x 2
            "\uff12\n1 2\n3 4\n",  # and a fullwidth 2
        ],
    )
    def test_rejects_body_that_is_not_n_by_n(self, tmp_path, text):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(ValueError):
            read_matrix(path)

    @staticmethod
    def _hostile(n):
        """Full-precision values from 1e-300 to 1e300 with +-0, subnormals, +-inf and NaN."""
        rng = np.random.default_rng(17)
        m = rng.normal(size=(n, n)) * 10.0 ** rng.integers(-300, 301, size=(n, n))
        special = [0.0, -0.0, 5e-324, -5e-324, 1e-310, np.inf, -np.inf, np.nan, 1e300, -1e-300, 0.1]
        m.flat[rng.choice(n * n, size=len(special), replace=False)] = special
        return m

    @staticmethod
    def _mirrored(m, *unmirrored):
        """``m``'s upper triangle copied bit for bit below the diagonal, then each
        ((i, j), value) of ``unmirrored`` set on one side of the diagonal only."""
        m = np.where(np.triu(np.ones(m.shape, dtype=bool)), m, m.T)
        for (i, j), v in unmirrored:
            m[i, j] = v
        return m

    @staticmethod
    def _specials(*unmirrored):
        """A symmetric matrix holding -0.0, NaN, +-inf and subnormals, each opposite its own bits."""
        m = np.random.default_rng(19).normal(size=(12, 12))
        m[0, 1:8] = [-0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, 1e-310]
        return TestMatrixFile._mirrored(m, *unmirrored)

    @pytest.mark.parametrize(
        "make",
        [
            pytest.param(lambda: TestMatrixFile._hostile(40), id="hostile"),
            pytest.param(lambda: np.random.default_rng(18).random((7, 7)), id="non-symmetric"),
            pytest.param(lambda: TestMatrixFile._hostile(40).T, id="transposed-view"),
            pytest.param(lambda: np.zeros((0, 0)), id="n0"),
            pytest.param(lambda: np.full((1, 1), -0.0), id="n1"),
            pytest.param(
                lambda: compute_gram(
                    [GaussianFuzzySet([x], [0.5]) for x in range(4)], FuzzyKernelSpec("nonsingleton_gaussian")
                ),
                id="gram-matrix",
            ),
            pytest.param(lambda: TestMatrixFile._specials(), id="symmetric-specials"),
            pytest.param(  # a -0.0 opposite a 0.0 compares equal but prints differently; no NaN hides it
                lambda: TestMatrixFile._mirrored(
                    np.random.default_rng(20).normal(size=(12, 12)), ((2, 5), 0.0), ((5, 2), -0.0)
                ),
                id="signed-zero-mirror",
            ),
            pytest.param(
                lambda: TestMatrixFile._specials(((2, 0), np.uint64(0x7FF8000000000001).view(float))),
                id="nan-payload-mirror",
            ),
            pytest.param(lambda: TestMatrixFile._specials(((9, 4), 0.25)), id="one-asymmetric-entry"),
            pytest.param(
                lambda: TestMatrixFile._mirrored(TestMatrixFile._hostile(2 * _BAND + 3)), id="rows-cross-bands"
            ),
            pytest.param(  # the middle band's diagonal block is not symmetric, the other two are
                lambda: TestMatrixFile._mirrored(
                    TestMatrixFile._hostile(2 * _BAND + 3), ((_BAND + 7, _BAND + 2), 1.5)
                ),
                id="rows-cross-bands-one-asymmetric-entry",
            ),
            pytest.param(
                lambda: TestMatrixFile._mirrored(TestMatrixFile._hostile(40)).T, id="transposed-symmetric"
            ),
            pytest.param(
                lambda: compute_gram(
                    [GaussianFuzzySet([x, -x], [0.5, 2.0]) for x in np.linspace(0, 3, _BAND + 5)],
                    FuzzyKernelSpec("nonsingleton_gaussian"),
                ),
                id="gram-matrix-beyond-a-band",
            ),
        ],
    )
    def test_writes_the_oracle_bytes(self, tmp_path, make):
        m = make()
        path = tmp_path / "gram.txt"
        write_matrix(path, m)
        assert path.read_bytes() == oracles.bf_matrix_text(m).encode()

    def test_write_memory_is_one_row(self, tmp_path):
        # the whole text at n = 500 is ~5 MB; row by row the writer holds a few rows' worth
        m = self._hostile(500)
        tracemalloc.start()
        try:
            write_matrix(tmp_path / "gram.txt", m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_write_memory_of_a_symmetric_matrix(self, tmp_path):
        # the strings kept for mirrored entries must fit in the bound that one row's worth does
        m = self._hostile(500)
        m = np.triu(m) + np.triu(m, 1).T
        tracemalloc.start()
        try:
            write_matrix(tmp_path / "gram.txt", m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize("n", [0, 1])
    def test_small_round_trip(self, tmp_path, n):
        m = np.full((n, n), -0.0)
        path = tmp_path / "gram.txt"
        write_matrix(path, m)
        back = read_matrix(path)
        assert back.shape == (n, n)
        assert np.array_equal(np.signbit(back), np.signbit(m))
