import argparse
import contextlib
import copy
import io
import json
import math
import os
import signal
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fuzzykernels import Dataset, GaussianFuzzySet, cli, learn, mmd_statistic, parse_dataset, read_matrix, sets
from fuzzykernels.cli import build_parser, main
from fuzzykernels.kernels import nonsingleton_gaussian_kernel

import oracles


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


WALL_S = 10  # each invalid input exits within this many seconds; none takes near 1 s


class WallTimeExceeded(Exception):
    """No subclass of what the CLI catches, so it ends the command it interrupts."""


@contextlib.contextmanager
def wall_time(seconds):
    """Interrupt the body after ``seconds`` of wall time, so that a run without
    end fails instead of hanging the suite."""

    def interrupt(signum, frame):
        raise WallTimeExceeded(f"ran longer than {seconds} s")

    previous = signal.signal(signal.SIGALRM, interrupt)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def discrete_dataset(tmp_path):
    obj = {
        "ground_space": {
            "points": [[0.0], [1.0], [2.0], [3.0]],
            "partition": {"cells": [[0, 1], [2, 3]]},
        },
        "records": [
            [{"type": "discrete", "degrees": {"0": 1.0, "1": 0.5}}],
            [{"type": "discrete", "degrees": {"0": 0.5, "1": 1.0}}],
            [{"type": "discrete", "degrees": {"2": 1.0, "3": 0.25}}],
            [{"type": "discrete", "degrees": {"2": 0.5, "3": 0.75}}],
        ],
        "labels": [1, 1, -1, -1],
    }
    path = tmp_path / "data.json"
    path.write_text(json.dumps(obj))
    return path


@pytest.fixture
def linear_kernel_cfg(tmp_path):
    path = tmp_path / "kernel.json"
    path.write_text(json.dumps({"family": "cross_product", "k1": {"kind": "linear"}, "k2": {"kind": "linear"}}))
    return path


class TestFuzzify:
    def test_gaussian_single_row(self, tmp_path, capsys):
        table = tmp_path / "table.csv"
        table.write_text("1.5\n")
        out = tmp_path / "fuzzy.json"
        code, stdout, _ = run_cli(
            capsys, "fuzzify", "--data", str(table), "--method", "gaussian",
            "--widths", "0.1", "--out", str(out),
        )
        assert code == 0
        assert json.loads(stdout)["records"] == 1
        ds = parse_dataset(out)
        assert ds.records[0][0].means.tolist() == [1.5]
        assert ds.records[0][0].widths.tolist() == [0.1]

    def test_histogram_constant_column(self, tmp_path, capsys):
        table = tmp_path / "table.csv"
        table.write_text("2.0\n2.0\n2.0\n")
        out = tmp_path / "fuzzy.json"
        code, _, _ = run_cli(
            capsys, "fuzzify", "--data", str(table), "--method", "histogram",
            "--bins", "4", "--out", str(out),
        )
        assert code == 0
        ds = parse_dataset(out)
        assert len(ds) == 1
        assert dict(ds.records[0][0].degrees) == {0: 1.0}

    def test_empty_table(self, tmp_path, capsys):
        table = tmp_path / "table.csv"
        table.write_text("")
        code, _, err = run_cli(
            capsys, "fuzzify", "--data", str(table), "--method", "gaussian",
            "--widths", "0.1", "--out", str(tmp_path / "o.json"),
        )
        assert code == 2
        assert "error" in err

    def test_non_numeric_cell(self, tmp_path, capsys):
        table = tmp_path / "table.csv"
        table.write_text("1.0,apple\n")
        code, _, _ = run_cli(
            capsys, "fuzzify", "--data", str(table), "--method", "gaussian",
            "--widths", "0.1", "--out", str(tmp_path / "o.json"),
        )
        assert code == 2

    def test_histogram_two_columns(self, tmp_path, capsys):
        table = tmp_path / "table.csv"
        table.write_text("0.0,10.0\n0.0,10.0\n10.0,10.0\n")
        out = tmp_path / "fuzzy.json"
        code, _, _ = run_cli(
            capsys, "fuzzify", "--data", str(table), "--method", "histogram",
            "--bins", "3", "--out", str(out),
        )
        assert code == 0
        ds = parse_dataset(out)
        assert len(ds) == 2  # one record per column
        assert dict(ds.records[0][0].degrees) == {0: 1.0, 2: 0.5}
        assert dict(ds.records[1][0].degrees) == {2: 1.0}

    @pytest.mark.parametrize("widths", [[0.5], [0.5, 1.0, 2.0]])
    def test_gaussian_file_equals_the_sets_built_cell_by_cell(self, tmp_path, capsys, widths):
        rows = np.random.default_rng(3).normal(size=(6, 3)).tolist()
        table, out = tmp_path / "table.csv", tmp_path / "fuzzy.json"
        table.write_text("".join(",".join(map(repr, row)) + "\n" for row in rows))
        code, _, err = run_cli(
            capsys, "fuzzify", "--data", str(table), "--method", "gaussian",
            "--widths", ",".join(map(str, widths)), "--out", str(out),
        )
        assert code == 0, err
        cell_widths = widths * 3 if len(widths) == 1 else widths
        records = [tuple(GaussianFuzzySet([x], [w]) for x, w in zip(row, cell_widths)) for row in rows]
        assert parse_dataset(out) == Dataset(ground=None, records=records)

    def test_gaussian_checks_numbers_per_column_not_per_cell(self, tmp_path, capsys, monkeypatch):
        """The number rule runs a fixed number of times per column, however many rows the table has."""
        calls = []
        check = sets._numbers
        monkeypatch.setattr(sets, "_numbers", lambda *args, **kwargs: calls.append(args[1]) or check(*args, **kwargs))
        counts = []
        for n in (4, 64):
            table = tmp_path / f"table{n}.csv"
            table.write_text("1.5,-2.0\n" * n)
            calls.clear()
            code, _, err = run_cli(
                capsys, "fuzzify", "--data", str(table), "--method", "gaussian",
                "--widths", "0.5", "--out", str(tmp_path / "fuzzy.json"),
            )
            assert code == 0, err
            counts.append(len(calls))
        assert counts[0] == counts[1]


class TestGram:
    def test_writes_matrix_and_metadata(self, tmp_path, capsys, discrete_dataset, linear_kernel_cfg):
        out = tmp_path / "gram.txt"
        code, stdout, _ = run_cli(
            capsys, "gram", "--data", str(discrete_dataset), "--kernel", str(linear_kernel_cfg),
            "--out", str(out),
        )
        assert code == 0
        meta = json.loads(stdout)
        assert meta["n"] == 4
        assert "item_ids" not in meta  # a Gram names its items by position; n says how many
        assert meta["kernel"]["family"] == "cross_product"
        m = read_matrix(out)
        assert m.shape == (4, 4)
        assert np.array_equal(m, m.T)

    def test_deterministic_bytes(self, tmp_path, capsys, discrete_dataset, linear_kernel_cfg):
        out = tmp_path / "gram.txt"
        outs = []
        for _ in range(2):
            code, stdout, _ = run_cli(
                capsys, "gram", "--data", str(discrete_dataset), "--kernel", str(linear_kernel_cfg),
                "--out", str(out), "--jobs", "4",
            )
            assert code == 0
            outs.append((out.read_bytes(), stdout))
        assert outs[0] == outs[1]

    def test_missing_dataset_file(self, tmp_path, capsys, linear_kernel_cfg):
        code, _, err = run_cli(
            capsys, "gram", "--data", str(tmp_path / "nope.json"), "--kernel", str(linear_kernel_cfg),
            "--out", str(tmp_path / "g.txt"),
        )
        assert code == 2


class TestNumericErrors:
    @pytest.fixture
    def overflowing(self, tmp_path):
        # polynomial k1 on a point near 1e80 overflows: k1(1e80, 1e80) = inf
        obj = {
            "ground_space": {"points": [[1.0], [1e80], [2.0]]},
            "records": [[{"type": "discrete", "degrees": {str(i): 1.0}}] for i in range(3)],
            "labels": [1, -1, 1],
        }
        data = tmp_path / "data.json"
        data.write_text(json.dumps(obj))
        kernel = tmp_path / "kernel.json"
        kernel.write_text(json.dumps({"family": "cross_product", "k1": {"kind": "polynomial", "degree": 2}}))
        return data, kernel

    def test_gram_with_infinite_value_exits_3(self, tmp_path, capsys, overflowing):
        data, kernel = overflowing
        out = tmp_path / "gram.txt"
        code, _, err = run_cli(
            capsys, "gram", "--data", str(data), "--kernel", str(kernel), "--out", str(out)
        )
        assert code == 3
        assert "pair (1, 1)" in err
        assert not out.exists()

    def test_classify_with_infinite_value_exits_3(self, capsys, overflowing):
        data, kernel = overflowing
        code, _, err = run_cli(
            capsys, "classify", "--data", str(data), "--kernel", str(kernel), "--folds", "2", "--seed", "0"
        )
        assert code == 3
        assert "pair (1, 1)" in err

    def test_ridge_that_overflows_the_diagonal_exits_3(self, tmp_path, capsys):
        # every Gram entry is 1e308, and 1e308 + 1e308 on each fold's diagonal once printed numpy's
        # overflow warning and exited 0 with fold accuracies [1.0, 0.0]
        data, kernel = tmp_path / "data.json", tmp_path / "kernel.json"
        data.write_text(json.dumps(MUTATED_DATA["discrete"]))
        kernel.write_text(json.dumps({**SWEEP_CONFIGS["distance_poly"], "family": "distance_poly", "coef0": 1e308}))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(capsys, "classify", "--data", str(data), "--kernel", str(kernel),
                                     "--folds", "2", "--seed", "0", "--ridge", "1e308")
        assert code == 3 and not out and not caught and "Warning" not in err
        assert "diagonal entry 0 of gram + regularization * I is not finite" in err

    def test_solver_failure_exits_3(self, capsys, monkeypatch, discrete_dataset, linear_kernel_cfg):
        def fail(_):
            raise np.linalg.LinAlgError("eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        code, _, err = run_cli(
            capsys, "check-psd", "--data", str(discrete_dataset), "--kernel", str(linear_kernel_cfg)
        )
        assert code == 3
        assert "did not converge" in err

    def test_out_of_memory_exits_3(self, tmp_path):
        # 20,000 one-dimensional records make a 2.98 GiB Gram; the child caps its
        # own address space at 1.5 GiB before it imports anything, so nothing
        # here allocates without a limit
        rng = np.random.default_rng(17)
        records = [[{"type": "gaussian", "m": [m], "sigma": [1.0]}] for m in rng.normal(size=20_000).round(6).tolist()]
        data, kernel = tmp_path / "data.json", tmp_path / "kernel.json"
        data.write_text(json.dumps({"records": records}))
        kernel.write_text(json.dumps({"family": "nonsingleton_gaussian"}))
        code = (
            "import resource, sys; "
            "resource.setrlimit(resource.RLIMIT_AS, (3 << 29, resource.getrlimit(resource.RLIMIT_AS)[1])); "
            "from fuzzykernels.cli import main; sys.exit(main(sys.argv[1:]))"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=src)
        argv = ["check-psd", "--data", str(data), "--kernel", str(kernel)]
        result = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True)
        assert result.returncode == 3
        assert result.stderr.startswith("numeric error: Unable to allocate 2.98 GiB")
        assert "Traceback" not in result.stderr


class TestCheckPsd:
    def test_psd_verdict(self, tmp_path, capsys, discrete_dataset, linear_kernel_cfg):
        code, stdout, _ = run_cli(
            capsys, "check-psd", "--data", str(discrete_dataset), "--kernel", str(linear_kernel_cfg),
        )
        assert code == 0
        report = json.loads(stdout)
        assert report["verdict"] == "PSD"
        assert report["min_eigenvalue"] >= -report["tolerance"] * max(1.0, report["max_eigenvalue"])
        assert len(report["eigenvalues"]) == 4

    def test_intersection_kernel_uses_partition(self, tmp_path, capsys, discrete_dataset):
        cfg = tmp_path / "inter.json"
        cfg.write_text(json.dumps({"family": "intersection", "tnorm": "min"}))
        code, stdout, _ = run_cli(
            capsys, "check-psd", "--data", str(discrete_dataset), "--kernel", str(cfg),
        )
        assert code == 0
        assert json.loads(stdout)["verdict"] == "PSD"


class TestClassify:
    def test_labels_required(self, tmp_path, capsys, linear_kernel_cfg):
        obj = {
            "ground_space": {"points": [[0.0], [1.0]]},
            "records": [[{"type": "discrete", "degrees": {"0": 1.0}}]],
        }
        path = tmp_path / "nolabels.json"
        path.write_text(json.dumps(obj))
        code, _, err = run_cli(
            capsys, "classify", "--data", str(path), "--kernel", str(linear_kernel_cfg), "--seed", "1",
        )
        assert code == 2
        assert "labels" in err

    def test_reports_fold_accuracies(self, capsys, discrete_dataset, linear_kernel_cfg):
        code, stdout, _ = run_cli(
            capsys, "classify", "--data", str(discrete_dataset), "--kernel", str(linear_kernel_cfg),
            "--seed", "3", "--folds", "2", "--ridge", "0.1",
        )
        assert code == 0
        report = json.loads(stdout)
        assert len(report["fold_accuracies"]) == 2
        assert 0.0 <= report["mean_accuracy"] <= 1.0


class TestMmdTest:
    def test_deterministic_reports(self, capsys, discrete_dataset, linear_kernel_cfg):
        outs = []
        for _ in range(2):
            code, stdout, _ = run_cli(
                capsys, "mmd-test", "--data", str(discrete_dataset), "--kernel", str(linear_kernel_cfg),
                "--seed", "42", "--permutations", "50",
            )
            assert code == 0
            outs.append(stdout)
        assert outs[0] == outs[1]
        report = json.loads(outs[0])
        assert report["n_a"] == 2 and report["n_b"] == 2
        assert 0.0 < report["p_value"] <= 1.0

    def test_null_count_matches_the_oracle(self, tmp_path, capsys):
        # 60 + 60 three-dimensional Gaussian records from one distribution,
        # one width per dimension: replicas reach the observed statistic, so
        # the p-value tests the null's count, not only its add-one floor
        rng = np.random.default_rng(2)
        widths = rng.uniform(0.5, 1.0, size=3).tolist()
        records = [
            [{"type": "gaussian", "m": rng.normal(0.0, 0.3, size=3).tolist(), "sigma": widths}] for _ in range(120)
        ]
        data, kernel = tmp_path / "null.json", tmp_path / "kernel.json"
        data.write_text(json.dumps({"records": records, "labels": [1] * 60 + [-1] * 60}))
        kernel.write_text(json.dumps({"family": "nonsingleton_gaussian"}))
        code, stdout, _ = run_cli(
            capsys, "mmd-test", "--data", str(data), "--kernel", str(kernel), "--seed", "7", "--permutations", "200",
        )
        assert code == 0
        report = json.loads(stdout)
        pooled = [r[0] for r in parse_dataset(data).records]
        g = np.array([[nonsingleton_gaussian_kernel(x, y) for y in pooled] for x in pooled])
        assert report["statistic"] == mmd_statistic(g[:60, :60], g[60:, 60:], g[:60, 60:])
        assert report["p_value"] == oracles.bf_mmd_p_value(g, 60, 200, 7)
        assert round(report["p_value"] * 201) > 1

    def test_needs_both_labels(self, tmp_path, capsys, linear_kernel_cfg):
        obj = {
            "ground_space": {"points": [[0.0], [1.0]]},
            "records": [
                [{"type": "discrete", "degrees": {"0": 1.0}}],
                [{"type": "discrete", "degrees": {"1": 1.0}}],
            ],
            "labels": [1, 1],
        }
        path = tmp_path / "onesided.json"
        path.write_text(json.dumps(obj))
        code, _, _ = run_cli(
            capsys, "mmd-test", "--data", str(path), "--kernel", str(linear_kernel_cfg), "--seed", "0",
        )
        assert code == 2


class TestKernelConfigErrors:
    def test_unknown_family(self, tmp_path, capsys, discrete_dataset):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"family": "wavelet"}))
        code, _, _ = run_cli(
            capsys, "check-psd", "--data", str(discrete_dataset), "--kernel", str(cfg),
        )
        assert code == 2

    def test_malformed_kernel_json(self, tmp_path, capsys, discrete_dataset):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{family:")
        code, _, _ = run_cli(
            capsys, "check-psd", "--data", str(discrete_dataset), "--kernel", str(cfg),
        )
        assert code == 2


class TestKernelConfigValues:
    REFERENCE = {"type": "discrete", "degrees": {"0": 0.5, "1": 0.5}}

    @pytest.mark.parametrize(
        "cfg, key",
        [
            # a fractional degree is rejected, not truncated to 2
            ({"family": "distance_poly", "reference": REFERENCE, "degree": 2.5}, "degree"),
            ({"family": "cross_product", "k1": {"kind": "polynomial", "degree": 2.5}}, "degree"),
            # values of the wrong type, each once a raw TypeError or AttributeError
            ({"family": "weighted_cross_product", "weights": 5}, "weights"),
            ({"family": "distance_gaussian", "gamma": [1]}, "gamma"),
            ({"family": "cross_product", "k1": {"kind": "rbf", "gamma": None}}, "gamma"),
            ({"family": "distance_inner", "reference": 5}, "reference"),
            ({"family": "distance_inner", "reference": {"type": "discrete", "degrees": [1]}}, "reference"),
            # an empty reference was an IndexError at evaluation
            ({"family": "distance_inner", "reference": []}, "reference"),
            # a key the family does not take, each once silently ignored
            ({"family": "cross_product", "weights": [0, 0, 0]}, "weights"),
            ({"family": "distance_gaussian", "gama": 5}, "gama"),
            ({"family": "distance_inner", "reference": REFERENCE, "degree": 3}, "degree"),
            ({"family": "nonsingleton_gaussian", "tnorm": "min"}, "tnorm"),
            ({"family": "distance_gaussian", "reference": REFERENCE}, "reference"),
            # iterables that are not lists of numbers, once read as (1, 2, 3, 4) and the keys (0, 1, 2, 3)
            ({"family": "weighted_cross_product", "weights": "1234"}, "weights"),
            ({"family": "weighted_cross_product", "weights": {"0": 1, "1": 1, "2": 1, "3": 1}}, "weights"),
            # an unknown metric name and a polynomial gamma of 0
            ({"family": "distance_gaussian", "metric": "euclid"}, "metric"),
            ({"family": "cross_product", "k1": {"kind": "polynomial", "gamma": 0}}, "gamma"),
            # a base-kernel key its kind does not take, once silently ignored
            ({"family": "cross_product", "k1": {"kind": "rbf", "gama": 7}}, "gama"),
            ({"family": "cross_product", "k2": {"kind": "linear", "gamma": 5}}, "gamma"),
            # json reads Infinity (and 1e309) as inf, once a non-finite kernel value and exit 3
            ({"family": "distance_gaussian", "gamma": float("inf")}, "gamma"),
            ({"family": "cross_product", "k1": {"kind": "polynomial", "coef0": float("inf")}}, "coef0"),
            # non-numbers that float() once took: "2" parsed, true as 1.0
            ({"family": "cross_product", "k1": {"kind": "rbf", "gamma": "2"}}, "gamma"),
            ({"family": "distance_gaussian", "gamma": True}, "gamma"),
        ],
    )
    def test_bad_value_exits_2_naming_key(self, tmp_path, capsys, discrete_dataset, cfg, key):
        kernel = tmp_path / "kernel.json"
        kernel.write_text(json.dumps(cfg))
        out = tmp_path / "gram.txt"
        code, _, err = run_cli(
            capsys, "gram", "--data", str(discrete_dataset), "--kernel", str(kernel), "--out", str(out)
        )
        assert code == 2
        assert key in err
        assert not out.exists()


# the datasets the mutated configs run on (nonsingleton_gaussian takes the Gaussian one),
# and the valid documents the dataset mutations start from
MUTATED_DATA = {
    "discrete": {
        "ground_space": {
            "points": [[float(k)] for k in range(6)],
            "partition": {"cells": [[0, 1], [2, 3], [4, 5]], "measures": [2.0, 1.0, 0.5]},
        },
        "records": [
            [{"type": "discrete", "degrees": d}]
            for d in ({"0": 1.0, "1": 0.5}, {"1": 0.25, "2": 1.0, "3": 0.75}, {"2": 0.5, "3": 0.5}, {"4": 1.0})
        ],
        "labels": [1, -1, 1, -1],
    },
    "gaussian": {
        "records": [
            [{"type": "gaussian", "m": [0.0, 1.0], "sigma": [0.5, 1.0]}],
            [{"type": "gaussian", "m": [0.5, -1.0], "sigma": [1.0, 0.25]}],
        ],
    },
}
BASE_KERNELS = [
    {"kind": "linear"},
    {"kind": "rbf", "gamma": 0.5},
    {"kind": "polynomial", "coef0": 1.0, "gamma": 0.5, "degree": 2},
]
REFERENCE = {"type": "discrete", "degrees": {"1": 0.5, "2": 1.0}}
WEIGHTS = [1.0, 0.5, 2.0, 1.0, 0.25, 1.0]
# valid configs of every family, with the cross products over each base kernel (k2 a
# copy of k1, so that one mutation changes one of them)
VALID_CONFIGS = [
    *({"family": "cross_product", "k1": k, "k2": {**k}} for k in BASE_KERNELS),
    *({"family": "weighted_cross_product", "k1": k, "k2": {**k}, "weights": WEIGHTS} for k in BASE_KERNELS),
    {"family": "intersection", "tnorm": "min"},
    {"family": "nonsingleton", "tnorm": "product"},
    {"family": "nonsingleton_gaussian"},
    {"family": "distance_inner", "metric": "ratio", "reference": REFERENCE},
    {
        "family": "distance_poly", "metric": "ratio", "reference": [REFERENCE],
        "coef0": 1.0, "gamma": 0.5, "degree": 2,
    },
    {"family": "distance_gaussian", "metric": "ratio", "gamma": 2.0},
]
HOSTILE = [float("nan"), float("inf"), float("-inf"), 1e308, 5e-324, -0.0, True, None, "", [], {}, 2**63]


def _sites(obj, path=()):
    """Paths to every key and list entry of a JSON document."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield (*path, key)
        yield from _sites(value, (*path, key))


@pytest.fixture(scope="module")
def mutation_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("mutations")
    for name, doc in MUTATED_DATA.items():
        (root / f"{name}.json").write_text(json.dumps(doc))
    return root


# derandomized, so every run of the suite draws the same mutations
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_mutated_kernel_config_keeps_exit_contract(mutation_files, data):
    """One mutation of a valid config (a key renamed or dropped, or a value
    made hostile) ends in exit 0 with a finite matrix, or in exit 2 or 3 with
    no output file; a renamed key exits 2, naming the old or the new key."""
    cfg = copy.deepcopy(data.draw(st.sampled_from(VALID_CONFIGS)))
    dataset = mutation_files / ("gaussian.json" if cfg["family"] == "nonsingleton_gaussian" else "discrete.json")
    *path, key = data.draw(st.sampled_from(list(_sites(cfg))))
    parent = cfg
    for step in path:
        parent = parent[step]
    op = data.draw(st.sampled_from(["set", "drop", "rename"] if isinstance(parent, dict) else ["set", "drop"]))
    if op == "set":
        parent[key] = copy.deepcopy(data.draw(st.sampled_from(HOSTILE)))
    elif op == "drop":
        del parent[key]
    else:
        parent[f"{key}_"] = parent.pop(key)
    kernel, out = mutation_files / "kernel.json", mutation_files / "gram.txt"
    kernel.write_text(json.dumps(cfg))
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        code = main(["gram", "--data", str(dataset), "--kernel", str(kernel), "--out", str(out)])
    err = stderr.getvalue()
    assert code in (0, 2, 3), err
    if code == 0:
        assert np.isfinite(read_matrix(out)).all()
        out.unlink()
    assert not out.exists()
    if op == "rename":
        assert code == 2 and (repr(key) in err or repr(f"{key}_") in err), err


# the kernel each mutated dataset runs under: intersection reads the cells and measures
DATA_KERNELS = {"discrete": {"family": "intersection", "tnorm": "min"}, "gaussian": {"family": "nonsingleton_gaussian"}}


def _finite_number(value) -> bool:
    return type(value) in (int, float) and math.isfinite(value)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_mutated_dataset_keeps_exit_contract(mutation_files, data):
    """One mutation of a valid dataset (a value made hostile, or a key dropped
    or given twice) ends in exit 0 with a finite matrix, or in exit 2 or 3 with
    no output file and a message naming a key, record, pair or the file.  A
    hostile value that is no finite number, put where the document held a
    number, exits 2, and so does a key given twice, naming it."""
    name = data.draw(st.sampled_from(sorted(MUTATED_DATA)))
    doc = copy.deepcopy(MUTATED_DATA[name])
    *path, key = data.draw(st.sampled_from(list(_sites(doc))))
    parent = doc
    for step in path:
        parent = parent[step]
    op = data.draw(st.sampled_from(["set", "drop", "twice"] if isinstance(parent, dict) else ["set", "drop"]))
    old = parent[key]
    if op == "set":
        parent[key] = new = copy.deepcopy(data.draw(st.sampled_from(HOSTILE)))
    elif op == "drop":
        del parent[key]
    else:  # json.dumps gives no key twice, so a placeholder stands for the pair
        parent[key] = chr(0)
    pair = f"{json.dumps(key)}: {json.dumps(old)}"
    dataset, kernel, out = (mutation_files / f for f in ("dataset.json", "kernel.json", "gram.txt"))
    dataset.write_text(json.dumps(doc).replace(f"{json.dumps(key)}: {json.dumps(chr(0))}", f"{pair}, {pair}"))
    kernel.write_text(json.dumps(DATA_KERNELS[name]))
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        code = main(["gram", "--data", str(dataset), "--kernel", str(kernel), "--out", str(out)])
    err = stderr.getvalue()
    assert code in (0, 2, 3), err
    if code == 0:
        assert np.isfinite(read_matrix(out)).all()
        out.unlink()
    else:
        assert any(word in err for word in ("records", "ground_space", "labels", "pair", str(dataset))), err
    assert not out.exists()
    if op == "set" and _finite_number(old) and not _finite_number(new):
        assert code == 2, (path, key, new)
    if op == "twice":
        assert code == 2 and repr(key) in err, err


# valid argvs of the four computing commands on MUTATED_DATA["discrete"], every option given, and the
# options whose values are numbers
VALID_ARGVS = [
    "gram --data {data} --kernel {kernel} --out {out} --jobs 1",
    "check-psd --data {data} --kernel {kernel} --tol 1e-10 --jobs 1",
    "classify --data {data} --kernel {kernel} --folds 2 --seed 0 --ridge 1.0 --jobs 1",
    "mmd-test --data {data} --kernel {kernel} --permutations 20 --seed 0 --jobs 1",
]
NUMERIC_OPTIONS = {"--jobs", "--tol", "--folds", "--seed", "--ridge", "--permutations"}
HOSTILE_NUMBERS = ["0", "-1", "inf", "nan", "abc", "2.5", "99999999999999999999"]
HOSTILE_PATHS = ["{tmp}/missing.json", "{tmp}", "/dev/null", "{tmp}/missing/file", "{binary}"]


def _argv_mutations():
    """(argv, the option it changes, the path it names or None) for each change of one part of a
    valid argv: a numeric option set to a hostile number, an option dropped or given twice, or a
    path option naming a hostile path."""
    for argv in VALID_ARGVS:
        command, *parts = argv.split()
        options = [parts[k : k + 2] for k in range(0, len(parts), 2)]
        for k, (option, value) in enumerate(options):
            others = [p for opt in options[:k] + options[k + 1 :] for p in opt]
            yield [command, *others], option, None
            yield [command, *others, option, value, option, value], option, None
            hostile = HOSTILE_NUMBERS if option in NUMERIC_OPTIONS else HOSTILE_PATHS if "{" in value else []
            for new in hostile:
                yield [command, *others, option, new], option, None if option in NUMERIC_OPTIONS else new


def test_mutated_argv_keeps_exit_contract(mutation_files, tmp_path):
    """Every single change of one argv part (see ``_argv_mutations``) ends in exit 0 with stdout
    that is strict JSON and a finite matrix, or in exit 2 or 3 with no output file and a message
    naming the option or the path, never in a traceback."""
    names = {
        "data": mutation_files / "discrete.json", "kernel": tmp_path / "kernel.json",
        "out": tmp_path / "gram.txt", "binary": tmp_path / "binary",
    }
    names["kernel"].write_text(json.dumps(DATA_KERNELS["discrete"]))
    names["binary"].write_bytes(TABLES["binary"])
    out = names["out"]

    def strict(constant):
        raise ValueError(f"{constant} in a report")

    for argv, option, path in _argv_mutations():
        argv = [part.format(tmp=tmp_path, **names) for part in argv]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse refuses the argv
                code = exc.code
        err = stderr.getvalue()
        assert code in (0, 2, 3) and "Traceback" not in err, (argv, code, err)
        if code == 0:
            json.loads(stdout.getvalue(), parse_constant=strict)
            if out.exists():
                assert np.isfinite(read_matrix(out)).all(), argv
                out.unlink()
        else:
            named = option.lstrip("-") if path is None else path.format(tmp=tmp_path, **names)
            assert named in err, (argv, err)
        assert not out.exists(), argv


# each family at its fewest keys, and each numeric field it takes, k1's and k2's parameters too
SWEEP_CONFIGS = {
    "cross_product": {},
    "weighted_cross_product": {"weights": [1.0] * 6},  # one weight per point of the discrete ground
    "intersection": {"tnorm": "min"},
    "nonsingleton": {"tnorm": "product"},
    "nonsingleton_gaussian": {},
    "distance_inner": {"reference": {"type": "discrete", "degrees": {"0": 1.0}}},
    "distance_poly": {"reference": {"type": "discrete", "degrees": {"0": 1.0}}},
    "distance_gaussian": {},
}
SWEEP_FIELDS = {"weighted_cross_product": ["weights"], "distance_poly": ["coef0", "gamma", "degree"],
                "distance_gaussian": ["gamma"]}
SWEEP_DATA = {
    "discrete": MUTATED_DATA["discrete"],
    "gaussian": {
        "records": [
            [{"type": "gaussian", "m": m, "sigma": s}]
            for m, s in (([0.0, 1.0], [0.5, 1.0]), ([0.5, -1.0], [1.0, 0.25]),
                         ([1.0, 0.0], [1.0, 1.0]), ([-1.0, 2.0], [2.0, 0.5]))
        ],
        "labels": [1, -1, 1, -1],
    },
}


def _sweep_cases():
    for family, keys in SWEEP_CONFIGS.items():
        cfg = {"family": family, **keys}
        yield pytest.param(cfg, id=family)
        for field in SWEEP_FIELDS.get(family, []):
            yield pytest.param({**cfg, field: [1e308] * 6 if field == "weights" else 1e308}, id=f"{family}-{field}")
        for slot in ("k1", "k2") if "cross_product" in family else ():
            for kind, params in (("rbf", ["gamma"]), ("polynomial", ["coef0", "gamma", "degree"])):
                for param in params:
                    cfg_at = {**cfg, slot: {"kind": kind, param: 1e308}}
                    yield pytest.param(cfg_at, id=f"{family}-{slot}-{kind}-{param}")


@pytest.mark.parametrize("cfg", _sweep_cases())
def test_kernel_field_at_1e308_keeps_exit_contract(tmp_path, cfg):
    """A kernel field at 1e308, which may overflow a Gram entry or only the sums, the spectrum or
    the decision values made from finite entries, ends in exit 0, 2 or 3 on every computing command,
    with no Infinity or NaN in stdout or the matrix file and no warning or traceback."""
    kernel, out = tmp_path / "kernel.json", tmp_path / "gram.txt"
    kernel.write_text(json.dumps(cfg))
    for name, doc in SWEEP_DATA.items():
        data = tmp_path / f"{name}.json"
        data.write_text(json.dumps(doc))
        for argv in (["gram", "--out", str(out)], ["check-psd"], ["classify", "--folds", "2", "--seed", "0"],
                     ["mmd-test", "--permutations", "20", "--seed", "0"]):
            argv[1:1] = ["--data", str(data), "--kernel", str(kernel)]
            stdout, stderr = io.StringIO(), io.StringIO()
            with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(stderr):
                warnings.simplefilter("always")
                code = main(argv)
            report, err = stdout.getvalue(), stderr.getvalue()
            assert code in (0, 2, 3), (argv, code, err)
            assert "Infinity" not in report and "NaN" not in report, (argv, report)
            assert not caught and "Warning" not in err and "Traceback" not in err, (argv, err, caught)
            if code == 0 and out.exists():
                assert np.isfinite(read_matrix(out)).all(), argv
                out.unlink()
            assert not out.exists(), argv


TABLE = "1,2,3\n4,5,6\n"
# raw files the cases can name: CSV tables, JSON that json.load cannot decode,
# and JSON that gives one key twice, which json.dumps cannot write
TABLES = {
    "table": TABLE,
    "inf": "1,2\n3,inf\n",
    "nan": "1,2\n3,nan\n",
    "deep": "[" * 200_000,
    "binary": b'{"records": [\xff]}',
    "degree_twice": '{"ground_space": {"points": [[0.0], [1.0]]}, '
    '"records": [[{"type": "discrete", "degrees": {"1": 0.5, "1": 0.9}}]]}',
    "family_twice": '{"family": "cross_product", "family": "intersection"}',
    "long_degree": '{"ground_space": {"points": [[0.0], [1.0]]}, '
    '"records": [[{"type": "discrete", "degrees": {"0": ' + "1" * 5001 + "}}]]}",
    "long_degree_kernel": '{"family": "distance_poly", "degree": ' + "1" * 5001 + "}",
}
RECORD = [{"type": "discrete", "degrees": {"0": 1.0}}]
DATA = {"ground_space": {"points": [[0.0], [1.0]]}, "records": [RECORD, RECORD], "labels": [1, -1]}
KERNEL = {"family": "cross_product"}
GRAM = "gram --data {data} --kernel {kernel} --out {out}"
FUZZIFY = "fuzzify --data {table} --out {out} --method"


def _data(**ground):
    return {**DATA, "ground_space": ground}


@pytest.mark.parametrize(
    "argv, data, kernel, where",
    [
        pytest.param(GRAM, DATA, [KERNEL], "kernel config must be a JSON object", id="config-not-object"),
        pytest.param(
            "fuzzify --data {tmp}/nope.csv --out {out} --method histogram --bins 3", DATA, KERNEL,
            "nope.csv", id="fuzzify-missing-table",
        ),
        # an --out that cannot be opened was once a raw FileNotFoundError or IsADirectoryError, exit 1
        *(
            pytest.param(cmd.replace("{out}", out), DATA, KERNEL, out, id=f"{cmd.split()[0]}-out-{name}")
            for cmd in (GRAM, FUZZIFY + " histogram --bins 3")
            for name, out in (("missing-dir", "{tmp}/missing/out"), ("is-dir", "{tmp}"))
        ),
        pytest.param(FUZZIFY + " gaussian", DATA, KERNEL, "--widths", id="fuzzify-no-widths"),
        pytest.param(
            FUZZIFY + " gaussian --widths 0.1,0.2", DATA, KERNEL, "2 widths for 3 columns",
            id="fuzzify-width-count",
        ),
        pytest.param(FUZZIFY + " histogram --bins 0", DATA, KERNEL, "--bins", id="fuzzify-no-bins"),
        # the ground is every bin, so a huge count once took seconds and a file of tens of MB per 10**6 bins
        *(
            pytest.param(FUZZIFY + " histogram --bins " + b, DATA, KERNEL, "--bins", id=f"fuzzify-bins-{b}")
            for b in ("100001", "99999999")
        ),
        # a non-number width once surfaced as a bare float() message
        pytest.param(FUZZIFY + " gaussian --widths a", DATA, KERNEL, "--widths", id="fuzzify-width-not-number"),
        # a zero, negative or non-finite width once exited 2 with a message naming no option
        *(
            pytest.param(FUZZIFY + f" gaussian --widths{w}", DATA, KERNEL, "--widths", id=f"fuzzify-width-{name}")
            for name, w in (("zero", " 0"), ("nan", " nan"), ("inf", " inf"), ("negative", "=-1"))
        ),
        # a non-finite cell once ended in a numpy warning, or a message naming no cell
        pytest.param(
            "fuzzify --data {inf} --out {out} --method histogram --bins 3", DATA, KERNEL, "inf: row 2, column 2",
            id="fuzzify-inf-cell",
        ),
        pytest.param(
            "fuzzify --data {nan} --out {out} --method gaussian --widths 1", DATA, KERNEL, "nan: row 2, column 2",
            id="fuzzify-nan-cell",
        ),
        # an infinite tolerance once passed every matrix as PSD and wrote Infinity into the JSON report
        pytest.param("check-psd --data {data} --kernel {kernel} --tol inf", DATA, KERNEL, "--tol", id="psd-tol-inf"),
        # an infinite ridge once warned about NaNs and exited 3
        pytest.param(
            "classify --data {data} --kernel {kernel} --seed 0 --folds 2 --ridge inf", DATA, KERNEL, "--ridge",
            id="classify-ridge-inf",
        ),
        pytest.param(
            "mmd-test --data {data} --kernel {kernel} --seed 0", {**DATA, "labels": None}, KERNEL, "labels",
            id="mmd-no-labels",
        ),
        # a negative seed once exited 2 with numpy's "expected non-negative integer", naming no option,
        # and then with the library's "seed must be ...", naming no flag
        pytest.param(
            "classify --data {data} --kernel {kernel} --seed -1 --folds 2", DATA, KERNEL,
            "error: --seed must be finite and >= 0, got -1", id="classify-negative-seed",
        ),
        pytest.param(
            "mmd-test --data {data} --kernel {kernel} --seed -1", DATA, KERNEL,
            "error: --seed must be finite and >= 0, got -1", id="mmd-negative-seed",
        ),
        # counts out of range once exited 2 with a message naming no option
        *(
            pytest.param(
                "mmd-test --data {data} --kernel {kernel} --seed 0 --permutations " + p, DATA, KERNEL,
                "--permutations", id=f"mmd-permutations-{p}",
            )
            # valid as an int, and once ran without end
            for p in ("0", "-3", "99999999999999999999")
        ),
        *(
            pytest.param(
                "classify --data {data} --kernel {kernel} --seed 0 --folds " + k, DATA, KERNEL, "--folds",
                id=f"classify-folds-{k}",
            )
            for k in ("1", "999")
        ),
        pytest.param(GRAM, _data(), KERNEL, "ground_space: needs a 'points' list", id="no-points"),
        pytest.param(GRAM, _data(points=[[0.0], [float("nan")]]), KERNEL, "ground_space", id="nan-points"),
        pytest.param(GRAM, _data(points=[[0.0], [1.0, 2.0]]), KERNEL, "ground_space", id="ragged-points"),
        pytest.param(
            GRAM, _data(points=[[0.0], [1.0]], partition={}), KERNEL, "ground_space.partition",
            id="partition-no-cells",
        ),
        # a fractional cell index was once truncated, and check-psd exited 0
        pytest.param(
            "check-psd --data {data} --kernel {kernel}",
            _data(points=[[0.0], [1.0]], partition={"cells": [[0], [1.5]]}), KERNEL,
            "ground_space.partition", id="partition-fractional-index",
        ),
        # a number for the cells or a cell was once "'int' object is not iterable", naming no cell
        pytest.param(
            GRAM, _data(points=[[0.0], [1.0]], partition={"cells": 5}), KERNEL,
            "ground_space.partition: needs a 'cells' list", id="cells-number",
        ),
        pytest.param(
            GRAM, _data(points=[[0.0], [1.0]], partition={"cells": [[0], 1]}), KERNEL,
            "ground_space.partition: cells[1] must be a list of ground indices, got 1", id="cell-number",
        ),
        pytest.param(GRAM, {**DATA, "records": [[5]]}, KERNEL, "records[0][0]", id="attribute-not-object"),
        pytest.param(
            GRAM, {**DATA, "records": [[{"type": "gaussian", "m": [0.0]}]]}, KERNEL, "records[0][0]",
            id="gaussian-no-sigma",
        ),
        pytest.param(GRAM, {**DATA, "records": [[{"type": "fuzzy"}]]}, KERNEL, "records[0][0]", id="unknown-type"),
        # json reads NaN and +-Infinity; the (0, 1] degree check alone rejects them
        *(
            pytest.param(
                GRAM, {**DATA, "records": [[{"type": "discrete", "degrees": {"0": d}}]]}, KERNEL, "records[0][0]",
                id=f"degree-{d}",
            )
            for d in (float("nan"), float("inf"), float("-inf"))
        ),
        # non-numbers that float() once took: true as 1.0, "0.5" parsed
        pytest.param(
            GRAM, {**DATA, "records": [[{"type": "discrete", "degrees": {"0": True}}]]}, KERNEL,
            "records[0][0]: degree at index 0 must be a number, got True", id="degree-true",
        ),
        pytest.param(
            GRAM, {**DATA, "records": [[{"type": "discrete", "degrees": {"0": "0.5"}}]]}, KERNEL,
            "records[0][0]: degree at index 0 must be a number, got '0.5'", id="degree-string",
        ),
        # values float() refuses were once its own message, naming neither the degree nor its index,
        # and an int too large for a float was an OverflowError traceback (exit 1)
        *(
            pytest.param(
                GRAM, {**DATA, "records": [[{"type": "discrete", "degrees": {"0": d}}]]}, KERNEL,
                f"records[0][0]: degree at index 0 must be a number, got {shown}", id=f"degree-{name}",
            )
            for name, d, shown in (
                ("null", None, "None"), ("list", [], "[]"), ("object", {}, "{{}}"), ("huge-int", 10**400, 10**400),
            )
        ),
        # arrays of the same, once read by np.asarray(..., dtype=float), each to exit 0 with a matrix
        pytest.param(
            GRAM, {"records": [[{"type": "gaussian", "m": ["0.5", True], "sigma": [True, "2"]}]]},
            {"family": "nonsingleton_gaussian"}, "records[0][0]: m[0] must be a number, got '0.5'",
            id="gaussian-string-and-true",
        ),
        pytest.param(
            GRAM, _data(points=[["0"], [True]]), KERNEL, "ground_space: points[0][0] must be a number, got '0'",
            id="points-string-and-true",
        ),
        pytest.param(
            GRAM, _data(points=[[0.0], [1.0]], partition={"cells": [[0], [1]], "measures": ["2", True]}), KERNEL,
            "ground_space.partition: measures[0] must be a number, got '2'", id="measures-string-and-true",
        ),
        # two keys for one index once kept the last degree silently
        *(
            pytest.param(
                GRAM, {**DATA, "records": [[{"type": "discrete", "degrees": {"1": 0.5, key: 0.9}}]]}, KERNEL,
                "records[0][0]: index 1 is given more than once", id=f"index-twice-{name}",
            )
            for name, key in (("zero-padded", "01"), ("two-zeros", "001"))
        ),
        # " 1" is now refused as a key before it can name index 1 a second time
        pytest.param(
            GRAM, {**DATA, "records": [[{"type": "discrete", "degrees": {"1": 0.5, " 1": 0.9}}]]}, KERNEL,
            "records[0][0]: degree key ' 1' is not a ground index", id="index-twice-space",
        ),
        # keys that int() once took silently: "1_0" as 10, " 1" and "+1" as 1, "-0" as 0, an Arabic-Indic digit as 3
        *(
            pytest.param(
                GRAM,
                {
                    **_data(points=[[float(k)] for k in range(12)]),
                    "records": [RECORD, [{"type": "discrete", "degrees": {key: 0.9}}]],
                },
                KERNEL, f"records[1][0]: degree key {key!r} is not a ground index", id=f"key-{name}",
            )
            for name, key in (
                ("underscore", "1_0"), ("space", " 1"), ("plus", "+1"), ("minus-zero", "-0"),
                ("arabic-indic", "\u0663"), ("empty", ""),
            )
        ),
        # JSON true once passed as label +1, because True == 1
        pytest.param(
            "mmd-test --data {data} --kernel {kernel} --seed 0", {**DATA, "labels": [True, -1]}, KERNEL,
            "labels[0]", id="label-true",
        ),
        # once a RecursionError traceback (exit 1), and a decode error naming no file
        pytest.param(GRAM.replace("{data}", "{deep}"), DATA, KERNEL, "{tmp}/deep: ", id="data-deep-nesting"),
        pytest.param(GRAM.replace("{data}", "{binary}"), DATA, KERNEL, "{tmp}/binary: ", id="data-not-utf8"),
        # a repeated key once kept its last value silently
        pytest.param(
            GRAM.replace("{data}", "{degree_twice}"), DATA, KERNEL,
            "{tmp}/degree_twice: key '1' is given more than once", id="degree-key-twice",
        ),
        pytest.param(
            GRAM.replace("{kernel}", "{family_twice}"), DATA, KERNEL,
            "{tmp}/family_twice: key 'family' is given more than once", id="family-twice",
        ),
        # an integer literal beyond int()'s digit limit was once a bare ValueError message, naming no file
        pytest.param(
            "check-psd --data {long_degree} --kernel {kernel}", DATA, KERNEL, "{tmp}/long_degree: ",
            id="data-long-integer",
        ),
        pytest.param(
            "check-psd --data {data} --kernel {long_degree_kernel}", DATA, KERNEL, "{tmp}/long_degree_kernel: ",
            id="kernel-long-integer",
        ),
        pytest.param(GRAM, [DATA], KERNEL, "dataset document", id="document-not-object"),
        pytest.param(GRAM, {**DATA, "records": 5}, KERNEL, "'records' list", id="records-not-list"),
        pytest.param(GRAM, {**DATA, "records": [[]]}, KERNEL, "records[0]", id="empty-record"),
        pytest.param(GRAM, DATA, {}, "'family'", id="config-no-family"),
        pytest.param(GRAM, DATA, {**KERNEL, "k1": {"gamma": 1.0}}, "'kind'", id="k1-no-kind"),
        pytest.param(
            GRAM, DATA, {"family": "weighted_cross_product", "weights": [1.0, -1.0]}, "weights",
            id="negative-weight",
        ),
        pytest.param(
            GRAM, DATA, {"family": "weighted_cross_product", "weights": [1.0]}, "weights", id="weight-count",
        ),
    ],
)
def test_invalid_input_exits_2_naming_where(tmp_path, capsys, argv, data, kernel, where):
    files = {**TABLES, "data": json.dumps(data), "kernel": json.dumps(kernel)}
    paths = {name: tmp_path / name for name in (*files, "out")}
    for name, text in files.items():
        paths[name].write_bytes(text if isinstance(text, bytes) else text.encode())
    with wall_time(WALL_S):
        code, _, err = run_cli(capsys, *argv.format(tmp=tmp_path, **paths).split())
    assert code == 2
    assert where.format(tmp=tmp_path) in err
    assert "RuntimeWarning" not in err
    assert not paths["out"].exists()


SEED = "--seed must be finite and >= 0, got -1"


@pytest.mark.parametrize(
    "command, options, message",
    [
        pytest.param("classify", ["--folds", "2", "--seed", "-1"], SEED, id="classify"),
        pytest.param("mmd-test", ["--seed", "-1"], SEED, id="mmd-test"),
        pytest.param("check-psd", ["--tol", "nan"], "--tol must be finite and > 0, got nan", id="check-psd-tol"),
        pytest.param(
            "classify", ["--folds", "2", "--seed", "0", "--ridge", "nan"], "--ridge must be finite and > 0, got nan",
            id="classify-ridge",
        ),
    ],
)
def test_seed_is_checked_before_the_gram(tmp_path, capsys, monkeypatch, command, options, message):
    # classify once computed the whole Gram before cross_validate refused the seed, and check-psd
    # and classify read --tol and --ridge only after it too
    def no_gram(*args, **kwargs):
        raise AssertionError("the Gram was computed")

    monkeypatch.setattr(cli, "compute_gram", no_gram)
    monkeypatch.setattr(learn, "compute_gram", no_gram)
    data, kernel = tmp_path / "data.json", tmp_path / "kernel.json"
    data.write_text(json.dumps(DATA))
    kernel.write_text(json.dumps(KERNEL))
    code, out, err = run_cli(capsys, command, "--data", str(data), "--kernel", str(kernel), *options)
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


COMMANDS = ["fuzzify", "gram", "check-psd", "classify", "mmd-test"]
REPORT_KEYS = {  # each report's keys in print order; check-psd's and mmd-test's end with PsdReport's and MmdResult's
    "fuzzify": ["command", "method", "records", "out"],
    "gram": ["command", "n", "kernel", "matrix_file"],
    "check-psd": ["command", "n", "verdict", "min_eigenvalue", "max_eigenvalue", "tolerance", "eigenvalues"],
    "classify": ["command", "n", "folds", "seed", "ridge", "fold_accuracies", "mean_accuracy"],
    "mmd-test": ["command", "n_a", "n_b", "statistic", "p_value", "n_permutations", "seed", "generator"],
}


@pytest.mark.parametrize("command", COMMANDS)
def test_report_keys_in_order(tmp_path, capsys, discrete_dataset, linear_kernel_cfg, command):
    table = tmp_path / "table.csv"
    table.write_text("1.0,2.0\n3.0,4.0\n")
    options = {
        "fuzzify": ["--data", table, "--method", "histogram", "--bins", "3", "--out", tmp_path / "fuzzy.json"],
        "gram": ["--out", tmp_path / "gram.txt"],
        "classify": ["--folds", "2", "--seed", "0"],
        "mmd-test": ["--permutations", "5", "--seed", "0"],
    }.get(command, [])
    inputs = [] if command == "fuzzify" else ["--data", discrete_dataset, "--kernel", linear_kernel_cfg]
    code, out, _ = run_cli(capsys, command, *map(str, inputs + options))
    assert code == 0
    assert list(json.loads(out)) == REPORT_KEYS[command]
EVERY_REQUIRED = ["--data", "d", "--kernel", "k", "--out", "o", "--method", "gaussian", "--seed", "1"]


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize(
    "options, code, prog",
    [(["--help"], 0, "fuzzykernels {}"), ([], 2, "fuzzykernels {}"), ([*EVERY_REQUIRED, "extra"], 2, "fuzzykernels")],
    ids=["help", "no-options", "unrecognized"],
)
def test_command_parser_matches_the_subparser(capsys, command, options, code, prog):
    # main parses a leading command with that command's parser alone, and an argv that parser leaves
    # tokens of with the whole parser: each help and error text is the whole parser's, byte for byte
    texts = []
    for parse in (main, build_parser().parse_args):
        with pytest.raises(SystemExit) as exc:
            parse([command, *options])
        texts.append((exc.value.code, *capsys.readouterr()))
    assert texts[0] == texts[1]
    assert texts[0][0] == code
    assert f"usage: {prog.format(command)} [-h]" in "".join(texts[0][1:])


def test_a_command_call_builds_one_parser(capsys, monkeypatch, discrete_dataset, linear_kernel_cfg):
    # the whole parser is 7: the top level, a parent of the Gram options and one per command
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    code, _, _ = run_cli(capsys, "check-psd", "--data", str(discrete_dataset), "--kernel", str(linear_kernel_cfg))
    assert code == 0
    assert len(built) == 1


class TestConsoleScript:
    # the installed fuzzykernels script calls main() with no argument, so main reads sys.argv
    def test_reads_sys_argv(self, capsys, monkeypatch, discrete_dataset, linear_kernel_cfg):
        argv = ["check-psd", "--data", str(discrete_dataset), "--kernel", str(linear_kernel_cfg)]
        expected = run_cli(capsys, *argv)
        monkeypatch.setattr(sys, "argv", ["fuzzykernels", *argv])
        assert main() == 0
        assert (0, *capsys.readouterr()) == expected

    def test_help(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["fuzzykernels", "--help"])
        with pytest.raises(SystemExit) as exc:
            main()
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: fuzzykernels [-h] {fuzzify,gram,check-psd,classify,mmd-test}")


def test_import_loads_no_scipy():
    # numpy is the only runtime dependency; a fresh interpreter shows what importing pulls in
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    # and it builds no parser: each call builds its own, so no import-time parser hides that cost
    code = (
        "import argparse, sys; built = []; init = argparse.ArgumentParser.__init__; "
        "argparse.ArgumentParser.__init__ = lambda self, *a, **k: built.append(1) or init(self, *a, **k); "
        "before = set(sys.modules); import fuzzykernels.cli; "
        "print(sorted({m.partition('.')[0] for m in set(sys.modules) - before} - set(sys.stdlib_module_names))); "
        "print(len(built))"
    )
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert result.stdout.split("\n")[:2] == ["['fuzzykernels', 'numpy']", "0"]


# runs the four computing commands in one process and prints their stdout and exit codes as JSON
THREAD_RUN = """
import contextlib, io, json, sys
from fuzzykernels.cli import build_parser, main
out = {}
for argv in json.loads(sys.argv[1]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    out[argv[0]] = [code, buf.getvalue()]
print(json.dumps(out))
"""


def test_outputs_across_blas_thread_counts(tmp_path):
    # 500 records of 1-3 whole 4 x 4 cells on a 32 x 32 grid: the intersection join at a size where BLAS splits work
    rng = np.random.default_rng(8)
    cells = [[(4 * r + i) * 32 + 4 * c + j for i in range(4) for j in range(4)] for r in range(8) for c in range(8)]
    labels = rng.permutation(np.resize([1, -1], 500))
    records = []
    for lab in labels:
        pool = np.arange(32) + (0 if lab == 1 else 32)
        chosen = rng.choice(pool, int(rng.integers(1, 4)), replace=False)
        degrees = {str(p): rng.uniform(0.05, 1.0) for k in sorted(chosen) for p in cells[k]}
        records.append([{"type": "discrete", "degrees": degrees}])
    data = tmp_path / "data.json"
    kernel = tmp_path / "kernel.json"
    data.write_text(json.dumps({
        "ground_space": {"points": [[float(r), float(c)] for r in range(32) for c in range(32)],
                         "partition": {"cells": cells}},
        "records": records,
        "labels": labels.tolist(),
    }))
    kernel.write_text(json.dumps({"family": "intersection", "tnorm": "product"}))
    src = str(Path(__file__).resolve().parents[1] / "src")
    runs = {}
    for threads in ("1", "2"):
        files = ["--data", str(data), "--kernel", str(kernel)]
        argvs = [
            ["gram", *files, "--out", str(tmp_path / f"gram{threads}.txt")],
            ["check-psd", *files],
            ["classify", *files, "--seed", "3"],
            ["mmd-test", *files, "--seed", "3", "--permutations", "100"],
        ]
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
        result = subprocess.run(
            [sys.executable, "-c", THREAD_RUN, json.dumps(argvs)], env=env, capture_output=True, text=True, check=True
        )
        runs[threads] = json.loads(result.stdout)
    one, two = runs["1"], runs["2"]
    assert all(code == 0 for code, _ in [*one.values(), *two.values()])
    assert (tmp_path / "gram1.txt").read_bytes() == (tmp_path / "gram2.txt").read_bytes()
    assert one["gram"][1].replace("gram1", "gram2") == two["gram"][1]
    assert one["classify"] == two["classify"]
    assert one["mmd-test"] == two["mmd-test"]
    # eigvalsh is bit-identical only for one thread count; across counts the
    # verdict holds and the eigenvalues agree within the tolerance
    psd1, psd2 = json.loads(one["check-psd"][1]), json.loads(two["check-psd"][1])
    assert psd1["verdict"] == psd2["verdict"]
    bound = psd1["tolerance"] * max(1.0, abs(psd1["max_eigenvalue"]))
    assert np.abs(np.subtract(psd1["eigenvalues"], psd2["eigenvalues"])).max() <= bound
