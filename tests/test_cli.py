import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fuzzykernels import parse_dataset, read_matrix
from fuzzykernels.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        assert meta["item_ids"] == ["0", "1", "2", "3"]
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

    def test_solver_failure_exits_3(self, capsys, monkeypatch, discrete_dataset, linear_kernel_cfg):
        def fail(_):
            raise np.linalg.LinAlgError("eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        code, _, err = run_cli(
            capsys, "check-psd", "--data", str(discrete_dataset), "--kernel", str(linear_kernel_cfg)
        )
        assert code == 3
        assert "did not converge" in err


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


TABLE = "1,2,3\n4,5,6\n"
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
        pytest.param(FUZZIFY + " gaussian", DATA, KERNEL, "--widths", id="fuzzify-no-widths"),
        pytest.param(
            FUZZIFY + " gaussian --widths 0.1,0.2", DATA, KERNEL, "2 widths for 3 columns",
            id="fuzzify-width-count",
        ),
        pytest.param(FUZZIFY + " histogram --bins 0", DATA, KERNEL, "--bins", id="fuzzify-no-bins"),
        pytest.param(
            "mmd-test --data {data} --kernel {kernel} --seed 0", {**DATA, "labels": None}, KERNEL, "labels",
            id="mmd-no-labels",
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
        pytest.param(GRAM, {**DATA, "records": [[5]]}, KERNEL, "records[0][0]", id="attribute-not-object"),
        pytest.param(
            GRAM, {**DATA, "records": [[{"type": "gaussian", "m": [0.0]}]]}, KERNEL, "records[0][0]",
            id="gaussian-no-sigma",
        ),
        pytest.param(GRAM, {**DATA, "records": [[{"type": "fuzzy"}]]}, KERNEL, "records[0][0]", id="unknown-type"),
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
    files = {"table": TABLE, "data": json.dumps(data), "kernel": json.dumps(kernel)}
    paths = {name: tmp_path / name for name in (*files, "out")}
    for name, text in files.items():
        paths[name].write_text(text)
    code, _, err = run_cli(capsys, *argv.format(tmp=tmp_path, **paths).split())
    assert code == 2
    assert where in err
    assert not paths["out"].exists()


def test_import_loads_no_scipy():
    # numpy is the only runtime dependency; a fresh interpreter shows what importing pulls in
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import sys; before = set(sys.modules); import fuzzykernels.cli; "
        "print(sorted({m.partition('.')[0] for m in set(sys.modules) - before} - set(sys.stdlib_module_names)))"
    )
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "['fuzzykernels', 'numpy']"
