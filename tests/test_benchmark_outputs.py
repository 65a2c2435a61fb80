"""The benchmark's own output checks, run on the program's outputs.

``perfbench/checks.py`` compares the four computing commands' outputs on each
benchmark workload with a Gram built pair by pair from the scalar functions.
Running those checks here makes a wrong engine result fail the test suite,
not only a benchmark run.  The benchmark's files are only read: their modules
are loaded without writing bytecode, and every output goes to ``tmp_path``.
"""

import importlib.util
import sys
from pathlib import Path
from unittest import mock

import pytest

from fuzzykernels import cli, parse_dataset

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SEED = 1


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look up their class's module here
    with mock.patch.object(sys, "dont_write_bytecode", True):
        spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
checks = _load("checks")


@pytest.mark.parametrize("name", workloads.NAMES)
def test_workload_outputs_pass_the_benchmark_checks(tmp_path, capsys, name):
    w = workloads.generate(name, SEED)
    data, kernel = workloads.write_inputs(w, tmp_path)
    matrix = tmp_path / "gram.txt"
    out = {}
    for command in workloads.COMMANDS:
        assert cli.main(workloads.argv(w, command, data, kernel, matrix, SEED)) == 0, command
        out[command] = capsys.readouterr().out
    ref = checks.reference_gram(parse_dataset(data), w.kernel)
    labels = w.document["labels"]
    assert checks.check_gram(out["gram"], matrix, ref) == []
    assert checks.check_psd_report(out["check-psd"], len(labels)) == []
    assert checks.check_classify(out["classify"]) == []
    assert checks.check_mmd(out["mmd-test"], ref, labels, w.permutations) == []
