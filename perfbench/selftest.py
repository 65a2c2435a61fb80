"""Tests of the benchmark itself: the output checks catch corrupted outputs,
the generators are deterministic, and BENCHMARK.json names the metrics that
``run.py`` prints.

Run from the root of the repository: ``python3 perfbench/selftest.py``.
"""

from __future__ import annotations

import dataclasses
import io
import json
import sys
import unittest
from contextlib import redirect_stdout

import run
import tracing
import workloads

sys.path.insert(0, str(run.SRC))

import checks  # noqa: E402  (needs the program on sys.path)
from fuzzykernels import cli  # noqa: E402
from fuzzykernels.dataset import parse_dataset  # noqa: E402
from fuzzykernels.gram import write_matrix  # noqa: E402


class OutputChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        w = workloads.generate("gaussian-mmd", 0)
        cls.w = dataclasses.replace(w, permutations=50, jobs=1)
        work = run.OUT / "selftest"
        data, kernel = workloads.write_inputs(cls.w, work)
        cls.matrix = work / "gram.txt"
        cls.out = {}
        for c in workloads.COMMANDS:
            buf = io.StringIO()
            with redirect_stdout(buf):
                code = cli.main(workloads.argv(cls.w, c, data, kernel, cls.matrix, 3))
            assert code == 0, c
            cls.out[c] = buf.getvalue()
        cls.ref = checks.reference_gram(parse_dataset(data), cls.w.kernel)
        cls.labels = cls.w.document["labels"]

    def edited(self, command: str, **changes) -> str:
        report = json.loads(self.out[command])
        report.update(changes)
        return json.dumps(report)

    def test_true_outputs_pass(self):
        self.assertEqual(checks.check_gram(self.out["gram"], self.matrix, self.ref), [])
        self.assertEqual(checks.check_psd_report(self.out["check-psd"], len(self.labels)), [])
        self.assertEqual(checks.check_classify(self.out["classify"]), [])
        self.assertEqual(
            checks.check_mmd(self.out["mmd-test"], self.ref, self.labels, self.w.permutations), []
        )

    def test_flipped_matrix_entry_fails(self):
        for i, j in ((0, 1), (2, 2)):
            m = self.ref.copy()
            m[i, j] = -m[i, j]
            bad = self.matrix.with_name("flipped.txt")
            write_matrix(bad, m)
            self.assertNotEqual(checks.check_gram(self.out["gram"], bad, self.ref), [], (i, j))

    def test_wrong_verdict_fails(self):
        bad = self.edited("check-psd", verdict="indefinite")
        self.assertNotEqual(checks.check_psd_report(bad, len(self.labels)), [])
        eigs = json.loads(self.out["check-psd"])["eigenvalues"]
        bad = self.edited("check-psd", eigenvalues=eigs[::-1])
        self.assertNotEqual(checks.check_psd_report(bad, len(self.labels)), [])

    def test_wrong_classify_mean_fails(self):
        report = json.loads(self.out["classify"])
        bad = self.edited("classify", mean_accuracy=report["mean_accuracy"] + 0.01)
        self.assertNotEqual(checks.check_classify(bad), [])

    def test_non_integer_p_value_fails(self):
        P = self.w.permutations
        bad = self.edited("mmd-test", p_value=1.5 / (1 + P))
        self.assertNotEqual(checks.check_mmd(bad, self.ref, self.labels, P), [])

    def test_wrong_statistic_fails(self):
        report = json.loads(self.out["mmd-test"])
        bad = self.edited("mmd-test", statistic=report["statistic"] * (1 + 1e-9))
        self.assertNotEqual(checks.check_mmd(bad, self.ref, self.labels, self.w.permutations), [])


class Generators(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for name in workloads.NAMES:
            a, b = workloads.generate(name, 5), workloads.generate(name, 5)
            self.assertEqual(json.dumps(a.document), json.dumps(b.document), name)
            self.assertNotEqual(
                json.dumps(a.document), json.dumps(workloads.generate(name, 6).document), name
            )


class Tracing(unittest.TestCase):
    def test_self_time_subtracts_children(self):
        spans = [
            {"id": 0, "name": "root", "parent": None, "trace": 0, "start": 0.0, "end": 10.0},
            {"id": 1, "name": "a", "parent": 0, "trace": 0, "start": 1.0, "end": 4.0},
            {"id": 2, "name": "b", "parent": 0, "trace": 0, "start": 5.0, "end": 6.0},
            {"id": 3, "name": "c", "parent": 1, "trace": 0, "start": 2.0, "end": 3.0},
        ]
        self.assertEqual(tracing.self_times(spans), {0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0})


class BenchmarkFile(unittest.TestCase):
    def test_metrics_match_benchmark_json(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.NAMES))


if __name__ == "__main__":
    unittest.main()
