"""Runs one workload's CLI commands in a process of its own, on the one CPU
``run.py`` pins it to.

Usage: ``python3 perfbench/worker.py JOB.json`` with the program's ``src``
directory on ``PYTHONPATH``.  The job file (written by ``run.py``) names the
command lines, the time budget and where to write the result.

Every command runs in-process through ``fuzzykernels.cli.main(argv)`` with
stdout captured, after one untimed warm-up call on a small prefix of the
data.  Commands are repeated round-robin until the budget is spent, so a
slow stretch of the machine hits every command alike, and each repeat is
followed by the calibration loop of ``speed.py``.  In traced mode a
second phase replays each command as its sequence of public library calls
under a :class:`tracing.Tracer`, followed by layer probes that no command
makes on its own (a scalar ``evaluate`` sample, ``k1.pairwise``, the T-norm,
a full-data ``fit`` and a same-args ``compute_gram`` for ``mmd-test``).
"""

from __future__ import annotations

import io
import json
import resource
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

from fuzzykernels import cli, tnorms
from fuzzykernels.dataset import parse_dataset
from fuzzykernels.gram import check_psd, compute_gram, write_matrix
from fuzzykernels.kernels import evaluate, spec_from_config
from fuzzykernels.learn import cross_validate, fit, mmd_permutation_test
from fuzzykernels.sets import DiscreteFuzzySet

import speed
from tracing import Tracer, span_cost_s

SAMPLE_PAIRS = 2000
MAX_ROUNDS = 1000


def run_command(argv: list[str]) -> tuple[float, int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects the command line
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # an uncaught error is a failed operation, not a crashed benchmark
        code = 1
        err.write(traceback.format_exc())
    return time.perf_counter() - start, code, out.getvalue(), err.getvalue()


def _rounds(budget_s: float, min_rounds: int, body) -> int:
    """Call ``body()`` at least ``min_rounds`` times, then until the budget is spent."""
    deadline = time.perf_counter() + budget_s
    done = 0
    while done < min_rounds or (time.perf_counter() < deadline and done < MAX_ROUNDS):
        body()
        done += 1
    return done


def timed_phase(job: dict, budget_s: float) -> dict:
    for argv in job["warmup"].values():
        run_command(argv)
    results = {
        name: {"times": [], "scaled": [], "codes": [], "stdout": None, "stderr": "", "identical": True}
        for name in job["commands"]
    }
    cal = speed.calibrate()

    def round_():
        nonlocal cal
        for name, argv in job["commands"].items():
            elapsed, code, out, err = run_command(argv)
            after = speed.calibrate()
            r = results[name]
            r["times"].append(elapsed)
            r["scaled"].append(speed.scaled(elapsed, cal, after))
            cal = after
            r["codes"].append(code)
            if r["stdout"] is None:
                r["stdout"] = out
            elif out != r["stdout"]:
                r["identical"] = False
            if err and not r["stderr"]:
                r["stderr"] = err[-2000:]

    _rounds(budget_s, job["min_rounds"], round_)
    return results


def _counts(records, ground) -> dict:
    """Work counts of the dataset that do not depend on timing."""
    n = len(records)
    counts = {"n": n, "pairs": n * (n + 1) // 2}
    if ground is not None and isinstance(records[0][0], DiscreteFuzzySet):
        sizes = np.array([[len(a.support) for a in rec] for rec in records], dtype=float)
        counts["support_density"] = float(sizes.mean() / len(ground))
        # sum over pairs i <= j of |supp x_i| |supp x_j|, per attribute
        counts["support_terms"] = int(((sizes.sum(0) ** 2 + (sizes**2).sum(0)) / 2).sum())
    return counts


def replay(tracer: Tracer, name: str, job: dict) -> dict:
    """One command as the public calls the CLI makes, each under a span.

    The arguments repeat the CLI defaults (``--jobs 1``, ``--tol 1e-8``,
    ``--ridge 1.0``) that the benchmark's command lines leave unset.
    """
    with tracer.span(f"cli.{name}"):
        with tracer.span("dataset.parse_dataset"):
            ds = parse_dataset(job["data"])
        cfg = json.loads(Path(job["kernel"]).read_text())
        with tracer.span("kernels.spec_from_config"):
            spec = spec_from_config(cfg, ds.ground)
        if name == "mmd-test":
            a = [r for r, lab in zip(ds.records, ds.labels) if lab == 1]
            b = [r for r, lab in zip(ds.records, ds.labels) if lab == -1]
            with tracer.span("learn.mmd_permutation_test", replicas=job["permutations"]):
                mmd_permutation_test(
                    a, b, spec, n_permutations=job["permutations"], seed=job["seed"],
                    n_jobs=job["jobs"],
                )
            return {"pooled": a + b, "spec": spec}
        n = len(ds.records)
        with tracer.span("gram.compute_gram", pairs=n * (n + 1) // 2) as s:
            gram = compute_gram(ds.records, spec, n_jobs=1)
        s["nonzero"] = int(np.count_nonzero(gram.values[np.triu_indices(n)]))
        if name == "gram":
            with tracer.span("gram.write_matrix") as s:
                write_matrix(job["replay_out"], gram)
            s["bytes"] = Path(job["replay_out"]).stat().st_size
        elif name == "check-psd":
            with tracer.span("gram.check_psd"):
                check_psd(gram, tol=1e-8)
        else:
            with tracer.span("learn.cross_validate"):
                cross_validate(gram, ds.labels, regularization=1.0, folds=5, seed=job["seed"])
    return {"gram": gram, "labels": ds.labels, "records": ds.records, "spec": spec, "ground": ds.ground}


def probes(tracer: Tracer, job: dict, state: dict, pairs: np.ndarray) -> None:
    records, spec = state["records"], state["spec"]
    with tracer.span("probe.kernels.evaluate", pairs=len(pairs)):
        for i, j in pairs:
            evaluate(spec, records[i], records[j])
    if spec.k1 is not None and state["ground"] is not None:
        pts = state["ground"].points
        with tracer.span("probe.kernels.k1_pairwise", calls=25):
            for _ in range(25):
                spec.k1.pairwise(pts, pts)
    # the scalar T-norm may give way to an array form; the probe then goes quiet
    apply = getattr(tnorms, "apply", None)
    if spec.tnorm is not None and apply is not None:
        degs = [
            (x.degrees[k], y.degrees[k])
            for i, j in pairs
            for x, y in zip(records[i], records[j])
            for k in x.support & y.support
        ]
        if degs:
            with tracer.span("probe.tnorms.apply", calls=len(degs)):
                for a, b in degs:
                    apply(spec.tnorm, a, b)
    with tracer.span("probe.learn.fit"):
        fit(state["gram"], state["labels"], 1.0)
    n = len(state["pooled"])
    with tracer.span("probe.gram.compute_gram", pairs=n * (n + 1) // 2):
        compute_gram(state["pooled"], spec, n_jobs=job["jobs"])


def traced_phase(job: dict, budget_s: float) -> tuple[Tracer, dict]:
    tracer = Tracer()
    pairs = None
    state: dict = {}

    def round_():
        nonlocal pairs
        for name in job["commands"]:
            state.update(replay(tracer, name, job))
        if pairs is None:
            rng = np.random.default_rng([job["seed"], 7])
            pairs = rng.integers(0, len(state["records"]), size=(SAMPLE_PAIRS, 2))
        probes(tracer, job, state, pairs)

    _rounds(budget_s, job["min_rounds"], round_)
    counts = _counts(state["records"], state["ground"])
    counts["span_cost_s"] = span_cost_s()
    return tracer, counts


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text())
    result: dict = {}
    budget = job["budget_s"]
    if job["traced"]:
        result["commands"] = timed_phase(job, budget / 2)
        tracer, result["counts"] = traced_phase(job, budget / 2)
        tracer.write(Path(job["spans_path"]))
    else:
        result["commands"] = timed_phase(job, budget)
    # ru_maxrss is in KiB on Linux
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(job["result_path"]).write_text(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
