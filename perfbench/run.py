"""The repository benchmark: seeded workloads run through the fuzzykernels CLI.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload discrete-cross --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py            # every workload, seed 1, untraced

For a workload this generates its dataset from the seed, times each CLI
command in a separate worker process (see ``worker.py``), checks every
output, and prints the metrics by name and unit next to the previous run's
values.  ``--trace 1`` makes the separate traced run instead and prints the
per-layer metrics.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

Every time metric is a median over repeats in reference seconds: each
repeat's wall time scaled by the calibration loop run around it (see
``speed.py``).  The raw wall times are printed beside them and kept in the
results file.

Everything the run writes goes under ``perfbench/out/``: the generated
inputs, the command outputs, the spans file and one results file per
workload and mode, which the next run compares against.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

END_TO_END = {
    "setup_s": "s",
    "gram_s": "s",
    "check_psd_s": "s",
    "classify_s": "s",
    "mmd_test_s": "s",
    "peak_rss_mb": "MB",
}
# per-layer metrics every workload has; the last line of a traced run holds these
PER_LAYER = {
    "gram.compute_s": "s",
    "gram.us_per_pair": "us",
    "gram.pairs": "count",
    "gram.nonzero_frac": "ratio",
    "gram.check_psd_s": "s",
    "gram.write_matrix_s": "s",
    "gram.write_bytes": "bytes",
    "kernels.evaluate_us_per_pair": "us",
    "kernels.spec_s": "s",
    "learn.cross_validate_s": "s",
    "learn.fit_s": "s",
    "learn.mmd_s": "s",
    "learn.mmd_permutation_s": "s",
    "learn.replicas_per_s": "1/s",
    "dataset.parse_s": "s",
    "dataset.file_bytes": "bytes",
    "cli.residual_s": "s",
    "trace.overhead_s": "s",
}
# per-layer metrics of some workloads only: printed and kept in the results file
PER_LAYER_SOME = {
    "kernels.support_terms": "count",
    "sets.support_density": "ratio",
    "kernels.k1_pairwise_s": "s",
    "tnorms.apply_ns_per_call": "ns",
}
SETUP_REPEATS = 5
MIN_ROUNDS = 3
RUN_LIMIT_S = 170


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def measure_setup() -> tuple[list[float], list[float]]:
    """Wall and scaled times of fresh interpreters importing the CLI module,
    after one untimed import."""
    cmd = [sys.executable, "-c", "import fuzzykernels.cli"]
    times, scaled = [], []
    cal = speed.calibrate()
    for k in range(SETUP_REPEATS + 1):
        start = time.perf_counter()
        subprocess.run(cmd, env=_env(), cwd=ROOT, check=True, capture_output=True, timeout=60)
        elapsed = time.perf_counter() - start
        after = speed.calibrate()
        if k:
            times.append(elapsed)
            scaled.append(speed.scaled(elapsed, cal, after))
        cal = after
    return times, scaled


def machine_info() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
    }


def run_worker(job: dict, work: Path, limit_s: float) -> dict:
    job_path = work / "job.json"
    job_path.write_text(json.dumps(job) + "\n")
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), str(job_path)],
        env=_env(), cwd=ROOT, capture_output=True, text=True, timeout=limit_s,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(Path(job["result_path"]).read_text())


def check_outputs(checks, w, results: dict, ref, matrix: Path) -> tuple[int, int, list[str]]:
    """Attempted and failed operations, and what failed.

    An operation is one timed command call.  It fails when it exits non-zero
    or when its command's output check fails; a command whose stdout changed
    between repeats fails its check.
    """
    labels = w.document["labels"]
    attempted = failed = 0
    problems: list[str] = []
    for name, r in results.items():
        if name == "gram":
            found = checks.check_gram(r["stdout"], matrix, ref)
        elif name == "check-psd":
            found = checks.check_psd_report(r["stdout"], len(labels))
        elif name == "classify":
            found = checks.check_classify(r["stdout"])
        else:
            found = checks.check_mmd(r["stdout"], ref, labels, w.permutations)
        if not r["identical"]:
            found.append(f"{name}: stdout differs between repeats")
        bad_codes = sorted({c for c in r["codes"] if c != 0})
        if bad_codes:
            found.append(f"{name}: exit codes {bad_codes}: {r['stderr'].strip()[-500:]}")
        attempted += len(r["codes"])
        failed += len(r["codes"]) if found else 0
        problems += found
    return attempted, failed, problems


def layer_metrics(spans: list[dict], counts: dict, results: dict, w, data: Path) -> dict:
    by_name: dict[str, list[dict]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def best(name: str) -> float:
        return min(tracing.duration(s) for s in by_name[name])

    def first(name: str, field: str):
        return by_name[name][0][field]

    pairs = counts["pairs"]
    m = {
        "gram.compute_s": best("gram.compute_gram"),
        "gram.pairs": pairs,
        "gram.nonzero_frac": first("gram.compute_gram", "nonzero") / pairs,
        "gram.check_psd_s": best("gram.check_psd"),
        "gram.write_matrix_s": best("gram.write_matrix"),
        "gram.write_bytes": first("gram.write_matrix", "bytes"),
        "kernels.evaluate_us_per_pair": best("probe.kernels.evaluate")
        / first("probe.kernels.evaluate", "pairs") * 1e6,
        "kernels.spec_s": best("kernels.spec_from_config"),
        "learn.cross_validate_s": best("learn.cross_validate"),
        "learn.fit_s": best("probe.learn.fit"),
        "learn.mmd_s": best("learn.mmd_permutation_test"),
        "dataset.parse_s": best("dataset.parse_dataset"),
        "dataset.file_bytes": data.stat().st_size,
    }
    m["gram.us_per_pair"] = m["gram.compute_s"] / pairs * 1e6
    # the permutation loop is the mmd span minus a same-args Gram, paired round by round
    perm = [
        tracing.duration(a) - tracing.duration(b)
        for a, b in zip(by_name["learn.mmd_permutation_test"], by_name["probe.gram.compute_gram"])
    ]
    m["learn.mmd_permutation_s"] = statistics.median(perm)
    m["learn.replicas_per_s"] = w.permutations / m["learn.mmd_permutation_s"]

    # residual: what the untraced command spends outside the layer calls the replay makes
    roots = {s["id"]: s for s in spans if s["parent"] is None and s["name"].startswith("cli.")}
    in_layers = dict.fromkeys(roots, 0.0)
    in_commands = 0
    for s in spans:
        if s["trace"] in roots:
            in_commands += 1
            if s["parent"] in roots:
                in_layers[s["parent"]] += tracing.duration(s)
    m["cli.residual_s"] = sum(
        min(r["times"]) - min(t for sid, t in in_layers.items() if roots[sid]["name"] == f"cli.{c}")
        for c, r in results.items()
    )
    m["trace.overhead_s"] = counts["span_cost_s"] * in_commands / len(by_name["cli.gram"])

    if "support_terms" in counts:
        m["kernels.support_terms"] = counts["support_terms"]
        m["sets.support_density"] = counts["support_density"]
    if "probe.kernels.k1_pairwise" in by_name:
        m["kernels.k1_pairwise_s"] = best("probe.kernels.k1_pairwise") / first(
            "probe.kernels.k1_pairwise", "calls"
        )
    if "probe.tnorms.apply" in by_name:
        m["tnorms.apply_ns_per_call"] = best("probe.tnorms.apply") / first(
            "probe.tnorms.apply", "calls"
        ) * 1e9
    return m


def _fmt(v) -> str:
    return f"{v:d}" if isinstance(v, int) else f"{v:.6g}"


def print_metrics(title: str, metrics: dict, units: dict, notes: dict, previous: dict) -> None:
    print(title)
    for name, value in metrics.items():
        line = f"  {name:<30} {_fmt(value):>12} {units[name]:<6} {notes.get(name, ''):<34}"
        old = previous.get(name, {}).get("value")
        if old is None:
            line += " [no previous value]"
        else:
            change = f", {100.0 * (value - old) / old:+.1f}%" if old else ""
            line += f" [previous {_fmt(old)}{change}]"
        print(line)


def run_workload(name: str, seed: int, seconds: int, traced: bool) -> dict:
    import checks
    from fuzzykernels.dataset import parse_dataset

    started = time.perf_counter()
    work = OUT / name
    w = workloads.generate(name, seed)
    data, kernel = workloads.write_inputs(w, work)
    warm = workloads.prefix(w)
    warm_data, warm_kernel = workloads.write_inputs(warm, work / "warmup")
    matrix = work / "gram.txt"
    job = {
        "traced": traced,
        "budget_s": float(seconds),
        "min_rounds": MIN_ROUNDS,
        "commands": {c: workloads.argv(w, c, data, kernel, matrix, seed) for c in workloads.COMMANDS},
        "warmup": {
            c: workloads.argv(warm, c, warm_data, warm_kernel, work / "warmup" / "gram.txt", seed)
            for c in workloads.COMMANDS
        },
        "data": str(data),
        "kernel": str(kernel),
        "replay_out": str(work / "gram-replay.txt"),
        "seed": seed,
        "permutations": w.permutations,
        "jobs": w.jobs,
        "spans_path": str(work / "spans.json"),
        "result_path": str(work / "result.json"),
    }
    setup = None if traced else measure_setup()
    result = run_worker(job, work, RUN_LIMIT_S - (time.perf_counter() - started))
    commands = result["commands"]

    ref = checks.reference_gram(parse_dataset(data), w.kernel)
    attempted, failed, problems = check_outputs(checks, w, commands, ref, matrix)

    notes = {}
    if traced:
        spans = json.loads(Path(job["spans_path"]).read_text())["spans"]
        metrics = layer_metrics(spans, result["counts"], commands, w, data)
        units = {**PER_LAYER, **PER_LAYER_SOME}
        metrics = {k: metrics[k] for k in units if k in metrics}
    else:
        timings = {"setup_s": setup, **{
            c.replace("-", "_") + "_s": (r["times"], r["scaled"]) for c, r in commands.items()
        }}
        metrics = {}
        for key, (wall, scaled) in timings.items():
            metrics[key] = statistics.median(scaled)
            notes[key] = f"median of {len(wall)}; wall {min(wall):.4g}-{max(wall):.4g}"
        metrics["peak_rss_mb"] = result["peak_rss_mb"]
        units = END_TO_END

    results_path = OUT / f"results-{name}-trace{int(traced)}.json"
    previous = {}
    if results_path.exists():
        previous = json.loads(results_path.read_text()).get("metrics", {})
    machine = machine_info()
    why = {x["name"]: x["why"] for x in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]}

    print(f"workload {name}: seed {seed}, {seconds} s, trace {int(traced)}")
    print("  " + ", ".join(f"{k} {v}" for k, v in machine.items()))
    print(f"  why: {why[name]}")
    title = "per-layer metrics (traced run)" if traced else "end-to-end metrics (untraced)"
    print_metrics(title, metrics, units, notes, previous)
    print(f"  {'error_rate':<30} {failed / attempted:>12.6g} ratio  ({failed} of {attempted} operations failed)")
    for p in problems:
        print(f"  FAILED {p}")
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(traced),
        "machine": machine,
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "problems": problems,
        "metrics": {k: {"value": v, "unit": units[k], "note": notes.get(k, "")} for k, v in metrics.items()},
        "wall_times_s": {c: r["times"] for c, r in commands.items()},
        "scaled_times_s": {c: r["scaled"] for c, r in commands.items()},
    }
    if setup:
        record["wall_times_s"]["setup"], record["scaled_times_s"]["setup"] = setup
    if traced:
        record["layer_table"] = tracing.layer_table(spans)
        print(f"layer spans (spans file {Path(job['spans_path']).relative_to(ROOT)})")
        print(f"  {'span':<30} {'calls':>6} {'total_s':>10} {'self_s':>10} {'median_s':>10}")
        for row in record["layer_table"]:
            print(
                f"  {row['span']:<30} {row['calls']:>6} {row['total_s']:>10.4f} "
                f"{row['self_s']:>10.4f} {row['median_s']:>10.4g}"
            )
    results_path.write_text(json.dumps(record, indent=1) + "\n")

    keep = PER_LAYER if traced else END_TO_END
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in keep},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*workloads.NAMES, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "fuzzykernels" / "cli.py").is_file():
        print(f"error: no program source at {SRC / 'fuzzykernels'}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    sys.path.insert(0, str(SRC))
    # One CPU for this process and every process it starts.  The calibration
    # loop then runs on the CPU whose speed it is meant to measure, and
    # --jobs 2 measures the thread pools' own overhead, not how two shared
    # vCPUs happen to hand the interpreter lock back and forth.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    summaries = {n: run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names}
    if len(names) == 1:
        line = summaries[names[0]]
    else:
        line = {
            "correct": all(s["correct"] for s in summaries.values()),
            "attempted": sum(s["attempted"] for s in summaries.values()),
            "failed": sum(s["failed"] for s in summaries.values()),
            "metrics": {f"{n}.{k}": v for n, s in summaries.items() for k, v in s["metrics"].items()},
        }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
