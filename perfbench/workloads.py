"""Seeded, download-free workload generators.

Each workload is a dataset document in the program's JSON dataset format, a
kernel config, and the CLI commands run on them.  Every workload runs all
four computing commands (``gram``, ``check-psd``, ``classify``, ``mmd-test``)
so that each end-to-end metric exists on each workload; what tells the
workloads apart is the data and the kernel family, which load the layers
differently; each workload's reason is its "why" in BENCHMARK.json.  The
same seed always gives byte-identical files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

COMMANDS = ("gram", "check-psd", "classify", "mmd-test")


@dataclass(frozen=True)
class Workload:
    name: str
    document: dict  # dataset file contents
    kernel: dict  # kernel config file contents
    permutations: int
    jobs: int  # --jobs of mmd-test


def _labels(rng: np.random.Generator, n: int) -> np.ndarray:
    """Balanced +1/-1 labels in seeded random order."""
    return rng.permutation(np.where(np.arange(n) < (n + 1) // 2, 1, -1))


def _discrete_cross(rng: np.random.Generator) -> Workload:
    n, grid = 120, 61
    labels = _labels(rng, n)
    # every support size 5..19 equally often per attribute, so the per-pair
    # work (sum of |supp x| |supp y|) is the same for every seed
    widths = [rng.permutation(np.resize(np.arange(5, 20), n)) for _ in range(2)]
    records = []
    for i, lab in enumerate(labels):
        attrs = []
        for a in range(2):
            centre = (20 if lab == 1 else 40) + 4 * a + rng.normal(0.0, 6.0)
            width = int(widths[a][i])
            lo = int(np.clip(round(centre - width / 2), 0, grid - width))
            mid = lo + (width - 1) / 2
            half = width / 2 + 1
            height = rng.uniform(0.5, 1.0)
            degrees = {
                str(k): float(height * (1.0 - abs(k - mid) / half)) for k in range(lo, lo + width)
            }
            attrs.append({"type": "discrete", "degrees": degrees})
        records.append(attrs)
    document = {
        "ground_space": {"points": [[float(x)] for x in np.linspace(-3.0, 3.0, grid)]},
        "records": records,
        "labels": [int(v) for v in labels],
    }
    kernel = {"family": "cross_product", "k1": {"kind": "rbf", "gamma": 0.5}, "k2": {"kind": "linear"}}
    return Workload("discrete-cross", document, kernel, permutations=1000, jobs=1)


def _gaussian_mmd(rng: np.random.Generator) -> Workload:
    n_per, dim = 60, 3
    labels = rng.permutation(np.repeat([1, -1], n_per))
    # one width per dimension, shared by every record (one fuzzification
    # process), keeps the closed form a Gaussian RBF on the means, so PSD
    widths = rng.uniform(0.5, 1.0, size=dim)
    records = []
    for lab in labels:
        means = rng.normal(0.0 if lab == 1 else 0.4, 0.3, size=dim)
        records.append([{"type": "gaussian", "m": means.tolist(), "sigma": widths.tolist()}])
    document = {"records": records, "labels": [int(v) for v in labels]}
    return Workload(
        "gaussian-mmd", document, {"family": "nonsingleton_gaussian"}, permutations=5000, jobs=2
    )


def _sparse_intersection(rng: np.random.Generator) -> Workload:
    n, side, block = 120, 32, 4
    per_row = side // block  # 8 x 8 = 64 cells
    cells = [
        [(block * br + i) * side + block * bc + j for i in range(block) for j in range(block)]
        for br in range(per_row)
        for bc in range(per_row)
    ]
    # each class favours its own 16-cell quadrant, so same-class supports overlap
    quadrant = {
        1: [k for k in range(len(cells)) if k // per_row < 4 and k % per_row < 4],
        -1: [k for k in range(len(cells)) if k // per_row >= 4 and k % per_row >= 4],
    }
    labels = _labels(rng, n)
    n_cells = rng.permutation(np.resize([1, 2, 3], n))  # same support sizes for every seed
    records = []
    for lab, size in zip(labels, n_cells):
        chosen: set[int] = set()
        for _ in range(int(size)):
            pool = quadrant[int(lab)] if rng.random() < 0.8 else range(len(cells))
            free = [k for k in pool if k not in chosen]
            chosen.add(int(rng.choice(free)))
        degrees = {
            str(i): float(rng.uniform(0.05, 1.0)) for k in sorted(chosen) for i in cells[k]
        }
        records.append([{"type": "discrete", "degrees": degrees}])
    points = [[float(r), float(c)] for r in range(side) for c in range(side)]
    document = {
        "ground_space": {"points": points, "partition": {"cells": cells}},
        "records": records,
        "labels": [int(v) for v in labels],
    }
    return Workload(
        "sparse-intersection", document, {"family": "intersection", "tnorm": "min"},
        permutations=1000, jobs=1,
    )


_GENERATORS = {
    "discrete-cross": (_discrete_cross, 1),
    "gaussian-mmd": (_gaussian_mmd, 2),
    "sparse-intersection": (_sparse_intersection, 3),
}
NAMES = tuple(_GENERATORS)


def generate(name: str, seed: int) -> Workload:
    make, tag = _GENERATORS[name]
    return make(np.random.default_rng([seed, tag]))


def prefix(w: Workload) -> Workload:
    """The first 8 records of each class, for the untimed warm-up calls."""
    labels = w.document["labels"]
    keep = [i for i, lab in enumerate(labels) if lab == 1][:8]
    keep += [i for i, lab in enumerate(labels) if lab == -1][:8]
    keep.sort()
    doc = dict(w.document)
    doc["records"] = [w.document["records"][i] for i in keep]
    doc["labels"] = [labels[i] for i in keep]
    return Workload(w.name, doc, w.kernel, permutations=20, jobs=w.jobs)


def write_inputs(w: Workload, directory: Path) -> tuple[Path, Path]:
    """Write the dataset and kernel config files; returns their paths."""
    directory.mkdir(parents=True, exist_ok=True)
    data = directory / "data.json"
    kernel = directory / "kernel.json"
    data.write_text(json.dumps(w.document) + "\n")
    kernel.write_text(json.dumps(w.kernel) + "\n")
    return data, kernel


def argv(w: Workload, command: str, data: Path, kernel: Path, out: Path, seed: int) -> list[str]:
    """CLI arguments of one command on the workload's files."""
    base = ["--data", str(data), "--kernel", str(kernel)]
    if command == "gram":
        return ["gram", *base, "--out", str(out)]
    if command == "check-psd":
        return ["check-psd", *base]
    if command == "classify":
        return ["classify", *base, "--folds", "5", "--seed", str(seed)]
    return [
        "mmd-test", *base, "--permutations", str(w.permutations), "--seed", str(seed),
        "--jobs", str(w.jobs),
    ]
