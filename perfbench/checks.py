"""Output checks for the benchmark's CLI commands.

Each check returns a list of problems; an empty list means the output is
correct.  Kernel values are compared with a reference Gram built pair by pair
from the scalar per-family functions (per-attribute values multiplied here),
so a faster Gram engine in the program is checked against the code it
replaces.  Floats must agree within a relative 1e-12, with an absolute floor
of 1e-15 times the largest reference entry so that an exact zero may come
back as rounding noise.
"""

from __future__ import annotations

import json
import math

import numpy as np

from fuzzykernels import kernels
from fuzzykernels.dataset import Dataset
from fuzzykernels.gram import read_matrix
from fuzzykernels.learn import mmd_statistic

REL = 1e-12
FLOOR = 1e-15
MIN_ACCURACY = 0.6
FOLDS = 5


def _scalar_kernel(spec, ds: Dataset):
    if spec.family == "cross_product":
        return lambda x, y: kernels.cross_product_kernel(x, y, spec.k1, spec.k2)
    if spec.family == "intersection":
        return lambda x, y: kernels.intersection_kernel(x, y, spec.tnorm, ds.ground.partition)
    if spec.family == "nonsingleton_gaussian":
        return kernels.nonsingleton_gaussian_kernel
    raise ValueError(f"no scalar reference for family {spec.family!r}")


def reference_gram(ds: Dataset, kernel_cfg: dict) -> np.ndarray:
    spec = kernels.spec_from_config(kernel_cfg, ds.ground)
    k = _scalar_kernel(spec, ds)
    n = len(ds.records)
    ref = np.empty((n, n))
    for i in range(n):
        for j in range(i, n):
            v = 1.0
            for x, y in zip(ds.records[i], ds.records[j]):
                v *= k(x, y)
            ref[i, j] = ref[j, i] = v
    return ref


def _far(got, want, scale: float) -> np.ndarray:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    return ~(np.abs(got - want) <= REL * np.abs(want) + FLOOR * scale)


def _report(stdout: str, command: str) -> tuple[dict | None, list[str]]:
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return None, [f"{command}: stdout is not JSON: {exc}"]
    if not isinstance(report, dict) or report.get("command") != command:
        return None, [f"{command}: stdout is not a {command} report"]
    return report, []


def check_gram(stdout: str, matrix_path, ref: np.ndarray) -> list[str]:
    report, problems = _report(stdout, "gram")
    if report is None:
        return problems
    n = ref.shape[0]
    if report.get("n") != n:
        problems.append(f"gram: n is {report.get('n')}, expected {n}")
    try:
        m = read_matrix(matrix_path)
    except (OSError, ValueError) as exc:
        return problems + [f"gram: matrix file unreadable: {exc}"]
    if m.shape != ref.shape:
        return problems + [f"gram: matrix shape {m.shape}, expected {ref.shape}"]
    if not np.isfinite(m).all():
        problems.append("gram: matrix has non-finite entries")
    if not np.array_equal(m, m.T):
        problems.append("gram: matrix is not exactly symmetric")
    bad = np.argwhere(_far(m, ref, np.abs(ref).max()))
    if len(bad):
        i, j = bad[0]
        problems.append(
            f"gram: {len(bad)} entries differ from the scalar reference, first ({i}, {j}): "
            f"{m[i, j]!r} vs {ref[i, j]!r}"
        )
    return problems


def check_psd_report(stdout: str, n: int) -> list[str]:
    report, problems = _report(stdout, "check-psd")
    if report is None:
        return problems
    if report.get("verdict") != "PSD":
        problems.append(f"check-psd: verdict {report.get('verdict')!r}, expected 'PSD'")
    eigs = report.get("eigenvalues")
    if not isinstance(eigs, list) or len(eigs) != n:
        return problems + [f"check-psd: expected {n} eigenvalues"]
    e = np.asarray(eigs, dtype=float)
    if not np.isfinite(e).all() or (np.diff(e) < 0).any():
        problems.append("check-psd: eigenvalues are not finite and ascending")
    return problems


def check_classify(stdout: str) -> list[str]:
    report, problems = _report(stdout, "classify")
    if report is None:
        return problems
    folds = report.get("fold_accuracies")
    mean = report.get("mean_accuracy")
    if not isinstance(folds, list) or len(folds) != FOLDS or not isinstance(mean, float):
        return problems + [f"classify: expected {FOLDS} fold accuracies and a mean"]
    if not math.isclose(mean, sum(folds) / FOLDS, rel_tol=REL):
        problems.append(f"classify: mean {mean!r} is not the mean of the folds {folds}")
    if not mean > MIN_ACCURACY:
        problems.append(f"classify: mean accuracy {mean} is not above {MIN_ACCURACY}")
    return problems


def check_mmd(stdout: str, ref: np.ndarray, labels, permutations: int) -> list[str]:
    report, problems = _report(stdout, "mmd-test")
    if report is None:
        return problems
    p = report.get("p_value")
    if report.get("n_permutations") != permutations or not isinstance(p, float):
        return problems + [f"mmd-test: expected a p-value over {permutations} permutations"]
    k = p * (1 + permutations)
    if abs(k - round(k)) > 1e-6 or not 1 <= round(k) <= 1 + permutations:
        problems.append(f"mmd-test: p*(1+P) = {k!r} is not an integer in [1, {1 + permutations}]")
    labels = np.asarray(labels)
    a = np.flatnonzero(labels == 1)
    b = np.flatnonzero(labels == -1)
    want = mmd_statistic(ref[np.ix_(a, a)], ref[np.ix_(b, b)], ref[np.ix_(a, b)])
    got = report.get("statistic")
    if not isinstance(got, float) or _far(got, want, np.abs(ref).max()):
        problems.append(f"mmd-test: statistic {got!r}, scalar reference gives {want!r}")
    return problems
