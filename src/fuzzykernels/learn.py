"""Desk-scale consumers of the kernels: a dual-form ridge classifier for
noisy/fuzzified supervised data, and an MMD permutation two-sample test."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import NumericError
from .gram import GramMatrix, _as_matrix, _provenance, compute_gram
from .kernels import FuzzyKernelSpec, Record

__all__ = [
    "DualModel",
    "MmdResult",
    "fit",
    "predict",
    "cross_validate",
    "mmd_statistic",
    "mmd_permutation_test",
]

RNG_NAME = "numpy-pcg64"


@dataclass
class DualModel:
    """Kernel ridge classifier in dual form: decision value is cross @ coefficients."""

    coefficients: np.ndarray
    item_ids: list[str]
    bias: float
    spec: FuzzyKernelSpec | None
    regularization: float


@dataclass
class MmdResult:
    statistic: float
    p_value: float
    n_permutations: int
    seed: int
    generator: str = RNG_NAME


def _labels_pm1(labels) -> np.ndarray:
    y = np.asarray(labels, dtype=float)
    if y.ndim != 1:
        raise ValueError("labels must be a flat vector")
    if not np.isin(y, (-1.0, 1.0)).all():
        raise ValueError("labels must be +1 or -1")
    return y


def fit(gram: GramMatrix, labels, regularization: float) -> DualModel:
    """Solve ``(G + lambda I) c = y`` for the dual coefficients.

    Labels are +/-1 and treated as centered, so the bias is fixed at 0.  A
    non-finite Gram entry or a singular system raises NumericError.
    """
    if not regularization > 0:
        raise ValueError("regularization must be > 0")
    g = _as_matrix(gram)
    y = _labels_pm1(labels)
    if y.shape[0] != g.shape[0]:
        raise ValueError(f"{y.shape[0]} labels for a {g.shape[0]}x{g.shape[1]} Gram matrix")
    if not np.isfinite(g).all():
        raise NumericError("Gram matrix contains non-finite entries")
    try:
        coef = np.linalg.solve(g + regularization * np.eye(g.shape[0]), y)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"dual system is singular: {exc}") from exc
    if not np.isfinite(coef).all():
        raise NumericError("dual solve produced non-finite coefficients")
    ids, spec = _provenance(gram, g.shape[0])
    return DualModel(
        coefficients=coef,
        item_ids=ids,
        bias=0.0,
        spec=spec,
        regularization=float(regularization),
    )


def predict(model: DualModel, cross) -> np.ndarray:
    """Sign of the decision values for a test-by-train kernel matrix.

    ``cross[i, j] = k(test_i, train_j)``; sign(0) is +1 so predictions are
    deterministic.
    """
    c = np.atleast_2d(np.asarray(cross, dtype=float))
    if c.shape[1] != model.coefficients.shape[0]:
        raise ValueError(
            f"cross matrix has {c.shape[1]} columns, model has {model.coefficients.shape[0]} coefficients"
        )
    scores = c @ model.coefficients + model.bias
    return np.where(scores >= 0.0, 1, -1)


def cross_validate(
    gram: GramMatrix, labels, regularization: float, folds: int = 5, seed: int = 0
) -> tuple[list[float], float]:
    """Seeded k-fold cross validation on a precomputed Gram matrix.

    Returns (per-fold accuracies, mean accuracy).  Fold assignment is a seeded
    shuffle split into ``folds`` chunks, so results are reproducible.
    """
    g = _as_matrix(gram)
    y = _labels_pm1(labels)
    n = g.shape[0]
    if y.shape[0] != n:
        raise ValueError("labels must match the Gram matrix size")
    if not 2 <= folds <= n:
        raise ValueError(f"folds must be between 2 and {n}")
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    chunks = np.array_split(order, folds)
    accuracies = []
    for k, test_idx in enumerate(chunks):
        train_idx = np.concatenate([chunks[j] for j in range(folds) if j != k])
        model = fit(g[np.ix_(train_idx, train_idx)], y[train_idx], regularization)
        pred = predict(model, g[np.ix_(test_idx, train_idx)])
        accuracies.append(float(np.mean(pred == y[test_idx])))
    return accuracies, float(np.mean(accuracies))


def mmd_statistic(gxx, gyy, gxy) -> float:
    """Biased MMD^2 estimate: mean(gxx) + mean(gyy) - 2 mean(gxy), floored at 0."""
    xx, yy, xy = _as_matrix(gxx), _as_matrix(gyy), _as_matrix(gxy)
    if xx.size == 0 or yy.size == 0:
        raise ValueError("MMD needs two non-empty samples")
    if xy.shape != (xx.shape[0], yy.shape[0]):
        raise ValueError(
            f"cross matrix shape {xy.shape} inconsistent with samples of size "
            f"{xx.shape[0]} and {yy.shape[0]}"
        )
    v = float(xx.mean() + yy.mean() - 2.0 * xy.mean())
    return max(v, 0.0)


def _split_statistic(pooled: np.ndarray, idx_a: np.ndarray, idx_b: np.ndarray) -> float:
    return mmd_statistic(
        pooled[np.ix_(idx_a, idx_a)],
        pooled[np.ix_(idx_b, idx_b)],
        pooled[np.ix_(idx_a, idx_b)],
    )


def mmd_permutation_test(
    sample_a: Sequence[Record],
    sample_b: Sequence[Record],
    spec: FuzzyKernelSpec,
    n_permutations: int = 200,
    seed: int = 0,
    n_jobs: int = 1,
) -> MmdResult:
    """Two-sample permutation test on the MMD statistic.

    The pooled Gram matrix is computed once; each permutation replica
    re-splits it by sub-indexing.  Replica r draws its shuffle from a
    generator seeded by (seed, r), so the whole result is reproducible from
    (seed, n_permutations).  ``n_jobs`` is accepted for compatibility and
    does not change the result: replicas run one after another in the
    calling thread.

    p-value uses the add-one convention:
    ``(1 + #{permuted >= observed}) / (1 + n_permutations)``.
    """
    if len(sample_a) == 0 or len(sample_b) == 0:
        raise ValueError("both samples must be non-empty")
    if n_permutations < 1:
        raise ValueError("need at least one permutation")
    pooled = list(sample_a) + list(sample_b)
    gram = compute_gram(pooled, spec, n_jobs=n_jobs)
    n = len(sample_a)
    total = len(pooled)
    all_idx = np.arange(total)
    observed = _split_statistic(gram.values, all_idx[:n], all_idx[n:])

    stats = []
    for r in range(n_permutations):
        perm = np.random.default_rng([seed, r]).permutation(total)
        stats.append(_split_statistic(gram.values, perm[:n], perm[n:]))
    exceed = sum(1 for s in stats if s >= observed)
    p_value = (1 + exceed) / (1 + n_permutations)
    return MmdResult(
        statistic=observed,
        p_value=p_value,
        n_permutations=int(n_permutations),
        seed=int(seed),
    )
