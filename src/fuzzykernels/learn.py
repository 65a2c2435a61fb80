"""Desk-scale consumers of the kernels: a dual-form ridge classifier for noisy/fuzzified
supervised data, whose model is its coefficient vector, and an MMD permutation two-sample test."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import NumericError, ValidationError, _labels, _number, _numbers
from .gram import GramMatrix, _as_matrix, _items, compute_gram
from .kernels import FuzzyKernelSpec, Record

__all__ = [
    "MmdResult",
    "fit",
    "predict",
    "cross_validate",
    "mmd_statistic",
    "mmd_permutation_test",
]

RNG_NAME = "numpy-pcg64"
# a block's N-wide MMD temporaries, 4 float64 arrays' worth, hold max(this, N^2 // 16) elements: N = 2040 gets 31
# rows, not 8, and N <= 1024, every benchmark size, this budget; a chunk of this // 16 replicas is scored at once
_NULL_BLOCK_ELEMENTS = 1 << 16
# a p-value of 1e-6 is fine enough for any test; 10**6 replicas take ~3 s at N = 120, and time grows as N^2
_MAX_PERMUTATIONS = 10**6


@dataclass
class MmdResult:
    """:func:`mmd_permutation_test`'s result; its fields, in this order, end the ``mmd-test`` report."""

    statistic: float
    p_value: float
    n_permutations: int
    seed: int
    generator: str = RNG_NAME


def _dual_solve(g: np.ndarray, y: np.ndarray, regularization: float) -> np.ndarray:
    """``c`` solving ``(g + regularization I) c = y``; a diagonal entry that overflows, a singular system or a
    non-finite ``c`` raises NumericError."""
    with np.errstate(over="ignore"):
        a = g + regularization * np.eye(g.shape[0])
    for i in np.flatnonzero(~np.isfinite(np.diag(a)))[:1]:
        raise NumericError(f"diagonal entry {i} of gram + regularization * I is not finite: {a[i, i]}")
    try:
        coef = np.linalg.solve(a, y)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"dual system is singular: {exc}") from exc
    if not np.isfinite(coef).all():
        raise NumericError("dual solve produced non-finite coefficients")
    return coef


def _signs(cross: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """Predicted labels: the sign of ``cross @ coef``, with sign(0) = +1; a non-finite value raises NumericError."""
    with np.errstate(over="ignore", invalid="ignore"):
        values = cross @ coef
    for i in np.flatnonzero(~np.isfinite(values))[:1]:
        raise NumericError(f"decision value of row {i} is not finite: {values[i]}")
    return np.where(values >= 0.0, 1, -1)


def fit(gram: GramMatrix, labels, regularization: float) -> np.ndarray:
    """The model: the dual coefficients ``c`` solving ``(G + lambda I) c = y``, one per training item
    in the training Gram's order, which the columns of :func:`predict`'s ``cross`` follow.

    Labels are +/-1 and treated as centered, so the model has no bias term.
    An empty Gram raises ValidationError; a non-finite entry or a singular system, NumericError.
    """
    regularization = _number(regularization, "regularization")
    g = _as_matrix(gram, "gram")
    if not g.size:
        raise ValidationError("gram must be non-empty, got 0 x 0")
    return _dual_solve(g, _labels(labels, g.shape[0]), regularization)


def predict(coefficients, cross) -> np.ndarray:
    """Sign of the decision values ``cross @ coefficients``, for :func:`fit`'s coefficients and a
    test-by-train kernel matrix ``cross[i, j] = k(test_i, train_j)`` whose columns follow the training
    Gram's item order: ``compute_gram([*train, *test], spec)``'s ``values[len(train):, :len(train)]``.
    sign(0) is +1 so predictions are deterministic."""
    coef = _numbers(coefficients, "coefficients")
    if coef.ndim != 1:
        raise ValidationError(f"coefficients must be a flat vector, got shape {coef.shape}")
    c, k = np.atleast_2d(_as_matrix(cross, "cross", square=False)), coef.shape[0]
    if c.ndim != 2 or c.shape[1] != k:
        raise ValidationError(f"cross must be 2-D with {k} columns, one per coefficient, got shape {c.shape}")
    return _signs(c, coef)


def cross_validate(
    gram: GramMatrix, labels, regularization: float, folds: int = 5, seed: int = 0
) -> tuple[list[float], float]:
    """Seeded k-fold cross validation on a precomputed Gram matrix.

    Returns (per-fold accuracies, mean accuracy).  Fold k tests the k-th
    ``np.array_split(default_rng(seed).permutation(n), folds)`` chunk and trains
    on the other chunks in order, with :func:`fit` and :func:`predict`'s rules.
    """
    g = np.ascontiguousarray(_as_matrix(gram, "gram"))  # a flat take copies any other layout whole, per call
    y = _labels(labels, len(g))
    folds = _number(folds, "folds", 2, closed=True, integral=True, most=len(g))
    rng = np.random.default_rng(_number(seed, "seed", closed=True, integral=True))
    regularization = _number(regularization, "regularization")
    chunks = np.array_split(rng.permutation(len(g)), folds)
    accuracies = []
    for k, test in enumerate(chunks):
        train = np.concatenate(chunks[:k] + chunks[k + 1:])
        # each block is one take of flat indices: no rows x n temporary, so a fold's peak stays at fit's
        coef = _dual_solve(g.take(train[:, None] * len(g) + train), y[train], regularization)
        accuracies.append(float(np.mean(_signs(g.take(test[:, None] * len(g) + train), coef) == y[test])))
    return accuracies, float(np.mean(accuracies))


def mmd_statistic(gxx, gyy, gxy) -> float:
    """Biased MMD^2 estimate: mean(gxx) + mean(gyy) - 2 mean(gxy), floored at 0; one that is
    not finite, as when a mean overflows, raises NumericError."""
    xx, yy, xy = _as_matrix(gxx, "gxx"), _as_matrix(gyy, "gyy"), _as_matrix(gxy, "gxy", square=False)
    if xx.size == 0 or yy.size == 0:
        raise ValidationError("MMD needs two non-empty samples")
    if xy.shape != (xx.shape[0], yy.shape[0]):
        raise ValidationError(
            f"gxy shape {xy.shape} inconsistent with samples of size "
            f"{xx.shape[0]} and {yy.shape[0]}"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        v = float(xx.mean() + yy.mean() - 2.0 * xy.mean())
    if not np.isfinite(v):
        raise NumericError(f"MMD statistic is not finite: {v}")
    return max(v, 0.0)


def _smaller_sample_rows(keys: np.ndarray, n: int, m: int) -> np.ndarray:
    """0/1 rows marking each row's smaller sample: A is the n smallest keys, ties in record order.  Rows sort as
    float32, a monotone rounding: where the n-th and (n+1)-th smallest rounded keys differ, those rounding to at most
    the n-th are the n smallest doubles; a tie there, or two doubles of one float32 (~4e-6 of uniform rows), takes a
    stable argsort of the row's doubles."""
    coarse = keys.astype(np.float32)
    ordered = np.sort(coarse, axis=1)
    in_a = coarse <= ordered[:, n - 1 : n]
    for r in np.flatnonzero(ordered[:, n - 1] == ordered[:, n]):  # only these rows may mark more than n keys
        in_a[r] = np.argsort(np.argsort(keys[r], kind="stable")) < n
    return (in_a if n <= m else ~in_a).astype(float)


def mmd_permutation_test(
    sample_a: Sequence[Record],
    sample_b: Sequence[Record],
    spec: FuzzyKernelSpec,
    n_permutations: int = 200,
    seed: int = 0,
    n_jobs: int = 1,
) -> MmdResult:
    """Two-sample permutation test on the MMD statistic.

    The pooled Gram matrix ``G`` (N x N, sample A first) is computed once.
    Replica r's keys are the r-th N doubles of one ``default_rng(seed).random``
    stream, and its sample A is the first n of ``argsort(keys, kind="stable")``:
    the n smallest keys, equal keys in record order.  Blocks draw their rows'
    keys at once, the same doubles, so the result is a function of (G, n,
    n_permutations, seed) whatever the block size.
    Replicas run in blocks of 0/1 rows ``M`` that mark the smaller sample S
    (size k): ``sss = rowsum((M @ G) * M)``, ``ss = M @ rowsum(G)``, the
    cross sum is ``ss - sss`` and the larger sample's sum ``sum(G) - 2 ss +
    sss``, whose cancellation error stays O(eps max|G|) after division by
    ``(N - k)^2``.  A block's N-wide temporaries (the keys, their float32
    copy and its sort at half width each, the mask or ``M``, and ``M @ G``)
    stay within the larger of ``_NULL_BLOCK_ELEMENTS`` and N^2 / 16 doubles,
    so memory is O(N^2) for any ``n_permutations``, and large N gets blocks
    of N / 64 rows.  Blocks write ``sss`` and ``ss`` into the vectors of a
    chunk of ``_NULL_BLOCK_ELEMENTS / 16`` replicas in whole blocks, whose
    statistics are formed, checked and counted at once.
    ``n_jobs`` is accepted for compatibility and does not change the result.

    The reported statistic is :func:`mmd_statistic` of the given split.  A
    replica counts as ``>= observed`` when ``s >= observed - tol``, where
    ``tol = 8 N eps max|G|`` bounds rounding, so a replica that draws the
    observed split again counts as a tie.  The p-value uses the add-one
    convention: ``(1 + #{permuted >= observed}) / (1 + n_permutations)``, with
    ``n_permutations`` from 1 to ``_MAX_PERMUTATIONS``.  A sum of ``G`` that
    overflows, in the statistic or in a replica, raises NumericError.
    """
    n, m = len(_items(sample_a, "sample_a")), len(_items(sample_b, "sample_b"))
    if n == 0 or m == 0:
        raise ValidationError("both samples must be non-empty")
    n_permutations = _number(n_permutations, "n_permutations", 1, closed=True, integral=True, most=_MAX_PERMUTATIONS)
    seed = _number(seed, "seed", closed=True, integral=True)
    total = n + m
    g = compute_gram(list(sample_a) + list(sample_b), spec, n_jobs=n_jobs).values
    observed = mmd_statistic(g[:n, :n], g[n:, n:], g[:n, n:])
    tol = 8 * total * np.finfo(float).eps * max(g.max(), -g.min())  # max|G| with no N x N temporary
    k, rest = (n, m) if n <= m else (m, n)
    rng = np.random.default_rng(seed)
    step = max(1, max(_NULL_BLOCK_ELEMENTS, total**2 // 16) // (4 * total))
    scores = np.empty((2, step * max(1, _NULL_BLOCK_ELEMENTS // 16 // step)))  # a chunk's sss and ss
    exceed = 0
    with np.errstate(over="ignore", invalid="ignore"):  # a sum that overflows raises NumericError instead
        row_sums, g_sum = g.sum(axis=1), g.sum()
        if not np.isfinite(row_sums).all() or not np.isfinite(g_sum):
            raise NumericError(f"the pooled Gram's sums are not finite: total {g_sum}")
        for start in range(0, n_permutations, scores.shape[1]):
            sss, ss = scores[:, : min(scores.shape[1], n_permutations - start)]
            for first in range(0, len(ss), step):
                member = _smaller_sample_rows(rng.random((min(step, len(ss) - first), total)), n, m)
                np.einsum("ij,ij->i", member @ g, member, out=sss[first : first + len(member)])
                np.matmul(member, row_sums, out=ss[first : first + len(member)])
            stats = sss / k**2 + (g_sum - 2 * ss + sss) / rest**2 - 2 * (ss - sss) / (k * rest)
            if not np.isfinite(stats).all():  # a sum over a replica's split overflowed, though G's sums did not
                raise NumericError("a replica of the MMD null overflows")
            exceed += int(np.count_nonzero(np.maximum(stats, 0.0) >= observed - tol))
    return MmdResult(
        statistic=observed,
        p_value=(1 + exceed) / (1 + n_permutations),
        n_permutations=n_permutations,
        seed=seed,
    )
