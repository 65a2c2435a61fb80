"""Independent brute-force oracles and random-instance generators.

Everything here is deliberately naive and self-contained: plain Python
loops, local T-norm definitions, no calls into the library's kernel paths.
"""

from __future__ import annotations

import math

import numpy as np

from fuzzykernels import DiscreteFuzzySet, GramMatrix, GroundSpace, Partition, fit, predict

# local T-norm definitions, independent of fuzzykernels.tnorms
TNORM_FN = {
    "min": lambda a, b: min(a, b),
    "product": lambda a, b: a * b,
    "lukasiewicz": lambda a, b: max(a + b - 1.0, 0.0),
    "drastic": lambda a, b: a if b == 1.0 else (b if a == 1.0 else 0.0),
}


def bf_base_eval(kind, u, v, gamma=1.0, coef0=0.0, degree=2):
    u = np.atleast_1d(np.asarray(u, dtype=float))
    v = np.atleast_1d(np.asarray(v, dtype=float))
    if kind == "linear":
        return sum(a * b for a, b in zip(u, v))
    if kind == "rbf":
        return math.exp(-gamma * sum((a - b) ** 2 for a, b in zip(u, v)))
    if kind == "polynomial":
        return (coef0 + gamma * sum(a * b for a, b in zip(u, v))) ** degree
    raise ValueError(kind)


def bf_cross_product_all_pairs(x, y, k1_fn, k2_fn):
    """Double loop over ALL ground-index pairs, zero-degree terms included.

    Matches the kernel only when k2 annihilates zero degrees (e.g. linear).
    """
    total = 0.0
    pts = x.ground.points
    for a in range(len(x.ground)):
        for b in range(len(y.ground)):
            da = x.degrees.get(a, 0.0)
            db = y.degrees.get(b, 0.0)
            total += k1_fn(pts[a], pts[b]) * k2_fn([da], [db])
    return total


def bf_cross_product_support(x, y, k1_fn, k2_fn):
    """Literal definition: sum over pairs of support elements only."""
    total = 0.0
    pts = x.ground.points
    for a in sorted(x.support):
        for b in sorted(y.support):
            total += k1_fn(pts[a], pts[b]) * k2_fn([x.degrees[a]], [y.degrees[b]])
    return total


def bf_weighted_cross_product(x, y, k1_fn, k2_fn, w):
    total = 0.0
    pts = x.ground.points
    for a in sorted(x.support):
        for b in sorted(y.support):
            total += k1_fn(pts[a], pts[b]) * k2_fn([x.degrees[a]], [y.degrees[b]]) * w[a] * w[b]
    return total


def bf_intersection(x, y, tnorm_name, partition):
    """Cell sum with explicit subset indicators and a local T-norm table."""
    t = TNORM_FN[tnorm_name]
    sx = x.support
    sy = y.support
    total = 0.0
    for cell, rho in zip(partition.cells, partition.measures):
        ind_x = 1.0 if set(cell) <= sx else 0.0
        ind_y = 1.0 if set(cell) <= sy else 0.0
        inner = sum(t(x.degrees.get(i, 0.0), y.degrees.get(i, 0.0)) for i in cell)
        total += inner * float(rho) * ind_x * ind_y
    return total


def bf_nonsingleton(x, y, tnorm_name):
    t = TNORM_FN[tnorm_name]
    vals = [t(x.degrees.get(i, 0.0), y.degrees.get(i, 0.0)) for i in range(len(x.ground))]
    return max(vals) if vals else 0.0


def grid_sup_gaussian_product(means_a, widths_a, means_b, widths_b, step_factor=1e-3, span=6.0):
    """Grid supremum of the product-T-norm intersection of two sampled
    Gaussian membership functions, factored over independent dimensions.

    The grid covers the means +- span * max(width) per dimension with step
    step_factor * min(width) over the whole pair.
    """
    means_a = np.atleast_1d(np.asarray(means_a, dtype=float))
    widths_a = np.atleast_1d(np.asarray(widths_a, dtype=float))
    means_b = np.atleast_1d(np.asarray(means_b, dtype=float))
    widths_b = np.atleast_1d(np.asarray(widths_b, dtype=float))
    step = step_factor * min(widths_a.min(), widths_b.min())
    total = 1.0
    for ma, sa, mb, sb in zip(means_a, widths_a, means_b, widths_b):
        smax = max(sa, sb)
        lo = min(ma, mb) - span * smax
        hi = max(ma, mb) + span * smax
        grid = np.arange(lo, hi + step, step)
        vals = np.exp(-0.5 * ((grid - ma) / sa) ** 2) * np.exp(-0.5 * ((grid - mb) / sb) ** 2)
        total *= float(vals.max())
    return total


def random_discrete(rng, ground, max_support=None, allow_empty=False):
    n = len(ground)
    cap = n if max_support is None else min(max_support, n)
    low = 0 if allow_empty else 1
    size = int(rng.integers(low, cap + 1))
    idxs = rng.choice(n, size=size, replace=False)
    degrees = {int(i): float(d) for i, d in zip(idxs, rng.uniform(0.05, 1.0, size))}
    return DiscreteFuzzySet(ground, degrees)


def random_partition(rng, n, n_cells):
    """Random partition of 0..n-1 into at most n_cells non-empty cells, counting measure.

    ``n_cells >= n`` gives the all-singleton partition of ``n`` cells.
    """
    n_cells = min(n_cells, n)
    perm = rng.permutation(n)
    cuts = np.sort(rng.choice(np.arange(1, n), size=n_cells - 1, replace=False))
    cells = [c.tolist() for c in np.split(perm, cuts)]
    return Partition(cells)


def random_cell_aligned(rng, ground, partition, force_height_one=False):
    """Discrete fuzzy set whose support is a union of whole partition cells."""
    chosen = rng.random(len(partition.cells)) < 0.6
    if not chosen.any():
        chosen[int(rng.integers(len(partition.cells)))] = True
    degrees = {}
    for cell, use in zip(partition.cells, chosen):
        if use:
            for i in cell:
                degrees[i] = float(rng.uniform(0.05, 1.0))
    if force_height_one and degrees:
        degrees[next(iter(degrees))] = 1.0
    return DiscreteFuzzySet(ground, degrees)


def bf_ratio_distance(x, y):
    """Ratio metric summed over every ground index, zero degrees included."""
    idx = range(len(x.ground))
    num = sum(abs(x.degrees.get(i, 0.0) - y.degrees.get(i, 0.0)) for i in idx)
    den = sum(x.degrees.get(i, 0.0) + y.degrees.get(i, 0.0) for i in idx)
    return num / den


def bf_mmd_p_value(gram, n, n_permutations, seed):
    """Permutation p-value of the biased MMD^2 on a pooled Gram matrix whose
    first ``n`` rows are sample A.

    Replica r's sample A is the first ``n`` of ``argsort(keys,
    kind="stable")``, where its keys are the r-th ``random(N)`` of one
    ``default_rng(seed)`` stream, as the library does.  Each block sum is an
    exactly rounded ``math.fsum`` over sorted index sets, so equal splits
    give bit-equal statistics.  A replica counts when ``s >= observed - 8 N
    eps max|G|``.
    """
    g = np.asarray(gram, dtype=float)
    total = g.shape[0]
    m = total - n

    def statistic(a, b):
        a, b = sorted(a), sorted(b)
        saa = math.fsum(g[i, j] for i in a for j in a)
        sbb = math.fsum(g[i, j] for i in b for j in b)
        sab = math.fsum(g[i, j] for i in a for j in b)
        return max(saa / n**2 + sbb / m**2 - 2.0 * sab / (n * m), 0.0)

    observed = statistic(range(n), range(n, total))
    tol = 8 * total * np.finfo(float).eps * np.abs(g).max()
    rng = np.random.default_rng(seed)
    exceed = 0
    for _ in range(n_permutations):
        perm = np.argsort(rng.random(total), kind="stable")
        exceed += statistic(perm[:n].tolist(), perm[n:].tolist()) >= observed - tol
    return (1 + exceed) / (1 + n_permutations)


def bf_cross_validate(gram, labels, regularization, folds, seed):
    """k-fold cross validation as a loop over the public API: fold k tests the
    k-th ``np.array_split`` chunk of ``default_rng(seed).permutation(n)``, and
    :func:`fit` and :func:`predict` run on its ``np.ix_`` training and cross
    blocks.  Returns (per-fold accuracies, mean accuracy)."""
    g, y = np.asarray(gram, dtype=float), np.asarray(labels, dtype=float)
    chunks = np.array_split(np.random.default_rng(seed).permutation(len(y)), folds)
    accuracies = []
    for k, test in enumerate(chunks):
        train = np.concatenate([chunks[j] for j in range(folds) if j != k])
        model = fit(g[np.ix_(train, train)], y[train], regularization)
        accuracies.append(float(np.mean(predict(model, g[np.ix_(test, train)]) == y[test])))
    return accuracies, float(np.mean(accuracies))


def bf_matrix_text(m):
    """The text of a matrix file: the header n, then each row as its entries
    formatted one at a time with ``format(v, ".17g")`` and joined by spaces."""
    values = m.values if isinstance(m, GramMatrix) else np.asarray(m, dtype=float)
    lines = [str(values.shape[0])] + [" ".join(format(v, ".17g") for v in row) for row in values]
    return "\n".join(lines) + "\n"


def bf_histogram_degrees(samples, centers):
    """Degrees of a histogram fuzzification from the full samples x centers
    distance table: each sample counts at the first center of least
    ``abs(v - c)``, and the counts are divided by the largest."""
    vals = np.asarray(samples, dtype=float)
    nearest = np.abs(vals[:, None] - np.asarray(centers, dtype=float)[None, :]).argmin(axis=1)
    counts = np.bincount(nearest, minlength=len(centers))
    return {int(i): counts[i] / counts.max() for i in np.nonzero(counts)[0]}
