"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured numbers (run with ``pytest tests/test_acceptance.py -v -s``).

All checks are property- and oracle-based at desk scale; tolerances and
budgets are pinned in the constants below.
"""

import json
import math
import time

import numpy as np
import pytest

from fuzzykernels import (
    DiscreteFuzzySet,
    FuzzyKernelSpec,
    GaussianFuzzySet,
    GroundSpace,
    LinearKernel,
    Partition,
    PolynomialKernel,
    RBFKernel,
    TNorm,
    apply_array,
    check_psd,
    compute_gram,
    cross_product_kernel,
    cross_validate,
    distance_gaussian_kernel,
    intersection_kernel,
    mmd_permutation_test,
    nonsingleton_gaussian_kernel,
    ratio_distance,
)
from fuzzykernels.cli import main as cli_main

import oracles

PSD_TOL = 1e-8
EXACT_TOL = 1e-15
ORACLE_REL = 1e-12
GRID_TOL = 1e-6


def report(criterion, detail):
    print(f"[criterion {criterion}] PASS — {detail}")


# ---------------------------------------------------------------------------
# 1. T-norm axioms
# ---------------------------------------------------------------------------

def test_criterion_1_tnorm_axioms():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    triples = rng.uniform(0.0, 1.0, size=(1000, 3))
    # include boundary values so the drastic case split is exercised
    triples[:20] = np.round(triples[:20])
    for t in TNorm:
        exact = t in (TNorm.MINIMUM, TNorm.DRASTIC)
        tol = 0.0 if exact else EXACT_TOL
        for a, b, c in triples:
            assert apply_array(t, a, b) == apply_array(t, b, a)
            left = apply_array(t, a, apply_array(t, b, c))
            right = apply_array(t, apply_array(t, a, b), c)
            assert abs(left - right) <= tol
            lo, hi = min(b, c), max(b, c)
            assert apply_array(t, a, lo) <= apply_array(t, a, hi)
            assert abs(apply_array(t, a, 1.0) - a) <= tol
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(1, f"4 T-norms x 1000 triples, axioms exact/1e-15, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 2. Gaussian closed form vs grid supremum
# ---------------------------------------------------------------------------

def test_criterion_2_gaussian_closed_form_vs_grid():
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(100):
        dim = int(rng.integers(1, 4))
        ma, mb = rng.uniform(-5, 5, dim), rng.uniform(-5, 5, dim)
        sa, sb = rng.uniform(0.2, 3, dim), rng.uniform(0.2, 3, dim)
        closed = nonsingleton_gaussian_kernel(GaussianFuzzySet(ma, sa), GaussianFuzzySet(mb, sb))
        grid = oracles.grid_sup_gaussian_product(ma, sa, mb, sb, step_factor=1e-3, span=6.0)
        worst = max(worst, abs(closed - grid))
        assert abs(closed - grid) < GRID_TOL
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(2, f"100 random pairs (D<=3), worst |closed - grid| = {worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 3. PSD suites
# ---------------------------------------------------------------------------

def _random_discrete_data(rng, n_data=50, n_points=30):
    ground = GroundSpace(rng.uniform(-2, 2, size=(n_points, 2)))
    return [oracles.random_discrete(rng, ground, max_support=12) for _ in range(n_data)]


def test_criterion_3a_psd_cross_product():
    start = time.perf_counter()
    rng = np.random.default_rng(303)
    data = _random_discrete_data(rng)
    for k1 in (LinearKernel(), RBFKernel(gamma=0.7)):
        spec = FuzzyKernelSpec(family="cross_product", k1=k1, k2=LinearKernel())
        rep = check_psd(compute_gram(data, spec), tol=PSD_TOL)
        assert rep.verdict == "PSD", f"k1={k1}: min eig {rep.min_eigenvalue}"
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report("3a", f"cross_product k1 in {{linear, rbf}}, 50x50 Grams PSD at {PSD_TOL}, {elapsed:.1f}s")


def test_criterion_3b_psd_nonsingleton_gaussian():
    # random data from one fuzzification process: random crisp means pushed
    # through a fixed-width Gaussian fuzzifier (two attributes per record)
    start = time.perf_counter()
    rng = np.random.default_rng(304)
    widths = rng.uniform(0.2, 3.0, size=2)
    data = [
        tuple(GaussianFuzzySet([rng.uniform(-5, 5)], [widths[d]]) for d in range(2))
        for _ in range(50)
    ]
    spec = FuzzyKernelSpec(family="nonsingleton_gaussian")
    rep = check_psd(compute_gram(data, spec), tol=PSD_TOL)
    assert rep.verdict == "PSD", f"min eig {rep.min_eigenvalue}"
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report("3b", f"nonsingleton_gaussian 50x50 Gram PSD, min eig {rep.min_eigenvalue:.2e}, {elapsed:.1f}s")


def test_criterion_3c_psd_intersection_min_product():
    start = time.perf_counter()
    rng = np.random.default_rng(305)
    n_points = 20
    partition = oracles.random_partition(rng, n_points, 4)
    ground = GroundSpace(rng.uniform(-2, 2, size=(n_points, 1)), partition=partition)
    data = [
        oracles.random_cell_aligned(rng, ground, partition, force_height_one=rng.random() < 0.3)
        for _ in range(50)
    ]
    for tname in ("min", "product"):
        spec = FuzzyKernelSpec(family="intersection", tnorm=TNorm(tname))
        rep = check_psd(compute_gram(data, spec), tol=PSD_TOL)
        assert rep.verdict == "PSD", f"{tname}: min eig {rep.min_eigenvalue}"
    # the remaining T-norms are diagnostic output, reported but not asserted
    spectra = {}
    for tname in ("lukasiewicz", "drastic"):
        spec = FuzzyKernelSpec(family="intersection", tnorm=TNorm(tname))
        rep = check_psd(compute_gram(data, spec), tol=PSD_TOL)
        spectra[tname] = (rep.verdict, rep.min_eigenvalue, rep.max_eigenvalue)
        print(
            f"[criterion 3c] report-only: intersection[{tname}] verdict={rep.verdict}, "
            f"eig range [{rep.min_eigenvalue:.4g}, {rep.max_eigenvalue:.4g}]"
        )
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report("3c", f"intersection min/product PSD over a 4-cell partition, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 4. Brute-force oracles
# ---------------------------------------------------------------------------

def _isclose(a, b):
    return math.isclose(a, b, rel_tol=ORACLE_REL, abs_tol=1e-15)


def test_criterion_4_bruteforce_oracles():
    rng = np.random.default_rng(404)
    k1_pool = [
        (LinearKernel(), lambda u, v: oracles.bf_base_eval("linear", u, v)),
        (RBFKernel(gamma=0.6), lambda u, v: oracles.bf_base_eval("rbf", u, v, gamma=0.6)),
        (PolynomialKernel(1.0, 0.5, 2), lambda u, v: oracles.bf_base_eval("polynomial", u, v, gamma=0.5, coef0=1.0, degree=2)),
    ]
    k2_lin = lambda u, v: oracles.bf_base_eval("linear", u, v)
    for _ in range(200):
        n = int(rng.integers(2, 21))
        ground = GroundSpace(rng.uniform(-2, 2, size=(n, int(rng.integers(1, 3)))))
        x = oracles.random_discrete(rng, ground, allow_empty=True)
        y = oracles.random_discrete(rng, ground, allow_empty=True)
        k1, k1_fn = k1_pool[int(rng.integers(len(k1_pool)))]
        got = cross_product_kernel(x, y, k1, LinearKernel())
        want = oracles.bf_cross_product_all_pairs(x, y, k1_fn, k2_lin)
        assert _isclose(got, want), f"cross_product {got} vs {want}"
    for _ in range(200):
        n = int(rng.integers(4, 21))
        n_cells = int(rng.integers(2, 6))
        partition = oracles.random_partition(rng, n, n_cells)
        ground = GroundSpace(rng.uniform(-2, 2, size=(n, 1)), partition=partition)
        x = oracles.random_discrete(rng, ground, allow_empty=True)
        y = oracles.random_discrete(rng, ground, allow_empty=True)
        tname = ("min", "product", "lukasiewicz", "drastic")[int(rng.integers(4))]
        got = intersection_kernel(x, y, TNorm(tname), partition)
        want = oracles.bf_intersection(x, y, tname, partition)
        assert _isclose(got, want), f"intersection {got} vs {want}"
    report(4, "cross_product and intersection match brute force on 200 instances each (rel 1e-12)")


# ---------------------------------------------------------------------------
# 5. Distance checks
# ---------------------------------------------------------------------------

def test_criterion_5_distance_checks():
    rng = np.random.default_rng(505)
    ground = GroundSpace(rng.uniform(-1, 1, size=(12, 1)))
    pool = [oracles.random_discrete(rng, ground) for _ in range(60)]
    for _ in range(500):
        x = pool[int(rng.integers(len(pool)))]
        y = pool[int(rng.integers(len(pool)))]
        assert ratio_distance(x, y) == ratio_distance(y, x)
        assert ratio_distance(x, x) == 0.0
        assert distance_gaussian_kernel(x, x, gamma=1.7) == 1.0
    violations = 0
    worst = 0.0
    for _ in range(10_000):
        x, y, z = (pool[int(i)] for i in rng.integers(len(pool), size=3))
        dxz = ratio_distance(x, z)
        dxy = ratio_distance(x, y)
        dyz = ratio_distance(y, z)
        excess = dxz - (dxy + dyz)
        if excess > 1e-12:
            violations += 1
            worst = max(worst, excess)
    print(
        f"[criterion 5] report-only: triangle inequality violations on 10000 sampled "
        f"triples: {violations} (worst excess {worst:.3g}); counted, not asserted"
    )
    report(5, "ratio_distance symmetric, D(X,X)=0, distance_gaussian_kernel(x,x)=1 on 500 pairs")


# ---------------------------------------------------------------------------
# 6. MMD calibration and power
# ---------------------------------------------------------------------------

def _gaussian_sample(rng, n, shift, width):
    return [GaussianFuzzySet([rng.normal() + shift], [width]) for _ in range(n)]


def test_criterion_6_mmd_calibration_and_power():
    start = time.perf_counter()
    spec = FuzzyKernelSpec(family="nonsingleton_gaussian")
    width = 0.4
    rejections = 0
    for trial in range(200):
        rng = np.random.default_rng([606, trial])
        a = _gaussian_sample(rng, 20, 0.0, width)
        b = _gaussian_sample(rng, 20, 0.0, width)
        res = mmd_permutation_test(a, b, spec, n_permutations=200, seed=trial)
        if res.p_value <= 0.05:
            rejections += 1
    rate = rejections / 200
    assert 0.01 <= rate <= 0.10, f"null rejection rate {rate}"
    power_hits = 0
    for trial in range(50):
        rng = np.random.default_rng([607, trial])
        a = _gaussian_sample(rng, 20, 0.0, width)
        b = _gaussian_sample(rng, 20, 3.0, width)  # means 3 sampling-sigmas apart
        res = mmd_permutation_test(a, b, spec, n_permutations=200, seed=trial)
        if res.p_value <= 0.05:
            power_hits += 1
    assert power_hits >= int(0.95 * 50), f"power {power_hits}/50"
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    report(6, f"null rejection rate {rate:.3f} in [0.01, 0.10]; power {power_hits}/50; {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 7. Classification pipeline
# ---------------------------------------------------------------------------

def _grid_fuzzify(value, width, ground, floor=1e-6):
    """Sample a Gaussian bump at ``value`` onto a 1-D grid ground space."""
    centers = ground.points[:, 0]
    degs = np.exp(-0.5 * ((centers - value) / width) ** 2)
    return DiscreteFuzzySet(ground, {int(i): float(d) for i, d in enumerate(degs) if d >= floor})


def _two_cluster_dataset(seed, noise_fraction=0.0):
    rng = np.random.default_rng(seed)
    centers = np.array([[0.0, 0.0], [3.0, 3.0]])
    values = np.vstack(
        [rng.normal(centers[0], 0.8, size=(50, 2)), rng.normal(centers[1], 0.8, size=(50, 2))]
    )
    labels = np.array([1] * 50 + [-1] * 50)
    if noise_fraction > 0:
        hit = rng.choice(100, size=int(noise_fraction * 100), replace=False)
        values[hit] += rng.normal(0.0, 2.0, size=(len(hit), 2))
    ground = GroundSpace(np.linspace(-6.0, 9.0, 61)[:, None])
    records = [
        (_grid_fuzzify(v[0], 0.3, ground), _grid_fuzzify(v[1], 0.3, ground)) for v in values
    ]
    return records, labels


def test_criterion_7_classification_pipeline():
    start = time.perf_counter()
    spec = FuzzyKernelSpec(family="cross_product", k1=RBFKernel(gamma=0.5), k2=LinearKernel())
    records, labels = _two_cluster_dataset(707)
    gram = compute_gram(records, spec)
    _, clean_acc = cross_validate(gram, labels, regularization=1.0, folds=5, seed=707)
    assert clean_acc >= 0.85, f"clean accuracy {clean_acc}"
    noisy_records, noisy_labels = _two_cluster_dataset(707, noise_fraction=0.2)
    noisy_gram = compute_gram(noisy_records, spec)
    _, noisy_acc = cross_validate(noisy_gram, noisy_labels, regularization=1.0, folds=5, seed=707)
    assert noisy_acc >= 0.70, f"noisy accuracy {noisy_acc}"
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(7, f"5-fold CV accuracy: clean {clean_acc:.3f} >= 0.85, 20% noise {noisy_acc:.3f} >= 0.70; {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 8. Determinism
# ---------------------------------------------------------------------------

def test_criterion_8_determinism(tmp_path, capsys):
    import os

    # library level: maximal internal parallelism must not change a bit
    rng = np.random.default_rng(808)
    ground = GroundSpace(rng.uniform(-1, 1, size=(15, 2)))
    data = [oracles.random_discrete(rng, ground) for _ in range(30)]
    spec = FuzzyKernelSpec(family="cross_product", k1=RBFKernel(gamma=0.4))
    seq = compute_gram(data, spec, n_jobs=1)
    par = compute_gram(data, spec, n_jobs=max(2, os.cpu_count() or 2))
    assert np.array_equal(seq.values, par.values)

    # CLI level: byte-identical outputs across repeated runs
    data_obj = {
        "ground_space": {"points": [[float(i)] for i in range(6)]},
        "records": [
            [{"type": "discrete", "degrees": {str(i): round(0.15 * (i + 1), 2)}}] for i in range(6)
        ],
        "labels": [1, 1, 1, -1, -1, -1],
    }
    data_path = tmp_path / "data.json"
    data_path.write_text(json.dumps(data_obj))
    kernel_path = tmp_path / "kernel.json"
    kernel_path.write_text(json.dumps({"family": "cross_product", "k1": {"kind": "rbf", "gamma": 1.0}}))
    out = tmp_path / "gram.txt"

    runs = []
    for _ in range(2):
        code = cli_main(
            ["gram", "--data", str(data_path), "--kernel", str(kernel_path), "--out", str(out), "--jobs", "8"]
        )
        assert code == 0
        runs.append((capsys.readouterr().out, out.read_bytes()))
    assert runs[0] == runs[1]

    mmd_runs = []
    for _ in range(2):
        code = cli_main(
            ["mmd-test", "--data", str(data_path), "--kernel", str(kernel_path),
             "--seed", "13", "--permutations", "100", "--jobs", "8"]
        )
        assert code == 0
        mmd_runs.append(capsys.readouterr().out)
    assert mmd_runs[0] == mmd_runs[1]
    report(8, "gram and mmd-test byte-identical across runs, n_jobs=1 vs max bit-identical")
