"""Command-line entry point.

Five workflows: fuzzify a crisp CSV table into a fuzzy dataset, compute a
Gram matrix, verify positive semidefiniteness, run k-fold kernel ridge
classification, and run an MMD permutation two-sample test.  Reports go to
stdout as JSON; randomized commands need an explicit --seed, so repeated runs
are byte-identical.  Exit codes: 0 success, 2 validation error, 3 numeric
error.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings

import numpy as np

from .dataset import Dataset, _read_json, parse_dataset, write_dataset
from .errors import NumericError, ValidationError
from .gram import DEFAULT_PSD_TOL, check_psd, compute_gram, write_matrix
from .kernels import FuzzyKernelSpec, spec_from_config
from .learn import cross_validate, mmd_permutation_test
from .sets import GaussianFuzzySet, GroundSpace, fuzzify_from_histogram


def _load(args) -> tuple[Dataset, dict, FuzzyKernelSpec]:
    """The dataset named by --data, the kernel config named by --kernel, and
    the kernel spec that config describes on the dataset's ground space."""
    ds = parse_dataset(args.data)
    cfg = _read_json(args.kernel)
    if not isinstance(cfg, dict):
        raise ValidationError(f"{args.kernel}: kernel config must be a JSON object")
    return ds, cfg, spec_from_config(cfg, ds.ground)


def _load_table(path) -> np.ndarray:
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # empty files warn before we report them
            table = np.loadtxt(path, delimiter=",", ndmin=2, dtype=float)
    except OSError as exc:
        raise ValidationError(f"{path}: {exc}") from exc
    except ValueError as exc:
        raise ValidationError(f"{path}: not a numeric rectangular table: {exc}") from exc
    if table.size == 0:
        raise ValidationError(f"{path}: table is empty")
    return table


def _emit(report: dict) -> None:
    print(json.dumps(report, indent=2))


def cmd_fuzzify(args) -> int:
    table = _load_table(args.data)
    n_rows, n_cols = table.shape
    if args.method == "gaussian":
        if not args.widths:
            raise ValidationError("gaussian fuzzification needs --widths")
        widths = [float(w) for w in args.widths.split(",")]
        if len(widths) == 1:
            widths = widths * n_cols
        if len(widths) != n_cols:
            raise ValidationError(f"got {len(widths)} widths for {n_cols} columns")
        records = [
            tuple(GaussianFuzzySet([table[i, j]], [widths[j]]) for j in range(n_cols))
            for i in range(n_rows)
        ]
        ds = Dataset(ground=None, records=records)
    else:  # histogram
        if args.bins is None or args.bins < 1:
            raise ValidationError("histogram fuzzification needs --bins >= 1")
        centers = np.linspace(table.min(), table.max(), args.bins)
        ground = GroundSpace(centers[:, None])
        records = [(fuzzify_from_histogram(table[:, j], ground),) for j in range(n_cols)]
        ds = Dataset(ground=ground, records=records)
    write_dataset(ds, args.out)
    _emit({"command": "fuzzify", "method": args.method, "records": len(ds), "out": args.out})
    return 0


def cmd_gram(args) -> int:
    ds, cfg, spec = _load(args)
    gram = compute_gram(ds.records, spec, n_jobs=args.jobs)
    write_matrix(args.out, gram)
    _emit(
        {
            "command": "gram",
            "n": gram.size,
            "item_ids": gram.item_ids,
            "kernel": cfg,
            "matrix_file": args.out,
        }
    )
    return 0


def cmd_check_psd(args) -> int:
    ds, _, spec = _load(args)
    gram = compute_gram(ds.records, spec, n_jobs=args.jobs)
    report = check_psd(gram, tol=args.tol)
    _emit(
        {
            "command": "check-psd",
            "n": gram.size,
            "verdict": report.verdict,
            "min_eigenvalue": report.min_eigenvalue,
            "max_eigenvalue": report.max_eigenvalue,
            "tolerance": report.tolerance,
            "eigenvalues": report.eigenvalues.tolist(),
        }
    )
    return 0


def cmd_classify(args) -> int:
    ds, _, spec = _load(args)
    if ds.labels is None:
        raise ValidationError("classification needs a dataset with labels")
    gram = compute_gram(ds.records, spec, n_jobs=args.jobs)
    fold_acc, mean_acc = cross_validate(
        gram, ds.labels, regularization=args.ridge, folds=args.folds, seed=args.seed
    )
    _emit(
        {
            "command": "classify",
            "n": gram.size,
            "folds": args.folds,
            "seed": args.seed,
            "ridge": args.ridge,
            "fold_accuracies": fold_acc,
            "mean_accuracy": mean_acc,
        }
    )
    return 0


def cmd_mmd_test(args) -> int:
    ds, _, spec = _load(args)
    if ds.labels is None:
        raise ValidationError("mmd-test needs labels: +1 marks sample A, -1 marks sample B")
    sample_a = [r for r, lab in zip(ds.records, ds.labels) if lab == 1]
    sample_b = [r for r, lab in zip(ds.records, ds.labels) if lab == -1]
    if not sample_a or not sample_b:
        raise ValidationError("both labels +1 and -1 must be present")
    result = mmd_permutation_test(
        sample_a,
        sample_b,
        spec,
        n_permutations=args.permutations,
        seed=args.seed,
        n_jobs=args.jobs,
    )
    _emit(
        {
            "command": "mmd-test",
            "n_a": len(sample_a),
            "n_b": len(sample_b),
            "statistic": result.statistic,
            "p_value": result.p_value,
            "n_permutations": result.n_permutations,
            "seed": result.seed,
            "generator": result.generator,
        }
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fuzzykernels",
        description="Kernels on fuzzy sets: Gram matrices, PSD checks, classification and MMD testing.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)  # options of the commands that compute a Gram
    common.add_argument("--data", required=True, help="fuzzy dataset JSON file")
    common.add_argument("--kernel", required=True, help="kernel config JSON file")
    common.add_argument("--jobs", type=int, default=1, help="kept for compatibility; has no effect")

    p = sub.add_parser("fuzzify", help="turn a crisp numeric CSV table into a fuzzy dataset")
    p.add_argument("--data", required=True, help="crisp numeric CSV table")
    p.add_argument("--method", required=True, choices=["gaussian", "histogram"])
    p.add_argument("--widths", help="comma-separated Gaussian widths, one per column (or one for all)")
    p.add_argument("--bins", type=int, help="number of histogram bin centers")
    p.add_argument("--out", required=True, help="output dataset file")
    p.set_defaults(func=cmd_fuzzify)

    p = sub.add_parser("gram", parents=[common], help="compute the Gram matrix of a dataset under a kernel")
    p.add_argument("--out", required=True, help="output matrix file")
    p.set_defaults(func=cmd_gram)

    p = sub.add_parser("check-psd", parents=[common], help="eigenvalue check of the Gram matrix")
    p.add_argument("--tol", type=float, default=DEFAULT_PSD_TOL, help="relative PSD tolerance")
    p.set_defaults(func=cmd_check_psd)

    p = sub.add_parser("classify", parents=[common], help="seeded k-fold kernel ridge classification")
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--ridge", type=float, default=1.0, help="ridge regularization strength")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser(
        "mmd-test", parents=[common], help="MMD permutation two-sample test (labels split the samples)"
    )
    p.add_argument("--permutations", type=int, default=200)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=cmd_mmd_test)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    # LinAlgError subclasses ValueError, so it is caught first
    except (NumericError, np.linalg.LinAlgError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    except (ValidationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
