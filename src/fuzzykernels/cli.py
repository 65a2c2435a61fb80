"""Command-line entry point.

Five workflows: fuzzify a crisp CSV table into a fuzzy dataset, compute a
Gram matrix, verify positive semidefiniteness, run k-fold kernel ridge
classification, and run an MMD permutation two-sample test.  Each command's
handler returns its report's fields, and :func:`main` prints the report to
stdout as JSON: ``"command"`` first, then those fields in order, the
library's result objects (``PsdReport``, ``MmdResult``) field by field;
the ``gram`` report is ``command``, ``n``, ``kernel``, ``matrix_file``.
Randomized commands need an explicit --seed, so repeated runs are
byte-identical.  Exit codes: 0 success, 2 validation error (an --out
that cannot be written included), 3 numeric error (running out of memory
included).  A call that names its command first builds that command's
parser alone; any other argv is parsed by the whole parser of
:func:`build_parser`, so its help and errors word it.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings

import numpy as np

from .dataset import Dataset, _read_json, parse_dataset, write_dataset
from .errors import NumericError, ValidationError, _number
from .gram import DEFAULT_PSD_TOL, check_psd, compute_gram, write_matrix
from .kernels import FuzzyKernelSpec, spec_from_config
from .learn import _MAX_PERMUTATIONS, cross_validate, mmd_permutation_test
from .sets import GaussianFuzzySet, GroundSpace, fuzzify_from_histogram

_MAX_BINS = 10**5  # the ground is every bin center: 10**5 on a 3 x 2 table take 0.3-0.5 s, 44 MB and a 4.3 MB file


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
    bad = np.argwhere(~np.isfinite(table))
    if len(bad):
        i, j = bad[0]
        raise ValidationError(f"{path}: row {i + 1}, column {j + 1}: {table[i, j]} is not a finite number")
    return table


def cmd_fuzzify(args) -> dict:
    table = _load_table(args.data)
    n_rows, n_cols = table.shape
    if args.method == "gaussian":
        if not args.widths:
            raise ValidationError("gaussian fuzzification needs --widths")
        try:
            widths = [float(w) for w in args.widths.split(",")]
        except ValueError:
            raise ValidationError(f"--widths must be comma-separated numbers, got {args.widths!r}") from None
        widths = [_number(w, "--widths") for w in widths]
        if len(widths) == 1:
            widths = widths * n_cols
        if len(widths) != n_cols:
            raise ValidationError(f"got {len(widths)} widths for {n_cols} columns")
        columns = [GaussianFuzzySet._slot(col[:, None], np.full((n_rows, 1), w)) for col, w in zip(table.T, widths)]
        ds = Dataset(ground=None, records=list(zip(*columns)))
    else:  # histogram
        bins = _number(args.bins, "--bins", 1, closed=True, integral=True, most=_MAX_BINS)
        centers = np.linspace(table.min(), table.max(), bins)
        ground = GroundSpace(centers[:, None])
        records = [(fuzzify_from_histogram(table[:, j], ground),) for j in range(n_cols)]
        ds = Dataset(ground=ground, records=records)
    write_dataset(ds, args.out)
    return {"method": args.method, "records": len(ds), "out": args.out}


def cmd_gram(args) -> dict:
    """Write the Gram matrix to --out, whose row and column i are record i of the data; report its size n."""
    ds, cfg, spec = _load(args)
    gram = compute_gram(ds.records, spec, n_jobs=args.jobs)
    write_matrix(args.out, gram)
    return {"n": len(gram.values), "kernel": cfg, "matrix_file": args.out}


def cmd_check_psd(args) -> dict:
    ds, _, spec = _load(args)
    tol = _number(args.tol, "--tol")
    gram = compute_gram(ds.records, spec, n_jobs=args.jobs)
    return {"n": len(gram.values), **vars(check_psd(gram, tol=tol))}


def cmd_classify(args) -> dict:
    ds, _, spec = _load(args)
    if ds.labels is None:
        raise ValidationError("classification needs a dataset with labels")
    _number(args.folds, "--folds", 2, closed=True, integral=True, most=len(ds.records))
    _number(args.seed, "--seed", closed=True, integral=True)
    _number(args.ridge, "--ridge")
    gram = compute_gram(ds.records, spec, n_jobs=args.jobs)
    fold_acc, mean_acc = cross_validate(gram, ds.labels, regularization=args.ridge, folds=args.folds, seed=args.seed)
    return {
        "n": len(gram.values),
        "folds": args.folds,
        "seed": args.seed,
        "ridge": args.ridge,
        "fold_accuracies": fold_acc,
        "mean_accuracy": mean_acc,
    }


def cmd_mmd_test(args) -> dict:
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
        n_permutations=_number(
            args.permutations, "--permutations", 1, closed=True, integral=True, most=_MAX_PERMUTATIONS
        ),
        seed=_number(args.seed, "--seed", closed=True, integral=True),
        n_jobs=args.jobs,
    )
    return {"n_a": len(sample_a), "n_b": len(sample_b), **vars(result)}


_COMMANDS = {  # each command's handler and its line in the top-level help
    "fuzzify": (cmd_fuzzify, "turn a crisp numeric CSV table into a fuzzy dataset"),
    "gram": (cmd_gram, "compute the Gram matrix of a dataset under a kernel"),
    "check-psd": (cmd_check_psd, "eigenvalue check of the Gram matrix"),
    "classify": (cmd_classify, "seeded k-fold kernel ridge classification"),
    "mmd-test": (cmd_mmd_test, "MMD permutation two-sample test (labels split the samples)"),
}


def _command_parser(command: str, p: argparse.ArgumentParser | None = None) -> argparse.ArgumentParser:
    """``p``, or a new parser for ``command`` alone, with the command's options in help order."""
    p = p or argparse.ArgumentParser(prog=f"fuzzykernels {command}")
    if command == "fuzzify":
        p.add_argument("--data", required=True, help="crisp numeric CSV table")
        p.add_argument("--method", required=True, choices=["gaussian", "histogram"])
        p.add_argument("--widths", help="comma-separated Gaussian widths, one per column (or one for all)")
        p.add_argument("--bins", type=int, help=f"number of histogram bin centers, 1 to {_MAX_BINS}")
    else:  # the commands that compute a Gram
        p.add_argument("--data", required=True, help="fuzzy dataset JSON file")
        p.add_argument("--kernel", required=True, help="kernel config JSON file")
        p.add_argument("--jobs", type=int, default=1, help="kept for compatibility; has no effect")
    if command in ("fuzzify", "gram"):
        p.add_argument("--out", required=True, help=f"output {'dataset' if command == 'fuzzify' else 'matrix'} file")
    elif command == "check-psd":
        p.add_argument("--tol", type=float, default=DEFAULT_PSD_TOL, help="relative PSD tolerance; across BLAS "
                       "thread counts the verdict is the same, eigenvalues agree within tol * max(1, |largest|)")
    elif command == "classify":
        p.add_argument("--folds", type=int, default=5, help="number of folds, 2 to the record count")
        p.add_argument("--seed", type=int, required=True, help="seeds the fold shuffle")
        p.add_argument("--ridge", type=float, default=1.0, help="ridge regularization strength")
    elif command == "mmd-test":
        p.add_argument("--permutations", type=int, default=200, help=f"replicas of the null, 1 to {_MAX_PERMUTATIONS}")
        p.add_argument("--seed", type=int, required=True, help="seeds the one PCG64 stream of all replicas")
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fuzzykernels", description="Kernels on fuzzy sets: Gram matrices, "
                                     "PSD checks, classification and MMD testing.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, line) in _COMMANDS.items():
        _command_parser(command, sub.add_parser(command, help=line))
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] in _COMMANDS:  # a leading command parses with its own parser alone
        args, extra = _command_parser(argv[0]).parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
    if not argv or argv[0] not in _COMMANDS or extra:  # the whole parser words every other argv's help and errors
        args = build_parser().parse_args(argv)
    handler = _COMMANDS[args.command][0]
    try:
        print(json.dumps({"command": args.command, **handler(args)}, indent=2, default=np.ndarray.tolist))
        return 0
    # LinAlgError subclasses ValueError, so it is caught first; numpy's MemoryError names the shape and size
    except (NumericError, MemoryError, np.linalg.LinAlgError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    # input files are read by ValidationError-raising readers, so an OSError is an unwritable --out
    except (ValidationError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
