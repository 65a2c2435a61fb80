"""Gram matrices over fuzzy datasets: computation, PSD verification, normalization."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import NumericError
from .kernels import FuzzyKernelSpec, Record, _kernel_matrix

__all__ = [
    "GramMatrix",
    "PsdReport",
    "compute_gram",
    "check_psd",
    "normalize",
    "write_matrix",
    "read_matrix",
]

DEFAULT_PSD_TOL = 1e-8


@dataclass
class GramMatrix:
    """Symmetric matrix of pairwise kernel values with provenance metadata."""

    values: np.ndarray
    spec: FuzzyKernelSpec | None
    item_ids: list[str]

    def __post_init__(self):
        v = _as_matrix(self.values)
        if len(self.item_ids) != v.shape[0]:
            raise ValueError("item_ids length must match matrix size")
        self.values = v

    @property
    def size(self) -> int:
        return self.values.shape[0]


@dataclass
class PsdReport:
    min_eigenvalue: float
    max_eigenvalue: float
    verdict: str  # "PSD" | "indefinite"
    tolerance: float
    eigenvalues: np.ndarray


def compute_gram(
    data: Sequence[Record],
    spec: FuzzyKernelSpec,
    item_ids: Sequence[str] | None = None,
    n_jobs: int = 1,
) -> GramMatrix:
    """Pairwise kernel matrix over a dataset.

    The batched engine computes the upper triangle and mirrors it, so the
    result is exactly symmetric.  Invalid data raises ValidationError and a
    non-finite kernel value NumericError, each naming the first offending
    pair ``(id_i, id_j)`` in row-major upper-triangle order.  ``n_jobs`` is
    accepted for compatibility and does not change the result: the engine
    runs in the calling thread.
    """
    n = len(data)
    if n == 0:
        raise ValueError("cannot compute a Gram matrix over an empty dataset")
    ids = [str(i) for i in range(n)] if item_ids is None else [str(s) for s in item_ids]
    if len(ids) != n:
        raise ValueError("need exactly one item id per datum")
    values = _kernel_matrix(spec, data, data, ids, ids, symmetric=True)
    return GramMatrix(values=values, spec=spec, item_ids=ids)


def _as_matrix(g, square: bool = True) -> np.ndarray:
    """A GramMatrix's values or an array as floats; ``square`` raises ValueError unless it is square."""
    m = g.values if isinstance(g, GramMatrix) else np.asarray(g, dtype=float)
    if square and (m.ndim != 2 or m.shape[0] != m.shape[1]):
        raise ValueError(f"Gram matrix must be square, got shape {m.shape}")
    return m


def _provenance(g, n: int) -> tuple[list[str], FuzzyKernelSpec | None]:
    """Item ids and spec of a GramMatrix; a bare array has ids 0..n-1 and no spec."""
    if isinstance(g, GramMatrix):
        return list(g.item_ids), g.spec
    return [str(i) for i in range(n)], None


def check_psd(g, tol: float = DEFAULT_PSD_TOL) -> PsdReport:
    """Full symmetric eigendecomposition with a relative PSD verdict.

    The matrix passes when ``min_eig >= -tol * max(1, |max_eig|)``; the full
    spectrum is returned so indefinite kernels can be inspected, not just
    flagged.
    """
    if not tol > 0:
        raise ValueError("tolerance must be > 0")
    m = _as_matrix(g)
    if not np.isfinite(m).all():
        raise NumericError("Gram matrix contains non-finite entries")
    eigs = np.linalg.eigvalsh(m)
    lo = float(eigs[0])
    hi = float(eigs[-1])
    verdict = "PSD" if lo >= -tol * max(1.0, abs(hi)) else "indefinite"
    return PsdReport(
        min_eigenvalue=lo,
        max_eigenvalue=hi,
        verdict=verdict,
        tolerance=tol,
        eigenvalues=eigs,
    )


def normalize(g: GramMatrix) -> GramMatrix:
    """Cosine normalization ``k(x,y) / sqrt(k(x,x) k(y,y))``.

    Produces a unit diagonal and preserves the PSD verdict (congruence by a
    positive diagonal matrix).  Idempotent: normalizing twice changes nothing.
    """
    m = _as_matrix(g)
    diag = np.diag(m).copy()
    if (diag <= 0).any():
        raise ValueError("normalization needs strictly positive diagonal entries")
    inv = 1.0 / np.sqrt(diag)
    values = m * np.outer(inv, inv)
    # k(x,x)/k(x,x) is 1 by definition; set it exactly so the operation is
    # idempotent at the bit level
    np.fill_diagonal(values, 1.0)
    ids, spec = _provenance(g, m.shape[0])
    return GramMatrix(values=values, spec=spec, item_ids=ids)


def write_matrix(path, g) -> None:
    """Dense matrix file: first line n, then n whitespace-separated rows
    of decimal floats with 17 significant digits."""
    m = _as_matrix(g)
    n = m.shape[0]
    with open(path, "w") as fh:
        fh.write(f"{n}\n")
        for row in m:
            fh.write(" ".join(format(v, ".17g") for v in row) + "\n")


def read_matrix(path) -> np.ndarray:
    """Read a file in :func:`write_matrix`'s format.  A header that is not a
    non-negative integer n, or a body that is not n rows of n numbers, raises
    ValueError."""
    with open(path) as fh:
        header, body = fh.readline(), fh.read()
    if not header.strip().isdecimal():
        raise ValueError(f"bad matrix file header {header!r}")
    n = int(header)
    # loadtxt warns on a body without data, which only n = 0 may have
    m = np.loadtxt(body.splitlines(), ndmin=2, comments=None) if body.strip() else np.zeros((0, 0))
    if m.shape != (n, n):
        raise ValueError(f"matrix file header says {n}, but the body is {m.shape[0]} x {m.shape[1]}")
    return m
