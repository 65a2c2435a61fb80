"""Gram matrices over fuzzy datasets: computation, PSD verification, normalization.

A Gram names its items by position: row and column i are item i of the data, and its size is
``len(values)``."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dataset import _read_text
from .errors import _REAL_KINDS, _PATH, NumericError, ValidationError, _instance, _number, _numbers
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
_BAND = 128  # rows per band of write_matrix's string reuse


@dataclass
class GramMatrix:
    """Symmetric matrix of pairwise kernel values; row and column i are item i of the data."""

    values: np.ndarray

    def __post_init__(self):
        self.values = _as_matrix(self.values, "values", finite=False)


@dataclass
class PsdReport:
    """:func:`check_psd`'s result; its fields, in this order, are the keys of the ``check-psd`` report."""

    verdict: str  # "PSD" | "indefinite"
    min_eigenvalue: float
    max_eigenvalue: float
    tolerance: float
    eigenvalues: np.ndarray


def compute_gram(data: Sequence[Record], spec: FuzzyKernelSpec, *, n_jobs: int = 1) -> GramMatrix:
    """Pairwise kernel matrix over a dataset; items are named by position.

    The data are one item list of the batched engine, at first column 0:
    its upper triangle is computed and mirrored, so the result is exactly
    symmetric.  Invalid data raises ValidationError and a non-finite kernel
    value NumericError, each naming the first offending pair ``(i, j)`` of
    data positions in row-major upper-triangle order.  ``n_jobs`` is
    accepted for compatibility and does not change the result: the engine
    runs in the calling thread.
    """
    ids = [str(i) for i in range(len(_items(data, "data")))]
    return GramMatrix(values=_kernel_matrix(spec, data, ids))


def _items(values, name: str) -> Sequence:
    """``values`` if it is a list, tuple or array of records; anything else, as a string, a number, None
    or an iterator, raises ValidationError naming ``name``."""
    if isinstance(values, (str, bytes)) or not (isinstance(values, Sequence) or np.ndim(values) > 0):
        raise ValidationError(f"{name} must be a list of records, got {values!r}")
    return values


def _as_matrix(g, name: str, square: bool = True, finite: bool = True) -> np.ndarray:
    """A GramMatrix's values or a real array as floats, and anything else under :func:`errors._numbers`'
    rule; one that is not square (with ``square``) raises ValidationError, and a non-finite entry (with
    ``finite``) NumericError, each naming ``name``."""
    m = g.values if isinstance(g, GramMatrix) else g
    real = isinstance(m, np.ndarray) and m.dtype.kind in _REAL_KINDS
    m = np.asarray(m, dtype=float) if real else _numbers(m, name, finite=False)
    if square and (m.ndim != 2 or m.shape[0] != m.shape[1]):
        raise ValidationError(f"{name} must be square, got shape {m.shape}")
    if finite and not np.isfinite(m).all():
        raise NumericError(f"{name} contains non-finite entries")
    return m


def check_psd(g, tol: float = DEFAULT_PSD_TOL) -> PsdReport:
    """Full symmetric eigendecomposition with a relative PSD verdict.

    The matrix passes when ``min_eig >= -tol * max(1, |max_eig|)``; the full
    spectrum is returned so indefinite kernels can be inspected, not just
    flagged.  The eigenvalues are bit-identical for a fixed BLAS thread
    count; across thread counts the verdict is the same and they agree
    within ``tol * max(1, |max_eig|)``.  An entry farther than ``tol *
    max(1, max|g|)`` from its mirror raises ValidationError naming the pair,
    and an eigenvalue that overflows NumericError naming it.
    """
    tol = _number(tol, "tol")
    m = _as_matrix(g, "g")
    if not m.size:
        raise ValidationError("check_psd needs a non-empty matrix, got 0 x 0")
    if not (m == m.T).all():  # an exactly symmetric matrix pays this one comparison; the loop raises at the first pair
        for i, j in np.argwhere(np.abs(m - m.T) > tol * max(1.0, np.abs(m).max()))[:1]:
            raise ValidationError(f"g must be symmetric within tol * max(1, max|g|), got g[{i}, {j}] = "
                                  f"{m[i, j]:.17g} and g[{j}, {i}] = {m[j, i]:.17g}")
    eigs = np.linalg.eigvalsh(m)
    for k in np.flatnonzero(~np.isfinite(eigs))[:1]:  # an overflowed spectrum has no verdict
        raise NumericError(f"eigenvalue {k} of g is not finite: {eigs[k]}")
    lo = float(eigs[0])
    hi = float(eigs[-1])
    verdict = "PSD" if lo >= -tol * max(1.0, abs(hi)) else "indefinite"
    return PsdReport(verdict=verdict, min_eigenvalue=lo, max_eigenvalue=hi, tolerance=tol, eigenvalues=eigs)


def normalize(g: GramMatrix) -> GramMatrix:
    """Cosine normalization ``k(x,y) / sqrt(k(x,x) k(y,y))``.

    Produces a unit diagonal and preserves the PSD verdict (congruence by a
    positive diagonal matrix).  Idempotent: normalizing twice changes nothing.
    Row and column i stay item i of ``g``.
    """
    m = _as_matrix(g, "g")
    diag = np.diag(m).copy()
    if (diag <= 0).any():
        raise ValidationError("normalization needs strictly positive diagonal entries")
    inv = 1.0 / np.sqrt(diag)
    values = m * np.outer(inv, inv)
    # k(x,x)/k(x,x) is 1 by definition; set it exactly so the operation is
    # idempotent at the bit level
    np.fill_diagonal(values, 1.0)
    return GramMatrix(values=values)


def write_matrix(path, g) -> None:
    """Dense matrix file: first line n, then n rows of the entries'
    ``%.17g`` strings, separated by single spaces.

    Rows go out in bands of ``_BAND``, each row in one pass: the entries
    left of the band are one ``%`` format of a row template, and so are the
    rest, from the band's first column.  When the band's diagonal block is
    bitwise symmetric (its ``uint64`` view equals its transpose, so a
    ``-0.0`` opposite a ``0.0``, or two NaNs with different payloads, never
    count as equal), the band mirrors: row i formats from its diagonal on
    and takes its in-band entries left of the diagonal from the strings
    that earlier rows of the band made for the mirrored entries.  Each
    cached string is dropped once read, so memory is O(n) plus the block
    comparison's ``_BAND**2`` entries and at most ``_BAND**2 / 4`` strings.
    A ``path`` that is no str or os.PathLike raises ValidationError before
    the file is opened."""
    m = _as_matrix(g, "g", finite=False)
    n = m.shape[0]
    template = "%.17g " * n  # its first 6k - 1 characters format k entries
    with open(_instance(path, _PATH, "path"), "w") as fh:
        fh.write(f"{n}\n")
        for a in range(0, n, _BAND):
            b = min(a + _BAND, n)
            block = m[a:b, a:b].view(np.uint64)
            mirror = np.array_equal(block, block.T)
            band = []  # each earlier row's strings for the band's later columns, popped in column order
            for i in range(a, b):
                row = m[i].tolist()
                start = i if mirror else a
                right = template[: 6 * (n - start) - 1] % tuple(row[start:])
                parts = [template[: 6 * a - 1] % tuple(row[:a])] if a else []
                parts += map(list.pop, band)
                if mirror:
                    band.append(right.split(" ", b - i)[b - i - 1 : 0 : -1])
                fh.write(" ".join([*parts, right]) + "\n")


def read_matrix(path) -> np.ndarray:
    """Read a file in :func:`write_matrix`'s format.  A ``path`` that is no str
    or os.PathLike, a file that cannot be read or is not UTF-8, a header that
    is not a non-negative integer n, or a body that is not n rows of n
    numbers, raises ValidationError."""
    header, _, body = _read_text(path).partition("\n")
    if not (header.strip().isascii() and header.strip().isdigit()):  # int() takes any Unicode digit
        raise ValidationError(f"bad matrix file header {header!r}")
    n = int(header)
    try:  # loadtxt warns on a body without data, which only n = 0 may have
        m = np.loadtxt(body.splitlines(), ndmin=2, comments=None) if body.strip() else np.zeros((0, 0))
    except ValueError as exc:  # an entry that is not a number, or rows of different lengths
        raise ValidationError(f"bad matrix file body: {exc}") from exc
    if m.shape != (n, n):
        raise ValidationError(f"matrix file header says {n}, but the body is {m.shape[0]} x {m.shape[1]}")
    return m
