"""Symmetric linear operators: dense and sparse storage, a matvec-counting
wrapper, seeded random matrix generation, and Matrix Market ingestion.

All operators are immutable after construction and expose a single
``matvec`` method; the matvec count is the cost unit everything else in
this package is measured in.
"""

from __future__ import annotations

import math
import threading

import numpy as np

__all__ = [
    "SymmetricOperator",
    "DenseSymmetric",
    "SparseSymmetric",
    "CountingOperator",
    "MatrixMarketError",
    "random_symmetric",
    "load_matrix_market",
]


class SymmetricOperator:
    """Abstract d x d symmetric linear map exposing only ``matvec``."""

    dim: int

    def matvec(self, v: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _check_vector(self, v) -> np.ndarray:
        v = np.asarray(v, dtype=np.float64)
        if v.shape != (self.dim,):
            raise ValueError(
                f"dimension mismatch: operator expects vectors of length "
                f"{self.dim}, received length {v.size if v.ndim == 1 else v.shape}"
            )
        return v


class DenseSymmetric(SymmetricOperator):
    """Fully stored symmetric matrix.

    The entry array must be exactly symmetric; callers holding only
    approximately symmetric data should symmetrize with ``(M + M.T) / 2``
    first.
    """

    def __init__(self, entries):
        entries = np.asarray(entries, dtype=np.float64)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {entries.shape}")
        if not np.array_equal(entries, entries.T):
            raise ValueError("matrix entries are not symmetric")
        self.entries = entries
        self.entries.setflags(write=False)
        self.dim = entries.shape[0]

    def matvec(self, v):
        v = self._check_vector(v)
        return self.entries @ v


class SparseSymmetric(SymmetricOperator):
    """CSR storage of the full symmetric pattern.

    Both triangles are stored so that ``matvec`` is one row sweep; the
    pattern and values must be exactly symmetric (mirror before
    constructing if the source stores one triangle).
    """

    def __init__(self, dim, indptr, indices, data):
        self.dim = int(dim)
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        self.data = np.asarray(data, dtype=np.float64)
        if self.indptr.shape != (self.dim + 1,):
            raise ValueError("indptr must have length dim + 1")
        if self.indices.shape != self.data.shape:
            raise ValueError("indices and data must have equal length")
        counts = np.diff(self.indptr)
        if self.indptr[0] != 0 or np.any(counts < 0) or self.indptr[-1] != self.indices.size:
            raise ValueError("indptr must rise from 0 to the number of stored entries")
        # expanded row index for a vectorized, deterministic matvec
        self._rows = np.repeat(np.arange(self.dim), counts)
        unordered = (self._rows[1:] == self._rows[:-1]) & (np.diff(self.indices) <= 0)
        if np.any(unordered):
            row = int(self._rows[1:][unordered][0])
            raise ValueError(f"column indices not strictly increasing in row {row}")
        if np.any(self.indices < 0) or np.any(self.indices >= self.dim):
            raise ValueError("column index out of range")
        self._validate_symmetry()
        for arr in (self.indptr, self.indices, self.data, self._rows):
            arr.setflags(write=False)

    def _validate_symmetry(self):
        rows = self._rows
        order_rc = np.lexsort((self.indices, rows))
        order_cr = np.lexsort((rows, self.indices))
        if not (
            np.array_equal(rows[order_rc], self.indices[order_cr])
            and np.array_equal(self.indices[order_rc], rows[order_cr])
            and np.array_equal(self.data[order_rc], self.data[order_cr])
        ):
            raise ValueError("sparse pattern or values are not symmetric")

    @classmethod
    def from_coo(cls, dim, rows, cols, values):
        """Build from triplets; duplicate entries are summed."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        order = np.lexsort((cols, rows))
        rows, cols, values = rows[order], cols[order], values[order]
        if rows.size:
            keep = np.ones(rows.size, dtype=bool)
            keep[1:] = (np.diff(rows) != 0) | (np.diff(cols) != 0)
            group = np.cumsum(keep) - 1
            summed = np.zeros(int(group[-1]) + 1)
            np.add.at(summed, group, values)
            rows, cols, values = rows[keep], cols[keep], summed
        indptr = np.zeros(dim + 1, dtype=np.int64)
        np.add.at(indptr, rows + 1, 1)
        indptr = np.cumsum(indptr)
        return cls(dim, indptr, cols, values)

    def matvec(self, v):
        v = self._check_vector(v)
        return np.bincount(self._rows, weights=self.data * v[self.indices],
                           minlength=self.dim)

    def to_dense(self) -> DenseSymmetric:
        M = np.zeros((self.dim, self.dim))
        M[self._rows, self.indices] = self.data
        return DenseSymmetric(M)


class CountingOperator(SymmetricOperator):
    """Wrapper counting matvec calls; the count is safe under concurrent use."""

    def __init__(self, inner: SymmetricOperator):
        self.inner = inner
        self.dim = inner.dim
        self._count = 0
        self._lock = threading.Lock()

    @property
    def count(self) -> int:
        return self._count

    def matvec(self, v):
        with self._lock:
            self._count += 1
        return self.inner.matvec(v)


def random_symmetric(d: int, seed: int) -> DenseSymmetric:
    """Symmetrized standard Gaussian matrix (B + B^T) / 2, reproducible per seed."""
    if d < 1:
        raise ValueError(f"dimension must be positive, got {d}")
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((d, d))
    return DenseSymmetric((B + B.T) / 2.0)


class MatrixMarketError(ValueError):
    """Raised on malformed or unsupported Matrix Market input."""


_SYMMETRY_RTOL = 1e-12


def load_matrix_market(path):
    """Read a real Matrix Market file into an operator.

    Coordinate files yield :class:`SparseSymmetric` (``symmetric`` files have
    their stored triangle mirrored); array files yield :class:`DenseSymmetric`.
    ``general`` files must hold symmetric content to within 1e-12 relative
    and are symmetrized on load.
    """
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise MatrixMarketError("line 1: empty file")

    header = lines[0].split()
    if len(header) != 5 or header[0] != "%%MatrixMarket":
        raise MatrixMarketError(f"line 1: malformed Matrix Market header: {lines[0]!r}")
    _, obj, fmt, field, symmetry = header
    if obj.lower() != "matrix" or field.lower() != "real":
        raise MatrixMarketError(f"line 1: only 'matrix ... real' files are supported")
    fmt = fmt.lower()
    symmetry = symmetry.lower()
    if fmt not in ("coordinate", "array"):
        raise MatrixMarketError(f"line 1: unsupported format {fmt!r}")
    if symmetry not in ("general", "symmetric"):
        raise MatrixMarketError(f"line 1: unsupported symmetry {symmetry!r}")

    # skip comments and blank lines up to the size line
    k = 1
    while k < len(lines) and (not lines[k].strip() or lines[k].lstrip().startswith("%")):
        k += 1
    if k == len(lines):
        raise MatrixMarketError(f"line {len(lines)}: missing size line")
    size_line_no = k + 1
    size_tokens = lines[k].split()
    try:
        dims = [int(t) for t in size_tokens]
    except ValueError:
        raise MatrixMarketError(
            f"line {size_line_no}: non-integer token in size line: {lines[k]!r}"
        ) from None
    expected = 3 if fmt == "coordinate" else 2
    if len(dims) != expected:
        raise MatrixMarketError(
            f"line {size_line_no}: expected {expected} size fields, got {len(dims)}"
        )
    nrows, ncols = dims[0], dims[1]
    if nrows != ncols:
        raise MatrixMarketError(f"line {size_line_no}: matrix is not square ({nrows}x{ncols})")

    entries = []
    for offset, raw in enumerate(lines[k + 1:], start=size_line_no + 1):
        text = raw.strip()
        if not text or text.startswith("%"):
            continue
        entries.append((offset, text.split()))

    if fmt == "coordinate":
        return _build_coordinate(nrows, dims[2], entries, symmetry)
    return _build_array(nrows, entries, symmetry)


def _build_coordinate(d, nnz, entries, symmetry):
    if len(entries) != nnz:
        raise MatrixMarketError(
            f"expected {nnz} coordinate entries, found {len(entries)}"
        )
    rows, cols, vals = [], [], []
    for line_no, tokens in entries:
        if len(tokens) != 3:
            raise MatrixMarketError(f"line {line_no}: expected 'i j value', got {len(tokens)} tokens")
        try:
            i, j = int(tokens[0]), int(tokens[1])
            v = float(tokens[2])
        except ValueError:
            raise MatrixMarketError(f"line {line_no}: non-numeric token in {tokens!r}") from None
        if not math.isfinite(v):
            raise MatrixMarketError(f"line {line_no}: non-finite value {tokens[2]!r}")
        if not (1 <= i <= d and 1 <= j <= d):
            raise MatrixMarketError(f"line {line_no}: index ({i},{j}) out of range for dimension {d}")
        rows.append(i - 1)
        cols.append(j - 1)
        vals.append(v)
        if symmetry == "symmetric" and i != j:
            rows.append(j - 1)
            cols.append(i - 1)
            vals.append(v)
    if symmetry == "general":
        rows, cols, vals = _symmetrize_coo(d, rows, cols, vals)
    return SparseSymmetric.from_coo(d, rows, cols, vals)


def _symmetrized(M):
    """(M + M^T) / 2 of a 'general' matrix that must be symmetric to 1e-12 relative."""
    scale = np.max(np.abs(M)) if M.size else 0.0
    if scale and np.max(np.abs(M - M.T)) > _SYMMETRY_RTOL * scale:
        raise MatrixMarketError(
            "matrix declared 'general' is not symmetric to within 1e-12 relative"
        )
    return (M + M.T) / 2.0


def _symmetrize_coo(d, rows, cols, vals):
    M = np.zeros((d, d))
    np.add.at(M, (rows, cols), vals)
    M = _symmetrized(M)
    r, c = np.nonzero(M)
    return r, c, M[r, c]


def _build_array(d, entries, symmetry):
    values = []
    for line_no, tokens in entries:
        for tok in tokens:
            try:
                v = float(tok)
            except ValueError:
                raise MatrixMarketError(f"line {line_no}: non-numeric token {tok!r}") from None
            if not math.isfinite(v):
                raise MatrixMarketError(f"line {line_no}: non-finite value {tok!r}")
            values.append(v)
    M = np.zeros((d, d))
    if symmetry == "symmetric":
        # lower triangle, column-major
        expected = d * (d + 1) // 2
        if len(values) != expected:
            raise MatrixMarketError(
                f"expected {expected} array values for symmetric storage, found {len(values)}"
            )
        pos = 0
        for j in range(d):
            for i in range(j, d):
                M[i, j] = values[pos]
                M[j, i] = values[pos]
                pos += 1
    else:
        if len(values) != d * d:
            raise MatrixMarketError(
                f"expected {d * d} array values, found {len(values)}"
            )
        M = _symmetrized(np.asarray(values).reshape((d, d), order="F"))
    return DenseSymmetric(M)
