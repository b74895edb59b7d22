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

    def diagonal(self) -> np.ndarray:
        return np.diagonal(self.entries)


def _keys(dim, rows, cols):
    """Row-major int64 key ``row * dim + col`` of each entry: sorting by key
    sorts by (row, column), and ``_keys(dim, cols, rows)`` names the mirror."""
    return np.asarray(rows, dtype=np.int64) * dim + np.asarray(cols, dtype=np.int64)


def _summed(dim, rows, cols, values):
    """Sorted distinct keys of the triplets and their values; the values of
    duplicate entries are summed in input order."""
    keys, where = np.unique(_keys(dim, rows, cols), return_inverse=True)
    return keys, np.bincount(where, weights=values, minlength=keys.size)


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
        if np.any(self.indices < 0) or np.any(self.indices >= self.dim):
            raise ValueError("column index out of range")
        # expanded row index for a vectorized, deterministic matvec
        self._rows = np.repeat(np.arange(self.dim), counts)
        keys = _keys(self.dim, self._rows, self.indices)
        unordered = np.flatnonzero(np.diff(keys) <= 0)
        if unordered.size:
            row = int(self._rows[unordered[0] + 1])
            raise ValueError(f"column indices not strictly increasing in row {row}")
        mirrored = _keys(self.dim, self.indices, self._rows)
        order = np.argsort(mirrored)
        if not (np.array_equal(mirrored[order], keys)
                and np.array_equal(self.data[order], self.data)):
            raise ValueError("sparse pattern or values are not symmetric")
        for arr in (self.indptr, self.indices, self.data, self._rows):
            arr.setflags(write=False)

    @classmethod
    def from_coo(cls, dim, rows, cols, values):
        """Build from triplets; duplicate entries are summed in input order."""
        rows, cols = np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64)
        if np.any((rows < 0) | (rows >= dim) | (cols < 0) | (cols >= dim)):
            raise ValueError("row or column index out of range")
        return cls._from_keys(dim, *_summed(dim, rows, cols, values))

    @classmethod
    def _from_keys(cls, dim, keys, data):
        """Build from strictly increasing keys ``row * dim + col`` and their values."""
        indptr = np.searchsorted(keys, np.arange(dim + 1) * dim)
        return cls(dim, indptr, keys % dim, data)

    def matvec(self, v):
        v = self._check_vector(v)
        return np.bincount(self._rows, weights=self.data * v[self.indices],
                           minlength=self.dim)

    def diagonal(self) -> np.ndarray:
        """Diagonal entries; 0 where a row stores none."""
        out = np.zeros(self.dim)
        on = self._rows == self.indices
        out[self._rows[on]] = self.data[on]
        return out

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
    if nrows < 1:
        raise MatrixMarketError(f"line {size_line_no}: matrix dimension must be >= 1, got {nrows}")
    if fmt == "coordinate" and dims[2] < 0:
        raise MatrixMarketError(f"line {size_line_no}: entry count must be >= 0, got {dims[2]}")

    entries = []
    for offset, raw in enumerate(lines[k + 1:], start=size_line_no + 1):
        text = raw.strip()
        if not text or text.startswith("%"):
            continue
        entries.append((offset, text.split()))

    if fmt == "coordinate":
        return _build_coordinate(nrows, dims[2], entries, symmetry)
    return _build_array(nrows, entries, symmetry)


def _value(line_no, token, kind=float):
    """``token`` read as ``kind`` (float, or int for coordinate indices); a
    float must be finite."""
    try:
        v = kind(token)
    except ValueError:
        raise MatrixMarketError(f"line {line_no}: non-numeric token {token!r}") from None
    if kind is float and not math.isfinite(v):
        raise MatrixMarketError(f"line {line_no}: non-finite value {token!r}")
    return v


def _finite(values):
    """``values``, unless summing or symmetrizing finite entries overflowed."""
    if not np.all(np.isfinite(values)):
        raise MatrixMarketError("entries sum to a non-finite value")
    return values


def _symmetrized(a, at):
    """(a + at) / 2 for the entries ``a`` of a 'general' matrix and ``at`` of
    its transpose at the same positions; they must agree to 1e-12 relative."""
    scale = np.max(np.abs(a)) if a.size else 0.0
    if scale and np.max(np.abs(a - at)) > _SYMMETRY_RTOL * scale:
        raise MatrixMarketError(
            "matrix declared 'general' is not symmetric to within 1e-12 relative"
        )
    return (a + at) / 2.0


def _build_coordinate(d, nnz, entries, symmetry):
    if len(entries) != nnz:
        raise MatrixMarketError(
            f"expected {nnz} coordinate entries, found {len(entries)}"
        )
    rows, cols, vals = [], [], []
    for line_no, tokens in entries:
        if len(tokens) != 3:
            raise MatrixMarketError(f"line {line_no}: expected 'i j value', got {len(tokens)} tokens")
        i, j = _value(line_no, tokens[0], int), _value(line_no, tokens[1], int)
        v = _value(line_no, tokens[2])
        if not (1 <= i <= d and 1 <= j <= d):
            raise MatrixMarketError(f"line {line_no}: index ({i},{j}) out of range for dimension {d}")
        rows.append(i - 1)
        cols.append(j - 1)
        vals.append(v)
    rows, cols, vals = np.array(rows, dtype=np.int64), np.array(cols, dtype=np.int64), np.array(vals)
    if symmetry == "symmetric":
        # each off-diagonal entry is followed by its mirror, so duplicates sum in file order
        src = np.repeat(np.arange(rows.size), np.where(rows != cols, 2, 1))
        mirror = np.diff(src, prepend=-1) == 0
        rows, cols = np.where(mirror, cols[src], rows[src]), np.where(mirror, rows[src], cols[src])
        vals = vals[src]
    keys, vals = _summed(d, rows, cols, vals)
    if symmetry == "general":
        # (A + A^T) / 2 on the union of the pattern and its mirror; exact zeros dropped
        n = keys.size
        keys, where = np.unique(np.concatenate([keys, _keys(d, keys % d, keys // d)]),
                                return_inverse=True)
        a, a_t = np.zeros((2, keys.size))
        a[where[:n]] = vals
        a_t[where[n:]] = vals
        vals = _symmetrized(a, a_t)
        keys, vals = keys[vals != 0], vals[vals != 0]
    return SparseSymmetric._from_keys(d, keys, _finite(vals))


def _build_array(d, entries, symmetry):
    values = [_value(line_no, tok) for line_no, tokens in entries for tok in tokens]
    expected = d * (d + 1) // 2 if symmetry == "symmetric" else d * d
    if len(values) != expected:
        storage = "array values for symmetric storage" if symmetry == "symmetric" else "array values"
        raise MatrixMarketError(f"expected {expected} {storage}, found {len(values)}")
    if symmetry == "symmetric":
        # lower triangle, column-major: column j holds rows j..d-1
        M = np.zeros((d, d))
        j, i = np.triu_indices(d)
        M[i, j] = values
        M[j, i] = values
    else:
        M = np.asarray(values).reshape((d, d), order="F")
        M = _symmetrized(M, M.T)
    return DenseSymmetric(_finite(M))
