"""Symmetric linear operators: dense and sparse storage, a matvec-counting
wrapper, seeded random matrix generation, and Matrix Market ingestion.

Operators expose ``matvec``; the matvec count is the cost unit everything
else in this package is measured in. The two storage classes also give
``diagonal``, ``to_dense`` and ``scaled``, the stored copy mapped onto
[-1, 1] that the Chebyshev evaluators run on. Operators are immutable after
construction, with one exception: ``into_scaled`` maps an operator onto
[-1, 1] in its own storage. It is for the code that built the operator,
once nothing needs it unscaled, as ``bench.run_estimate`` does with the
matrix it acquired. A Matrix Market file is opened, read, split into lines
and its header read once; the bulk parser and the line reader share those lines.
"""

from __future__ import annotations

import itertools
import math
import os
import threading
import warnings

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
    first. A float64 array is taken without copying and marked read-only,
    so the caller's array becomes the operator's storage.
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

    def to_dense(self) -> DenseSymmetric:
        return self

    def scaled(self, lo: float, hi: float) -> DenseSymmetric:
        """(2 A - (lo + hi) I) / (hi - lo), which maps [lo, hi] onto [-1, 1]: a new operator,
        built by ``into_scaled`` on a copy of the entries; this one is left unchanged. The
        copy is held, not constructed: the symmetry this operator was checked for holds for it."""
        copy = object.__new__(DenseSymmetric)
        copy.entries, copy.dim = self.entries.copy(), self.dim
        return copy.into_scaled(lo, hi)

    def into_scaled(self, lo: float, hi: float) -> DenseSymmetric:
        """This operator, its entries overwritten with ``scaled(lo, hi)``'s (no second
        d x d array), and read-only again on return, as after an overflow's ValueError."""
        return _scale(self, self.entries, np.diag_indices(self.dim), lo, hi)


def _scale(op, values, diagonal, lo, hi):
    """``op``, its entries ``values``, whose diagonal ``diagonal`` indexes, set to
    (2 a_ij - (lo + hi) delta_ij) / (hi - lo) in that order, as ``Interval.to_canonical``
    maps a point. ``values`` is read-only again on return, and also after the
    ValueError of an entry that is not finite, which leaves it scaled."""
    values.setflags(write=True)
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            shift, width = lo + hi, hi - lo
            values *= 2.0
            values[diagonal] -= shift
            values /= width
    finally:
        values.setflags(write=False)
    if not np.all(np.isfinite(values)):
        raise ValueError(f"scaling the matrix to [-1, 1] overflows double precision: "
                         f"(2 A - ({shift!r}) I) / {width!r} has an entry that is not finite")
    return op


def _keys(dim, rows, cols):
    """Row-major int64 key ``row * dim + col`` of each entry: sorting by key
    sorts by (row, column), and ``_keys(dim, cols, rows)`` names the mirror."""
    return np.asarray(rows, dtype=np.int64) * dim + np.asarray(cols, dtype=np.int64)


class SparseSymmetric(SymmetricOperator):
    """CSR storage of the full symmetric pattern.

    Both triangles are stored so that ``matvec`` is one row sweep, scipy's
    compiled CSR product over the operator's own arrays; the pattern and
    values must be exactly symmetric (mirror before constructing if the
    source stores one triangle). Column indices must strictly increase
    within each row, as scipy's compiled ``has_canonical_format`` checks.
    """

    def __init__(self, dim, indptr, indices, data):
        self.dim = int(dim)
        indptr = np.asarray(indptr, dtype=np.int64)
        indices = np.asarray(indices, dtype=np.int64)
        data = np.asarray(data, dtype=np.float64)
        if indptr.shape != (self.dim + 1,):
            raise ValueError("indptr must have length dim + 1")
        if indices.shape != data.shape:
            raise ValueError("indices and data must have equal length")
        if (indptr[0] != 0 or np.any(np.diff(indptr) < 0)
                or indptr[-1] != indices.size):
            raise ValueError("indptr must rise from 0 to the number of stored entries")
        if np.any(indices < 0) or np.any(indices >= self.dim):
            raise ValueError("column index out of range")
        # an unlocked view, so that a ValueError leaves the caller's arrays writeable
        csr = _csr(self.dim, indptr, indices, data)
        # compiled, and allocates nothing: columns strictly increase in every row
        if not csr.has_canonical_format:
            after = np.flatnonzero(np.diff(indices) <= 0) + 1
            rows = np.searchsorted(indptr, after, side="right") - 1
            row = int(rows[indptr[rows] != after][0])
            raise ValueError(f"column indices not strictly increasing in row {row}")
        # scipy's transpose is a counting sort, so its rows come out ordered
        mirror = csr.T.tocsr()
        if not (np.array_equal(mirror.indptr, indptr)
                and np.array_equal(mirror.indices, indices)
                and np.array_equal(mirror.data, data)):
            raise ValueError("sparse pattern or values are not symmetric")
        self._hold(indptr, indices, data)

    def _hold(self, indptr, indices, data):
        """Take the three CSR arrays as this operator's storage, read-only, and
        view them, not copy them, as ``_csr``; an operator derived from a checked
        one takes its arrays here, not through the constructor's checks."""
        self.indptr, self.indices, self.data = indptr, indices, data
        for arr in (indptr, indices, data):
            arr.setflags(write=False)
        self._csr = _csr(self.dim, indptr, indices, data)

    @classmethod
    def from_coo(cls, dim, rows, cols, values):
        """Build from triplets; duplicate entries are summed in input order."""
        rows, cols = np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64)
        if np.any((rows < 0) | (rows >= dim) | (cols < 0) | (cols >= dim)):
            raise ValueError("row or column index out of range")
        keys, where = np.unique(_keys(dim, rows, cols), return_inverse=True)
        return cls._from_keys(dim, keys, np.bincount(where, weights=values, minlength=keys.size))

    @classmethod
    def _from_keys(cls, dim, keys, data):
        """Build from strictly increasing keys ``row * dim + col`` and their values."""
        indptr = np.searchsorted(keys, np.arange(dim + 1) * dim)
        return cls(dim, indptr, keys % dim, data)

    def matvec(self, v):
        # each row's products are summed from 0 in column order
        return self._csr @ self._check_vector(v)

    def diagonal(self) -> np.ndarray:
        """Diagonal entries; 0 where a row stores none."""
        return self._csr.diagonal()

    def to_dense(self) -> DenseSymmetric:
        return DenseSymmetric(self._csr.toarray())

    def scaled(self, lo: float, hi: float) -> SparseSymmetric:
        """(2 A - (lo + hi) I) / (hi - lo), which maps [lo, hi] onto [-1, 1]: a new
        operator, built by ``into_scaled`` on a copy of the values that shares the
        index arrays unless it inserts an entry; this one is left unchanged. The
        copy is held, not constructed: this operator's checks hold for it."""
        copy = object.__new__(SparseSymmetric)
        copy.dim = self.dim
        copy._hold(self.indptr, self.indices, self.data.copy())
        return copy.into_scaled(lo, hi)

    def into_scaled(self, lo: float, hi: float) -> SparseSymmetric:
        """This operator, its values overwritten with ``scaled(lo, hi)``'s. Each row that
        stores no diagonal entry first gains a 0.0 one, at most dim more built in O(nnz),
        in arrays this operator then holds; zeros on the diagonal keep the pattern
        symmetric and each row's columns increasing, so neither is checked again."""
        rows = np.repeat(np.arange(self.dim), np.diff(self.indptr))
        # columns increase in a row, so its diagonal slot follows its entries left of it
        slot = self.indptr[:-1] + np.bincount(rows[self.indices < rows], minlength=self.dim)
        del rows
        stored = slot < self.indptr[1:]  # a row whose entries all lie left of it stores none
        stored[stored] = self.indices[slot[stored]] == np.flatnonzero(stored)
        if not stored.all():
            missing = np.flatnonzero(~stored)
            # a row gains one entry for each row above it that stores no diagonal entry
            shift = np.searchsorted(missing, np.arange(self.dim + 1))
            self._hold(self.indptr + shift, np.insert(self.indices, slot[missing], missing),
                       np.insert(self.data, slot[missing], 0.0))
            slot += shift[:-1]
        return _scale(self, self.data, slot, lo, hi)


def _csr(dim, indptr, indices, data):
    """scipy's d x d CSR array viewing, not copying, the three arrays."""
    import scipy.sparse  # not at module level: dense runs never pay its import time and memory

    return scipy.sparse.csr_array((data, indices, indptr), shape=(dim, dim))


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


_SYMMETRIZE_ROWS = 64


def random_symmetric(d: int, seed: int) -> DenseSymmetric:
    """Symmetrized standard Gaussian matrix (B + B^T) / 2, reproducible per seed.

    B is symmetrized in place, one block of 64 rows at a time, so the build
    holds one d x d array and one 64 x d block; the operator takes B itself.
    Both entries of a pair (b_rc, b_cr) are read before either is written, and
    b_rc + b_cr == b_cr + b_rc exactly, so every entry equals the one
    ``(B + B.T) / 2.0`` gives.
    """
    if d < 1:
        raise ValueError(f"dimension must be positive, got {d}")
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((d, d))
    for i in range(0, d, _SYMMETRIZE_ROWS):
        j = i + _SYMMETRIZE_ROWS
        block = B[i:j, i:] + B[i:, i:j].T
        block /= 2.0
        B[i:j, i:] = block
        B[i:, i:j] = block.T
    return DenseSymmetric(B)


class MatrixMarketError(ValueError):
    """Raised on malformed or unsupported Matrix Market input."""


_SYMMETRY_RTOL = 1e-12
_MAX_COORDINATE_DIM = math.isqrt(np.iinfo(np.int64).max)  # the largest d with d * d in int64


def load_matrix_market(path):
    """Read a real Matrix Market file into an operator.

    Coordinate files yield :class:`SparseSymmetric` (``symmetric`` files have
    their stored triangle mirrored); array files yield :class:`DenseSymmetric`.
    ``general`` files must hold symmetric content to within 1e-12 relative
    and are symmetrized on load.

    The file is split into lines once, by ``str.splitlines``, its header is
    read once, and the load switches on the format once. The data lines of a
    coordinate file, when all ASCII, are parsed by one ``np.loadtxt`` call.
    Where that parse fails or the parsed arrays fail a check, and in every
    array file, the lines are read one by one with ``str.split``, ``int`` and
    ``float``, so errors name their line. Either parse feeds one assembly.
    """
    lines = _lines(path)
    fmt, symmetry, d, nnz, size_line_no = _read_header(lines)
    if fmt == "array":
        return _build_array(d, _data_lines(lines, size_line_no), symmetry)
    # non-ASCII data never reaches loadtxt: with the int64 triplet dtype it can
    # crash the interpreter (SIGSEGV) on a token that begins with a high code
    # point such as U+10FFFF; on ASCII lines it splits at str.split's whitespace
    bulk = all(map(str.isascii, itertools.islice(lines, size_line_no, None)))
    triplets = _parse_coordinate_bulk(lines, size_line_no, d, nnz) if bulk else None
    triplets = triplets or _parse_coordinate(lines, size_line_no, d, nnz)
    del lines  # else assembly's peak would hold every line, 86 B per entry more
    return _assemble_coordinate(d, *triplets, symmetry)


def _lines(path):
    """The lines of a UTF-8 text file, split by ``str.splitlines``."""
    with open(os.fspath(path), encoding="utf-8") as fh:
        return fh.read().splitlines()


def _read_header(lines):
    """Format, symmetry, dimension, entry count (None for array files) and size line
    number of a file's lines, read once per load; the data section is the lines after
    the size line. A coordinate file's dimension is at most ``_MAX_COORDINATE_DIM``."""
    if not lines:
        raise MatrixMarketError("line 1: empty file")
    first = lines[0]
    header = first.split()
    if len(header) != 5 or header[0] != "%%MatrixMarket":
        raise MatrixMarketError(f"line 1: malformed Matrix Market header: {first!r}")
    _, obj, fmt, field, symmetry = header
    if obj.lower() != "matrix" or field.lower() != "real":
        raise MatrixMarketError(f"line 1: only 'matrix ... real' files are supported")
    fmt = fmt.lower()
    symmetry = symmetry.lower()
    if fmt not in ("coordinate", "array"):
        raise MatrixMarketError(f"line 1: unsupported format {fmt!r}")
    if symmetry not in ("general", "symmetric"):
        raise MatrixMarketError(f"line 1: unsupported symmetry {symmetry!r}")

    # the size line is the first data line
    line_no, tokens = next(_data_lines(lines, 1), (len(lines), None))
    if tokens is None:
        raise MatrixMarketError(f"line {line_no}: missing size line")
    try:
        dims = [int(t) for t in tokens]
    except ValueError:
        raise MatrixMarketError(
            f"line {line_no}: non-integer token in size line: {lines[line_no - 1]!r}"
        ) from None
    expected = 3 if fmt == "coordinate" else 2
    if len(dims) != expected:
        raise MatrixMarketError(
            f"line {line_no}: expected {expected} size fields, got {len(dims)}"
        )
    nrows, ncols = dims[0], dims[1]
    if nrows != ncols:
        raise MatrixMarketError(f"line {line_no}: matrix is not square ({nrows}x{ncols})")
    if nrows < 1:
        raise MatrixMarketError(f"line {line_no}: matrix dimension must be >= 1, got {nrows}")
    if fmt == "coordinate" and dims[2] < 0:
        raise MatrixMarketError(f"line {line_no}: entry count must be >= 0, got {dims[2]}")
    if fmt == "coordinate" and nrows > _MAX_COORDINATE_DIM:
        raise MatrixMarketError(f"line {line_no}: matrix dimension {nrows} is above "
                                f"{_MAX_COORDINATE_DIM}, past which row * d + column overflows int64")
    return fmt, symmetry, nrows, (dims[2] if fmt == "coordinate" else None), line_no


_TRIPLET = np.dtype([("i", np.int64), ("j", np.int64), ("v", np.float64)])


def _parse_coordinate_bulk(lines, size_line_no, d, nnz):
    """0-based rows and columns and the values of the coordinate data section after the
    first ``size_line_no`` of ``lines``: views of one ``_TRIPLET`` array, parsed by one
    ``np.loadtxt`` call; None leaves the file to the line parser, ``_parse_coordinate``.

    loadtxt reads a token only where ``int`` or ``float`` reads the same
    number, and fails on the others (such as ``1_000``, which both accept)
    and on comment lines. None also follows from a wrong entry count, an
    index out of range or a value that is not finite."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an empty data section only warns
            t = np.loadtxt(lines, dtype=_TRIPLET, comments=None, skiprows=size_line_no, ndmin=1)
    except (ValueError, Warning):
        return None
    i, j, v = t["i"], t["j"], t["v"]
    if (t.size != nnz or np.any((i < 1) | (i > d) | (j < 1) | (j > d))
            or not np.all(np.isfinite(v))):
        return None
    i -= 1  # in place, since every line is still held; both parsers return views
    j -= 1
    return i, j, v


def _data_lines(lines, start):
    """Line number and ``str.split`` tokens of each data line of ``lines`` from the
    0-based ``start`` on, lazily: a line that is neither blank nor a ``%`` comment."""
    for line_no, line in enumerate(itertools.islice(lines, start, None), start=start + 1):
        if line.strip() and not line.lstrip().startswith("%"):
            yield line_no, line.split()


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
    its transpose at the same positions, which may cover one triangle only; they
    must be finite and agree to 1e-12 relative of the larger of max|a| and max|at|."""
    scale = max(np.max(np.abs(a)), np.max(np.abs(at))) if a.size else 0.0
    # halving cannot overflow, and is exact above the subnormal range
    if scale and np.max(np.abs(0.5 * a - 0.5 * at)) > 0.5 * _SYMMETRY_RTOL * scale:
        raise MatrixMarketError(
            "matrix declared 'general' is not symmetric to within 1e-12 relative"
        )
    with np.errstate(over="ignore"):  # a mean past the largest double is rejected
        return _finite((a + at) / 2.0)


def _parse_coordinate(lines, start, d, nnz):
    """0-based rows, columns and values of the data lines of ``lines`` from the 0-based ``start``
    on, counted against ``nnz``, then read one at a time into one ``_TRIPLET`` array."""
    found = sum(1 for _ in _data_lines(lines, start))
    if found != nnz:
        raise MatrixMarketError(f"expected {nnz} coordinate entries, found {found}")
    t = np.empty(nnz, dtype=_TRIPLET)
    for k, (line_no, tokens) in enumerate(_data_lines(lines, start)):
        if len(tokens) != 3:
            raise MatrixMarketError(f"line {line_no}: expected 'i j value', got {len(tokens)} tokens")
        i, j = _value(line_no, tokens[0], int), _value(line_no, tokens[1], int)
        v = _value(line_no, tokens[2])
        if not (1 <= i <= d and 1 <= j <= d):
            raise MatrixMarketError(f"line {line_no}: index ({i},{j}) out of range for dimension {d}")
        t[k] = i - 1, j - 1, v
    return t["i"], t["j"], t["v"]


def _assemble_coordinate(d, rows, cols, vals, symmetry):
    """The CSR operator of 0-based triplets, by one fold, one sum and one mirror.

    A triplet's key is its lower-triangle position ``max·d + min``, which its mirror
    shares, so one ``bincount`` sums each position's entries in file order. ``symmetric``
    files keep stored zeros; ``general`` files sum A from their entries on and below the
    diagonal and Aᵀ from those on and above it, are symmetrized, and drop exact zeros.
    The off-diagonal keys are then mirrored once; they are distinct, so one sort orders them."""
    keys, where = np.unique(_keys(d, np.maximum(rows, cols), np.minimum(rows, cols)),
                            return_inverse=True)

    def summed(stored=slice(None)):
        return _finite(np.bincount(where[stored], weights=vals[stored], minlength=keys.size))

    if symmetry == "symmetric":
        vals = summed()
    else:
        vals = _symmetrized(summed(rows >= cols), summed(rows <= cols))
        keys, vals = keys[vals != 0], vals[vals != 0]
    off = keys // d != keys % d
    keys = np.concatenate([keys, _keys(d, keys[off] % d, keys[off] // d)])
    order = np.argsort(keys)
    keys, vals = keys[order], np.concatenate([vals, vals[off]])[order]
    del where, order  # released before the constructor's transpose, the assembly's peak
    return SparseSymmetric._from_keys(d, keys, vals)


def _build_array(d, entries, symmetry):
    """The operator of the array data lines ``entries`` (``_data_lines``), read by ``np.fromiter``."""
    values = np.fromiter((_value(n, tok) for n, tokens in entries for tok in tokens), float)
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
        M = values.reshape((d, d), order="F")
        M = _symmetrized(M, M.T)
    return DenseSymmetric(M)
