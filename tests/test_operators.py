import threading

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from memory import stored_nbytes, traced_peak

from twosided import operators
from twosided.operators import (CountingOperator, DenseSymmetric,
                                MatrixMarketError, SparseSymmetric,
                                load_matrix_market, random_symmetric)


def sparse_from_dense(M):
    M = np.asarray(M, dtype=float)
    r, c = np.nonzero(M)
    return SparseSymmetric.from_coo(M.shape[0], r, c, M[r, c])


class TestMatvec:
    def test_diagonal(self):
        op = DenseSymmetric(np.diag([2.0, 3.0]))
        assert np.allclose(op.matvec([1.0, 1.0]), [2.0, 3.0])

    def test_identity(self):
        op = DenseSymmetric(np.eye(3))
        v = np.array([1.0, -2.0, 5.0])
        assert np.array_equal(op.matvec(v), v)

    def test_permutation(self):
        op = DenseSymmetric([[0.0, 1.0], [1.0, 0.0]])
        assert np.array_equal(op.matvec([1.0, 0.0]), [0.0, 1.0])

    def test_dimension_mismatch_names_lengths(self):
        op = DenseSymmetric(np.eye(3))
        with pytest.raises(ValueError, match="3"):
            op.matvec(np.ones(4))

    def test_deterministic(self):
        op = random_symmetric(40, 11)
        v = np.random.default_rng(0).standard_normal(40)
        assert np.array_equal(op.matvec(v), op.matvec(v))


class TestSymmetryInvariant:
    @pytest.mark.parametrize("seed", range(5))
    def test_dense(self, seed):
        op = random_symmetric(60, seed)
        rng = np.random.default_rng(seed + 100)
        u, v = rng.standard_normal(60), rng.standard_normal(60)
        Au, Av = op.matvec(u), op.matvec(v)
        lhs = abs(u @ Av - v @ Au)
        bound = 1e-12 * (np.linalg.norm(u) * np.linalg.norm(Av)
                         + np.linalg.norm(v) * np.linalg.norm(Au))
        assert lhs <= bound

    def test_sparse(self):
        rng = np.random.default_rng(5)
        M = rng.standard_normal((30, 30))
        M = (M + M.T) / 2
        M[np.abs(M) < 0.8] = 0.0
        op = sparse_from_dense(M)
        u, v = rng.standard_normal(30), rng.standard_normal(30)
        Au, Av = op.matvec(u), op.matvec(v)
        assert abs(u @ Av - v @ Au) <= 1e-12 * (
            np.linalg.norm(u) * np.linalg.norm(Av)
            + np.linalg.norm(v) * np.linalg.norm(Au))


def test_sparse_dense_agreement():
    rng = np.random.default_rng(7)
    M = rng.standard_normal((50, 50))
    M = (M + M.T) / 2
    M[np.abs(M) < 0.5] = 0.0
    dense = DenseSymmetric(M)
    sparse = sparse_from_dense(M)
    for _ in range(10):
        v = rng.standard_normal(50)
        a, b = dense.matvec(v), sparse.matvec(v)
        assert np.max(np.abs(a - b)) <= 1e-14 * max(1.0, np.max(np.abs(a)))


def test_dense_rejects_asymmetric():
    with pytest.raises(ValueError, match="symmetric"):
        DenseSymmetric([[1.0, 2.0], [2.0 + 1e-13, 1.0]])


def test_sparse_rejects_asymmetric_pattern():
    with pytest.raises(ValueError, match="symmetric"):
        SparseSymmetric.from_coo(2, [0], [1], [1.0])


@pytest.mark.parametrize("dim, indptr, indices, row", [
    (3, [0, 2, 4, 6], [0, 2, 1, 2, 1, 1], 2),  # rows 0 and 1 are in order
    (3, [0, 2, 2, 4], [1, 0, 0, 1], 0),
    (4, [0, 1, 1, 1, 3], [3, 0, 0], 3),  # the drop into row 3 skips two empty rows
    (3, [0, 2, 3, 5], [0, 2, 0, 1, 1], 2),  # row 1 starts below row 0's last column
], ids=["repeat-in-row-2", "descending-in-row-0", "repeat-after-empty-rows",
        "repeat-after-a-row-start"])
def test_sparse_rejects_unordered_row(dim, indptr, indices, row):
    with pytest.raises(ValueError, match=f"^column indices not strictly increasing in row {row}$"):
        SparseSymmetric(dim, indptr, indices, np.ones(len(indices)))


def test_sparse_constructor_holds_one_copy_of_the_csr():
    # the symmetry check's transpose is one CSR's worth; the order check adds nothing
    d = 20000
    rng = np.random.default_rng(0)
    rows, cols = np.repeat(np.arange(d), 3), rng.integers(0, d, 3 * d)
    built = SparseSymmetric.from_coo(d, np.concatenate([rows, cols]), np.concatenate([cols, rows]),
                                     np.ones(6 * d))
    _, peak = traced_peak(SparseSymmetric, d, built.indptr, built.indices, built.data)
    assert built.indices.size >= 1e5
    assert peak <= 1.25 * stored_nbytes(built)


@pytest.mark.parametrize("indptr, indices, message", [
    ([0, 2, 2], [1, 0], "column indices not strictly increasing in row 0"),
    ([0, 1, 1], [1], "sparse pattern or values are not symmetric"),  # (0, 1) without (1, 0)
], ids=["row-order", "symmetry"])
def test_failed_sparse_construction_leaves_the_callers_arrays_writeable(indptr, indices, message):
    # int64 and float64 arrays are taken without copying; the checks run before the lock
    arrays = (np.array(indptr, dtype=np.int64), np.array(indices, dtype=np.int64),
              np.ones(len(indices)))
    with pytest.raises(ValueError, match=f"^{message}$"):
        SparseSymmetric(2, *arrays)
    assert all(a.flags.writeable for a in arrays)


def test_abstract_operator_has_no_matvec():
    op = operators.SymmetricOperator()
    with pytest.raises(NotImplementedError):
        op.matvec(np.ones(1))


def test_sparse_rejects_bad_indptr():
    with pytest.raises(ValueError, match="indptr"):
        SparseSymmetric(2, [0, 2, 1], [0, 1], [1.0, 1.0])


@pytest.mark.parametrize("build, message", [
    (lambda: DenseSymmetric(np.zeros((2, 3))), r"expected a square matrix, got shape \(2, 3\)"),
    (lambda: SparseSymmetric(2, [0, 2], [0, 1], [1.0, 1.0]), r"indptr must have length dim \+ 1"),
    (lambda: SparseSymmetric(2, [0, 1, 2], [0, 1], [1.0]),
     "indices and data must have equal length"),
    (lambda: SparseSymmetric(2, [0, 1, 2], [0, 2], [1.0, 1.0]), "column index out of range"),
    # NaN != NaN fails the symmetry checks, which name the first NaN entry instead
    (lambda: DenseSymmetric([[np.nan, 0.0], [0.0, 1.0]]), r"matrix entry \(0, 0\) is NaN"),
    (lambda: DenseSymmetric([[1.0, 0.0], [np.nan, np.nan]]), r"matrix entry \(1, 0\) is NaN"),
    (lambda: SparseSymmetric(2, [0, 1, 2], [0, 1], [np.nan, 2.0]), r"matrix entry \(0, 0\) is NaN"),
    (lambda: SparseSymmetric(3, [0, 1, 2, 4], [2, 2, 0, 1], [1.0, 1.0, 1.0, np.nan]),
     r"matrix entry \(2, 1\) is NaN"),
], ids=["dense-not-square", "short-indptr", "indices-data-lengths", "column-index",
        "dense-nan-diagonal", "dense-nan-lower", "sparse-nan-diagonal", "sparse-nan-lower"])
def test_malformed_storage_is_rejected(build, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        build()


_NOT_AN_INT = "'float' object cannot be interpreted as an integer"


@pytest.mark.parametrize("build, message", [
    (lambda: SparseSymmetric(2.7, [0, 1.0, 2.9], [0.7, 1.2], [1.0, 2.0]), _NOT_AN_INT),
    (lambda: SparseSymmetric.from_coo(2.5, [0, 1], [0, 1], [1.0, 2.0]), _NOT_AN_INT),
    (lambda: SparseSymmetric(2, [0, 1.0, 2.9], [0, 1], [1.0, 2.0]),
     "indptr must be integers, got dtype float64"),
    (lambda: SparseSymmetric(2, [0, 1, 2], [0.7, 1.2], [1.0, 2.0]),
     "indices must be integers, got dtype float64"),
    (lambda: SparseSymmetric.from_coo(2, [0.0, 1.0], [0, 1], [1.0, 2.0]),
     "rows must be integers, got dtype float64"),
    (lambda: SparseSymmetric.from_coo(2, [0, 1], [False, True], [1.0, 2.0]),
     "cols must be integers, got dtype bool"),
], ids=["dim", "from-coo-dim", "indptr", "indices", "rows", "cols"])
def test_sparse_sizes_and_indices_are_read_as_integers_not_truncated(build, message):
    with pytest.raises(TypeError, match=f"^{message}$"):
        build()


def test_empty_index_lists_stay_valid():
    # an empty list reads as float64, but holds no float to truncate
    assert SparseSymmetric(2, [0, 0, 0], [], []).indices.dtype == np.int64
    assert SparseSymmetric.from_coo(2, [], [], []).indptr.tolist() == [0, 0, 0]


@pytest.mark.parametrize("dim, build", [
    (-1, lambda: SparseSymmetric(-1, [], [], [])),
    (-1, lambda: SparseSymmetric.from_coo(-1, [], [], [])),
    # the dimension is named before the index check would blame the entry
    (-1, lambda: SparseSymmetric.from_coo(-1, [0], [0], [1.0])),
    (0, lambda: SparseSymmetric(0, [0], [], [])),
    (0, lambda: SparseSymmetric.from_coo(0, [], [], [])),
], ids=["negative", "negative-from-coo", "negative-from-coo-entry", "zero", "zero-from-coo"])
def test_a_sparse_dimension_must_be_non_negative(dim, build):
    if dim < 0:
        with pytest.raises(ValueError, match=f"^sparse dimension must be non-negative, got {dim}$"):
            build()
    else:
        op = build()
        assert op.dim == 0 and op.matvec([]).shape == (0,)


@pytest.mark.parametrize("row, col", [(2, 0), (0, 2), (-1, 0), (1, -1)])
def test_from_coo_rejects_out_of_range_index(row, col):
    # a row-major key would alias (0, 2) to (1, 0) without this check
    with pytest.raises(ValueError, match="out of range"):
        SparseSymmetric.from_coo(2, [0, 1, row], [0, 1, col], [1.0, 1.0, 1.0])


def test_sparse_diagonal():
    rng = np.random.default_rng(3)
    M = rng.standard_normal((20, 20))
    M = (M + M.T) / 2
    M[np.abs(M) < 0.8] = 0.0
    op = sparse_from_dense(M)
    assert np.array_equal(op.diagonal(), np.diag(M))
    assert np.array_equal(DenseSymmetric(M).diagonal(), np.diag(M))


@st.composite
def coo_patterns(draw):
    """Dimension and symmetric triplets: a random pattern whose duplicates sum
    (each entry is followed by its mirror, so both sums run in one order) and
    whose rows may be empty, or a diagonal with some rows empty."""
    d = draw(st.integers(1, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        rows = cols = np.flatnonzero(rng.random(d) < 0.7)
        return d, rows, cols, rng.standard_normal(rows.size)
    k = int(rng.integers(0, 3 * d + 1))
    # k entries drawn from about k/2 positions, so many positions repeat
    r, c = rng.integers(0, d, (k // 2 + 1, 2))[rng.integers(0, k // 2 + 1, k)].T
    vals = rng.standard_normal(k) * 10.0 ** rng.integers(-100, 101, k)
    return (d, np.column_stack([r, c]).ravel(), np.column_stack([c, r]).ravel(),
            np.repeat(vals, 2))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(pattern=coo_patterns())
def test_sparse_matvec_is_the_row_order_sum(pattern):
    # the reference sums each row's products from 0 in column order
    d, r, c, vals = pattern
    op = SparseSymmetric.from_coo(d, r, c, vals)
    rows = np.repeat(np.arange(d), np.diff(op.indptr))
    rng = np.random.default_rng(d)
    for v in (rng.standard_normal(d), rng.standard_normal(d) * 10.0 ** rng.integers(-80, 81, d)):
        expected = np.bincount(rows, weights=op.data * v[op.indices], minlength=d)
        assert op.matvec(v).tobytes() == expected.tobytes()
    diagonal = np.zeros(d)
    on = rows == op.indices
    diagonal[rows[on]] = op.data[on]
    assert op.diagonal().tobytes() == diagonal.tobytes()
    dense = np.zeros((d, d))
    dense[rows, op.indices] = op.data
    assert op.to_dense().entries.tobytes() == dense.tobytes()


def argsort_symmetric(dim, indptr, indices, data):
    """The mirrored-key argsort check the transpose comparison replaces, kept
    as the reference."""
    rows = np.repeat(np.arange(dim), np.diff(indptr))
    keys, mirrored = rows * dim + indices, indices * dim + rows
    order = np.argsort(mirrored)
    return bool(np.array_equal(mirrored[order], keys) and np.array_equal(data[order], data))


@st.composite
def near_symmetric_csr(draw):
    """CSR arrays of dimension 1..30 whose rows may be empty: a symmetric
    pattern and values with at most one fault, a one-ulp value asymmetry, an
    entry whose mirror is not stored, NaN data (on one side or both), or a
    zero stored as -0.0 and mirrored by +0.0. Rows are strictly ordered."""
    d = draw(st.integers(1, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    M = rng.standard_normal((d, d))
    M = M + M.T
    keep = rng.random((d, d)) < draw(st.floats(0.0, 1.0))
    stored = keep | keep.T
    if draw(st.booleans()):
        empty = rng.random(d) < 0.3
        stored[empty] = stored[:, empty] = False
    i, j = (int(k) for k in rng.integers(0, d, 2))
    fault = draw(st.sampled_from(["none", "ulp", "one_sided", "nan", "nan_pair", "signed_zero"]))
    if fault == "one_sided":
        stored[i, j] = not stored[i, j]
    elif fault != "none":
        stored[i, j] = stored[j, i] = True
    if fault == "ulp":
        M[i, j] = np.nextafter(M[i, j], np.inf)
    elif fault == "nan":
        M[i, j] = np.nan
    elif fault == "nan_pair":
        M[i, j] = M[j, i] = np.nan
    elif fault == "signed_zero":
        M[i, j], M[j, i] = -0.0, 0.0
    rows, cols = np.nonzero(stored)
    return d, np.searchsorted(rows, np.arange(d + 1)), cols, M[rows, cols]


@settings(derandomize=True, deadline=None, max_examples=300)
@given(csr=near_symmetric_csr())
def test_sparse_symmetry_check_agrees_with_mirrored_key_argsort(csr):
    d, indptr, indices, data = csr
    try:
        SparseSymmetric(d, indptr, indices, data)
        accepted = True
    except ValueError as exc:
        # a NaN fails the check (NaN != NaN) and is named: the first stored, in row order
        rows, nan = np.repeat(np.arange(d), np.diff(indptr)), np.flatnonzero(np.isnan(data))
        assert str(exc) == (f"matrix entry ({rows[nan[0]]}, {indices[nan[0]]}) is NaN" if nan.size
                            else "sparse pattern or values are not symmetric")
        accepted = False
    assert accepted == argsort_symmetric(d, indptr, indices, data)


class TestRandomSymmetric:
    def test_dim_one(self):
        op = random_symmetric(1, 3)
        assert op.dim == 1

    def test_exact_symmetry(self):
        M = random_symmetric(50, 7).entries
        assert np.max(np.abs(M - M.T)) == 0.0

    def test_determinism(self):
        assert np.array_equal(random_symmetric(50, 7).entries,
                              random_symmetric(50, 7).entries)

    @pytest.mark.parametrize("d", [1, 2, 63, 64, 65, 128, 129, 200])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_in_place_build_equals_the_symmetrized_copy(self, d, seed):
        # the sizes straddle the 64-row blocks of the in-place build
        B = np.random.default_rng(seed).standard_normal((d, d))
        M = random_symmetric(d, seed).entries
        assert np.array_equal(M, (B + B.T) / 2.0)
        assert np.array_equal(M, M.T)

    def test_build_holds_one_matrix(self):
        d = 1000
        random_symmetric(1, 0)  # numpy.random's first use allocates outside the build
        _, peak = traced_peak(random_symmetric, d, 0)
        # B and its 64-row blocks; a symmetrized copy beside B would reach 2 * 8 d^2
        assert peak <= 1.25 * 8 * d * d

    def test_invalid_dim(self):
        with pytest.raises(ValueError):
            random_symmetric(0, 1)


class TestCountingOperator:
    def test_counts_and_transparency(self):
        inner = random_symmetric(20, 1)
        op = CountingOperator(inner)
        v = np.ones(20)
        for k in range(1, 6):
            out = op.matvec(v)
            assert op.count == k
            assert np.array_equal(out, inner.matvec(v))

    def test_concurrent_increments(self):
        op = CountingOperator(DenseSymmetric(np.eye(30)))
        v = np.ones(30)

        def work():
            for _ in range(200):
                op.matvec(v)

        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert op.count == 8 * 200


class TestMatrixMarket:
    def test_symmetric_coordinate_mirrors_lower_triangle(self, tmp_path):
        path = tmp_path / "m.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real symmetric\n"
            "2 2 3\n"
            "1 1 2\n"
            "2 1 1\n"
            "2 2 3\n")
        op = load_matrix_market(path)
        assert isinstance(op, SparseSymmetric)
        assert np.allclose(op.matvec([1.0, 0.0]), [2.0, 1.0])

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "m.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real symmetric\n"
            "2 2 2\n"
            "1 1 2\n"
            "2 1 zzz\n")
        with pytest.raises(MatrixMarketError, match="line 4"):
            load_matrix_market(path)

    def test_general_symmetric_content_accepted(self, tmp_path):
        rng = np.random.default_rng(2)
        M = rng.standard_normal((3, 3))
        M = (M + M.T) / 2
        lines = ["%%MatrixMarket matrix coordinate real general", "3 3 9"]
        for i in range(3):
            for j in range(3):
                lines.append(f"{i + 1} {j + 1} {float(M[i, j])!r}")
        path = tmp_path / "g.mtx"
        path.write_text("\n".join(lines) + "\n")
        op = load_matrix_market(path)
        v = rng.standard_normal(3)
        assert np.allclose(op.matvec(v), M @ v, rtol=1e-13, atol=1e-13)

    def test_general_asymmetric_rejected(self, tmp_path):
        path = tmp_path / "g.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "2 2 3\n"
            "1 2 5\n"
            "2 1 4\n"
            "1 1 1\n")
        with pytest.raises(MatrixMarketError, match="not symmetric"):
            load_matrix_market(path)

    def test_array_general(self, tmp_path):
        path = tmp_path / "a.mtx"
        # column-major: [[1, 2], [2, 4]]
        path.write_text(
            "%%MatrixMarket matrix array real general\n"
            "2 2\n1\n2\n2\n4\n")
        op = load_matrix_market(path)
        assert isinstance(op, DenseSymmetric)
        assert np.allclose(op.entries, [[1.0, 2.0], [2.0, 4.0]])

    def test_array_symmetric_lower_triangle(self, tmp_path):
        path = tmp_path / "a.mtx"
        path.write_text(
            "%%MatrixMarket matrix array real symmetric\n"
            "2 2\n1\n2\n4\n")
        op = load_matrix_market(path)
        assert np.allclose(op.entries, [[1.0, 2.0], [2.0, 4.0]])

    @pytest.mark.parametrize("value", ["nan", "inf", "-Infinity"])
    def test_coordinate_non_finite_value_reports_line(self, tmp_path, value):
        path = tmp_path / "m.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real symmetric\n"
            "2 2 2\n"
            "1 1 2\n"
            f"2 2 {value}\n")
        with pytest.raises(MatrixMarketError, match="line 4: non-finite value"):
            load_matrix_market(path)

    @pytest.mark.parametrize("symmetry", ["general", "symmetric"])
    def test_array_non_finite_value_reports_line(self, tmp_path, symmetry):
        path = tmp_path / "m.mtx"
        path.write_text(
            f"%%MatrixMarket matrix array real {symmetry}\n"
            "% comment\n"
            "2 2\n"
            "1.0\n"
            "NaN\n"
            "NaN\n"
            "1.0\n")
        with pytest.raises(MatrixMarketError, match="line 5: non-finite value"):
            load_matrix_market(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "b.mtx"
        path.write_text("%%NotMatrixMarket\n1 1 1\n1 1 1\n")
        with pytest.raises(MatrixMarketError, match="line 1"):
            load_matrix_market(path)

    def test_index_out_of_range(self, tmp_path):
        path = tmp_path / "b.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real symmetric\n"
            "2 2 1\n"
            "3 1 1.0\n")
        with pytest.raises(MatrixMarketError, match="line 3"):
            load_matrix_market(path)

    def test_general_duplicates_summed_and_zeros_dropped(self, tmp_path):
        path = tmp_path / "g.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "3 3 7\n"
            "1 2 1.0\n"
            "3 3 4.0\n"
            "2 1 0.5\n"
            "1 2 -0.25\n"
            "2 1 0.25\n"
            "1 3 2.0\n"
            "1 3 -2.0\n")
        op = load_matrix_market(path)
        # (1,2) and (2,1) each sum to 0.75; (1,3) cancels and is not stored
        assert op.indptr.tolist() == [0, 1, 2, 3]
        assert op.indices.tolist() == [1, 0, 2]
        assert op.data.tolist() == [0.75, 0.75, 4.0]

    def test_general_coordinate_memory_is_linear(self, tmp_path):
        # a dense d x d detour would peak at 3 * 72 MB here
        path = tmp_path / "g.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "3000 3000 3\n"
            "1 1 2.0\n"
            "1 3000 1.0\n"
            "3000 1 1.0\n")
        op, peak = traced_peak(load_matrix_market, path)
        assert op.dim == 3000 and op.data.tolist() == [2.0, 1.0, 1.0]
        assert peak < 8e6

    def test_array_symmetric_column_major(self, tmp_path):
        path = tmp_path / "a.mtx"
        # lower triangle by columns: (1,1) (2,1) (3,1) (2,2) (3,2) (3,3)
        path.write_text(
            "%%MatrixMarket matrix array real symmetric\n"
            "3 3\n1\n2\n3\n4\n5\n6\n")
        op = load_matrix_market(path)
        assert op.entries.tolist() == [[1.0, 2.0, 3.0], [2.0, 4.0, 5.0], [3.0, 5.0, 6.0]]

    @pytest.mark.parametrize("header, size", [
        ("coordinate real symmetric", "0 0 0"),
        ("coordinate real general", "-2 -2 0"),
        ("coordinate real general", "2 2 -1"),
        ("array real general", "0 0"),
        ("array real symmetric", "-2 -2"),
    ])
    def test_non_positive_size_rejected(self, tmp_path, header, size):
        path = tmp_path / "s.mtx"
        path.write_text(f"%%MatrixMarket matrix {header}\n% comment\n{size}\n")
        with pytest.raises(MatrixMarketError, match="line 3: .* must be >= "):
            load_matrix_market(path)

    def test_sums_overflowing_to_non_finite_rejected(self, tmp_path):
        path = tmp_path / "o.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "2 2 4\n"
            "1 2 1.7e308\n1 2 1.7e308\n2 1 -1.7e308\n2 1 -1.7e308\n")
        with pytest.raises(MatrixMarketError, match="non-finite"):
            load_matrix_market(path)

    def test_non_square_rejected(self, tmp_path):
        path = tmp_path / "b.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "2 3 1\n"
            "1 1 1.0\n")
        with pytest.raises(MatrixMarketError, match="square"):
            load_matrix_market(path)


_FAULTS = ["none"] * 6 + ["header", "size", "count", "value", "index", "arity", "quirk"]
_BAD_HEADERS = ["%%Matrix", "%%MatrixMarket matrix coordinate real",
                "%%MatrixMarket vector coordinate real general",
                "%%MatrixMarket matrix tensor real general",
                "%%MatrixMarket matrix coordinate complex general",
                "%%MatrixMarket matrix array real skew-symmetric"]
# 7.5 breaks the symmetry of 'general' content; 1.7e308 sums overflow
_BAD_VALUES = ["nan", "inf", "-Infinity", "1e400", "x", "1.0.0", "0x10", "7.5",
               "1.7e308", "-1.7e308"]
# rewritings of a line's tokens that np.loadtxt and str.split/int/float may read differently
_QUIRKS = [
    "\t".join,
    lambda t: " ".join(t) + " % note",
    lambda t: " ".join(t) + " #",
    lambda t: " ".join("+" + x for x in t),
    lambda t: " ".join(["0_" + t[0], *t[1:]]),
    lambda t: " ".join([*t[:-1], "1_000"]),
    lambda t: " ".join([t[0] + ".0", *t[1:]]),
    lambda t: " ".join(["9" * 20, *t[1:]]),
    lambda t: " ".join(t[:-1]) + "\x0c" + t[-1],
    lambda t: " ".join(t) + "\x0b",
    lambda t: "\xa0".join(t),
    lambda t: " ".join(t) + "\u2028",
]
# str.splitlines breaks lines at these as well as at \n and \r
_SPLITLINES_BREAKS = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


@st.composite
def matrix_market_files(draw):
    """Text of a Matrix Market file: valid, or broken by one fault."""
    fault = draw(st.sampled_from(_FAULTS))
    fmt = draw(st.sampled_from(["coordinate", "array"]))
    symmetry = draw(st.sampled_from(["general", "symmetric"]))
    d = draw(st.integers(1, 50 if fmt == "coordinate" else 7))
    value = st.floats(-1e3, 1e3).map(repr)
    if fmt == "array":
        lower = {(i, j): draw(value) for j in range(d) for i in range(j, d)}
        lines = (list(lower.values()) if symmetry == "symmetric" else
                 [lower[max(i, j), min(i, j)] for j in range(d) for i in range(d)])
    else:
        lines = []
        for _ in range(draw(st.integers(0, 30))):
            i, j, v = draw(st.integers(1, d)), draw(st.integers(1, d)), draw(value)
            lines.append(f"{i} {j} {v}")
            if symmetry == "general" and draw(st.booleans()):
                lines.append(f"{j} {i} {v}")  # mirrored, so the file may be symmetric
    header = f"%%MatrixMarket matrix {fmt} real {symmetry}"
    size = f"{d} {d} {len(lines)}" if fmt == "coordinate" else f"{d} {d}"
    if fault == "header":
        header = draw(st.sampled_from(_BAD_HEADERS))
    elif fault == "size":
        size = draw(st.sampled_from(["0 0", "-2 -2", f"{d} {d + 1}", f"{d}", "x y"]))
        if fmt == "coordinate":
            size += draw(st.sampled_from([f" {len(lines)}", " -1"]))
    elif fault == "count":
        lines = lines[:-1] if lines else ["1 1 1.0"]
    elif fault != "none" and lines:
        k = draw(st.integers(0, len(lines) - 1))
        tokens = lines[k].split()
        if fault == "value":
            tokens[-1] = draw(st.sampled_from(_BAD_VALUES))
        elif fault == "index" and fmt == "coordinate":
            tokens[draw(st.integers(0, 1))] = draw(st.sampled_from(["0", "-1", str(d + 1)]))
        elif fault == "quirk":
            tokens = [draw(st.sampled_from(_QUIRKS))(tokens)]
        else:  # one token too few or too many
            tokens = tokens[:-1] if len(tokens) > 1 else tokens * 2
        lines[k] = " ".join(tokens)
    # or any text, with a str.splitlines break before a comment or another line
    comment = draw(st.just("% comment") | st.builds(
        "% {}{}{}{}".format, st.text(), st.sampled_from(_SPLITLINES_BREAKS),
        st.sampled_from(["%", ""]), st.text()))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join([header, comment, size, *lines]) + newline


def _arrays(op):
    """The stored arrays of an operator, as bytes."""
    if isinstance(op, SparseSymmetric):
        return op.dim, op.indptr.tobytes(), op.indices.tobytes(), op.data.tobytes()
    return op.entries.tobytes()


def _outcome(load, path):
    """What ``load`` makes of ``path``: the operator's arrays or the error message."""
    try:
        return _arrays(load(path))
    except MatrixMarketError as exc:
        return str(exc)


def _by_line(path):
    """What ``load_matrix_market`` makes of ``path`` when the bulk parse returns None,
    so that every coordinate file reaches the line reader."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(operators, "_parse_coordinate_bulk", lambda *a: None)
        return _outcome(load_matrix_market, path)


def _spy_on_line_reader(monkeypatch):
    """The list of calls that ``load_matrix_market`` makes to the line reader."""
    parse, fallbacks = operators._parse_coordinate, []
    monkeypatch.setattr(operators, "_parse_coordinate",
                        lambda *a: fallbacks.append(a) or parse(*a))
    return fallbacks


@settings(derandomize=True, deadline=None, max_examples=200)
@given(text=matrix_market_files())
def test_reader_returns_operator_or_matrix_market_error(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("fuzz") / "f.mtx"
    path.write_text(text, encoding="utf-8", newline="")
    try:
        op = load_matrix_market(path)
    except MatrixMarketError as exc:
        outcome = str(exc)
    else:
        assert op.dim >= 1
        outcome = _arrays(op)
    # the bulk parse of coordinate data agrees with the line-by-line reader
    assert outcome == _by_line(path)


_SYMMETRIC_3X3 = "%%MatrixMarket matrix coordinate real symmetric\n3 3 3\n1 1 2.0\n{}\n3 3 2.0\n"


@pytest.mark.parametrize("line, newline, parsed_in_bulk, result", [
    ("2 1 0.5", "\n", True, 0.5),
    ("+2 +1 +0.5", "\n", True, 0.5),
    ("2\t1\t0.5", "\n", True, 0.5),
    ("2 1 0.5", "\r\n", True, 0.5),
    ("2 1 1_000", "\n", False, 1000.0),
    ("0_2 1 0.5", "\n", False, 0.5),
    ("2 1 0.5 % note", "\n", False, "line 4: expected 'i j value', got 5 tokens"),
    ("2 1 0.5 #", "\n", False, "line 4: expected 'i j value', got 4 tokens"),
    ("2.0 1 0.5", "\n", False, "line 4: non-numeric token '2.0'"),
    ("99999999999999999999 1 0.5", "\n", False,
     "line 4: index (99999999999999999999,1) out of range for dimension 3"),
    ("2 1\x0c0.5", "\n", False, "expected 3 coordinate entries, found 4"),
    ("\U0010ffff2 1 0.5", "\n", False, "line 4: non-numeric token '\\U0010ffff2'"),
])
def test_bulk_parse_agrees_with_line_by_line(tmp_path, monkeypatch, line, newline,
                                              parsed_in_bulk, result):
    path = tmp_path / "q.mtx"
    path.write_text(_SYMMETRIC_3X3.format(line).replace("\n", newline), encoding="utf-8",
                    newline="")
    reference = _by_line(path)
    fallbacks = _spy_on_line_reader(monkeypatch)
    outcome = _outcome(load_matrix_market, path)
    assert outcome == reference
    assert (not fallbacks) == parsed_in_bulk
    if isinstance(result, str):
        assert outcome == result
    else:
        assert np.frombuffer(outcome[3]).tolist() == [2.0, result, result, 2.0]


@pytest.mark.parametrize("line", ["\U0010ffff2 1 0.5", "2\xa01 0.5", "\u0663 1 0.5"],
                         ids=["u10ffff-before-index", "u00a0-separator", "u0663-digit"])
def test_non_ascii_data_never_reaches_loadtxt(tmp_path, monkeypatch, line):
    # np.loadtxt can crash the interpreter on a token that begins with a high
    # code point, so the spy records the call and never makes it
    path = tmp_path / "n.mtx"
    path.write_text(_SYMMETRIC_3X3.format(line), encoding="utf-8")
    bulk = []
    monkeypatch.setattr(operators, "_parse_coordinate_bulk", lambda *a: bulk.append(a))
    outcome = _outcome(load_matrix_market, path)
    assert bulk == []
    assert outcome == _by_line(path)


@pytest.mark.parametrize("comment, parsed_in_bulk, result", [
    ("% author: Ren\u00e9e M\u00fcller", True, 0.5),
    ("% Ren\u00e9e\u2028% M\u00fcller", True, 0.5),  # str.splitlines breaks at U+2028
    ("% Ren\u00e9e\u2028M\u00fcller", True,
     "line 3: non-integer token in size line: 'M\u00fcller'"),
], ids=["non-ascii-comment", "u2028-between-comments", "u2028-before-text"])
@pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
def test_header_comment_outside_ascii(tmp_path, monkeypatch, comment, parsed_in_bulk, result,
                                      newline):
    header, rest = _SYMMETRIC_3X3.format("2 1 0.5").split("\n", 1)
    path = tmp_path / "h.mtx"
    path.write_text(f"{header}\n{comment}\n{rest}".replace("\n", newline), encoding="utf-8",
                    newline="")
    reference = _by_line(path)
    fallbacks = _spy_on_line_reader(monkeypatch)
    outcome = _outcome(load_matrix_market, path)
    assert outcome == reference
    assert (not fallbacks) == parsed_in_bulk
    if isinstance(result, str):
        assert outcome == result
    else:
        assert np.frombuffer(outcome[3]).tolist() == [2.0, result, result, 2.0]


@pytest.mark.parametrize("text, stored", [
    (_SYMMETRIC_3X3.format("2 1 0.5"), [2.0, 0.5, 0.5, 2.0]),
    # loadtxt fails on 1_000, so the line reader parses the lines already read
    (_SYMMETRIC_3X3.format("2 1 1_000"), [2.0, 1000.0, 1000.0, 2.0]),
    ("%%MatrixMarket matrix array real symmetric\n2 2\n2.0\n0.5\n3.0\n", [2.0, 0.5, 0.5, 3.0]),
], ids=["coordinate", "line-reader", "array"])
def test_coordinate_file_is_opened_once(tmp_path, monkeypatch, text, stored):
    path = tmp_path / "r.mtx"
    path.write_text(text)
    opened = []
    monkeypatch.setattr(operators, "open", lambda *a, **k: opened.append(a[0]) or open(*a, **k),
                        raising=False)
    op = load_matrix_market(path)
    assert opened == [str(path)]
    values = op.data if isinstance(op, SparseSymmetric) else op.entries.reshape(-1)
    assert values.tolist() == stored


def test_coordinate_memory_per_stored_entry(tmp_path):
    import scipy.sparse  # noqa: F401  (SparseSymmetric imports it; not part of the load)
    d = 6000
    rng = np.random.default_rng(0)
    i = np.tile(np.arange(d), 10)
    j = np.concatenate([rng.permutation(d) for _ in range(10)])
    keys = np.unique(np.maximum(i, j) * d + np.minimum(i, j))
    path = tmp_path / "big.mtx"
    with open(path, "w") as fh:
        fh.write(f"%%MatrixMarket matrix coordinate real symmetric\n{d} {d} {keys.size}\n")
        np.savetxt(fh, np.column_stack([keys // d + 1, keys % d + 1, rng.standard_normal(keys.size)]),
                   fmt="%d %d %.17g")
    op, peak = traced_peak(load_matrix_market, path)
    assert keys.size >= 5e4
    assert op.indptr[-1] == 2 * keys.size - np.count_nonzero(keys // d == keys % d)
    assert peak < 300 * keys.size


@pytest.mark.parametrize("symmetry, bound", [("symmetric", 3.9), ("general", 7.6)],
                         ids=["symmetric", "general"])
def test_bulk_parse_memory(tmp_path, symmetry, bound):
    # the bulk parse shifts its triplets to 0-based in place while every line is held:
    # 3.69 x the CSR (symmetric) and 7.08 x (general), against 4.09 and 8.19 with a copy
    d = 6000
    rng = np.random.default_rng(0)
    i = np.tile(np.arange(d), 10)
    j = np.concatenate([rng.permutation(d) for _ in range(10)])
    keys = np.unique(np.maximum(i, j) * d + np.minimum(i, j))
    rows, cols, values = keys // d + 1, keys % d + 1, rng.standard_normal(keys.size)
    if symmetry == "general":
        off = rows != cols
        rows, cols, values = (np.concatenate([rows, cols[off]]), np.concatenate([cols, rows[off]]),
                              np.concatenate([values, values[off]]))
    path = tmp_path / "big.mtx"
    with open(path, "w") as fh:
        fh.write(f"%%MatrixMarket matrix coordinate real {symmetry}\n{d} {d} {rows.size}\n")
        np.savetxt(fh, np.column_stack([rows, cols, values]), fmt="%d %d %.17g")
    with pytest.MonkeyPatch.context() as patch:  # the spy holds the lines, so not measured
        fallbacks = _spy_on_line_reader(patch)
        load_matrix_market(path)  # and a first use of what numpy loads lazily
        assert not fallbacks
    op, peak = traced_peak(load_matrix_market, path)
    csr = stored_nbytes(op)
    assert op.indptr[-1] >= 1e5
    assert peak <= bound * csr, f"{peak / csr:.2f} x the CSR"


def test_line_reader_matches_the_bulk_parse_on_a_large_file(tmp_path, monkeypatch):
    # one % line inside the data section sends the whole file to the line reader
    d = 3000
    rng = np.random.default_rng(1)
    i = np.tile(np.arange(d), 5)
    j = np.concatenate([rng.permutation(d) for _ in range(5)])
    keys = np.unique(np.maximum(i, j) * d + np.minimum(i, j))
    data = [f"{r} {c} {v!r}" for r, c, v in zip((keys // d + 1).tolist(), (keys % d + 1).tolist(),
                                                 rng.standard_normal(keys.size).tolist())]
    header = f"%%MatrixMarket matrix coordinate real symmetric\n{d} {d} {keys.size}\n"
    plain, commented = tmp_path / "plain.mtx", tmp_path / "commented.mtx"
    plain.write_text(header + "\n".join(data) + "\n")
    commented.write_text(header + "\n".join([*data[:100], "% a comment", *data[100:]]) + "\n")
    fallbacks = _spy_on_line_reader(monkeypatch)
    expected = _arrays(load_matrix_market(plain))
    assert not fallbacks
    assert _arrays(load_matrix_market(commented)) == expected
    assert len(fallbacks) == 1 and keys.size >= 1e4


def test_line_reader_memory(tmp_path):
    # the pentadiagonal band's lower triangle, 1.25e5 CSR entries, with a % line
    # after the size line, which sends the whole file to the line reader
    d = 25000
    i = np.repeat(np.arange(1, d + 1), 3)
    j = i - np.tile([0, 1, 2], d)
    keep = j >= 1
    data = [f"{r} {c} {v!r}" for r, c, v in zip(i[keep].tolist(), j[keep].tolist(),
                                                 np.where(i == j, 4.0, -1.0)[keep].tolist())]
    header = f"%%MatrixMarket matrix coordinate real symmetric\n{d} {d} {len(data)}\n"
    plain, commented = tmp_path / "plain.mtx", tmp_path / "commented.mtx"
    plain.write_text(header + "\n".join(data) + "\n")
    commented.write_text(header + "% read line by line\n" + "\n".join(data) + "\n")
    with pytest.MonkeyPatch.context() as patch:  # the spy holds the lines, so not measured
        fallbacks = _spy_on_line_reader(patch)
        assert _arrays(load_matrix_market(commented)) == _arrays(load_matrix_market(plain))
        assert len(fallbacks) == 1
    op, peak = traced_peak(load_matrix_market, commented)
    csr = stored_nbytes(op)
    assert op.indptr[-1] >= 1e5
    assert peak <= 5 * csr, f"{peak / csr:.2f} x the CSR"


@pytest.mark.parametrize("comment", ["", "% a comment\n"], ids=["bulk-first", "commented"])
def test_the_line_reader_checks_the_count_before_any_line(tmp_path, monkeypatch, comment):
    # a bad token on line 5 and a wrong count: the count error, as in the bulk parse
    path = tmp_path / "c.mtx"
    path.write_text(f"%%MatrixMarket matrix coordinate real symmetric\n3 3 4\n{comment}"
                    "1 1 2.0\n2 1 oops\n3 3 2.0\n")
    fallbacks = _spy_on_line_reader(monkeypatch)
    assert _outcome(load_matrix_market, path) == "expected 4 coordinate entries, found 3"
    assert len(fallbacks) == 1


@pytest.mark.parametrize("comment", ["", "% a comment\n"], ids=["bulk-first", "commented"])
def test_a_claimed_entry_count_allocates_nothing(tmp_path, monkeypatch, comment):
    path = tmp_path / "c.mtx"
    path.write_text(f"%%MatrixMarket matrix coordinate real symmetric\n3 3 1000000000000000\n"
                    f"{comment}1 1 2.0\n2 1 0.5\n3 3 2.0\n")
    fallbacks = _spy_on_line_reader(monkeypatch)
    outcome, peak = traced_peak(_outcome, load_matrix_market, path)
    assert outcome == "expected 1000000000000000 coordinate entries, found 3"
    assert len(fallbacks) == 1 and peak < 2**20


_OVERSIZED = [3037000500, 2**63 - 1, 2**64]
_OVERSIZED_IDS = ["isqrt-int64-max-plus-1", "int64-max", "2**64"]


@pytest.mark.parametrize("d", _OVERSIZED, ids=_OVERSIZED_IDS)
@pytest.mark.parametrize("symmetry", ["symmetric", "general"])
def test_a_coordinate_dimension_past_int64_positions_is_rejected(tmp_path, d, symmetry):
    # row * d + column of the last position overflows int64 past d = isqrt(2**63 - 1)
    path = tmp_path / "big.mtx"
    path.write_text(f"%%MatrixMarket matrix coordinate real {symmetry}\n% c\n{d} {d} 1\n"
                    "1 1 1.0\n")
    assert _outcome(load_matrix_market, path) == (
        f"line 3: matrix dimension {d} is above 3037000499, "
        "past which row * d + column overflows int64")


@pytest.mark.parametrize("d", _OVERSIZED, ids=_OVERSIZED_IDS)
def test_an_array_dimension_past_int64_positions_keeps_its_count_error(tmp_path, d):
    path = tmp_path / "big.mtx"
    path.write_text(f"%%MatrixMarket matrix array real symmetric\n{d} {d}\n1.0\n")
    assert _outcome(load_matrix_market, path) == (
        f"expected {d * (d + 1) // 2} array values for symmetric storage, found 1")


def test_the_largest_coordinate_dimension_passes_the_header():
    # its last position (d - 1) * d + d - 1 = d * d - 1 is the largest that fits in int64
    d = 3037000499
    lines = ["%%MatrixMarket matrix coordinate real symmetric", f"{d} {d} 1", "1 1 1.0"]
    assert operators._read_header(lines) == ("coordinate", "symmetric", d, 1, 2)
    assert d * d - 1 <= np.iinfo(np.int64).max < (d + 1) ** 2 - 1


_TRIPLET_VALUES = [0.0, -0.0, 1.0, -1.0, 0.5, 1e16, -1e16, 1.7e308, -1.7e308]


@st.composite
def coordinate_triplets(draw):
    """0-based triplets of a coordinate file of dimension 1..6 in file order, with
    repeated positions, entries above the diagonal, stored zeros, cancellations and
    sums that overflow. A 'general' file mirrors all, some or none of its entries,
    each mirror's value equal or one ulp above, so its content may be asymmetric."""
    symmetry = draw(st.sampled_from(["symmetric", "general"]))
    mirror = draw(st.sampled_from(["all", "some", "none"]))
    d = draw(st.integers(1, 6))
    # +-1.7e308 in half the files only: nearly every general file that holds them overflows
    values = _TRIPLET_VALUES if draw(st.booleans()) else _TRIPLET_VALUES[:-2]
    value = st.sampled_from(values) | st.floats(-1e3, 1e3)
    entries = []
    for _ in range(draw(st.integers(0, 25))):
        i, j, v = draw(st.integers(0, d - 1)), draw(st.integers(0, d - 1)), draw(value)
        entries.append((i, j, v))
        if symmetry == "general" and (mirror == "all" or mirror == "some" and draw(st.booleans())):
            entries.append((j, i, draw(st.sampled_from([v, float(np.nextafter(v, np.inf))]))))
    entries = draw(st.permutations(entries))
    rows, cols = (np.array([e[k] for e in entries], dtype=np.int64) for k in (0, 1))
    return d, rows, cols, np.array([e[2] for e in entries], dtype=np.float64), symmetry


def dense_assembly(d, rows, cols, vals, symmetry):
    """The CSR arrays of the triplets, or the error message, built on a dense
    d x d array: ``np.add.at`` sums in file order, at the folded lower-triangle
    positions (symmetric, which keep stored zeros) or at the positions of A
    (general, checked to 1e-12 relative and symmetrized as (A + A^T) / 2, exact
    zeros dropped)."""
    summed = np.zeros((d, d))
    upper = np.triu_indices(d, 1)
    with np.errstate(over="ignore", invalid="ignore"):
        if symmetry == "symmetric":
            folded = np.maximum(rows, cols), np.minimum(rows, cols)
            np.add.at(summed, folded, vals)
            stored = np.zeros((d, d), dtype=bool)
            stored[folded] = True
            summed[upper], stored[upper] = summed.T[upper], stored.T[upper]
        else:
            np.add.at(summed, (rows, cols), vals)
        if not np.all(np.isfinite(summed)):
            return "entries sum to a non-finite value"
        if symmetry == "general":
            scale = np.max(np.abs(summed))
            if scale and np.max(np.abs(0.5 * summed - 0.5 * summed.T)) > 0.5e-12 * scale:
                return "matrix declared 'general' is not symmetric to within 1e-12 relative"
            summed = (summed + summed.T) / 2.0
            if not np.all(np.isfinite(summed)):
                return "entries sum to a non-finite value"
            stored = summed != 0
    r, c = np.nonzero(stored)
    return np.searchsorted(r, np.arange(d + 1)).tolist(), c.tolist(), summed[r, c].tobytes()


# 1e16 + 1.0 rounds to 1e16, so in file order the stored pair sums to 0.0; summing
# 1e16 - 1e16 first would give 1.0
_ORDER_DECIDES = (2, np.array([1, 0, 1]), np.array([0, 1, 0]), np.array([1e16, 1.0, -1e16]),
                  "symmetric")


@settings(derandomize=True, deadline=None, max_examples=400)
@example(triplets=_ORDER_DECIDES)
# all of A lies above the diagonal, so the check's scale must come from A^T's side
@example(triplets=(2, np.array([0]), np.array([1]), np.array([1.0]), "general"))
@given(triplets=coordinate_triplets())
def test_coordinate_assembly_matches_a_dense_file_order_reference(triplets):
    try:
        op = operators._assemble_coordinate(*triplets)
    except MatrixMarketError as exc:
        outcome = str(exc)
    else:
        outcome = op.indptr.tolist(), op.indices.tolist(), op.data.tobytes()
    assert outcome == dense_assembly(*triplets)


def test_symmetric_duplicates_sum_in_file_order(tmp_path):
    path = tmp_path / "order.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real symmetric\n"
                    "2 2 3\n2 1 1e16\n1 2 1.0\n2 1 -1e16\n")
    op = load_matrix_market(path)
    assert op.indptr.tolist() == [0, 1, 2] and op.indices.tolist() == [1, 0]
    assert op.data.tobytes() == np.zeros(2).tobytes()


@pytest.mark.parametrize("symmetry, bound", [("symmetric", 5.0), ("general", 6.0)])
def test_coordinate_assembly_memory(symmetry, bound):
    # about 1.2e5 distinct lower-triangle positions; a general file stores both triangles
    d = 12000
    rng = np.random.default_rng(0)
    i = np.tile(np.arange(d), 10)
    j = np.concatenate([rng.permutation(d) for _ in range(10)])
    keys = np.unique(np.maximum(i, j) * d + np.minimum(i, j))
    rows, cols, vals = keys // d, keys % d, rng.standard_normal(keys.size)
    if symmetry == "general":
        off = rows != cols
        rows, cols = np.concatenate([rows, cols[off]]), np.concatenate([cols, rows[off]])
        vals = np.concatenate([vals, vals[off]])
    # the first call imports scipy and what numpy loads on first use
    operators._assemble_coordinate(2, np.array([1, 0]), np.array([0, 1]), np.ones(2), symmetry)
    op, peak = traced_peak(operators._assemble_coordinate, d, rows, cols, vals, symmetry)
    assert rows.size >= 1e5
    assert op.indptr[-1] == 2 * keys.size - np.count_nonzero(keys // d == keys % d)
    assert peak <= bound * stored_nbytes(op)
