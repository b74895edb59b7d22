import threading

import numpy as np
import pytest

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


def test_sparse_rejects_unordered_row():
    # rows 0 and 1 are in order; row 2 repeats column 1
    with pytest.raises(ValueError, match="not strictly increasing in row 2"):
        SparseSymmetric(3, [0, 2, 4, 6], [0, 2, 1, 2, 1, 1], np.ones(6))


def test_sparse_rejects_bad_indptr():
    with pytest.raises(ValueError, match="indptr"):
        SparseSymmetric(2, [0, 2, 1], [0, 1], [1.0, 1.0])


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

    def test_non_square_rejected(self, tmp_path):
        path = tmp_path / "b.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "2 3 1\n"
            "1 1 1.0\n")
        with pytest.raises(MatrixMarketError, match="square"):
            load_matrix_market(path)
