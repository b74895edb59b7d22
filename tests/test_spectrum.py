import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from memory import stored_arrays, stored_nbytes, traced_peak

from twosided.chebyshev import Interval, interpolate
from twosided.hutchinson import estimate_trace, exact_trace_f
from twosided.operators import (CountingOperator, DenseSymmetric, SparseSymmetric,
                                SymmetricOperator, random_symmetric)
from twosided.spectrum import SpectralInterval, enclosing, estimate_interval


class TestEstimateInterval:
    def test_known_diagonal(self):
        op = DenseSymmetric(np.diag([1.0, 2.0, 3.0]))
        iv = estimate_interval(op, iters=2000, tol=1e-12, seed=0, safety=0.0)
        assert iv.lo == pytest.approx(1.0, abs=1e-6)
        assert iv.hi == pytest.approx(3.0, abs=1e-6)
        assert iv.converged

    def test_multiple_of_identity_rejected(self):
        op = DenseSymmetric(-np.eye(5))
        with pytest.raises(ValueError, match="identity"):
            estimate_interval(op, iters=100, tol=1e-10, seed=0)

    def test_contains_spectrum_with_margin(self):
        op = random_symmetric(300, 6)
        eigs = np.linalg.eigvalsh(op.entries)
        iv = estimate_interval(op, iters=500, tol=1e-8, seed=1)
        assert iv.lo <= eigs[0] and eigs[-1] <= iv.hi
        assert iv.hi <= eigs[-1] * 1.011

    def test_unconverged_flagged_not_fatal(self):
        op = random_symmetric(80, 2)
        iv = estimate_interval(op, iters=2, tol=1e-15, seed=0)
        assert not iv.converged
        assert iv.lo < iv.hi

    @pytest.mark.parametrize("rank", [1, 2])
    def test_start_vector_in_an_invariant_subspace(self, rank):
        # the seed's start vector spans (rank 1) or lies in (rank 2) an
        # eigenspace block: the first breakdown must not end the run
        d, seed = 50, 3
        v = np.random.default_rng(seed).standard_normal(d)
        x = np.random.default_rng(seed + 1).standard_normal(d)
        v /= np.linalg.norm(v)
        x -= (x @ v) * v
        x /= np.linalg.norm(x)
        block = [v] if rank == 1 else [(v + x) / np.sqrt(2), (v - x) / np.sqrt(2)]
        A = 10.0 * np.eye(d)
        for j, e in enumerate(block):
            A -= (9.0 - j) * np.outer(e, e)
        A = (A + A.T) / 2
        eigs = np.linalg.eigvalsh(A)
        iv = estimate_interval(DenseSymmetric(A), iters=1000, tol=1e-8, seed=seed)
        assert iv.lo <= eigs[0] and eigs[-1] <= iv.hi

    def test_parameter_validation(self):
        op = random_symmetric(5, 0)
        with pytest.raises(ValueError):
            estimate_interval(op, iters=0)
        with pytest.raises(ValueError):
            estimate_interval(op, tol=0.0)

    def test_dimension_0_is_value_error(self):
        with pytest.raises(ValueError, match="^iters and the dimension must be >= 1, got 1000 and 0$"):
            estimate_interval(DenseSymmetric(np.zeros((0, 0))))

    @pytest.mark.parametrize("op", [
        DenseSymmetric(np.full((3, 3), 1e308)),
        SparseSymmetric.from_coo(3, *np.nonzero(np.ones((3, 3))), np.full(9, 1e308)),
    ], ids=["dense", "sparse"])
    def test_overflowing_matvec_is_value_error(self, op):
        # A v passes the largest double: a ValueError, and no numpy warning escapes
        with pytest.raises(ValueError, match=r"^Lanczos step \d+'s matvec overflows double "
                                             r"precision$"):
            estimate_interval(op)

    def test_spectrum_wider_than_the_largest_double_is_value_error(self):
        # each end is a double, their distance is not
        with pytest.raises(ValueError, match=r"^the spectrum \[-5e\+307, 1\.5e\+308\] is "
                                             r"wider than the largest double$"):
            enclosing(-5e307, 1.5e308)

    def test_deterministic_given_seed(self):
        op = random_symmetric(60, 4)
        a = estimate_interval(op, iters=300, tol=1e-10, seed=9)
        b = estimate_interval(op, iters=300, tol=1e-10, seed=9)
        assert (a.lo, a.hi) == (b.lo, b.hi)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(d=st.integers(1, 60), kind=st.sampled_from(["random", "shifted", "diagonal", "rank_one"]),
       seed=st.integers(0, 2**32 - 1), shift=st.floats(-1e4, 1e4))
def test_interval_contains_spectrum(d, kind, seed, shift):
    rng = np.random.default_rng([seed, 1])   # not the start vector's stream
    A = random_symmetric(d, seed).entries
    if kind == "shifted":
        A = A + shift * np.linalg.norm(A, 2) * np.eye(d)
    elif kind == "diagonal":   # repeated eigenvalues: the run breaks down early
        A = np.diag(rng.integers(-3, 4, d).astype(float))
    elif kind == "rank_one":
        u = rng.standard_normal(d)
        A = np.eye(d) + np.outer(u, u)
    eigs = np.linalg.eigvalsh(A)
    op = DenseSymmetric(A)
    if d == 1 or (kind == "diagonal" and eigs[0] == eigs[-1]):
        with pytest.raises(ValueError, match="multiple of the identity"):
            estimate_interval(op, iters=1000, tol=1e-8, seed=seed)
        return
    iv = estimate_interval(op, iters=1000, tol=1e-8, seed=seed)
    assert iv.lo <= eigs[0] and eigs[-1] <= iv.hi
    assert iv.converged and iv.matvecs <= d


def permutation_pattern(dim, degree, seed):
    """Diagonal 10 plus ``degree`` random permutation patterns of weight
    +-0.75..0.825: clustered extreme eigenvalues, slow for power iteration."""
    rng = np.random.default_rng(seed)
    i = np.tile(np.arange(dim), degree)
    j = np.concatenate([rng.permutation(dim) for _ in range(degree)])
    off = i != j
    keys = np.unique(np.maximum(i, j)[off] * dim + np.minimum(i, j)[off])
    vals = 0.75 * rng.choice([-1.0, 1.0], size=keys.size) * (1.0 + 0.1 * rng.random(keys.size))
    rows, cols = keys // dim, keys % dim
    diag = np.arange(dim)
    return SparseSymmetric.from_coo(dim, np.concatenate([diag, rows, cols]),
                                    np.concatenate([diag, cols, rows]),
                                    np.concatenate([np.full(dim, 10.0), vals, vals]))


@pytest.mark.parametrize("seed", range(3))
def test_permutation_pattern_converges_in_few_matvecs(seed):
    op = permutation_pattern(1000, 10, seed)
    counter = CountingOperator(op)
    iv = estimate_interval(counter, iters=1000, tol=1e-8, seed=seed)
    eigs = np.linalg.eigvalsh(op.to_dense().entries)
    assert iv.converged and iv.matvecs == counter.count <= 200
    assert iv.lo <= eigs[0] and eigs[-1] <= iv.hi


@pytest.mark.parametrize("kind, seed", [*(("sparse", s) for s in range(10)),
                                        *(("gaussian", s) for s in range(5))])
def test_default_tolerance_keeps_most_of_the_margin(kind, seed):
    # the default tol is 1/100 of the 1% safety margin: the Ritz values may
    # stop short of the extremes, but by little of the 0.5% each side adds
    op = permutation_pattern(1000, 10, seed) if kind == "sparse" else random_symmetric(200, seed)
    counter = CountingOperator(op)
    iv = estimate_interval(counter, seed=seed)
    eigs = np.linalg.eigvalsh(op.to_dense().entries)
    span = eigs[-1] - eigs[0]
    assert iv.converged and iv.matvecs == counter.count
    assert eigs[0] - iv.lo >= 0.004 * span and iv.hi - eigs[-1] >= 0.004 * span
    if kind == "sparse":
        assert iv.matvecs <= 96


class _Diagonal(SymmetricOperator):
    def __init__(self, diag):
        self.diag, self.dim = diag, diag.size

    def matvec(self, v):
        return self.diag * v


def test_memory_stays_linear_in_dim():
    # no stored Lanczos basis: ten times the steps adds less than one vector
    d = 200_000
    op = _Diagonal(np.linspace(1.0, 2.0, d))

    def peak_bytes(steps):
        iv, peak = traced_peak(lambda: estimate_interval(op, iters=steps, tol=1e-15, seed=0))
        assert iv.matvecs == steps and not iv.converged
        return peak

    short, long = peak_bytes(20), peak_bytes(200)
    assert long - short < 8 * d
    assert long < 10 * 8 * d


class TestScaleOperator:
    def test_endpoints_map_to_unit(self):
        op = DenseSymmetric(np.diag([1.0, 3.0]))
        S = op.into_scaled(1.0, 3.0)
        assert np.allclose(S.matvec([1.0, 1.0]), [-1.0, 1.0])

    def test_identity_scaling(self):
        op = random_symmetric(40, 3)
        S = random_symmetric(40, 3).into_scaled(-1.0, 1.0)
        rng = np.random.default_rng(0)
        for _ in range(5):
            v = rng.standard_normal(40)
            a, b = op.matvec(v), S.matvec(v)
            assert np.max(np.abs(a - b)) <= 1e-15 * max(1.0, np.max(np.abs(a)))

    def test_exact_scaling_gives_unit_extremes(self):
        op = random_symmetric(100, 8)
        eigs = np.linalg.eigvalsh(op.entries)
        S = op.into_scaled(float(eigs[0]), float(eigs[-1]))
        M = np.column_stack([S.matvec(e) for e in np.eye(100)])
        scaled_eigs = np.linalg.eigvalsh((M + M.T) / 2)
        assert scaled_eigs[0] == pytest.approx(-1.0, abs=1e-10)
        assert scaled_eigs[-1] == pytest.approx(1.0, abs=1e-10)

    def test_eigenvalues_map_affinely(self):
        op = random_symmetric(50, 9)
        eigs = np.linalg.eigvalsh(op.entries)
        iv = SpectralInterval(float(eigs[0]) - 0.5, float(eigs[-1]) + 0.25, 0.0)
        S = op.into_scaled(iv.lo, iv.hi)
        M = np.column_stack([S.matvec(e) for e in np.eye(50)])
        scaled = np.linalg.eigvalsh((M + M.T) / 2)
        want = (2 * eigs - iv.lo - iv.hi) / (iv.hi - iv.lo)
        assert np.max(np.abs(scaled - want)) <= 1e-12

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            SpectralInterval(1.0, 1.0)


def test_spectral_interval_is_an_interval():
    iv = SpectralInterval.parse("-2,3")
    assert isinstance(iv, Interval)
    assert (iv.lo, iv.hi, iv.safety, iv.converged, iv.matvecs) == (-2.0, 3.0, 0.0, True, 0)
    assert (iv.from_canonical(-1.0), iv.to_canonical(3.0)) == (-2.0, 1.0)


@pytest.mark.parametrize("lo, hi", [(1.0, math.inf), (-math.inf, 1.0), (math.nan, 1.0)])
def test_spectral_interval_requires_finite_ends(lo, hi):
    with pytest.raises(ValueError, match="interval requires finite lo < hi"):
        SpectralInterval(lo, hi)


@st.composite
def stored_operators(draw):
    """A function that builds, at each call, the same dense or sparse operator of
    dimension 1..40: a full random matrix, a sparse pattern whose rows may store no
    diagonal entry, the empty pattern, or a diagonal-only matrix."""
    d = draw(st.integers(1, 40))
    kind = draw(st.sampled_from(["dense", "sparse", "empty", "diagonal"]))
    seed = draw(st.integers(0, 2**32 - 1))
    scale = 10.0 ** draw(st.integers(-100, 100))
    density = draw(st.floats(0.0, 1.0)) if kind == "sparse" else None
    holes = kind == "sparse" and draw(st.booleans())   # some rows store no diagonal entry

    def build():
        rng = np.random.default_rng(seed)
        M = scale * random_symmetric(d, int(rng.integers(2**32))).entries
        if kind == "dense":
            return DenseSymmetric(M)
        if kind == "sparse":
            keep = rng.random((d, d)) < density
            M = np.where(keep | keep.T, M, 0.0)
            if holes:
                M[np.diag_indices(d)] *= rng.random(d) < 0.5
        elif kind == "empty":
            M = np.zeros((d, d))
        else:
            M = np.diag(np.diag(M))
        rows, cols = np.nonzero(M)
        return SparseSymmetric.from_coo(d, rows, cols, M[rows, cols])

    return build


@settings(derandomize=True, deadline=None, max_examples=300)
@given(build=stored_operators(), lo=st.floats(-1e3, 1e3), width=st.floats(1e-3, 1e3),
       seed=st.integers(0, 2**32 - 1))
def test_stored_scaling_is_the_affine_map(build, lo, width, seed):
    op = build()
    v = np.random.default_rng(seed).standard_normal(op.dim)
    scale = float(np.max(np.abs(op.to_dense().entries))) or 1.0
    iv = SpectralInterval(scale * lo, scale * lo + scale * width)
    S = build().into_scaled(iv.lo, iv.hi)
    assert type(S) is type(op)
    shift, w = iv.lo + iv.hi, iv.hi - iv.lo
    want = (2.0 * op.matvec(v) - shift * v) / w
    # rounding scales with the summed magnitudes, not with the (cancelling) sums
    magnitude = (2.0 * np.abs(op.to_dense().entries) @ np.abs(v) + abs(shift) * np.abs(v)) / w
    assert np.max(np.abs(S.matvec(v) - want)) <= 1e-13 * np.max(magnitude)
    # on [-1, 1] every stored entry is a_ij itself
    unit = build().into_scaled(-1.0, 1.0)
    assert type(unit) is type(op)
    assert unit.matvec(v).tobytes() == op.matvec(v).tobytes()
    # the sparse scaling's entries are the dense scaling's, bit for bit
    assert (S.to_dense().entries.tobytes()
            == build().to_dense().into_scaled(iv.lo, iv.hi).entries.tobytes())
    # each diagonal entry, stored or not, is the interval's map of a_ii, bit for bit
    assert np.diag(S.to_dense().entries).tobytes() == iv.to_canonical(op.diagonal()).tobytes()


def test_stored_sparse_scaling_inserts_missing_diagonal():
    # row 0 stores its diagonal, row 1 only an off-diagonal, row 2 nothing
    op = SparseSymmetric.from_coo(3, [0, 0, 1], [0, 1, 0], [4.0, 1.0, 1.0])
    # into_scaled inserts the entries into the arrays of the operator it returns
    assert op.into_scaled(-2.0, 6.0) is op
    assert op.indptr.tolist() == [0, 2, 4, 5]
    assert op.indices.tolist() == [0, 1, 0, 1, 2]
    assert op.data.tolist() == [(8.0 - 4.0) / 8.0, 0.25, 0.25, -0.5, -0.5]


def test_stored_scaling_overflow_is_value_error():
    for op in (DenseSymmetric(np.diag([1e308, -5e307])),
               SparseSymmetric.from_coo(2, [0, 1], [0, 1], [1e308, -5e307])):
        with pytest.raises(ValueError, match="overflows double precision"):
            op.into_scaled(-5e307, 1e308)
        # the failed in-place scaling locks the values again
        assert not any(a.flags.writeable for a in stored_arrays(op))


def stored_bytes(op):
    return [a.tobytes() for a in stored_arrays(op)]


def sparse_pattern(diagonal):
    """A symmetric operator of dimension 20000 whose rows hold the entries of 5
    random permutations, about 2e5 stored entries, plus every diagonal entry
    when ``diagonal`` and none otherwise."""
    d, rng = 20_000, np.random.default_rng(0)
    i = np.tile(np.arange(d), 5)
    j = np.concatenate([rng.permutation(d) for _ in range(5)])
    off = i != j
    values = rng.standard_normal(np.count_nonzero(off))
    rows, cols, values = [i[off], j[off]], [j[off], i[off]], [values, values]
    if diagonal:
        rows, cols, values = rows + [np.arange(d)], cols + [np.arange(d)], values + [np.ones(d)]
    return SparseSymmetric.from_coo(d, *map(np.concatenate, (rows, cols, values)))


def band_pattern(diagonal):
    """The pentadiagonal band of dimension 30000, 4 to 5 entries a row: 4.0 on its
    diagonal when ``diagonal`` (about 1.5e5 stored entries) and -1.0 off it (1.2e5)."""
    d = 30_000
    i = np.repeat(np.arange(d), 5)
    j = i + np.tile(np.arange(-2, 3), d)
    keep = (j >= 0) & (j < d) & (diagonal | (i != j))
    return SparseSymmetric.from_coo(d, i[keep], j[keep], np.where(i == j, 4.0, -1.0)[keep])


def into_scaled_peak(op):
    """``op.into_scaled(-3, 5)`` and its tracemalloc peak over the bytes of ``op``'s CSR."""
    csr = stored_nbytes(op)
    S, peak = traced_peak(op.into_scaled, -3.0, 5.0)
    return S, peak / csr


@pytest.mark.parametrize("pattern", [sparse_pattern, band_pattern], ids=["permutations", "band"])
def test_a_sparse_operator_storing_its_diagonal_is_scaled_in_its_own_storage(pattern):
    op, expected = pattern(diagonal=True), pattern(diagonal=True).into_scaled(-3.0, 5.0)
    assert op.indptr[-1] >= 1e5
    S, peak = into_scaled_peak(op)
    # the slot search's temporaries only, 0.73 on the band; the parent's key rebuild
    # read 2.68 on the permutations
    assert S is op and peak <= 1.0
    assert stored_bytes(S) == stored_bytes(expected)


@pytest.mark.parametrize("pattern, bound", [(sparse_pattern, 1.6), (band_pattern, 2.25)],
                         ids=["permutations", "band"])
def test_a_sparse_operator_without_diagonal_entries_holds_them_inserted_and_scaled(pattern, bound):
    op, expected = pattern(diagonal=False), pattern(diagonal=False).into_scaled(-3.0, 5.0)
    assert op.indptr[-1] >= 1e5
    S, peak = into_scaled_peak(op)
    # the inserted CSR and the slot search's temporaries, 1.45 on the permutations and
    # 1.97 on the band, whose rows gain a larger share of entries; a second operator,
    # with the constructor's transposed copy of it, read 2.36 and 2.75
    assert S is op and peak <= bound
    assert stored_bytes(S) == stored_bytes(expected)


def random_pattern(seed):
    """A seeded symmetric operator of dimension 1 to 12 whose random pattern may store
    zeros. Every diagonal entry is missing when ``seed % 5 == 0``, the first when it is
    1 and the last when it is 2; one row is empty when ``seed % 3 == 0``."""
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 13))
    held = np.triu(rng.random((d, d)) < rng.uniform(0.1, 0.7), 1)
    held |= held.T
    diagonal = rng.random(d) < 0.8
    diagonal[{0: slice(None), 1: 0, 2: -1}.get(seed % 5, [])] = False
    np.fill_diagonal(held, diagonal)
    if seed % 3 == 0:
        empty = rng.integers(d)
        held[empty] = held[:, empty] = False
    values, zero = rng.standard_normal((d, d)), rng.random((d, d)) < 0.1
    values = values + values.T
    values[zero | zero.T] = 0.0
    rows, cols = np.nonzero(held)
    return SparseSymmetric.from_coo(d, rows, cols, values[rows, cols])


def diagonal_entries_stored(op):
    rows = np.repeat(np.arange(op.dim), np.diff(op.indptr))
    return np.count_nonzero(op.indices == rows)


def test_into_scaled_inserts_missing_diagonal_entries_into_the_operator_itself(monkeypatch):
    built = []
    init = SparseSymmetric.__init__
    monkeypatch.setattr(SparseSymmetric, "__init__",
                        lambda self, *args: built.append(self) or init(self, *args))
    for seed in range(600):
        op, rng = random_pattern(seed), np.random.default_rng(seed)
        dense, nnz, missing = op.to_dense(), op.indptr[-1], op.dim - diagonal_entries_stored(op)
        lo, hi = -rng.uniform(0.5, 5.0), rng.uniform(0.5, 5.0)
        built.clear()
        assert op.into_scaled(lo, hi) is op and not built
        assert not any(a.flags.writeable for a in stored_arrays(op))
        assert op.indptr[-1] == nnz + missing and diagonal_entries_stored(op) == op.dim
        # the constructor's order and symmetry checks pass on the inserted arrays
        fresh = SparseSymmetric(op.dim, op.indptr, op.indices, op.data)
        v = rng.standard_normal(op.dim)
        assert op.matvec(v).tobytes() == fresh.matvec(v).tobytes()
        assert op.to_dense().entries.tobytes() == dense.into_scaled(lo, hi).entries.tobytes()


@pytest.mark.parametrize("op", [
    DenseSymmetric(np.diag([8e307, -8e307])),
    SparseSymmetric.from_coo(2, [0, 1], [0, 1], [8e307, -8e307]),
    # row 1 stores no diagonal entry, and gains none
    SparseSymmetric.from_coo(2, [0, 0, 1], [0, 1, 0], [8e307, 1.0, 1.0]),
], ids=["dense", "sparse", "sparse-without-a-diagonal-entry"])
def test_a_width_past_the_largest_double_leaves_the_entries_unchanged(op):
    # dividing by hi - lo = inf zeroed every entry, a finite matrix that passed every check
    before = stored_bytes(op)
    with pytest.raises(ValueError, match=r"overflows double precision: the width hi - lo "
                                         r"of \[-1\.7e\+308, 1\.7e\+308\] is inf$"):
        op.into_scaled(-1.7e308, 1.7e308)
    assert stored_bytes(op) == before
    assert not any(a.flags.writeable for a in stored_arrays(op))


def test_failed_in_place_scaling_leaves_the_entries_read_only():
    op = DenseSymmetric(np.diag([1e308, -5e307]))
    with pytest.raises(ValueError, match="overflows double precision"):
        op.into_scaled(-5e307, 1e308)
    assert not op.entries.flags.writeable


def test_function_composition_consistency():
    # interpolating f composed with the inverse scaling map and applying the
    # result to the scaled operator estimates trace f(A)
    A = random_symmetric(60, 12)
    eigs = np.linalg.eigvalsh(A.entries)
    lo, hi = float(eigs[0]), float(eigs[-1])
    S = random_symmetric(60, 12).into_scaled(lo, hi)
    f = lambda x: math.exp(0.5 * x)
    g = lambda t: f(0.5 * ((hi - lo) * t + lo + hi))
    p = interpolate(g, 25)
    exact = exact_trace_f(A, f)
    est = estimate_trace(S, p, "two_sided_chebyshev", m=400, seed=21)
    assert abs(est.mean - exact) <= 5 * est.sample_stddev / math.sqrt(400) + 1e-8
