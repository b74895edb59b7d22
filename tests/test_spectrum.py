import math

import numpy as np
import pytest

from twosided.chebyshev import interpolate
from twosided.hutchinson import estimate_trace, exact_trace_f
from twosided.operators import CountingOperator, DenseSymmetric, random_symmetric
from twosided.spectrum import ScaledOperator, SpectralInterval, estimate_interval


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

    def test_parameter_validation(self):
        op = random_symmetric(5, 0)
        with pytest.raises(ValueError):
            estimate_interval(op, iters=0)
        with pytest.raises(ValueError):
            estimate_interval(op, tol=0.0)

    def test_deterministic_given_seed(self):
        op = random_symmetric(60, 4)
        a = estimate_interval(op, iters=300, tol=1e-10, seed=9)
        b = estimate_interval(op, iters=300, tol=1e-10, seed=9)
        assert (a.lo, a.hi) == (b.lo, b.hi)


class TestScaleOperator:
    def test_endpoints_map_to_unit(self):
        op = DenseSymmetric(np.diag([1.0, 3.0]))
        S = ScaledOperator(op, SpectralInterval(1.0, 3.0, 0.0))
        assert np.allclose(S.matvec([1.0, 1.0]), [-1.0, 1.0])

    def test_identity_scaling(self):
        op = random_symmetric(40, 3)
        S = ScaledOperator(op, SpectralInterval(-1.0, 1.0, 0.0))
        rng = np.random.default_rng(0)
        for _ in range(5):
            v = rng.standard_normal(40)
            a, b = op.matvec(v), S.matvec(v)
            assert np.max(np.abs(a - b)) <= 1e-15 * max(1.0, np.max(np.abs(a)))

    def test_exact_scaling_gives_unit_extremes(self):
        op = random_symmetric(100, 8)
        eigs = np.linalg.eigvalsh(op.entries)
        S = ScaledOperator(op, SpectralInterval(float(eigs[0]), float(eigs[-1]), 0.0))
        M = np.column_stack([S.matvec(e) for e in np.eye(100)])
        scaled_eigs = np.linalg.eigvalsh((M + M.T) / 2)
        assert scaled_eigs[0] == pytest.approx(-1.0, abs=1e-10)
        assert scaled_eigs[-1] == pytest.approx(1.0, abs=1e-10)

    def test_eigenvalues_map_affinely(self):
        op = random_symmetric(50, 9)
        eigs = np.linalg.eigvalsh(op.entries)
        iv = SpectralInterval(float(eigs[0]) - 0.5, float(eigs[-1]) + 0.25, 0.0)
        S = ScaledOperator(op, iv)
        M = np.column_stack([S.matvec(e) for e in np.eye(50)])
        scaled = np.linalg.eigvalsh((M + M.T) / 2)
        want = (2 * eigs - iv.lo - iv.hi) / (iv.hi - iv.lo)
        assert np.max(np.abs(scaled - want)) <= 1e-12

    def test_matvec_cost_transparency(self):
        counter = CountingOperator(random_symmetric(20, 1))
        S = ScaledOperator(counter, SpectralInterval(-2.0, 2.0, 0.0))
        v = np.ones(20)
        for k in range(1, 5):
            S.matvec(v)
            assert counter.count == k

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            SpectralInterval(1.0, 1.0)


def test_function_composition_consistency():
    # interpolating f composed with the inverse scaling map and applying the
    # result to the scaled operator estimates trace f(A)
    A = random_symmetric(60, 12)
    eigs = np.linalg.eigvalsh(A.entries)
    lo, hi = float(eigs[0]), float(eigs[-1])
    S = ScaledOperator(A, SpectralInterval(lo, hi, 0.0))
    f = lambda x: math.exp(0.5 * x)
    g = lambda t: f(0.5 * ((hi - lo) * t + lo + hi))
    p = interpolate(g, 25)
    exact = exact_trace_f(A, f)
    est = estimate_trace(S, p, "two_sided_chebyshev", m=400, seed=21)
    assert abs(est.mean - exact) <= 5 * est.sample_stddev / math.sqrt(400) + 1e-8
