import math
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.linalg

from twosided.chebyshev import CHEBYSHEV, STANDARD, PolynomialCoefficients, interpolate
from twosided.hutchinson import ProbeSequence, estimate_trace, exact_trace_f
from twosided.operators import DenseSymmetric, random_symmetric
from twosided.quadform import EVALUATORS, combine


class TestRademacher:
    def test_entries_are_signs(self):
        z = ProbeSequence(42, 4).vector(0)
        assert np.all(np.abs(z) == 1.0)

    def test_determinism(self):
        seq = ProbeSequence(9, 100)
        assert np.array_equal(seq.vector(0), seq.vector(0))
        # a fresh sequence object gives the same vectors
        assert np.array_equal(seq.vector(7), ProbeSequence(9, 100).vector(7))

    def test_order_independence(self):
        seq = ProbeSequence(3, 50)
        later_first = seq.vector(5).copy()
        _ = [seq.vector(i) for i in range(5)]
        assert np.array_equal(seq.vector(5), later_first)

    def test_mean_concentration(self):
        z = ProbeSequence(9, 10_000).vector(0)
        assert abs(np.mean(z)) <= 4 / math.sqrt(10_000)

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            ProbeSequence(0, 4).vector(-1)

    def test_negative_dimension_rejected(self):
        # when the sequence is made, not at its first vector
        with pytest.raises(ValueError, match="probe dimension must be non-negative, got -3$"):
            ProbeSequence(1, -3)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_64_bits_rejected(self, seed):
        # masking to 64 bits would alias -1 to 2**64 - 1 and 2**64 to 0
        with pytest.raises(ValueError, match=f"got {seed}$"):
            ProbeSequence(seed, 50)

    def test_seed_dim_and_index_are_integers(self):
        seq = ProbeSequence(np.uint64(1), np.int64(6))
        assert (type(seq.seed), type(seq.dim)) == (int, int)
        assert np.array_equal(seq.vector(np.int32(2)), ProbeSequence(1, 6).vector(2))
        # int() would truncate: index 2.7 to probe 2, seed 1.9 to seed 1, dim 6.9 to 6
        with pytest.raises(TypeError):
            seq.vector(2.7)
        with pytest.raises(TypeError):
            ProbeSequence(1.9, 6)
        with pytest.raises(TypeError):
            ProbeSequence(1, 6.9)

    def test_largest_seed_keeps_its_stream(self):
        seed = 2**64 - 1
        rng = np.random.default_rng(np.random.SeedSequence([seed, 3]))
        expected = 2.0 * rng.integers(0, 2, size=50) - 1.0
        assert np.array_equal(ProbeSequence(seed, 50).vector(3), expected)


class TestProbeCache:
    def test_repeated_and_out_of_order_calls_match_a_fresh_sequence(self):
        seq = ProbeSequence(5, 203)
        order = [3, 0, 3, 7, 1, 0, 7, 2, 3]
        for i in order:
            assert seq.vector(i).tobytes() == ProbeSequence(5, 203).vector(i).tobytes()

    def test_threaded_calls_match_a_fresh_sequence(self):
        seq = ProbeSequence(8, 1000)
        indices = [i % 13 for i in range(200)]
        with ThreadPoolExecutor(max_workers=4) as pool:
            got = list(pool.map(seq.vector, indices))
        for i, z in zip(indices, got):
            assert z.tobytes() == ProbeSequence(8, 1000).vector(i).tobytes()

    def test_returned_vectors_are_fresh(self):
        seq = ProbeSequence(2, 64)
        first = seq.vector(4)
        first[:] = 7.0
        again = seq.vector(4)
        assert again.tobytes() == ProbeSequence(2, 64).vector(4).tobytes()
        again[:] = 7.0
        assert seq.vector(4).tobytes() == ProbeSequence(2, 64).vector(4).tobytes()

    def test_sign_bits_are_the_cache(self):
        # 400 probes at d = 20000 are 3.2e8 bytes as float64 and 1e6 as bits
        m, d = 400, 20_000
        seq = ProbeSequence(1, d)
        ProbeSequence(2, d).vector(0)   # first-call allocations are not the cache
        tracemalloc.start()
        try:
            for i in range(m):
                seq.vector(i)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < m * d / 4

    def test_shared_sequence_gives_the_seeded_estimate(self):
        op = random_symmetric(30, 1)
        p = interpolate(math.exp, 7)
        seq = ProbeSequence(4, 30)
        for name in EVALUATORS:
            coeffs = p if name.endswith("chebyshev") else PolynomialCoefficients(
                STANDARD, np.polynomial.chebyshev.cheb2poly(p.coeffs))
            shared = estimate_trace(op, coeffs, name, 6, seq)
            seeded = estimate_trace(op, coeffs, name, 6, 4)
            assert shared.probe_values == seeded.probe_values
        with pytest.raises(ValueError, match="dimension 31"):
            estimate_trace(op, p, "two_sided_chebyshev", 2, ProbeSequence(4, 31))


class TestEstimateTrace:
    def test_identity_operator_is_exact(self):
        d = 17
        op = DenseSymmetric(np.eye(d))
        alpha = np.array([0.2, -0.7, 1.3, 0.4])
        p = PolynomialCoefficients(CHEBYSHEV, alpha)
        est = estimate_trace(op, p, "two_sided_chebyshev", m=5, seed=1)
        want = d * np.sum(alpha)  # T_j(1) = 1 for every j
        assert est.mean == pytest.approx(want, rel=1e-13)

    def test_diagonal_oracle_statistical(self):
        rng = np.random.default_rng(10)
        lams = rng.uniform(-1, 1, 100)
        op = DenseSymmetric(np.diag(lams))
        p = interpolate(lambda x: math.exp(10 * x), 20)
        est = estimate_trace(op, p, "two_sided_chebyshev", m=500, seed=7)
        exact = sum(float(p(lam)) for lam in lams)
        # diagonal operators make every probe value identical, so the
        # statistical band degenerates to roundoff; allow the serial-summation
        # roundoff bound m*eps*|total| as a floor
        tol = 4 * est.sample_stddev / math.sqrt(500) + 500 * np.finfo(float).eps * abs(exact)
        assert abs(est.mean - exact) <= tol

    def test_moments(self):
        A = random_symmetric(30, 2)
        eigs = np.linalg.eigvalsh(A.entries)
        S = A.scaled(float(eigs[0]), float(eigs[-1]))
        p = interpolate(lambda x: math.exp(2 * x), 9)
        est = estimate_trace(S, p, "two_sided_chebyshev", m=4, seed=6)
        assert est.moments.shape == (4, 10)
        for i, moments in enumerate(est.moments):
            mu = EVALUATORS["two_sided_chebyshev"](S, ProbeSequence(6, 30).vector(i), p.degree)
            assert np.array_equal(moments, mu)
            assert combine(p, mu) == est.probe_values[i]

    @pytest.mark.parametrize("prefix", [None, 4])
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 20, 21])
    def test_probe_values_are_index_order_sums(self, n, prefix):
        # prefix None checks a 9-probe run; an integer checks a run of that
        # many probes, whose values must lead the 9-probe run's
        A = random_symmetric(40, n)
        eigs = np.linalg.eigvalsh(A.entries)
        S = A.scaled(float(eigs[0]), float(eigs[-1]))
        p = PolynomialCoefficients(CHEBYSHEV, np.random.default_rng(n).standard_normal(n + 1))
        for name in EVALUATORS:
            coeffs = p if name.endswith("chebyshev") else PolynomialCoefficients(
                STANDARD, np.polynomial.chebyshev.cheb2poly(p.coeffs))
            est = estimate_trace(S, coeffs, name, m=9, seed=n)
            if prefix is not None:
                full = est
                est = estimate_trace(S, coeffs, name, m=prefix, seed=n)
                assert est.probe_values == full.probe_values[:prefix], (name, n)
                assert np.array_equal(est.moments, full.moments[:prefix]), (name, n)
            for value, mu in zip(est.probe_values, est.moments):
                alpha, mu = coeffs.coeffs.tolist(), mu.tolist()
                total = alpha[0] * mu[0]
                for k in range(1, n + 1):
                    total += alpha[k] * mu[k]
                assert repr(value) == repr(total), (name, n)

    def test_single_probe_cross_method(self):
        A = random_symmetric(60, 5)
        eigs = np.linalg.eigvalsh(A.entries)
        S = A.scaled(float(eigs[0]), float(eigs[-1]))
        p = interpolate(lambda x: math.exp(10 * x), 20)
        one = estimate_trace(S, p, "one_sided_chebyshev", m=1, seed=3)
        two = estimate_trace(S, p, "two_sided_chebyshev", m=1, seed=3)
        assert abs(one.mean - two.mean) <= 1e-10 * abs(one.mean)

    def test_total_matvecs(self):
        op = random_symmetric(30, 1)
        p = interpolate(math.exp, 13)
        two = estimate_trace(op, p, "two_sided_chebyshev", m=9, seed=0)
        one = estimate_trace(op, p, "one_sided_chebyshev", m=9, seed=0)
        assert two.total_matvecs == 9 * 7
        assert one.total_matvecs == 9 * 13

    def test_stddev_absent_for_single_probe(self):
        op = random_symmetric(10, 0)
        p = PolynomialCoefficients(CHEBYSHEV, [1.0, 0.5])
        est = estimate_trace(op, p, "two_sided_chebyshev", m=1, seed=0)
        assert est.sample_stddev is None
        assert est.m == 1 and len(est.probe_values) == 1

    def test_mean_is_ordered_accumulation(self):
        op = random_symmetric(25, 4)
        p = interpolate(math.cos, 6)
        est = estimate_trace(op, p, "one_sided_chebyshev", m=20, seed=2)
        total = 0.0
        for v in est.probe_values:
            total += v
        assert est.mean == total / 20

    def test_serial_parallel_identical(self):
        op = random_symmetric(40, 6)
        p = interpolate(lambda x: math.exp(2 * x), 10)
        serial = estimate_trace(op, p, "two_sided_chebyshev", m=24, seed=11)
        parallel = estimate_trace(op, p, "two_sided_chebyshev", m=24, seed=11)
        assert serial.mean == parallel.mean
        assert serial.probe_values == parallel.probe_values
        assert serial.total_matvecs == parallel.total_matvecs

    def test_probes_run_on_the_calling_thread(self, monkeypatch):
        op = random_symmetric(40, 6)
        p = interpolate(lambda x: math.exp(2 * x), 10)
        serial = estimate_trace(op, p, "two_sided_chebyshev", m=24, seed=11)

        def refuse(thread):
            raise AssertionError("estimate_trace started a thread")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        pooled = estimate_trace(op, p, "two_sided_chebyshev", m=24, seed=11)
        assert pooled.probe_values == serial.probe_values
        assert np.array_equal(pooled.moments, serial.moments)

    def test_max_workers_is_not_a_parameter(self):
        op = random_symmetric(10, 0)
        p = PolynomialCoefficients(CHEBYSHEV, [1.0, 0.5])
        with pytest.raises(TypeError, match="max_workers"):
            estimate_trace(op, p, "two_sided_chebyshev", m=2, seed=0, max_workers=4)

    def test_invalid_m(self):
        op = random_symmetric(5, 0)
        p = PolynomialCoefficients(CHEBYSHEV, [1.0])
        with pytest.raises(ValueError):
            estimate_trace(op, p, "two_sided_chebyshev", m=0, seed=0)

    def test_unknown_evaluator_names_the_choices(self):
        op = random_symmetric(5, 0)
        p = PolynomialCoefficients(CHEBYSHEV, [1.0, 0.5, 0.25])
        with pytest.raises(ValueError, match="unknown evaluator 'bogus'; choose from "
                                             "one_sided_chebyshev, one_sided_standard"):
            estimate_trace(op, p, "bogus", 2, 0)

    def test_unbiased_over_seeds(self):
        A = random_symmetric(40, 20)
        eigs = np.linalg.eigvalsh(A.entries)
        op = A.scaled(float(eigs[0]), float(eigs[-1]))
        scaled_eigs = (2 * eigs - eigs[0] - eigs[-1]) / (eigs[-1] - eigs[0])
        p = interpolate(math.exp, 8)
        exact = sum(float(p(lam)) for lam in scaled_eigs)
        means = [estimate_trace(op, p, "two_sided_chebyshev", m=20, seed=s).mean
                 for s in range(200)]
        grand = np.mean(means)
        stderr = np.std(means, ddof=1) / math.sqrt(200)
        assert abs(grand - exact) <= 5 * stderr


class TestExactTrace:
    def test_plain_trace(self):
        A = DenseSymmetric(np.diag([1.0, 2.0, 3.0]))
        assert exact_trace_f(A, lambda x: x) == pytest.approx(6.0)

    def test_identity_exp(self):
        d = 12
        assert exact_trace_f(DenseSymmetric(np.eye(d)), math.exp) == \
            pytest.approx(d * math.e, rel=1e-14)

    def test_against_expm_oracle(self):
        A = random_symmetric(200, 5)
        eigs = np.linalg.eigvalsh(A.entries)
        M = (2 * A.entries - (eigs[0] + eigs[-1]) * np.eye(200)) / (eigs[-1] - eigs[0])
        scaled = DenseSymmetric((M + M.T) / 2)
        ours = exact_trace_f(scaled, lambda x: math.exp(10 * x))
        oracle = float(np.trace(scipy.linalg.expm(10 * scaled.entries)))
        assert abs(ours - oracle) <= 1e-8 * abs(oracle)
