"""Acceptance suite: one test per release criterion, each printing a
PASS line with the measured quantity when its assertions hold."""

import json
import math
import time

import numpy as np
import pytest

from twosided.bench import BenchConfig, reproduce_config, run_estimate
from twosided.chebyshev import (CHEBYSHEV, STANDARD, Interval, PolynomialCoefficients,
                                chebyshev_nodes, interpolate)
from twosided.functions import resolve
from twosided.hutchinson import ProbeSequence, estimate_trace, exact_trace_f
from twosided.operators import CountingOperator, DenseSymmetric, random_symmetric
from twosided.quadform import (EVALUATORS, combine, one_sided_chebyshev,
                               two_sided_chebyshev, two_sided_standard)
from twosided.spectrum import SpectralInterval, estimate_interval


def scaled_exactly(A):
    eigs = np.linalg.eigvalsh(A.entries)
    iv = SpectralInterval(float(eigs[0]), float(eigs[-1]), 0.0)
    return A.scaled(iv.lo, iv.hi), (2 * eigs - eigs[0] - eigs[-1]) / (eigs[-1] - eigs[0])


def test_criterion_1_matvec_count_halving():
    start = time.perf_counter()
    A = random_symmetric(100, 0)
    z = ProbeSequence(0, 100).vector(0)
    for n in range(1, 26):
        for name, ev in EVALUATORS.items():
            counter = CountingOperator(A)
            ev(counter, z, n)
            expected = n if name.startswith("one_sided") else math.ceil(n / 2)
            assert counter.count == expected, (name, n)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"\nCRITERION 1 PASS: matvec counts exact for n=1..25 ({elapsed:.2f} s)")


def test_criterion_2_chebyshev_identity_suite():
    start = time.perf_counter()
    xs = np.random.default_rng(1).uniform(-1, 1, 1000)

    def unit(j, total):
        c = np.zeros(total + 1)
        c[j] = 1.0
        return PolynomialCoefficients(CHEBYSHEV, c)

    T = {j: np.array([float(unit(j, j)(x)) for x in xs]) for j in range(26)}
    worst = 0.0
    for j in range(13):
        for k in range(13):
            worst = max(worst, np.max(np.abs(
                T[j] * T[k] - 0.5 * (T[j + k] + T[abs(k - j)]))))
        worst = max(worst, np.max(np.abs(T[2 * j] - (2 * T[j] ** 2 - 1))))
        worst = max(worst, np.max(np.abs(T[2 * j + 1] - (2 * T[j] * T[j + 1] - xs))))
    # three-term recurrence directly
    t0, t1 = np.ones_like(xs), xs
    for j in range(2, 13):
        t0, t1 = t1, 2 * xs * t1 - t0
        worst = max(worst, np.max(np.abs(T[j] - t1)))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-12
    assert elapsed < 1.0
    print(f"\nCRITERION 2 PASS: identity suite, worst abs error {worst:.2e} ({elapsed:.2f} s)")


PAIR = "one_sided_chebyshev|two_sided_chebyshev"


@pytest.fixture(scope="module")
def desk_reproduction():
    start = time.perf_counter()
    doc = run_estimate(reproduce_config(200, trials=100, degree=20))
    doc["_elapsed"] = time.perf_counter() - start
    return doc


def test_criterion_3_cross_method_agreement(desk_reproduction):
    rep = desk_reproduction
    comp = rep["comparisons"][PAIR]
    assert comp["aggregate_relative_difference"] <= 1e-13
    assert comp["max_per_probe_relative_difference"] <= 1e-11
    assert rep["_elapsed"] < 30.0
    print(f"\nCRITERION 3 PASS: aggregate rel diff "
          f"{comp['aggregate_relative_difference']:.2e}, max per-evaluation "
          f"{comp['max_per_probe_relative_difference']:.2e} "
          f"({rep['_elapsed']:.2f} s)")


def test_criterion_4_per_term_agreement(desk_reproduction):
    rep = desk_reproduction
    # recheck the raw terms directly, probe by probe, on the run's own
    # matrix, probes and coefficients
    cfg, iv = rep["config"], rep["spectral_interval"]
    A = random_symmetric(cfg["synthetic_dim"], cfg["seed"])
    S = A.scaled(iv["lo"], iv["hi"])
    f, domain = resolve(cfg["function"]).fn, Interval(iv["lo"], iv["hi"])
    p = interpolate(lambda t: f(domain.from_canonical(t)), cfg["degree"])
    seq = ProbeSequence(cfg["seed"], A.dim)
    worst_rel, worst_abs = 0.0, 0.0
    for i in range(cfg["probes"]):
        z = seq.vector(i)
        mu_one = one_sided_chebyshev(S, z, p.degree)
        mu_two = two_sided_chebyshev(S, z, p.degree)
        assert combine(p, mu_one) == rep["evaluators"]["one_sided_chebyshev"]["probe_values"][i]
        assert combine(p, mu_two) == rep["evaluators"]["two_sided_chebyshev"]["probe_values"][i]
        one, two = p.coeffs * mu_one, p.coeffs * mu_two
        mag = np.maximum(np.abs(one), np.abs(two))
        big = np.max(mag)
        diff = np.abs(one - two)
        sig = mag > 1e-8 * big
        assert np.all(diff[sig] / mag[sig] <= 1e-9)
        assert np.all(diff[~sig] <= 1e-9 * big)
        if np.any(sig):
            worst_rel = max(worst_rel, float(np.max(diff[sig] / mag[sig])))
        if np.any(~sig):
            worst_abs = max(worst_abs, float(np.max(diff[~sig])))
    assert rep["comparisons"][PAIR]["max_per_term_relative_difference"] <= 1e-9
    print(f"\nCRITERION 4 PASS: per-term rel diff {worst_rel:.2e} (significant), "
          f"abs diff {worst_abs:.2e} (small terms)")


def test_criterion_5_standard_basis_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(55)
    worst = 0.0
    for trial in range(100):
        d = int(rng.integers(2, 51))
        n = int(rng.integers(0, 11))
        A = random_symmetric(d, trial)
        # scale by spectral radius to keep powers bounded
        rad = float(np.max(np.abs(np.linalg.eigvalsh(A.entries))))
        M = A.entries / rad
        op = DenseSymmetric(M)
        z = rng.standard_normal(d)
        alpha = rng.standard_normal(n + 1)
        P = sum(a * np.linalg.matrix_power(M, j) for j, a in enumerate(alpha))
        want = float(z @ P @ z)
        got = combine(PolynomialCoefficients(STANDARD, alpha), two_sided_standard(op, z, n))
        err = abs(got - want) / max(1.0, abs(want))
        worst = max(worst, err)
        assert err <= 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"\nCRITERION 5 PASS: standard-basis oracle, worst rel err {worst:.2e} "
          f"({elapsed:.2f} s)")


def test_criterion_6_chebyshev_basis_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(66)
    worst = 0.0
    for trial in range(100):
        d = int(rng.integers(2, 51))
        n = int(rng.integers(0, 11))
        A = random_symmetric(d, 1000 + trial)
        rad = float(np.max(np.abs(np.linalg.eigvalsh(A.entries))))
        M = A.entries / rad
        op = DenseSymmetric(M)
        z = rng.standard_normal(d)
        alpha = rng.standard_normal(n + 1)
        T0, T1 = np.eye(d), M
        P = alpha[0] * T0
        if n >= 1:
            P = P + alpha[1] * T1
        for j in range(2, n + 1):
            T0, T1 = T1, 2 * M @ T1 - T0
            P = P + alpha[j] * T1
        want = float(z @ P @ z)
        got = combine(PolynomialCoefficients(CHEBYSHEV, alpha), two_sided_chebyshev(op, z, n))
        err = abs(got - want) / max(1.0, abs(want))
        worst = max(worst, err)
        assert err <= 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"\nCRITERION 6 PASS: Chebyshev-basis oracle, worst rel err {worst:.2e} "
          f"({elapsed:.2f} s)")


def test_criterion_7_estimator_correctness():
    start = time.perf_counter()
    rng = np.random.default_rng(77)
    lams = rng.uniform(-1, 1, 100)
    op = DenseSymmetric(np.diag(lams))
    p = interpolate(lambda x: math.exp(10 * x), 20)
    est = estimate_trace(op, p, "two_sided_chebyshev", m=500, seed=12)
    exact_poly = sum(float(p(lam)) for lam in lams)
    # diagonal probes have zero variance; floor the band at the
    # serial-summation roundoff bound m*eps*|total|
    tol = 4 * est.sample_stddev / math.sqrt(500) + 500 * np.finfo(float).eps * abs(exact_poly)
    assert abs(est.mean - exact_poly) <= tol
    direct = sum(math.exp(10 * lam) for lam in lams)
    oracle = exact_trace_f(op, lambda x: math.exp(10 * x))
    assert abs(oracle - direct) <= 1e-10 * abs(direct)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"\nCRITERION 7 PASS: estimator within band (|err| {abs(est.mean - exact_poly):.2e}), "
          f"exact-trace oracle rel err {abs(oracle - direct) / abs(direct):.2e} "
          f"({elapsed:.2f} s)")


def test_criterion_8_interpolation_quality():
    start = time.perf_counter()
    n = 20
    f = lambda x: math.exp(10 * x)
    p = interpolate(f, n)
    nodes = chebyshev_nodes(n)
    V = np.zeros((n + 1, n + 1))
    V[:, 0] = 1.0
    V[:, 1] = nodes
    for j in range(2, n + 1):
        V[:, j] = 2 * nodes * V[:, j - 1] - V[:, j - 2]
    oracle = np.linalg.solve(V, np.array([f(x) for x in nodes]))
    grid = np.linspace(-1, 1, 1000)
    T0, T1 = np.ones_like(grid), grid.copy()
    oracle_vals = oracle[0] * T0 + oracle[1] * T1
    for j in range(2, n + 1):
        T0, T1 = T1, 2 * grid * T1 - T0
        oracle_vals += oracle[j] * T1
    ours = np.array([float(p(x)) for x in grid])
    sup_err = np.max(np.abs(ours - oracle_vals)) / np.max(np.abs(oracle_vals))
    assert sup_err <= 1e-10

    rng = np.random.default_rng(88)
    poly_worst = 0.0
    for deg in (3, 7, 12):
        c = rng.standard_normal(deg + 1)
        g = lambda x: np.polynomial.polynomial.polyval(x, c)
        q = interpolate(g, deg)
        xs = rng.uniform(-1, 1, 1000)
        got = np.array([float(q(x)) for x in xs])
        want = g(xs)
        err = np.max(np.abs(got - want)) / max(1.0, np.max(np.abs(want)))
        poly_worst = max(poly_worst, err)
        assert err <= 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"\nCRITERION 8 PASS: sup-norm vs linear-system oracle {sup_err:.2e}, "
          f"polynomial reproduction {poly_worst:.2e} ({elapsed:.2f} s)")


def test_criterion_9_spectral_scaling():
    start = time.perf_counter()
    A = random_symmetric(300, 9)
    S, scaled_eigs_pred = scaled_exactly(A)
    M = np.column_stack([S.matvec(e) for e in np.eye(300)])
    scaled_eigs = np.linalg.eigvalsh((M + M.T) / 2)
    assert abs(scaled_eigs[0] + 1.0) <= 1e-10
    assert abs(scaled_eigs[-1] - 1.0) <= 1e-10

    contained = 0
    for inst in range(20):
        B = random_symmetric(100, 200 + inst)
        eigs = np.linalg.eigvalsh(B.entries)
        iv = estimate_interval(B, iters=2000, tol=1e-13, seed=inst)
        assert iv.lo <= eigs[0] and eigs[-1] <= iv.hi, inst
        contained += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"\nCRITERION 9 PASS: exact scaling extremes within 1e-10; "
          f"Lanczos intervals contained spectrum in {contained}/20 instances "
          f"({elapsed:.2f} s)")


def test_criterion_10_determinism(tmp_path):
    # two calls with the same arguments give the same estimate
    A = random_symmetric(50, 10)
    S, _ = scaled_exactly(A)
    p = interpolate(lambda x: math.exp(10 * x), 20)
    first = estimate_trace(S, p, "two_sided_chebyshev", m=32, seed=4)
    second = estimate_trace(S, p, "two_sided_chebyshev", m=32, seed=4)
    assert first.mean == second.mean
    assert first.probe_values == second.probe_values

    # identical configurations produce identical result files modulo timing
    def scrub(node):
        if isinstance(node, dict):
            return {k: scrub(v) for k, v in node.items() if "wall_time" not in k}
        if isinstance(node, list):
            return [scrub(v) for v in node]
        return node

    cfg = dict(synthetic_dim=40, seed=3, function="exp_scaled:10", degree=12,
               probes=25, evaluators=("one_sided_chebyshev", "two_sided_chebyshev"),
               interval="exact", terms=True)
    d1 = run_estimate(BenchConfig(**cfg))
    d2 = run_estimate(BenchConfig(**cfg))
    b1 = json.dumps(scrub(d1), sort_keys=True).encode()
    b2 = json.dumps(scrub(d2), sort_keys=True).encode()
    assert b1 == b2
    print("\nCRITERION 10 PASS: repeated estimates and repeated runs bit-identical "
          "modulo timing fields")
