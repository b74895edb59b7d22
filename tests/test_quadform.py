import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from twosided.chebyshev import (CHEBYSHEV, STANDARD, PolynomialCoefficients,
                                eval_scalar, interpolate)
from twosided.hutchinson import ProbeSequence
from twosided.operators import CountingOperator, DenseSymmetric, random_symmetric
from twosided.quadform import (EVALUATORS, matvec_count, one_sided_chebyshev,
                               one_sided_standard, two_sided_chebyshev,
                               two_sided_standard)
from twosided.spectrum import ScaledOperator, SpectralInterval


def std(coeffs):
    return PolynomialCoefficients(STANDARD, coeffs)


def cheb(coeffs):
    return PolynomialCoefficients(CHEBYSHEV, coeffs)


def scaled_random(d, seed):
    A = random_symmetric(d, seed)
    eigs = np.linalg.eigvalsh(A.entries)
    return ScaledOperator(A, SpectralInterval(float(eigs[0]), float(eigs[-1]), 0.0))


class TestOneSidedStandard:
    def test_diag_square(self):
        op = DenseSymmetric(np.diag([2.0, 3.0]))
        r = one_sided_standard(op, [1.0, 1.0], std([0.0, 0.0, 1.0]))
        assert r.value == pytest.approx(13.0)
        assert r.matvecs == 2

    def test_constant(self):
        op = random_symmetric(10, 0)
        z = np.arange(10.0)
        r = one_sided_standard(op, z, std([2.5]))
        assert r.value == pytest.approx(2.5 * z @ z)
        assert r.matvecs == 0

    def test_dense_power_oracle(self):
        A = random_symmetric(20, 1)
        z = np.ones(20)
        alpha = [1.0, 1.0, 1.0, 1.0]
        M = sum(a * np.linalg.matrix_power(A.entries, j) for j, a in enumerate(alpha))
        want = z @ M @ z
        r = one_sided_standard(A, z, std(alpha))
        assert abs(r.value - want) <= 1e-12 * abs(want)


class TestTwoSidedStandard:
    def test_diag_square(self):
        op = DenseSymmetric(np.diag([2.0, 3.0]))
        r = two_sided_standard(op, [1.0, 1.0], std([0.0, 0.0, 1.0]))
        assert r.value == pytest.approx(13.0)
        assert r.matvecs == 1

    def test_linear(self):
        op = DenseSymmetric(np.diag([2.0, 3.0]))
        r = two_sided_standard(op, [1.0, 1.0], std([0.0, 1.0]))
        assert r.value == pytest.approx(5.0)
        assert r.matvecs == 1

    def test_matches_one_sided_half_matvecs(self):
        A = random_symmetric(100, 2)
        z = ProbeSequence(0, 100).vector(0)
        eigs = np.linalg.eigvalsh(A.entries)
        S = ScaledOperator(A, SpectralInterval(float(eigs[0]), float(eigs[-1]), 0.0))
        alpha = np.random.default_rng(4).standard_normal(21)
        one = one_sided_standard(S, z, std(alpha))
        two = two_sided_standard(S, z, std(alpha))
        assert abs(one.value - two.value) <= 1e-12 * abs(one.value)
        assert (one.matvecs, two.matvecs) == (20, 10)


class TestOneSidedChebyshev:
    def test_diag_t2(self):
        op = DenseSymmetric(np.diag([0.5, -0.5]))
        r = one_sided_chebyshev(op, [1.0, 1.0], cheb([0.0, 0.0, 1.0]))
        assert r.value == pytest.approx(-1.0)
        assert r.matvecs == 2

    def test_constant(self):
        op = random_symmetric(8, 3)
        z = np.ones(8)
        r = one_sided_chebyshev(op, z, cheb([3.0]))
        assert r.value == pytest.approx(3.0 * 8)
        assert r.matvecs == 0

    def test_dense_recurrence_oracle(self):
        S = scaled_random(50, 3)
        M = (2 * S.inner.entries - (S.interval.lo + S.interval.hi) * np.eye(50)) \
            / (S.interval.hi - S.interval.lo)
        p = interpolate(math.exp, 8)
        T0, T1 = np.eye(50), M
        P = p.coeffs[0] * T0 + p.coeffs[1] * T1
        for j in range(2, 9):
            T0, T1 = T1, 2 * M @ T1 - T0
            P += p.coeffs[j] * T1
        z = ProbeSequence(5, 50).vector(0)
        want = z @ P @ z
        r = one_sided_chebyshev(S, z, p)
        assert abs(r.value - want) <= 1e-12 * abs(want)


class TestTwoSidedChebyshev:
    def test_diag_t2(self):
        op = DenseSymmetric(np.diag([0.5, -0.5]))
        r = two_sided_chebyshev(op, [1.0, 1.0], cheb([0.0, 0.0, 1.0]))
        assert r.value == pytest.approx(-1.0)
        assert r.matvecs == 1

    def test_t0_only(self):
        op = random_symmetric(6, 9)
        z = np.ones(6)
        r = two_sided_chebyshev(op, z, cheb([4.0]))
        assert r.value == pytest.approx(4.0 * 6)
        assert r.matvecs == 0

    def test_degenerate_degrees(self):
        op = DenseSymmetric(np.diag([0.5, -0.25]))
        z = np.array([1.0, 2.0])
        # n = 1: one matvec, alpha_0 zeta_0 + alpha_1 zeta_1
        r = two_sided_chebyshev(op, z, cheb([1.0, 2.0]))
        assert r.matvecs == 1
        assert r.value == pytest.approx(z @ z + 2.0 * (z @ op.matvec(z)))
        # n = 2: still one matvec
        r = two_sided_chebyshev(op, z, cheb([0.0, 0.0, 1.0]))
        assert r.matvecs == 1

    def test_matches_one_sided_half_matvecs(self):
        S = scaled_random(100, 4)
        z = ProbeSequence(1, 100).vector(0)
        p = interpolate(lambda x: math.exp(10 * x), 20)
        one = one_sided_chebyshev(S, z, p)
        two = two_sided_chebyshev(S, z, p)
        assert abs(one.value - two.value) <= 1e-12 * abs(one.value)
        assert (one.matvecs, two.matvecs) == (20, 10)


class TestMatvecCounts:
    @pytest.mark.parametrize("n", range(26))
    def test_counts(self, n):
        A = random_symmetric(12, n)
        z = np.ones(12)
        coeffs = {STANDARD: std(np.ones(n + 1)), CHEBYSHEV: cheb(np.ones(n + 1))}
        for name, ev in EVALUATORS.items():
            basis = CHEBYSHEV if name.endswith("chebyshev") else STANDARD
            counter = CountingOperator(A)
            r = ev(counter, z, coeffs[basis])
            expected = n if name.startswith("one_sided") else (n + 1) // 2
            assert counter.count == expected
            assert r.matvecs == expected
            assert r.matvecs == counter.count
            assert matvec_count(name, n) == counter.count


class TestCrossMethodAgreement:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 21, 25])
    def test_chebyshev(self, n):
        S = scaled_random(80, n)
        z = ProbeSequence(n, 80).vector(0)
        alpha = np.random.default_rng(n).standard_normal(n + 1)
        one = one_sided_chebyshev(S, z, cheb(alpha))
        two = two_sided_chebyshev(S, z, cheb(alpha))
        assert abs(one.value - two.value) <= 1e-10 * max(1.0, abs(one.value))

    def test_per_term(self):
        S = scaled_random(100, 17)
        z = ProbeSequence(3, 100).vector(0)
        p = interpolate(lambda x: math.exp(10 * x), 20)
        one = one_sided_chebyshev(S, z, p, want_terms=True)
        two = two_sided_chebyshev(S, z, p, want_terms=True)
        big = np.max(np.abs(one.terms))
        for t1, t2 in zip(one.terms, two.terms):
            if max(abs(t1), abs(t2)) > 1e-8 * big:
                assert abs(t1 - t2) <= 1e-9 * max(abs(t1), abs(t2))
            else:
                assert abs(t1 - t2) <= 1e-9 * big


class TestTermsInvariant:
    def test_terms_sum_to_value(self):
        S = scaled_random(60, 8)
        z = ProbeSequence(2, 60).vector(0)
        p = interpolate(lambda x: math.exp(3 * x), 11)
        for name, ev in EVALUATORS.items():
            basis_p = p if name.endswith("chebyshev") else \
                std(np.polynomial.chebyshev.cheb2poly(p.coeffs))
            r = ev(S, z, basis_p, want_terms=True)
            assert abs(np.sum(r.terms) - r.value) <= 1e-14 * abs(r.value)

    def test_terms_none_by_default(self):
        op = random_symmetric(5, 0)
        assert one_sided_standard(op, np.ones(5), std([1.0, 1.0])).terms is None


class TestScalarConsistency:
    @pytest.mark.parametrize("name", sorted(EVALUATORS))
    def test_1x1_operator(self, name):
        a = 0.37
        op = DenseSymmetric([[a]])
        z = np.array([1.7])
        coeffs = np.array([0.3, -1.2, 0.8, 0.05])
        basis = CHEBYSHEV if name.endswith("chebyshev") else STANDARD
        p = PolynomialCoefficients(basis, coeffs)
        r = EVALUATORS[name](op, z, p)
        want = z[0] ** 2 * eval_scalar(p, a)
        assert abs(r.value - want) <= 1e-13 * max(1.0, abs(want))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(d=st.integers(1, 40), n=st.integers(0, 40), basis=st.sampled_from([STANDARD, CHEBYSHEV]),
       seed=st.integers(0, 2**32 - 1))
def test_two_sided_equals_one_sided(d, n, basis, seed):
    # spectral radius 1 bounds |z^T p(A) z| by sum |alpha_j| * z.z in both bases
    rng = np.random.default_rng(seed)
    M = random_symmetric(d, seed).entries
    op = DenseSymmetric(M / np.max(np.abs(np.linalg.eigvalsh(M))))
    p = PolynomialCoefficients(basis, rng.standard_normal(n + 1))
    z = ProbeSequence(seed, d).vector(0)
    one = EVALUATORS[f"one_sided_{basis}"](op, z, p)
    two = EVALUATORS[f"two_sided_{basis}"](op, z, p)
    assert abs(two.value - one.value) <= 1e-12 * np.sum(np.abs(p.coeffs)) * (z @ z)


def test_basis_conversion_cross_check():
    # T_2 = 2x^2 - 1
    S = scaled_random(30, 6)
    z = ProbeSequence(8, 30).vector(0)
    r_cheb = two_sided_chebyshev(S, z, cheb([0.0, 0.0, 1.0]))
    r_std = two_sided_standard(S, z, std([-1.0, 0.0, 2.0]))
    assert abs(r_cheb.value - r_std.value) <= 1e-13 * max(1.0, abs(r_std.value))
    r1 = one_sided_chebyshev(S, z, cheb([0.0, 0.0, 1.0]))
    r2 = one_sided_standard(S, z, std([-1.0, 0.0, 2.0]))
    assert abs(r1.value - r2.value) <= 1e-13 * max(1.0, abs(r2.value))


class TestErrors:
    def test_basis_mismatch(self):
        op = random_symmetric(4, 0)
        with pytest.raises(ValueError, match="basis"):
            one_sided_standard(op, np.ones(4), cheb([1.0, 1.0]))
        with pytest.raises(ValueError, match="basis"):
            two_sided_chebyshev(op, np.ones(4), std([1.0, 1.0]))

    def test_dimension_mismatch(self):
        op = random_symmetric(4, 0)
        with pytest.raises(ValueError, match="dimension"):
            two_sided_standard(op, np.ones(5), std([0.0, 1.0]))
