import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from memory import traced_peak

from twosided.chebyshev import (CHEBYSHEV, STANDARD, Interval,
                                PolynomialCoefficients,
                                chebyshev_nodes, function_values,
                                interpolate, load_coefficients, save_coefficients)
from twosided.functions import resolve

MAX = float(np.finfo(float).max)


def unit_cheb(j, degree=None):
    n = degree if degree is not None else j
    c = np.zeros(n + 1)
    c[j] = 1.0
    return PolynomialCoefficients(CHEBYSHEV, c)


def cheb_table(degrees, xs):
    """T_j(x) for j in degrees over xs, each entry a float(p(x)) call."""
    return {j: np.array([float(unit_cheb(j)(x)) for x in xs]) for j in degrees}


class TestNodes:
    def test_n1(self):
        assert np.allclose(chebyshev_nodes(1), [1.0, -1.0])

    def test_n2(self):
        assert np.allclose(chebyshev_nodes(2), [1.0, 0.0, -1.0], atol=1e-15)

    def test_n4(self):
        s = math.sqrt(2) / 2
        assert np.allclose(chebyshev_nodes(4), [1.0, s, 0.0, -s, -1.0], atol=1e-15)

    def test_n0_rejected(self):
        with pytest.raises(ValueError):
            chebyshev_nodes(0)

    @pytest.mark.parametrize("nodes", [chebyshev_nodes, lambda n: interpolate(math.exp, n)],
                             ids=["nodes", "interpolate"])
    def test_a_float_degree_is_not_truncated(self, nodes):
        with pytest.raises(TypeError, match="'float' object cannot be interpreted as an integer"):
            nodes(2.5)

    def test_strictly_decreasing(self):
        nodes = chebyshev_nodes(17)
        assert np.all(np.diff(nodes) < 0)
        assert nodes[0] == 1.0 and nodes[-1] == -1.0


class TestInterpolate:
    def test_constant(self):
        p = interpolate(lambda x: 1.0, 3)
        assert np.allclose(p.coeffs, [1.0, 0.0, 0.0, 0.0], atol=1e-15)

    def test_t2_exact(self):
        p = interpolate(lambda x: 2 * x * x - 1, 2)
        assert np.allclose(p.coeffs, [0.0, 0.0, 1.0], atol=1e-15)

    def test_against_linear_system_oracle(self):
        # oracle: solve the (n+1)x(n+1) node-interpolation system directly
        n = 20
        f = lambda x: math.exp(10 * x)
        nodes = chebyshev_nodes(n)
        V = np.zeros((n + 1, n + 1))
        V[:, 0] = 1.0
        V[:, 1] = nodes
        for j in range(2, n + 1):
            V[:, j] = 2 * nodes * V[:, j - 1] - V[:, j - 2]
        oracle = np.linalg.solve(V, np.array([f(x) for x in nodes]))

        p = interpolate(f, n)
        grid = np.linspace(-1, 1, 1000)
        # evaluate the oracle coefficients by the raw recurrence
        T0, T1 = np.ones_like(grid), grid.copy()
        vals = oracle[0] * T0 + oracle[1] * T1
        for j in range(2, n + 1):
            T0, T1 = T1, 2 * grid * T1 - T0
            vals += oracle[j] * T1
        ours = np.array([float(p(x)) for x in grid])
        assert np.max(np.abs(ours - vals)) <= 1e-10 * np.max(np.abs(vals))

    def test_nonfinite_value_names_node(self):
        with pytest.raises(ValueError, match="node"):
            interpolate(lambda x: math.inf if x == 1.0 else 1.0, 4)

    def test_polynomial_exactness(self):
        rng = np.random.default_rng(3)
        for n in (2, 5, 9):
            c = rng.standard_normal(n + 1)
            f = lambda x: np.polynomial.polynomial.polyval(x, c)
            p = interpolate(f, n)
            xs = rng.uniform(-1, 1, 1000)
            got = np.array([float(p(x)) for x in xs])
            want = f(xs)
            assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))

    def test_interpolates_at_nodes(self):
        f = lambda x: math.sin(3 * x) + 0.5
        iv = Interval(0.0, 2.0)
        p = interpolate(f, 12, iv)
        for t in chebyshev_nodes(12):
            x = iv.from_canonical(t)
            assert abs(float(p(x)) - f(x)) <= 1e-12 * max(1.0, abs(f(x)))

    @pytest.mark.parametrize("n", [1, 2, 3, 20, 21, 200, 2000])
    def test_matches_the_exactly_reduced_cosine_sum(self, n):
        # reference: alpha_k = (2/n) sum_j'' f_j cos(pi j k / n), the first and last
        # summands and coefficients halved; j k is reduced mod 2n in integers, so
        # every cosine argument lies in [0, 2 pi)
        j = np.arange(n + 1)
        C = np.cos(np.pi * (np.outer(j, j) % (2 * n)) / n)
        w = np.ones(n + 1)
        w[0] = w[-1] = 0.5
        for spec in ("identity", "exp_scaled:10", "power:3", "inverse_shifted",
                     "log_shifted", "poly:1,0.5,-0.25,0.125"):
            f = resolve(spec).fn
            for iv in (Interval(-1.0, 1.0), Interval(0.5, 3.0)):
                ref = (2.0 / n) * (C @ (w * function_values(f, iv.from_canonical(
                    chebyshev_nodes(n)))))
                ref[0] *= 0.5
                ref[-1] *= 0.5
                err = np.max(np.abs(interpolate(f, n, iv).coeffs - ref))
                assert err <= 1e-14 * np.max(np.abs(ref)), (spec, iv, err)

    def test_values_near_the_largest_double_interpolate_finitely(self):
        p = interpolate(lambda x: x, 2, Interval(-1e308, 1e308))
        assert np.all(np.isfinite(p.coeffs))
        assert p.coeffs[1] == pytest.approx(1e308, rel=1e-15)

    def test_builds_no_square_array(self):
        # an (n+1) x (n+1) array of doubles at n = 3000 is 72 MB
        _, peak = traced_peak(interpolate, math.exp, 3000)
        assert peak < 1e6


class TestEvalScalar:
    """Scalar evaluation: float(p(x)), the callable coefficients at one point."""

    def test_t2_at_half(self):
        assert float(unit_cheb(2)(0.5)) == pytest.approx(-0.5, abs=1e-15)

    def test_standard_horner(self):
        p = PolynomialCoefficients(STANDARD, [1.0, 2.0, 3.0])
        assert float(p(2.0)) == 17.0

    def test_t5_against_recurrence(self):
        x = 0.3
        t0, t1 = 1.0, x
        for _ in range(4):
            t0, t1 = t1, 2 * x * t1 - t0
        assert abs(float(unit_cheb(5)(x)) - t1) <= 1e-14

    def test_constant_polynomial(self):
        assert float(PolynomialCoefficients(CHEBYSHEV, [4.0])(0.7)) == 4.0

    @pytest.mark.parametrize("basis, interval", [(STANDARD, Interval(-1.0, 1.0)),
                                                 (CHEBYSHEV, Interval(-3.0, 7.5))])
    def test_array_call_is_eval_scalar_at_each_point(self, basis, interval):
        p = PolynomialCoefficients(basis, np.random.default_rng(0).standard_normal(13), interval)
        xs = np.linspace(interval.lo - 1.0, interval.hi + 1.0, 101)
        assert p(xs).tobytes() == np.array([float(p(x)) for x in xs]).tobytes()

    @settings(derandomize=True, deadline=None, max_examples=500)
    @given(c=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1,
                      max_size=30),
           x=st.floats(allow_nan=False, allow_infinity=False))
    @example(c=[-0.0], x=-2.0)
    @example(c=[1e308, 1e308], x=10.0)
    def test_standard_basis_is_the_horner_loop_bit_for_bit(self, c, x):
        # reference Horner loop: poly: documents stay byte-identical only while
        # polyval matches it to the last bit, signed zeros and overflow included
        p = PolynomialCoefficients(STANDARD, c)
        with np.errstate(all="ignore"):
            r = 0.0
            for a in p.coeffs[::-1]:
                r = r * x + a
            assert repr(float(p(x))) == repr(float(r))


class TestAffineMap:
    def test_identity_interval(self):
        assert Interval(-1, 1).to_canonical(0.3) == pytest.approx(0.3, abs=1e-16)

    def test_endpoint(self):
        assert Interval(0, 10).to_canonical(10.0) == 1.0

    def test_midpoint(self):
        assert Interval(0, 10).to_canonical(5.0) == 0.0

    def test_roundtrip(self):
        iv = Interval(-3.0, 7.5)
        for x in (-3.0, 0.1, 7.5):
            assert iv.from_canonical(iv.to_canonical(x)) == pytest.approx(x, abs=1e-14)

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            Interval(1.0, 1.0)

    @pytest.mark.parametrize("a, b", [(-5e307, 1e308), (-1e308, 1.6e308), (-MAX, MAX),
                                      (0.0, MAX), (-MAX, -1e308), (-3.0, 7.5)])
    def test_from_canonical_endpoints(self, a, b):
        iv = Interval(a, b)
        assert iv.from_canonical(-1.0) == pytest.approx(a, rel=1e-15)
        assert iv.from_canonical(1.0) == pytest.approx(b, rel=1e-15)

    def test_from_canonical_past_half_the_largest_double(self):
        # 0.5 ((b - a) t + a + b) overflows to inf on this interval
        assert Interval(-5e307, 1e308).from_canonical(1.0) == 1e308

    @settings(derandomize=True, deadline=None, max_examples=2000)
    @given(ends=st.lists(st.floats(-MAX, MAX, allow_subnormal=False), min_size=2,
                         max_size=2, unique=True).map(sorted),
           t=st.floats(-1.0, 1.0, allow_subnormal=False))
    @example(ends=[-MAX, MAX], t=-1.0)
    @example(ends=[-MAX, MAX], t=1.0)
    @example(ends=[-5e307, 1e308], t=1.0)
    @example(ends=[-MAX, -1e308], t=-1.0)
    @example(ends=[-1e308, 1.6e308], t=-0.7)
    def test_from_canonical_matches_the_direct_formula_wherever_it_is_finite(self, ends, t):
        a, b = ends
        # the formula before the ends were quartered
        old = 0.5 * ((b - a) * t + a + b)
        new = Interval(a, b).from_canonical(t)
        if math.isfinite(old):
            assert new == old
        # rounding may carry a value within a few units in the last place of the
        # largest double past it
        if max(-a, b) <= MAX * (1 - 2.0**-48):
            assert math.isfinite(new)


class TestIdentities:
    """Product, even, and odd identities checked through float(p(x))."""

    xs = np.random.default_rng(12).uniform(-1, 1, 1000)

    def test_product_identity(self):
        T = cheb_table(range(25), self.xs)
        for j in range(13):
            for k in range(13):
                lhs = T[j] * T[k]
                rhs = 0.5 * (T[j + k] + T[abs(k - j)])
                assert np.max(np.abs(lhs - rhs)) <= 1e-12

    def test_even_odd_identities(self):
        T = cheb_table(range(26), self.xs)
        for j in range(13):
            even = 2 * T[j] ** 2 - 1
            assert np.max(np.abs(T[2 * j] - even)) <= 1e-12
            odd = 2 * T[j] * T[j + 1] - self.xs
            assert np.max(np.abs(T[2 * j + 1] - odd)) <= 1e-12


class TestCoefficientFile:
    def test_roundtrip_exact(self, tmp_path):
        p = interpolate(lambda x: math.exp(10 * x), 20, Interval(-2.0, 3.0))
        path = tmp_path / "coeffs.json"
        save_coefficients(p, path)
        q = load_coefficients(path)
        assert q.basis == p.basis
        assert q.interval == p.interval
        assert np.array_equal(q.coeffs, p.coeffs)


class TestValidation:
    def test_unknown_basis(self):
        with pytest.raises(ValueError):
            PolynomialCoefficients("legendre", [1.0])

    def test_nonfinite_coefficients(self):
        with pytest.raises(ValueError):
            PolynomialCoefficients(CHEBYSHEV, [1.0, float("nan")])

    def test_empty_coefficients(self):
        with pytest.raises(ValueError, match="^coefficients must be a non-empty 1-d sequence$"):
            PolynomialCoefficients(CHEBYSHEV, [])

    def test_degree(self):
        assert PolynomialCoefficients(STANDARD, [1.0, 0.0, 2.0]).degree == 2

    def test_standard_basis_interval_is_canonical(self, tmp_path):
        # standard coefficients are of x itself: p(1.0) == 1.0 whatever the interval says
        with pytest.raises(ValueError, match=r"must be \[-1.0, 1.0\], got \[0.0, 2.0\]$"):
            PolynomialCoefficients(STANDARD, [0.0, 1.0], Interval(0.0, 2.0))
        assert PolynomialCoefficients(STANDARD, [0.0, 1.0], Interval(-1, 1))(1.0) == 1.0
        path = tmp_path / "coeffs.json"
        path.write_text('{"basis": "standard", "interval": [0.0, 2.0], "coefficients": [0.0, 1.0]}')
        with pytest.raises(ValueError, match="standard-basis coefficients"):
            load_coefficients(path)
