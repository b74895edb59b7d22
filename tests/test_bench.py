import json
import math
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from memory import stored_arrays, traced_bytes, traced_peak

from twosided import bench, quadform
from twosided.bench import (MOMENT_TOLERANCE, _SMALL_TERM_CUTOFF, _check_moments, _max_rel_diff,
                            _term_comparison)
from twosided.chebyshev import interpolate, load_coefficients, save_coefficients
from twosided.hutchinson import estimate_trace
from twosided.operators import SparseSymmetric, load_matrix_market, random_symmetric
from twosided.spectrum import SpectralInterval


def rel_diff(a, b):
    """The scalar relative difference the array form replaces, kept as the reference."""
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale > 0 else 0.0


def loop_max_rel_diff(values_a, values_b):
    """The per-probe loop the array form replaces, kept as the reference."""
    return max(rel_diff(x, y) for x, y in zip(values_a, values_b))


def loop_term_comparison(terms_a, terms_b):
    """The per-probe loop the array form replaces, kept as the reference."""
    max_rel = 0.0
    max_abs_small = 0.0
    for ta, tb in zip(terms_a, terms_b):
        mag = np.maximum(np.abs(ta), np.abs(tb))
        big = float(np.max(mag))
        if big == 0.0:
            continue
        diff = np.abs(ta - tb)
        significant = mag > _SMALL_TERM_CUTOFF * big
        if np.any(significant):
            max_rel = max(max_rel, float(np.max(diff[significant] / mag[significant])))
        if np.any(~significant):
            max_abs_small = max(max_abs_small, float(np.max(diff[~significant])))
    return {
        "max_per_term_relative_difference": max_rel,
        "max_small_term_absolute_difference": max_abs_small,
    }


@st.composite
def paired_terms(draw):
    """Per-probe terms of two evaluators: (m, n+1) arrays, m = 1..6, where a
    probe may be all zeros, hold only terms far below its largest, or agree
    exactly, and b is a within a few units in the last place."""
    m, width = draw(st.integers(1, 6)), draw(st.integers(2, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.standard_normal((m, width)) * 10.0 ** rng.integers(-20, 20, (m, width))
    b = a * (1.0 + rng.integers(-4, 5, (m, width)) * np.finfo(float).eps)
    for i in range(m):
        kind = draw(st.sampled_from(["plain", "zero", "small", "equal", "signed_zero"]))
        if kind == "zero":
            a[i] = b[i] = 0.0
        elif kind == "small":   # one large term, the rest below the 1e-8 cutoff
            a[i, 1:] *= 1e-12 / np.max(np.abs(a[i, 1:]))
            a[i, 0] = 1.0
            b[i] = a[i] + rng.standard_normal(width) * 1e-25
        elif kind == "equal":
            b[i] = a[i]
        elif kind == "signed_zero":
            a[i], b[i] = 0.0, -0.0
    return a, b


@settings(derandomize=True, deadline=None, max_examples=300)
@given(pair=paired_terms())
def test_array_comparisons_equal_the_loops(pair):
    a, b = pair
    values_a, values_b = a.sum(axis=1).tolist(), b.sum(axis=1).tolist()
    got = _max_rel_diff(values_a, values_b)
    assert repr(got) == repr(loop_max_rel_diff(values_a, values_b))
    terms_a, terms_b = list(a), list(b)
    got = _term_comparison(terms_a, terms_b)
    want = loop_term_comparison(terms_a, terms_b)
    assert {k: repr(v) for k, v in got.items()} == {k: repr(v) for k, v in want.items()}


def test_moments_above_mu_0_disprove_the_interval():
    interval = SpectralInterval(-1.0, 1.0)
    edge = 4.0 * (1.0 + 0.5 * MOMENT_TOLERANCE)
    moments = np.array([[4.0, edge, -edge], [4.0, 0.0, 1.0]])
    _check_moments(interval, "ev", moments)
    for k, value in [(1, 4.0 * (1.0 + 2.0 * MOMENT_TOLERANCE)), (2, -5.0), (1, np.nan)]:
        bad = moments.copy()
        bad[1, k] = value
        with pytest.raises(ValueError, match=rf"^interval \[-1.0, 1.0\] does not contain the "
                                             rf"spectrum: ev probe 1 has \|mu_{k}\|"):
            _check_moments(interval, "ev", bad)


@pytest.mark.parametrize("interval", ["power", "-100,100"])
def test_only_the_scaled_matrix_is_resident_while_the_probes_run(monkeypatch, interval):
    d = 1000
    held = []
    estimate_trace = bench.estimate_trace

    def spy(*args):
        held.append(traced_bytes())
        return estimate_trace(*args)

    monkeypatch.setattr(bench, "estimate_trace", spy)
    traced_peak(lambda: bench.run_estimate(bench.BenchConfig(
        synthetic_dim=d, probes=2, function="exp_scaled:0.1", interval=interval)))
    # the scaled d x d copy, plus vectors; the unscaled matrix is gone
    assert held[0] <= 1.25 * 8 * d * d


@pytest.mark.parametrize("interval", ["exact", "power", "-100,100"])
def test_a_dense_run_peaks_at_one_matrix(interval):
    # a small run first imports the modules numpy loads on first use (random, fft,
    # polynomial), which are not the run's memory
    config = bench.BenchConfig(synthetic_dim=10, probes=2, function="exp_scaled:0.1",
                               interval=interval)
    bench.run_estimate(config)
    d = config.synthetic_dim = 1000
    _, peak = traced_peak(bench.run_estimate, config)
    # the operator's own entries are scaled, so no second d x d array is made;
    # tracemalloc does not see eigvalsh's LAPACK work copy
    assert peak <= 1.25 * 8 * d * d


def capture(monkeypatch, acquire):
    """Lists that fill with the operators ``bench.<acquire>`` returns and with
    those the evaluators run on."""
    made, ran = [], []
    original, estimate_trace = getattr(bench, acquire), bench.estimate_trace

    def acquiring(*args):
        made.append(original(*args))
        return made[-1]

    def evaluating(op, *args):
        ran.append(op)
        return estimate_trace(op, *args)

    monkeypatch.setattr(bench, acquire, acquiring)
    monkeypatch.setattr(bench, "estimate_trace", evaluating)
    return made, ran


def assert_scaled_in_place(doc, made, ran, unscaled):
    (op,) = made
    assert len(ran) == 2 and all(r is op for r in ran)
    iv = doc["spectral_interval"]
    expected = unscaled.into_scaled(iv["lo"], iv["hi"])
    assert ([a.tobytes() for a in stored_arrays(op)]
            == [a.tobytes() for a in stored_arrays(expected)])
    assert not any(a.flags.writeable for a in stored_arrays(op))
    # a product that read an unscaled copy of the values would differ
    v = np.random.default_rng(0).standard_normal(op.dim)
    assert op.matvec(v).tobytes() == expected.matvec(v).tobytes()


@pytest.mark.parametrize("interval", ["exact", "power", "-100,100"])
def test_the_evaluators_run_on_the_acquired_matrix_scaled_in_place(monkeypatch, interval):
    made, ran = capture(monkeypatch, "random_symmetric")
    doc = bench.run_estimate(bench.BenchConfig(synthetic_dim=60, seed=5, probes=3,
                                               function="exp_scaled:0.1", interval=interval))
    assert_scaled_in_place(doc, made, ran, random_symmetric(60, 5))


@pytest.mark.parametrize("text", [
    "%%MatrixMarket matrix array real symmetric\n3 3\n2.0\n-1.0\n0.0\n2.0\n-1.0\n2.0\n",
    "%%MatrixMarket matrix array real general\n3 3\n"
    "4.0\n1.0\n0.5\n1.0\n3.0\n-1.0\n0.5\n-1.0\n2.0\n",
], ids=["symmetric", "general"])
def test_an_array_file_is_scaled_in_place(monkeypatch, tmp_path, text):
    mtx = tmp_path / "a.mtx"
    mtx.write_text(text)
    made, ran = capture(monkeypatch, "load_matrix_market")
    doc = bench.run_estimate(bench.BenchConfig(matrix_path=str(mtx), probes=3))
    assert_scaled_in_place(doc, made, ran, load_matrix_market(mtx))


@pytest.mark.parametrize("interval", ["exact", "power", "-100,100"])
def test_a_coordinate_file_storing_its_diagonal_is_scaled_in_place(monkeypatch, tmp_path, interval):
    mtx = tmp_path / "c.mtx"
    mtx.write_text("%%MatrixMarket matrix coordinate real symmetric\n4 4 7\n"
                   "1 1 2.0\n2 1 -1.0\n2 2 2.0\n3 2 -1.0\n3 3 2.0\n4 3 -1.0\n4 4 2.0\n")
    made, ran = capture(monkeypatch, "load_matrix_market")
    doc = bench.run_estimate(bench.BenchConfig(matrix_path=str(mtx), probes=3,
                                               function="exp_scaled:0.1", interval=interval))
    assert isinstance(made[0], SparseSymmetric)
    assert_scaled_in_place(doc, made, ran, load_matrix_market(mtx))


@pytest.mark.parametrize("interval", ["exact", "power", "-100,100"])
def test_a_coordinate_file_without_a_diagonal_entry_is_scaled_in_place(monkeypatch, tmp_path,
                                                                       interval):
    # row 2 stores no diagonal entry, and (4, 2) is a stored 0.0
    mtx = tmp_path / "holes.mtx"
    mtx.write_text("%%MatrixMarket matrix coordinate real symmetric\n4 4 6\n"
                   "1 1 2.0\n2 1 -1.0\n3 2 0.5\n3 3 3.0\n4 2 0.0\n4 4 1.5\n")
    made, ran = capture(monkeypatch, "load_matrix_market")
    doc = bench.run_estimate(bench.BenchConfig(matrix_path=str(mtx), probes=3,
                                               function="exp_scaled:0.1", interval=interval))
    # 9 entries of the mirrored file and the inserted (2, 2)
    assert isinstance(made[0], SparseSymmetric) and made[0].indptr[-1] == 10
    assert_scaled_in_place(doc, made, ran, load_matrix_market(mtx))


def test_total_matvecs_are_the_matvecs_spent(monkeypatch):
    # an evaluator that spends one matvec more per probe than the formula says
    two_sided = quadform.EVALUATORS["two_sided_chebyshev"]

    def spending(op, z, degree):
        op.matvec(z)
        return two_sided(op, z, degree)

    monkeypatch.setitem(quadform.EVALUATORS, "two_sided_chebyshev", spending)
    m, n = 9, 13
    est = estimate_trace(random_symmetric(30, 1), interpolate(math.exp, n),
                         "two_sided_chebyshev", m, 0)
    assert est.total_matvecs == m * ((n + 1) // 2 + 1)
    doc = bench.run_estimate(bench.BenchConfig(
        synthetic_dim=30, seed=1, function="exp_scaled:0.1", degree=n, probes=m,
        evaluators=("two_sided_chebyshev",)))
    assert doc["evaluators"]["two_sided_chebyshev"]["total_matvecs"] == m * ((n + 1) // 2 + 1)


@pytest.mark.parametrize("field, value", [
    ("synthetic_dim", 30.0), ("synthetic_dim", True),
    ("seed", 1.5), ("seed", True),
    ("degree", 2.5), ("degree", True),
    ("probes", 3.0), ("probes", True),
])
def test_integer_settings_must_be_integers(field, value):
    cfg = bench.BenchConfig(**{"synthetic_dim": 30, field: value})
    with pytest.raises(bench.ConfigError, match=f"^{field} must be an integer, got {value!r}$"):
        cfg.validate()


@pytest.mark.parametrize("field, value, message", [
    ("evaluators", "two_sided_chebyshev",
     "evaluators must be a list or tuple of str, got 'two_sided_chebyshev'"),
    ("evaluators", ("two_sided_chebyshev", 5), "evaluators must be a list or tuple of str"),
    ("interval", 5, "interval must be a str, got 5"),
    ("function", 5, "function must be a str, got 5"),
    ("terms", "no", "terms must be a bool, got 'no'"),
    ("matrix_path", 0, "matrix_path must be a str or os.PathLike path, got 0"),
    ("matrix_path", 3, "matrix_path must be a str or os.PathLike path, got 3"),
    ("matrix_path", b"m.mtx", "matrix_path must be a str or os.PathLike path, got b'm.mtx'"),
], ids=["evaluators-str", "evaluators-non-str-name", "interval-int", "function-int", "terms-str",
        "matrix_path-fd-0", "matrix_path-fd-3", "matrix_path-bytes"])
def test_settings_of_the_wrong_type_are_config_errors(field, value, message):
    # a matrix_path of 0 would otherwise be opened as file descriptor 0, stdin
    cfg = (bench.BenchConfig(matrix_path=value) if field == "matrix_path"
           else bench.BenchConfig(**{"synthetic_dim": 30, field: value}))
    with pytest.raises(bench.ConfigError, match=f"^{re.escape(message)}"):
        cfg.validate()


def test_path_list_and_numpy_bool_settings_are_stored_as_plain_types(tmp_path):
    mtx = tmp_path / "a.mtx"
    mtx.write_text("%%MatrixMarket matrix array real symmetric\n2 2\n2.0\n0.5\n3.0\n")
    cfg = bench.BenchConfig(matrix_path=mtx, probes=3, evaluators=["two_sided_chebyshev"],
                            terms=np.bool_(True))
    doc = bench.run_estimate(cfg)
    assert (type(cfg.matrix_path), type(cfg.evaluators), type(cfg.terms)) == (str, tuple, bool)
    config = json.loads(json.dumps(doc))["config"]
    assert (config["matrix_path"], config["evaluators"], config["terms"]) == \
        (str(mtx), ["two_sided_chebyshev"], True)


@pytest.mark.parametrize("call, mode", [
    (load_matrix_market, os.O_RDONLY),
    (load_coefficients, os.O_RDONLY),
    (lambda fd: save_coefficients(interpolate(np.exp, 1), fd), os.O_WRONLY),
    (lambda fd: bench.write_result({"evaluators": {}}, fd), os.O_WRONLY),
    (lambda fd: bench.write_probe_csv({"evaluators": {}}, fd), os.O_WRONLY),
], ids=["load_matrix_market", "load_coefficients", "save_coefficients", "write_result",
        "write_probe_csv"])
def test_file_functions_take_a_path_not_a_descriptor(tmp_path, call, mode):
    # open() would read or write the descriptor and then close it
    path = tmp_path / "f"
    path.write_text("%%MatrixMarket matrix array real symmetric\n1 1\n2.0\n")
    fd = os.open(path, mode)
    try:
        with pytest.raises(TypeError):
            call(fd)
        os.fstat(fd)
    finally:
        os.close(fd)
    assert path.read_text() == "%%MatrixMarket matrix array real symmetric\n1 1\n2.0\n"


def test_unconverged_interval_warning_names_the_documented_margin():
    doc = {"spectral_interval": {"converged": False, "safety": 0.02},
           "config": {"degree": 4}, "interpolation_relative_error": None,
           "interpolation_tail": 0.0, "evaluators": {}}
    assert list(bench.result_warnings(doc)) == [
        "warning: the Lanczos spectral interval did not converge; it rests on its 2% safety "
        "margin and may not contain the spectrum"]


def test_numpy_integer_settings_are_stored_as_ints():
    cfg = bench.BenchConfig(synthetic_dim=np.int64(20), seed=np.uint64(3), degree=np.int32(4),
                            probes=np.int8(2), function="exp_scaled:0.1")
    doc = bench.run_estimate(cfg)
    config = json.loads(json.dumps(doc))["config"]
    for field in ("synthetic_dim", "seed", "degree", "probes"):
        assert type(getattr(cfg, field)) is int
    assert (config["synthetic_dim"], config["seed"], config["degree"], config["probes"]) == \
        (20, 3, 4, 2)
