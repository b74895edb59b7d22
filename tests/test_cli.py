import json
import math
import os
import re
import subprocess
import sys
import time
import warnings
from pathlib import Path

import click
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import twosided
from twosided import bench, cli
from twosided.bench import reproduce_config
from twosided.chebyshev import Interval, interpolate, load_coefficients
from twosided.cli import main
from twosided.functions import resolve
from twosided.hutchinson import exact_trace_f
from twosided.operators import random_symmetric


def run(*args):
    return main(list(args))


def strip_timing(doc):
    def scrub(node):
        if isinstance(node, dict):
            return {k: scrub(v) for k, v in node.items() if "wall_time" not in k}
        if isinstance(node, list):
            return [scrub(v) for v in node]
        return node
    return scrub(doc)


def write_identity_mtx(path, d):
    lines = ["%%MatrixMarket matrix coordinate real symmetric", f"{d} {d} {d}"]
    lines += [f"{i} {i} 1.0" for i in range(1, d + 1)]
    path.write_text("\n".join(lines) + "\n")


class TestInterpolateCommand:
    def test_exp_scaled_degree_20(self, tmp_path, capsys):
        out = tmp_path / "c.json"
        assert run("interpolate", "--function", "exp_scaled:10",
                   "--degree", "20", "--out", str(out)) == 0
        p = load_coefficients(out)
        assert p.coeffs.size == 21
        assert "residual" in capsys.readouterr().out

    def test_identity_degree_1(self, tmp_path):
        out = tmp_path / "c.json"
        assert run("interpolate", "--function", "identity",
                   "--degree", "1", "--out", str(out)) == 0
        p = load_coefficients(out)
        assert np.allclose(p.coeffs, [0.0, 1.0], atol=1e-15)

    def test_power_2(self, tmp_path):
        out = tmp_path / "c.json"
        assert run("interpolate", "--function", "power:2",
                   "--degree", "2", "--out", str(out)) == 0
        p = load_coefficients(out)
        assert np.allclose(p.coeffs, [0.5, 0.0, 0.5], atol=1e-15)

    def test_poly(self, tmp_path):
        out = tmp_path / "c.json"
        assert run("interpolate", "--function", "poly:1,0,0.5",
                   "--degree", "2", "--out", str(out)) == 0
        p = load_coefficients(out)
        assert np.allclose(p.coeffs, [1.25, 0.0, 0.25], atol=1e-15)

    def test_unknown_function_is_usage_error(self, tmp_path):
        assert run("interpolate", "--function", "sinc", "--degree", "3",
                   "--out", str(tmp_path / "c.json")) == 1

    @pytest.mark.parametrize("interval", ["wide", "1,-1", "1,2,3", "nan,1", "-inf,inf"])
    def test_invalid_interval_is_usage_error(self, tmp_path, capsys, interval):
        out = tmp_path / "c.json"
        assert run("interpolate", "--function", "identity", "--degree", "3",
                   f"--interval={interval}", "--out", str(out)) == 1
        assert "usage error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("func_spec, interval", [("exp_scaled:10", "-1,1"),
                                                     ("log_shifted", "-0.5,3")])
    def test_printed_residual_is_the_grid_maximum(self, tmp_path, capsys, func_spec, interval):
        out = tmp_path / "c.json"
        assert run("interpolate", "--function", func_spec, "--degree", "12",
                   f"--interval={interval}", "--out", str(out)) == 0
        p = load_coefficients(out)
        f = resolve(func_spec).fn
        grid = np.linspace(p.interval.lo, p.interval.hi, 1000)
        residual = np.max(np.abs(np.polynomial.chebyshev.chebval(
            p.interval.to_canonical(grid), p.coeffs) - np.array([f(x) for x in grid])))
        assert (f"max interpolation residual on 1000-point grid: {residual:.6e}"
                in capsys.readouterr().out.splitlines())

    def test_interval_whose_width_overflows(self, tmp_path, capsys):
        # hi - lo = 2e308 is not a double; the grid is mapped from [-1, 1] without it
        out = tmp_path / "c.json"
        assert run("interpolate", "--function", "identity", "--degree", "3",
                   "--interval=-1e308,1e308", "--out", str(out)) == 0
        last = capsys.readouterr().out.splitlines()[-1]
        assert last.startswith("max interpolation residual on 1000-point grid: ")
        assert float(last.rsplit(" ", 1)[1]) <= 1e-12 * 1e308
        assert load_coefficients(out).interval == Interval(-1e308, 1e308)


@pytest.mark.parametrize("args, where", [
    (("interpolate", "--function", "exp_scaled:1000", "--degree", "4"),
     "node x=1.0 (node index 0)"),
    (("interpolate", "--function", "log_shifted", "--interval=-3,-2", "--degree", "4"),
     "node x=-2.0 (node index 0)"),
    (("interpolate", "--function", "power:-1", "--interval=-1,2", "--degree", "4"),
     "grid point x=0.0 (grid point index 333)"),
    (("estimate", "--synthetic", "10", "--function", "exp_scaled:10", "--interval=-100,100"),
     "node x=100.0 (node index 0)"),
])
def test_non_finite_function_value_is_validation_error(tmp_path, capsys, args, where):
    out = tmp_path / "out.json"
    assert run(*args, "--out", str(out)) == 2
    assert f"function value is not finite at {where}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("args, where", [
    (("interpolate", "--function", "power:0.5", "--degree", "5"),
     r"node x=-0\.30901699437494734 \(node index 3\)"),
    # the nodes' last digits follow LAPACK's eigenvalues, the exact interval's ends
    (("estimate", "--synthetic", "30", "--function", "power:0.5", "--probes", "5"),
     r"node x=-0\.6\d* \(node index 11\)"),
])
def test_nan_function_value_is_undefined(tmp_path, capsys, args, where):
    # numpy's float64 ** 0.5 is NaN below 0: f is undefined there, not infinite
    out = tmp_path / "out.json"
    assert run(*args, "--out", str(out)) == 2
    assert re.search(f"f is undefined at {where}: it returns NaN", capsys.readouterr().err)
    assert not out.exists()


class TestEstimateCommand:
    def test_identity_matrix_single_probe(self, tmp_path):
        mtx = tmp_path / "id.mtx"
        write_identity_mtx(mtx, 10)
        out = tmp_path / "r.json"
        assert run("estimate", "--matrix", str(mtx), "--function", "identity",
                   "--degree", "1", "--probes", "1", "--interval", "-1,1",
                   "--evaluators", "two_sided_chebyshev", "--out", str(out)) == 0
        doc = json.loads(out.read_text())
        rec = doc["evaluators"]["two_sided_chebyshev"]
        assert rec["mean"] == pytest.approx(10.0, rel=1e-13)
        assert rec["total_matvecs"] == 1

    def test_paired_run_and_determinism(self, tmp_path):
        args = ("estimate", "--synthetic", "40", "--seed", "5",
                "--function", "exp_scaled:10", "--degree", "20",
                "--probes", "20", "--terms",
                "--evaluators", "one_sided_chebyshev,two_sided_chebyshev")
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert run(*args, "--out", str(out1)) == 0
        assert run(*args, "--out", str(out2)) == 0
        d1 = json.loads(out1.read_text())
        d2 = json.loads(out2.read_text())
        assert strip_timing(d1) == strip_timing(d2)
        comp = d1["comparisons"]["one_sided_chebyshev|two_sided_chebyshev"]
        assert comp["max_per_probe_relative_difference"] <= 1e-10
        assert d1["evaluators"]["one_sided_chebyshev"]["total_matvecs"] == 20 * 20
        assert d1["evaluators"]["two_sided_chebyshev"]["total_matvecs"] == 20 * 10
        assert d1["probe_checksum"] == d2["probe_checksum"]

    def test_csv_output(self, tmp_path):
        out = tmp_path / "r.json"
        assert run("estimate", "--synthetic", "20", "--degree", "6",
                   "--probes", "5", "--format", "both", "--out", str(out)) == 0
        lines = (tmp_path / "r.json.csv").read_text().splitlines()
        assert lines[0] == "probe,one_sided_chebyshev,two_sided_chebyshev"
        assert len(lines) == 6

    def test_missing_matrix_is_usage_error(self, tmp_path):
        assert run("estimate", "--out", str(tmp_path / "r.json")) == 1

    def test_unknown_evaluator_is_usage_error(self, tmp_path):
        assert run("estimate", "--synthetic", "10", "--evaluators", "magic",
                   "--out", str(tmp_path / "r.json")) == 1

    @pytest.mark.parametrize("args", [
        ("--degree", "0"),
        ("--probes", "0"),
        ("--function", "sinc"),
        ("--interval", "wide"),
        ("--interval", "1,-1"),
        ("--interval=-inf,inf",),
        ("--evaluators", "two_sided_chebyshev,two_sided_chebyshev"),
        ("--seed", "-1"),
        ("--seed", str(2**64)),
        ("--function", "poly:1,,2"),
        ("--function", "identity:5"),
    ])
    def test_invalid_configuration_is_usage_error(self, tmp_path, capsys, args):
        out = tmp_path / "r.json"
        assert run("estimate", "--synthetic", "10", *args, "--out", str(out)) == 1
        assert "usage error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("interval", ["exact", "power"])
    def test_negative_seed_with_a_matrix_file_is_usage_error(self, tmp_path, capsys, interval):
        mtx = tmp_path / "diag.mtx"
        mtx.write_text("%%MatrixMarket matrix coordinate real symmetric\n"
                       "3 3 2\n1 1 -1.0\n3 3 1.0\n")
        out = tmp_path / "r.json"
        assert run("estimate", "--matrix", str(mtx), "--seed", "-1", "--interval", interval,
                   "--out", str(out)) == 1
        assert "usage error: seed must be >= 0, got -1" in capsys.readouterr().err
        assert not out.exists()

    def test_configuration_is_validated_once(self, tmp_path, monkeypatch):
        calls = []
        validate = bench.BenchConfig.validate
        monkeypatch.setattr(bench.BenchConfig, "validate",
                            lambda cfg: calls.append(cfg) or validate(cfg))
        assert run("estimate", "--synthetic", "10", "--probes", "2",
                   "--out", str(tmp_path / "r.json")) == 0
        assert len(calls) == 1
        with pytest.raises(bench.ConfigError, match="probe count"):
            bench.BenchConfig(synthetic_dim=10, probes=0).validate()

    def test_dense_input_never_imports_scipy(self, tmp_path):
        # SparseSymmetric imports scipy; dense runs must not pay its memory.
        # A fresh interpreter, since other tests import scipy into this one.
        out = str(tmp_path / "r.json")
        code = (
            "import sys\n"
            "from twosided import cli\n"
            f"assert cli.main(['estimate', '--synthetic', '50', '--probes', '5', '--out', {out!r}]) == 0\n"
            f"assert cli.main(['estimate', '--synthetic', '50', '--interval', 'power', '--out', {out!r}]) == 0\n"
            "loaded = [m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]\n"
            "assert not loaded, loaded\n")
        src = str(Path(twosided.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    def test_import_never_loads_concurrent_futures(self):
        # probes run on the calling thread; a fresh interpreter, since pytest
        # itself may have imported concurrent.futures into this one
        code = ("import sys, twosided, twosided.cli\n"
                "assert 'concurrent.futures' not in sys.modules\n")
        src = str(Path(twosided.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    def test_text_files_are_utf8_whatever_the_locale(self, tmp_path):
        # warn_default_encoding warns at every open() that leaves the encoding to the locale
        mtx = tmp_path / "accents.mtx"
        mtx.write_text("%%MatrixMarket matrix coordinate real symmetric\n% Ren\u00e9e\n"
                       "3 3 4\n1 1 2.0\n2 1 -1.0\n2 2 2.0\n3 3 1.5\n", encoding="utf-8")
        out, coeffs = str(tmp_path / "r.json"), str(tmp_path / "c.json")
        code = (
            "from twosided import cli\n"
            "from twosided.chebyshev import load_coefficients\n"
            f"assert cli.main(['estimate', '--matrix', {str(mtx)!r}, '--interval', 'power',"
            f" '--terms', '--format', 'both', '--out', {out!r}]) == 0\n"
            f"assert cli.main(['interpolate', '--function', 'exp_scaled:1', '--degree', '8',"
            f" '--out', {coeffs!r}]) == 0\n"
            f"assert load_coefficients({coeffs!r}).coeffs.size == 9\n")
        src = str(Path(twosided.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run([sys.executable, "-X", "warn_default_encoding",
                               "-W", "error::EncodingWarning", "-c", code],
                              env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    def test_non_finite_matrix_entry_is_validation_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.mtx"
        bad.write_text("%%MatrixMarket matrix coordinate real symmetric\n"
                       "2 2 2\n1 1 1.0\n2 2 nan\n")
        assert run("estimate", "--matrix", str(bad),
                   "--out", str(tmp_path / "r.json")) == 2
        assert "line 4: non-finite value" in capsys.readouterr().err

    def test_bad_matrix_file_is_validation_error(self, tmp_path):
        bad = tmp_path / "bad.mtx"
        bad.write_text("%%MatrixMarket matrix coordinate real symmetric\n2 2 1\n1 1 oops\n")
        assert run("estimate", "--matrix", str(bad),
                   "--out", str(tmp_path / "r.json")) == 2

    def test_nonexistent_matrix_file_is_validation_error(self, tmp_path):
        assert run("estimate", "--matrix", str(tmp_path / "missing.mtx"),
                   "--out", str(tmp_path / "r.json")) == 2

    @pytest.mark.parametrize("text, message", [
        ("", "line 1: empty file"),
        ("%%MatrixMarket matrix coordinate complex symmetric\n1 1 1\n1 1 1.0 0.0\n",
         "line 1: only 'matrix ... real' files are supported"),
        ("%%MatrixMarket matrix dense real symmetric\n1 1\n1.0\n",
         "line 1: unsupported format 'dense'"),
        ("%%MatrixMarket matrix coordinate real skew-symmetric\n1 1 0\n",
         "line 1: unsupported symmetry 'skew-symmetric'"),
        ("%%MatrixMarket matrix coordinate real symmetric\n% only\n% comments\n",
         "line 3: missing size line"),
    ], ids=["empty", "complex", "dense", "skew-symmetric", "no-size-line"])
    def test_unsupported_matrix_file_is_validation_error(self, tmp_path, capsys, text, message):
        bad = tmp_path / "bad.mtx"
        bad.write_text(text)
        out = tmp_path / "r.json"
        assert run("estimate", "--matrix", str(bad), "--out", str(out)) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_empty_size_line_is_validation_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.mtx"
        bad.write_text("%%MatrixMarket matrix coordinate real general\n0 0 0\n")
        assert run("estimate", "--matrix", str(bad),
                   "--out", str(tmp_path / "r.json")) == 2
        assert "line 2: matrix dimension must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("d", [3037000500, 2**63 - 1, 2**64],
                             ids=["isqrt-int64-max-plus-1", "int64-max", "2**64"])
    def test_oversized_coordinate_dimension_is_validation_error(self, tmp_path, capsys, d):
        # row * d + column of some position overflows int64: rejected at the size line
        bad = tmp_path / "bad.mtx"
        bad.write_text(f"%%MatrixMarket matrix coordinate real symmetric\n{d} {d} 1\n1 1 1.0\n")
        out = tmp_path / "r.json"
        assert run("estimate", "--matrix", str(bad), "--out", str(out)) == 2
        assert capsys.readouterr().err == (
            f"error: line 2: matrix dimension {d} is above 3037000499, "
            "past which row * d + column overflows int64\n")
        assert not out.exists()

    @pytest.mark.parametrize("interval", ["power", "exact"])
    def test_multiple_of_identity_is_validation_error(self, tmp_path, capsys, interval):
        mtx = tmp_path / "two.mtx"
        mtx.write_text("%%MatrixMarket matrix coordinate real symmetric\n"
                       "3 3 3\n1 1 2.0\n2 2 2.0\n3 3 2.0\n")
        out = tmp_path / "r.json"
        assert run("estimate", "--matrix", str(mtx), "--interval", interval,
                   "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert "operator is numerically a multiple of the identity, c*I with c = 2\n" in err
        assert not out.exists()

    def test_interval_excluding_a_diagonal_entry_is_validation_error(self, tmp_path, capsys):
        # spectrum about [-13.8, 13.7], diagonal [-3.8, 2.6]: [-1, 1] cannot hold it
        out = tmp_path / "r.json"
        assert run("estimate", "--synthetic", "100", "--interval=-1,1",
                   "--out", str(out)) == 2
        assert "diagonal entry (3,3) = -1.605" in capsys.readouterr().err
        assert not out.exists()

    def test_interval_the_moments_disprove_is_validation_error(self, tmp_path, capsys):
        # [-4, 3] holds the diagonal [-3.77, 2.58] but not the spectrum [-13.8, 13.7]:
        # probe 0 has mu_2 = 556.9 where z.z = 100 bounds every moment
        out = tmp_path / "r.json"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run("estimate", "--synthetic", "100", "--function", "exp_scaled:0.1",
                       "--interval=-4,3", "--probes", "10", "--out", str(out)) == 2
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert ("interval [-4.0, 3.0] does not contain the spectrum: one_sided_chebyshev "
                "probe 0 has |mu_2| = 556.877 above mu_0 = z.z = 100") in capsys.readouterr().err
        assert not out.exists()

    def test_run_stops_at_the_first_evaluator_the_moments_disprove(self, tmp_path, capsys,
                                                                   monkeypatch):
        calls = []
        estimate_trace = bench.estimate_trace
        monkeypatch.setattr(bench, "estimate_trace",
                            lambda *args: calls.append(args[2]) or estimate_trace(*args))
        out = tmp_path / "r.json"
        assert run("estimate", "--synthetic", "300", "--function", "exp_scaled:0.1",
                   "--interval=-14,13", "--probes", "100", "--evaluators",
                   "one_sided_standard,two_sided_standard,one_sided_chebyshev,"
                   "two_sided_chebyshev", "--out", str(out)) == 2
        assert calls == ["one_sided_standard"]
        assert ("interval [-14.0, 13.0] does not contain the spectrum: one_sided_standard "
                "probe 0 has |mu_4| = 389.537 above mu_0 = z.z = 300, which no spectrum "
                "inside it allows") in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("function", ["poly:0,1e306", "poly:1e306"])
    def test_non_finite_estimate_is_validation_error(self, tmp_path, capsys, function):
        out = tmp_path / "r.json"
        assert run("estimate", "--synthetic", "500", "--function", function, "--degree", "4",
                   "--probes", "3", "--out", str(out)) == 2
        assert "one_sided_chebyshev overflows double precision" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("function", ["poly:0,1e200"])
    def test_probe_values_whose_squares_overflow_keep_a_finite_stddev(self, tmp_path, function):
        # probe values near 1e202: their squared deviations overflow, the estimate does not
        out = tmp_path / "r.json"
        assert run("estimate", "--synthetic", "500", "--function", function, "--degree", "4",
                   "--probes", "3", "--out", str(out)) == 0
        for rec in json.loads(out.read_text())["evaluators"].values():
            values = np.array(rec["probe_values"])
            assert rec["sample_stddev"] == pytest.approx(
                1e200 * np.std(values / 1e200, ddof=1), rel=1e-12)

    @pytest.mark.parametrize("interval", ["exact", "power"])
    @pytest.mark.parametrize("scale", ["1e300", "1e306"])
    def test_huge_entries_keep_a_finite_stddev(self, tmp_path, capsys, scale, interval):
        # a 5 x 5 file of N(0, 1) * scale entries and f(x) = x: tr A is finite, the
        # squares of the probe values are not
        rng = np.random.default_rng(0)
        rows, cols = np.tril_indices(5)
        values = float(scale) * rng.standard_normal(rows.size)
        mtx = tmp_path / "huge.mtx"
        mtx.write_text("%%MatrixMarket matrix coordinate real symmetric\n5 5 15\n" + "".join(
            f"{i + 1} {j + 1} {v!r}\n" for i, j, v in zip(rows, cols, values.tolist())))
        out = tmp_path / "r.json"
        assert run("estimate", "--matrix", str(mtx), "--function", "identity",
                   "--interval", interval, "--probes", "10", "--out", str(out)) == 0
        for rec in json.loads(out.read_text())["evaluators"].values():
            assert math.isfinite(rec["mean"]) and math.isfinite(rec["sample_stddev"])
            assert rec["sample_stddev"] > float(scale)

    def test_function_failing_at_an_eigenvalue_is_validation_error(self, tmp_path, capsys):
        mtx = tmp_path / "diag.mtx"
        mtx.write_text("%%MatrixMarket matrix coordinate real symmetric\n"
                       "3 3 2\n1 1 -1.0\n3 3 1.0\n")
        assert run("estimate", "--matrix", str(mtx), "--function", "power:-1", "--degree", "3",
                   "--out", str(tmp_path / "r.json")) == 2
        assert "not finite at eigenvalue x=0.0 (eigenvalue index 1)" in capsys.readouterr().err

    def test_exact_interval_documents_carry_traces(self, tmp_path):
        out = tmp_path / "r.json"
        args = ("estimate", "--synthetic", "30", "--seed", "7", "--function", "exp_scaled:0.3",
                "--probes", "5", "--out", str(out))
        assert run(*args) == 0
        doc = json.loads(out.read_text())
        A = random_symmetric(30, 7)
        eigs = np.linalg.eigvalsh(A.entries)
        assert doc["exact_trace"] == pytest.approx(np.sum(np.exp(0.3 * eigs)), rel=1e-13)
        assert doc["polynomial_trace"] == pytest.approx(doc["exact_trace"], rel=1e-12)
        # bit for bit: the oracle's sum of f, and the interpolant summed over the eigenvalues
        f = resolve("exp_scaled:0.3").fn
        assert doc["exact_trace"] == exact_trace_f(A, f)
        cheb = interpolate(f, 20, Interval(doc["spectral_interval"]["lo"],
                                           doc["spectral_interval"]["hi"]))
        assert doc["polynomial_trace"] == float(np.sum(cheb(eigs)))
        assert run(*args, "--interval=-20,20") == 0
        doc = json.loads(out.read_text())
        assert doc["exact_trace"] is None and doc["polynomial_trace"] is None

    def test_unconverged_power_interval_warns(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "r.json"
        args = ("estimate", "--synthetic", "300", "--degree", "4", "--probes", "2",
                "--out", str(out))
        # degree 4 is far too low for exp_scaled:10 on this spectrum, and the
        # interpolant's Chebyshev tail says so where no eigenvalues are known
        def warned():
            return [line for line in capsys.readouterr().err.splitlines()
                    if line.startswith("warning:")]

        assert run(*args, "--interval", "power") == 0
        lines = warned()
        assert len(lines) == 1 and "interpolant" in lines[0]
        doc = json.loads(out.read_text())
        assert doc["spectral_interval"]["converged"] is True

        estimate_interval = bench.estimate_interval
        monkeypatch.setattr(bench, "estimate_interval",
                            lambda op, **kw: estimate_interval(op, **{**kw, "iters": 2}))
        assert run(*args, "--interval", "power") == 0
        lines = warned()
        assert len(lines) == 2 and "did not converge" in lines[0] and "interpolant" in lines[1]
        doc = json.loads(out.read_text())
        assert doc["spectral_interval"]["converged"] is False
        assert doc["spectral_interval"]["matvecs"] == 2
        assert doc["exact_trace"] is None and doc["polynomial_trace"] is None
        assert run(*args, "--interval", "exact") == 0
        # no Lanczos warning; the measured error, not the tail, judges an exact run
        lines = warned()
        assert len(lines) == 1 and "misses tr f(A)" in lines[0]

    def test_inaccurate_interpolant_warns(self, tmp_path, capsys):
        # exp_scaled:10 at degree 20 on the spectrum of a d = 300 matrix, about [-24.5, 23.9]
        out = tmp_path / "r.json"
        assert run("estimate", "--synthetic", "300", "--probes", "5", "--out", str(out)) == 0
        doc = json.loads(out.read_text())
        error = doc["interpolation_relative_error"]
        assert error == pytest.approx(abs(doc["polynomial_trace"] - doc["exact_trace"])
                                      / doc["exact_trace"], rel=1e-12)   # f > 0
        assert error > 0.1
        warned = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("warning:")]
        assert len(warned) == 1 and "degree-20 interpolant" in warned[0]

    # the small-many benchmark workload's arguments
    SMALL_MANY = ("--synthetic", "200", "--seed", "3", "--function", "exp_scaled:0.5",
                  "--degree", "20", "--probes", "10", "--evaluators",
                  "one_sided_standard,two_sided_standard,one_sided_chebyshev,two_sided_chebyshev",
                  "--terms")

    @pytest.mark.parametrize("args", [
        SMALL_MANY + ("--interval", "exact"),
        SMALL_MANY + ("--interval", "power"),
        SMALL_MANY + ("--interval", "-20,20"),
        # f is a polynomial of the degree: its degree-2n interpolant has no tail
        ("--synthetic", "30", "--function", "identity", "--degree", "1",
         "--interval", "power", "--probes", "5"),
        ("--synthetic", "30", "--function", "poly:1,0,1", "--degree", "2",
         "--interval", "power", "--probes", "5"),
    ], ids=["exact", "power", "-20,20", "identity-power", "poly-power"])
    def test_accurate_interpolant_is_silent(self, tmp_path, capsys, args):
        out = tmp_path / "r.json"
        assert run("estimate", *args, "--out", str(out)) == 0
        assert "warning" not in capsys.readouterr().err
        doc = json.loads(out.read_text())
        assert 0 <= doc["interpolation_tail"] < 1e-6
        error = doc["interpolation_relative_error"]
        if "exact" in args:
            assert 0 <= error < 1e-6
        else:
            assert error is None

    def test_rounding_floor_above_the_estimate_warns(self, tmp_path, capsys):
        # identity on [-1e200, 1e200]: the FFT leaves alpha_0 a rounding residue of
        # about u 1e200, and every probe carries d alpha_0, where tr A = 1.06
        out = tmp_path / "r.json"
        assert run("estimate", "--synthetic", "10", "--interval=-1e200,1e200",
                   "--function", "identity", "--probes", "5", "--out", str(out)) == 0
        warned = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("warning:")]
        assert len(warned) == 1 and "one_sided_chebyshev's rounding floor" in warned[0]
        records = json.loads(out.read_text())["evaluators"]
        assert set(records) == {"one_sided_chebyshev", "two_sided_chebyshev"}
        for rec in records.values():
            assert rec["rounding_floor"] > bench.INTERPOLATION_TOLERANCE * abs(rec["mean"])

    @pytest.mark.parametrize("degree, warns", [("80", True), ("60", False)])
    def test_standard_coefficients_rounding_floor(self, tmp_path, capsys, degree, warns):
        # cheb2poly's coefficients grow like 2^n: the standard routes' floor is 32 times
        # the mean at n = 80 and 2.4e-7 of it at n = 60; the Chebyshev routes' is 2e-13
        args = list(self.SMALL_MANY)
        args[args.index("--degree") + 1] = degree
        out = tmp_path / "r.json"
        assert run("estimate", *args, "--out", str(out)) == 0
        warned = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("warning:")]
        if warns:
            assert len(warned) == 1 and "one_sided_standard's rounding floor" in warned[0]
        else:
            assert warned == []
        records = json.loads(out.read_text())["evaluators"]
        for name, rec in records.items():
            above = rec["rounding_floor"] > bench.INTERPOLATION_TOLERANCE * abs(rec["mean"])
            assert above == (warns and "standard" in name)

    @pytest.mark.parametrize("args", [
        # small-many's arguments on a user interval: p misses tr f(A) by 18.7%
        SMALL_MANY + ("--interval", "-40,40"),
        # exp_scaled:10 at degree 20 on a d = 300 spectrum, about [-24.5, 23.9]
        ("--synthetic", "300", "--interval", "power", "--probes", "10"),
    ], ids=["-40,40", "power"])
    def test_inaccurate_interpolant_tail_warns(self, tmp_path, capsys, args):
        out = tmp_path / "r.json"
        assert run("estimate", *args, "--out", str(out)) == 0
        doc = json.loads(out.read_text())
        assert doc["interpolation_relative_error"] is None
        assert doc["interpolation_tail"] > 1e-6
        warned = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("warning:")]
        assert len(warned) == 1 and "degree-20 interpolant may miss f" in warned[0]
        assert f"sum to {doc['interpolation_tail']:.3g} of its largest" in warned[0]

    @pytest.mark.parametrize("text", [
        "%%MatrixMarket matrix coordinate real symmetric\n"
        "3 3 4\n1 1 1.0e308\n2 2 -5.0e307\n3 3 1.0e307\n2 1 1.0e300\n",
        # the same matrix stored dense, which is scaled in its own entries
        "%%MatrixMarket matrix array real symmetric\n"
        "3 3\n1.0e308\n1.0e300\n0.0\n-5.0e307\n0.0\n1.0e307\n",
    ], ids=["coordinate", "array"])
    def test_matrix_overflowing_its_scaling_is_validation_error(self, tmp_path, capsys, text):
        # entries near the largest double: the interval [-5e307, 1e308] is finite,
        # but 2 a_11 = 2e308 is not
        mtx = tmp_path / "big.mtx"
        mtx.write_text(text)
        out = tmp_path / "r.json"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run("estimate", "--matrix", str(mtx), "--function", "inverse_shifted",
                       "--probes", "3", "--out", str(out)) == 2
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert "scaling the matrix to [-1, 1] overflows double precision" in \
            capsys.readouterr().err
        assert not out.exists()

    def test_standard_coefficients_overflowing_is_validation_error(self, tmp_path, capsys):
        # on [-1, 1] the Chebyshev coefficients of exp(700 x) are finite, but
        # their standard-basis sums are not
        mtx = tmp_path / "diag.mtx"
        mtx.write_text("%%MatrixMarket matrix coordinate real symmetric\n"
                       "2 2 2\n1 1 -1.0\n2 2 1.0\n")
        out = tmp_path / "r.json"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run("estimate", "--matrix", str(mtx), "--function", "exp_scaled:700",
                       "--evaluators", "one_sided_standard", "--out", str(out)) == 2
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert ("converting the Chebyshev coefficients to the standard basis overflows "
                "double precision") in capsys.readouterr().err
        assert not out.exists()

    def test_spectrum_past_half_the_largest_double_reaches_the_scaling(self, tmp_path, capsys):
        # interpolation on [-5e307, 1e308] maps the node 1 to 1e308, not inf; the
        # scaling 2 a_11 = 2e308 is what overflows
        mtx = tmp_path / "big.mtx"
        mtx.write_text("%%MatrixMarket matrix coordinate real symmetric\n"
                       "2 2 2\n1 1 1.0e308\n2 2 -5.0e307\n")
        out = tmp_path / "r.json"
        assert run("estimate", "--matrix", str(mtx), "--function", "poly:1",
                   "--out", str(out)) == 2
        assert "scaling the matrix to [-1, 1] overflows double precision" in \
            capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_polynomial_trace_overflowing_is_validation_error(tmp_path, capsys, fmt):
    # every probe value is finite (about 1.65e307) and tr f(A) is 1.0e307, but
    # tr p(A) summed over the eigenvalues overflows
    out = tmp_path / f"r.{fmt}"
    assert run("estimate", "--synthetic", "50", "--function", "exp_scaled:73.16873945953775",
               "--probes", "3", "--format", fmt, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert "error: tr p(A) is not finite in double precision (inf) for the degree-20 " \
           "interpolant on [" in err
    assert "JSON compliant" not in err
    assert not out.exists()


@pytest.mark.parametrize("args, message", [
    (("interpolate", "--function", "exp_scaled:709", "--degree", "20"),
     "evaluating the degree-20 interpolant on the 1000-point grid overflows double precision"),
    (("interpolate", "--function", "poly:1e308", "--degree", "20"),
     "the Chebyshev coefficients overflow double precision"),
    (("estimate", "--synthetic", "20", "--function", "poly:1e308", "--probes", "3"),
     "the Chebyshev coefficients overflow double precision"),
], ids=["interpolate-evaluation", "interpolate-coefficients", "estimate-coefficients"])
def test_overflow_in_interpolation_is_validation_error(tmp_path, capsys, args, message):
    out = tmp_path / "out.json"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(*args, "--out", str(out)) == 2
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert message in capsys.readouterr().err
    assert not out.exists()


MATRIX_FUNCTIONS = st.one_of(
    st.sampled_from(["identity", "power:2", "power:3", "inverse_shifted", "log_shifted",
                     "exp_scaled:0.5", "exp_scaled:10"]),
    st.floats(10.0, 1000.0).map(lambda c: f"exp_scaled:{c!r}"),
    st.lists(st.floats(-1e300, 1e300), min_size=1, max_size=4).map(
        lambda cs: "poly:" + ",".join(map(repr, cs))),
)


@st.composite
def estimate_arguments(draw, directory):
    """``estimate`` arguments over a small synthetic matrix or a Matrix Market
    file whose entries are scaled by up to 1e300."""
    seed = draw(st.integers(0, 2**16))
    if draw(st.booleans()):
        source = ["--synthetic", str(draw(st.integers(1, 12)))]
    else:
        d = draw(st.integers(2, 8))
        rng = np.random.default_rng(seed)
        scale = 10.0 ** draw(st.integers(-300, 300))
        rows, cols = np.tril_indices(d)
        keep = rng.random(rows.size) < draw(st.floats(0.3, 1.0))
        values = scale * rng.standard_normal(rows.size)
        lines = [f"{i + 1} {j + 1} {v!r}" for i, j, v in
                 zip(rows[keep].tolist(), cols[keep].tolist(), values[keep].tolist())]
        path = directory / f"m{draw(st.integers(0, 10**9))}.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real symmetric\n"
                        f"{d} {d} {len(lines)}\n" + "".join(line + "\n" for line in lines))
        source = ["--matrix", str(path)]
    return ["estimate", *source, "--seed", str(seed),
            "--function", draw(MATRIX_FUNCTIONS),
            "--degree", str(draw(st.integers(1, 8))), "--probes", str(draw(st.integers(1, 4))),
            "--interval", draw(st.sampled_from(["exact", "power"])),
            "--evaluators", "one_sided_standard,two_sided_standard,"
            "one_sided_chebyshev,two_sided_chebyshev"]


@settings(derandomize=True, deadline=None, max_examples=200,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_estimate_never_exits_0_with_a_non_finite_estimate(tmp_path_factory, data):
    directory = tmp_path_factory.mktemp("estimate", numbered=True)
    argv = data.draw(estimate_arguments(directory))
    out = directory / "r.json"
    rc = main([*argv, "--out", str(out)])
    assert rc in (0, 2)
    if rc == 0:
        for rec in json.loads(out.read_text())["evaluators"].values():
            stats = [rec["mean"], *rec["probe_values"]]
            if rec["sample_stddev"] is not None:
                stats.append(rec["sample_stddev"])
            assert all(map(math.isfinite, stats)), argv


class TestReproduceCommand:
    def test_desk_scale(self, tmp_path, capsys):
        out = tmp_path / "rep.json"
        assert run("reproduce", "--dim", "60", "--trials", "10",
                   "--out", str(out)) == 0
        text = capsys.readouterr().out
        assert "aggregate relative difference" in text
        rep = json.loads(out.read_text())
        assert rep["config"] == reproduce_config(60, trials=10, degree=20).as_dict()
        comp = rep["comparisons"]["one_sided_chebyshev|two_sided_chebyshev"]
        assert comp["aggregate_relative_difference"] <= 1e-12
        assert {name: r["total_matvecs"] for name, r in rep["evaluators"].items()} == {
            "one_sided_chebyshev": 200, "two_sided_chebyshev": 100}
        assert f"exact trace f(A):        {rep['exact_trace']:.6e}" in text

    def test_too_small_dim_is_usage_error(self):
        assert run("reproduce", "--dim", "10") == 1

    def test_inaccurate_interpolant_warns_as_estimate_does(self, capsys):
        # at d = 200 the degree-8 interpolant misses tr f(A) by about 1e-3
        assert run("reproduce", "--dim", "200", "--trials", "10", "--degree", "8") == 0
        warned = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("warning:")]
        assert len(warned) == 1 and "degree-8 interpolant" in warned[0]
        assert run("reproduce", "--dim", "60", "--trials", "10") == 0
        assert "warning:" not in capsys.readouterr().err

    @pytest.mark.parametrize("args", [("--trials", "0"), ("--degree", "0")])
    def test_invalid_configuration_is_usage_error(self, args):
        assert run("reproduce", *args) == 1


class TestMatvecCountCommand:
    def test_all_evaluators(self, capsys):
        assert run("matvec-count", "--degree", "21") == 0
        out = capsys.readouterr().out
        assert "one_sided_chebyshev: 21" in out
        assert "two_sided_chebyshev: 11" in out

    def test_single_evaluator(self, capsys):
        assert run("matvec-count", "--degree", "20",
                   "--evaluator", "two-sided-standard") == 0
        assert "two_sided_standard: 10" in capsys.readouterr().out

    def test_degree_zero(self, capsys):
        assert run("matvec-count", "--degree", "0") == 0
        assert capsys.readouterr().out.split() == [
            "one_sided_chebyshev:", "0", "one_sided_standard:", "0",
            "two_sided_chebyshev:", "0", "two_sided_standard:", "0"]

    def test_large_degree_is_computed_not_run(self, capsys):
        t0 = time.perf_counter()
        assert run("matvec-count", "--degree", "1000000") == 0
        assert time.perf_counter() - t0 < 1.0
        assert capsys.readouterr().out.split() == [
            "one_sided_chebyshev:", "1000000", "one_sided_standard:", "1000000",
            "two_sided_chebyshev:", "500000", "two_sided_standard:", "500000"]


@pytest.mark.parametrize("args, message", [
    (("estimate", "--synthetic", "0"), "synthetic dimension must be >= 1"),
    (("estimate", "--synthetic", "10", "--evaluators", ","),
     "at least one evaluator must be selected"),
    (("interpolate", "--function", "identity", "--degree", "0"), "degree must be >= 1"),
    (("matvec-count", "--degree", "-1"), "degree must be >= 0"),
    (("matvec-count", "--degree", "3", "--evaluator", "bogus"), "unknown evaluator 'bogus'; "
     "choose from one_sided_chebyshev, one_sided_standard, two_sided_chebyshev, "
     "two_sided_standard"),
], ids=["estimate-synthetic-0", "estimate-no-evaluator", "interpolate-degree-0",
        "matvec-count-degree-minus-1", "matvec-count-unknown-evaluator"])
def test_option_out_of_range_is_usage_error(tmp_path, capsys, args, message):
    out = tmp_path / "r.json"
    extra = ("--out", str(out)) if args[0] != "matvec-count" else ()
    assert run(*args, *extra) == 1
    assert capsys.readouterr().err == f"usage error: {message}\n"
    assert not out.exists()


def test_no_subcommand_is_usage_error():
    assert run() == 1


def test_click_exception_is_validation_error(tmp_path, monkeypatch, capsys):
    def fail(cfg):
        raise click.ClickException("boom")
    monkeypatch.setattr(cli, "run_estimate", fail)
    assert run("estimate", "--synthetic", "10", "--out", str(tmp_path / "r.json")) == 2
    assert capsys.readouterr().err == "Error: boom\n"


@pytest.mark.parametrize("interrupt", [KeyboardInterrupt, EOFError])
def test_interrupt_exits_1(tmp_path, monkeypatch, interrupt):
    # click turns both into click.Abort
    def stop(cfg):
        raise interrupt
    monkeypatch.setattr(cli, "run_estimate", stop)
    assert run("estimate", "--synthetic", "10", "--out", str(tmp_path / "r.json")) == 1


def test_module_runs_as_a_script():
    src = str(Path(twosided.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-m", "twosided.cli", "matvec-count", "--degree", "4"],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["one_sided_chebyshev: 4", "one_sided_standard: 4",
                                        "two_sided_chebyshev: 2", "two_sided_standard: 2"]
