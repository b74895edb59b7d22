import json
import time

import numpy as np
import pytest

from twosided.bench import reproduce_config
from twosided.chebyshev import load_coefficients
from twosided.cli import main
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


@pytest.mark.parametrize("args, where", [
    (("interpolate", "--function", "exp_scaled:1000", "--degree", "4"),
     "node x=1.0 (node index 0)"),
    (("interpolate", "--function", "log_shifted", "--interval=-3,-2", "--degree", "4"),
     "node x=-2.0 (node index 0)"),
    (("interpolate", "--function", "power:-1", "--interval=-1,2", "--degree", "4"),
     "grid point x=0.0 (grid point index 333)"),
    (("estimate", "--synthetic", "10", "--function", "exp_scaled:10", "--interval=-100,100"),
     "node x=1.0 (node index 0); interpolation runs on [-1, 1], the image of [-100.0, 100.0]"),
])
def test_non_finite_function_value_is_validation_error(tmp_path, capsys, args, where):
    out = tmp_path / "out.json"
    assert run(*args, "--out", str(out)) == 2
    assert f"function value is not finite at {where}" in capsys.readouterr().err
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
    ])
    def test_invalid_configuration_is_usage_error(self, tmp_path, capsys, args):
        out = tmp_path / "r.json"
        assert run("estimate", "--synthetic", "10", *args, "--out", str(out)) == 1
        assert "usage error" in capsys.readouterr().err
        assert not out.exists()

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

    def test_empty_size_line_is_validation_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.mtx"
        bad.write_text("%%MatrixMarket matrix coordinate real general\n0 0 0\n")
        assert run("estimate", "--matrix", str(bad),
                   "--out", str(tmp_path / "r.json")) == 2
        assert "line 2: matrix dimension must be >= 1" in capsys.readouterr().err

    def test_interval_excluding_a_diagonal_entry_is_validation_error(self, tmp_path, capsys):
        # spectrum about [-13.8, 13.7], diagonal [-3.8, 2.6]: [-1, 1] cannot hold it
        out = tmp_path / "r.json"
        assert run("estimate", "--synthetic", "100", "--interval=-1,1",
                   "--out", str(out)) == 2
        assert "diagonal entry (3,3) = -1.605" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("function", ["poly:0,1e306", "poly:1e306", "poly:0,1e200"])
    def test_non_finite_estimate_is_validation_error(self, tmp_path, capsys, function):
        out = tmp_path / "r.json"
        assert run("estimate", "--synthetic", "500", "--function", function, "--degree", "4",
                   "--probes", "3", "--out", str(out)) == 2
        assert "one_sided_chebyshev overflows double precision" in capsys.readouterr().err
        assert not out.exists()

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
        eigs = np.linalg.eigvalsh(random_symmetric(30, 7).entries)
        assert doc["exact_trace"] == pytest.approx(np.sum(np.exp(0.3 * eigs)), rel=1e-13)
        assert doc["polynomial_trace"] == pytest.approx(doc["exact_trace"], rel=1e-12)
        assert run(*args, "--interval=-20,20") == 0
        doc = json.loads(out.read_text())
        assert doc["exact_trace"] is None and doc["polynomial_trace"] is None

    def test_unconverged_power_interval_warns(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        args = ("estimate", "--synthetic", "300", "--degree", "4", "--probes", "2",
                "--out", str(out))
        assert run(*args, "--interval", "power") == 0
        warnings = [line for line in capsys.readouterr().err.splitlines()
                    if line.startswith("warning:")]
        assert len(warnings) == 1 and "did not converge" in warnings[0]
        doc = json.loads(out.read_text())
        assert doc["spectral_interval"]["converged"] is False
        assert doc["exact_trace"] is None and doc["polynomial_trace"] is None
        assert run(*args, "--interval", "exact") == 0
        assert "warning" not in capsys.readouterr().err


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


def test_no_subcommand_is_usage_error():
    assert run() == 1
