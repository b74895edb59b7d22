"""Tests of the benchmark itself: tiny-size runs of every workload, the
correctness checks against tampered result documents, and the contract
between ``run.py`` and ``BENCHMARK.json``.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import copy
import dataclasses
import json
import math
import shutil
import subprocess
import sys

import pytest

import reference
import run
from workloads import ALL_EVALUATORS, WORKLOADS

run.use_checkout_program()

import checks  # noqa: E402  (needs the checkout's src/ on sys.path)
import tracing  # noqa: E402

TINY = {
    "dense-eval": dict(synthetic_dim=60, probes=30),
    "sparse-power": dict(sparse_dim=400, sparse_degree=10, probes=10),
    "small-many": dict(synthetic_dim=20, probes=40),
}
SELF_TIMES = ("cli.self_s", "bench.self_s", "bench.write_s", "operators.acquire_s",
              "operators.matvec_s", "spectrum.self_s", "chebyshev.interpolate_s",
              "hutchinson.probe_s", *(f"quadform.{name}.self_s" for name in ALL_EVALUATORS))


def tiny(name):
    return dataclasses.replace(WORKLOADS[name], **TINY[name])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_untraced_smoke(name, tmp_path):
    record = run.run_workload(tiny(name), seed=3, seconds=0, trace=False, workdir=tmp_path)
    result = record["result"]
    assert result["correct"], record["calls"]
    assert result["attempted"] == run.MIN_CALLS + 1 and result["failed"] == 0   # + warm-up
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END_UNITS
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_smoke(name, tmp_path):
    w = tiny(name)
    record = run.run_workload(w, seed=4, seconds=0, trace=True, workdir=tmp_path)
    result = record["result"]
    assert result["correct"], record["calls"]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == tracing.UNITS
    # one traced call: its self times partition its wall time exactly
    assert math.isclose(sum(metrics[k] for k in SELF_TIMES), metrics["trace.total_s"],
                        rel_tol=1e-9)
    n_two = w.probes * math.ceil(w.degree / 2)
    assert metrics["quadform.two_sided_chebyshev.matvecs"] == n_two
    assert metrics["quadform.matvec_ratio"] == 2.0
    assert metrics["hutchinson.probe_reuse"] == pytest.approx(1 / (len(w.evaluators) + 1))
    assert metrics["operators.matvec_calls"] == (
        metrics["spectrum.interval_matvecs"]
        + sum(metrics[f"quadform.{name}.matvecs"] for name in ALL_EVALUATORS))


@pytest.fixture(scope="module")
def dense_case(tmp_path_factory):
    w = tiny("dense-eval")
    workdir = tmp_path_factory.mktemp("dense")
    out = str(workdir / "result.json")
    call = run.one_call(w.argv(5, {}, out), out, full=False, extra_files=())
    oracle = run.oracle_for(w, 5, {})
    return w, call["doc"], checks.probe_checksum(5, w.dim, w.probes), oracle


def _nan_mean(doc):
    doc["evaluators"]["two_sided_chebyshev"]["mean"] = float("nan")


def _extra_matvec(doc):
    doc["evaluators"]["one_sided_chebyshev"]["total_matvecs"] += 1


def _disagree(doc):
    doc["evaluators"]["two_sided_chebyshev"]["mean"] *= 1 + 1e-8


def _biased(doc):
    for rec in doc["evaluators"].values():
        rec["mean"] += 6 * rec["sample_stddev"] / math.sqrt(rec["m"])


def _checksum(doc):
    doc["probe_checksum"] = "0" * 64


def _narrow_interval(doc):
    doc["spectral_interval"]["hi"] -= 0.5


@pytest.mark.parametrize("tamper", [_nan_mean, _extra_matvec, _disagree, _biased,
                                    _checksum, _narrow_interval])
def test_tampered_document_fails(dense_case, tamper):
    w, doc, expected, oracle = dense_case
    assert checks.check_document(doc, w, expected, oracle) == []
    bad = copy.deepcopy(doc)
    tamper(bad)
    assert checks.check_document(bad, w, expected, oracle)


def test_crashing_call_counts_as_failed(tmp_path, monkeypatch):
    from twosided import cli

    def crash(cfg):
        raise RuntimeError("injected")

    monkeypatch.setattr(cli, "run_estimate", crash)
    record = run.run_workload(tiny("small-many"), seed=1, seconds=0, trace=False, workdir=tmp_path)
    result = record["result"]
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == run.MIN_CALLS + 1
    assert "injected" in record["calls"][0]["failures"][0]


def test_times_are_host_normalised():
    """A call made while the reference ran at half speed reports half its
    raw time and twice its raw throughput; the evaluators are rescaled by
    the reference after the call, the rest by the mean around it."""
    calls = [{"total_s": 2.0, "setup_s": 1.0, "ref_before_s": 0.1, "ref_after_s": 0.3,
              "evaluator_s": {"two_sided_chebyshev": 0.5, "one_sided_chebyshev": 0.5}}]
    metrics = run.untraced_metrics(calls, m=10, nominal_s=0.1, peak_rss_mb=1.0)
    assert metrics["total_s"]["value"] == pytest.approx(1.0)
    assert metrics["setup_s"]["value"] == pytest.approx(0.5)
    assert metrics["probes_per_s.two_sided_chebyshev"]["value"] == pytest.approx(60.0)


@pytest.mark.parametrize("kind", sorted(reference.KINDS))
def test_reference_kernels_time_fixed_work(kind):
    assert kind in reference.NOMINAL_S
    assert reference.KINDS[kind]()() > 0
    assert {w.reference for w in WORKLOADS.values()} <= set(reference.KINDS)


def test_benchmark_json_matches_runner():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.UNITS


def test_refuses_to_run_without_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "small-many",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
