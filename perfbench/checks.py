"""Correctness checks on ``estimate`` result documents.

Every measured call is checked; a call that fails any check counts as
failed. Oracles (exact spectra) are computed once per run, untimed, from
inputs the benchmark regenerates itself.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

from twosided.hutchinson import ProbeSequence

AGREEMENT_RTOL = 1e-10
CONTAINMENT_RTOL = 1e-10   # of the interval width; exact intervals end on eigenvalues
Z_LIMIT = 5.0


def probe_checksum(seed: int, dim: int, m: int) -> str:
    """SHA-256 over the int8 sign patterns of probes 0..m-1."""
    seq = ProbeSequence(seed, dim)
    h = hashlib.sha256()
    for i in range(m):
        h.update(seq.vector(i).astype(np.int8).tobytes())
    return h.hexdigest()


def _side(name: str) -> str:
    return name.split("_sided")[0]


def _basis(name: str) -> str:
    return name.rsplit("_", 1)[1]


def check_document(doc: dict, workload, expected_checksum: str, oracle: dict) -> list[str]:
    """Return a list of failed-check messages (empty when the document passes)."""
    failures = []
    n, m = workload.degree, workload.probes
    evaluators = doc.get("evaluators", {})
    if sorted(evaluators) != sorted(workload.evaluators):
        return [f"evaluators {sorted(evaluators)} != {sorted(workload.evaluators)}"]
    for name, rec in evaluators.items():
        if not math.isfinite(rec["mean"]):
            failures.append(f"{name}: mean {rec['mean']!r} is not finite")
        want = m * (math.ceil(n / 2) if _side(name) == "two" else n)
        if rec["total_matvecs"] != want:
            failures.append(f"{name}: {rec['total_matvecs']} matvecs, expected {want}")
        if rec["m"] != m:
            failures.append(f"{name}: m = {rec['m']}, expected {m}")
    for a in evaluators:
        for b in evaluators:
            if _basis(a) != _basis(b) or _side(a) != "one" or _side(b) != "two":
                continue
            ma, mb = evaluators[a]["mean"], evaluators[b]["mean"]
            rel = abs(ma - mb) / max(abs(ma), abs(mb), 1e-300)
            if not rel <= AGREEMENT_RTOL:
                failures.append(f"{a} vs {b}: relative difference {rel:.3e} > {AGREEMENT_RTOL:g}")
    if doc.get("probe_checksum") != expected_checksum:
        failures.append("probe_checksum differs from the recomputed ProbeSequence checksum")

    lo, hi = doc["spectral_interval"]["lo"], doc["spectral_interval"]["hi"]
    slack = CONTAINMENT_RTOL * (hi - lo)
    if not lo - slack <= oracle["eig_min"] <= oracle["eig_max"] <= hi + slack:
        failures.append(f"interval [{lo!r}, {hi!r}] does not contain the spectrum "
                        f"[{oracle['eig_min']!r}, {oracle['eig_max']!r}]")
    if "eigenvalues" in oracle:
        exact = trace_of_interpolant(oracle["eigenvalues"], workload.f, lo, hi, n)
        for name, rec in evaluators.items():
            z = (rec["mean"] - exact) / (rec["sample_stddev"] / math.sqrt(m))
            if not abs(z) <= Z_LIMIT:
                failures.append(f"{name}: mean is {z:+.2f} standard errors from tr p(A) = {exact!r}")
    return failures


def trace_of_interpolant(eigenvalues, f, lo: float, hi: float, degree: int) -> float:
    """tr p(A) for a degree-n Chebyshev interpolant p of f on [lo, hi].

    numpy interpolates at first-kind points and the program at extremal
    points; for the smooth functions used here the two interpolants differ
    by far less than one standard error of the estimate.
    """
    p = np.polynomial.Chebyshev.interpolate(f, degree, domain=[lo, hi])
    return float(np.sum(p(eigenvalues)))


def check_csv(path, doc: dict) -> list[str]:
    """The per-probe table holds one row per probe and one column per evaluator."""
    with open(path) as fh:
        rows = fh.read().splitlines()
    names = sorted(doc["evaluators"])
    failures = []
    if rows[0].split(",") != ["probe"] + names:
        failures.append(f"CSV header {rows[0]!r} does not list {names}")
    m = doc["config"]["probes"]
    if len(rows) != m + 1:
        failures.append(f"CSV has {len(rows) - 1} probe rows, expected {m}")
    else:
        last = [float(x) for x in rows[-1].split(",")[1:]]
        want = [doc["evaluators"][name]["probe_values"][-1] for name in names]
        if last != want:
            failures.append("CSV probe values differ from the JSON document")
    return failures
