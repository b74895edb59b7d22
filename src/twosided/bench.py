"""Benchmark orchestration: matrix acquisition, spectral scaling, paired
evaluator runs over a shared probe sequence, and structured result documents.

All evaluators in one run consume identical probe vectors, so per-probe and
per-term differences between methods reflect arithmetic only. Wall times are
reported but are the only nondeterministic fields in a result document.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import asdict, dataclass

import numpy as np

from .chebyshev import (CANONICAL, CHEBYSHEV, STANDARD, Interval,
                        PolynomialCoefficients, eval_scalar, interpolate)
from .functions import resolve
from .hutchinson import ProbeSequence, estimate_trace
from .operators import CountingOperator, DenseSymmetric, SparseSymmetric, \
    load_matrix_market, random_symmetric
from .quadform import EVALUATORS, evaluator_basis
from .spectrum import ScaledOperator, SpectralInterval, estimate_interval

__all__ = ["BenchConfig", "run_estimate", "reproduce_experiment",
           "write_result", "write_probe_csv", "SCHEMA_VERSION"]

SCHEMA_VERSION = 1

_SMALL_TERM_CUTOFF = 1e-8


@dataclass
class BenchConfig:
    """Configuration for one ``estimate`` run."""

    matrix_path: str | None = None
    synthetic_dim: int | None = None
    seed: int = 0
    function: str = "exp_scaled:10"
    degree: int = 20
    probes: int = 100
    evaluators: tuple = ("one_sided_chebyshev", "two_sided_chebyshev")
    interval: str = "exact"  # "exact" | "power" | "lo,hi"
    terms: bool = False

    def validate(self):
        """Raise ValueError naming the first invalid setting."""
        if (self.matrix_path is None) == (self.synthetic_dim is None):
            raise ValueError("give exactly one of a matrix file or a synthetic dimension")
        if self.synthetic_dim is not None and self.synthetic_dim < 1:
            raise ValueError("synthetic dimension must be >= 1")
        if self.degree < 1:
            raise ValueError("degree must be >= 1")
        if self.probes < 1:
            raise ValueError("probe count must be >= 1")
        for name in self.evaluators:
            if name not in EVALUATORS:
                raise ValueError(
                    f"unknown evaluator {name!r}; choose from {', '.join(sorted(EVALUATORS))}")
        if not self.evaluators:
            raise ValueError("at least one evaluator must be selected")
        resolve(self.function)
        _user_interval(self.interval)

    def as_dict(self):
        return {**asdict(self), "evaluators": list(self.evaluators)}


def _dense_entries(op):
    if isinstance(op, DenseSymmetric):
        return op.entries
    if isinstance(op, SparseSymmetric):
        return op.to_dense().entries
    raise ValueError("exact spectral interval requires a dense or sparse matrix operator")


def _user_interval(spec: str) -> SpectralInterval | None:
    """The explicit 'lo,hi' interval of ``spec``; None for 'exact' and 'power'."""
    if spec in ("exact", "power"):
        return None
    try:
        lo, hi = (float(t) for t in spec.split(","))
    except ValueError:
        raise ValueError(
            f"interval must be 'exact', 'power', or 'lo,hi'; got {spec!r}"
        ) from None
    return SpectralInterval(lo, hi, 0.0)


def _resolve_interval(op, spec: str, seed: int) -> tuple[SpectralInterval, str]:
    if spec == "exact":
        eigs = np.linalg.eigvalsh(_dense_entries(op))
        return SpectralInterval(float(eigs[0]), float(eigs[-1]), 0.0), "exact"
    if spec == "power":
        return estimate_interval(op, iters=1000, tol=1e-12, seed=seed), "power"
    interval = _user_interval(spec)
    # a_ii = e_i^T A e_i is a Rayleigh quotient, so it lies in [lambda_min, lambda_max]
    diag = op.diagonal()
    outside = np.flatnonzero((diag < interval.lo) | (diag > interval.hi))
    if outside.size:
        i = int(outside[0])
        raise ValueError(
            f"interval [{interval.lo!r}, {interval.hi!r}] does not contain the spectrum: "
            f"diagonal entry ({i + 1},{i + 1}) = {float(diag[i])!r} lies outside it")
    return interval, "user"


def _coefficients_for(evaluator_names, fspec, degree, interval: SpectralInterval):
    """Chebyshev coefficients of f composed with the inverse scaling map,
    plus a standard-basis conversion when a standard evaluator is selected."""
    domain = Interval(interval.lo, interval.hi)
    cheb = interpolate(lambda t: fspec.fn(domain.from_canonical(t)), degree, CANONICAL)
    out = {}
    for name in evaluator_names:
        if evaluator_basis(name) == CHEBYSHEV:
            out[name] = cheb
        else:
            std = np.polynomial.chebyshev.cheb2poly(cheb.coeffs)
            std = np.concatenate([std, np.zeros(degree + 1 - std.size)])
            out[name] = PolynomialCoefficients(STANDARD, std)
    return out


def _probe_checksum(seq: ProbeSequence, m: int) -> str:
    h = hashlib.sha256()
    for i in range(m):
        h.update(seq.vector(i).astype(np.int8).tobytes())
    return h.hexdigest()


def _rel_diff(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale > 0 else 0.0


def _paired_run(op, coeffs_by_name, m: int, probe_seed: int, want_terms: bool):
    """Run every evaluator over the same m probes; return per-evaluator
    records, per-probe values/terms, and pairwise comparisons."""
    records = {}
    estimates = {}
    for name, coeffs in coeffs_by_name.items():
        counter = CountingOperator(op)
        t0 = time.perf_counter()
        est = estimate_trace(counter, coeffs, name, m, probe_seed, want_terms=want_terms)
        elapsed = time.perf_counter() - t0
        records[name] = {
            "mean": est.mean,
            "sample_stddev": est.sample_stddev,
            "m": m,
            "total_matvecs": counter.count,
            "probe_values": est.probe_values,
            "wall_time_seconds": elapsed,
        }
        estimates[name] = est

    comparisons = {}
    names = list(coeffs_by_name)
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            comp = {
                "aggregate_relative_difference": _rel_diff(records[a]["mean"],
                                                           records[b]["mean"]),
                "max_per_probe_relative_difference": max(
                    _rel_diff(x, y) for x, y in zip(estimates[a].probe_values,
                                                    estimates[b].probe_values)
                ),
            }
            if want_terms and evaluator_basis(a) == evaluator_basis(b):
                comp.update(_term_comparison(estimates[a].probe_terms,
                                             estimates[b].probe_terms))
            comparisons[f"{a}|{b}"] = comp
    return records, comparisons, _probe_checksum(ProbeSequence(probe_seed, op.dim), m)


def _term_comparison(terms_a, terms_b):
    """Per-term agreement: relative error on significant terms (above
    1e-8 of the largest term magnitude in that probe), absolute error on
    the rest."""
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


def run_estimate(cfg: BenchConfig) -> dict:
    """Execute an ``estimate`` run and return the result document."""
    cfg.validate()
    if cfg.matrix_path is not None:
        op = load_matrix_market(cfg.matrix_path)
    else:
        op = random_symmetric(cfg.synthetic_dim, cfg.seed)
    interval, interval_source = _resolve_interval(op, cfg.interval, cfg.seed)
    scaled = ScaledOperator(op, interval)
    fspec = resolve(cfg.function)
    coeffs_by_name = _coefficients_for(cfg.evaluators, fspec, cfg.degree, interval)
    records, comparisons, checksum = _paired_run(
        scaled, coeffs_by_name, cfg.probes, cfg.seed, cfg.terms)
    return {
        "schema_version": SCHEMA_VERSION,
        "config": cfg.as_dict(),
        "dim": op.dim,
        "function": fspec.label,
        "spectral_interval": {
            "lo": interval.lo,
            "hi": interval.hi,
            "safety": interval.safety,
            "converged": interval.converged,
            "source": interval_source,
        },
        "probe_checksum": checksum,
        "evaluators": records,
        "comparisons": comparisons,
    }


def reproduce_experiment(dim: int = 200, trials: int = 100, degree: int = 20,
                         matrix_seed: int = 2024, probe_seed: int = 1,
                         exp_rate: float = 10.0) -> dict:
    """Paired one-sided vs two-sided Chebyshev benchmark on a synthetic
    symmetric matrix, spectrum scaled exactly to [-1, 1] via dense
    eigendecomposition, with f(x) = exp(rate * x).

    Returns a report with the exact trace of f, both Hutchinson estimates,
    aggregate / per-evaluation / per-term differences between the methods,
    wall times, and matvec counts.
    """
    if dim < 2:
        raise ValueError("reproduction requires dim >= 2")
    A = random_symmetric(dim, matrix_seed)
    eigs = np.linalg.eigvalsh(A.entries)
    interval = SpectralInterval(float(eigs[0]), float(eigs[-1]), 0.0)
    scaled = ScaledOperator(A, interval)
    scaled_eigs = (2.0 * eigs - eigs[0] - eigs[-1]) / (eigs[-1] - eigs[0])

    f = lambda x: math.exp(exp_rate * x)
    exact_trace = float(np.sum(np.exp(exp_rate * scaled_eigs)))
    coeffs = interpolate(f, degree, CANONICAL)
    polynomial_trace = float(sum(eval_scalar(coeffs, lam) for lam in scaled_eigs))

    names = ("one_sided_chebyshev", "two_sided_chebyshev")
    records, comparisons, checksum = _paired_run(
        scaled, {name: coeffs for name in names}, trials, probe_seed, True)
    comp = comparisons["one_sided_chebyshev|two_sided_chebyshev"]
    return {
        "schema_version": SCHEMA_VERSION,
        "dim": dim,
        "degree": degree,
        "trials": trials,
        "function": f"exp_scaled:{exp_rate:g}",
        "matrix_seed": matrix_seed,
        "probe_seed": probe_seed,
        "exact_trace": exact_trace,
        "polynomial_trace": polynomial_trace,
        "probe_checksum": checksum,
        "estimates": {name: records[name]["mean"] for name in names},
        "sample_stddev": {name: records[name]["sample_stddev"] for name in names},
        "total_matvecs": {name: records[name]["total_matvecs"] for name in names},
        "wall_time_seconds": {name: records[name]["wall_time_seconds"] for name in names},
        "aggregate_relative_difference": comp["aggregate_relative_difference"],
        "max_per_evaluation_relative_difference": comp["max_per_probe_relative_difference"],
        "max_per_term_relative_difference": comp["max_per_term_relative_difference"],
        "max_small_term_absolute_difference": comp["max_small_term_absolute_difference"],
    }


def write_result(doc: dict, path):
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def write_probe_csv(doc: dict, path):
    """Per-probe value table: one row per probe, one column per evaluator."""
    names = sorted(doc["evaluators"])
    columns = [doc["evaluators"][n]["probe_values"] for n in names]
    with open(path, "w") as fh:
        fh.write(",".join(["probe"] + names) + "\n")
        for i, row in enumerate(zip(*columns)):
            fh.write(",".join([str(i)] + [repr(v) for v in row]) + "\n")
