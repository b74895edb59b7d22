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
                        PolynomialCoefficients, function_values, interpolate)
from .functions import resolve
from .hutchinson import ProbeSequence, estimate_trace
from .operators import CountingOperator, load_matrix_market, random_symmetric
from .quadform import EVALUATORS, evaluator_basis
from .spectrum import ScaledOperator, SpectralInterval, estimate_interval

__all__ = ["BenchConfig", "reproduce_config", "run_estimate",
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


def reproduce_config(dim: int, trials: int = 100, degree: int = 20) -> BenchConfig:
    """The ``reproduce`` preset: f(x) = exp(10 x / sqrt(2 dim)) on ``random_symmetric(dim,
    2024)``, whose semicircle edge sqrt(2 dim) keeps f near e^-10..e^10 at every dim."""
    return BenchConfig(synthetic_dim=dim, seed=2024,
                       function=f"exp_scaled:{10.0 / math.sqrt(2 * dim)!r}",
                       degree=degree, probes=trials, interval="exact", terms=True)


def _user_interval(spec: str) -> SpectralInterval | None:
    """The explicit 'lo,hi' interval of ``spec``; None for 'exact' and 'power'."""
    if spec in ("exact", "power"):
        return None
    domain = Interval.parse(spec)
    return SpectralInterval(domain.a, domain.b, 0.0)


def _resolve_interval(op, spec: str, seed: int) -> tuple[SpectralInterval, str, np.ndarray | None]:
    """The spectral interval, its source, and the eigenvalues when exact."""
    if spec == "exact":
        eigs = np.linalg.eigvalsh(op.to_dense().entries)
        return SpectralInterval(float(eigs[0]), float(eigs[-1]), 0.0), "exact", eigs
    if spec == "power":
        return estimate_interval(op, iters=1000, tol=1e-12, seed=seed), "power", None
    interval = _user_interval(spec)
    # a_ii = e_i^T A e_i is a Rayleigh quotient, so it lies in [lambda_min, lambda_max]
    diag = op.diagonal()
    outside = np.flatnonzero((diag < interval.lo) | (diag > interval.hi))
    if outside.size:
        i = int(outside[0])
        raise ValueError(
            f"interval [{interval.lo!r}, {interval.hi!r}] does not contain the spectrum: "
            f"diagonal entry ({i + 1},{i + 1}) = {float(diag[i])!r} lies outside it")
    return interval, "user", None


def _standard(cheb: PolynomialCoefficients) -> PolynomialCoefficients:
    std = np.polynomial.chebyshev.cheb2poly(cheb.coeffs)
    return PolynomialCoefficients(STANDARD,
                                  np.concatenate([std, np.zeros(cheb.degree + 1 - std.size)]))


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
    """Execute an ``estimate`` run and return the result document. With the
    exact interval it holds ``exact_trace`` (f summed over the eigenvalues) and
    ``polynomial_trace`` (the interpolant, what the estimates are unbiased for)."""
    cfg.validate()
    if cfg.matrix_path is not None:
        op = load_matrix_market(cfg.matrix_path)
    else:
        op = random_symmetric(cfg.synthetic_dim, cfg.seed)
    interval, interval_source, eigs = _resolve_interval(op, cfg.interval, cfg.seed)
    fspec = resolve(cfg.function)
    domain = Interval(interval.lo, interval.hi)
    try:
        cheb = interpolate(lambda t: fspec.fn(domain.from_canonical(t)), cfg.degree, CANONICAL)
    except ValueError as exc:
        raise ValueError(f"{exc}; interpolation runs on [-1, 1], the image of "
                         f"[{interval.lo!r}, {interval.hi!r}]") from None
    coeffs_by_name = {name: cheb if evaluator_basis(name) == CHEBYSHEV else _standard(cheb)
                      for name in cfg.evaluators}
    exact_trace = polynomial_trace = None
    with np.errstate(over="ignore", invalid="ignore"):
        if eigs is not None:
            exact_trace = float(np.sum(function_values(fspec.fn, eigs, "eigenvalue")))
            polynomial_trace = float(np.sum(
                np.polynomial.chebyshev.chebval(domain.to_canonical(eigs), cheb.coeffs)))
        records, comparisons, checksum = _paired_run(
            ScaledOperator(op, interval), coeffs_by_name, cfg.probes, cfg.seed, cfg.terms)
    for name, rec in records.items():
        stats = [rec["mean"], rec["sample_stddev"] or 0.0, *rec["probe_values"]]
        if not all(map(math.isfinite, stats)):
            raise ValueError(f"{name} overflows double precision on this matrix (mean="
                             f"{rec['mean']!r}, sample_stddev={rec['sample_stddev']!r})")
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
        "exact_trace": exact_trace,
        "polynomial_trace": polynomial_trace,
        "probe_checksum": checksum,
        "evaluators": records,
        "comparisons": comparisons,
    }


def write_result(doc: dict, path):
    text = json.dumps(doc, indent=1, sort_keys=True, allow_nan=False)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def write_probe_csv(doc: dict, path):
    """Per-probe value table: one row per probe, one column per evaluator."""
    names = sorted(doc["evaluators"])
    columns = [doc["evaluators"][n]["probe_values"] for n in names]
    with open(path, "w") as fh:
        fh.write(",".join(["probe"] + names) + "\n")
        for i, row in enumerate(zip(*columns)):
            fh.write(",".join([str(i)] + [repr(v) for v in row]) + "\n")
