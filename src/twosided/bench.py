"""Benchmark orchestration: matrix acquisition, spectral scaling, one
``estimate_trace`` call per selected evaluator over a shared probe sequence,
and structured result documents.

One :class:`~twosided.spectrum.SpectralInterval` serves the whole run: f is
interpolated on it, the operator is scaled by it, and the document records it.
Every probe's moments must satisfy |mu_k| <= mu_0 (within
:data:`MOMENT_TOLERANCE`), or the run stops at the first evaluator that breaks
the bound: the interval misses the spectrum.

All evaluators in one run consume identical probe vectors, so per-probe and
per-term differences between methods reflect arithmetic only. Wall times are
reported but are the only nondeterministic fields in a result document.
"""

from __future__ import annotations

import hashlib
import json
import math
import operator
import os
import time
from dataclasses import asdict, dataclass

import numpy as np

from .chebyshev import CHEBYSHEV, STANDARD, PolynomialCoefficients, function_values, interpolate
from .functions import resolve
from .hutchinson import ProbeSequence, estimate_trace
from .operators import load_matrix_market, random_symmetric
from .quadform import evaluator_basis, lookup
from .spectrum import SpectralInterval, enclosing, estimate_interval

__all__ = ["BenchConfig", "ConfigError", "reproduce_config", "run_estimate", "result_warnings",
           "write_result", "write_probe_csv", "SCHEMA_VERSION", "INTERPOLATION_TOLERANCE",
           "MOMENT_TOLERANCE"]

SCHEMA_VERSION = 1

_SMALL_TERM_CUTOFF = 1e-8

INTERPOLATION_TOLERANCE = 1e-6

MOMENT_TOLERANCE = 1e-6


class ConfigError(ValueError):
    """An invalid ``estimate`` configuration, found before any work starts."""


def _integer(field: str, value) -> int:
    """``value`` read with ``operator.index``, so numpy integers pass; a bool or
    a non-integer is a ConfigError naming ``field``."""
    try:
        if isinstance(value, bool):
            raise TypeError
        return operator.index(value)
    except TypeError:
        raise ConfigError(f"{field} must be an integer, got {value!r}") from None


def _path(value) -> str:
    """``value`` read with ``os.fspath``; anything but a str path is a
    ConfigError, so a file descriptor is never opened as the matrix."""
    try:
        path = os.fspath(value)
    except TypeError:
        path = None
    if not isinstance(path, str):
        raise ConfigError(f"matrix_path must be a str or os.PathLike path, got {value!r}")
    return path


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
        """Raise ConfigError naming the first invalid setting; return the
        resolved :class:`~twosided.functions.FunctionSpec` and the interval,
        'exact', 'power' or the user's parsed :class:`~twosided.spectrum.SpectralInterval`.
        Settings are stored back as plain types (a str path, ints, a tuple of
        names, a bool), so the document records plain JSON."""
        if (self.matrix_path is None) == (self.synthetic_dim is None):
            raise ConfigError("give exactly one of a matrix file or a synthetic dimension")
        if self.matrix_path is not None:
            self.matrix_path = _path(self.matrix_path)
        else:
            self.synthetic_dim = _integer("synthetic_dim", self.synthetic_dim)
        self.seed, self.degree, self.probes = (
            _integer(field, getattr(self, field)) for field in ("seed", "degree", "probes"))
        for field in ("function", "interval"):
            if not isinstance(getattr(self, field), str):
                raise ConfigError(f"{field} must be a str, got {getattr(self, field)!r}")
        if not (isinstance(self.evaluators, (list, tuple))
                and all(isinstance(name, str) for name in self.evaluators)):
            raise ConfigError(f"evaluators must be a list or tuple of str, got {self.evaluators!r}")
        self.evaluators = tuple(self.evaluators)
        if not isinstance(self.terms, (bool, np.bool_)):
            raise ConfigError(f"terms must be a bool, got {self.terms!r}")
        self.terms = bool(self.terms)
        if self.synthetic_dim is not None and self.synthetic_dim < 1:
            raise ConfigError("synthetic dimension must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.seed >= 2**64:
            raise ConfigError(f"seed must be < 2**64, got {self.seed}")
        if self.degree < 1:
            raise ConfigError("degree must be >= 1")
        if self.probes < 1:
            raise ConfigError("probe count must be >= 1")
        try:
            for i, name in enumerate(self.evaluators):
                lookup(name)
                if name in self.evaluators[:i]:
                    raise ValueError(f"evaluator {name!r} is selected more than once")
            if not self.evaluators:
                raise ValueError("at least one evaluator must be selected")
            fspec = resolve(self.function)
            interval = (self.interval if self.interval in ("exact", "power")
                        else SpectralInterval.parse(self.interval))
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        return fspec, interval

    def as_dict(self):
        return {**asdict(self), "evaluators": list(self.evaluators)}


def reproduce_config(dim: int, trials: int, degree: int) -> BenchConfig:
    """The ``reproduce`` preset: f(x) = exp(10 x / sqrt(2 dim)) on ``random_symmetric(dim,
    2024)``, whose semicircle edge sqrt(2 dim) keeps f near e^-10..e^10 at every dim."""
    return BenchConfig(synthetic_dim=dim, seed=2024,
                       function=f"exp_scaled:{10.0 / math.sqrt(2 * dim)!r}",
                       degree=degree, probes=trials, interval="exact", terms=True)


def _resolve_interval(op, interval, seed: int):
    """The spectral interval, its source, and the eigenvalues when exact;
    ``interval`` is what :meth:`BenchConfig.validate` returns for it."""
    if interval == "exact":
        eigs = np.linalg.eigvalsh(op.to_dense().entries)
        return enclosing(float(eigs[0]), float(eigs[-1])), "exact", eigs
    if interval == "power":
        return estimate_interval(op, seed=seed), "power", None
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
    with np.errstate(over="ignore", invalid="ignore"):
        std = np.polynomial.chebyshev.cheb2poly(cheb.coeffs)
    if not np.all(np.isfinite(std)):
        raise ValueError("converting the Chebyshev coefficients to the standard basis "
                         "overflows double precision")
    return PolynomialCoefficients(STANDARD,
                                  np.concatenate([std, np.zeros(cheb.degree + 1 - std.size)]))


def _check_moments(interval: SpectralInterval, name: str, moments: np.ndarray):
    """ValueError when a probe's moments prove that ``interval`` misses the
    spectrum. If the scaled operator S has its spectrum in [-1, 1], then
    |z^T T_k(S) z| and |z^T S^k z| are at most z^T z = mu_0 for every k (the
    kernel polynomial method's moment bound; Weisse, Wellein, Alvermann &
    Fehske, Rev. Mod. Phys. 78, 275, 2006). A NaN moment fails as well."""
    bad = np.argwhere(~(np.abs(moments) <= (1.0 + MOMENT_TOLERANCE) * moments[:, :1]))
    if bad.size:
        i, k = (int(t) for t in bad[0])
        raise ValueError(
            f"interval [{interval.lo!r}, {interval.hi!r}] does not contain the spectrum: "
            f"{name} probe {i} has |mu_{k}| = {abs(float(moments[i, k])):.6g} above "
            f"mu_0 = z.z = {float(moments[i, 0]):.6g}, which no spectrum inside it allows")


def _rounding_floor(coeffs: PolynomialCoefficients, dim: int) -> float:
    """(n+1) u dim sum_k |alpha_k|, u = 2**-53: about how far rounding can move a
    probe's sum_k alpha_k mu_k when every |mu_k| <= mu_0 = dim, as on a scaled
    operator."""
    return (coeffs.degree + 1) * 2.0**-53 * dim * float(np.sum(np.abs(coeffs.coeffs)))


def _probe_checksum(seq: ProbeSequence, m: int) -> str:
    h = hashlib.sha256()
    for i in range(m):
        h.update(seq.vector(i).astype(np.int8).tobytes())
    return h.hexdigest()


def _max_rel_diff(a, b) -> float:
    """The largest |a_i - b_i| / max(|a_i|, |b_i|) over paired values (0 where
    both are 0)."""
    a, b = np.asarray(a), np.asarray(b)
    scale = np.maximum(np.abs(a), np.abs(b))
    rel = np.divide(np.abs(a - b), scale, out=np.zeros(a.size), where=scale > 0)
    return float(rel.max())


def _comparisons(coeffs_by_name, estimates, terms: bool) -> dict:
    """Pairwise agreement of the evaluators' means and probe values, and, with
    ``terms``, of the terms alpha_k mu_k of evaluators that share a basis."""
    comparisons = {}
    names = list(estimates)
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            comp = {
                "aggregate_relative_difference": _max_rel_diff([estimates[a].mean],
                                                               [estimates[b].mean]),
                "max_per_probe_relative_difference": _max_rel_diff(
                    estimates[a].probe_values, estimates[b].probe_values),
            }
            if terms and evaluator_basis(a) == evaluator_basis(b):
                ta, tb = (coeffs_by_name[k].coeffs * estimates[k].moments for k in (a, b))
                comp.update(_term_comparison(ta, tb))
            comparisons[f"{a}|{b}"] = comp
    return comparisons


def _term_comparison(terms_a, terms_b):
    """Per-term agreement of two (m, n+1) term arrays: relative error on
    significant terms (above 1e-8 of the largest term magnitude in that
    probe), absolute error on the rest."""
    ta, tb = np.asarray(terms_a), np.asarray(terms_b)
    mag = np.maximum(np.abs(ta), np.abs(tb))
    diff = np.abs(ta - tb)
    significant = mag > _SMALL_TERM_CUTOFF * mag.max(axis=1, keepdims=True)
    rel = np.divide(diff, mag, out=np.zeros(mag.shape), where=significant)
    return {
        "max_per_term_relative_difference": float(rel.max(initial=0.0)),
        "max_small_term_absolute_difference":
            float(np.where(significant, 0.0, diff).max(initial=0.0)),
    }


def run_estimate(cfg: BenchConfig) -> dict:
    """Execute an ``estimate`` run and return the result document. With the
    exact interval it holds ``exact_trace`` (f summed over the eigenvalues),
    ``polynomial_trace`` (the interpolant, what the estimates are unbiased for)
    and ``interpolation_relative_error``, their difference over the sum of
    |f(lambda_i)|; above :data:`INTERPOLATION_TOLERANCE` the interpolant is
    too coarse for the estimate to stand for tr f(A). Every document holds
    ``interpolation_tail``, sum_{k>n} |beta_k| / max_k |beta_k| over the
    degree-2n interpolant beta of f on the interval (Trefethen, *ATAP*, ch. 8):
    the same verdict where no eigenvalues are known. Each evaluator's record holds
    its ``rounding_floor``; above :data:`INTERPOLATION_TOLERANCE` of |mean|,
    rounding alone may account for the estimate."""
    fspec, interval = cfg.validate()
    if cfg.matrix_path is not None:
        op = load_matrix_market(cfg.matrix_path)
    else:
        op = random_symmetric(cfg.synthetic_dim, cfg.seed)
    interval, interval_source, eigs = _resolve_interval(op, interval, cfg.seed)
    cheb = interpolate(fspec.fn, cfg.degree, interval)
    beta = np.abs(interpolate(fspec.fn, 2 * cfg.degree, interval).coeffs)
    top = float(np.max(beta))
    tail = float(np.sum(beta[cfg.degree + 1:] / top)) if top > 0 else 0.0
    coeffs_by_name = {name: cheb if evaluator_basis(name) == CHEBYSHEV else _standard(cheb)
                      for name in cfg.evaluators}
    exact_trace = polynomial_trace = interpolation_error = None
    with np.errstate(over="ignore", invalid="ignore"):
        if eigs is not None:
            fv = function_values(fspec.fn, eigs, "eigenvalue")
            exact_trace = float(np.sum(fv))
            polynomial_trace = float(np.sum(cheb(eigs)))
            # sum |f(lambda_i)| does not vanish when the trace cancels; it is 0 only
            # when f is, and then the plain difference is reported
            scale, diff = float(np.sum(np.abs(fv))), abs(polynomial_trace - exact_trace)
            interpolation_error = diff / scale if scale > 0 else diff
        op = op.into_scaled(interval.lo, interval.hi)
        # the checksum makes every probe outside the evaluators' timers, which reuse them
        seq = ProbeSequence(cfg.seed, op.dim)
        checksum = _probe_checksum(seq, cfg.probes)
        records, estimates = {}, {}
        for name, coeffs in coeffs_by_name.items():
            t0 = time.perf_counter()
            est = estimate_trace(op, coeffs, name, cfg.probes, seq)
            elapsed = time.perf_counter() - t0
            _check_moments(interval, name, est.moments)
            if not all(map(math.isfinite, [est.mean, est.sample_stddev or 0.0,
                                           *est.probe_values])):
                raise ValueError(f"{name} overflows double precision on this matrix (mean="
                                 f"{est.mean!r}, sample_stddev={est.sample_stddev!r})")
            records[name] = {
                "mean": est.mean,
                "sample_stddev": est.sample_stddev,
                "m": cfg.probes,
                "total_matvecs": est.total_matvecs,
                "probe_values": est.probe_values,
                "wall_time_seconds": elapsed,
                "rounding_floor": _rounding_floor(coeffs, op.dim),
            }
            estimates[name] = est
    for quantity, value in (("tr f(A)", exact_trace), ("tr p(A)", polynomial_trace),
                            ("the interpolation error", interpolation_error)):
        if value is not None and not math.isfinite(value):
            raise ValueError(f"{quantity} is not finite in double precision ({value!r}) for the "
                             f"degree-{cfg.degree} interpolant on [{interval.lo!r}, {interval.hi!r}]")
    return {
        "schema_version": SCHEMA_VERSION,
        "config": cfg.as_dict(),
        "dim": op.dim,
        "function": fspec.label,
        "spectral_interval": {**asdict(interval), "source": interval_source},
        "exact_trace": exact_trace,
        "polynomial_trace": polynomial_trace,
        "interpolation_relative_error": interpolation_error,
        "interpolation_tail": tail,
        "probe_checksum": checksum,
        "evaluators": records,
        "comparisons": _comparisons(coeffs_by_name, estimates, cfg.terms),
    }


def result_warnings(doc: dict):
    """Yield the stderr warning lines of a result document outside its contract."""
    interval = doc["spectral_interval"]
    if not interval["converged"]:
        yield (f"warning: the Lanczos spectral interval did not converge; it rests on its "
               f"{interval['safety']:.0%} safety margin and may not contain the spectrum")
    n, error, tail = (doc["config"]["degree"], doc["interpolation_relative_error"],
                      doc["interpolation_tail"])
    if error is not None and error > INTERPOLATION_TOLERANCE:
        yield (f"warning: the degree-{n} interpolant misses tr f(A) by {error:.3g} of "
               f"sum |f(lambda)| (tolerance {INTERPOLATION_TOLERANCE:g}); the estimates are "
               "of the polynomial trace, raise --degree")
    elif error is None and tail > INTERPOLATION_TOLERANCE:
        yield (f"warning: the degree-{n} interpolant may miss f: the degree-{2 * n} "
               f"interpolant's coefficients past degree {n} sum to {tail:.3g} of its largest "
               f"(tolerance {INTERPOLATION_TOLERANCE:g}); the estimates are of the polynomial "
               "trace, raise --degree")
    for name, rec in doc["evaluators"].items():
        if rec["rounding_floor"] > INTERPOLATION_TOLERANCE * abs(rec["mean"]):
            yield (f"warning: {name}'s rounding floor {rec['rounding_floor']:.3g} exceeds "
                   f"{INTERPOLATION_TOLERANCE:g} of |mean| = {abs(rec['mean']):.3g}; the "
                   "estimate may be rounding error, narrow --interval or lower --degree")
            break


def write_result(doc: dict, path):
    text = json.dumps(doc, indent=1, sort_keys=True, allow_nan=False)
    with open(os.fspath(path), "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def write_probe_csv(doc: dict, path):
    """Per-probe value table: one row per probe, one column per evaluator."""
    names = sorted(doc["evaluators"])
    columns = [doc["evaluators"][n]["probe_values"] for n in names]
    with open(os.fspath(path), "w", encoding="utf-8") as fh:
        fh.write(",".join(["probe"] + names) + "\n")
        for i, row in enumerate(zip(*columns)):
            fh.write(",".join([str(i)] + [repr(v) for v in row]) + "\n")
