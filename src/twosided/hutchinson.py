"""Hutchinson trace estimation over the moment evaluators (a probe's value is
sum_k alpha_k mu_k), with counter-based Rademacher probes and a dense
exact-trace oracle."""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .chebyshev import PolynomialCoefficients, function_values
from .operators import CountingOperator, DenseSymmetric, SymmetricOperator
from .quadform import combine, evaluator_basis, lookup

__all__ = [
    "ProbeSequence",
    "TraceEstimate",
    "estimate_trace",
    "exact_trace_f",
]


class ProbeSequence:
    """Index-addressable Rademacher probes in {-1, +1}^d.

    Probe i is a pure function of (seed, i, dim), so the sequence can be
    consumed out of order or concurrently without changing any vector. The
    sign bits of every probe made are kept, d/8 bytes each, so a repeated
    index is unpacked rather than generated again; each call returns a new
    array. The seed is 64 bits, so one outside [0, 2**64) is a ValueError
    rather than another seed's probes, and a negative dim is a ValueError
    when the sequence is made. Seed, dim and index are integers
    (``operator.index``): a float is a TypeError, not truncated to another
    sequence or probe.
    """

    def __init__(self, seed: int, dim: int):
        seed = operator.index(seed)
        if not 0 <= seed < 2**64:
            raise ValueError(f"probe seed must be in [0, 2**64), got {seed}")
        dim = operator.index(dim)
        if dim < 0:
            raise ValueError(f"probe dimension must be non-negative, got {dim}")
        self.seed = seed
        self.dim = dim
        self._bits = {}

    def vector(self, i: int) -> np.ndarray:
        i = operator.index(i)
        if i < 0:
            raise ValueError(f"probe index must be non-negative, got {i}")
        bits = self._bits.get(i)
        if bits is None:
            rng = np.random.default_rng(np.random.SeedSequence([self.seed, i]))
            bits = self._bits[i] = np.packbits(rng.integers(0, 2, size=self.dim))
        return 2.0 * np.unpackbits(bits, count=self.dim) - 1.0


@dataclass
class TraceEstimate:
    """Aggregate of m Hutchinson probes.

    ``mean`` is the probe values summed in index order divided by m; ``sample_stddev`` uses
    the m-1 denominator and is None for m = 1. Row i of the (m, n+1) ``moments`` array is
    probe i's mu_0..mu_n. ``total_matvecs`` is measured: the matvecs the m probes spent.
    """

    mean: float
    sample_stddev: float | None
    m: int
    total_matvecs: int
    probe_values: list[float]
    moments: np.ndarray


def estimate_trace(op: SymmetricOperator, coeffs: PolynomialCoefficients,
                   evaluator: str, m: int, seed) -> TraceEstimate:
    """Hutchinson estimate of trace p(A) using ``m`` probes.

    ``evaluator`` names one of :data:`twosided.quadform.EVALUATORS`, called
    once per probe on ``op`` wrapped in a :class:`~twosided.operators.CountingOperator`,
    whose count is ``total_matvecs``; :func:`~twosided.quadform.combine` weights its moments.
    ``seed`` is an integer probe seed, or a :class:`ProbeSequence` of the
    operator's dimension to draw probes 0..m-1 from, so that several
    estimates can share the probes it has made.
    Probes are evaluated in index order on the calling thread, and the values
    are summed in that order, so the estimate is a pure function of the arguments.
    """
    if m < 1:
        raise ValueError(f"number of probes must be >= 1, got m={m}")
    ev, basis = lookup(evaluator), evaluator_basis(evaluator)
    if coeffs.basis != basis:
        raise ValueError(
            f"{evaluator} requires {basis}-basis coefficients, got {coeffs.basis}")
    seq = seed if isinstance(seed, ProbeSequence) else ProbeSequence(seed, op.dim)
    if seq.dim != op.dim:
        raise ValueError(f"probe sequence of dimension {seq.dim} for an operator of "
                         f"dimension {op.dim}")
    counter = CountingOperator(op)
    moments = np.array([ev(counter, seq.vector(i), coeffs.degree) for i in range(m)])
    values = combine(coeffs, moments).tolist()
    total = 0.0
    for v in values:
        total += v
    stddev = _sample_stddev(values) if m > 1 else None
    return TraceEstimate(total / m, stddev, m, counter.count, values, moments)


def _sample_stddev(values) -> float:
    """np.std with the m-1 denominator, taken of the values over max |value|
    when their squared deviations overflow."""
    with np.errstate(over="ignore", invalid="ignore"):
        s = float(np.std(values, ddof=1))
        if not np.isfinite(s):
            top = float(np.max(np.abs(values)))
            s = top * float(np.std(np.divide(values, top), ddof=1))
    return s


def exact_trace_f(A: DenseSymmetric, f) -> float:
    """Sum of f over all eigenvalues, via full symmetric eigendecomposition: the
    ``np.sum`` of ``function_values`` (a non-finite f is a ValueError), as a result
    document's ``exact_trace``. Verification oracle for desk-scale matrices."""
    return float(np.sum(function_values(f, np.linalg.eigvalsh(A.entries), "eigenvalue")))
