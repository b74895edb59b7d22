"""Extremal-eigenvalue estimation and affine spectral scaling, so arbitrary
symmetric operators meet the Chebyshev-domain contract (spectrum in [-1, 1])."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operators import SymmetricOperator

__all__ = ["SpectralInterval", "ScaledOperator", "estimate_interval"]


@dataclass(frozen=True)
class SpectralInterval:
    """Estimated enclosure [lo, hi] of the spectrum.

    ``safety`` records the multiplicative outward margin already applied to
    the endpoints; ``converged`` is False when power iteration ran out of
    iterations (the estimates are still usable, just loose).
    """

    lo: float
    hi: float
    safety: float = 0.0
    converged: bool = True

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError(f"spectral interval requires lo < hi, got [{self.lo}, {self.hi}]")


class ScaledOperator(SymmetricOperator):
    """Affine image (2A - (lo + hi) I) / (hi - lo) of an inner operator.

    Maps eigenvalue lam to (2 lam - lo - hi) / (hi - lo); one apply costs
    exactly one inner matvec.
    """

    def __init__(self, inner: SymmetricOperator, interval: SpectralInterval):
        self.inner = inner
        self.interval = interval
        self.dim = inner.dim
        self._shift = interval.lo + interval.hi
        self._width = interval.hi - interval.lo

    def matvec(self, v):
        v = self._check_vector(v)
        return (2.0 * self.inner.matvec(v) - self._shift * v) / self._width


def _power_iteration(apply_fn, dim, iters, tol, rng):
    """Rayleigh-quotient power iteration; returns (eigenvalue, converged)."""
    v = rng.standard_normal(dim)
    v /= np.linalg.norm(v)
    lam = None
    for _ in range(iters):
        w = apply_fn(v)
        lam_new = float(v @ w)
        norm_w = float(np.linalg.norm(w))
        if norm_w == 0.0:
            return 0.0, True
        v = w / norm_w
        if lam is not None and abs(lam_new - lam) <= tol * max(1.0, abs(lam_new)):
            return lam_new, True
        lam = lam_new
    return lam if lam is not None else 0.0, False


def estimate_interval(op: SymmetricOperator, iters: int = 500, tol: float = 1e-10,
                      seed: int = 0, safety: float = 0.01) -> SpectralInterval:
    """Estimate [lambda_min, lambda_max] by shifted power iteration.

    Three sweeps: plain power iteration for the eigenvalue largest in
    magnitude, a sweep on A - mu I to reach the opposite end of the
    spectrum, and a re-sweep shifted by that opposite end to refine the
    first extreme (the shift separates the target from its competitors).
    Each endpoint is then pushed outward by ``safety`` times the half-width.

    Raises ValueError when the spectrum is (numerically) a single point,
    i.e. the operator is a multiple of the identity.
    """
    if iters < 1:
        raise ValueError(f"iters must be >= 1, got {iters}")
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    rng = np.random.default_rng(seed)
    d = op.dim

    mu, conv_a = _power_iteration(op.matvec, d, iters, tol, rng)
    nu, conv_b = _power_iteration(lambda v: op.matvec(v) - mu * v, d, iters, tol, rng)
    opposite = nu + mu
    rho, conv_c = _power_iteration(lambda v: op.matvec(v) - opposite * v, d, iters, tol, rng)
    first = rho + opposite

    lo, hi = sorted((first, opposite))
    if hi - lo < 1e-14 * max(abs(lo), abs(hi), 1.0):
        raise ValueError(
            "degenerate spectral interval: operator is numerically a multiple "
            f"of the identity (estimates {lo!r}, {hi!r})"
        )
    center = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo) * (1.0 + safety)
    return SpectralInterval(center - half, center + half, safety,
                            conv_a and conv_b and conv_c)
