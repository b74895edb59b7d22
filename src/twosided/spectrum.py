"""Spectral enclosure by Lanczos with Ritz-residual bounds (Zhou & Li, LAA 2011).

A :class:`SpectralInterval` is a :class:`twosided.chebyshev.Interval` that also
carries the Lanczos run's safety margin, convergence and cost. The same object
maps f's interpolation nodes, and the run's operator is mapped onto [-1, 1], the
domain the Chebyshev evaluators need, by its ``into_scaled(lo, hi)``."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chebyshev import Interval
from .operators import SymmetricOperator

__all__ = ["SpectralInterval", "estimate_interval", "enclosing"]

# quiet in a call of its own, so no errstate is alive at a step's peak; the loop names an overflow
_quiet_matvec = np.errstate(over="ignore", invalid="ignore")(lambda op, v: op.matvec(v))


@dataclass(frozen=True)
class SpectralInterval(Interval):
    """Enclosure [lo, hi] of the spectrum, the interval f is interpolated on.
    ``safety`` is the relative outward margin already applied to the ends;
    ``converged`` is False when Lanczos hit its step cap with loose residual
    bounds (the interval then rests on the margin); ``matvecs`` is its cost."""

    safety: float = 0.0
    converged: bool = True
    matvecs: int = 0


def enclosing(lo: float, hi: float, safety: float = 0.0, converged: bool = True,
              matvecs: int = 0) -> SpectralInterval:
    """[lo, hi] pushed outward by ``safety`` times its half-width; ValueError when it is
    numerically one point c, i.e. the operator is c times I, or wider than the largest double."""
    if hi - lo <= 1e-14 * max(abs(lo), abs(hi)):
        raise ValueError("degenerate spectral interval: operator is numerically a multiple "
                         f"of the identity, c*I with c = {0.5 * (lo + hi):.15g}")
    if not np.isfinite(hi - lo):
        raise ValueError(f"the spectrum [{lo!r}, {hi!r}] is wider than the largest double")
    margin = 0.5 * safety * (hi - lo)
    return SpectralInterval(lo - margin, hi + margin, safety, converged, matvecs)


def estimate_interval(op: SymmetricOperator, iters: int = 1000, tol: float = 1e-4,
                      seed: int = 0, safety: float = 0.01) -> SpectralInterval:
    """Enclose the spectrum by at most min(iters, dim) Lanczos steps, one matvec each.

    The plain three-term recurrence keeps only the tridiagonal T_k (``alpha``,
    ``beta``). With T_k's extreme eigenpairs (theta, s), the residual bound is
    r = |s_k| beta_k and the enclosure [theta_min - r_min, theta_max + r_max],
    widened by ``safety``. The run converges once max(r_min, r_max) <= tol
    (theta_max - theta_min), checked on a geometric schedule. The default tol
    is one hundredth of the default 1% ``safety``, so r is at most 2% of the
    margin on each side: a tighter tol buys digits that the margin covers
    anyway, for about half as many matvecs again. At a breakdown
    (beta_k = 0) T_k's eigenvalues are exact, but the start vector may lie in
    an invariant subspace: the run restarts once from a fresh random vector and ends at
    the second breakdown. A multiple of I, dimension 0 and an overflow raise ValueError."""
    if iters < 1 or op.dim < 1:
        raise ValueError(f"iters and the dimension must be >= 1, got {iters} and {op.dim}")
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    rng, steps = np.random.default_rng(seed), min(iters, op.dim)
    alpha, beta = np.zeros(steps), np.zeros(steps)
    v_prev, b, scale, breakdowns, check = np.zeros(op.dim), 0.0, 0.0, 0, 10
    for k in range(1, steps + 1):
        if b == 0.0:   # first step, or after a breakdown
            v = rng.standard_normal(op.dim)
            v /= np.linalg.norm(v)
        w = _quiet_matvec(op, v) - b * v_prev
        a, b = _projected(v, w)
        if not (np.isfinite(a) and np.isfinite(b)):
            raise ValueError(f"Lanczos step {k}'s matvec overflows double precision")
        scale = max(scale, abs(a), b)
        if b <= 1e-13 * scale:
            b, breakdowns = 0.0, breakdowns + 1
        alpha[k - 1], beta[k - 1] = a, b
        if breakdowns == 2 or k in (check, steps):
            T = np.diag(alpha[:k])
            T.flat[k::k + 1] = beta[:k - 1]   # subdiagonal; eigh reads the lower triangle
            theta, s = np.linalg.eigh(T)
            r_min, r_max = b * np.abs(s[-1, [0, -1]])
            converged = bool(max(r_min, r_max) <= tol * (theta[-1] - theta[0]))
            if breakdowns == 2 or k == steps or (converged and b):
                break
            check = k + max(10, k // 4)
        if b:
            v_prev, v = v, w / b
    return enclosing(float(theta[0] - r_min), float(theta[-1] + r_max), safety, converged, k)


@np.errstate(over="ignore", invalid="ignore")
def _projected(v: np.ndarray, w: np.ndarray) -> tuple[float, float]:
    """a = v^T w and the norm b of w - a v, which overwrites ``w``; b is rescaled by max |w_i|
    when the sum of squares may have overflowed or underflowed, as for entries near 1e+-300."""
    a = float(v @ w)
    w -= a * v
    b = float(np.linalg.norm(w))
    if not 1e-140 < b < 1e140:
        top = float(np.max(np.abs(w)))
        b = top * float(np.linalg.norm(w / top)) if top else 0.0
    return a, b
