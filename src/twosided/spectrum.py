"""Spectral enclosure by Lanczos with Ritz-residual bounds (Zhou & Li, LAA 2011)
and affine scaling, so symmetric operators meet the Chebyshev-domain contract."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operators import DenseSymmetric, SparseSymmetric, SymmetricOperator

__all__ = ["SpectralInterval", "ScaledOperator", "estimate_interval", "enclosing"]


@dataclass(frozen=True)
class SpectralInterval:
    """Enclosure [lo, hi] of the spectrum. ``safety`` is the relative outward
    margin already applied to the ends; ``converged`` is False when Lanczos hit
    its step cap with loose residual bounds (the interval then rests on the
    margin); ``matvecs`` is its cost."""

    lo: float
    hi: float
    safety: float = 0.0
    converged: bool = True
    matvecs: int = 0

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError(f"spectral interval requires lo < hi, got [{self.lo}, {self.hi}]")


def enclosing(lo: float, hi: float, safety: float = 0.0, converged: bool = True,
              matvecs: int = 0) -> SpectralInterval:
    """[lo, hi] pushed outward by ``safety`` times its half-width; ValueError
    when it is numerically one point c, i.e. the operator is c times I."""
    if hi - lo <= 1e-14 * max(abs(lo), abs(hi)):
        raise ValueError("degenerate spectral interval: operator is numerically a multiple "
                         f"of the identity, c*I with c = {0.5 * (lo + hi):.15g}")
    margin = 0.5 * safety * (hi - lo)
    return SpectralInterval(lo - margin, hi + margin, safety, converged, matvecs)


class ScaledOperator(SymmetricOperator):
    """Affine image (2A - (lo + hi) I) / (hi - lo) of an inner operator.

    Maps eigenvalue lam to (2 lam - lo - hi) / (hi - lo); one apply costs
    exactly one inner matvec. A :class:`DenseSymmetric` or
    :class:`SparseSymmetric` inner operator is scaled once, into a stored
    operator of its own class (``stored``; None for any other operator,
    which is scaled on every apply), so that an apply is one stored matvec.
    """

    def __init__(self, inner: SymmetricOperator, interval: SpectralInterval):
        self.inner = inner
        self.interval = interval
        self.dim = inner.dim
        self._shift = interval.lo + interval.hi
        self._width = interval.hi - interval.lo
        self.stored = _stored_scaling(inner, self._shift, self._width)

    def matvec(self, v):
        if self.stored is not None:
            return self.stored.matvec(v)
        v = self._check_vector(v)
        return (2.0 * self.inner.matvec(v) - self._shift * v) / self._width


def _stored_scaling(op: SymmetricOperator, shift: float, width: float):
    """(2 a_ij - shift delta_ij) / width, computed in that order, as an operator
    of ``op``'s class; None when ``op`` is neither dense nor sparse storage.

    A sparse row that stores no diagonal entry gains one, in column order, so
    the copy holds at most dim more entries and is built in O(nnz).
    ValueError when an entry is not finite."""
    if isinstance(op, DenseSymmetric):
        values, diagonal = op.entries.copy(), slice(None, None, op.dim + 1)
    elif isinstance(op, SparseSymmetric):
        indptr, indices, values = op.indptr, op.indices, op.data.copy()
        rows = np.repeat(np.arange(op.dim), np.diff(indptr))
        has_diagonal = np.zeros(op.dim, dtype=bool)
        has_diagonal[rows[indices == rows]] = True
        # offset of each row's diagonal within the row, stored or not
        left = np.bincount(rows[indices < rows], minlength=op.dim)
        if not has_diagonal.all():
            missing = np.flatnonzero(~has_diagonal)
            at = indptr[missing] + left[missing]
            indices, values = np.insert(indices, at, missing), np.insert(values, at, 0.0)
            indptr = indptr + np.concatenate([[0], np.cumsum(~has_diagonal)])
        diagonal = indptr[:-1] + left
    else:
        return None
    flat = values.reshape(-1)
    with np.errstate(over="ignore", invalid="ignore"):
        flat *= 2.0
        flat[diagonal] -= shift
        flat /= width
    if not np.all(np.isfinite(flat)):
        raise ValueError(f"scaling the matrix to [-1, 1] overflows double precision: "
                         f"(2 A - ({shift!r}) I) / {width!r} has an entry that is not finite")
    if isinstance(op, DenseSymmetric):
        return DenseSymmetric(values)
    return SparseSymmetric(op.dim, indptr, indices, values)


def estimate_interval(op: SymmetricOperator, iters: int = 500, tol: float = 1e-10,
                      seed: int = 0, safety: float = 0.01) -> SpectralInterval:
    """Enclose the spectrum by at most min(iters, dim) Lanczos steps, one matvec each.

    The plain three-term recurrence keeps only the tridiagonal T_k (``alpha``,
    ``beta``). With T_k's extreme eigenpairs (theta, s), the residual bound is
    r = |s_k| beta_k and the enclosure [theta_min - r_min, theta_max + r_max],
    widened by ``safety``. The run converges once max(r_min, r_max) <= tol
    (theta_max - theta_min), checked on a geometric schedule. At a breakdown
    (beta_k = 0) T_k's eigenvalues are exact, but the start vector may lie in
    an invariant subspace: the run restarts once from a fresh random vector
    and ends at the second breakdown. A multiple of I raises ValueError."""
    if iters < 1:
        raise ValueError(f"iters must be >= 1, got {iters}")
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    rng, steps = np.random.default_rng(seed), min(iters, op.dim)
    alpha, beta = np.zeros(steps), np.zeros(steps)
    v_prev, b, scale, breakdowns, check = np.zeros(op.dim), 0.0, 0.0, 0, 10
    for k in range(1, steps + 1):
        if b == 0.0:   # first step, or after a breakdown
            v = rng.standard_normal(op.dim)
            v /= np.linalg.norm(v)
        w = op.matvec(v) - b * v_prev
        a = float(v @ w)
        w -= a * v
        b = _norm(w)
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


def _norm(w: np.ndarray) -> float:
    """Euclidean norm of ``w``; rescaled by max |w_i| when the sum of squares
    may have overflowed or underflowed, as for entries near 1e+-300."""
    with np.errstate(over="ignore"):
        b = float(np.linalg.norm(w))
    if not 1e-140 < b < 1e140:
        top = float(np.max(np.abs(w)))
        b = top * float(np.linalg.norm(w / top)) if top else 0.0
    return b
