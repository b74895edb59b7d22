"""Chebyshev polynomials of the first kind: nodes, interpolation by one real
FFT, interval transforms, coefficient file I/O, and the package's one series
evaluator, a callable :class:`PolynomialCoefficients`.

:class:`Interval` [lo, hi] carries the affine maps onto and from [-1, 1];
:class:`twosided.spectrum.SpectralInterval` is one, so ``estimate`` interpolates
f on the spectral interval itself."""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "STANDARD",
    "CHEBYSHEV",
    "Interval",
    "PolynomialCoefficients",
    "chebyshev_nodes",
    "interpolate",
    "function_values",
    "save_coefficients",
    "load_coefficients",
]

STANDARD = "standard"
CHEBYSHEV = "chebyshev"


@dataclass(frozen=True)
class Interval:
    """Closed interval [lo, hi] with finite lo < hi."""

    lo: float
    hi: float

    def __post_init__(self):
        if not -math.inf < self.lo < self.hi < math.inf:
            raise ValueError(f"interval requires finite lo < hi, got [{self.lo}, {self.hi}]")

    @classmethod
    def parse(cls, text: str) -> Interval:
        """The interval written 'lo,hi'."""
        try:
            lo, hi = (float(t) for t in text.split(","))
        except ValueError:
            raise ValueError(f"interval must be 'a,b', got {text!r}") from None
        return cls(lo, hi)

    def to_canonical(self, x):
        """Affine map of [lo, hi] onto [-1, 1]: (2 x - (lo + hi)) / (hi - lo), the
        arithmetic the storage operators' ``scaled`` applies to the diagonal."""
        return (2.0 * x - (self.lo + self.hi)) / (self.hi - self.lo)

    def from_canonical(self, t):
        """Inverse of :meth:`to_canonical`: 0.5 ((hi - lo) t + lo + hi), with the ends
        quartered first and the sum doubled last. Scaling by a power of 2 is exact
        for normal numbers, so the value is the same wherever that formula is
        finite, and for t in [-1, 1] no partial sum exceeds 3/4 of the largest
        double."""
        return 2.0 * ((0.25 * self.hi - 0.25 * self.lo) * t + 0.25 * self.lo + 0.25 * self.hi)


CANONICAL = Interval(-1.0, 1.0)


@dataclass(frozen=True)
class PolynomialCoefficients:
    """Coefficient list alpha_0..alpha_n in the standard or Chebyshev basis.
    Calling it evaluates the series at a point or an array: numpy's ``polyval``
    (Horner) for the standard basis, ``chebval`` (Clenshaw) at
    ``interval.to_canonical(x)`` for the Chebyshev basis, whose interval records
    where the basis lives (evaluation outside it amounts to extrapolation).
    Standard coefficients are always of x itself, so their interval must be
    [-1, 1]."""

    basis: str
    coeffs: np.ndarray
    interval: Interval = field(default_factory=lambda: CANONICAL)

    def __post_init__(self):
        if self.basis not in (STANDARD, CHEBYSHEV):
            raise ValueError(f"unknown basis {self.basis!r}")
        if self.basis == STANDARD and (self.interval.lo, self.interval.hi) != (-1.0, 1.0):
            raise ValueError(f"standard-basis coefficients are of x itself, so their interval "
                             f"must be [-1.0, 1.0], got [{self.interval.lo!r}, {self.interval.hi!r}]")
        c = np.atleast_1d(np.asarray(self.coeffs, dtype=np.float64))
        if c.ndim != 1 or c.size == 0:
            raise ValueError("coefficients must be a non-empty 1-d sequence")
        if not np.all(np.isfinite(c)):
            raise ValueError("coefficients must be finite")
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    @property
    def degree(self) -> int:
        return self.coeffs.size - 1

    def __call__(self, x):
        if self.basis == STANDARD:
            return np.polynomial.polynomial.polyval(x, self.coeffs)
        return np.polynomial.chebyshev.chebval(self.interval.to_canonical(x), self.coeffs)


def chebyshev_nodes(n: int) -> np.ndarray:
    """Extremal nodes cos(j*pi/n), j = 0..n, strictly decreasing from 1 to -1."""
    if n < 1:
        raise ValueError(f"node count requires n >= 1, got n={n}")
    return np.cos(np.pi * np.arange(n + 1) / n)


def interpolate(f, n: int, interval: Interval = CANONICAL) -> PolynomialCoefficients:
    """Degree-n Chebyshev interpolant of ``f`` on ``interval``: the type-I DCT of
    its values at the nodes, one real FFT of their even extension (Trefethen,
    *ATAP*, ch. 3), with the end coefficients halved. Halving the values first
    keeps the FFT's sums the size of the direct cosine sum's."""
    fv = function_values(f, interval.from_canonical(chebyshev_nodes(n)))
    with np.errstate(over="ignore", invalid="ignore"):
        alpha = (2.0 / n) * np.fft.rfft(0.5 * np.concatenate([fv, fv[-2:0:-1]])).real
    if not np.all(np.isfinite(alpha)):
        raise ValueError(f"the Chebyshev coefficients overflow double precision: f reaches "
                         f"{float(np.max(np.abs(fv))):.6g} at the nodes")
    alpha[0] *= 0.5
    alpha[-1] *= 0.5
    return PolynomialCoefficients(CHEBYSHEV, alpha, interval)


def function_values(f, x, where: str = "node") -> np.ndarray:
    """``f`` at each point of ``x``; ValueError naming the first point where f
    returns NaN (f is undefined there, as ``x ** 0.5`` at x < 0), or returns
    +-inf or raises an arithmetic or domain error (f is not finite there)."""
    fv = np.empty(len(x))
    with np.errstate(all="ignore"):
        for j, xj in enumerate(x):
            try:
                fv[j] = f(xj)
            except (ArithmeticError, ValueError):
                fv[j] = math.inf
    bad = np.flatnonzero(~np.isfinite(fv))
    if bad.size:
        j = bad[0]
        at = f"{where} x={float(x[j])!r} ({where} index {j})"
        raise ValueError(f"f is undefined at {at}: it returns NaN" if math.isnan(fv[j])
                         else f"function value is not finite at {at}")
    return fv


def save_coefficients(p: PolynomialCoefficients, path):
    """Write coefficients to a JSON file (round-trip exact for doubles)."""
    doc = {
        "basis": p.basis,
        "interval": [p.interval.lo, p.interval.hi],
        "coefficients": [float(a) for a in p.coeffs],
    }
    with open(os.fspath(path), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def load_coefficients(path) -> PolynomialCoefficients:
    with open(os.fspath(path), encoding="utf-8") as fh:
        doc = json.load(fh)
    lo, hi = doc["interval"]
    return PolynomialCoefficients(doc["basis"], doc["coefficients"], Interval(lo, hi))
