"""Chebyshev polynomials of the first kind: nodes, interpolation, scalar
evaluation, interval transforms, and coefficient file I/O."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "STANDARD",
    "CHEBYSHEV",
    "Interval",
    "PolynomialCoefficients",
    "chebyshev_nodes",
    "interpolate",
    "eval_scalar",
    "save_coefficients",
    "load_coefficients",
]

STANDARD = "standard"
CHEBYSHEV = "chebyshev"


@dataclass(frozen=True)
class Interval:
    """Closed interval [a, b] with a < b."""

    a: float
    b: float

    def __post_init__(self):
        if not self.a < self.b:
            raise ValueError(f"interval requires a < b, got [{self.a}, {self.b}]")

    def to_canonical(self, x):
        """Affine map of [a, b] onto [-1, 1]."""
        return (2.0 * x - self.a - self.b) / (self.b - self.a)

    def from_canonical(self, t):
        """Inverse of :meth:`to_canonical`."""
        return 0.5 * ((self.b - self.a) * t + self.a + self.b)


CANONICAL = Interval(-1.0, 1.0)


@dataclass(frozen=True)
class PolynomialCoefficients:
    """Coefficient list alpha_0..alpha_n in the standard or Chebyshev basis.

    For the Chebyshev basis the interval records where the basis lives;
    arguments are affinely mapped onto [-1, 1] before evaluation.
    """

    basis: str
    coeffs: np.ndarray
    interval: Interval = field(default_factory=lambda: CANONICAL)

    def __post_init__(self):
        if self.basis not in (STANDARD, CHEBYSHEV):
            raise ValueError(f"unknown basis {self.basis!r}")
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


def chebyshev_nodes(n: int) -> np.ndarray:
    """Extremal nodes cos(j*pi/n), j = 0..n, strictly decreasing from 1 to -1."""
    if n < 1:
        raise ValueError(f"node count requires n >= 1, got n={n}")
    return np.cos(np.pi * np.arange(n + 1) / n)


def interpolate(f, n: int, interval: Interval = CANONICAL) -> PolynomialCoefficients:
    """Degree-n Chebyshev interpolant of ``f`` on ``interval``.

    Coefficients come from the type-I discrete cosine sum over the extremal
    nodes, with the first and last summands halved and the first and last
    coefficients halved again. Direct O(n^2) sums; no FFT.
    """
    t = chebyshev_nodes(n)
    x = interval.from_canonical(t)
    fv = np.array([float(f(xi)) for xi in x])
    bad = ~np.isfinite(fv)
    if np.any(bad):
        j = int(np.argmax(bad))
        raise ValueError(f"function value is not finite at node x={x[j]!r} (node index {j})")
    j = np.arange(n + 1)
    C = np.cos(np.pi * np.outer(j, j) / n)
    w = np.ones(n + 1)
    w[0] = w[-1] = 0.5
    alpha = (2.0 / n) * (C @ (w * fv))
    alpha[0] *= 0.5
    alpha[-1] *= 0.5
    return PolynomialCoefficients(CHEBYSHEV, alpha, interval)


def eval_scalar(p: PolynomialCoefficients, x: float) -> float:
    """Evaluate p at x: Clenshaw recurrence for the Chebyshev basis, Horner
    for the standard basis.

    Chebyshev evaluation outside ``p.interval`` is permitted but amounts to
    extrapolation.
    """
    c = p.coeffs
    if p.basis == STANDARD:
        r = 0.0
        for a in c[::-1]:
            r = r * x + a
        return float(r)
    t = p.interval.to_canonical(x)
    b1 = b2 = 0.0
    for a in c[:0:-1]:
        b1, b2 = 2.0 * t * b1 - b2 + a, b1
    return float(t * b1 - b2 + c[0])


def save_coefficients(p: PolynomialCoefficients, path):
    """Write coefficients to a JSON file (round-trip exact for doubles)."""
    doc = {
        "basis": p.basis,
        "interval": [p.interval.a, p.interval.b],
        "coefficients": [float(a) for a in p.coeffs],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def load_coefficients(path) -> PolynomialCoefficients:
    with open(path) as fh:
        doc = json.load(fh)
    a, b = doc["interval"]
    return PolynomialCoefficients(doc["basis"], doc["coefficients"], Interval(a, b))
