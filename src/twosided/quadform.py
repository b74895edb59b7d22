"""Quadratic-form evaluators for s = z^T p(A) z.

Four routes: one-sided and two-sided, in the standard and Chebyshev bases.
One-sided evaluation builds the iterates of p(A) z and needs n matvecs; the
two-sided evaluators exploit symmetry of A (and, in the Chebyshev case, the
product identity T_j T_k = (T_{j+k} + T_{|k-j|}) / 2) to get the same value
with ceil(n/2) matvecs, keeping only the two most recent iterates.

The four routes are two routines, :func:`_one_sided` and :func:`_two_sided`,
bound to a basis. The basis selects only the recurrence step (``A z_j``, or
``2 A z_j - z_{j-1}`` after the first Chebyshev step T_1(A) z = A z) and, on
the two-sided route, the ``2(.) - zeta`` correction that turns an iterate
product into z^T T_k(A) z.

Degenerate degrees for the two-sided route: n = 0 performs no matvec and
returns alpha_0 (z.z); n = 1 performs one matvec and adds alpha_1 (z.Az).
This keeps the matvec count at exactly ceil(n/2) for every degree.

Chebyshev-basis evaluators apply the recurrence to A as given; the caller
is responsible for scaling the operator so its spectrum lies in [-1, 1]
(see :mod:`twosided.spectrum`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .chebyshev import CHEBYSHEV, STANDARD, PolynomialCoefficients
from .operators import SymmetricOperator

__all__ = [
    "EvalReport",
    "one_sided_standard",
    "two_sided_standard",
    "one_sided_chebyshev",
    "two_sided_chebyshev",
    "EVALUATORS",
    "evaluator_basis",
    "matvec_count",
]


@dataclass
class EvalReport:
    """One evaluation of z^T p(A) z: value, matvec count, optional per-term
    contributions alpha_j * (z^T T_j(A) z or z^T A^j z)."""

    value: float
    matvecs: int
    terms: np.ndarray | None = None


def _dot(u, v) -> float:
    return float(np.dot(u, v))


def _start(basis: str, z, coeffs: PolynomialCoefficients):
    """Basis check, z as float64, z.z, and the per-term array holding
    alpha_0 (z.z)."""
    if coeffs.basis != basis:
        raise ValueError(
            f"evaluator requires {basis}-basis coefficients, got {coeffs.basis}"
        )
    z0 = np.asarray(z, dtype=np.float64)
    zeta0 = _dot(z0, z0)
    terms = np.zeros(coeffs.coeffs.size)
    terms[0] = coeffs.coeffs[0] * zeta0
    return z0, zeta0, terms


def _one_sided(basis: str, op: SymmetricOperator, z, coeffs: PolynomialCoefficients,
               want_terms: bool = False) -> EvalReport:
    """Baseline: build z_j = A^j z or T_j(A) z for j = 1..n and accumulate
    alpha_j (z . z_j). Uses n matvecs for a degree-n polynomial."""
    z0, _, terms = _start(basis, z, coeffs)
    a, s = coeffs.coeffs, terms[0]
    cheb = basis == CHEBYSHEV
    zprev, zj = None, z0
    for j in range(1, a.size):
        w = op.matvec(zj)
        zprev, zj = zj, (2.0 * w - zprev if cheb and j > 1 else w)
        terms[j] = t = a[j] * _dot(z0, zj)
        s += t
    return EvalReport(float(s), a.size - 1, terms if want_terms else None)


def _two_sided(basis: str, op: SymmetricOperator, z, coeffs: PolynomialCoefficients,
               want_terms: bool = False) -> EvalReport:
    """Two-sided evaluation: ceil(n/2) matvecs.

    Builds z_j only up to j = ceil(n/2) and recovers every term from
    products of consecutive iterates. Standard basis:
    z^T A^{2j} z = z_j . z_j and z^T A^{2j-1} z = z_{j-1} . z_j.
    Chebyshev basis:
    z^T T_{2j}(A) z = 2 (z_j . z_j) - (z . z) and, for j >= 2,
    z^T T_{2j-1}(A) z = 2 (z_{j-1} . z_j) - (z . Az).
    """
    z0, zeta0, terms = _start(basis, z, coeffs)
    a, s = coeffs.coeffs, terms[0]
    n, half = a.size - 1, a.size // 2
    cheb = basis == CHEBYSHEV
    zprev, zj = None, z0
    for j in range(1, half + 1):
        w = op.matvec(zj)
        zprev, zj = zj, (2.0 * w - zprev if cheb and j > 1 else w)
        odd = _dot(zprev, zj)
        if j == 1:
            zeta1 = odd
        elif cheb:
            odd = 2.0 * odd - zeta1
        terms[2 * j - 1] = t = a[2 * j - 1] * odd
        s += t
        if 2 * j > n:
            break
        even = _dot(zj, zj)
        terms[2 * j] = t = a[2 * j] * (2.0 * even - zeta0 if cheb else even)
        s += t
    return EvalReport(float(s), half, terms if want_terms else None)


one_sided_standard = partial(_one_sided, STANDARD)
two_sided_standard = partial(_two_sided, STANDARD)
one_sided_chebyshev = partial(_one_sided, CHEBYSHEV)
two_sided_chebyshev = partial(_two_sided, CHEBYSHEV)

EVALUATORS = {
    "one_sided_standard": one_sided_standard,
    "two_sided_standard": two_sided_standard,
    "one_sided_chebyshev": one_sided_chebyshev,
    "two_sided_chebyshev": two_sided_chebyshev,
}


def evaluator_basis(name: str) -> str:
    """The coefficient basis the evaluator called ``name`` requires."""
    return CHEBYSHEV if name.endswith("chebyshev") else STANDARD


def matvec_count(name: str, degree: int) -> int:
    """Matvecs the evaluator called ``name`` spends on a degree-``degree``
    polynomial: n one-sided, ceil(n/2) two-sided."""
    return degree if name.startswith("one_sided") else (degree + 1) // 2
