"""Moment evaluators: mu_k = z^T T_k(A) z (or z^T A^k z) for every k <= n.

The moments do not depend on the polynomial; :func:`combine` weights them
into z^T p(A) z = sum_k alpha_k mu_k. Four routes: one-sided and two-sided,
in the standard and Chebyshev bases. One-sided evaluation builds the iterates
of A^k z or T_k(A) z and needs n matvecs; the two-sided evaluators exploit
symmetry of A (and, in the Chebyshev case, the product identity
T_j T_k = (T_{j+k} + T_{|k-j|}) / 2) to get every moment with ceil(n/2)
matvecs, keeping only the two most recent iterates.

The four routes are two routines, :func:`_one_sided` and :func:`_two_sided`,
bound to a basis. The basis selects only the recurrence step (``A z_j``, or
``2 A z_j - z_{j-1}`` after the first Chebyshev step T_1(A) z = A z) and, on
the two-sided route, the ``2(.) - zeta`` correction that turns an iterate
product into z^T T_k(A) z.

Degenerate degrees for the two-sided route: n = 0 performs no matvec and
returns mu_0 = z.z; n = 1 performs one matvec for mu_1 = z.Az. This keeps
the matvec count at exactly ceil(n/2) for every degree.

Chebyshev-basis evaluators apply the recurrence to A as given; the caller
is responsible for scaling the operator so its spectrum lies in [-1, 1]
(see :mod:`twosided.spectrum`).
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .chebyshev import CHEBYSHEV, STANDARD, PolynomialCoefficients
from .operators import SymmetricOperator

__all__ = [
    "one_sided_standard",
    "two_sided_standard",
    "one_sided_chebyshev",
    "two_sided_chebyshev",
    "EVALUATORS",
    "lookup",
    "combine",
    "evaluator_basis",
    "matvec_count",
]


def _one_sided(basis: str, op: SymmetricOperator, z, degree: int) -> np.ndarray:
    """Baseline: build z_k = A^k z or T_k(A) z for k = 1..n and take
    mu_k = z . z_k. Uses n matvecs for degree n."""
    z0 = np.asarray(z, dtype=np.float64)
    mu = np.empty(degree + 1)
    mu[0] = np.dot(z0, z0)
    cheb = basis == CHEBYSHEV
    zprev, zj = None, z0
    for j in range(1, degree + 1):
        w = op.matvec(zj)
        zprev, zj = zj, (2.0 * w - zprev if cheb and j > 1 else w)
        mu[j] = np.dot(z0, zj)
    return mu


def _two_sided(basis: str, op: SymmetricOperator, z, degree: int) -> np.ndarray:
    """Two-sided moments: ceil(n/2) matvecs.

    Builds z_j only up to j = ceil(n/2) and recovers every moment from
    products of consecutive iterates. Standard basis:
    z^T A^{2j} z = z_j . z_j and z^T A^{2j-1} z = z_{j-1} . z_j.
    Chebyshev basis:
    z^T T_{2j}(A) z = 2 (z_j . z_j) - (z . z) and, for j >= 2,
    z^T T_{2j-1}(A) z = 2 (z_{j-1} . z_j) - (z . Az).
    """
    z0 = np.asarray(z, dtype=np.float64)
    mu = np.empty(degree + 1)
    mu[0] = zeta0 = np.dot(z0, z0)
    cheb = basis == CHEBYSHEV
    zprev, zj = None, z0
    for j in range(1, (degree + 1) // 2 + 1):
        w = op.matvec(zj)
        zprev, zj = zj, (2.0 * w - zprev if cheb and j > 1 else w)
        odd = np.dot(zprev, zj)
        if j == 1:
            zeta1 = odd
        elif cheb:
            odd = 2.0 * odd - zeta1
        mu[2 * j - 1] = odd
        if 2 * j <= degree:
            even = np.dot(zj, zj)
            mu[2 * j] = 2.0 * even - zeta0 if cheb else even
    return mu


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


def lookup(name: str):
    """The evaluator called ``name``; ValueError naming the choices if there is none."""
    if name not in EVALUATORS:
        raise ValueError(
            f"unknown evaluator {name!r}; choose from {', '.join(sorted(EVALUATORS))}")
    return EVALUATORS[name]


def combine(coeffs: PolynomialCoefficients, moments):
    """sum_k alpha_k mu_k over the last axis of ``moments``, the terms added
    one by one in k order."""
    return np.add.accumulate(coeffs.coeffs * moments, axis=-1)[..., -1]


def evaluator_basis(name: str) -> str:
    """The coefficient basis the evaluator called ``name`` requires; ValueError
    naming the choices if there is none."""
    lookup(name)
    return CHEBYSHEV if name.endswith("chebyshev") else STANDARD


def matvec_count(name: str, degree: int) -> int:
    """Matvecs the evaluator called ``name`` spends on a degree-``degree``
    polynomial: n one-sided, ceil(n/2) two-sided; ValueError naming the
    choices if there is no such evaluator."""
    lookup(name)
    return degree if name.startswith("one_sided") else (degree + 1) // 2
