"""Stochastic trace estimation with two-sided quadratic-form evaluation.

Computes the moments z^T T_k(A) z (or z^T A^k z), k <= n, of symmetric A, and
so z^T p(A) z, with ceil(n/2) matrix-vector products instead of n, alongside
one-sided baselines, Chebyshev interpolation, Hutchinson trace
estimation, spectral scaling, and a benchmark CLI.
"""

from .chebyshev import (CHEBYSHEV, STANDARD, Interval, PolynomialCoefficients,
                        chebyshev_nodes, interpolate,
                        load_coefficients, save_coefficients)
from .hutchinson import ProbeSequence, TraceEstimate, estimate_trace, exact_trace_f
from .operators import (CountingOperator, DenseSymmetric, SparseSymmetric,
                        SymmetricOperator, load_matrix_market, random_symmetric)
from .quadform import (EVALUATORS, combine, one_sided_chebyshev, one_sided_standard,
                       two_sided_chebyshev, two_sided_standard)
from .spectrum import SpectralInterval, estimate_interval

__version__ = "0.1.0"

__all__ = [
    "CHEBYSHEV", "STANDARD", "Interval", "PolynomialCoefficients",
    "chebyshev_nodes", "interpolate",
    "load_coefficients", "save_coefficients",
    "ProbeSequence", "TraceEstimate", "estimate_trace", "exact_trace_f",
    "CountingOperator", "DenseSymmetric", "SparseSymmetric",
    "SymmetricOperator", "load_matrix_market", "random_symmetric",
    "EVALUATORS", "combine", "one_sided_chebyshev", "one_sided_standard",
    "two_sided_chebyshev", "two_sided_standard",
    "SpectralInterval", "estimate_interval",
]
