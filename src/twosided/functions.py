"""Registry of scalar functions for trace estimation benchmarks.

Function specs are strings of the form ``name`` or ``name:params``, e.g.
``exp_scaled:10``, ``power:2``, ``inverse_shifted:0.01``, or
``poly:1,0,0.5`` for an explicit standard-basis polynomial. Singular
functions (log, inverse) are shifted so they are finite on [-1, 1]; the
shift epsilon defaults to 1e-2 and is the optional parameter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .chebyshev import STANDARD, PolynomialCoefficients, eval_scalar

__all__ = ["FunctionSpec", "UnknownFunctionError", "resolve"]

_DEFAULT_EPS = 1e-2


class UnknownFunctionError(ValueError):
    """Raised for a function spec not in the registry."""


@dataclass(frozen=True)
class FunctionSpec:
    label: str
    fn: object  # scalar callable


def _parse_floats(params: str, what: str):
    try:
        return [float(t) for t in params.split(",") if t.strip() != ""]
    except ValueError:
        raise UnknownFunctionError(f"malformed {what} parameters: {params!r}") from None


def _one_param(params: str, default, what: str):
    if params == "":
        if default is None:
            raise UnknownFunctionError(f"{what} requires a parameter")
        return default
    vals = _parse_floats(params, what)
    if len(vals) != 1:
        raise UnknownFunctionError(f"{what} takes one parameter, got {params!r}")
    return vals[0]


def resolve(spec: str) -> FunctionSpec:
    """Resolve a ``name[:params]`` spec into a scalar callable."""
    name, _, params = spec.partition(":")
    name = name.strip()
    if name == "identity":
        return FunctionSpec("identity", lambda x: x)
    if name == "exp_scaled":
        c = _one_param(params, None, "exp_scaled")
        return FunctionSpec(f"exp_scaled:{c:g}", lambda x: math.exp(c * x))
    if name == "power":
        p = _one_param(params, None, "power")
        return FunctionSpec(f"power:{p:g}", lambda x: x ** p)
    if name == "inverse_shifted":
        eps = _one_param(params, _DEFAULT_EPS, "inverse_shifted")
        return FunctionSpec(f"inverse_shifted:{eps:g}", lambda x: 1.0 / (x + 1.0 + eps))
    if name == "log_shifted":
        eps = _one_param(params, _DEFAULT_EPS, "log_shifted")
        return FunctionSpec(f"log_shifted:{eps:g}", lambda x: math.log(x + 1.0 + eps))
    if name == "poly":
        coeffs = _parse_floats(params, "poly")
        if not coeffs:
            raise UnknownFunctionError("poly requires at least one coefficient")
        p = PolynomialCoefficients(STANDARD, coeffs)
        return FunctionSpec(f"poly:{params}", lambda x: eval_scalar(p, x))
    raise UnknownFunctionError(f"unknown function {name!r}")
