"""Registry of scalar functions for trace estimation benchmarks.

A spec is ``name`` or ``name:p1,p2,...``, every parameter a float and none
empty; ``name:`` is ``name``. ``identity`` takes no parameter; ``exp_scaled:c``,
``power:p``, ``inverse_shifted[:eps]`` and ``log_shifted[:eps]`` take one (the
last two are shifted by eps, default 1e-2, to be finite on [-1, 1]); and
``poly:c0,c1,...`` takes standard-basis coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .chebyshev import STANDARD, PolynomialCoefficients

__all__ = ["FunctionSpec", "UnknownFunctionError", "resolve"]

_DEFAULT_EPS = 1e-2

# name -> (default parameter, or None when it is required; builder of f from it)
_ONE_PARAMETER = {
    "exp_scaled": (None, lambda c: lambda x: math.exp(c * x)),
    "power": (None, lambda p: lambda x: x ** p),
    "inverse_shifted": (_DEFAULT_EPS, lambda eps: lambda x: 1.0 / (x + 1.0 + eps)),
    "log_shifted": (_DEFAULT_EPS, lambda eps: lambda x: math.log(x + 1.0 + eps)),
}

_NAMES = sorted(["identity", "poly", *_ONE_PARAMETER])


class UnknownFunctionError(ValueError):
    """Raised for a function spec not in the registry."""


@dataclass(frozen=True)
class FunctionSpec:
    label: str
    fn: object  # scalar callable


def _parameters(name: str, params: str) -> list[float]:
    """The floats of a comma-separated parameter list; none for ``""``."""
    tokens = params.split(",") if params else []
    if any(t.strip() == "" for t in tokens):
        raise UnknownFunctionError(f"{name} parameters {params!r} hold an empty entry")
    try:
        return [float(t) for t in tokens]
    except ValueError:
        raise UnknownFunctionError(f"malformed {name} parameters: {params!r}") from None


def resolve(spec: str) -> FunctionSpec:
    """Resolve a ``name[:p1,p2,...]`` spec into a scalar callable."""
    name, _, params = spec.partition(":")
    name = name.strip()
    if name not in _NAMES:
        raise UnknownFunctionError(f"unknown function {name!r}; choose from {', '.join(_NAMES)}")
    values = _parameters(name, params)
    if name == "identity":
        if values:
            raise UnknownFunctionError(f"identity takes no parameter, got {params!r}")
        return FunctionSpec("identity", lambda x: x)
    if name == "poly":
        if not values:
            raise UnknownFunctionError("poly requires at least one coefficient")
        return FunctionSpec(f"poly:{params}", PolynomialCoefficients(STANDARD, values))
    default, build = _ONE_PARAMETER[name]
    if not values and default is None:
        raise UnknownFunctionError(f"{name} requires a parameter")
    if len(values) > 1:
        raise UnknownFunctionError(f"{name} takes one parameter, got {params!r}")
    value = values[0] if values else default
    return FunctionSpec(f"{name}:{value:g}", build(value))
