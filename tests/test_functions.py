import math
import re

import pytest

from twosided.functions import UnknownFunctionError, resolve


@pytest.mark.parametrize("spec, label, value", [
    ("identity", "identity", 0.5),
    ("identity:", "identity", 0.5),
    ("exp_scaled:10", "exp_scaled:10", math.exp(5.0)),
    ("exp_scaled:0.16", "exp_scaled:0.16", math.exp(0.08)),
    ("power:2", "power:2", 0.25),
    ("power:0.5", "power:0.5", math.sqrt(0.5)),
    ("inverse_shifted:0.5", "inverse_shifted:0.5", 0.5),
    ("log_shifted:0.5", "log_shifted:0.5", math.log(2.0)),
    ("poly:1,0,0.5", "poly:1,0,0.5", 1.125),
    ("poly:1, 2", "poly:1, 2", 2.0),
])
def test_value_and_label(spec, label, value):
    f = resolve(spec)
    assert f.label == label
    assert f.fn(0.5) == value


@pytest.mark.parametrize("name, value", [("inverse_shifted", 1.0 / 1.51),
                                         ("log_shifted", math.log(1.51))])
@pytest.mark.parametrize("suffix", ["", ":"])
def test_shifted_functions_default_to_eps_1e_2(name, value, suffix):
    f = resolve(name + suffix)
    assert f.label == f"{name}:0.01"
    assert f.fn(0.5) == value


@pytest.mark.parametrize("spec, message", [
    ("poly:1,,2", "empty entry"),
    ("poly:1,2,", "empty entry"),
    ("exp_scaled:,5", "empty entry"),
    ("power:2,", "empty entry"),
    ("identity:5", "identity takes no parameter"),
    ("exp_scaled:1,2", "exp_scaled takes one parameter"),
    ("exp_scaled", "exp_scaled requires a parameter"),
    ("poly:", "poly requires at least one coefficient"),
    ("power:two", "malformed power parameters"),
    ("sinc", "unknown function 'sinc'; choose from exp_scaled, identity, inverse_shifted, "
             "log_shifted, poly, power"),
])
def test_invalid_spec_raises(spec, message):
    with pytest.raises(UnknownFunctionError, match=re.escape(message)):
        resolve(spec)
