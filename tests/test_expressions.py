"""Recursive-descent expression parser: grammar, errors, evaluation."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from indefinite_bvp.errors import ConfigurationError
from indefinite_bvp.expressions import (_FUNCTIONS, Expression,
                                        parse_expression, unguarded)


def test_fig_nonlinearity_text():
    g = parse_expression("max(0, 100*s*atan(abs(s)))")
    assert g(0.0) == 0.0
    for s in (0.1, 1.0, 3.5):
        assert g(s) == pytest.approx(100.0 * s * math.atan(s), rel=1e-15)


def test_sine_value():
    e = parse_expression("sin(2*3.141592653589793*t)")
    assert e(0.25) == pytest.approx(1.0, abs=1e-15)


def test_power_right_associative():
    assert parse_expression("2^3^2")(0.0) == 512.0
    assert parse_expression("(2^3)^2")(0.0) == 64.0


def test_precedence_and_unary():
    assert parse_expression("1 + 2*3")(0.0) == 7.0
    # unary minus binds tighter than '^' in this grammar
    assert parse_expression("-2^2")(0.0) == 4.0
    assert parse_expression("2 - -3")(0.0) == 5.0


def test_constants_and_functions():
    assert parse_expression("pi")(0.0) == pytest.approx(math.pi)
    assert parse_expression("e")(0.0) == pytest.approx(math.e)
    assert parse_expression("min(2, 5)")(0.0) == 2.0
    assert parse_expression("sqrt(4)")(0.0) == 2.0
    assert parse_expression("exp(0)")(0.0) == 1.0
    assert parse_expression("cos(0)")(0.0) == 1.0
    assert parse_expression("arctan(1)")(0.0) == pytest.approx(math.pi / 4)


def test_vectorized_evaluation():
    e = parse_expression("t^2 + 1")
    ts = np.array([0.0, 1.0, 2.0])
    assert np.allclose(e(ts), [1.0, 2.0, 5.0])


def test_division_guarded():
    e = parse_expression("1/t")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert math.isinf(e(0.0))
        assert np.isinf(e(np.array([0.0, 2.0]))[0])


def test_constant_takes_argument_shape():
    out = parse_expression("3.5")(np.zeros(4))
    assert isinstance(out, np.ndarray) and out.shape == (4,)
    assert np.all(out == 3.5)
    assert parse_expression("3.5")(1.0) == 3.5


@pytest.mark.parametrize("src", sorted(
    "%s(%s)" % (name, ", ".join(["t", "2*t - 1"][:arity]))
    for name, (arity, _) in _FUNCTIONS.items()) + ["abs(t)^2.7", "t^3"])
def test_scalar_matches_array_element(src):
    # a float argument gives the bits of the same point of an array
    e = parse_expression(src)
    ts = np.linspace(-3.7, 5.3, 101)
    vec = e(ts)
    for i, t in enumerate(ts):
        assert np.float64(e(float(t))).tobytes() == vec[i].tobytes(), t


EDGE_VALUES = [0.0, -0.0, 1.5, -1.5, math.inf, -math.inf, math.nan,
               -math.nan, 5e-324, -5e-324, 2.2250738585072014e-308,
               -2.225073858507201e-308, np.float64(1.5), np.float64(-0.0),
               0, 1, -2]


@pytest.mark.parametrize("name, ufunc", [("max", np.maximum),
                                         ("min", np.minimum)])
def test_scalar_max_min_are_the_ufuncs(name, ufunc):
    # the scalar branch gives the ufunc's bits on every pair: nan from
    # either side, the second operand on ties (so the sign of zero),
    # infinities, subnormals and int/float mixes
    fn = _FUNCTIONS[name][1]
    for a in EDGE_VALUES:
        for b in EDGE_VALUES:
            got, want = fn(a, b), ufunc(a, b)
            assert np.float64(got).tobytes() == \
                np.float64(want).tobytes(), (a, b)
    assert math.copysign(1.0, fn(0.0, -0.0)) == -1.0
    assert math.copysign(1.0, fn(-0.0, 0.0)) == 1.0


def test_fig1_weight_scalar_matches_vector():
    e = parse_expression("max(sin(3*pi*t), 0) - 7*max(-sin(3*pi*t), 0)")
    ts = np.linspace(0.0, 1.0, 257)
    vec = e(ts)
    fn = unguarded(e)
    for i, t in enumerate(ts):
        assert np.float64(fn(float(t))).tobytes() == vec[i].tobytes(), t


@pytest.mark.parametrize("src", ["__import__('os')", "t.real",
                                 "t.__class__", "(lambda: 1)()",
                                 "exec(t)", "[t]"])
def test_code_injection_rejected_at_parse(src):
    # only the whitelisted grammar reaches the code generator
    with pytest.raises(ConfigurationError):
        parse_expression(src)


def test_variable_tracking():
    assert parse_expression("3.5").variable is None
    assert parse_expression("sin(t)").variable == "t"
    assert parse_expression("s*s").variable == "s"


def test_lexical_error_with_position():
    with pytest.raises(ConfigurationError, match="position"):
        parse_expression("1 + @")


def test_syntax_errors():
    for src in ("1 +", "(1", "sin(", "2 2", "max(1)"):
        with pytest.raises(ConfigurationError):
            parse_expression(src)


def test_unknown_identifier():
    with pytest.raises(ConfigurationError, match="unknown"):
        parse_expression("foo(1)")
    with pytest.raises(ConfigurationError, match="unknown"):
        parse_expression("x + 1")


def test_two_variables_rejected():
    with pytest.raises(ConfigurationError, match="variable"):
        parse_expression("t + s")


def test_repr_round_trip():
    e = Expression("sin(2*t)")
    assert "sin(2*t)" in repr(e)


finite = st.floats(min_value=-1e6, max_value=1e6,
                   allow_nan=False, allow_infinity=False)


@given(finite, finite)
@settings(max_examples=60, deadline=None)
def test_addition_matches_python(a, b):
    src = "(%r) + (%r)" % (a, b)
    assert parse_expression(src)(0.0) == pytest.approx(a + b, abs=1e-9)


@given(finite, finite)
@settings(max_examples=60, deadline=None)
def test_multiplication_matches_python(a, b):
    src = "(%r) * (%r)" % (a, b)
    assert parse_expression(src)(0.0) == pytest.approx(a * b, rel=1e-12,
                                                       abs=1e-12)
