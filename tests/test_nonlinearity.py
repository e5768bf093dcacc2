"""Nonlinearity kinds and their growth functionals against closed forms
and grid oracles."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from indefinite_bvp.errors import (ConfigurationError, DomainError,
                                   HypothesisError)
from indefinite_bvp.expressions import quiet_fp
from indefinite_bvp.nonlinearity import (_GRID, NonlinearitySpec, eta,
                                         g_eval, g_vector, gamma_min,
                                         gamma_ratio, limit_estimates)


def test_power_eval():
    g = NonlinearitySpec.power(2)
    assert g_eval(g, 3.0) == 9.0
    assert g_eval(g, 0.0) == 0.0
    assert np.allclose(g_eval(g, np.array([1.0, 2.0])), [1.0, 4.0])


def test_arctan_eval():
    g = NonlinearitySpec.arctan_scaled(100.0)
    assert g_eval(g, 1.0) == pytest.approx(100.0 * math.atan(1.0))
    assert g_eval(g, 0.0) == 0.0


def test_constructor_validation():
    with pytest.raises(ConfigurationError):
        NonlinearitySpec.power(1.0)
    with pytest.raises(ConfigurationError):
        NonlinearitySpec.arctan_scaled(0.0)


@pytest.mark.parametrize("build", [NonlinearitySpec.power,
                                   NonlinearitySpec.arctan_scaled])
@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_constructor_rejects_non_finite_parameter(build, value):
    # an infinite or nan exponent or scale is refused, not run to an
    # empty solution list
    with pytest.raises(ConfigurationError, match="finite"):
        build(value)


def test_negative_argument_rejected():
    g = NonlinearitySpec.power(2)
    with pytest.raises(DomainError):
        g_eval(g, -1.0)


EVERY_KIND = [
    NonlinearitySpec.power(2),
    NonlinearitySpec.arctan_scaled(100.0),
    NonlinearitySpec.from_expression("100*s*atan(s)"),
    NonlinearitySpec.from_expression("s*s - 0.5*s", clamp=True),
    NonlinearitySpec.from_callable(lambda s: s ** 3)]


@pytest.mark.parametrize("g", EVERY_KIND, ids=lambda g: g.kind)
def test_domain_check_every_kind(g):
    # the compiled evaluator serves the RHS; the public one still checks
    with pytest.raises(DomainError):
        g_eval(g, -1e-3)
    with pytest.raises(DomainError):
        g_eval(g, np.array([0.1, -0.1]))


@pytest.mark.parametrize("g", EVERY_KIND, ids=lambda g: g.kind)
def test_g_eval_has_the_bits_of_g_vector(g):
    # g_eval is the compiled vector evaluator behind the domain check, at
    # zeros, subnormals, ordinary values and values that overflow
    s = np.array([0.0, 5e-324, 1e-300, 1e-8, 0.3, 1.0, 7.5, 1e3, 1e200,
                  math.inf])
    with quiet_fp():
        want = g_vector(g)(s)
    assert g_eval(g, s).tobytes() == want.tobytes()
    for x, w in zip(s, want):
        got = g_eval(g, float(x))
        assert isinstance(got, float)
        assert np.float64(got).tobytes() == w.tobytes(), x


def test_g_eval_overflow_gives_no_warning():
    # g_eval runs g inside one floating-point guard: a callable that
    # overflows gives inf and no RuntimeWarning
    g = NonlinearitySpec.from_callable(lambda s: np.expm1(s))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = g_eval(g, np.array([1.0, 1e3]))
        assert g_eval(g, 1e3) == math.inf
    assert out[0] == np.expm1(1.0) and out[1] == math.inf


def test_power_functionals_closed_form():
    g = NonlinearitySpec.power(3)
    r = 0.8
    assert eta(g, r) == pytest.approx(r ** 2)
    assert gamma_ratio(g, r) == pytest.approx((r / 2) ** 2)
    assert gamma_min(g, r, 10.0) == pytest.approx((r / 4) ** 3)
    g0, ginf = limit_estimates(g)
    assert g0 == 0.0 and math.isinf(ginf)


def test_arctan_functionals_closed_form():
    g = NonlinearitySpec.arctan_scaled(100.0)
    r = 0.5
    assert eta(g, r) == pytest.approx(100.0 * math.atan(r))
    assert gamma_ratio(g, r) == pytest.approx(100.0 * math.atan(r / 2))
    assert gamma_min(g, r, 5.0) == \
        pytest.approx(100.0 * (r / 4) * math.atan(r / 4))
    g0, ginf = limit_estimates(g)
    assert g0 == 0.0
    assert ginf == pytest.approx(50.0 * math.pi)


def test_expression_kind_matches_closed_form():
    analytic = NonlinearitySpec.arctan_scaled(100.0)
    grid = NonlinearitySpec.from_expression("100*s*atan(s)")
    r = 0.3
    assert eta(grid, r) == pytest.approx(eta(analytic, r), rel=1e-6)
    assert gamma_ratio(grid, r) == \
        pytest.approx(gamma_ratio(analytic, r), rel=1e-6)
    assert gamma_min(grid, r, 2.0) == \
        pytest.approx(gamma_min(analytic, r, 2.0), rel=1e-6)


def test_growth_extrema_at_a_grid_end_keep_their_bits():
    # for g = 100 s atan(s) the ratio g(s)/s grows and so does g: eta,
    # gamma and the minimum of g sit at an end of their grid, and each is
    # the value of f at that end as the grid evaluates it, bit for bit
    g = NonlinearitySpec.from_expression("100*s*atan(s)")
    r, r_star = 0.3, 2.0
    ratio = lambda s: g_eval(g, s) / s
    ends = [
        (eta(g, r), ratio(np.geomspace(r * 1e-12, r, _GRID))[-1]),
        (gamma_ratio(g, r), ratio(np.linspace(r / 2.0, r, _GRID))[0]),
        (gamma_min(g, r, r_star),
         g_eval(g, np.geomspace(r / 4.0, r_star, _GRID))[0]),
    ]
    for got, want in ends:
        assert np.float64(got).tobytes() == np.float64(want).tobytes()


def test_clamped_expression():
    g = NonlinearitySpec.from_expression("s*s - 0.01", clamp=True)
    assert g_eval(g, 0.05) == 0.0
    assert g_eval(g, 1.0) == pytest.approx(0.99)


def test_validate_rejects_nonpositive():
    g = NonlinearitySpec.from_expression("s - 1")
    with pytest.raises(HypothesisError):
        g.validate()
    NonlinearitySpec.power(2).validate()  # no raise


def test_callable_kind_declared_limits():
    g = NonlinearitySpec.from_callable(lambda s: np.asarray(s) ** 2,
                                       declared_g0=0.0,
                                       declared_ginf=math.inf)
    g0, ginf = limit_estimates(g)
    assert g0 == 0.0 and math.isinf(ginf)


def test_functional_domain_errors():
    g = NonlinearitySpec.power(2)
    with pytest.raises(DomainError):
        eta(g, 0.0)
    with pytest.raises(DomainError):
        gamma_ratio(g, -1.0)
    with pytest.raises(DomainError):
        gamma_min(g, 1.0, 0.1)


@given(st.floats(1e-3, 10.0), st.floats(1.1, 4.0))
@settings(max_examples=40, deadline=None)
def test_eta_monotone_in_r(r, factor):
    g = NonlinearitySpec.arctan_scaled(3.0)
    assert eta(g, r * factor) >= eta(g, r) - 1e-12


@given(st.floats(0.0, 50.0))
@settings(max_examples=50, deadline=None)
def test_g_nonnegative(s):
    g = NonlinearitySpec.arctan_scaled(7.0)
    assert g_eval(g, s) >= 0.0
