"""Weight sign patterns, quadrature and k-fold rewriting."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate as sint

from indefinite_bvp.errors import DomainError, PatternError
from indefinite_bvp.weight import (SignPattern, WeightSpec, a_mu,
                                   detect_sign_pattern, evaluate,
                                   integrate_weight, k_fold_pattern,
                                   negative_part, positive_part)

TWO_PI = 2 * math.pi


@pytest.fixture
def sine_weight():
    return WeightSpec.sine(TWO_PI, period=1.0)


def test_sine_pattern(sine_weight):
    pat = detect_sign_pattern(sine_weight)
    assert pat.m == 1
    assert pat.mode == "periodic"
    assert pat.sigma[0] == 0.0
    assert pat.tau[0] == pytest.approx(0.5, abs=1e-10)
    assert pat.sigma[1] == pytest.approx(1.0, abs=1e-12)
    assert pat.origin_shift == pytest.approx(0.0, abs=1e-6)


def test_sin_pm_neumann_pattern():
    w = WeightSpec.sin_pm(3 * math.pi, nu=1.0, mu=7.0, period=1.0)
    pat = detect_sign_pattern(w, periodic=False)
    assert pat.mode == "neumann"
    assert pat.m == 2
    assert pat.pos_intervals()[0] == pytest.approx((0.0, 1.0 / 3.0),
                                                   abs=1e-9)
    assert pat.pos_intervals()[1][0] == pytest.approx(2.0 / 3.0, abs=1e-9)
    # trailing negativity interval is degenerate
    lo, hi = pat.neg_intervals()[-1]
    assert hi - lo == pytest.approx(0.0, abs=1e-9)


def test_neumann_leading_negativity_interval():
    # a Neumann weight that starts negative keeps [0, sigma_1]
    w = WeightSpec.from_expression("-sin(3*pi*t)", 1.0)
    pat = detect_sign_pattern(w, periodic=False)
    assert pat.pos_intervals() == [pytest.approx((1 / 3, 2 / 3), abs=1e-9)]
    neg = pat.neg_intervals()
    assert len(neg) == 2
    assert neg[0] == pytest.approx((0.0, 1 / 3), abs=1e-9)
    assert neg[1] == pytest.approx((2 / 3, 1.0), abs=1e-9)


def test_sin_pm_values():
    w = WeightSpec.sin_pm(3 * math.pi, nu=1.0, mu=7.0, period=1.0)
    assert evaluate(w, 1.0 / 6.0) == pytest.approx(1.0)
    assert evaluate(w, 0.5) == pytest.approx(-7.0)
    assert evaluate(w, 1.0 + 1.0 / 6.0) == pytest.approx(1.0)  # periodic


def test_parts_and_a_mu(sine_weight):
    assert positive_part(sine_weight, 0.25) == pytest.approx(1.0)
    assert negative_part(sine_weight, 0.25) == 0.0
    assert negative_part(sine_weight, 0.75) == pytest.approx(1.0)
    assert a_mu(sine_weight, 5.0, 0.75) == pytest.approx(-5.0)
    with pytest.raises(DomainError):
        a_mu(sine_weight, -1.0, 0.0)


def test_integrate_weight_closed_forms(sine_weight):
    # int of sin+(2 pi t) over one period is 1/pi, same for the minus part
    assert integrate_weight(sine_weight, 0.0, 1.0, part="+") == \
        pytest.approx(1.0 / math.pi, rel=1e-10)
    assert integrate_weight(sine_weight, 0.0, 1.0, part="-") == \
        pytest.approx(1.0 / math.pi, rel=1e-10)
    assert integrate_weight(sine_weight, 0.0, 1.0) == \
        pytest.approx(0.0, abs=1e-12)


def test_integrate_weight_quadrature_oracle():
    w = WeightSpec.from_expression("sin(2*pi*t) + 0.3", period=1.0)
    for lo, hi in ((0.0, 1.0), (0.2, 0.9), (0.5, 2.5)):
        ref, _ = sint.quad(lambda t: max(evaluate(w, t), 0.0), lo, hi,
                           limit=400)
        assert integrate_weight(w, lo, hi, part="+") == \
            pytest.approx(ref, rel=1e-8, abs=1e-10)


def test_table_weight():
    w = WeightSpec.from_table([0.0, 1.0, 3.0], [2.0, -1.0])
    assert evaluate(w, 0.5) == 2.0
    assert evaluate(w, 2.0) == -1.0
    assert evaluate(w, 3.5) == 2.0  # periodic extension
    assert integrate_weight(w, 0.0, 3.0) == pytest.approx(0.0, abs=1e-12)
    pat = detect_sign_pattern(w)
    assert pat.m == 1
    assert pat.tau[0] == pytest.approx(1.0, abs=1e-9)


def test_table_validation():
    with pytest.raises(Exception):
        WeightSpec.from_table([0.0, 1.0], [1.0, 2.0])


def test_shifted_weight(sine_weight):
    w = sine_weight.shifted(0.25)
    assert evaluate(w, 0.0) == pytest.approx(1.0)
    assert evaluate(w, 0.25) == pytest.approx(0.0, abs=1e-12)


def test_constant_sign_rejected():
    w = WeightSpec.from_expression("1 + 0*t", period=1.0)
    with pytest.raises(PatternError):
        detect_sign_pattern(w)


def test_pattern_validation():
    with pytest.raises(PatternError):
        SignPattern(1, (0.0, 1.0), (1.5,))  # tau outside
    with pytest.raises(PatternError):
        SignPattern(2, (0.0, 1.0), (0.5,))  # size mismatch


def test_breakpoints_between(sine_weight):
    pat = detect_sign_pattern(sine_weight)
    pts = pat.breakpoints_between(0.0, 2.0)
    assert pts == pytest.approx([0.5, 1.0, 1.5], abs=1e-9)


def test_k_fold_pattern(sine_weight):
    pat = detect_sign_pattern(sine_weight)
    pat3 = k_fold_pattern(pat, 3)
    assert pat3.m == 3
    assert pat3.period == pytest.approx(3 * pat.period)
    assert pat3.pos_intervals()[2] == pytest.approx((2.0, 2.5), abs=1e-9)
    assert k_fold_pattern(pat, 1) is pat
    with pytest.raises(DomainError):
        k_fold_pattern(pat, 0)


def test_multi_hump_pattern():
    w = WeightSpec.sine(3.0, period=TWO_PI)
    pat = detect_sign_pattern(w)
    # viewed over the full 2 pi window the weight has three humps
    assert pat.m == 3
    assert pat.period == pytest.approx(TWO_PI)


@given(st.floats(0.05, 0.95), st.floats(1.05, 1.95))
@settings(max_examples=30, deadline=None)
def test_integral_additivity(mid_frac, hi):
    w = WeightSpec.sine(TWO_PI, period=1.0)
    pat = detect_sign_pattern(w)
    lo = 0.0
    mid = lo + mid_frac * (hi - lo)
    whole = integrate_weight(w, lo, hi, part="-", pattern=pat)
    split = integrate_weight(w, lo, mid, part="-", pattern=pat) + \
        integrate_weight(w, mid, hi, part="-", pattern=pat)
    assert whole == pytest.approx(split, abs=1e-9)
