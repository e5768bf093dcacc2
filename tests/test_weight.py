"""Weight sign patterns, quadrature and k-fold rewriting."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate as sint

from indefinite_bvp.errors import DomainError, PatternError
from indefinite_bvp.presets import get_preset
from indefinite_bvp.weight import (SignPattern, WeightSpec, a_mu,
                                   detect_sign_pattern, evaluate,
                                   integrate_weight, k_fold_pattern,
                                   negative_part, piecewise_quad,
                                   positive_part, split_points)

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


@pytest.mark.parametrize("epsrel", [1e-12, 1e-11])
def test_piecewise_quad_sums_one_quad_per_piece(epsrel):
    # the one quadrature loop of weight, bounds and radial: a quad per
    # piece with its tolerances, summed from the left, bit for bit
    w = WeightSpec.from_expression("sin(2*pi*t) + 0.3", period=1.0)
    f = lambda t: (t - 0.1) * negative_part(w, t)
    pts = split_points(w, 0.1, 2.7, detect_sign_pattern(w))
    want = 0.0
    for a, b in zip(pts[:-1], pts[1:]):
        want += sint.quad(f, a, b, limit=200, epsabs=1e-13,
                          epsrel=epsrel)[0]
    assert len(pts) > 2
    assert piecewise_quad(f, pts, epsrel=epsrel) == want


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


@given(st.floats(0.1, 10.0), st.floats(0.05, 0.95), st.integers(1, 7))
@settings(max_examples=300, deadline=None)
def test_breakpoints_between_has_one_float_per_translate(T, frac, k):
    # the pattern holds both 0 and T; their translates n*T and T + (n-1)*T
    # can round 1 ulp apart, and only n*T may be listed
    pat = SignPattern(1, (0.0, T), (frac * T,))
    pts = pat.breakpoints_between(0.0, k * T)
    assert len(pts) == 2 * k - 1
    assert all(hi - lo > 1e-9 * T for lo, hi in zip(pts[:-1], pts[1:]))
    assert all(j * T in pts for j in range(1, k))


def test_m3_window_has_no_sliver():
    # multiplicity-m3 at k = 7 listed two edges 1.8e-15 apart
    p = get_preset("multiplicity-m3").problem
    T = p.period
    for k in (6, 7):
        pts = p.breakpoints_between(0.0, k * T)
        assert len(pts) == 2 * k - 1
        assert min(np.diff(pts)) > 1e-9 * T
        assert all(j * T in pts for j in range(1, k))


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


def _absorbed_classes(values, periodic):
    """Sign class of each table cell: a zero cell is positive when its
    nearest nonzero cell on either side is (cyclically in periodic mode),
    negative otherwise."""
    nz = [i for i, v in enumerate(values) if v != 0]
    out = []
    for i, v in enumerate(values):
        if v != 0:
            out.append(v > 0)
            continue
        before = [j for j in nz if j < i]
        after = [j for j in nz if j > i]
        if periodic:
            before, after = before or nz, after or nz
        near = before[-1:] + after[:1]
        out.append(any(values[j] > 0 for j in near))
    return out


def _circular_gap(a, b, T):
    d = abs(a - b) % T
    return min(d, T - d)


@given(st.lists(st.tuples(st.integers(1, 5),
                          st.sampled_from([-2.0, -1.0, 0.0, 0.5, 1.0, 3.0])),
                min_size=2, max_size=7),
       st.booleans())
@settings(max_examples=150, deadline=None)
def test_table_pattern_matches_cell_edges(cells, periodic):
    # oracle: the breakpoints are the cell edges where the absorbed sign
    # class changes, including the edges of zero plateaus
    widths = [c[0] for c in cells]
    values = [c[1] for c in cells]
    total = sum(widths)
    breaks = [sum(widths[:i]) / total for i in range(len(cells) + 1)]
    w = WeightSpec.from_table(breaks, values)
    cls = _absorbed_classes(values, periodic)
    if all(cls) or not any(cls):
        # identically zero, or one sign after absorption
        with pytest.raises(PatternError):
            detect_sign_pattern(w, periodic=periodic)
        return
    first = 0 if periodic else 1
    edges = [breaks[i] for i in range(first, len(cells))
             if cls[i] != cls[i - 1]]
    pat = detect_sign_pattern(w, periodic=periodic)
    T = w.period
    if periodic:
        assert 2 * pat.m == len(edges)
        pts = [(x + pat.origin_shift) % T
               for x in pat.sigma[:-1] + pat.tau]
        for e in edges:
            assert min(_circular_gap(e, x, T) for x in pts) < 1e-9
    else:
        runs = sum(1 for i, c in enumerate(cls) if c and (i == 0
                                                          or not cls[i - 1]))
        assert pat.m == runs
        pts = sorted(x for x in pat.sigma[:-1] + pat.tau if 0.0 < x < T)
        assert pts == pytest.approx(edges, abs=1e-9)


def test_zero_plateau_edges_refined():
    # a jump into or out of a zero cell is located to the refine
    # tolerance, not to the sample grid
    w = WeightSpec.from_table([0.0, 0.3, 0.5, 1.0], [1.0, 0.0, -1.0])
    pat = detect_sign_pattern(w)
    assert pat.tau == pytest.approx((0.5,), abs=1e-9)
    w = WeightSpec.from_table([0.0, 0.2, 0.4, 0.6, 1.0],
                              [0.0, -1.0, 0.0, 1.0])
    pat = detect_sign_pattern(w)
    assert pat.origin_shift == pytest.approx(0.4, abs=1e-9)
    assert pat.tau == pytest.approx((0.8,), abs=1e-9)


def test_sampled_crossing_kept_exactly(sine_weight):
    # sin is sampled exactly at its zero t = 0: that sample is the edge
    pat = detect_sign_pattern(sine_weight)
    assert pat.origin_shift == 0.0
    assert pat.sigma[0] == 0.0


@pytest.mark.parametrize("name, sigma, tau, shift", [
    ("fig1", (0.0, 0.6666666666667191, 1.0), (0.3333333333332809, 1.0),
     0.0),
    ("fig2", (0.0, 1.0), (0.5,), 0.0),
    ("multiplicity-m2", (0.0, 3.141592653589793), (1.5707963267948966,),
     0.0),
    ("multiplicity-m3", (0.0, 2.0943951023931953), (1.0471975511965976,),
     0.0),
])
def test_preset_patterns_pinned(name, sigma, tau, shift):
    pat = get_preset(name).problem.pattern
    assert (pat.sigma, pat.tau, pat.origin_shift) == (sigma, tau, shift)


def test_neumann_negative_start_pinned():
    w = WeightSpec.from_expression("-sin(3*pi*t)", 1.0)
    pat = detect_sign_pattern(w, periodic=False)
    assert pat.sigma == (0.3333333333333333, 1.0)
    assert pat.tau == (0.6666666666666666,)
    assert pat.origin_shift == 0.0


def test_wrapping_pattern_pinned():
    # the hump through t = 0 is refined from the bracket before t = 0
    w = WeightSpec.from_expression("cos(6*pi*t) + 0.2", 1.0)
    pat = detect_sign_pattern(w)
    assert pat.sigma == (0.0, 0.3333333333332341, 0.6666666666665519, 1.0)
    assert pat.tau == (0.1880314056160954, 0.5213647389495436,
                       0.8546980722828615)
    assert pat.origin_shift == 0.9059842971919523


def test_periodic_pattern_starts_at_zero():
    with pytest.raises(PatternError):
        SignPattern(1, (0.25, 1.25), (0.75,))
    pat = SignPattern(1, (0.25, 1.0), (0.5,), mode="neumann")
    assert pat.period == 1.0
