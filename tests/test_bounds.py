"""Explicit constants of the multiplicity threshold against closed forms
and quadrature oracles."""

import math

import pytest
from scipy import integrate as sint

from indefinite_bvp.bounds import (BoundsReport, _neg_double_integral,
                                   choose_r, compute_K, compute_delta,
                                   compute_mu_r, compute_mu_sharp,
                                   compute_mu_star)
from indefinite_bvp.errors import DomainError, HypothesisError
from indefinite_bvp.integrator import ProblemSpec
from indefinite_bvp.nonlinearity import NonlinearitySpec
from indefinite_bvp.presets import fig2, get_preset
from indefinite_bvp.weight import WeightSpec, integrate_weight


@pytest.fixture(scope="module")
def p():
    return fig2().problem


def test_compute_K_closed_form(p):
    # c = 0, single hump [0, 1/2] of sin(2 pi t): K_1 = 1/pi and
    # K0 = 2 K_1 (len+ + len-) = 2/pi
    K, K0 = compute_K(p)
    assert len(K) == 1
    assert K[0] == pytest.approx(1.0 / math.pi, rel=1e-10)
    assert K0 == pytest.approx(2.0 / math.pi, rel=1e-10)


def test_compute_K_pairs_following_interval():
    # -sin(2 pi t) on [0, 1] in Neumann mode: the hump [1/2, 1] is
    # followed by a degenerate interval, not by the leading [0, 1/2]
    w = WeightSpec.from_expression("-sin(2*pi*t)", 1.0)
    q = ProblemSpec.build(w, 7.0, 0.0, NonlinearitySpec.power(2),
                          boundary="neumann")
    assert len(q.pattern.neg_intervals()) == 2
    K, K0 = compute_K(q)
    assert K[0] == pytest.approx(1.0 / math.pi, rel=1e-9)
    assert K0 == pytest.approx(2.0 * K[0] * 0.5, rel=1e-9)


def test_friction_inflates_K():
    w = WeightSpec.sine(2 * math.pi, period=1.0)
    q = ProblemSpec.build(w, 7.0, 1.0, NonlinearitySpec.power(2))
    K, K0 = compute_K(q)
    assert K[0] == pytest.approx(math.exp(0.5) / math.pi, rel=1e-9)
    assert K0 > 2.0 / math.pi


def test_mu_sharp_symmetric(p):
    assert compute_mu_sharp(p) == pytest.approx(1.0, rel=1e-10)


def test_choose_r_geometric_grid(p):
    # eta(r) = 100 atan(r) and the bound is 0.5/K0 = pi/4, so the first
    # admissible r on the grid 1, 1/2, ... is 2^-7
    _, K0 = compute_K(p)
    r, eta_r = choose_r(p.g, K0)
    assert r == pytest.approx(2.0 ** -7)
    assert eta_r == pytest.approx(100.0 * math.atan(r))
    assert eta_r * K0 < 0.5 + 1e-12


def test_choose_r_rejects_steep_slope():
    g = NonlinearitySpec.from_callable(lambda s: 10.0 * s,
                                       declared_g0=10.0, declared_ginf=10.0)
    with pytest.raises(HypothesisError):
        choose_r(g, 100.0)


def test_neg_double_integral_closed_form(p):
    # int_{1/2}^{1} int_{1/2}^{t} sin-(2 pi xi) dxi dt = 1/(4 pi)
    val = _neg_double_integral(p, 0.5, 1.0, from_left=True)
    assert val == pytest.approx(1.0 / (4.0 * math.pi), rel=1e-8)
    val_r = _neg_double_integral(p, 0.5, 1.0, from_left=False)
    assert val_r == pytest.approx(1.0 / (4.0 * math.pi), rel=1e-8)


def test_neg_double_integral_quadrature_oracle(p):
    # both nested triangle integrals of sin-(2 pi xi); on [0.5, 0.8] the
    # two arms differ, so a swapped moment arm fails
    neg = lambda x: max(-math.sin(2 * math.pi * x), 0.0)
    cum = lambda a, b: sint.quad(neg, a, b, limit=200)[0]
    for lo, hi in [(0.5, 1.0), (0.5, 0.8)]:
        left, _ = sint.quad(lambda t: cum(lo, t), lo, hi, limit=200)
        right, _ = sint.quad(lambda t: cum(t, hi), lo, hi, limit=200)
        if hi < 1.0:
            assert abs(left - right) > 0.1 * right
        assert _neg_double_integral(p, lo, hi, from_left=True) == \
            pytest.approx(left, rel=1e-8)
        assert _neg_double_integral(p, lo, hi, from_left=False) == \
            pytest.approx(right, rel=1e-8)


def test_mu_r_dominates_mu_sharp(p):
    _, K0 = compute_K(p)
    r, _ = choose_r(p.g, K0)
    mu_sharp = compute_mu_sharp(p)
    mu_r = compute_mu_r(p, r, K0=K0, mu_sharp=mu_sharp)
    assert mu_r > mu_sharp


def test_compute_delta_windows(p):
    dplus, dminus = compute_delta(p)
    assert len(dplus) == len(dminus) == p.pattern.m
    (plo, phi) = p.pattern.pos_intervals()[0]
    half = (phi - plo) / 2
    assert 0 < dplus[0] <= half + 1e-12
    assert 0 < dminus[0] <= half + 1e-12
    # windows must fit in the adjacent negativity interval
    (nlo, nhi) = p.pattern.neg_intervals()[0]
    assert dplus[0] <= (nhi - nlo) + 1e-12


@pytest.mark.parametrize("c", [-0.5, 0.5, 3.0])
def test_compute_delta_windows_with_friction(p, c):
    # with c != 0 the cap solves delta e^{|c| delta} = |I+| / 2
    q = ProblemSpec.build(p.weight, p.mu, c, p.g)
    pat = q.pattern
    dplus, dminus = compute_delta(q)
    (plo, phi), = pat.pos_intervals()
    (nlo, nhi), = pat.neg_intervals()
    windows = [(dplus[0], (pat.tau[0], pat.tau[0] + dplus[0])),
               (dminus[0], (pat.sigma[0] - dminus[0], pat.sigma[0]))]
    for d, (lo, hi) in windows:
        assert 0 < d * math.exp(abs(c) * d) < (phi - plo) / 2
        assert d <= nhi - nlo
        assert integrate_weight(q.weight, lo, hi, part="-",
                                pattern=pat) > 0


def test_full_report_with_override(p):
    rep = compute_mu_star(p, R_star=2.0)
    assert rep.validate()
    assert rep.R_star == 2.0
    assert rep.mu_star >= rep.mu_r
    assert rep.eta_r * rep.K0 < 1.0
    d = rep.to_dict()
    assert d["mu_star"] == rep.mu_star
    assert "R_star_note" in d["provenance"]


def _pinned_problems():
    fig2p = fig2().problem
    g2 = NonlinearitySpec.power(2)
    return {
        "fig1": get_preset("fig1").problem,
        # fig1 as an expression config, the way the benchmark writes it
        "fig1-expr": ProblemSpec.build(
            WeightSpec.from_expression(
                "max(sin(3*pi*t), 0) - 7*max(-sin(3*pi*t), 0)", 1.0),
            1.0, 0.0, NonlinearitySpec.from_expression("100*s*atan(s)"),
            boundary="neumann"),
        "fig2": fig2p,
        "m2": get_preset("multiplicity-m2").problem,
        "m3": get_preset("multiplicity-m3").problem,
        "fig2-c0.5": ProblemSpec.build(fig2p.weight, fig2p.mu, 0.5, fig2p.g),
        "fig2-c3": ProblemSpec.build(fig2p.weight, fig2p.mu, 3.0, fig2p.g),
        "two-hump": ProblemSpec.build(
            WeightSpec.from_expression("sin(2*t)*(1+0.3*sin(t))",
                                       2 * math.pi), 10.0, 0.0, g2),
        "neumann-lead": ProblemSpec.build(
            WeightSpec.from_expression("-sin(3*pi*t)", 1.0), 7.0, 0.0, g2,
            boundary="neumann"),
    }


NAN = math.nan

# compute_mu_star(p, R_star=20).to_dict() before the triangle integrals
# became single moments; only mu_r, mu_plus/minus and mu_star moved since
PINNED_REPORTS = {
    "fig1": {
        "K": [0.2122065907891938, 0.2122065907891938],
        "K0": 0.28294212105228067, "r": 0.015625,
        "eta_r": 1.562372862047683, "mu_sharp": 0.28571428571428564,
        "mu_r": 2.3084305474824727,
        "delta_plus": [0.16666666666647378, NAN],
        "delta_minus": [NAN, 0.16666666666647376],
        "mu_plus": [291390.36023445666, NAN],
        "mu_minus": [NAN, 291390.36023445666],
        "gamma_small": 0.7812341060101111,
        "gamma_big": 0.0015258711452995983,
        "R_star": 20.0, "mu_star": 291390.36023445666,
    },
    "fig1-expr": {
        "K": [0.2122065907891938, 0.2122065907891938],
        "K0": 0.28294212105228067, "r": 0.015625,
        "eta_r": 1.562372862047683, "mu_sharp": 0.28571428571428564,
        "mu_r": 2.3084305474824722,
        "delta_plus": [0.16666666666647378, NAN],
        "delta_minus": [NAN, 0.16666666666647376],
        "mu_plus": [291390.36023445666, NAN],
        "mu_minus": [NAN, 291390.3602344568],
        "gamma_small": 0.7812341060101111,
        "gamma_big": 0.0015258711452995983,
        "R_star": 20.0, "mu_star": 291390.3602344568,
    },
    "fig2": {
        "K": [0.3183098861837907], "K0": 0.6366197723675814,
        "r": 0.0078125, "eta_r": 0.7812341060101111, "mu_sharp": 1.0,
        "mu_r": 16.15975342800175,
        "delta_plus": [0.24999999999975], "delta_minus": [0.24999999999975],
        "mu_plus": [3626177.316898892], "mu_minus": [3626177.316898889],
        "gamma_small": 0.3906230131966972,
        "gamma_big": 0.0003814692414997693,
        "R_star": 20.0, "mu_star": 3626177.316898892,
    },
    "m2": {
        "K": [1.0], "K0": 6.283185307179586, "r": 0.0625, "eta_r": 0.0625,
        "mu_sharp": 1.0, "mu_r": 16.160000000000004,
        "delta_plus": [0.7853981633966629],
        "delta_minus": [0.7853981633966629],
        "mu_plus": [574075.1729095241], "mu_minus": [574075.1729095242],
        "gamma_small": 0.03125, "gamma_big": 0.000244140625,
        "R_star": 20.0, "mu_star": 574075.1729095242,
    },
    "m3": {
        "K": [0.6666666666666666], "K0": 2.7925268031909267,
        "r": 0.0009765625, "eta_r": 0.09765621895593195, "mu_sharp": 1.0,
        "mu_r": 16.159996147158218,
        "delta_plus": [0.5235987755977752],
        "delta_minus": [0.5235987755977752],
        "mu_plus": [52906768.9865048], "mu_minus": [52906768.98650474],
        "gamma_small": 0.04882812111948983,
        "gamma_big": 5.960464359115278e-06,
        "R_star": 20.0, "mu_star": 52906768.9865048,
    },
    "fig2-c0.5": {
        "K": [0.4087179842429694], "K0": 0.9335222642683219,
        "r": 0.00390625, "eta_r": 0.3906230131966972, "mu_sharp": 1.0,
        "mu_r": 30.426911932767645,
        "delta_plus": [0.2235602178653535],
        "delta_minus": [0.2235602178653535],
        "mu_plus": [22126089.604057014], "mu_minus": [22126089.604057],
        "gamma_small": 0.19531225164788188,
        "gamma_big": 9.536740132415229e-05,
        "R_star": 20.0, "mu_star": 22126089.604057014,
    },
    "fig2-c3": {
        "K": [1.426565937890448], "K0": 7.819990909850639,
        "r": 0.00048828125, "eta_r": 0.04882812111948983, "mu_sharp": 1.0,
        "mu_r": 889.6295062215272,
        "delta_plus": [0.1563834035648397],
        "delta_minus": [0.1563834035648397],
        "mu_plus": [5622729943.429129], "mu_minus": [5622729943.429122],
        "gamma_small": 0.024414062014936178,
        "gamma_big": 1.4901161119832789e-06,
        "R_star": 20.0, "mu_star": 5622729943.429129,
    },
    "two-hump": {
        "K": [1.2, 0.7999999999999999], "K0": 7.5398223686155035,
        "r": 0.0625, "eta_r": 0.0625, "mu_sharp": 1.0,
        "mu_r": 25.19209516130893,
        "delta_plus": [0.7853981633966629, 0.7853981633966629],
        "delta_minus": [0.7853981633966629, 0.7853981633966629],
        "mu_plus": [450289.0552263103, 791722.6386491229],
        "mu_minus": [643939.7108737665, 517886.80365092563],
        "gamma_small": 0.03125, "gamma_big": 0.000244140625,
        "R_star": 20.0, "mu_star": 791722.6386491229,
    },
    "neumann-lead": {
        "K": [0.21220659078919382], "K0": 0.28294212105225847,
        "r": 1.0, "eta_r": 1.0, "mu_sharp": 0.5000000000000001,
        "mu_r": 16.16000000000001,
        "delta_plus": [0.16666666666649999],
        "delta_minus": [0.16666666666649999],
        "mu_plus": [49797.903982359254], "mu_minus": [49797.90398235917],
        "gamma_small": 0.5, "gamma_big": 0.0625,
        "R_star": 20.0, "mu_star": 49797.903982359254,
    },
}


@pytest.mark.parametrize("name", sorted(PINNED_REPORTS))
def test_report_constants_pinned(name):
    got = compute_mu_star(_pinned_problems()[name], R_star=20.0).to_dict()
    got.pop("provenance")
    want = PINNED_REPORTS[name]
    assert sorted(got) == sorted(want)
    for key, val in want.items():
        assert got[key] == pytest.approx(val, rel=1e-12, nan_ok=True), key


def test_report_validation_catches_bad_constants(p):
    rep = compute_mu_star(p, R_star=2.0)
    bad = BoundsReport(**{**rep.to_dict(), "provenance": {}})
    bad.mu_r = bad.mu_sharp / 2.0
    with pytest.raises(DomainError):
        bad.validate()
    bad2 = compute_mu_star(p, R_star=2.0)
    bad2.R_star = bad2.r / 2.0
    with pytest.raises(DomainError):
        bad2.validate()
