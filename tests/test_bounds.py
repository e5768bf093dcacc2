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
from indefinite_bvp.presets import fig2
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
    def inner(t):
        v, _ = sint.quad(lambda x: max(-math.sin(2 * math.pi * x), 0.0),
                         0.5, t, limit=200)
        return v

    ref, _ = sint.quad(inner, 0.5, 1.0, limit=200)
    val = _neg_double_integral(p, 0.5, 1.0, from_left=True)
    assert val == pytest.approx(ref, rel=1e-8)


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
