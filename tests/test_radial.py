"""Annulus-to-1D reduction: change of variables, sign integral and the
direct radial cross-check."""

import math

import numpy as np
import pytest
from scipy import integrate as sint

from indefinite_bvp.errors import ConfigurationError, PatternError
from indefinite_bvp.nonlinearity import NonlinearitySpec
from indefinite_bvp.radial import (AnnulusProblem, RadialMap,
                                   check_q_integral, radial_to_1d,
                                   solution_to_radial)
from indefinite_bvp.weight import evaluate
from oracles import direct_radial_integration

E = math.e


def sin3_annulus():
    """N = 2 on [1, e] with Q(r) = sin(3 pi ln r), so that
    a(t) = e^{2t} Q(e^t) = e^{2t} sin(3 pi t) on [0, 1]."""
    return AnnulusProblem(2, 1.0, E, lambda r: np.sin(
        3 * math.pi * np.log(np.asarray(r, dtype=float))),
        NonlinearitySpec.power(2), 1.0)


def test_annulus_validation():
    g = NonlinearitySpec.power(2)
    with pytest.raises(ConfigurationError):
        AnnulusProblem(1, 1.0, 2.0, lambda r: r, g, 1.0)
    with pytest.raises(ConfigurationError):
        AnnulusProblem(2, 2.0, 1.0, lambda r: r, g, 1.0)
    with pytest.raises(ConfigurationError):
        AnnulusProblem(2, 1.0, 2.0, lambda r: r, g, -1.0)


def clip_weight(ap):
    """The transformed weight with ``np.clip``'s clamp of t to [0, T]."""
    rm = RadialMap(ap.N, ap.R1, ap.R2)

    def fn(t):
        r = rm.r_of_t(np.clip(np.asarray(t, dtype=float), 0.0, rm.T))
        return r ** (2 * (ap.N - 1)) * ap.q_at(r)

    return fn


@pytest.mark.parametrize("N, R2", [(2, E), (3, 4.0), (5, 2.0)])
def test_weight_clamp_matches_clip(N, R2):
    # the weight clamps t with np.minimum(np.maximum(t, 0.0), T): the
    # bits of np.clip on floats, 0-d and 1-d arrays, at 0 and T, outside
    # [0, T] and at nan.  At -0.0 clip keeps the sign and the pair gives
    # +0.0, but r(-0.0) = r(0.0), so the weight keeps its bits there too
    ap = AnnulusProblem(N, 1.0, R2, lambda r: np.sin(
        3 * math.pi * (np.asarray(r, dtype=float) - 1.0) / (R2 - 1.0)),
        NonlinearitySpec.power(2), 1.0)
    p, rm = radial_to_1d(ap)
    T = rm.T
    ts = [0.0, T, 0.4 * T, -1e-300, -3.0, np.nextafter(T, np.inf),
          2.0 * T + 1.0, math.inf, -math.inf, math.nan]
    want = clip_weight(ap)
    for t in ts + [np.float64(t) for t in ts] + [np.array(t) for t in ts] \
            + [np.array(ts)]:
        clip = np.clip(np.asarray(t, dtype=float), 0.0, T)
        pair = np.minimum(np.maximum(t, 0.0), T)
        assert np.asarray(pair).tobytes() == np.asarray(clip).tobytes()
    for t in ts + [-0.0] + [np.array(t) for t in ts] + [np.array(ts)]:
        got, ref = np.asarray(p.weight.fn(t)), np.asarray(want(t))
        assert got.shape == ref.shape and got.tobytes() == ref.tobytes(), t


def test_radial_map_n2_closed_form():
    rm = RadialMap(2, 1.0, E)
    assert rm.T == pytest.approx(1.0, abs=1e-12)
    ts = np.linspace(0.0, 1.0, 101)
    assert np.max(np.abs(rm.r_of_t(ts) - np.exp(ts))) < 1e-12
    assert np.max(np.abs(rm.h(rm.r_of_t(ts)) - ts)) < 1e-12


def test_radial_map_n3_closed_form():
    rm = RadialMap(3, 1.0, 4.0)
    assert rm.T == pytest.approx(1.0 - 0.25, abs=1e-12)
    ts = np.linspace(0.0, rm.T, 101)
    assert np.max(np.abs(rm.r_of_t(ts) - 1.0 / (1.0 - ts))) < 1e-10
    assert np.max(np.abs(rm.h(rm.r_of_t(ts)) - ts)) < 1e-12


def test_radial_map_quadrature_oracle():
    for N, R1, R2 in ((2, 1.0, 3.0), (3, 0.5, 2.0), (5, 1.0, 2.0)):
        rm = RadialMap(N, R1, R2)
        for r in np.linspace(R1, R2, 7):
            ref, _ = sint.quad(lambda x: x ** (1 - N), R1, r)
            assert rm.h(r) == pytest.approx(ref, abs=1e-10)
            assert rm.r_of_t(rm.h(r)) == pytest.approx(r, abs=1e-10)


def test_transformed_weight_exponential():
    p, rm = radial_to_1d(sin3_annulus())
    ts = np.linspace(0.0, 1.0, 33, endpoint=False)
    ref = np.exp(2 * ts) * np.sin(3 * math.pi * ts)
    assert np.max(np.abs(evaluate(p.weight, ts) - ref)) < 1e-10
    # the humps of sin(3 pi t) survive the positive factor e^{2t}
    assert p.pattern.pos_intervals() == [
        pytest.approx((0.0, 1 / 3), abs=1e-9),
        pytest.approx((2 / 3, 1.0), abs=1e-9)]


def test_constant_sign_q_has_no_pattern():
    # v'' + a_mu g(v) = 0 with v'(0) = v'(T) = 0 forces int a_mu g(v) = 0,
    # so a Q of one sign admits no positive Neumann solution
    for sign in (1.0, -1.0):
        ap = AnnulusProblem(2, 1.0, E, lambda r, s=sign: s * np.ones_like(
            np.asarray(r, dtype=float)), NonlinearitySpec.power(2), 1.0)
        with pytest.raises(PatternError, match="constant sign"):
            radial_to_1d(ap)


def test_check_q_integral_signs():
    g = NonlinearitySpec.power(2)
    neg = AnnulusProblem(2, 1.0, 2.0, lambda r: -np.ones_like(
        np.asarray(r)), g, 1.0)
    assert check_q_integral(neg) < 0

    def q(r):
        return np.sin(3 * math.pi * np.log(np.asarray(r, dtype=float)))

    # linearity in mu: I(mu) = A - mu B with B > 0
    ap1 = AnnulusProblem(2, 1.0, E, q, g, 1.0)
    ap5 = AnnulusProblem(2, 1.0, E, q, g, 5.0)
    i1 = check_q_integral(ap1)
    i5 = check_q_integral(ap5)
    b = (i1 - i5) / 4.0
    assert b > 0
    i3 = check_q_integral(AnnulusProblem(2, 1.0, E, q, g, 3.0))
    assert i3 == pytest.approx(i1 - 2.0 * b, rel=1e-8)


def test_check_q_integral_quadrature_oracle():
    def q(r):
        return np.cos(2.0 * np.asarray(r, dtype=float))

    # q_mu kinks at the zeros of cos(2r) in [1, 4]: 3 pi/4 and 5 pi/4
    kinks = (3 * math.pi / 4, 5 * math.pi / 4)
    ap = AnnulusProblem(3, 1.0, 4.0, q, NonlinearitySpec.power(2), 2.5,
                        kink_hints=kinks)

    def f(r):
        v = math.cos(2.0 * r)
        return r ** 2 * (max(v, 0.0) - 2.5 * max(-v, 0.0))

    ref, _ = sint.quad(f, 1.0, 4.0, limit=400, points=list(kinks))
    assert check_q_integral(ap) == pytest.approx(ref, rel=1e-8)


def test_direct_integration_matches_reduction():
    hints = tuple(math.exp(k / 3.0) for k in (1, 2))
    ap = AnnulusProblem(
        2, 1.0, E,
        lambda r: np.sin(3 * math.pi * np.log(np.asarray(r, dtype=float)))
        / np.asarray(r, dtype=float) ** 2,
        NonlinearitySpec.arctan_scaled(100.0), 7.0, kink_hints=hints)
    p, rm = radial_to_1d(ap)
    from indefinite_bvp.integrator import State, integrate
    U0 = 0.05
    v = integrate(p, State(U0, 0.0), 0.0, rm.T)
    rs, us = direct_radial_integration(ap, U0)
    u_1d = v.eval(rm.h(rs))[:, 0]
    assert np.max(np.abs(u_1d - us)) < 1e-7


def test_solution_to_radial_composition():
    p, rm = radial_to_1d(sin3_annulus())
    from indefinite_bvp.integrator import State, integrate
    v = integrate(p, State(0.1, 0.0), 0.0, rm.T)
    rs, us = solution_to_radial(v, rm)
    assert rs[0] == pytest.approx(1.0, abs=1e-12)
    assert rs[-1] == pytest.approx(E, abs=1e-10)
    assert us[0] == pytest.approx(0.1, abs=1e-10)
    # the profile is the 1D solution composed with h
    assert np.max(np.abs(v.eval(rm.h(rs))[:, 0] - us)) < 1e-10
