"""First eigenvalues by angle shooting against closed forms, a finite
difference matrix oracle and the angle flow on scipy's ``solve_ivp``."""

import math

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from indefinite_bvp import eigen
from indefinite_bvp.eigen import (EigenProblem, check_ginf_hypothesis,
                                  first_eigenvalue, ginf_threshold,
                                  prufer_angle_sweep)
from indefinite_bvp.errors import (BracketingError, ConfigurationError,
                                   DivergenceError, HypothesisError)
from indefinite_bvp.presets import fig1, get_preset
from indefinite_bvp.weight import WeightSpec, evaluate_scalar
from oracles import reference_first_eigenvalue

PI2 = math.pi ** 2


def fd_first_eigenvalue(weight_fn, alpha, beta, n):
    """Smallest eigenvalue of -phi'' = lambda a(t) phi, Dirichlet, by the
    symmetrized finite difference generalized eigenproblem."""
    h = (beta - alpha) / (n + 1)
    ts = alpha + h * np.arange(1, n + 1)
    a = np.asarray([float(weight_fn(t)) for t in ts])
    if np.any(a <= 0):
        raise ValueError("weight must be positive on the interior grid")
    inv_sqrt = 1.0 / np.sqrt(a)
    d = 2.0 / h ** 2 * inv_sqrt ** 2
    e = -1.0 / h ** 2 * inv_sqrt[:-1] * inv_sqrt[1:]
    vals = eigh_tridiagonal(d, e, select="i", select_range=(0, 0),
                            eigvals_only=True)
    return float(vals[0])


def fd_oracle(weight_fn, alpha, beta, n=1500):
    """Richardson extrapolation of the second-order FD eigenvalue."""
    lam1 = fd_first_eigenvalue(weight_fn, alpha, beta, n)
    lam2 = fd_first_eigenvalue(weight_fn, alpha, beta, 2 * n)
    return (4.0 * lam2 - lam1) / 3.0


def test_unit_weight_dirichlet():
    ep = EigenProblem(lambda t: 1.0, 0.0, 1.0)
    assert first_eigenvalue(ep) == pytest.approx(PI2, rel=1e-8)


def test_unit_weight_with_friction():
    ep = EigenProblem(lambda t: 1.0, 0.0, 1.0, c=1.0)
    assert first_eigenvalue(ep) == pytest.approx(PI2 + 0.25, rel=1e-8)


def test_mixed_neumann_dirichlet():
    # phi(t) = cos(pi t / 2) solves the left-Neumann problem
    ep = EigenProblem(lambda t: 1.0, 0.0, 1.0, left_bc="neumann")
    assert first_eigenvalue(ep) == pytest.approx(PI2 / 4.0, rel=1e-8)


def test_sine_hump_matches_fd_oracle():
    fn = lambda t: math.sin(3 * math.pi * t)
    ep = EigenProblem(fn, 0.0, 1.0 / 3.0)
    lam = first_eigenvalue(ep)
    ref = fd_oracle(fn, 0.0, 1.0 / 3.0)
    assert lam == pytest.approx(ref, rel=1e-6)


def test_angle_monotone_in_lambda():
    ep = EigenProblem(lambda t: 1.0, 0.0, 1.0)
    th1 = prufer_angle_sweep(ep, 1.0)
    th2 = prufer_angle_sweep(ep, 4.0)
    assert th2 > th1
    with pytest.raises(ConfigurationError):
        prufer_angle_sweep(ep, -1.0)


def test_eigenproblem_validation():
    with pytest.raises(ConfigurationError):
        EigenProblem(lambda t: 1.0, 1.0, 0.0)
    with pytest.raises(ConfigurationError):
        EigenProblem(lambda t: 1.0, 0.0, 1.0, left_bc="robin")
    with pytest.raises(ConfigurationError):
        EigenProblem(lambda t: 1.0, 0.0, 1.0, left_bc="neumann",
                     right_bc="neumann")


def test_from_hump_and_threshold():
    pre = fig1()
    p = pre.problem
    ep = EigenProblem.from_hump(p, 0, left_bc="neumann")
    lam = first_eigenvalue(ep)
    thr = ginf_threshold(p)
    assert lam > 0
    assert thr >= lam - 1e-6
    # fig1's g has ginf = 50 pi > threshold
    check_ginf_hypothesis(p, 50 * math.pi)
    with pytest.raises(HypothesisError):
        check_ginf_hypothesis(p, 1.0)


def oracle_cases():
    """Every hump of fig1, fig2 and m3 with each boundary pair, and the
    unit weight with c = 1."""
    cases = [pytest.param(EigenProblem(lambda t: 1.0, 0.0, 1.0, c=1.0),
                          id="unit-c1")]
    for name in ("fig1", "fig2", "multiplicity-m3"):
        p = get_preset(name).problem
        for i in range(p.pattern.m):
            for left, right in (("dirichlet", "dirichlet"),
                                ("neumann", "dirichlet"),
                                ("dirichlet", "neumann")):
                ep = EigenProblem.from_hump(p, i, left, right)
                cases.append(pytest.param(
                    ep, id="%s-%d-%s-%s" % (name, i, left, right)))
    return cases


@pytest.mark.parametrize("ep", oracle_cases())
def test_first_eigenvalue_matches_scipy_sweep(ep):
    assert first_eigenvalue(ep) == pytest.approx(
        reference_first_eigenvalue(ep), rel=1e-9)


def test_failed_sweep_names_lambda_and_interval():
    ep = EigenProblem(lambda t: math.nan, 0.25, 0.75)
    with pytest.raises(BracketingError,
                       match=r"lambda=2 on \[0\.25, 0\.75\]") as info:
        prufer_angle_sweep(ep, 2.0)
    assert isinstance(info.value.__cause__, DivergenceError)


def test_no_bracket_for_vanishing_weight():
    ep = EigenProblem(lambda t: 0.0, 0.0, 1.0)
    with pytest.raises(BracketingError):
        first_eigenvalue(ep)


def test_round_off_closes_no_bracket(monkeypatch):
    # sin 2 pi t on [0, 1/2] with c = 80 has no eigenvalue below
    # c^2 / 4 = 1600, yet the sweep at lambda = 1 ends 3.6e-14 past pi:
    # round-off, which must not close the bracket [0, 1]
    def no_brent(*args, **kwargs):
        raise AssertionError("Brent's method ran")

    monkeypatch.setattr(eigen, "brentq", no_brent)
    ep = EigenProblem(evaluate_scalar(WeightSpec.sine(2 * math.pi)), 0.0,
                      0.5, c=80.0)
    gap = prufer_angle_sweep(ep, 1.0) - math.pi
    assert 0.0 <= gap < 1e-12
    with pytest.raises(BracketingError, match=r"lambda=1 .*accuracy"):
        first_eigenvalue(ep)


@pytest.mark.parametrize("beta, lam", [(math.pi, 1.0), (math.pi / 2, 4.0)])
def test_eigenvalue_at_a_doubling_point(beta, lam):
    # -phi'' = lam phi on [0, beta]: the sweep at the bracketing point
    # lambda = lam ends within round-off of pi, and a sweep just past it
    # closes the bracket
    ep = EigenProblem(lambda t: 1.0, 0.0, beta)
    assert abs(prufer_angle_sweep(ep, lam) - math.pi) < 1e-9
    assert first_eigenvalue(ep) == pytest.approx(lam, rel=1e-8)
