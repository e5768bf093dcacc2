"""First eigenvalues of phi'' + c phi' + lambda a(t) phi = 0 on subintervals
via polar (Prufer-type) angle shooting and bisection in lambda.

With (e^{ct} phi', phi) = rho (cos theta, sin theta) the angle obeys

    theta' = e^{-ct} cos^2(theta) + e^{ct} lambda a(t) sin^2(theta),

and the terminal angle is strictly increasing in lambda, so the first
eigenvalue is found by bracketing and bisection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.integrate import solve_ivp

from .errors import BracketingError, ConfigurationError, HypothesisError
from .weight import evaluate

LAMBDA_CAP = 1e12
BISECT_MAX_ITER = 60


@dataclass(frozen=True)
class EigenProblem:
    """Weighted eigenvalue problem on [alpha, beta].

    ``weight_fn`` is evaluated at absolute times in [alpha, beta]; the
    weight must be nonnegative and not identically zero there.
    ``breakpoints`` lists interior times where the weight may kink.
    """

    weight_fn: object
    alpha: float
    beta: float
    c: float = 0.0
    left_bc: str = "dirichlet"
    right_bc: str = "dirichlet"
    breakpoints: tuple = ()

    def __post_init__(self):
        if not self.alpha < self.beta:
            raise ConfigurationError("need alpha < beta")
        for bc in (self.left_bc, self.right_bc):
            if bc not in ("dirichlet", "neumann"):
                raise ConfigurationError("bc must be dirichlet or neumann")
        if self.left_bc == "neumann" and self.right_bc == "neumann":
            raise ConfigurationError(
                "both-endpoint neumann problems are not supported "
                "(the first eigenvalue is 0 with constant eigenfunction)")

    @classmethod
    def from_hump(cls, p, i, left_bc="dirichlet", right_bc="dirichlet"):
        """Eigenvalue problem on the i-th positivity interval of ``p``."""
        lo, hi = p.pattern.pos_intervals()[i]
        return cls(lambda t: evaluate(p.weight, t), lo, hi, p.c,
                   left_bc, right_bc,
                   breakpoints=tuple(b for b in p.pattern.breakpoints()
                                     if lo < b < hi))


def prufer_angle_sweep(ep, lam, rtol=1e-10, atol=1e-12):
    """Terminal angle theta(beta) with theta(alpha) fixed by the left BC
    (0 for Dirichlet, pi/2 for Neumann)."""
    if lam < 0:
        raise ConfigurationError("lambda must be nonnegative")
    theta0 = 0.0 if ep.left_bc == "dirichlet" else math.pi / 2.0

    def rhs(t, th):
        a = float(ep.weight_fn(t))
        ect = math.exp(ep.c * t)
        s, co = math.sin(th[0]), math.cos(th[0])
        return [co * co / ect + ect * lam * a * s * s]

    edges = [ep.alpha] + [b for b in sorted(ep.breakpoints)
                          if ep.alpha < b < ep.beta] + [ep.beta]
    th = theta0
    for lo, hi in zip(edges[:-1], edges[1:]):
        sol = solve_ivp(rhs, (lo, hi), [th], method="DOP853",
                        rtol=rtol, atol=atol)
        if not sol.success:
            raise BracketingError("angle integration failed")
        th = float(sol.y[0, -1])
    return th


def _target_angle(ep):
    if ep.left_bc == "dirichlet":
        return math.pi if ep.right_bc == "dirichlet" else math.pi / 2.0
    # left neumann: start pi/2, first dirichlet zero at pi
    return math.pi


def first_eigenvalue(ep, rel_tol=1e-8, rtol=1e-10, atol=1e-12):
    """Smallest lambda > 0 whose terminal angle matches the right BC.

    Exponential bracketing from lambda = 1 followed by bisection; the
    terminal angle is strictly increasing in lambda, so the bracket
    contains exactly one eigenvalue.
    """
    target = _target_angle(ep)

    def f(lam):
        return prufer_angle_sweep(ep, lam, rtol=rtol, atol=atol) - target

    lo, flo = 0.0, f(0.0)
    if flo >= 0:
        raise BracketingError("terminal angle already past target at lambda=0")
    hi = 1.0
    fhi = f(hi)
    while fhi < 0:
        lo, flo = hi, fhi
        hi *= 2.0
        if hi > LAMBDA_CAP:
            raise BracketingError(
                "no eigenvalue bracket found up to lambda=%g" % LAMBDA_CAP)
        fhi = f(hi)
    for _ in range(BISECT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        if (hi - lo) <= rel_tol * max(1.0, abs(mid)):
            break
        if f(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def ginf_threshold(p, rel_tol=1e-8):
    """max over the positivity intervals of the first eigenvalue, using the
    mixed endpoint conditions of the Neumann problem when the weight starts
    or ends with a positivity interval."""
    lams = []
    pat = p.pattern
    for i in range(pat.m):
        left_bc = right_bc = "dirichlet"
        if p.boundary == "neumann":
            if i == 0 and abs(pat.sigma[0] - 0.0) < 1e-12:
                left_bc = "neumann"
            if i == pat.m - 1 and abs(pat.tau[-1] - pat.sigma[-1]) < 1e-12:
                right_bc = "neumann"
        ep = EigenProblem.from_hump(p, i, left_bc=left_bc, right_bc=right_bc)
        lams.append(first_eigenvalue(ep, rel_tol=rel_tol))
    return max(lams)


def check_ginf_hypothesis(p, ginf):
    """Raise HypothesisError unless g_inf exceeds the eigenvalue threshold."""
    thr = ginf_threshold(p)
    if not ginf > thr:
        raise HypothesisError(
            "g_inf=%.6g does not exceed the eigenvalue threshold %.6g"
            % (ginf, thr))
    return thr
