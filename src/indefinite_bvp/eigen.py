"""First eigenvalues of phi'' + c phi' + lambda a(t) phi = 0 on subintervals
via polar (Prufer-type) angle shooting and root finding in lambda.

With (e^{ct} phi', phi) = rho (cos theta, sin theta) the angle obeys

    theta' = e^{-ct} cos^2(theta) + e^{ct} lambda a(t) sin^2(theta),

and the terminal angle is strictly increasing in lambda, so the first
eigenvalue is found by bracketing and Brent's method.  The angle is
stepped on the package's float DOP853, :func:`integrator.dop853`.  The
radius is left out: (log rho)' = (e^{-ct} - e^{ct} lambda a) sin(theta)
cos(theta) scales the rounding of theta near a multiple of pi by
e^{ct} lambda a, and under strong friction its error estimate shrinks
the steps by orders of magnitude.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .brent import brentq
from .errors import (BracketingError, ConfigurationError, DivergenceError,
                     HypothesisError)
from .expressions import quiet_fp
from .integrator import dop853
from .weight import evaluate_scalar

LAMBDA_CAP = 1e12
_ANGLE_RTOL = 1e-10     # DOP853 tolerances of the angle flow
_ANGLE_ATOL = 1e-12
_SQRT2 = math.sqrt(2.0)
_LAMBDA_RTOL = 1e-8     # relative tolerance of the eigenvalue root
# a terminal angle closer than this to its target does not tell on which
# side of lambda the eigenvalue lies: a hundred times the tolerance of
# the sweep at the angle pi
_ANGLE_MARGIN = 100.0 * (_ANGLE_ATOL + _ANGLE_RTOL * math.pi)
# relative step in lambda past a sweep that ends within the margin: an
# eigenvalue there takes the angle out of the margin within it
_PROBE_STEP = 1e-4


@dataclass(frozen=True)
class EigenProblem:
    """Weighted eigenvalue problem on [alpha, beta].

    ``weight_fn`` is evaluated at absolute times in [alpha, beta]; the
    weight must be nonnegative and not identically zero there.  The angle
    flow calls it inside :func:`expressions.quiet_fp`.
    """

    weight_fn: object
    alpha: float
    beta: float
    c: float = 0.0
    left_bc: str = "dirichlet"
    right_bc: str = "dirichlet"

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
        """Eigenvalue problem on the i-th positivity interval of ``p``.

        No sign change lies strictly inside a hump, so the angle flow
        needs no restart there.  The weight is the compiled scalar
        evaluator :func:`weight.evaluate_scalar`.
        """
        lo, hi = p.pattern.pos_intervals()[i]
        return cls(evaluate_scalar(p.weight), lo, hi, p.c, left_bc, right_bc)


def prufer_angle_sweep(ep, lam):
    """Terminal angle theta(beta) with theta(alpha) fixed by the left BC
    (0 for Dirichlet, pi/2 for Neumann).

    The planar stepper carries theta with a second component that stays
    0; the tolerances are divided by sqrt(2), so the error norm of the
    pair is the RMS norm of theta alone, the step control of a 1-D
    DOP853.  Raises BracketingError naming lambda and [alpha, beta],
    chained to the stepper's DivergenceError, when the flow fails (a
    weight that is not finite, or a step size below the minimum).
    """
    if lam < 0:
        raise ConfigurationError("lambda must be nonnegative")
    theta0 = 0.0 if ep.left_bc == "dirichlet" else math.pi / 2.0
    weight_fn, c = ep.weight_fn, ep.c

    def field(t, theta, _):
        a = float(weight_fn(t))
        ect = math.exp(c * t)
        s, co = math.sin(theta), math.cos(theta)
        return co * co / ect + ect * lam * a * s * s, 0.0

    # weight_fn may call an expression unguarded: one guard for the sweep
    try:
        with quiet_fp():
            thetas = dop853(field, ep.alpha, ep.beta, theta0, 0.0,
                            _ANGLE_RTOL / _SQRT2, _ANGLE_ATOL / _SQRT2,
                            False)[1]
    except DivergenceError as exc:
        raise BracketingError(
            "angle integration failed at lambda=%.6g on [%.6g, %.6g]: %s"
            % (lam, ep.alpha, ep.beta, exc)) from exc
    return thetas[-1]


def _target_angle(ep):
    if ep.left_bc == "dirichlet":
        return math.pi if ep.right_bc == "dirichlet" else math.pi / 2.0
    # left neumann: start pi/2, first dirichlet zero at pi
    return math.pi


def first_eigenvalue(ep):
    """Smallest lambda > 0 whose terminal angle matches the right BC.

    Exponential bracketing from lambda = 1 followed by Brent's method;
    the terminal angle is strictly increasing in lambda, so the bracket
    contains exactly one eigenvalue.  Each end of the bracket must clear
    the target angle by ``_ANGLE_MARGIN``, since the sign of a closer
    gap may be round-off.  A sweep that ends within the margin at
    lambda is retried at lambda (1 + ``_PROBE_STEP``): past an
    eigenvalue at lambda, that sweep clears the target and closes the
    bracket; an angle that stays within the margin, as under strong
    friction, where it creeps up to pi for every lambda below the
    eigenvalue, raises BracketingError before Brent's method runs.
    """
    target = _target_angle(ep)

    def f(lam):
        return prufer_angle_sweep(ep, lam) - target

    if f(0.0) > -_ANGLE_MARGIN:
        raise BracketingError("terminal angle already at or past target at "
                              "lambda=0")
    lo, hi = 0.0, 1.0
    gap = f(hi)
    while gap < _ANGLE_MARGIN:
        if gap > -_ANGLE_MARGIN:
            probe = hi * (1.0 + _PROBE_STEP)
            if not f(probe) >= _ANGLE_MARGIN:
                raise BracketingError(
                    "terminal angle at lambda=%g ends %.2g from the target, "
                    "within the accuracy of the sweep" % (hi, gap))
            hi = probe
            break
        lo, hi = hi, 2.0 * hi
        if hi > LAMBDA_CAP:
            raise BracketingError(
                "no eigenvalue bracket found up to lambda=%g" % LAMBDA_CAP)
        gap = f(hi)
    return brentq(f, lo, hi, xtol=_LAMBDA_RTOL, rtol=_LAMBDA_RTOL)


def hump_eigenvalues(p):
    """The first eigenvalue of each positivity interval, in order:
    Dirichlet conditions, except that a hump touching an end of a
    Neumann window takes the Neumann condition at that end."""
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
        lams.append(first_eigenvalue(ep))
    return lams


def ginf_threshold(p):
    """The largest of the :func:`hump_eigenvalues`."""
    return max(hump_eigenvalues(p))


def check_ginf_hypothesis(p, ginf):
    """Raise HypothesisError unless g_inf exceeds the eigenvalue threshold."""
    thr = ginf_threshold(p)
    if not ginf > thr:
        raise HypothesisError(
            "g_inf=%.6g does not exceed the eigenvalue threshold %.6g"
            % (ginf, thr))
    return thr
