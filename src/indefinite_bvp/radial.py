"""Radially symmetric Neumann problems on an annulus, reduced to 1D.

With t = h(r) = int_{R1}^r xi^{1-N} dxi the radial equation

    U'' + ((N-1)/r) U' + Q_mu(r) g(U) = 0,  U'(R1) = U'(R2) = 0

becomes v'' + a_mu(t) g(v) = 0 on [0, T] with T = h(R2), where
a(t) = r(t)^{2(N-1)} Q(r(t)) and v(t) = U(r(t)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .integrator import ProblemSpec
from .nonlinearity import NonlinearitySpec
from .shooting import find_neumann_solutions
from .weight import WeightSpec, piecewise_quad

_GRID_NODES = 8192
_PROFILE_SAMPLES = 1024     # uniform points of a radial profile


@dataclass(frozen=True)
class AnnulusProblem:
    """Annulus R1 < |x| < R2 in dimension N with radial weight Q(r)."""

    N: int
    R1: float
    R2: float
    Q: object              # callable Q(r) on [R1, R2]
    g: NonlinearitySpec
    mu: float
    kink_hints: tuple = ()

    def __post_init__(self):
        if self.N < 2:
            raise ConfigurationError("space dimension must be >= 2")
        # the transformed weight scales Q by r^{2(N-1)}, up to R2's
        try:
            top = float(self.R2) ** (2 * (self.N - 1))
        except OverflowError:
            top = math.inf
        for name, value in (("R1", self.R1), ("R2", self.R2),
                            ("mu", self.mu), ("R2^{2(N-1)}", top)):
            if not math.isfinite(value):
                raise ConfigurationError("%s must be finite, got %r"
                                         % (name, value))
        if not 0 < self.R1 < self.R2:
            raise ConfigurationError("need 0 < R1 < R2")
        # the window [0, T] of the reduced problem, T = h(R2), overflows
        # for an R1 near 0 (R1^{2-N} for N >= 3, R2 / R1 for N = 2)
        try:
            with np.errstate(over="ignore", divide="ignore"):
                window = RadialMap(self.N, self.R1, self.R2).T
        except OverflowError:
            window = math.inf
        if not math.isfinite(window):
            raise ConfigurationError(
                "R1 = %r is too small: the window h(R2) of the reduced "
                "problem is not a finite float" % self.R1)
        if not self.mu > 0:
            raise ConfigurationError("mu must be positive")

    def q_at(self, r):
        return np.asarray(self.Q(np.asarray(r, dtype=float)), dtype=float)


class RadialMap:
    """Monotone change of variable t = h(r) and its inverse r(t)."""

    def __init__(self, N, R1, R2):
        self.N = N
        self.R1 = R1
        self.R2 = R2
        self.T = self.h(R2)

    def h(self, r):
        r = np.asarray(r, dtype=float)
        if self.N == 2:
            out = np.log(r / self.R1)
        elif self.N == 3:
            out = 1.0 / self.R1 - 1.0 / r
        else:
            n = 2 - self.N
            out = (r ** n - self.R1 ** n) / n
        return float(out) if out.ndim == 0 else out

    def r_of_t(self, t):
        t = np.asarray(t, dtype=float)
        if self.N == 2:
            out = self.R1 * np.exp(t)
        elif self.N == 3:
            out = 1.0 / (1.0 / self.R1 - t)
        else:
            n = 2 - self.N
            out = (self.R1 ** n + n * t) ** (1.0 / n)
        return float(out) if out.ndim == 0 else out

    def __call__(self, t):
        return self.r_of_t(t)


def radial_to_1d(ap):
    """(ProblemSpec in Neumann mode, r_of_t map) for the annulus problem.

    The transformed weight a(t) = r(t)^{2(N-1)} Q(r(t)) is kept as a
    callable on [0, T]; the kink hints of Q are mapped through h.  A Q of
    constant sign raises PatternError: integrating v'' + a_mu g(v) = 0
    over [0, T] with v'(0) = v'(T) = 0 gives int a_mu g(v) = 0, which no
    positive v satisfies when a_mu keeps one sign.
    """
    rm = RadialMap(ap.N, ap.R1, ap.R2)
    T = rm.T

    def fn(t):
        # np.clip's bits on floats and float arrays without its Python
        # wrappers; only -0.0 becomes +0.0, and r(-0.0) = r(0.0)
        t = np.minimum(np.maximum(t, 0.0), T)
        r = rm.r_of_t(t)
        return r ** (2 * (ap.N - 1)) * ap.q_at(r)

    hints = tuple(float(rm.h(r)) for r in ap.kink_hints if ap.R1 < r < ap.R2)
    w = WeightSpec.from_callable(fn, T, kink_hints=hints)
    p = ProblemSpec.build(w, ap.mu, 0.0, ap.g, boundary="neumann",
                          samples=_GRID_NODES)
    return p, rm


def solution_to_radial(v, r_of_t):
    """Radial profile samples (r, U(r)) from a 1D trajectory."""
    ts, us, _ = v.sample(_PROFILE_SAMPLES)
    rs = np.asarray(r_of_t(ts), dtype=float)
    return rs, us


def check_q_integral(ap):
    """int_{R1}^{R2} r^{N-1} Q_mu(r) dr; a negative value is the reduced
    form of the necessary sign condition on the annulus."""
    def f(r):
        q = float(ap.q_at(r))
        qmu = max(q, 0.0) - ap.mu * max(-q, 0.0)
        return r ** (ap.N - 1) * qmu

    pts = sorted({ap.R1, ap.R2} |
                 {r for r in ap.kink_hints if ap.R1 < r < ap.R2})
    return piecewise_quad(f, pts, epsrel=1e-11)


def find_radial_solutions(ap, sc=None):
    """Positive radial Neumann profiles via the 1D reduction.

    Returns (records, RadialMap, problem): the records of the Neumann
    search, the map between t and r, and the 1D Neumann problem that was
    solved.  Each record's trajectory lives in the transformed variable t;
    use solution_to_radial with the map for (r, U) samples.
    """
    p, rm = radial_to_1d(ap)
    recs = find_neumann_solutions(p, sc)
    return recs, rm, p
