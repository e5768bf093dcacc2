"""Planar integration of u'' + c u' + a_mu(t) g~(u) = 0 with steps that
never straddle a sign change of the weight.

The scalar field uses the standard extension g~ of the nonlinearity to
negative arguments: the forcing term is a_mu(t) g(u) for u >= 0 and -u for
u < 0, so that nontrivial fixed points of the period map are positive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import optimize as _sopt
from scipy.integrate import solve_ivp

from .errors import ConfigurationError, DivergenceError, DomainError
from .expressions import quiet_fp
from .nonlinearity import NonlinearitySpec, g_scalar, g_vector
from .weight import (SignPattern, WeightSpec, a_mu_scalar, a_mu_vector,
                     detect_sign_pattern)

BLOWUP_NORM = 1e8
DEFAULT_RTOL = 1e-10
DEFAULT_ATOL = 1e-12


@dataclass(frozen=True)
class State:
    """Planar state (u, u')."""

    u: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.u) and math.isfinite(self.y)):
            raise DomainError("state components must be finite")

    def as_array(self):
        return np.array([self.u, self.y], dtype=float)


@dataclass(frozen=True)
class ProblemSpec:
    """Full 1D problem: weight, sign pattern, mu, friction c, nonlinearity
    and boundary mode ("periodic" or "neumann").

    The pattern fixes the window [0, period] and the breakpoints at which
    every integrator restarts.  The evaluators of a_mu and g are built
    once, at construction: the scalar pair that :meth:`rhs` calls (its
    a_mu also serves :meth:`forcing` at a float t) and the vector pair
    behind :meth:`a_mu_at`, :meth:`forcing` and :meth:`extended`.
    :meth:`rhs` is the field of :func:`integrate`; :meth:`forcing` is the
    field of the one batched flow, :func:`shooting._batch_flow`.
    """

    weight: WeightSpec
    pattern: SignPattern
    mu: float
    c: float
    g: NonlinearitySpec
    boundary: str = "periodic"

    def __post_init__(self):
        if not self.mu > 0:
            raise DomainError("mu must be positive")
        if self.boundary not in ("periodic", "neumann"):
            raise ConfigurationError("boundary must be periodic or neumann")
        object.__setattr__(self, "_a_mu", a_mu_scalar(self.weight, self.mu))
        object.__setattr__(self, "_g", g_scalar(self.g))
        object.__setattr__(self, "_a_mu_vec", a_mu_vector(self.weight,
                                                          self.mu))
        object.__setattr__(self, "_g_vec", g_vector(self.g))

    def __reduce__(self):
        # the compiled closures do not pickle; the fields rebuild them
        return (type(self), (self.weight, self.pattern, self.mu, self.c,
                             self.g, self.boundary))

    @classmethod
    def build(cls, weight, mu, c, g, boundary="periodic", samples=4096):
        """Detect the sign pattern and align the weight so the pattern
        starts at t = 0 (periodic mode shifts the origin to the beginning
        of a positivity interval)."""
        pattern = detect_sign_pattern(weight, samples=samples,
                                      periodic=(boundary == "periodic"))
        if pattern.origin_shift != 0.0:
            weight = weight.shifted(pattern.origin_shift)
        return cls(weight, pattern, mu, c, g, boundary)

    @property
    def period(self):
        return self.pattern.period

    def breakpoints_between(self, lo, hi):
        return self.pattern.breakpoints_between(lo, hi)

    def a_mu_at(self, t):
        """a+(t) - mu * a-(t), with the bits of :func:`weight.a_mu`."""
        out = self._a_mu_vec(t)
        return float(out) if out.ndim == 0 else out

    def forcing(self, t, u):
        """Extended forcing f~(t, u): a_mu(t) g(u) for u >= 0, -u below.

        At a float t, a_mu is evaluated once, by the compiled scalar
        evaluator of :meth:`rhs` (the same bits as the vector one), and
        applied to every entry of u; as in :meth:`rhs`, an expression
        weight is then called without its floating-point guard, so a
        caller that wants quiet inf/nan runs inside
        :func:`expressions.quiet_fp` (:func:`shooting._batch_flow` does).
        An array t takes the vector evaluator, one a_mu per entry.
        """
        a = self._a_mu(t) if np.ndim(t) == 0 else self._a_mu_vec(t)
        out = self.extended(a, np.asarray(u, dtype=float))
        return float(out) if out.ndim == 0 else out

    def extended(self, a, u):
        """f~ from weight values a = a_mu(t) at a float array u: a g(u)
        for u >= 0, -u below.  :meth:`forcing` and the screen share it."""
        return np.where(u >= 0.0, a * self._g_vec(np.maximum(u, 0.0)), -u)

    def rhs(self, t, state):
        """Planar field at a float t: the scalar branch of :meth:`forcing`,
        with the same bits."""
        u, y = state
        f = -u if u < 0.0 else self._a_mu(t) * self._g(u)
        return np.array([y, -self.c * y - f])


class Trajectory:
    """Dense numerical solution over [t0, t1] with breakpoint-aligned steps.

    ``segments`` holds one scipy dense-output interpolant per smooth piece
    of the weight, so evaluation anywhere in the span is available.
    """

    def __init__(self, times, states, segments):
        self.times = np.asarray(times, dtype=float)
        self.states = np.asarray(states, dtype=float)
        self.segments = segments  # list of (lo, hi, OdeSolution)
        if np.any(np.diff(self.times) <= 0):
            # duplicate joints are dropped by the builder; keep the guard
            raise DomainError("trajectory times must be strictly increasing")

    @property
    def span(self):
        return self.times[0], self.times[-1]

    def eval(self, t):
        """Dense evaluation (u, y) at scalar or array t."""
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        out = np.empty((t_arr.size, 2))
        bounds = np.array([seg[0] for seg in self.segments] +
                          [self.segments[-1][1]])
        idx = np.clip(np.searchsorted(bounds, t_arr, side="right") - 1,
                      0, len(self.segments) - 1)
        for i in np.unique(idx):
            mask = idx == i
            sol = self.segments[i][2]
            out[mask] = sol(t_arr[mask]).T
        if np.isscalar(t) or np.asarray(t).ndim == 0:
            return out[0]
        return out

    def sample(self, n=512):
        """(t, u, y) on a uniform grid of n points joined with the nodes."""
        lo, hi = self.span
        ts = np.union1d(np.linspace(lo, hi, n), self.times)
        vals = self.eval(ts)
        return ts, vals[:, 0], vals[:, 1]

    def to_csv(self, path):
        ts, us, ys = self.sample()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("t,u,up\n")
            for t, u, y in zip(ts, us, ys):
                fh.write("%.17g,%.17g,%.17g\n" % (t, u, y))


def integrate(p, s0, t0, t1, rtol=DEFAULT_RTOL, atol=DEFAULT_ATOL,
              dense=True):
    """Integrate the extended planar system over [t0, t1] with DOP853.

    Integration restarts exactly at every weight breakpoint in (t0, t1);
    no accepted step interior contains a sign change of the weight.
    Raises DivergenceError if |u| + |y| exceeds the blow-up guard.
    ``dense=False`` builds no interpolant and returns the terminal state.
    """
    if not t0 < t1:
        raise DomainError("need t0 < t1")
    if isinstance(s0, State):
        y0 = s0.as_array()
    else:
        y0 = np.asarray(s0, dtype=float)
    breaks = p.breakpoints_between(t0, t1)
    edges = [t0] + breaks + [t1]

    def guard(t, y):
        return abs(y[0]) + abs(y[1]) - BLOWUP_NORM

    guard.terminal = True
    guard.direction = 1

    times = [t0]
    states = [y0.copy()]
    segments = []
    y_cur = y0
    # p.rhs calls expressions unguarded: one guard for the whole flow
    with quiet_fp():
        for lo, hi in zip(edges[:-1], edges[1:]):
            sol = solve_ivp(p.rhs, (lo, hi), y_cur, method="DOP853",
                            rtol=rtol, atol=atol, dense_output=dense,
                            events=guard)
            if sol.status == 1 or not sol.success:
                t_last = float(sol.t[-1])
                raise DivergenceError(
                    "trajectory escaped the guard region near t=%.6g"
                    % t_last, last_time=t_last,
                    last_state=tuple(sol.y[:, -1]))
            segments.append((lo, hi, sol.sol))
            times.extend(sol.t[1:])
            states.extend(sol.y[:, 1:].T)
            y_cur = sol.y[:, -1]
    if not dense:
        return np.asarray(y_cur)
    # drop accidental duplicate nodes at the joints
    times = np.asarray(times)
    states = np.asarray(states)
    keep = np.concatenate(([True], np.diff(times) > 0))
    return Trajectory(times[keep], states[keep], segments)


def flow(p, s0, t_span, rtol=DEFAULT_RTOL, atol=DEFAULT_ATOL):
    """Terminal state only (no dense output)."""
    y = integrate(p, s0, t_span[0], t_span[1], rtol=rtol, atol=atol,
                  dense=False)
    return State(float(y[0]), float(y[1]))


def max_on_interval(traj, lo, hi):
    """(tmax, umax) of u over [lo, hi], node scan plus local refinement."""
    t0, t1 = traj.span
    if lo < t0 - 1e-12 or hi > t1 + 1e-12:
        raise DomainError("interval outside trajectory span")
    lo = max(lo, t0)
    hi = min(hi, t1)
    if hi <= lo:
        u = float(traj.eval(lo)[0])
        return lo, u
    nodes = traj.times[(traj.times >= lo) & (traj.times <= hi)]
    ts = np.union1d(np.linspace(lo, hi, 257), nodes)
    us = traj.eval(ts)[:, 0]
    k = int(np.argmax(us))
    left = ts[max(k - 1, 0)]
    right = ts[min(k + 1, len(ts) - 1)]
    best_t, best_u = ts[k], us[k]
    if right > left:
        res = _sopt.minimize_scalar(lambda t: -float(traj.eval(t)[0]),
                                    bounds=(left, right), method="bounded",
                                    options={"xatol": 1e-12})
        if -res.fun > best_u:
            best_t, best_u = float(res.x), float(-res.fun)
    return best_t, best_u

