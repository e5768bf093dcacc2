"""Periodic sign-changing weights and their interval sign structure.

A weight is a T-periodic scalar function a(t).  The solver needs its
positive/negative parts, the scaled combination a+(t) - mu*a-(t), and the
partition of a period interval into intervals of positivity [sigma_i, tau_i]
separated by intervals of negativity [tau_i, sigma_{i+1}].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .brent import brentq
from .errors import ConfigurationError, DomainError, PatternError
from .expressions import Expression, unguarded
from .lazy import lazy_module

_sint = lazy_module("scipy.integrate")


def _check_period(period):
    if not 0 < period < math.inf:
        raise ConfigurationError(
            "period must be positive and finite, got %r" % period)
    return period


def _sine_period(freq, period):
    """The checked ``period``, or 2 pi / freq when it is None."""
    if freq == 0 or not math.isfinite(freq):
        raise ConfigurationError(
            "frequency must be finite and nonzero, got %r" % freq)
    return _check_period(2 * math.pi / freq if period is None else period)


@dataclass(frozen=True)
class WeightSpec:
    """T-periodic weight a(t).

    ``fn`` is evaluated on [0, period); :func:`evaluate` applies the
    periodic extension, and for a weight made by :meth:`shifted` reads
    ``fn`` at t + ``shift``, reduced again.  ``kink_hints`` lists times
    in [0, period) where the function may be non-smooth; only the
    quadrature of :func:`integrate_weight` splits there.  The ODE
    integrators restart at the detected sign changes alone: a kink inside
    a piece of one sign is left to step-size control, which rejects the
    steps that straddle it and keeps the flow at the requested tolerance.
    """

    period: float
    fn: object
    kink_hints: tuple = ()
    shift: float = 0.0

    def __post_init__(self):
        _check_period(self.period)

    # -- constructors ----------------------------------------------------

    @classmethod
    def sine(cls, freq, period=None):
        """a(t) = sin(freq * t)."""
        return cls(_sine_period(freq, period), lambda t: np.sin(freq * t))

    @classmethod
    def sin_pm(cls, freq, nu=1.0, mu=1.0, period=None):
        """a(t) = nu*sin+(freq t) - mu*sin-(freq t)."""
        period = _sine_period(freq, period)
        n_half = period * freq / math.pi
        hints = tuple(
            k * math.pi / freq
            for k in range(1, int(round(n_half)))
            if k * math.pi / freq < period
        )

        def fn(t):
            s = np.sin(freq * np.asarray(t, dtype=float))
            return nu * np.maximum(s, 0.0) - mu * np.maximum(-s, 0.0)

        return cls(period, fn, kink_hints=hints)

    @classmethod
    def from_expression(cls, src, period):
        expr = src if isinstance(src, Expression) else Expression(src)
        if expr.variable not in (None, "t"):
            raise ConfigurationError("weight expressions use the variable t")
        return cls(period, expr)

    @classmethod
    def from_table(cls, breaks, values, period=None):
        """Piecewise constant weight: value[i] on [breaks[i], breaks[i+1])."""
        breaks = np.asarray(breaks, dtype=float)
        values = np.asarray(values, dtype=float)
        if breaks.ndim != 1 or np.any(np.diff(breaks) <= 0):
            raise ConfigurationError("table breakpoints must be increasing")
        if len(values) != len(breaks) - 1:
            raise ConfigurationError("need one value per table cell")
        if period is None:
            period = breaks[-1] - breaks[0]
        t0 = breaks[0]

        def fn(t):
            idx = np.clip(np.searchsorted(breaks, np.asarray(t) + t0,
                                          side="right") - 1,
                          0, len(values) - 1)
            return values[idx]

        hints = tuple(b - t0 for b in breaks[1:-1])
        return cls(period, fn, kink_hints=hints)

    @classmethod
    def from_callable(cls, fn, period, kink_hints=()):
        return cls(period, fn, kink_hints=tuple(kink_hints))

    # -- derived weights -------------------------------------------------

    def shifted(self, t0):
        """Weight b(t) = a(t + t0)."""
        if t0 == 0:
            return self
        hints = tuple(sorted((h - t0) % self.period for h in self.kink_hints))
        return WeightSpec(self.period, self.fn, kink_hints=hints,
                          shift=self.shift + t0)


def evaluate(w, t):
    """a(t) with the periodic extension applied."""
    t = np.asarray(t, dtype=float)
    tw = t - w.period * np.floor(t / w.period)
    if w.shift:
        tw = tw + w.shift
        tw = tw - w.period * np.floor(tw / w.period)
    out = np.asarray(w.fn(tw), dtype=float)
    return float(out) if out.ndim == 0 else out


def positive_part(w, t):
    return np.maximum(evaluate(w, t), 0.0)


def negative_part(w, t):
    return np.maximum(-evaluate(w, t), 0.0)


def a_mu(w, mu, t):
    """a+(t) - mu * a-(t)."""
    if not mu > 0:
        raise DomainError("mu must be positive")
    a = evaluate(w, t)
    return np.maximum(a, 0.0) - mu * np.maximum(-a, 0.0)


def evaluate_scalar(w):
    """Compiled t -> a(t) for a float t, with the same bits as
    :func:`evaluate` at that point.  An expression weight is called
    without its floating-point guard, so the caller runs inside
    :func:`expressions.quiet_fp`."""
    T, shift = w.period, w.shift
    fn = unguarded(w.fn)

    def a_at(t):
        # x // 1.0 is np.floor(x) down to the sign of zero, so this is
        # evaluate's periodic reduction, twice for a shifted weight
        t = t - T * ((t / T) // 1.0)
        if shift:
            t = t + shift
            t = t - T * ((t / T) // 1.0)
        return float(fn(t))

    return a_at


def a_mu_vector(w, mu):
    """Compiled t -> a+(t) - mu * a-(t) for an array t, with the same bits
    as :func:`a_mu`: ``mu * a`` where a < 0 and ``a + 0.0`` elsewhere, which
    is the two-part form exactly, signed zeros included, on the values
    of :func:`evaluate`."""
    if not mu > 0:
        raise DomainError("mu must be positive")

    def a_mu_at(t):
        a = evaluate(w, t)
        return np.where(a < 0.0, mu * a, a + 0.0)

    return a_mu_at


def _translates_between(points, T, lo, hi):
    """The set of translates r + n*T that lie in (lo, hi), of the
    residues r in [0, T) of the points.

    Translating residues makes one float of each class: T and 0 both
    give ``0.0 + n * T``, which is ``n * T`` exactly, where ``T + (n-1)*T``
    could round 1 ulp away and leave a piece of length 1e-15 behind.
    """
    out = set()
    residues = {b % T for b in points}
    if not residues:
        return out
    n0 = math.floor((lo - max(residues)) / T)
    n1 = math.ceil((hi - min(residues)) / T)
    for n in range(n0, n1 + 1):
        for b in residues:
            t = b + n * T
            if lo < t < hi:
                out.add(t)
    return out


@dataclass(frozen=True)
class SignPattern:
    """Partition points sigma_1 < tau_1 < ... < tau_m < sigma_{m+1}.

    Positivity intervals are [sigma_i, tau_i]; negativity intervals are
    [tau_i, sigma_{i+1}].  Every pattern starts at t = 0.  ``mode`` is
    "periodic" (sigma_1 = 0 opens a positivity interval and the pattern
    spans one full period) or "neumann" (the pattern spans [0, T] as given;
    the boundary intervals may be degenerate).  ``origin_shift`` records
    the time shift applied to the weight so that a periodic pattern starts
    at 0.
    """

    m: int
    sigma: tuple
    tau: tuple
    origin_shift: float = 0.0
    mode: str = "periodic"

    def __post_init__(self):
        if self.m < 1 or len(self.sigma) != self.m + 1 or len(self.tau) != self.m:
            raise PatternError("inconsistent pattern sizes")
        pts = []
        for i in range(self.m):
            pts += [self.sigma[i], self.tau[i]]
        pts.append(self.sigma[-1])
        diffs = np.diff(pts)
        strict = diffs > 0
        if self.mode == "periodic":
            if self.sigma[0] != 0.0:
                raise PatternError("a periodic pattern starts at t = 0")
            if not np.all(strict):
                raise PatternError("pattern points must be strictly increasing")
        else:
            if not np.all(diffs >= 0):
                raise PatternError("pattern points must be nondecreasing")

    @property
    def period(self):
        # every pattern starts at t = 0, also a Neumann one that opens
        # with a negativity interval (sigma_1 > 0)
        return self.sigma[-1]

    def pos_intervals(self):
        return [(self.sigma[i], self.tau[i]) for i in range(self.m)]

    def neg_intervals(self):
        """Negativity intervals of the window, in order.

        In periodic mode there is one after each positivity interval, and
        they tile the rest of the period.  In neumann mode a weight that
        starts negative adds the leading [0, sigma_1], and the last
        interval may be degenerate (tau_m == T).
        """
        lead = [(0.0, self.sigma[0])] \
            if self.mode == "neumann" and self.sigma[0] > 0 else []
        return lead + [(self.tau[i], self.sigma[i + 1])
                       for i in range(self.m)]

    def breakpoints(self):
        pts = set(self.sigma) | set(self.tau)
        return tuple(sorted(pts))

    def breakpoints_between(self, lo, hi):
        """All pattern breakpoints and their period translates in (lo, hi)."""
        return sorted(_translates_between(self.breakpoints(), self.period,
                                          lo, hi))


_ZERO_TOL = 1e-9      # samples with |a| <= this count as zero
_REFINE_TOL = 1e-12   # bracket width of a refined sign change


def _refine_zero(w, lo, hi):
    """Sign change of a in [lo, hi] to within _REFINE_TOL.

    A bracket with one end exactly zero holds the edge of a zero plateau
    (or a crossing sampled exactly): bisect on the strict sign of the
    other end and return the end on the zero side.
    """
    flo = evaluate(w, lo)
    fhi = evaluate(w, hi)
    if flo * fhi > 0:
        # one endpoint sits (numerically) on the zero
        return lo if abs(flo) < abs(fhi) else hi
    if flo != 0.0 and fhi != 0.0:
        return brentq(lambda t: evaluate(w, t), lo, hi, xtol=_REFINE_TOL)
    zero_at_lo = flo == 0.0
    side = fhi if zero_at_lo else flo
    mid = 0.5 * (lo + hi)
    while hi - lo > _REFINE_TOL and lo < mid < hi:
        if (evaluate(w, mid) * side > 0) == zero_at_lo:
            hi = mid
        else:
            lo = mid
        mid = 0.5 * (lo + hi)
    return lo if zero_at_lo else hi


def detect_sign_pattern(w, samples=4096, periodic=True):
    """Detect the interval sign structure of the weight.

    Dense sampling over one period followed by refinement of each sign
    change.  A sample with ``|a| <= _ZERO_TOL`` joins a neighbouring
    positivity interval if it has one, otherwise the negativity interval
    around it.

    In periodic mode the pattern opens with the positivity interval that
    contains t = 0, or else the first one after it; ``origin_shift``
    records where that interval starts.
    """
    T = w.period
    dt = T / samples
    vals = evaluate(w, np.linspace(0.0, T, samples, endpoint=False))
    raw = np.where(vals > _ZERO_TOL, 1, np.where(vals < -_ZERO_TOL, -1, 0))
    nz = np.flatnonzero(raw)
    if nz.size == 0:
        raise PatternError("weight is identically zero on a period "
                           "(or unresolvable at tol)")
    # signs of the nearest nonzero samples on each side of every sample;
    # in neumann mode a trailing 0 stands for "none" at either end
    near = raw[nz] if periodic else np.append(raw[nz], 0)
    j = np.searchsorted(nz, np.arange(samples))
    pos = np.where(raw != 0, raw > 0,
                   (near[j - 1] > 0) | (near[j % near.size] > 0))
    if pos.all() or not pos.any():
        raise PatternError("weight has constant sign: not indefinite")

    if not periodic:
        starts = (np.flatnonzero(pos[1:] != pos[:-1]) + 1).tolist()
        edges = [0.0] + [_refine_zero(w, (i - 1) * dt, i * dt)
                         for i in starts] + [T]
        edges = edges[0 if pos[0] else 1:]
        tau = edges[1::2]
        sigma = edges[0::2][:len(tau)] + [T]
        # sigma_{m+1} is T; the trailing negativity interval may be
        # degenerate
        return SignPattern(len(tau), tuple(sigma), tuple(tau),
                           mode="neumann")

    starts = np.flatnonzero(pos != np.roll(pos, 1)).tolist()
    if pos[0] == pos[-1]:
        # the run through t = 0 starts before it
        starts = [starts[-1] - samples] + starts[:-1]
    if not pos[starts[0]]:
        starts = starts[1:] + starts[:1]
    b = np.array([_refine_zero(w, (i - 1) * dt, i * dt) for i in starts])
    ends = np.cumsum((np.roll(b, -1) - b) % T).tolist()
    sigma = [0.0] + ends[1::2]
    sigma[-1] = T  # snap the accumulated end to exactly T
    return SignPattern(len(b) // 2, tuple(sigma), tuple(ends[0::2]),
                       origin_shift=float(b[0] % T), mode="periodic")


def k_fold_pattern(p, k):
    """Pattern of the weight viewed as kT-periodic over [0, kT]."""
    if k < 1:
        raise DomainError("k must be >= 1")
    if k == 1:
        return p
    if p.mode != "periodic":
        raise PatternError("k-fold patterns require periodic mode")
    T = p.period
    sigma = []
    tau = []
    for n in range(k):
        sigma.extend(s + n * T for s in p.sigma[:-1])
        tau.extend(t + n * T for t in p.tau)
    sigma.append(k * T)
    return SignPattern(p.m * k, tuple(sigma), tuple(tau),
                       origin_shift=p.origin_shift, mode="periodic")


def split_points(w, lo, hi, pattern=None):
    """lo, hi and every kink hint of ``w`` and breakpoint of ``pattern``
    (repeated with the period) strictly between them, sorted: the ends of
    the smooth pieces of the weight on [lo, hi]."""
    sources = set(w.kink_hints)
    if pattern is not None:
        sources |= set(pattern.breakpoints())
    return sorted({lo, hi} | _translates_between(sources, w.period, lo, hi))


def integrate_weight(w, lo, hi, part=None, pattern=None):
    """Adaptive quadrature of a, a+ or a- over [lo, hi], split at the
    breakpoints so the kinks of the positive/negative parts are respected.

    ``part`` is None (signed weight), "+" or "-".
    """
    if part is None:
        f = lambda t: evaluate(w, t)
    elif part == "+":
        f = lambda t: positive_part(w, t)
    elif part == "-":
        f = lambda t: negative_part(w, t)
    else:
        raise DomainError("part must be None, '+' or '-'")
    return piecewise_quad(f, split_points(w, lo, hi, pattern))


def piecewise_quad(f, pts, epsrel=1e-12):
    """Integral of f from pts[0] to pts[-1]: one adaptive ``quad`` per
    piece [pts[i], pts[i + 1]] (absolute tolerance 1e-13), summed in
    order.  Splitting at the kinks keeps every piece smooth."""
    total = 0.0
    for a, b in zip(pts[:-1], pts[1:]):
        val, _ = _sint.quad(f, a, b, limit=200, epsabs=1e-13, epsrel=epsrel)
        total += val
    return total
