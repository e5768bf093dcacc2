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
from scipy import integrate as _sint
from scipy import optimize as _sopt

from .errors import ConfigurationError, DomainError, PatternError
from .expressions import Expression, unguarded


@dataclass(frozen=True)
class WeightSpec:
    """T-periodic weight a(t).

    ``fn`` is evaluated on [0, period); :func:`evaluate` applies the
    periodic extension.  ``kink_hints`` lists times in [0, period) where
    the function may be non-smooth; only the quadrature of
    :func:`integrate_weight` splits there.  The ODE integrators restart
    at the detected sign changes alone.
    """

    period: float
    fn: object
    kind: str = "callable"
    params: tuple = ()
    kink_hints: tuple = ()

    def __post_init__(self):
        if not (self.period > 0):
            raise ConfigurationError("period must be positive")

    # -- constructors ----------------------------------------------------

    @classmethod
    def sine(cls, freq, period=None):
        """a(t) = sin(freq * t)."""
        if period is None:
            period = 2 * math.pi / freq
        return cls(period, lambda t: np.sin(freq * t), kind="sine",
                   params=(freq,))

    @classmethod
    def sin_pm(cls, freq, nu=1.0, mu=1.0, period=None):
        """a(t) = nu*sin+(freq t) - mu*sin-(freq t)."""
        if period is None:
            period = 2 * math.pi / freq
        n_half = period * freq / math.pi
        hints = tuple(
            k * math.pi / freq
            for k in range(1, int(round(n_half)))
            if k * math.pi / freq < period
        )

        def fn(t):
            s = np.sin(freq * np.asarray(t, dtype=float))
            return nu * np.maximum(s, 0.0) - mu * np.maximum(-s, 0.0)

        return cls(period, fn, kind="sin_pm", params=(freq, nu, mu),
                   kink_hints=hints)

    @classmethod
    def from_expression(cls, src, period):
        expr = src if isinstance(src, Expression) else Expression(src)
        if expr.variable not in (None, "t"):
            raise ConfigurationError("weight expressions use the variable t")
        return cls(period, expr, kind="expression", params=(expr.source,))

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
        return cls(period, fn, kind="table",
                   params=(tuple(breaks), tuple(values)),
                   kink_hints=hints)

    @classmethod
    def from_callable(cls, fn, period, kink_hints=()):
        return cls(period, fn, kind="callable", kink_hints=tuple(kink_hints))

    # -- derived weights -------------------------------------------------

    def shifted(self, t0):
        """Weight b(t) = a(t + t0)."""
        if t0 == 0:
            return self
        base = self
        hints = tuple(sorted((h - t0) % self.period for h in self.kink_hints))
        return WeightSpec(self.period, lambda t: evaluate(base, t + t0),
                          kind=self.kind + "+shift",
                          params=self.params + (t0,), kink_hints=hints)


def evaluate(w, t):
    """a(t) with the periodic extension applied."""
    t = np.asarray(t, dtype=float)
    tw = t - w.period * np.floor(t / w.period)
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


def a_mu_scalar(w, mu):
    """Compiled t -> a+(t) - mu * a-(t) for a float t, with the same bits
    as :func:`a_mu` at that point.

    The two-part form is a for a > 0, 0.0 for a = +-0.0, and
    0.0 - mu * (-a) = mu * a exactly for a < 0; ``a + 0.0`` and
    ``mu * a`` give the same bits.  An expression weight is called
    without its floating-point guard, so the caller runs inside
    :func:`expressions.quiet_fp`.
    """
    if not mu > 0:
        raise DomainError("mu must be positive")
    T = w.period
    fn = unguarded(w.fn)

    def a_mu_at(t):
        # x // 1.0 is np.floor(x) down to the sign of zero, so this is
        # evaluate's periodic reduction
        a = float(fn(t - T * ((t / T) // 1.0)))
        return mu * a if a < 0.0 else a + 0.0

    return a_mu_at


@dataclass(frozen=True)
class SignPattern:
    """Partition points sigma_1 < tau_1 < ... < tau_m < sigma_{m+1}.

    Positivity intervals are [sigma_i, tau_i]; negativity intervals are
    [tau_i, sigma_{i+1}].  ``mode`` is "periodic" (the pattern starts with a
    positivity interval and spans one full period) or "neumann" (the pattern
    spans [0, T] as given; the boundary intervals may be degenerate).
    ``origin_shift`` records the time shift applied to the weight so that
    the pattern starts at 0.
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
            if not np.all(strict):
                raise PatternError("pattern points must be strictly increasing")
        else:
            if not np.all(diffs >= 0):
                raise PatternError("pattern points must be nondecreasing")

    @property
    def period(self):
        # a Neumann pattern spans [0, T] even when the weight starts with
        # a negativity interval (sigma_1 > 0)
        if self.mode == "neumann":
            return self.sigma[-1]
        return self.sigma[-1] - self.sigma[0]

    @property
    def start(self):
        return 0.0 if self.mode == "neumann" else self.sigma[0]

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
        T = self.period
        base = self.breakpoints()
        out = set()
        n0 = math.floor((lo - base[-1]) / T)
        n1 = math.ceil((hi - base[0]) / T)
        for n in range(n0, n1 + 1):
            for b in base:
                t = b + n * T
                if lo < t < hi:
                    out.add(t)
        return sorted(out)


def _refine_zero(w, lo, hi, tol):
    """Bisect the sign change of a in [lo, hi] to within tol."""
    flo = evaluate(w, lo)
    fhi = evaluate(w, hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0:
        # one endpoint sits (numerically) on the zero
        return lo if abs(flo) < abs(fhi) else hi
    return _sopt.brentq(lambda t: evaluate(w, t), lo, hi, xtol=tol)


def detect_sign_pattern(w, tol=1e-9, samples=4096, periodic=True,
                        refine_tol=1e-12):
    """Detect the interval sign structure of the weight.

    Dense sampling over one period followed by bisection refinement of each
    sign change.  Intervals where ``|a| <= tol`` are absorbed into an
    adjacent positivity interval if one exists, otherwise into the interior
    of the surrounding negativity interval.

    In periodic mode the returned pattern starts at the beginning of a
    positivity interval; ``origin_shift`` records the applied shift.
    """
    T = w.period
    ts = np.linspace(0.0, T, samples, endpoint=False)
    vals = evaluate(w, ts)
    signs = np.where(vals > tol, 1, np.where(vals < -tol, -1, 0))

    # runs of equal sign over the sampled circle
    runs = []  # (sign, start_index, end_index_exclusive)
    start = 0
    for i in range(1, samples):
        if signs[i] != signs[start]:
            runs.append((signs[start], start, i))
            start = i
    runs.append((signs[start], start, samples))
    if periodic and len(runs) > 1 and runs[0][0] == runs[-1][0]:
        sgn, s0, _ = runs.pop()
        runs[0] = (sgn, s0 - samples, runs[0][2])

    # absorb zero runs: into an adjacent positive run when possible,
    # otherwise into a negative run
    def _absorb(runs):
        changed = True
        while changed and len(runs) > 1:
            changed = False
            for idx, (sgn, s0, s1) in enumerate(runs):
                if sgn != 0:
                    continue
                prev_i = (idx - 1) % len(runs) if periodic else idx - 1
                next_i = (idx + 1) % len(runs) if periodic else idx + 1
                prev = runs[prev_i] if 0 <= prev_i < len(runs) else None
                nxt = runs[next_i] if 0 <= next_i < len(runs) and next_i != idx else None
                target = None
                if prev is not None and prev[0] > 0:
                    target = prev_i
                elif nxt is not None and nxt[0] > 0:
                    target = next_i
                elif prev is not None and prev[0] < 0:
                    target = prev_i
                elif nxt is not None and nxt[0] < 0:
                    target = next_i
                if target is None:
                    continue
                tsgn = runs[target][0]
                if target == prev_i:
                    runs[target] = (tsgn, runs[target][1], s1)
                else:
                    runs[target] = (tsgn, s0, runs[target][2])
                runs.pop(idx)
                changed = True
                break
        # merge equal-sign neighbours created by absorption
        merged = [runs[0]]
        for sgn, s0, s1 in runs[1:]:
            if merged[-1][0] == sgn:
                merged[-1] = (sgn, merged[-1][1], s1)
            else:
                merged.append((sgn, s0, s1))
        if periodic and len(merged) > 1 and merged[0][0] == merged[-1][0]:
            sgn, s0, _ = merged.pop()
            merged[0] = (sgn, s0 - samples, merged[0][2])
        return merged

    runs = _absorb(runs)
    nonzero = [r for r in runs if r[0] != 0]
    if any(r[0] == 0 for r in runs):
        raise PatternError("weight is identically zero on a period "
                           "(or unresolvable at tol)")
    pos = [r for r in nonzero if r[0] > 0]
    neg = [r for r in nonzero if r[0] < 0]
    if not pos or not neg:
        raise PatternError("weight has constant sign: not indefinite")

    dt = T / samples

    def sample_time(i):
        return i * dt

    # boundaries between consecutive runs, refined by bisection
    boundaries = []  # time of the transition before run j
    for j in range(len(runs)):
        lo = sample_time(runs[j][1] - 1)
        hi = sample_time(runs[j][1])
        boundaries.append(_refine_zero(w, lo, hi, refine_tol))

    if periodic:
        # rotate so the first run is positive
        first_pos = next(i for i, r in enumerate(runs) if r[0] > 0)
        order = list(range(first_pos, len(runs))) + list(range(first_pos))
        t0 = boundaries[first_pos]
        sigma = [0.0]
        tau = []
        t_cursor = 0.0
        for pos_idx, j in enumerate(order):
            nxt = order[(pos_idx + 1) % len(order)]
            b_next = boundaries[nxt]
            length = (b_next - boundaries[j]) % T
            if length <= 0:
                length += T
            t_cursor += length
            if runs[j][0] > 0:
                tau.append(t_cursor)
            else:
                sigma.append(t_cursor)
        if len(sigma) != len(tau) + 1:
            raise PatternError("positivity/negativity runs do not alternate")
        m = len(tau)
        # snap accumulated end to exactly T
        sigma[-1] = T
        return SignPattern(m, tuple(sigma), tuple(tau),
                           origin_shift=t0 % T, mode="periodic")

    # neumann mode: keep [0, T] as given
    sigma = []
    tau = []
    for j, (sgn, s0, s1) in enumerate(runs):
        lo_t = 0.0 if j == 0 else boundaries[j]
        hi_t = T if j == len(runs) - 1 else boundaries[j + 1]
        if sgn > 0:
            sigma.append(lo_t)
            tau.append(hi_t)
    m = len(tau)
    # sigma_{m+1} is T; the trailing negativity interval may be degenerate
    sigma.append(T)
    return SignPattern(m, tuple(sigma), tuple(tau), origin_shift=0.0,
                       mode="neumann")


def k_fold_pattern(p, k):
    """Pattern of the weight viewed as kT-periodic over [start, start+kT]."""
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
    sigma.append(p.sigma[0] + k * T)
    return SignPattern(p.m * k, tuple(sigma), tuple(tau),
                       origin_shift=p.origin_shift, mode="periodic")


def _split_points(w, lo, hi, pattern=None):
    pts = {lo, hi}
    T = w.period
    sources = set(w.kink_hints)
    if pattern is not None:
        sources |= set(pattern.breakpoints())
    for b in sources:
        n0 = math.floor((lo - b) / T)
        n1 = math.ceil((hi - b) / T)
        for n in range(n0, n1 + 1):
            t = b + n * T
            if lo < t < hi:
                pts.add(t)
    return sorted(pts)


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
    pts = _split_points(w, lo, hi, pattern)
    total = 0.0
    for a, b in zip(pts[:-1], pts[1:]):
        val, _ = _sint.quad(f, a, b, limit=200, epsabs=1e-13, epsrel=1e-12)
        total += val
    return total
