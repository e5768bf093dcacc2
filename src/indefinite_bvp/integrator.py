"""Planar integration of u'' + c u' + a_mu(t) g~(u) = 0 with steps that
never straddle a sign change of the weight.

The scalar field uses the standard extension g~ of the nonlinearity to
negative arguments: the forcing term is a_mu(t) g(u) for u >= 0 and -u for
u < 0, so that nontrivial fixed points of the period map are positive.

:func:`integrate` runs one DOP853 stepper, :func:`dop853`, on the
Python floats (u, u'): the Dormand–Prince 8(5,3) pair with the step
control and dense output of Hairer, Nørsett and Wanner, *Solving ODEs
I*, §II.4 and §II.10, and the rules of scipy's ``DOP853`` (its tableau,
initial step, error norm, step factors and minimum step), without the
generic ``solve_ivp`` loop and its per-call array handling.  The stepper
takes any planar float field ``field(t, u, y) -> (u', y')``, three
floats in and two out; :mod:`eigen` steps its Prüfer angle on it.  Its
stages are straight-line float code, :mod:`dop853_stages`, rendered
from the tableau: each stage sum is written out over the nonzero
coefficients of its row, in the order a loop over the row adds them,
so no tableau row is indexed and no state tuple is built per stage.
:func:`flow_rows` is its batched twin on numpy rows: many segment
flows in one step sequence, the steps of ``solve_ivp``'s DOP853 bit for
bit, with the weight evaluated once per step.  Both take the tableau
from :mod:`dop853_coefficients`, a vendored copy of scipy's, so this
module loads no scipy; :func:`max_on_interval` refines the hump maxima
on a grid with :func:`brent.grid_minimum`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dop853_coefficients as _dop
from . import dop853_stages
from .brent import grid_minimum
from .errors import ConfigurationError, DivergenceError, DomainError
from .expressions import quiet_fp
from .nonlinearity import NonlinearitySpec, g_scalar, g_vector
from .weight import (SignPattern, WeightSpec, a_mu_vector,
                     detect_sign_pattern, evaluate_scalar)

BLOWUP_NORM = 1e8
DEFAULT_RTOL = 1e-10
DEFAULT_ATOL = 1e-12

# the stages of a step; stage _N is the field at the step end
_N = _dop.N_STAGES
# scipy's step control: rtol floor, safety, factor bounds, 1 / (order + 1)
# of the 7th-order error estimator
_RTOL_FLOOR = 100 * np.finfo(float).eps
_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
_EXPONENT = -1.0 / 8.0
_SQRT2 = math.sqrt(2.0)
# the step fractions of stages 1..11 and of the step end, for the batched
# kernel, which steps with scipy's tableau arrays themselves
_C_STEP = np.append(_dop.C[1:_N], 1.0)


@dataclass(frozen=True)
class State:
    """Planar state (u, u')."""

    u: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.u) and math.isfinite(self.y)):
            raise DomainError("state components must be finite")


@dataclass(frozen=True)
class ProblemSpec:
    """Full 1D problem: weight, sign pattern, mu, friction c, nonlinearity
    and boundary mode ("periodic" or "neumann"), which must be the mode
    of the sign pattern.

    The pattern fixes the window [0, period] and the breakpoints at which
    every integrator restarts; mu must be positive and finite and c
    finite.  The evaluators are built once, at construction, one per
    data layout: ``rhs``, the float field (one closure, see
    :func:`_float_field`) that :func:`integrate` hands to the float
    DOP853 stepper, and ``a_mu_at``, the vector a_mu of
    :func:`weight.a_mu_vector`, whose values :meth:`extended` takes once
    per step as the field of the batched kernel :func:`flow_rows`, which
    flows the grid screen and the Newton rows.  Both call an expression g
    without its floating-point guard, so their callers run inside
    :func:`expressions.quiet_fp`.
    """

    weight: WeightSpec
    pattern: SignPattern
    mu: float
    c: float
    g: NonlinearitySpec
    boundary: str = "periodic"

    def __post_init__(self):
        if not 0.0 < self.mu < math.inf:
            raise DomainError("mu must be positive and finite")
        if not math.isfinite(self.c):
            raise DomainError("c must be finite")
        if self.boundary not in ("periodic", "neumann"):
            raise ConfigurationError("boundary must be periodic or neumann")
        if self.pattern.mode != self.boundary:
            raise ConfigurationError(
                "a %s problem needs a %s sign pattern, not a %s one"
                % (self.boundary, self.boundary, self.pattern.mode))
        object.__setattr__(self, "rhs", _float_field(
            self.weight, self.mu, self.c, self.g))
        object.__setattr__(self, "a_mu_at", a_mu_vector(self.weight,
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

    def extended(self, a, u):
        """f~ from weight values a = a_mu(t) at a float array u: a g(u)
        for u >= 0, -u below, bit for bit the forcing inside ``rhs``:
        the forcing of :func:`flow_rows`.

        One branch-free form, ``a g(max(u, 0)) - min(u, 0)``.  For u >= 0
        it is a g(u) - 0.0, which is a g(u) exactly, -0.0 included; for
        u < 0 (and u = -inf) g(+0.0) = +0.0, so it is +-0.0 - u = -u
        exactly.  Only the sign and payload of a nan can differ from the
        two-branch form, and no caller reads them: :func:`flow_rows`
        leaves out every row that is not finite.
        """
        return a * self._g_vec(np.maximum(u, 0.0)) - np.minimum(u, 0.0)


def _float_field(weight, mu, c, g):
    """The planar field (u', y') at floats t, u and y, ``field(t, u, y)``,
    as one closure over the compiled weight and g.  Its forcing is -u
    below u = 0 and a_mu(t) g(u) from u = 0 on, with the bits of
    :meth:`ProblemSpec.extended` at a_mu(t) from ``a_mu_at``.

    a_mu is ``mu * a`` for a < 0 and ``a + 0.0`` otherwise.  The
    two-part form a+ - mu a- is a for a > 0, 0.0 for a = +-0.0, and
    0.0 - mu * (-a) = mu * a exactly for a < 0; ``a + 0.0`` and
    ``mu * a`` give those bits, signed zeros included.  The weight comes
    from :func:`weight.evaluate_scalar` and g from
    :func:`nonlinearity.g_scalar`, both unguarded, so the caller runs
    inside :func:`expressions.quiet_fp`.
    """
    a_at = evaluate_scalar(weight)
    g_at = g_scalar(g)

    def field(t, u, y):
        if u < 0.0:
            f = -u
        else:
            a = a_at(t)
            f = float((mu * a if a < 0.0 else a + 0.0) * g_at(u))
        return y, -c * y - f

    return field


class Trajectory:
    """Dense numerical solution over [t0, t1] with breakpoint-aligned steps.

    ``times`` are the step ends, t0 first; ``states`` the state each of
    the n steps starts from, then the final state; ``F``, (n, 7, 2), the
    rows of scipy's ``Dop853DenseOutput`` of each step.  A time equal to
    a step start belongs to the step that starts there, and t1 to the
    last step.
    """

    def __init__(self, times, states, F):
        self.times = np.asarray(times, dtype=float)
        self.states = np.asarray(states, dtype=float)
        self.F = np.asarray(F, dtype=float)
        n = len(self.times) - 1
        if n < 1 or self.states.shape != (n + 1, 2) or \
                self.F.shape != (n, _dop.INTERPOLATOR_POWER, 2):
            raise DomainError("a trajectory of n >= 1 steps needs n + 1 "
                              "times and states and n blocks of rows")
        if np.any(np.diff(self.times) <= 0):
            raise DomainError("trajectory times must be strictly increasing")

    @classmethod
    def join(cls, trajs):
        """The trajectories ``trajs``, each starting where the one before
        ends, as one.  At each joint it keeps the state the later piece
        starts from; each piece's rows were built from its own end state,
        so a defect at a joint stays inside the earlier piece's rows."""
        last = trajs[-1]
        return cls(
            np.concatenate([t.times[:-1] for t in trajs] + [last.times[-1:]]),
            np.concatenate([t.states[:-1] for t in trajs]
                           + [last.states[-1:]]),
            np.concatenate([t.F for t in trajs]))

    @property
    def span(self):
        return self.times[0], self.times[-1]

    def eval(self, t):
        """Dense evaluation (u, y) at t: shape (2,) for a scalar t, (m, 2)
        for an array of m times."""
        t = np.asarray(t, dtype=float)
        times = self.times
        i = np.clip(np.searchsorted(times, t, side="right") - 1,
                    0, len(self.F) - 1)
        x = ((t - times[i]) / (times[i + 1] - times[i]))[..., None]
        F = self.F[i]
        y = np.zeros(x.shape[:-1] + (2,))
        for r in range(F.shape[-2] - 1, -1, -1):
            y += F[..., r, :]
            y *= x if r % 2 == 0 else 1.0 - x
        return y + self.states[i]

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


def _initial_step(field, t, u, y, fu, fy, t_end, rtol, atol):
    """scipy's ``select_initial_step`` for the 7th-order error estimator
    (Hairer, Nørsett and Wanner, §II.4), on floats."""
    length = t_end - t
    su = atol + abs(u) * rtol
    sy = atol + abs(y) * rtol
    d0 = math.hypot(u / su, y / sy) / _SQRT2
    d1 = math.hypot(fu / su, fy / sy) / _SQRT2
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, length)
    f1u, f1y = field(t + h0, u + h0 * fu, y + h0 * fy)
    d2 = math.hypot((f1u - fu) / su, (f1y - fy) / sy) / _SQRT2 / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        # d2 first: a nan d2 gives a nan h1, which min() passes over
        h1 = (0.01 / max(d2, d1)) ** (1.0 / 8.0)
    return min(100 * h0, h1, length)


def _diverged(reason, t, u, y):
    return DivergenceError("%s near t=%.6g" % (reason, t), last_time=t,
                           last_state=(u, y))


def dop853(field, t, t_end, u, y, rtol, atol, dense):
    """DOP853 over one smooth piece [t, t_end] of the planar field
    ``field(t, u, y)``, which takes and returns floats, the pair of
    derivatives (u', y'), from the state (u, y).

    Each attempted step is one call of the written-out stages
    :func:`dop853_stages.step`; this loop keeps scipy's step control,
    error norm, minimum step and the escape checks.
    Returns the accepted step ends (start included) as lists ``ts``,
    ``us``, ``ys`` and the 16 stages (ku, ky) of each step, an empty
    list unless ``dense``; the three extra stages of the dense output,
    :func:`dop853_stages.dense`, are computed only then, after a step
    is accepted, so they never change the steps.
    Raises DivergenceError, with the last accepted time and state, when
    |u| + |y| reaches ``BLOWUP_NORM`` or is not finite after a step, when
    the field at the start is not finite, or when the step size falls
    below scipy's minimum (ten spacings of the floats at t).
    """
    fu, fy = field(t, u, y)
    if not math.isfinite(fu + fy):
        raise _diverged("field is not finite", t, u, y)
    h_abs = _initial_step(field, t, u, y, fu, fy, t_end, rtol, atol)
    ts, us, ys = [t], [u], [y]
    stages = []
    while t < t_end:
        min_step = 10.0 * (math.nextafter(t, math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if not h_abs >= min_step:
                raise _diverged("step size fell below the minimum", t, u, y)
            t_new = min(t + h_abs, t_end)
            h = t_new - t
            u_new, y_new, e5u, e5y, e3u, e3y, ku, ky = \
                dop853_stages.step(field, t, h, u, y, fu, fy)
            scale_u = atol + max(abs(u), abs(u_new)) * rtol
            scale_y = atol + max(abs(y), abs(y_new)) * rtol
            n5 = (e5u / scale_u) ** 2 + (e5y / scale_y) ** 2
            n3 = (e3u / scale_u) ** 2 + (e3y / scale_y) ** 2
            try:
                err = 0.0 if n5 == 0.0 and n3 == 0.0 else \
                    h * n5 / math.sqrt((n5 + 0.01 * n3) * 2.0)
            except ZeroDivisionError:
                # n5 == 0 and 0.01 * n3 underflows: 0 / 0, which numpy
                # (and so scipy) gives as nan, rejecting the step
                err = math.nan
            if err < 1.0:
                factor = _MAX_FACTOR if err == 0.0 else \
                    min(_MAX_FACTOR, _SAFETY * err ** _EXPONENT)
                h_abs = h * (min(1.0, factor) if rejected else factor)
                break
            # a nan error norm shrinks the step by _MIN_FACTOR
            h_abs = h * max(_MIN_FACTOR, _SAFETY * err ** _EXPONENT)
            rejected = True
        if not abs(u_new) + abs(y_new) < BLOWUP_NORM:
            raise _diverged("trajectory escaped the guard region", t_new,
                            u_new, y_new)
        fu, fy = field(t_new, u_new, y_new)
        if dense:
            stages.append(dop853_stages.dense(field, t, h, u, y, ku + (fu,),
                                              ky + (fy,)))
        t, u, y = t_new, u_new, y_new
        ts.append(t)
        us.append(u)
        ys.append(y)
    return ts, us, ys, stages


def _dense_rows(times, states, stages):
    """The rows F, (n, 7, 2), of scipy's ``Dop853DenseOutput`` of n steps
    from their ends ``times``, ``states`` and ``stages`` (ku, ky); a
    step's h is ``times[i + 1] - times[i]``, the stepper's own float."""
    ku, ky = (np.array(col) for col in zip(*stages))
    K = np.stack([ku, ky], axis=-1)                       # (n, 16, 2)
    delta = states[1:] - states[:-1]
    h = np.diff(times)[:, None]
    f_old, f_new = K[:, 0], K[:, _N]
    F = np.empty((len(h), _dop.INTERPOLATOR_POWER, 2))
    F[:, 0] = delta
    F[:, 1] = h * f_old - delta
    F[:, 2] = 2 * delta - h * (f_new + f_old)
    F[:, 3:] = h[..., None] * np.einsum("rk,nkc->nrc", _dop.D, K)
    return F


def _rms(x):
    """scipy's RMS norm of a vector."""
    return np.linalg.norm(x) / x.size ** 0.5


def _squared_norm(x):
    """``np.linalg.norm(x) ** 2`` of a float vector, by its operations."""
    return np.sqrt(x.dot(x)) ** 2


def flow_rows(p, Z, t0s, lens, rtol, atol):
    """Endpoint states of m independent segment flows, all rows in one
    DOP853 integration: the batched twin of :func:`dop853`.

    Row j of Z (shape (m, 2)) is integrated from t0s[j] over length
    lens[j].  All rows advance together in tau in [0, L], L = max(lens),
    row j at rate lens[j] / L, so its time is t0s[j] + tau lens[j] / L.
    No segment may contain a weight breakpoint.

    The steps are those of scipy's ``solve_ivp(method="DOP853")`` on the
    interleaved vector (u_0, y_0, u_1, y_1, ...), operation for
    operation: its initial step, its stages as ``K[:s].T @ A[s, :s]``,
    its RMS error norm, step factors, minimum step and last-step clip.
    That norm averages over rows, so the tolerances are tightened by
    sqrt(m) to keep the per-row accuracy of the scalar path.  The weight
    is evaluated once per attempted step, at the row times of its 11
    stages and its end.

    Returns (Y, escaped), and no row fails the whole flow: ``escaped``
    maps each row left out to a DivergenceError naming its index in Z,
    and its row of Y is nan.  A row whose |u| + |y| is not below
    ``BLOWUP_NORM`` at a step end is frozen at u = 0, where its stages
    vanish.  Every row whose state or field is not finite at the start is
    left out, and one row when the step size falls below its minimum: the
    first whose attempted step is not finite, or else the one with the
    largest share of the error norm.  The rest are flowed again, to the
    bits of a flow of them alone.
    """
    Z, t0s, lens = (np.asarray(x, dtype=float) for x in (Z, t0s, lens))
    Y, escaped = np.full(Z.shape, np.nan), {}
    rows = np.arange(len(Z))
    while len(rows):
        out, named = _flow_kept(p, Z[rows], t0s[rows], lens[rows], rtol,
                                atol, rows)
        escaped.update(named)
        if out is not None:
            Y[rows] = out
            break
        rows = np.setdiff1d(rows, list(named))
    return Y, escaped


def _flow_kept(p, Z, t0s, lens, rtol, atol, index):
    """One integration of the rows Z, row j named ``index[j]``: (Y, the
    rows that escaped), or (None, the rows :func:`flow_rows` leaves out)."""
    m = len(Z)
    span = float(np.max(lens))
    rate = lens / span
    c = p.c
    shrink = 1.0 / math.sqrt(m)
    rtol = max(rtol * shrink, 1e-13)
    atol = atol * shrink
    y = Z.ravel()

    def field(a, z, out):
        """(u', y') of the rows z, weight values a, into out."""
        v = z[1::2]
        np.multiply(v, rate, out=out[0::2])
        np.multiply(-c * v - p.extended(a, z[0::2]), rate, out=out[1::2])
        return out

    def named(reason, tau, z, mask):
        errors = {}
        for row in np.flatnonzero(mask):
            t_row = float(t0s[row] + tau * rate[row])
            errors[int(index[row])] = DivergenceError(
                "row %d %s near t=%.6g" % (index[row], reason, t_row),
                last_time=t_row, last_state=tuple(z[2 * row:2 * row + 2]),
                row=int(index[row]))
        return errors

    # K[0] holds the field at the current state; K[_N] the field at the
    # end of the attempted step
    K = np.empty((_N + 1, 2 * m))
    frozen = {}
    tau = 0.0
    # p.extended calls g unguarded: one guard for the whole flow
    with quiet_fp():
        f = field(p.a_mu_at(t0s + tau * rate), y, K[0])
        ok = (np.isfinite(y) & np.isfinite(f)).reshape(m, 2).all(axis=1)
        if not ok.all():
            return None, named("start state or field is not finite", tau,
                               y, ~ok)
        # scipy's select_initial_step for the 7th-order error estimator
        scale = atol + np.abs(y) * rtol
        d0 = _rms(y / scale)
        d1 = _rms(f / scale)
        h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, span)
        f1 = field(p.a_mu_at(t0s + h0 * rate), y + h0 * f,
                   np.empty(2 * m))
        d2 = _rms((f1 - f) / scale) / h0
        if d1 <= 1e-15 and d2 <= 1e-15:
            h1 = max(1e-6, h0 * 1e-3)
        else:
            h1 = (0.01 / max(d1, d2)) ** (1.0 / 8.0)
        h_abs = min(100 * h0, h1, span)
        while tau < span:
            min_step = 10.0 * (math.nextafter(tau, math.inf) - tau)
            h_abs = max(h_abs, min_step)
            rejected = False
            while True:
                if h_abs < min_step:
                    share = (np.dot(K.T, _dop.E5) / scale) ** 2
                    share[~np.isfinite(np.vstack([K, y_new])).all(0)] = np.inf
                    blamed = np.argmax(share.reshape(m, 2).sum(axis=1))
                    return None, named("step size fell below the minimum",
                                       tau, y, np.arange(m) == blamed)
                t_new = min(tau + h_abs, span)
                h = t_new - tau
                h_abs = abs(h)
                a = p.a_mu_at(t0s + (tau + _C_STEP * h)[:, None] * rate)
                for s in range(1, _N):
                    dz = np.dot(K[:s].T, _dop.A[s, :s]) * h
                    field(a[s - 1], y + dz, K[s])
                y_new = y + h * np.dot(K[:-1].T, _dop.B)
                field(a[-1], y_new, K[_N])
                scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
                n5 = _squared_norm(np.dot(K.T, _dop.E5) / scale)
                n3 = _squared_norm(np.dot(K.T, _dop.E3) / scale)
                err = 0.0 if n5 == 0 and n3 == 0 else \
                    np.abs(h) * n5 / np.sqrt((n5 + 0.01 * n3) * len(scale))
                if err < 1:
                    factor = _MAX_FACTOR if err == 0 else \
                        min(_MAX_FACTOR, _SAFETY * err ** _EXPONENT)
                    h_abs *= min(1.0, factor) if rejected else factor
                    break
                # a nan error norm shrinks the step by _MIN_FACTOR
                h_abs *= max(_MIN_FACTOR, _SAFETY * err ** _EXPONENT)
                rejected = True
            K[0] = K[_N]
            tau, y = t_new, y_new
            size = np.abs(y[0::2]) + np.abs(y[1::2])
            if not np.max(size) < BLOWUP_NORM:
                escaping = ~(size < BLOWUP_NORM)
                frozen.update(named("escaped the guard region", tau, y,
                                    escaping))
                y.reshape(m, 2)[escaping] = K[0].reshape(m, 2)[escaping] = 0.0
    Y = y.reshape(m, 2)
    Y[np.isin(index, list(frozen))] = np.nan
    return Y, frozen


def integrate(p, s0, t0, t1, rtol=DEFAULT_RTOL, atol=DEFAULT_ATOL,
              dense=True):
    """Integrate the extended planar system over [t0, t1] with DOP853.

    Integration restarts exactly at every weight breakpoint in (t0, t1);
    no accepted step interior contains a sign change of the weight.  Each
    piece is one run of the float stepper :func:`dop853` on the
    problem's float field, the closure ``ProblemSpec.rhs``;
    rtol is floored at 100 machine epsilons, as in scipy.  Raises
    DivergenceError, naming the last accepted time and state, if
    |u| + |y| reaches the blow-up guard, the field or the state is not
    finite, or the step size falls below its minimum.
    Returns the :class:`Trajectory` of the steps of every piece.
    ``dense=False`` computes no dense stages and returns the terminal
    state, bit for bit the last state of the dense integration.
    """
    if not t0 < t1:
        raise DomainError("need t0 < t1")
    if not atol > 0:
        raise DomainError("atol must be positive")
    rtol = max(rtol, _RTOL_FLOOR)
    u, y = (s0.u, s0.y) if isinstance(s0, State) else s0
    u, y = float(u), float(y)
    edges = [float(e) for e in [t0] + p.breakpoints_between(t0, t1) + [t1]]
    times, us, ys, stages = [t0], [u], [y], []
    # the field calls expressions unguarded: one guard for the whole flow
    with quiet_fp():
        for lo, hi in zip(edges[:-1], edges[1:]):
            ts, pu, py, steps = dop853(p.rhs, lo, hi, u, y, rtol, atol,
                                       dense)
            u, y = pu[-1], py[-1]
            if dense:
                times.extend(ts[1:])
                us.extend(pu[1:])
                ys.extend(py[1:])
                stages.extend(steps)
    if not dense:
        return np.array([u, y])
    times, states = np.array(times), np.column_stack([us, ys])
    return Trajectory(times, states, _dense_rows(times, states, stages))


def flow(p, s0, t_span, rtol=DEFAULT_RTOL, atol=DEFAULT_ATOL):
    """Terminal state only (no dense output)."""
    y = integrate(p, s0, t_span[0], t_span[1], rtol=rtol, atol=atol,
                  dense=False)
    return State(float(y[0]), float(y[1]))


def max_on_interval(traj, lo, hi):
    """(tmax, umax) of u over [lo, hi]: :func:`brent.grid_minimum` of -u
    on 257 points and the step ends inside, so an end maximum is
    ``traj.eval`` at that end."""
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
    t, fun = grid_minimum(lambda t: -traj.eval(t)[:, 0], ts)
    return t, -fun
