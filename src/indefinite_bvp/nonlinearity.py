"""Nonlinearities g: R+ -> R+ vanishing at 0, and the growth functionals
used by the explicit constants of the multiplicity estimates."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .brent import grid_minimum
from .errors import ConfigurationError, DomainError, HypothesisError
from .expressions import Expression, quiet_fp, unguarded

_GRID = 4096


@dataclass(frozen=True)
class NonlinearitySpec:
    """g(s) for s >= 0 with g(0) = 0 and g(s) > 0 for s > 0.

    ``kind`` is one of "power", "arctan_scaled", "clamped_expression",
    "expression".  ``declared_g0`` / ``declared_ginf`` override the numeric
    limit estimates when the caller knows the analytic values.
    """

    kind: str
    params: tuple = ()
    fn: object = None
    declared_g0: float = None
    declared_ginf: float = None

    # -- constructors ----------------------------------------------------

    @classmethod
    def power(cls, p):
        if not 1 < p < math.inf:
            raise ConfigurationError("power kind needs a finite exponent "
                                     "p > 1")
        return cls("power", (float(p),))

    @classmethod
    def arctan_scaled(cls, nu):
        """g(s) = nu * s * arctan(s)."""
        if not 0 < nu < math.inf:
            raise ConfigurationError("arctan_scaled needs a finite nu > 0")
        return cls("arctan_scaled", (float(nu),))

    @classmethod
    def from_expression(cls, src, clamp=False):
        expr = src if isinstance(src, Expression) else Expression(src)
        if expr.variable not in (None, "s"):
            raise ConfigurationError(
                "nonlinearity expressions use the variable s")
        kind = "clamped_expression" if clamp else "expression"
        return cls(kind, (expr.source,), fn=expr)

    @classmethod
    def from_callable(cls, fn, declared_g0=None, declared_ginf=None):
        return cls("callable", (), fn=fn, declared_g0=declared_g0,
                   declared_ginf=declared_ginf)

    def validate(self):
        """Spot check g(0) = 0 and g > 0 on 256 samples of [1e-8, 100]."""
        if g_eval(self, 0.0) != 0.0:
            raise HypothesisError("g(0) must be 0")
        ss = np.geomspace(1e-8, 100.0, 256)
        if np.any(g_eval(self, ss) <= 0):
            raise HypothesisError("g must be positive for s > 0")


def g_eval(g, s):
    """Evaluate g(s) for s >= 0 (vectorized), inside one
    :func:`expressions.quiet_fp`: an overflow or invalid operation gives
    inf/nan without a warning, as in every integrator."""
    s_arr = np.asarray(s, dtype=float)
    if np.any(s_arr < 0):
        raise DomainError("g is defined for s >= 0 only")
    with quiet_fp():
        out = g_vector(g)(s_arr)
    return float(out) if out.ndim == 0 else out


def _kernel(g):
    """g on s >= 0 as one callable, without the g(0) = 0 rule.  An
    expression is called without its floating-point guard (see
    :func:`expressions.unguarded`)."""
    if g.kind == "power":
        p = g.params[0]
        return lambda s: np.power(s, p)
    if g.kind == "arctan_scaled":
        nu = g.params[0]
        return lambda s: nu * s * np.arctan(s)
    fn = unguarded(g.fn)
    if g.kind == "clamped_expression":
        return lambda s: np.maximum(fn(s), 0.0)
    if g.kind == "expression":
        return fn
    # a user callable sees an ndarray, as it always has
    return lambda s: np.asarray(fn(np.asarray(s, dtype=float)), dtype=float)


def g_vector(g):
    """Compiled s -> g(s) for a float array s >= 0 that the caller has
    clamped.  An expression g is called without its floating-point
    guard, so the caller runs inside :func:`expressions.quiet_fp`.

    The power and arctan_scaled kernels map +0.0 to +0.0 themselves, so
    they are returned without the g(0) = 0 rule; a clamp
    ``np.maximum(u, 0.0)`` never gives -0.0 (at s = -0.0 an odd integer
    power would give -0.0).  The expression, clamped and callable kinds
    keep the rule."""
    raw = _kernel(g)
    if g.kind in ("power", "arctan_scaled"):
        return raw
    return lambda s: np.where(s == 0.0, 0.0, raw(s))


def g_scalar(g):
    """Compiled s -> g(s) for a float s >= 0 that the caller has clamped,
    with the same bits as :func:`g_vector` at that point.  An expression
    g is called without its floating-point guard, so the caller runs
    inside :func:`expressions.quiet_fp`."""
    raw = _kernel(g)
    return lambda s: 0.0 if s == 0.0 else raw(s)


def _ratio(g, s):
    return g_eval(g, s) / np.asarray(s, dtype=float)


def _grid_extremum(f, lo, hi, minimize, log=True):
    """Extremum of f over [lo, hi]: :func:`brent.grid_minimum` on a
    log-spaced (or linear) grid of ``_GRID`` points."""
    grid = np.geomspace(lo, hi, _GRID) if log else np.linspace(lo, hi, _GRID)
    sign = 1.0 if minimize else -1.0
    return sign * grid_minimum(lambda x: sign * f(x), grid)[1]


def eta(g, r):
    """sup of g(s)/s over (0, r]."""
    if not r > 0:
        raise DomainError("r must be positive")
    if g.kind == "power":
        return r ** (g.params[0] - 1.0)
    if g.kind == "arctan_scaled":
        return g.params[0] * math.atan(r)
    return _grid_extremum(lambda s: _ratio(g, s), r * 1e-12, r,
                          minimize=False)


def gamma_ratio(g, r):
    """min of g(s)/s over [r/2, r]."""
    if not r > 0:
        raise DomainError("r must be positive")
    if g.kind == "power":
        return (r / 2.0) ** (g.params[0] - 1.0)
    if g.kind == "arctan_scaled":
        return g.params[0] * math.atan(r / 2.0)
    return _grid_extremum(lambda s: _ratio(g, s), r / 2.0, r, minimize=True,
                          log=False)


def gamma_min(g, r, r_star):
    """Positive minimum of g over [r/4, R*]."""
    if not (0 < r / 4.0 < r_star):
        raise DomainError("need 0 < r/4 < R*")
    if g.kind == "power":
        val = (r / 4.0) ** g.params[0]
    elif g.kind == "arctan_scaled":
        s = r / 4.0
        val = g.params[0] * s * math.atan(s)
    else:
        val = _grid_extremum(lambda s: g_eval(g, s), r / 4.0, r_star,
                             minimize=True)
    if not val > 0:
        raise HypothesisError("g attains a non-positive value on [r/4, R*]")
    return val


def limit_estimates(g):
    """(g0, ginf): limsup of g(s)/s at 0+ and liminf at +infinity.

    Exact for the analytic kinds; grid estimates otherwise (the infinity
    estimate is the minimum of the ratio over s in [1e3, 1e6], a liminf
    proxy flagged by callers as an estimate).
    """
    if g.kind == "power":
        return 0.0, math.inf
    if g.kind == "arctan_scaled":
        return 0.0, g.params[0] * math.pi / 2.0
    g0 = g.declared_g0
    ginf = g.declared_ginf
    if g0 is None:
        ss = np.geomspace(1e-9, 1e-3, 512)
        g0 = float(np.max(_ratio(g, ss)))
    if ginf is None:
        ss = np.geomspace(1e3, 1e6, 512)
        ginf = float(np.min(_ratio(g, ss)))
    return g0, ginf
