"""Explicit constants behind the 2^m - 1 multiplicity threshold.

Every "choose any constant such that ..." step resolves deterministically:
the boundary value with a recorded safety factor (0.5 for the slope bound
at zero, 1.01 for mu_r, 10 for the a priori bound R*).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace

from . import shooting
from .brent import brentq
from .eigen import check_ginf_hypothesis
from .errors import DomainError, HypothesisError, PatternError
from .nonlinearity import eta as _eta
from .nonlinearity import gamma_min as _gamma_min
from .nonlinearity import gamma_ratio as _gamma_ratio
from .nonlinearity import limit_estimates
from .weight import (integrate_weight, negative_part, piecewise_quad,
                     split_points)

ETA_SAFETY = 0.5
MU_R_SAFETY = 1.01
R_STAR_SAFETY = 10.0
_R_HALVINGS = 200       # candidates 1, 1/2, ..., 2^-199 for r


@dataclass
class BoundsReport:
    """All explicit constants of the multiplicity estimate."""

    K: list
    K0: float
    r: float
    eta_r: float
    mu_sharp: float
    mu_r: float
    delta_plus: list
    delta_minus: list
    mu_plus: list
    mu_minus: list
    gamma_small: float   # min of g(s)/s on [r/2, r]
    gamma_big: float     # min of g on [r/4, R*]
    R_star: float
    mu_star: float
    provenance: dict = field(default_factory=dict)

    def validate(self):
        """Check the internal inequalities the construction guarantees."""
        if not self.eta_r * self.K0 < 1.0:
            raise DomainError("eta(r) * K0 must be < 1")
        if not self.mu_r > self.mu_sharp:
            raise DomainError("mu_r must exceed mu_sharp")
        if not (self.mu_star >= self.mu_r - 1e-15):
            raise DomainError("mu_star must dominate mu_r")
        for v in self.mu_plus + self.mu_minus:
            if self.mu_star < v - 1e-12 * abs(v):
                raise DomainError("mu_star must dominate every mu_plus/minus")
        if not (0.0 < self.r < self.R_star):
            raise DomainError("need 0 < r < R_star")
        return True

    def to_dict(self):
        return asdict(self)


def _neg_double_integral(p, lo, hi, from_left=True):
    """Integral of a- over a triangle, as one moment by Fubini:

    from_left:  int_lo^hi int_lo^t a- dxi dt = int_lo^hi (hi - xi) a-(xi) dxi
    otherwise:  int_lo^hi int_t^hi a- dxi dt = int_lo^hi (xi - lo) a-(xi) dxi

    One quadrature per piece of the split :func:`integrate_weight` uses,
    with its tolerances.
    """
    anchor = hi if from_left else lo
    f = lambda xi: abs(anchor - xi) * negative_part(p.weight, xi)
    return piecewise_quad(f, split_points(p.weight, lo, hi, p.pattern))


def compute_K(p):
    """Per-hump constants K_i and the combined constant K0."""
    pat = p.pattern
    K = []
    for (lo, hi) in pat.pos_intervals():
        norm = integrate_weight(p.weight, lo, hi, part="+", pattern=pat)
        K.append(norm * math.exp(abs(p.c) * (hi - lo)))
    K0 = 0.0
    for i, (lo, hi) in enumerate(pat.pos_intervals()):
        # hump i pairs with the negativity interval that follows it
        nlo, nhi = pat.tau[i], pat.sigma[i + 1]
        len_pos = hi - lo
        len_neg = nhi - nlo
        K0 = max(K0, K[i] * (len_pos + math.exp(abs(p.c) * len_neg) * len_neg))
    return K, 2.0 * K0


def choose_r(g, K0):
    """Largest r on the geometric grid 1, 1/2, 1/4, ... with
    eta(r) <= 0.5 / K0."""
    bound = ETA_SAFETY / K0
    g0, _ = limit_estimates(g)
    r = 1.0
    for _ in range(_R_HALVINGS):
        e = _eta(g, r)
        if e <= bound:
            return r, e
        r *= 0.5
    raise HypothesisError(
        "no admissible r found: the slope of g at zero is too large "
        "(g0=%.6g, need eta(r) <= %.6g)" % (g0, bound))


def compute_mu_sharp(p):
    """Ratio of the period integrals of a+ and a-."""
    pat = p.pattern
    ip = integrate_weight(p.weight, 0.0, pat.period, part="+", pattern=pat)
    im = integrate_weight(p.weight, 0.0, pat.period, part="-", pattern=pat)
    if im <= 0:
        raise PatternError("weight has no negative part: sign-definite")
    return ip / im


def compute_mu_r(p, r, K0, mu_sharp):
    """Threshold making the small ball degree argument work, with the 1.01
    safety factor and floored at 1.01 * mu_sharp."""
    pat = p.pattern
    e = _eta(p.g, r)
    gam = _gamma_ratio(p.g, r)
    worst = 0.0
    for (nlo, nhi) in pat.neg_intervals():
        if nhi - nlo <= 0:
            continue  # degenerate trailing interval of a Neumann pattern
        dd = _neg_double_integral(p, nlo, nhi, from_left=True)
        if dd <= 0:
            raise PatternError(
                "negative part vanishes on [%g, %g]" % (nlo, nhi))
        worst = max(worst,
                    K0 * math.exp(abs(p.c) * (nhi - nlo)) * e / (gam * dd))
    return MU_R_SAFETY * max(worst, mu_sharp)


def compute_delta(p):
    """Per-hump window widths delta+_j (after tau_j) and delta-_j (before
    sigma_j).  Both sides take one rule: the width of the adjacent
    negativity interval, capped by the root of delta e^{|c| delta} =
    |I+_j| / 2, then halved until a- has positive mass on the window.
    A side with no negativity interval gets NaN; only a Neumann weight
    that starts or ends with positivity has one."""
    pat = p.pattern

    def width(edge, gap, side, cap):
        # the window on ``side`` (+1 after, -1 before) of ``edge``
        if gap <= 0:
            return math.nan
        d = min(cap, gap) * (1.0 - 1e-12)
        for _ in range(60):
            lo, hi = sorted((edge, edge + side * d))
            if integrate_weight(p.weight, lo, hi, part="-", pattern=pat) > 0:
                return d
            d *= 0.5
        raise PatternError("cannot find a window with negative mass")

    dplus, dminus = [], []
    for j, (plo, phi) in enumerate(pat.pos_intervals()):
        cap = half = (phi - plo) / 2.0
        f = lambda d: d * math.exp(abs(p.c) * d) - half
        if f(half) > 0:  # that is, c != 0
            cap = brentq(f, 0.0, half, xtol=1e-14)
        # the negativity interval before hump j starts at the previous
        # tau, wrapped around the period, or at t = 0 in a Neumann window
        if j > 0:
            before = pat.tau[j - 1]
        elif pat.mode == "periodic":
            before = pat.tau[-1] - pat.period
        else:
            before = 0.0
        dplus.append(width(pat.tau[j], pat.sigma[j + 1] - pat.tau[j], 1, cap))
        dminus.append(width(pat.sigma[j], pat.sigma[j] - before, -1, cap))
    return dplus, dminus


def estimate_R_star(p, r, search_config=None):
    """Numerical surrogate for the a priori bound R*: ten times the largest
    sup-norm among solutions found by a coarse multistart sweep (at the
    problem's mu and at a mu slightly above mu_sharp), floored at 10 r.

    The analytic R* of the existence proof is non-constructive; this value
    is an estimate and is flagged as such in the report provenance.
    """
    _, ginf = limit_estimates(p.g)
    check_ginf_hypothesis(p, ginf)

    sc = search_config
    if sc is None:
        sc = shooting.SearchConfig(u_count=24, y_count=12, u_max=50.0,
                                   residual_tol=1e-6, rtol=1e-8, atol=1e-10,
                                   newton_max_iter=15)
    mu_sharp = compute_mu_sharp(p)
    sup = 0.0
    probes = {p.mu, mu_sharp * 1.05 + 1e-6}
    for mu in probes:
        q = replace(p, mu=mu)
        if p.boundary == "neumann":
            recs = shooting.find_neumann_solutions(q, sc)
        else:
            recs = shooting.find_periodic_solutions(q, 1, sc)
        for rec in recs:
            sup = max(sup, rec.sup_norm)
    return max(R_STAR_SAFETY * sup, R_STAR_SAFETY * r)


def compute_mu_star(p, search_config=None, R_star=None):
    """Full report: all constants plus the sufficient threshold mu*.

    ``R_star`` overrides the multistart estimate; pass it when solutions
    are already known (the estimate is ten times their largest sup-norm)
    or when comparing reports across k-fold rewritings of the weight.
    """
    K, K0 = compute_K(p)
    r, eta_r = choose_r(p.g, K0)
    mu_sharp = compute_mu_sharp(p)
    mu_r = compute_mu_r(p, r, K0=K0, mu_sharp=mu_sharp)
    if R_star is None:
        R_star = estimate_R_star(p, r=r, search_config=search_config)
    gamma_small = _gamma_ratio(p.g, r)
    gamma_big = _gamma_min(p.g, r, R_star)
    dplus, dminus = compute_delta(p)
    pat = p.pattern

    def mu_side(d, lo, hi, from_left):
        if math.isnan(d):
            return math.nan
        dd = _neg_double_integral(p, lo, hi, from_left=from_left)
        return R_star * math.exp(abs(p.c) * d) / (gamma_big * dd)

    mu_plus = [mu_side(d, t, t + d, True) for d, t in zip(dplus, pat.tau)]
    mu_minus = [mu_side(d, s - d, s, False)
                for d, s in zip(dminus, pat.sigma)]
    mu_star = max([mu_r] + [v for v in mu_plus + mu_minus
                            if not math.isnan(v)])
    report = BoundsReport(
        K=K, K0=K0, r=r, eta_r=eta_r, mu_sharp=mu_sharp, mu_r=mu_r,
        delta_plus=dplus, delta_minus=dminus,
        mu_plus=mu_plus, mu_minus=mu_minus,
        gamma_small=gamma_small, gamma_big=gamma_big,
        R_star=R_star, mu_star=mu_star,
        provenance={
            "eta_safety": ETA_SAFETY,
            "mu_r_safety": MU_R_SAFETY,
            "R_star_safety": R_STAR_SAFETY,
            "R_star_note": "estimate from multistart solution sweep",
            "mu_star_note": "sufficient threshold, not necessary",
        })
    report.validate()
    return report
