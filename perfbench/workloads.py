"""The benchmark's pipelines, their seeded inputs and answer checks.

Every pipeline calls the library through module attributes
(``shooting.find_periodic_solutions``, ...) so the tracer's wrappers see
the calls.  A workload draws a sequence of inputs from the seed; iteration
i of a run uses input i modulo its length.  Inputs come from small fixed
sets so that every one of them has a stored reference fingerprint in
``reference.json`` (written by ``make_reference.py``).
"""

from __future__ import annotations

import configparser
import json
import math
import os
import random
from dataclasses import dataclass, replace

import numpy as np

from indefinite_bvp import (bounds, cli, integrator, nonlinearity, presets,
                            radial, shooting, subharmonic)

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

STATE_TOL = 1e-6      # initial states, absolute
BOUND_RTOL = 1e-8     # mu*, K0, r, mu_r, relative

# fig2 keeps the preset's grid and integrator settings but caps the
# candidates passed to the nested-grid refinement, so that one pipeline
# fits in a run; the screen still dominates the pipeline's time.
FIG2_MU = tuple(round(6.5 + 0.1 * i, 1) for i in range(11))
FIG2_MAX_CANDIDATES = 4

# fig2 k = 2 fixed points at mu = 7 (codes 01, 10, 11), stored so that the
# winding numbers cost no search
FIG2_K2_POINTS = (
    (0.032390361403572515, 0.01930884642626691),
    (0.10736558075192533, 0.4252270742128513),
    (0.10957344410844336, 0.46778278796529815),
)

# fig1 written as expressions, so the config parser and the expression
# evaluator are on the path
FIG1_CONFIG = """
[problem]
weight = max(sin(3*pi*t), 0) - 7*max(-sin(3*pi*t), 0)
period = 1
g = 100*s*atan(s)
mu = 1
boundary = neumann

[search]
u_min = 1e-4
u_max = 0.5
u_count = 400
screen_steps = 800
residual_tol = 1e-9
"""


@dataclass
class Outcome:
    """What one pipeline returned: its fingerprint, the number of
    solutions of its final search stages, and one verify flag per
    returned record."""

    fingerprint: dict
    solutions: int
    verified: list


def _records(recs):
    out = [{"code": r.code_string, "u": r.initial.u, "y": r.initial.y}
           for r in recs]
    for d, r in zip(out, recs):
        if r.min_period_multiple is not None:
            d["period"] = r.min_period_multiple
    return sorted(out, key=lambda d: (d["code"] or "", d["u"]))


def _bounds(rep):
    return {"mu_star": rep.mu_star, "K0": rep.K0, "r": rep.r,
            "mu_r": rep.mu_r}


def _verify(recs, p, sc):
    r_star = 10.0 * max(r.sup_norm for r in recs)
    return [shooting.verify_solution(r, p, r_star=r_star, sc=sc).passed
            for r in recs]


def _classify(recs, p):
    levels = shooting.adaptive_levels(recs, p)
    for rec in recs:
        shooting.classify_code(rec, p, *levels)


# ---------------------------------------------------------------------------
# fig2-screen


def _fig2_draw(rng):
    return rng.sample(FIG2_MU, len(FIG2_MU))


def _fig2_setup(inputs):
    ctx = {}
    for mu in inputs:
        pre = presets.get_preset("fig2", mu=mu)
        ctx[mu] = (pre.problem,
                   replace(pre.search, max_candidates=FIG2_MAX_CANDIDATES))
    return ctx


def _fig2_run(ctx, mu):
    p, sc = ctx[mu]
    base = shooting.find_periodic_solutions(p, 1, sc)
    recs = shooting.find_periodic_solutions(p, 2, sc, base=base)
    _classify(recs, p)
    for rec in recs:
        subharmonic.minimal_period_multiple(rec, p)
    fp = {"base": _records(base), "solutions": _records(recs)}
    return Outcome(fp, len(recs), _verify(base + recs, p, sc))


def _fig2_expect(fp):
    periods = {d["code"]: d.get("period") for d in fp["solutions"]}
    return [
        ("one 1-periodic solution", len(fp["base"]) == 1),
        ("k=2 codes are 01, 10, 11", sorted(periods) == ["01", "10", "11"]),
        ("minimal periods 2, 2, 1",
         periods == {"01": 2, "10": 2, "11": 1}),
    ]


# ---------------------------------------------------------------------------
# scalar-maps


def _scalar_draw(rng):
    # scan offset in grid spacings, curve radius factor, curve phase
    return [(rng.uniform(0.0, 0.5), rng.uniform(1.5e-3, 2.5e-3),
             rng.uniform(0.0, 2 * math.pi / 12)) for _ in range(8)]


def _scalar_setup(inputs):
    cp = configparser.ConfigParser()
    cp.read_string(FIG1_CONFIG)
    p, sc, _ = cli.problem_from_config(cp)
    hints = tuple(math.exp(k / 3.0) for k in (1, 2))

    def q_of_r(r):
        r = np.asarray(r, dtype=float)
        return np.sin(3 * math.pi * np.log(r)) / r ** 2

    g = nonlinearity.NonlinearitySpec.arctan_scaled(100.0)
    ap = radial.AnnulusProblem(2, 1.0, math.e, q_of_r, g, 7.0,
                               kink_hints=hints)
    fig2 = presets.get_preset("fig2", mu=7.0)
    return p, sc, ap, fig2.problem, fig2.search


def _circle(center, rad, phase, n=12):
    angs = phase + np.linspace(0.0, 2 * math.pi, n, endpoint=False)
    return [center + rad * np.array([math.cos(a), math.sin(a)])
            for a in angs]


def _scalar_run(ctx, inp):
    p, sc, ap, p2, sc2 = ctx
    offset, rad, phase = inp
    recs = shooting.find_neumann_solutions(p, sc)
    _classify(recs, p)
    h = (0.2 - 1e-6) / 100
    us = 1e-6 + h * (np.arange(101) + offset)
    y_end = np.array([integrator.flow(p, integrator.State(float(u), 0.0),
                                      (0.0, p.period), rtol=1e-10,
                                      atol=1e-12).y for u in us])
    crossings = int(np.count_nonzero(np.diff(np.sign(y_end)) != 0))
    rrecs, _, p1d = radial.find_radial_solutions(ap, sc)
    rep = bounds.compute_mu_star(p)
    windings = []
    for z in FIG2_K2_POINTS:
        z = np.asarray(z)
        curve = _circle(z, rad * (1.0 + float(np.hypot(*z))), phase)
        windings.append(shooting.winding_number(p2, 2, curve, sc2))
    fp = {"solutions": _records(recs), "crossings": crossings,
          "radial": _records(rrecs), "bounds": _bounds(rep),
          "windings": windings}
    verified = _verify(recs, p, sc) + _verify(rrecs, p1d, sc)
    return Outcome(fp, len(recs) + len(rrecs), verified)


def _scalar_expect(fp):
    return [
        ("Neumann codes are 01, 10, 11",
         [d["code"] for d in fp["solutions"]] == ["01", "10", "11"]),
        ("3 Poincare crossings", fp["crossings"] == 3),
        ("at least 3 radial profiles", len(fp["radial"]) >= 3),
        ("|w| = 1 around each fixed point",
         [abs(w) for w in fp["windings"]] == [1] * len(FIG2_K2_POINTS)),
    ]


# ---------------------------------------------------------------------------
# registry


@dataclass(frozen=True)
class Workload:
    draw: object      # rng -> list of inputs
    setup: object     # inputs -> context
    run: object       # (context, input) -> Outcome
    expect: object    # fingerprint -> [(check, passed)]
    key: object       # input -> reference key


WORKLOADS = {
    "fig2-screen": Workload(_fig2_draw, _fig2_setup, _fig2_run,
                            _fig2_expect, lambda mu: "mu=%.1f" % mu),
    "scalar-maps": Workload(_scalar_draw, _scalar_setup, _scalar_run,
                            _scalar_expect, lambda inp: "fig1"),
}


def draw_inputs(name, seed):
    """The input sequence of workload ``name`` for ``seed``."""
    return WORKLOADS[name].draw(random.Random(seed))


def setup(name, seed):
    """(inputs, context): everything a run builds before its pipelines."""
    inputs = draw_inputs(name, seed)
    return inputs, WORKLOADS[name].setup(inputs)


def load_reference():
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def compare(fp, ref):
    """[(check, passed)] of a fingerprint against its reference: equal
    counts, codes, periods, crossings and windings, initial states within
    STATE_TOL and bound constants within BOUND_RTOL."""
    checks = []
    for key, want in ref.items():
        got = fp.get(key)
        if key == "bounds":
            for k, v in want.items():
                ok = got is not None and abs(got[k] - v) <= BOUND_RTOL * abs(v)
                checks.append(("reference bounds." + k, ok))
        elif key in ("base", "solutions", "radial"):
            ok = got is not None and len(got) == len(want)
            for g, w in zip(got or (), want):
                ok = ok and g.get("code") == w.get("code") and \
                    g.get("period") == w.get("period") and \
                    abs(g["u"] - w["u"]) <= STATE_TOL and \
                    abs(g["y"] - w["y"]) <= STATE_TOL
            checks.append(("reference " + key, ok))
        else:
            checks.append(("reference " + key, got == want))
    return checks


def check(name, inp, fp, reference):
    """Every answer check of one pipeline: the expected structure for the
    workload and the match with the stored reference for this input."""
    wl = WORKLOADS[name]
    ref = reference.get(name, {}).get(wl.key(inp))
    if ref is None:
        return wl.expect(fp) + [("reference present", False)]
    return wl.expect(fp) + compare(fp, ref)
