"""End-to-end acceptance criteria for the solver library.

Each test covers one numbered criterion and ends with a single
"CRITERION n: PASS" line; a pytest failure is the corresponding FAIL
line.  Expensive searches are shared through module-scoped fixtures and
their wall times are charged to the criteria that consume them.
"""

import math
import time

import numpy as np
import pytest

from indefinite_bvp.bounds import compute_mu_star
from indefinite_bvp.eigen import EigenProblem, first_eigenvalue
from indefinite_bvp.integrator import ProblemSpec, State, flow, integrate
from indefinite_bvp.lyndon import Word, canonical_rotation, lyndon_words, \
    witt_count
from indefinite_bvp.nonlinearity import NonlinearitySpec
from indefinite_bvp.presets import get_preset
from indefinite_bvp.radial import (AnnulusProblem, RadialMap,
                                   find_radial_solutions, radial_to_1d,
                                   solution_to_radial)
from indefinite_bvp.shooting import (adaptive_levels, classify_code,
                                     coded_multiplicity,
                                     find_neumann_solutions,
                                     find_periodic_solutions,
                                     verify_solution, winding_number)
from indefinite_bvp.subharmonic import (enumerate_class_representatives,
                                        minimal_period_multiple)
from indefinite_bvp.weight import WeightSpec
from oracles import direct_radial_integration

TIMINGS = {}

S2 = [1, 2, 3, 6, 9, 18, 30, 56, 99]
S4 = [6, 20, 60, 204, 670, 2340, 8160, 29120, 104754]


def _record(key, t0):
    TIMINGS[key] = time.perf_counter() - t0


def _budget(seconds, *keys):
    spent = sum(TIMINGS.get(k, 0.0) for k in keys)
    assert spent < seconds, \
        "budget exceeded: %.1fs > %.0fs (%s)" % (spent, seconds, keys)
    return spent


def _passed(n, extra=""):
    print("\nCRITERION %d: PASS%s" % (n, " (%s)" % extra if extra else ""))


# ---------------------------------------------------------------------------
# shared searches


@pytest.fixture(scope="module")
def fig1_data():
    pre = get_preset("fig1")
    t0 = time.perf_counter()
    recs = find_neumann_solutions(pre.problem, pre.search)
    _record("fig1_search", t0)
    return pre.problem, pre.search, recs


@pytest.fixture(scope="module")
def fig2_data():
    pre = get_preset("fig2")
    t0 = time.perf_counter()
    base = find_periodic_solutions(pre.problem, 1, pre.search)
    _record("fig2_base", t0)
    assert base, "fig2 base search found no 1-periodic solution"
    return pre.problem, pre.search, base


@pytest.fixture(scope="module")
def fig2_report(fig2_data):
    p, sc, base = fig2_data
    t0 = time.perf_counter()
    rep = compute_mu_star(p, R_star=10.0 * max(r.sup_norm for r in base))
    _record("fig2_report", t0)
    return rep


@pytest.fixture(scope="module")
def fig2_k2(fig2_data):
    p, sc, base = fig2_data
    t0 = time.perf_counter()
    recs = find_periodic_solutions(p, 2, sc, base=base)
    _record("fig2_k2", t0)
    return recs


@pytest.fixture(scope="module")
def fig2_k3(fig2_data, fig2_report):
    p, sc, base = fig2_data
    mu_target = 1.05 * fig2_report.mu_star
    t0 = time.perf_counter()
    recs, q = coded_multiplicity(p, 3, mu_target, sc, base=base)
    _record("fig2_k3", t0)
    return recs, q


def _multiplicity_run(preset_name, key):
    pre = get_preset(preset_name)
    p, sc, k = pre.problem, pre.search, pre.k
    t0 = time.perf_counter()
    base = find_periodic_solutions(p, 1, sc)
    assert base, "%s base search found nothing" % preset_name
    rep = compute_mu_star(p, R_star=10.0 * max(r.sup_norm for r in base))
    recs, q = coded_multiplicity(p, k, 1.05 * rep.mu_star, sc, base=base)
    _record(key, t0)
    return p, sc, base, rep, recs, q


@pytest.fixture(scope="module")
def m2_data():
    return _multiplicity_run("multiplicity-m2", "m2")


@pytest.fixture(scope="module")
def m3_data():
    return _multiplicity_run("multiplicity-m3", "m3")


def _min_sampled_u(rec):
    return float(np.min(rec.trajectory.sample()[1]))


def _codes(recs, p):
    levels = adaptive_levels(recs, p)
    return [classify_code(rec, p, *levels) for rec in recs]


# ---------------------------------------------------------------------------
# criteria


def test_criterion_01_lyndon_counts():
    t0 = time.perf_counter()
    for k, want in zip(range(2, 11), S2):
        assert witt_count(2, k) == want
    for k, want in zip(range(2, 11), S4):
        assert witt_count(4, k) == want
    for n in (2, 3, 4):
        for k in range(1, 11):
            brute = _brute_force_count(n, k)
            assert witt_count(n, k) == brute
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, "Lyndon criterion took %.2fs" % elapsed
    _passed(1, "%.2fs" % elapsed)


def _brute_force_count(n, k):
    v0 = np.arange(n ** k, dtype=np.int64)
    shift = n ** (k - 1)
    v = v0
    rots = []
    for _ in range(k - 1):
        v = (v % shift) * n + v // shift
        rots.append(v)
    if not rots:
        return len(v0)
    return int(np.count_nonzero(v0 < np.min(np.stack(rots), axis=0)))


def _fd_first_eigenvalue(fn, alpha, beta, n):
    from scipy.linalg import eigh_tridiagonal
    h = (beta - alpha) / (n + 1)
    ts = alpha + h * np.arange(1, n + 1)
    a = np.array([float(fn(t)) for t in ts])
    inv_sqrt = 1.0 / np.sqrt(a)
    d = 2.0 / h ** 2 * inv_sqrt ** 2
    e = -1.0 / h ** 2 * inv_sqrt[:-1] * inv_sqrt[1:]
    return float(eigh_tridiagonal(d, e, select="i", select_range=(0, 0),
                                  eigvals_only=True)[0])


def test_criterion_02_eigenvalues():
    t0 = time.perf_counter()
    pi2 = math.pi ** 2
    ep = EigenProblem(lambda t: 1.0, 0.0, 1.0)
    assert first_eigenvalue(ep) == pytest.approx(pi2, rel=1e-8)
    ep_c = EigenProblem(lambda t: 1.0, 0.0, 1.0, c=1.0)
    assert first_eigenvalue(ep_c) == pytest.approx(pi2 + 0.25, rel=1e-8)
    hump = lambda t: math.sin(3 * math.pi * t)
    ep_h = EigenProblem(hump, 0.0, 1.0 / 3.0)
    lam = first_eigenvalue(ep_h)
    lam1 = _fd_first_eigenvalue(hump, 0.0, 1.0 / 3.0, 1500)
    lam2 = _fd_first_eigenvalue(hump, 0.0, 1.0 / 3.0, 3000)
    ref = (4.0 * lam2 - lam1) / 3.0
    assert lam == pytest.approx(ref, rel=1e-6)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _passed(2, "%.2fs" % elapsed)


def test_criterion_03_figure1(fig1_data):
    p, sc, recs = fig1_data
    t0 = time.perf_counter()
    assert len(recs) == 3
    for rec in recs:
        assert _min_sampled_u(rec) > 0
        assert abs(rec.residual) < 1e-8          # terminal |u'(1)|
    assert set(_codes(recs, p)) == {(1, 0), (0, 1), (1, 1)}
    # Poincare image of the segment u0 in [0, 0.2], y0 = 0 crosses the
    # u-axis exactly three times
    u_grid = np.linspace(1e-6, 0.2, 101)
    y_end = np.array([flow(p, State(float(u), 0.0), (0.0, 1.0),
                           rtol=1e-10, atol=1e-12).y for u in u_grid])
    crossings = int(np.count_nonzero(np.diff(np.sign(y_end)) != 0))
    assert crossings == 3
    _record("fig1_poincare", t0)
    spent = _budget(30.0, "fig1_search", "fig1_poincare")
    _passed(3, "%.1fs" % spent)


def test_criterion_04_figure2(fig2_data, fig2_k2):
    p, sc, base = fig2_data
    recs = fig2_k2
    assert len(recs) == 3
    assert all(_min_sampled_u(r) > 0 for r in recs)
    codes = _codes(recs, p)
    assert set(codes) == {(1, 0), (0, 1), (1, 1)}
    by_code = dict(zip(codes, recs))
    for rec in recs:
        minimal_period_multiple(rec, p)
    # exactly one subharmonic class of order 2 (S2(2) = 1)
    order2 = [(code, rec) for code, rec in zip(codes, recs)
              if rec.min_period_multiple == 2]
    classes = {canonical_rotation(Word(code, 2))[0].symbols
               for code, rec in order2}
    assert len(order2) == 2 and len(classes) == 1 == witt_count(2, 2)
    assert by_code[(1, 1)].min_period_multiple == 1
    # the two order-2 orbits are time translates: u_01(t) = u_10(t + T)
    ts = np.linspace(0.0, 1.0, 513)
    u01 = by_code[(0, 1)].trajectory.eval(ts)[:, 0]
    u10 = by_code[(1, 0)].trajectory.eval(ts + 1.0)[:, 0]
    assert float(np.max(np.abs(u01 - u10))) < 1e-6
    spent = _budget(60.0, "fig2_base", "fig2_k2")
    _passed(4, "%.1fs" % spent)


def test_criterion_05_multiplicity(m2_data, m3_data):
    for (p, sc, base, rep, recs, q), m in ((m2_data, 2), (m3_data, 3)):
        assert q.mu > rep.mu_star
        codes = set(_codes(recs, q))
        assert all(_min_sampled_u(rec) > 0 for rec in recs)
        assert len(codes) >= 2 ** m - 1, \
            "m=%d found only %d codes" % (m, len(codes))
    spent = _budget(120.0, "m2", "m3")
    _passed(5, "%.1fs" % spent)


def test_criterion_06_verification(fig1_data, fig2_data, fig2_k2, fig2_k3,
                                   m2_data, m3_data):
    families = []
    p1, sc1, recs1 = fig1_data
    families.append((p1, sc1, recs1))
    p2, sc2, base2 = fig2_data
    recs_k3, q3 = fig2_k3
    families.append((p2, sc2, base2 + fig2_k2))
    families.append((q3, sc2, recs_k3))
    for data in (m2_data, m3_data):
        p, sc, base, rep, recs, q = data
        families.append((p, sc, base))
        families.append((q, sc, recs))
    total = 0
    for prob, sc, recs in families:
        # a priori bound surrogate: ten times the largest known sup-norm
        r_star = 10.0 * max(r.sup_norm for r in recs)
        for rec in recs:
            rep = verify_solution(rec, prob, r_star=r_star, sc=sc)
            assert rep.passed, (rec.code, rep.checks, rep.details)
            total += 1
    assert total >= 20
    _passed(6, "%d records verified" % total)


def test_criterion_07_bounds_consistency(fig1_data, fig2_data, m2_data,
                                         m3_data):
    # BoundsReport invariants on every preset (validate() raises on any
    # violated inequality)
    for prob, recs in ((fig1_data[0], fig1_data[2]),
                       (fig2_data[0], fig2_data[2]),
                       (m2_data[0], m2_data[2]), (m3_data[0], m3_data[2])):
        r_star = 10.0 * max(r.sup_norm for r in recs)
        rep = compute_mu_star(prob, R_star=r_star)
        assert rep.validate()
        assert rep.eta_r * rep.K0 < 1.0
        assert rep.mu_star >= rep.mu_r > rep.mu_sharp

    # k-fold rewriting: the same weight declared 4T-periodic produces the
    # same constants (the threshold does not depend on the window choice)
    p1 = fig2_data[0]
    R_star = 2.0
    rep1 = compute_mu_star(p1, R_star=R_star)
    w4 = WeightSpec.sine(2 * math.pi, period=4.0)
    p4 = ProblemSpec.build(w4, p1.mu, p1.c, p1.g)
    rep4 = compute_mu_star(p4, R_star=R_star)
    assert p4.pattern.m == 4
    for name in ("K0", "r", "eta_r", "mu_sharp", "mu_r", "gamma_small",
                 "gamma_big", "R_star", "mu_star"):
        v1 = getattr(rep1, name)
        v4 = getattr(rep4, name)
        assert v4 == pytest.approx(v1, rel=1e-8), name
    for lst1, lst4 in ((rep1.K, rep4.K), (rep1.delta_plus, rep4.delta_plus),
                       (rep1.mu_plus, rep4.mu_plus)):
        for v in lst4:
            assert v == pytest.approx(lst1[0], rel=1e-8)
    _passed(7)


def test_criterion_08_winding_numbers(fig2_data, fig2_k2):
    p, sc, _ = fig2_data
    recs = fig2_k2

    def circle(center, rad, n=12):
        angs = np.linspace(0.0, 2 * math.pi, n, endpoint=False)
        return [center + rad * np.array([math.cos(a), math.sin(a)])
                for a in angs]

    def box(lo, hi):
        return [np.array([lo[0], lo[1]]), np.array([hi[0], lo[1]]),
                np.array([hi[0], hi[1]]), np.array([lo[0], hi[1]])]

    # |winding| = 1 around every nondegenerate solution
    windings = []
    for rec in recs:
        z = np.array([rec.initial.u, rec.initial.y])
        rad = 2e-3 * (1.0 + float(np.hypot(*z)))
        w = winding_number(p, 2, circle(z, rad), sc)
        assert abs(w) == 1
        windings.append(w)

    # zero on a zero-free curve (no fixed point of the k = 2 map inside)
    w0 = winding_number(p, 2, circle(np.array([0.02, -0.01]), 0.005), sc)
    assert w0 == 0

    # box additivity on a 2 x 2 cover
    z = np.array([recs[0].initial.u, recs[0].initial.y])
    a, b = 3e-3, 6e-3
    lo = z - np.array([a + a / 3, b + b / 3])
    hi = z + np.array([a - a / 3, b - b / 3])
    mid = 0.5 * (lo + hi)
    whole = winding_number(p, 2, box(lo, hi), sc)
    parts = [
        winding_number(p, 2, box(lo, mid), sc),
        winding_number(p, 2, box([mid[0], lo[1]], [hi[0], mid[1]]), sc),
        winding_number(p, 2, box(mid, hi), sc),
        winding_number(p, 2, box([lo[0], mid[1]], [mid[0], hi[1]]), sc),
    ]
    assert sum(parts) == whole
    assert abs(whole) == 1
    _passed(8, "windings %s" % windings)


def test_criterion_09_radial():
    t0 = time.perf_counter()
    # closed-form change of variables
    rm2 = RadialMap(2, 1.0, math.e)
    ts = np.linspace(0.0, 1.0, 257)
    assert np.max(np.abs(rm2.r_of_t(ts) - np.exp(ts))) < 1e-10
    assert np.max(np.abs(rm2.h(rm2.r_of_t(ts)) - ts)) < 1e-10
    rm3 = RadialMap(3, 1.0, 4.0)
    ts3 = np.linspace(0.0, rm3.T, 257)
    assert np.max(np.abs(rm3.r_of_t(ts3) - 1.0 / (1.0 - ts3))) < 1e-10
    assert np.max(np.abs(rm3.h(rm3.r_of_t(ts3)) - ts3)) < 1e-10

    # two-hump annulus: Q(r) = sin(3 pi ln r) / r^2 on [1, e] with mu = 7
    # transforms to the two-hump Neumann weight sin(3 pi t) - 7 sin-(...)
    hints = tuple(math.exp(k / 3.0) for k in (1, 2))
    ap = AnnulusProblem(
        2, 1.0, math.e,
        lambda r: np.sin(3 * math.pi * np.log(np.asarray(r, dtype=float)))
        / np.asarray(r, dtype=float) ** 2,
        NonlinearitySpec.arctan_scaled(100.0), 7.0, kink_hints=hints)
    sc = get_preset("fig1").search
    recs, rm, p1d = find_radial_solutions(ap, sc)
    assert len(recs) >= 3
    for rec in recs:
        assert _min_sampled_u(rec) > 0
        rs, us = solution_to_radial(rec.trajectory, rm)
        assert np.all(us > 0)

    # 1D reduction against direct radial integration
    U0 = float(recs[0].initial.u)
    rs, us = direct_radial_integration(ap, U0)
    u_1d = recs[0].trajectory.eval(rm.h(rs))[:, 0]
    assert float(np.max(np.abs(u_1d - us))) < 1e-7
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _passed(9, "%.1fs, %d profiles" % (elapsed, len(recs)))


def test_criterion_10_subharmonic_enumeration(fig2_report, fig2_k3):
    recs, q = fig2_k3
    assert q.mu > fig2_report.mu_star
    targets = enumerate_class_representatives(1, 3)
    assert len(targets) == witt_count(2, 3) == 2
    levels = adaptive_levels(recs, q)
    realized = set()
    for rec in recs:
        code = classify_code(rec, q, *levels)
        if minimal_period_multiple(rec, q) != 3:
            continue
        canon, aperiodic = canonical_rotation(Word(code, 2))
        assert aperiodic
        realized.add(canon.symbols)
    assert realized == {tuple(t.word) for t in targets}
    spent = _budget(120.0, "fig2_base", "fig2_report", "fig2_k3")
    _passed(10, "%.1fs" % spent)
