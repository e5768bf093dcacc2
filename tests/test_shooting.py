"""Shooting searches, classification and verification on the fast
configurations (heavier end-to-end runs live in the acceptance suite)."""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from indefinite_bvp import shooting
from indefinite_bvp.bounds import compute_mu_sharp
from indefinite_bvp.errors import (DegreeUndefinedError, DivergenceError,
                                   DomainError, SolverError,
                                   UnclassifiableError)
from indefinite_bvp.integrator import (BLOWUP_NORM, ProblemSpec, State,
                                       Trajectory, flow, integrate,
                                       max_on_interval)
from indefinite_bvp.nonlinearity import NonlinearitySpec
from indefinite_bvp.expressions import quiet_fp
from indefinite_bvp.presets import (fig1, fig2, multiplicity_m2,
                                    multiplicity_m3)
from indefinite_bvp.shooting import (SearchConfig, _segment_nodes,
                                     adaptive_levels, classify_code,
                                     find_neumann_solutions,
                                     find_periodic_solutions, poincare_map,
                                     verify_solution, winding_number)
from indefinite_bvp.weight import WeightSpec, k_fold_pattern
from oracles import reference_rk4_screen


def min_sampled_u(rec):
    return float(np.min(rec.trajectory.sample()[1]))


@pytest.fixture(scope="module")
def fig1_recs():
    pre = fig1()
    return pre.problem, find_neumann_solutions(pre.problem, pre.search)


@pytest.fixture(scope="module")
def fig2_k1():
    pre = fig2()
    return pre.problem, pre.search, \
        find_periodic_solutions(pre.problem, 1, pre.search)


@pytest.fixture(scope="module")
def fig2_k2(fig2_k1):
    p, sc, base = fig2_k1
    return find_periodic_solutions(p, 2, sc, base=base)


@pytest.fixture(scope="module")
def m2_k1():
    pre = multiplicity_m2()
    return pre.problem, pre.search, \
        find_periodic_solutions(pre.problem, 1, pre.search)


def test_search_config_validation():
    with pytest.raises(DomainError):
        SearchConfig(u_count=0)
    with pytest.raises(DomainError):
        SearchConfig(residual_tol=-1.0)
    # the log grid starts at u_min and solve_ivp needs positive
    # tolerances; nan is out of range too
    for key in ("u_min", "residual_tol", "rtol", "atol"):
        for bad in (0.0, -1.0, math.nan):
            with pytest.raises(DomainError, match=key):
                SearchConfig(**{key: bad})
    # u_max bounds the log grid from above; nan is out of range too
    for bad in (0.0, -1.0, math.nan, SearchConfig().u_min):
        with pytest.raises(DomainError, match="u_max"):
            SearchConfig(u_max=bad)
    # every count is at least 1: no Newton start or no Newton step would
    # give an empty search rather than an error
    for key in ("u_count", "y_count", "newton_max_iter", "max_candidates"):
        for bad in (0, -1):
            with pytest.raises(DomainError, match=key):
                SearchConfig(**{key: bad})
    # every float is finite
    for key in ("u_min", "u_max", "y_min", "y_max", "residual_tol", "rtol",
                "atol"):
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(DomainError, match=key):
                SearchConfig(**{key: bad})


def test_mode_mismatch():
    pre = fig1()
    with pytest.raises(DomainError):
        find_periodic_solutions(pre.problem, 1, pre.search)
    pre2 = fig2()
    with pytest.raises(DomainError):
        find_neumann_solutions(pre2.problem, pre2.search)


def test_search_rejects_k_below_one():
    p = fig2().problem
    for k in (0, -1):
        with pytest.raises(DomainError, match="k must be >= 1"):
            find_periodic_solutions(p, k)


def test_segment_nodes_cover_breakpoints():
    pre = fig2()
    p = pre.problem
    traj = integrate(p, State(0.1, 0.4), 0.0, 2.0)
    z, nodes = _segment_nodes(p, 2, traj)
    # the seed is the trajectory's state at every node but the last
    assert z.tobytes() == traj.eval(np.array(nodes[:-1])).tobytes()
    assert nodes[0] == 0.0
    assert nodes[-1] == pytest.approx(2.0)
    assert np.all(np.diff(nodes) > 0)
    for b in (0.5, 1.0, 1.5):
        assert min(abs(t - b) for t in nodes) < 1e-12


def test_poincare_map_fixes_origin():
    pre = fig2()
    img = poincare_map(pre.problem, State(0.0, 0.0))
    assert img.u == pytest.approx(0.0, abs=1e-12)
    assert img.y == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(DomainError):
        poincare_map(pre.problem, State(0.0, 0.0), k=0)


def test_fig1_three_solutions(fig1_recs):
    p, recs = fig1_recs
    assert len(recs) == 3
    assert all(min_sampled_u(r) > 0 for r in recs)
    assert all(abs(r.residual) < 1e-8 for r in recs)
    levels = adaptive_levels(recs, p)
    codes = {classify_code(rec, p, *levels) for rec in recs}
    assert codes == {(1, 0), (0, 1), (1, 1)}


def test_neumann_weight_starting_negative():
    # the Neumann window is [0, T] even when the weight opens with a
    # negativity interval: search, record and bounds all cover [0, 1]
    w = WeightSpec.from_expression("-sin(3*pi*t)", 1.0)
    p = ProblemSpec.build(w, 7.0, 0.0, NonlinearitySpec.arctan_scaled(100),
                          boundary="neumann")
    assert p.pattern.sigma[0] == pytest.approx(1 / 3, abs=1e-9)
    assert p.period == 1.0
    recs = find_neumann_solutions(p)
    assert len(recs) == 1
    rec = recs[0]
    assert rec.initial.u == pytest.approx(0.0647394, abs=1e-6)
    assert rec.trajectory.span == (0.0, 1.0)
    assert abs(flow(p, rec.initial, (0.0, 1.0)).y) < 1e-9
    assert verify_solution(rec, p).passed
    assert compute_mu_sharp(p) == pytest.approx(0.5, rel=1e-9)


def test_records_carry_their_nodes(fig1_recs, fig2_k1):
    # every record holds its matching grid; a Neumann record is one segment
    _, recs = fig1_recs
    for rec in recs:
        assert rec.nodes == [0.0, 1.0]
        assert rec.node_states.tolist() == [[rec.initial.u, 0.0]]
    p, _, recs2 = fig2_k1
    for rec in recs2:
        assert rec.nodes[0] == 0.0 and rec.nodes[-1] == pytest.approx(1.0)
        assert rec.node_states.shape == (len(rec.nodes) - 1, 2)
        assert rec.node_states[0].tolist() == [rec.initial.u, rec.initial.y]


def test_classify_unclassifiable_margin(fig1_recs):
    p, recs = fig1_recs
    rec = recs[0]
    pat = p.pattern
    _, umax = max_on_interval(rec.trajectory, *pat.pos_intervals()[0])
    with pytest.raises(UnclassifiableError):
        classify_code(rec, p, umax, 10 * umax)
    with pytest.raises(DomainError):
        classify_code(rec, p, -1.0, 1.0)


def dense_scan_max(traj, lo, hi, n=20001):
    """Max of u on [lo, hi] by two dense scans, the second over the four
    spacings around the best point of the first."""
    ts = np.linspace(lo, hi, n)
    k = int(np.argmax(traj.eval(ts)[:, 0]))
    ts = np.linspace(ts[max(k - 2, 0)], ts[min(k + 2, n - 1)], n)
    return float(np.max(traj.eval(ts)[:, 0]))


def test_interval_maxima_match_a_dense_scan(fig2_k1, fig2_k2):
    # on each hump of the fig2 k = 2 orbits the refined grid maximum is
    # the maximum of a dense scan of the same dense output.  On a
    # negativity interval u is convex, so it peaks at an end or, where
    # the stitched segments jump by the shooting residual at a node,
    # at the one-sided limit just inside it; at an end the maximum is
    # the trajectory at that end, bit for bit
    p = fig2_k1[0]
    at_end = 0
    for rec in fig2_k2:
        traj = rec.trajectory
        u_at = lambda t: float(traj.eval(t)[0])
        pat = k_fold_pattern(p.pattern, rec.k)
        for lo, hi in pat.pos_intervals():
            t, u = max_on_interval(traj, lo, hi)
            assert lo <= t <= hi and u == u_at(t)
            assert u == pytest.approx(dense_scan_max(traj, lo, hi),
                                      rel=1e-12, abs=0.0)
        for lo, hi in pat.neg_intervals():
            t, u = max_on_interval(traj, lo, hi)
            end = lo if u_at(lo) >= u_at(hi) else hi
            inside = max(u_at(np.nextafter(lo, hi)),
                         u_at(np.nextafter(hi, lo)))
            if u_at(end) >= inside:
                assert (t, u) == (end, u_at(end))
                at_end += 1
            else:
                assert u_at(end) <= u <= inside
    assert at_end >= len(fig2_k2)


def test_verify_fig1(fig1_recs):
    p, recs = fig1_recs
    for rec in recs:
        rep = verify_solution(rec, p)
        assert rep.passed, rep.checks
    # an absurdly small a priori bound must fail the bound check
    rep = verify_solution(recs[0], p, r_star=1e-6)
    assert not rep.checks["below_R_star"]


def test_fig2_periodic_solution(fig2_k1):
    p, sc, recs = fig2_k1
    assert len(recs) >= 1
    rec = max(recs, key=lambda r: r.sup_norm)
    assert rec.initial.u == pytest.approx(0.107366, abs=1e-4)
    assert rec.initial.y == pytest.approx(0.425227, abs=1e-4)
    for r in recs:
        assert verify_solution(r, p, sc=sc).passed


def test_adaptive_levels_bracket_maxima(fig2_k1):
    p, _, recs = fig2_k1
    r, R = adaptive_levels(recs, p)
    assert 0 < r < R
    assert R > max(rec.sup_norm for rec in recs)


def test_winding_needs_polygon(fig2_k1):
    p, sc, _ = fig2_k1
    with pytest.raises(DomainError):
        winding_number(p, 1, [(0.1, 0.0), (0.2, 0.0)], sc)


def test_seed_polish(fig2_k1):
    # a state seed near the known orbit is polished without any grid
    # screening
    p, sc, recs = fig2_k1
    rec = max(recs, key=lambda r: r.sup_norm)
    seed = shooting._orbit_seed(
        p, [rec.initial.u * 1.001, rec.initial.y * 1.001], 1, sc)
    out = shooting._polish_seeds(p, 1, [seed], sc)
    assert len(out) >= 1
    best = max(out, key=lambda r: r.sup_norm)
    assert best.initial.u == pytest.approx(rec.initial.u, abs=1e-7)


@pytest.fixture(scope="module")
def fig2_friction():
    pre = fig2()
    p = replace(pre.problem, c=-0.7)
    return p, pre.search, find_periodic_solutions(p, 1, pre.search)


def test_fig2_with_friction_single_orbit(fig2_friction):
    # off the presets: c != 0 leaves exactly one positive T-periodic orbit
    _, _, recs = fig2_friction
    assert len(recs) == 1
    rec = recs[0]
    assert min_sampled_u(rec) > 0
    assert rec.initial.u == pytest.approx(0.1024291, abs=1e-6)
    assert rec.initial.y == pytest.approx(0.4138256, abs=1e-6)


def test_m3_base_search():
    pre = multiplicity_m3()
    recs = find_periodic_solutions(pre.problem, 1, pre.search)
    assert len(recs) == 1
    assert recs[0].initial.u == pytest.approx(0.025258, abs=1e-6)
    assert recs[0].initial.y == pytest.approx(0.0567934, abs=1e-6)


def test_search_screens_the_grid_once(monkeypatch):
    # grid minima go straight to Newton: no nested re-screening
    calls = []
    original = shooting.screen_flow

    def counting(p, states, *args, **kwargs):
        calls.append(len(states))
        return original(p, states, *args, **kwargs)

    monkeypatch.setattr(shooting, "screen_flow", counting)
    pre = fig2()
    sc = replace(pre.search, max_candidates=4)
    recs = find_periodic_solutions(pre.problem, 1, sc)
    assert recs
    assert calls == [sc.u_count * sc.y_count]


def _grid(sc):
    u = np.geomspace(sc.u_min, sc.u_max, sc.u_count)
    y = np.linspace(sc.y_min, sc.y_max, sc.y_count)
    uu, yy = np.meshgrid(u, y, indexing="ij")
    return np.column_stack([uu.ravel(), yy.ravel()])


def _by_displacement(starts, finals):
    """Row indices by ascending displacement, the rows that read nan
    left out, as the search ranks its candidates."""
    d = finals - starts
    mags = np.hypot(d[:, 0], d[:, 1])
    order = np.argsort(mags, kind="stable")
    return order[np.isfinite(mags[order])].tolist()


@pytest.mark.parametrize("name, ks, counts", [
    ("fig2", (1, 2), (4, 10, 30)),
    ("m2", (1,), (20,)),
    ("m3", (1,), (12,)),
])
def test_screen_picks_match_the_rk4_oracle(name, ks, counts):
    # the adaptive screen ranks the grid as a fixed-step RK4 screen at
    # 800 (fig2) or 600 steps per unit time does: the same N smallest
    # displacements in the same order, and on m2 the same 238 rows lost
    pre = {"fig2": lambda: fig2(mu=7.0), "m2": multiplicity_m2,
           "m3": multiplicity_m3}[name]()
    p, sc = pre.problem, pre.search
    steps = 800 if name == "fig2" else 600
    starts = _grid(sc)
    ref = starts
    for k in ks:
        ref = reference_rk4_screen(p, ref, (k - 1) * p.period, k * p.period,
                                   steps)
        got = shooting._screen_periods(p, starts, k, sc, None)[0]
        assert (np.isnan(got[:, 0]) == np.isnan(ref[:, 0])).all()
        want = _by_displacement(starts, ref)
        for n in counts:
            assert _by_displacement(starts, got)[:n] == want[:n], (k, n)
    if name == "m2":
        assert np.isnan(got[:, 0]).sum() == 238


def test_neumann_brackets_match_the_rk4_oracle():
    # fig1's terminal-slope sign changes on the u grid, from the adaptive
    # screen and from a fixed-step RK4 screen at 800 steps per unit time
    pre = fig1()
    p, sc = pre.problem, pre.search
    u = np.linspace(sc.u_min, sc.u_max, sc.u_count)
    starts = np.column_stack([u, np.zeros_like(u)])

    def brackets(finals):
        yT = finals[:, 1]
        return np.flatnonzero(yT[:-1] * yT[1:] < 0).tolist()

    want = brackets(reference_rk4_screen(p, starts, 0.0, p.period, 800))
    assert len(want) == 3
    assert brackets(shooting.screen_flow(p, starts, 0.0, p.period)) == want


def _sine_07():
    # T = 0.7 and friction: a period that is no whole number
    w = WeightSpec.sine(2 * math.pi / 0.7, period=0.7)
    g = NonlinearitySpec.arctan_scaled(100.0)
    return ProblemSpec.build(w, 7.0, 0.3, g)


CHAIN_PROBLEMS = {
    "fig2": lambda: fig2().problem,
    "m2": lambda: multiplicity_m2().problem,
    "m3": lambda: multiplicity_m3().problem,
    "sine_T0.7_c0.3": _sine_07,
}


@pytest.mark.parametrize("name", sorted(CHAIN_PROBLEMS))
def test_period_chain_matches_the_whole_window(name):
    # the screen of k periods, one screen_flow per period, has the bits
    # of one screen over [0, kT] for every k <= 7: each jT is an edge of
    # the window's pieces
    p = CHAIN_PROBLEMS[name]()
    sc = SearchConfig()
    starts = np.array([[1e-3, 0.0], [0.03, 0.02], [0.1, -0.05],
                       [0.5, 0.3], [2.0, -1.0], [-0.2, 0.4]])
    last, (_, ends) = shooting._screen_periods(p, starts, 7, sc, None)
    assert sorted(ends) == list(range(1, 8))
    assert last is ends[7]
    assert np.isfinite(ends[1]).any()
    for k, got in ends.items():
        want = shooting.screen_flow(p, starts, 0.0, k * p.period)
        assert got.tobytes() == want.tobytes(), k


def _spy_windows(monkeypatch, diverge=False):
    """The (t0, t1) of every screen_flow call, in order.  With
    ``diverge`` the spy returns every row diverged instead of flowing,
    so a search polishes nothing."""
    windows = []
    original = shooting.screen_flow

    def spy(p, states, t0, t1, *args, **kwargs):
        windows.append((t0, t1))
        if diverge:
            return np.full_like(states, np.nan)
        return original(p, states, t0, t1, *args, **kwargs)

    monkeypatch.setattr(shooting, "screen_flow", spy)
    return windows


def _record_bytes(recs):
    return [(r.node_states.tobytes(), r.nodes, r.residual, r.sup_norm)
            for r in recs]


def test_k2_search_continues_the_k1_screen(monkeypatch):
    # handed the k = 1 result on the same problem and grid, the k = 2
    # search flows only [T, 2T] and finds the records of a cold search;
    # the same records as a plain list screen cold
    pre = fig2()
    p, sc = pre.problem, replace(pre.search, max_candidates=4)
    T = p.period
    base = find_periodic_solutions(p, 1, sc)
    assert isinstance(base, shooting.SearchResult)
    windows = _spy_windows(monkeypatch)
    cold = find_periodic_solutions(p, 2, sc, base=list(base))
    assert len(cold) == 3
    assert windows == [(0.0, T), (T, 2 * T)]
    del windows[:]
    warm = find_periodic_solutions(p, 2, sc, base=base)
    assert windows == [(T, 2 * T)]
    assert _record_bytes(warm) == _record_bytes(cold)


def test_screen_is_handed_on_not_kept(monkeypatch):
    # a screen reaches only the search it is handed to: a k = 1, k = 2
    # pair run twice screens every period once per pair, a search handed
    # [] screens cold, and a k = 2 search without base screens each
    # period once, its k = 1 search flowing nothing
    windows = _spy_windows(monkeypatch, diverge=True)
    pre = fig2()
    p, sc = pre.problem, replace(pre.search, u_count=4, y_count=3)
    T = p.period
    for _ in range(2):
        base = find_periodic_solutions(p, 1, sc)
        find_periodic_solutions(p, 2, sc, base=base)
    assert windows == [(0.0, T), (T, 2 * T)] * 2
    del windows[:]
    find_periodic_solutions(p, 2, sc, base=[])
    assert windows == [(0.0, T), (T, 2 * T)]
    del windows[:]
    find_periodic_solutions(p, 2, sc)
    assert windows == [(0.0, T), (T, 2 * T)]


def test_interleaved_searches_keep_their_screens(monkeypatch):
    # k = 1 searches on p and q, then k = 2 on each with its own base:
    # each k = 2 search flows only [T, 2T]
    windows = _spy_windows(monkeypatch, diverge=True)
    pre = fig2()
    p, sc = pre.problem, replace(pre.search, u_count=4, y_count=3)
    q = replace(p, mu=7.5)
    T = p.period
    base_p = find_periodic_solutions(p, 1, sc)
    base_q = find_periodic_solutions(q, 1, sc)
    del windows[:]
    find_periodic_solutions(p, 2, sc, base=base_p)
    assert windows == [(T, 2 * T)]
    del windows[:]
    find_periodic_solutions(q, 2, sc, base=base_q)
    assert windows == [(T, 2 * T)]


def test_screen_key(monkeypatch):
    # the result of a search on another problem (by equality) or another
    # grid field is not continued; max_candidates may differ
    windows = _spy_windows(monkeypatch, diverge=True)
    pre = fig2()
    p, sc = pre.problem, replace(pre.search, u_count=4, y_count=3)
    T = p.period
    hits = {"equal problem": (replace(p), sc),
            "max_candidates": (p, replace(sc, max_candidates=7))}
    misses = {"mu": (replace(p, mu=7.5), sc),
              "c": (replace(p, c=0.1), sc)}
    for name, value in (("u_min", 2e-4), ("u_max", 4.0), ("u_count", 5),
                        ("y_min", -4.0), ("y_max", 4.0), ("y_count", 4)):
        misses[name] = (p, replace(sc, **{name: value}))
    for name, (q, sq) in {**hits, **misses}.items():
        base = find_periodic_solutions(p, 1, sc)
        del windows[:]
        find_periodic_solutions(q, 2, sq, base=base)
        want = [(T, 2 * T)] if name in hits else [(0.0, T), (T, 2 * T)]
        assert windows == want, name


def test_candidates_are_smallest_displacements(monkeypatch):
    # Newton starts from the cluster-filtered max_candidates smallest
    # finite screened displacements, in ascending order
    screened, polished = {}, []
    screen, seed = shooting.screen_flow, shooting._orbit_seed

    def screening(p, states, *args, **kwargs):
        finals = screen(p, states, *args, **kwargs)
        # nothing diverges on this grid: mark the best row as diverged
        # so the pick must skip a NaN displacement
        d = finals - states
        finals[np.argmin(np.hypot(d[:, 0], d[:, 1]))] = np.nan
        screened["starts"], screened["finals"] = states, finals
        return finals

    def seeding(p, s0, k, sc):
        polished.append(np.array(s0, dtype=float))
        return seed(p, s0, k, sc)

    monkeypatch.setattr(shooting, "screen_flow", screening)
    monkeypatch.setattr(shooting, "_orbit_seed", seeding)
    pre = fig2(mu=7.0)
    sc = replace(pre.search, max_candidates=4)
    find_periodic_solutions(pre.problem, 1, sc)
    starts = screened["starts"]
    d = screened["finals"] - starts
    mags = np.hypot(d[:, 0], d[:, 1])
    assert np.isnan(mags).sum() == 1
    finite = [i for i in range(len(mags)) if math.isfinite(mags[i])]
    want = []
    for i in sorted(finite, key=lambda i: mags[i])[:sc.max_candidates]:
        if all(math.hypot(*(starts[i] - starts[j])) > 1e-4 * (1 + sc.u_max)
               for j in want):
            want.append(i)
    assert len(want) >= 2
    assert np.array_equal(np.array(polished), starts[want])


def test_newton_reconverges_quadratically(fig2_k1, fig2_k2, monkeypatch):
    # residual and difference-quotient Jacobian come from one batched flow
    # per evaluation, so a 1% perturbation of a converged orbit is undone
    # in three full Newton steps: four flows in all
    p, sc, k1 = fig2_k1
    assert len(fig2_k2) == 3
    calls = []
    original = shooting._batch_flow

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(shooting, "_batch_flow", counting)
    for rec in k1 + fig2_k2:
        calls.clear()
        out, = shooting._polish_lockstep(
            p, [(1.01 * rec.node_states, rec.nodes)], sc)
        assert out is not None
        z, defect = out
        assert defect < sc.residual_tol
        assert len(calls) <= 4, (rec.k, len(calls))
        assert np.max(np.abs(z - rec.node_states)) < 1e-8


def test_jacobian_blocks_match_loop(fig2_k1, fig2_k2, monkeypatch):
    # the vectorised cyclic block Jacobian has the entries of the
    # block-by-block loop over the same flow rows
    p, sc, _ = fig2_k1
    rec = max(fig2_k2, key=lambda r: len(r.nodes))
    n = len(rec.nodes) - 1
    seen = {}
    flow, solve = shooting._batch_flow, np.linalg.solve

    def recording(*args):
        out, escaped = flow(*args)
        assert not escaped
        seen.setdefault("out", out.copy())
        return out, escaped

    def capture(a, b):
        seen.setdefault("jac", a.copy())
        return solve(a, b)

    monkeypatch.setattr(shooting, "_batch_flow", recording)
    monkeypatch.setattr(np.linalg, "solve", capture)
    z = 1.01 * rec.node_states
    shooting._polish_lockstep(p, [(z, rec.nodes)], sc)
    out = seen["out"]
    hs = shooting._FD_STEP * (1.0 + np.abs(z))
    ref = np.zeros((2 * n, 2 * n))
    for j in range(n):
        ref[2 * j:2 * j + 2, 2 * j] = (out[3 * j + 1] - out[3 * j]) / hs[j, 0]
        ref[2 * j:2 * j + 2, 2 * j + 1] = \
            (out[3 * j + 2] - out[3 * j]) / hs[j, 1]
        nxt = (j + 1) % n
        ref[2 * j:2 * j + 2, 2 * nxt:2 * nxt + 2] -= np.eye(2)
    assert seen["jac"].tobytes() == ref.tobytes()


def test_coded_seeds_run_no_search(fig2_k1, monkeypatch):
    # the seed builder only tiles the base records: one seed per nonzero
    # word of length k, none outside 2 <= k <= 7
    p, sc, base = fig2_k1

    def no_screen(*args, **kwargs):
        raise AssertionError("the seed builder must not screen")

    monkeypatch.setattr(shooting, "screen_flow", no_screen)
    for k in (2, 3):
        seeds = shooting._coded_orbit_seeds(p, k, base)
        assert len(seeds) == (2 ** k - 1) * len(base)
        for z, nodes in seeds:
            assert nodes[-1] == pytest.approx(k * p.period)
            assert z.shape == (len(nodes) - 1, 2)
    assert shooting._coded_orbit_seeds(p, 1, base) == []
    assert shooting._coded_orbit_seeds(p, 8, base) == []


def _scaled(traj, factor):
    """``traj`` with u and u' multiplied by ``factor``."""
    return Trajectory(traj.times, factor * traj.states, factor * traj.F)


@pytest.mark.parametrize("case", ["fig2 k=2", "m2 k=1"])
def test_stitched_trajectory_is_its_segment_flows(case, fig2_k1, fig2_k2,
                                                  m2_k1):
    # the join keeps each segment's own steps, start state and dense rows:
    # inside segment j it is the integrate trajectory of that segment bit
    # for bit, and at each node it returns the node state itself
    p, sc, recs = m2_k1 if case == "m2 k=1" else fig2_k1[:2] + (fig2_k2,)
    assert recs
    rng = np.random.default_rng(0)
    for rec in recs:
        z, nodes = rec.node_states, rec.nodes
        traj = shooting._stitched_trajectory(p, z, nodes, sc)
        assert len(nodes) > 2
        for j in range(len(nodes) - 1):
            own = integrate(p, State(float(z[j, 0]), float(z[j, 1])),
                            nodes[j], nodes[j + 1], rtol=sc.rtol,
                            atol=sc.atol)
            ts = rng.uniform(nodes[j], nodes[j + 1], 64)
            assert traj.eval(ts).tobytes() == own.eval(ts).tobytes()
        assert traj.eval(np.asarray(nodes[:-1])).tobytes() == z.tobytes()
        starts = traj.times[:-1]
        assert traj.eval(starts).tobytes() == traj.states[:-1].tobytes()


def _diverged(traj):
    raise DivergenceError("stitched trajectory diverged")


# the gate's rules, each as a change of the stitched trajectory of a
# converged root that breaks that rule alone
GATE_RULES = {
    "diverged": _diverged,
    "trivial": lambda traj: _scaled(traj, 1e-6),
    "not positive": lambda traj: _scaled(traj, -1.0),
}


def _fig2_fast_search():
    pre = fig2()
    sc = replace(pre.search, max_candidates=4)
    return find_periodic_solutions(pre.problem, 1, sc)


def _fig1_search():
    pre = fig1()
    return find_neumann_solutions(pre.problem, pre.search)


@pytest.mark.parametrize("search", [_fig2_fast_search, _fig1_search],
                         ids=["periodic", "neumann"])
@pytest.mark.parametrize("rule", sorted(GATE_RULES))
def test_gate_rejects(rule, search, monkeypatch):
    # every converged root of both searches goes through the one gate,
    # which drops it when its trajectory diverges, is trivial or is not
    # positive
    roots = []
    stitched = shooting._stitched_trajectory

    def breaking(p, z, nodes, sc):
        roots.append(z)
        return GATE_RULES[rule](stitched(p, z, nodes, sc))

    monkeypatch.setattr(shooting, "_stitched_trajectory", breaking)
    assert search() == []
    assert roots


def test_gate_keeps_a_positive_root(fig2_k1):
    p, sc, recs = fig2_k1
    rec = recs[0]
    out = shooting._accept(p, rec.node_states, rec.nodes, 1, rec.residual,
                           sc, "periodic")
    assert out.sup_norm == rec.sup_norm
    # sup-norm and positivity come from one sampling of the trajectory
    _, us, _ = out.trajectory.sample(1024)
    assert out.sup_norm == float(np.max(np.abs(us)))
    assert float(np.min(us)) > 0.0


def test_continuation_ends_at_the_gate(fig2_k1, monkeypatch):
    # every trial root of the continuation goes through the gate, and a
    # gate that rejects everything shortens each retry until the branch
    # is given up
    p, sc, recs = fig2_k1
    rec = max(recs, key=lambda r: r.sup_norm)
    polish = shooting._polish_lockstep
    trials, gated = [], []

    def counting(q, seeds, sc):
        trials.append(q.mu)
        return polish(q, seeds, sc)

    def reject(q, *args):
        gated.append(q.mu)
        return None

    monkeypatch.setattr(shooting, "_polish_lockstep", counting)
    monkeypatch.setattr(shooting, "_accept", reject)
    assert shooting.track_in_mu(p, rec, 1.1 * p.mu, sc) is None
    assert gated == trials and len(gated) > 2
    assert gated[0] == pytest.approx(1.1 * p.mu)
    steps = [math.log(mu / p.mu) for mu in gated]
    assert all(a > b > 0 for a, b in zip(steps, steps[1:]))


def test_continuation_gates_every_step(fig2_k1, monkeypatch):
    # the root of the first trial, mu = 10.5, has a stitched trajectory
    # that escapes: the gate rejects it in the middle of the branch, the
    # step is shortened, and the branch reaches the record of an
    # undisturbed continuation
    p, sc, recs = fig2_k1
    rec, = recs
    ref = shooting.track_in_mu(p, rec, 20.0, sc)
    first = 1.5 * p.mu
    stitched = shooting._stitched_trajectory
    escaped = []

    def escaping(q, z, nodes, sc):
        if q.mu == first:
            escaped.append(q.mu)
            raise DivergenceError("stitched trajectory escaped")
        return stitched(q, z, nodes, sc)

    monkeypatch.setattr(shooting, "_stitched_trajectory", escaping)
    out = shooting.track_in_mu(p, rec, 20.0, sc)
    assert escaped == [first]
    assert out is not None
    assert _same_state(out.initial, ref.initial)
    assert abs(out.sup_norm - ref.sup_norm) < 1e-7


def test_coded_multiplicity_continues_the_all_ones_record(monkeypatch):
    # two unequal humps at mu = 10: the 01 record has the largest sup-norm,
    # but the large profile to continue is 11
    w = WeightSpec.from_expression("sin(2*t)*(1+0.3*sin(t))", 2 * math.pi)
    p = ProblemSpec.build(w, 10.0, 0.0, NonlinearitySpec.power(2))
    sc = SearchConfig(u_min=1e-3, u_max=5.0, u_count=32, y_count=24,
                      max_candidates=20)
    base = find_periodic_solutions(p, 1, sc)
    levels = adaptive_levels(base, p)
    codes = {classify_code(replace(b), p, *levels): b for b in base}
    assert max(base, key=lambda b: b.sup_norm) is codes[(0, 1)]
    continued = []

    def lose_branch(q, rec, mu_target, sc=None):
        continued.append(rec)
        return None

    monkeypatch.setattr(shooting, "track_in_mu", lose_branch)
    with pytest.raises(SolverError, match="lost the branch"):
        shooting.coded_multiplicity(p, 2, 1e3, sc, base=base)
    assert continued == [codes[(1, 1)]]
    assert all(b.code is None for b in base)
    # without an all-ones record there is no large profile to continue
    with pytest.raises(SolverError, match="every hump above"):
        shooting.coded_multiplicity(p, 2, 1e3, sc, base=[codes[(0, 1)]])
    assert len(continued) == 1


@pytest.mark.parametrize("k", [1, 8])
def test_coded_multiplicity_refuses_k_without_coded_seeds(k, monkeypatch):
    # no coded word is seeded outside 2 <= k <= 7, so the range is checked
    # before the base search and the continuation
    def no_search(*args, **kwargs):
        raise AssertionError("searched before checking k")

    monkeypatch.setattr(shooting, "find_periodic_solutions", no_search)
    monkeypatch.setattr(shooting, "track_in_mu", no_search)
    p = fig2(mu=7.0).problem
    with pytest.raises(DomainError, match="2 <= k <= 7"):
        shooting.coded_multiplicity(p, k, 1e3)


def _same_state(a, b):
    return abs(a.u - b.u) < 1e-7 and abs(a.y - b.y) < 1e-7


def test_continuation_downward_matches_search(fig2_k1):
    # continuing the mu = 7 orbit down to 6.5 reaches the orbit the
    # search finds there
    p, sc, recs = fig2_k1
    rec, = recs
    out = shooting.track_in_mu(p, rec, 6.5, sc)
    pre = fig2(mu=6.5)
    ref, = find_periodic_solutions(pre.problem, 1,
                                   replace(pre.search, max_candidates=4))
    assert _same_state(out.initial, ref.initial)


@pytest.mark.parametrize("mu_target", [math.nan, 0.0, -5.0])
def test_continuation_rejects_a_bad_target(mu_target, fig2_k1, monkeypatch):
    # a target outside (0, inf) is refused before any polish, not spent
    # on 32 failing ones and reported as a lost branch
    p, sc, recs = fig2_k1
    rows = _counting_flows(monkeypatch)
    with pytest.raises(DomainError, match="mu_target"):
        shooting.track_in_mu(p, recs[0], mu_target, sc)
    assert rows == []


def test_continuation_shortens_rejected_steps(fig2_k1, monkeypatch):
    # a failed polish and a root collapsed to zero are both rejected: each
    # time the next trial mu moves closer to the current one, and the
    # branch still reaches the record of an undisturbed continuation
    p, sc, recs = fig2_k1
    rec, = recs
    ref = shooting.track_in_mu(p, rec, 4.5, sc)
    polish = shooting._polish_lockstep
    trials = []

    def faulty(q, seeds, sc):
        (z0, _), = seeds
        trials.append(q.mu)
        if len(trials) == 1:
            return [None]
        if len(trials) == 2:
            return [(np.zeros_like(z0), 0.0)]
        return polish(q, seeds, sc)

    monkeypatch.setattr(shooting, "_polish_lockstep", faulty)
    out = shooting.track_in_mu(p, rec, 4.5, sc)
    steps = [abs(math.log(mu / p.mu)) for mu in trials[:3]]
    assert steps[0] > steps[1] > steps[2] > 0
    assert trials[-1] == 4.5
    assert _same_state(out.initial, ref.initial)


def test_continuation_shortens_a_clamped_step(fig2_k1, monkeypatch):
    # the first trial is clamped to the nearby target; when it and the
    # next two are rejected, every retry is a new mu strictly closer to
    # the current one, and the branch still reaches the undisturbed record
    p, sc, recs = fig2_k1
    rec, = recs
    ref = shooting.track_in_mu(p, rec, 6.5, sc)
    polish = shooting._polish_lockstep
    trials = []

    def faulty(q, seeds, sc):
        assert len(seeds) == 1
        trials.append(q.mu)
        return [None] if len(trials) <= 3 else polish(q, seeds, sc)

    monkeypatch.setattr(shooting, "_polish_lockstep", faulty)
    out = shooting.track_in_mu(p, rec, 6.5, sc)
    assert trials[0] == 6.5
    steps = [abs(math.log(mu / p.mu)) for mu in trials[:4]]
    assert steps[0] > steps[1] > steps[2] > steps[3] > 0
    assert trials[-1] == 6.5
    assert _same_state(out.initial, ref.initial)


def _counting_flows(monkeypatch):
    """Rows of every _batch_flow call from here on, one entry per call."""
    rows = []
    original = shooting._batch_flow

    def counting(p, Z, *args):
        rows.append(len(Z))
        return original(p, Z, *args)

    monkeypatch.setattr(shooting, "_batch_flow", counting)
    return rows


def _recording_rounds(monkeypatch):
    """The lockstep rounds from here on: (rounds, requests), one list per
    round of the (rows, rtol) of each _batch_flow call in it and of the
    (rows, decade) of each Newton request it flows.  A round ends when
    the lockstep sends its seeds their flowed rows."""
    rounds, current, requests, asked = [], [], [], []
    flow, newton = shooting._batch_flow, shooting._newton_steps

    def recording(p, Z, t0s, lens, sc):
        current.append((len(Z), sc.rtol))
        return flow(p, Z, t0s, lens, sc)

    def tracked(z, sc):
        steps = newton(z, sc)
        request = next(steps)
        while True:
            asked.append((len(request[0]), request[1]))
            try:
                reply = yield request
            except DivergenceError as err:
                reply = err
            if current:
                rounds.append(current[:])
                requests.append(asked[:])
                del current[:], asked[:]
            try:
                request = (steps.throw(reply)
                           if isinstance(reply, DivergenceError)
                           else steps.send(reply))
            except StopIteration as done:
                return done.value

    monkeypatch.setattr(shooting, "_batch_flow", recording)
    monkeypatch.setattr(shooting, "_newton_steps", tracked)
    return rounds, requests


def _round_rows(rounds):
    return [sum(flow[0] for flow in r) for r in rounds]


def test_lockstep_rounds_flow_one_per_decade(monkeypatch):
    # in every round of the fig2 k = 1 and k = 2 searches the flows have
    # distinct decades, and each flows the rows of every request at its
    # decade: their rows sum to the round's requests.  Some round flows
    # several decades, and some loose flow stacks several seeds.
    pre = fig2()
    p, sc = pre.problem, pre.search
    rounds, requests = _recording_rounds(monkeypatch)
    find_periodic_solutions(p, 2, sc,
                            base=find_periodic_solutions(p, 1, sc))
    assert len(rounds) == len(requests) > 1
    for flows, asked in zip(rounds, requests):
        want = {}
        for rows, level in asked:
            rtol = sc.rtol * 10.0 ** level
            want[rtol] = want.get(rtol, 0) + rows
        assert sorted(flows) == sorted((n, rtol)
                                       for rtol, n in want.items())
    assert any(len(flows) > 1 for flows in rounds)
    assert any(rtol > sc.rtol and rows > min(n for n, _ in asked)
               for flows, asked in zip(rounds, requests)
               for rows, rtol in flows)


def test_lockstep_polish_matches_solo_polishes(fig2_k1, monkeypatch):
    # the seeds of a fig2 k = 2 search at mu = 7 polished together give
    # the records of polishing each seed alone: rows that share a flow
    # share its steps, so a root moves only within the flow tolerance
    p, sc, base = fig2_k1
    sc = replace(sc, max_candidates=4)
    captured = []
    polish_seeds = shooting._polish_seeds

    def capture(p, k, seeds, sc):
        captured.append(seeds)
        return polish_seeds(p, k, seeds, sc)

    monkeypatch.setattr(shooting, "_polish_seeds", capture)
    find_periodic_solutions(p, 2, sc, base=base)
    seeds, = captured
    assert len(seeds) >= 4

    solo = [shooting._polish_lockstep(p, [seed], sc)[0] for seed in seeds]
    together = shooting._polish_lockstep(p, seeds, sc)
    nontrivial = [(a, b) for a, b in zip(together, solo) if b is not None
                  and np.max(np.abs(b[0])) > shooting._TRIVIAL_TOL]
    assert len(nontrivial) >= 3
    for a, b in nontrivial:
        assert a is not None
        assert np.max(np.abs(a[0] - b[0])) < 1e-10

    recs = shooting._polish_seeds(p, 2, seeds, sc)
    levels = adaptive_levels(recs, p)
    for rec in recs:
        classify_code(rec, p, *levels)
    assert sorted(r.code_string for r in recs) == ["01", "10", "11"]


def test_lockstep_polish_isolates_a_diverging_seed(fig2_k1, monkeypatch):
    # a seed whose flow blows up is polished together with a good seed:
    # both first requests, at the loosest decade, share one flow; the bad
    # seed's rows are frozen and named there, it drops out, and the good
    # seed goes on to its solo root
    p, sc, recs = fig2_k1
    rec = recs[0]
    good = (1.01 * rec.node_states, rec.nodes)
    bad = (1e7 * rec.node_states, rec.nodes)
    assert shooting._polish_lockstep(p, [bad], sc) == [None]
    solo, = shooting._polish_lockstep(p, [good], sc)
    rounds, _ = _recording_rounds(monkeypatch)
    out = shooting._polish_lockstep(p, [bad, good], sc)
    assert out[0] is None and out[1] is not None
    z, defect = out[1]
    assert np.max(np.abs(z - solo[0])) < 1e-12
    assert defect < sc.residual_tol
    # one flow of both seeds, then the good seed alone: no request is
    # flowed twice
    n3 = 3 * (len(rec.nodes) - 1)
    loosest = sc.rtol * 10.0 ** shooting._flow_level(math.inf, sc)
    assert rounds[0] == [(2 * n3, loosest)]
    assert all(r == [(n3, r[0][1])] for r in rounds[1:])


def test_lockstep_polish_survives_a_seed_whose_start_field_is_not_finite():
    # fig2 with a g whose exp term is inf at u = 2000: a copy of the k = 1
    # record whose first node starts there has its rows at that node left
    # out of its first flow and returns None, while the seed beside it
    # polishes to its solo root
    pre = fig2()
    g = NonlinearitySpec.from_expression("100*s*atan(s) + s*exp(s - 700)")
    p, sc = replace(pre.problem, g=g), pre.search
    rec, = find_periodic_solutions(p, 1, sc)
    good = (1.01 * rec.node_states, rec.nodes)
    z = rec.node_states.copy()
    z[0, 0] = 2000.0
    solo, = shooting._polish_lockstep(p, [good], sc)
    assert solo is not None
    out = shooting._polish_lockstep(p, [good, (z, rec.nodes)], sc)
    assert out[1] is None and out[0] is not None
    assert np.max(np.abs(out[0][0] - solo[0])) < 1e-12


def test_lockstep_rounds_only_shrink(monkeypatch):
    # m2's base search has diverging trials in its rounds; a round flows
    # no more rows than the one before it, since seeds only ever drop out
    pre = multiplicity_m2()
    rounds, _ = _recording_rounds(monkeypatch)
    find_periodic_solutions(pre.problem, 1, pre.search)
    rows = _round_rows(rounds)
    assert len(rows) > 1
    assert all(a >= b for a, b in zip(rows, rows[1:])), rows


@pytest.mark.parametrize("preset", [fig2, multiplicity_m2])
def test_lockstep_polish_does_not_depend_on_seed_order(preset, monkeypatch):
    # the seeds of a k = 2 search polished in reverse order give the
    # records of the forward order
    pre = preset()
    p, sc = pre.problem, replace(pre.search, max_candidates=8)
    captured = []
    polish_seeds = shooting._polish_seeds

    def capture(p, k, seeds, sc):
        if k == 2:
            captured.append(seeds)
        return polish_seeds(p, k, seeds, sc)

    monkeypatch.setattr(shooting, "_polish_seeds", capture)
    forward = find_periodic_solutions(p, 2, sc)
    seeds, = captured
    backward = shooting._polish_seeds(p, 2, seeds[::-1], sc)
    assert len(forward) == len(backward) > 0
    for a, b in zip(forward, backward):
        assert np.max(np.abs(a.node_states - b.node_states)) < 1e-10
        assert a.nodes == b.nodes


def _seeds_and_roots(p, sc, k1, k2, monkeypatch):
    """The seeds of the fig2 k = 1 and k = 2 searches and 1 % perturbations
    of their records, each polished alone: [(nodes, (z, defect) or None,
    [(rtol, atol) of each flow])], and the rtols of the k = 1 search."""
    captured, flows = [], []
    polish_seeds, flow = shooting._polish_seeds, shooting._batch_flow

    def capture(p, k, seeds, sc):
        captured.extend(seeds)
        return polish_seeds(p, k, seeds, sc)

    def recording(p, Z, t0s, lens, sc):
        flows.append((sc.rtol, sc.atol))
        return flow(p, Z, t0s, lens, sc)

    monkeypatch.setattr(shooting, "_polish_seeds", capture)
    monkeypatch.setattr(shooting, "_batch_flow", recording)
    base = find_periodic_solutions(p, 1, sc)
    search_rtols = [rtol for rtol, _ in flows]
    find_periodic_solutions(p, 2, sc, base=base)
    captured += [(1.01 * r.node_states, r.nodes) for r in k1 + k2]
    out = []
    for z0, nodes in captured:
        del flows[:]
        polished, = shooting._polish_lockstep(p, [(z0, nodes)], sc)
        out.append((nodes, polished, flows[:]))
    return out, search_rtols


def test_polish_returns_roots_only_from_search_tolerance_flows(
        fig2_k1, fig2_k2, monkeypatch):
    # trial flows are loose far from a root, but every root comes from a
    # flow at the search tolerances, and a fresh flow of it there
    # confirms its defect
    p, sc, k1 = fig2_k1
    polishes, search_rtols = _seeds_and_roots(p, sc, k1, fig2_k2,
                                              monkeypatch)
    roots = [(nodes, polished, flows) for nodes, polished, flows in polishes
             if polished is not None]
    assert len(roots) > len(k1) + len(fig2_k2)
    for nodes, (z, defect), flows in roots:
        assert flows[-1] == (sc.rtol, sc.atol)
        fz, escaped = shooting._batch_flow(p, z, nodes[:-1], np.diff(nodes),
                                           sc)
        assert not escaped
        fresh = np.max(np.linalg.norm(fz - np.roll(z, -1, axis=0), axis=1))
        assert fresh < sc.residual_tol and defect < sc.residual_tol
    # the schedule is not a no-op: the k = 1 search flows at the loosest
    # decade, the screen's rtol
    assert min(search_rtols) == sc.rtol
    assert max(search_rtols) == pytest.approx(shooting._SCREEN_RTOL)


def _drive_newton(flow, z0, sc):
    """(result, requests) of :func:`shooting._newton_steps` on the one
    node state z0, each request's rows sent ``flow(rows, decade)``, or
    thrown the DivergenceError it raises."""
    steps = shooting._newton_steps(np.array([z0], dtype=float), sc)
    requests = 0
    try:
        rows, level = next(steps)
        while True:
            requests += 1
            try:
                out = flow(rows, level)
            except DivergenceError as err:
                rows, level = steps.throw(err)
            else:
                rows, level = steps.send(out)
    except StopIteration as done:
        return done.value, requests


def _u_map(phi, y=lambda u: np.zeros_like(u)):
    """Synthetic flowed rows: each row (u, y) ends at (phi(u), y(u))."""
    return lambda rows, level: np.column_stack([phi(rows[:, 0]),
                                                y(rows[:, 0])])


def _fails_to_confirm(rows, level):
    # identity at the loose decades, a row left out at the search's
    if not level:
        raise DivergenceError("left out at the search tolerance")
    return rows.copy()


NEWTON_EXITS = {
    # name: (flow, z0, newton_max_iter, requests until it gives up)
    "singular": (_u_map(lambda u: u, lambda u: np.full_like(u, 5.0)),
                 (0.0, 0.0), 30, 1),
    "line_search": (_u_map(lambda u: u + u ** 2 + 1.0), (1e-3, 0.0), 30,
                    13),
    "max_iter": (_u_map(lambda u: u + (u - 1.0) ** 3), (3.0, 0.0), 3, 4),
    "bound": (_u_map(lambda u: u + np.exp(-u / 50.0)), (1.0, 0.0), 30, 5),
    "stall": (_u_map(lambda u: u + np.sign(u - 1.0)
                     * np.abs(u - 1.0) ** (1.0 / 40.0)), (2.0, 0.0), 30, 61),
    "confirm": (_fails_to_confirm, (1.0, 0.5), 30, 2),
}


@pytest.mark.parametrize("case", sorted(NEWTON_EXITS))
def test_newton_gives_up(case):
    # each way Newton gives up on one node, driven with synthetic flowed
    # rows: a singular Jacobian, twelve halvings with no decrease, the
    # iteration cap, an iterate beyond 100 (1 + |z0|), ten steps without
    # halving the residual, and a root whose confirming flow at the
    # search tolerance fails; the request count names the exit
    flow, z0, max_iter, requests = NEWTON_EXITS[case]
    sc = replace(SearchConfig(), newton_max_iter=max_iter)
    assert _drive_newton(flow, z0, sc) == (None, requests)


# ---------------------------------------------------------------------------
# winding numbers


def fig1_expression_problem():
    w = WeightSpec.from_expression(
        "max(sin(3*pi*t), 0) - 7*max(-sin(3*pi*t), 0)", 1.0)
    g = NonlinearitySpec.from_expression("100*s*atan(s)")
    return ProblemSpec.build(w, 1.0, 0.0, g, boundary="neumann")


VERTEX_CASES = {
    # name: (problem, k, curve center, radius); each curve is refined
    "fig2_k2": (lambda: fig2().problem, 2,
                (0.032390361403572515, 0.01930884642626691), 0.01),
    "fig1_expression": (fig1_expression_problem, 1, (0.0, 0.0), 0.1),
    "friction": (lambda: replace(fig2().problem, c=0.5), 1, (0.0, 0.0),
                 0.1),
}


def circle(center, rad, n=12):
    angs = np.linspace(0.0, 2 * math.pi, n, endpoint=False)
    return [center + rad * np.array([math.cos(a), math.sin(a)])
            for a in angs]


def record_circle(rec):
    z = np.array([rec.initial.u, rec.initial.y])
    return circle(z, 2e-3 * (1.0 + float(np.hypot(*z))))


@pytest.mark.parametrize("case", sorted(VERTEX_CASES))
def test_winding_vertex_is_its_scalar_flow(case):
    # the angle increments of the refined polyline are those of each
    # vertex's own scalar flow over [0, kT] at the search tolerances,
    # bit for bit, and they add up to the winding number
    make, k, center, rad = VERTEX_CASES[case]
    p, sc = make(), SearchConfig()
    curve = circle(np.array(center), rad)
    pts, deltas = shooting._refined_polyline(p, k, curve, sc)
    assert len(pts) > len(curve)
    angles = []
    for q in pts:
        img = flow(p, State(*q), (0.0, k * p.period), rtol=sc.rtol,
                   atol=sc.atol)
        angles.append(math.atan2(img.y - q[1], img.u - q[0]))
    n = len(pts)
    assert deltas == [(angles[(i + 1) % n] - angles[i] + math.pi)
                      % (2 * math.pi) - math.pi for i in range(n)]
    assert winding_number(p, k, curve, sc) == \
        int(round(sum(deltas) / (2 * math.pi)))


def test_winding_vertex_escape_chains_the_divergence(fig2_k1):
    # g grows linearly at infinity, so 1e7 times the orbit grows about
    # tenfold per period and leaves the guard region in the third: the
    # error names that vertex and keeps the flow's own error as its cause
    p, sc, recs = fig2_k1
    z = np.array([recs[0].initial.u, recs[0].initial.y])
    curve = [1.01 * z, 1e7 * z, 1.02 * z]
    with pytest.raises(DegreeUndefinedError, match="diverged") as err:
        winding_number(p, 3, curve, sc)
    assert "(u, y) = (%.17g, %.17g)" % tuple(curve[1]) in str(err.value)
    cause = err.value.__cause__
    assert isinstance(cause, DivergenceError)
    assert 2.0 < cause.last_time < 3.0
    assert abs(cause.last_state[0]) + abs(cause.last_state[1]) \
        >= BLOWUP_NORM


def test_batch_flow_names_the_escaping_row(fig2_k1):
    # a Newton-shaped call: each node state with its two difference rows,
    # every row on its own segment.  1e7 times the state at the second
    # node leaves the guard region inside the second segment.
    p, sc, recs = fig2_k1
    z, nodes = recs[0].node_states, np.array(recs[0].nodes)
    assert len(z) == 2
    rows = np.repeat(z, 3, axis=0)
    rows[3] *= 1e7
    t0s = np.repeat(nodes[:-1], 3)
    lens = np.repeat(np.diff(nodes), 3)
    Y, escaped = shooting._batch_flow(p, rows, t0s, lens, sc)
    assert list(escaped) == [3]
    err = escaped[3]
    assert isinstance(err, DivergenceError) and err.row == 3
    assert t0s[3] <= err.last_time <= t0s[3] + lens[3]
    # the state at the end of the step that left the guard region
    assert abs(err.last_state[0]) + abs(err.last_state[1]) >= BLOWUP_NORM
    assert np.isnan(Y[3]).all()
    # the other rows go on: they end where a flow of them alone ends, up
    # to the flow tolerance (the steps differ)
    rest = [0, 1, 2, 4, 5]
    alone, none = shooting._batch_flow(p, rows[rest], t0s[rest], lens[rest],
                                       sc)
    assert not none
    assert np.max(np.abs(Y[rest] - alone)) < 1e-9
    # solve_ivp with its blow-up event names the same row
    assert solve_ivp_flow(p, rows, t0s, lens, sc) == 3


def solve_ivp_flow(p, Z, t0s, lens, sc):
    """The batched flow as scipy's solve_ivp runs it, the oracle of
    _batch_flow: DOP853 on the interleaved rows with the same field, the
    tolerances tightened by sqrt(m) and a terminal blow-up event.
    Returns the end rows, or the index of the row that escaped."""
    Z = np.asarray(Z, dtype=float)
    m = len(Z)
    span = float(np.max(lens))
    rate = np.asarray(lens, dtype=float) / span
    rates = np.repeat(rate, 2)

    def rhs(tau, z):
        out = np.empty_like(z)
        out[0::2] = z[1::2]
        out[1::2] = -p.c * z[1::2] - p.extended(p.a_mu_at(t0s + tau * rate),
                                                 z[0::2])
        return out * rates

    def blowup(tau, z):
        return float(np.max(np.abs(z[0::2]) + np.abs(z[1::2]))) \
            - BLOWUP_NORM

    blowup.terminal = True
    blowup.direction = 1
    scale = 1.0 / math.sqrt(m)
    with quiet_fp():
        sol = solve_ivp(rhs, (0.0, span), Z.ravel(), method="DOP853",
                        rtol=max(sc.rtol * scale, 1e-13),
                        atol=sc.atol * scale, events=blowup)
    z = sol.y[:, -1]
    if sol.status != 0 or not np.all(np.isfinite(z)):
        size = np.abs(z[0::2]) + np.abs(z[1::2])
        return int(np.argmax(np.where(np.isfinite(size), size, np.inf)))
    return z.reshape(m, 2)


def expression_weight_problem():
    w = WeightSpec.from_expression("sin(2*pi*t) + 0.4*cos(4*pi*t)", 1.0)
    return ProblemSpec.build(w, 7.0, 0.2, NonlinearitySpec.arctan_scaled(100))


def merged_request(seeds, sc):
    """Rows, starts and lengths of the first Newton request of each
    (node states, nodes) pair in ``seeds``, merged as in a lockstep
    round at the search tolerance."""
    return [np.concatenate(part) for part in zip(*(
        (next(shooting._newton_steps(np.asarray(z, dtype=float), sc))[0],
         np.repeat(nodes[:-1], 3), np.repeat(np.diff(nodes), 3))
        for z, nodes in seeds))]


@pytest.mark.parametrize("case", ["fig2_k1", "fig2_k2", "fig2_friction",
                                  "expression_weight", "m2"])
def test_batch_flow_matches_solve_ivp(case, fig2_k1, fig2_k2):
    # Newton-shaped rows flowed by the in-house kernel end bit for bit
    # where solve_ivp ends them
    p, sc, k1 = fig2_k1
    if case in ("fig2_k1", "fig2_k2"):
        recs = k1 if case == "fig2_k1" else fig2_k2
        seeds = [(1.01 * r.node_states, r.nodes) for r in recs]
    else:
        # the first request of orbit seeds propagated from a few states
        if case == "fig2_friction":
            p, k, states = replace(p, c=0.5), 1, [(0.1, 0.4), (0.3, 0.0)]
        elif case == "expression_weight":
            p, k, states = expression_weight_problem(), 1, [(0.1, 0.2),
                                                            (0.3, 0.0)]
        else:
            pre = multiplicity_m2()
            p, sc, k, states = pre.problem, pre.search, 2, [(1.0, 0.5),
                                                            (0.1, -0.2)]
        seeds = [shooting._orbit_seed(p, q, k, sc) for q in states]
    rows, t0s, lens = merged_request(seeds, sc)
    want = solve_ivp_flow(p, rows, t0s, lens, sc)
    got, escaped = shooting._batch_flow(p, rows, t0s, lens, sc)
    assert not escaped
    assert got.tobytes() == want.tobytes()


def test_winding_flows_each_vertex_once(fig2_k1, fig2_k2, monkeypatch):
    # one poincare_map call per distinct vertex of the final polyline:
    # a refinement round flows only the vertices it adds
    p, sc, _ = fig2_k1
    polylines, calls = [], []
    refine = shooting._refined_polyline

    def refine_spy(*args):
        pts, deltas = refine(*args)
        polylines.append(pts)
        return pts, deltas

    def map_spy(p, s0, k, sc):
        calls.append(tuple(s0))
        return poincare_map(p, s0, k, sc)

    monkeypatch.setattr(shooting, "_refined_polyline", refine_spy)
    monkeypatch.setattr(shooting, "poincare_map", map_spy)
    for rec in fig2_k2:
        curve = record_circle(rec)
        del calls[:]
        assert abs(winding_number(p, 2, curve, sc)) == 1
        final = {(float(q[0]), float(q[1])) for q in polylines[-1]}
        assert len(final) > len(curve)
        assert len(calls) == len(set(calls)) == len(final)
        assert set(calls) == final


def bisected_polyline(p, k, curve, sc):
    """Reference refinement: bisect each edge on its own until its
    displacement-angle increment is below pi/2."""
    def angle(q):
        img = poincare_map(p, (float(q[0]), float(q[1])), k, sc)
        return math.atan2(img.y - q[1], img.u - q[0])

    def edge(a, b):
        d = (angle(b) - angle(a) + math.pi) % (2 * math.pi) - math.pi
        if abs(d) < math.pi / 2:
            return [a]
        m = 0.5 * (a + b)
        return edge(a, m) + edge(m, b)

    n = len(curve)
    return [q for i in range(n) for q in edge(curve[i], curve[(i + 1) % n])]


def test_winding_lookahead_is_invisible(fig2_k1, fig2_k2):
    # with no lookahead the refinement rounds still build the polyline of
    # bisecting every edge on its own, vertex for vertex and bit for bit
    p, sc, _ = fig2_k1
    for rec in fig2_k2:
        curve = record_circle(rec)
        pts, deltas = shooting._refined_polyline(p, 2, curve, sc)
        want = bisected_polyline(p, 2, curve, sc)
        assert len(pts) == len(want) > len(curve)
        assert np.array_equal(np.array(pts), np.array(want))
        assert abs(winding_number(p, 2, curve, sc)) == 1
        assert all(abs(d) < math.pi / 2 for d in deltas)


@pytest.mark.parametrize("fault", ["diverge", "vanish"])
def test_speculative_failure_does_not_leak(fault, fig2_k1, fig2_k2,
                                           monkeypatch):
    # a fault planted on every state off the final polyline never fires,
    # since no such state is flowed: the winding number and the polyline
    # stay the same and nothing raises.  The same fault planted on one
    # refined vertex does fire, and the error names that vertex.
    p, sc, _ = fig2_k1
    curve = record_circle(fig2_k2[0])
    want = winding_number(p, 2, curve, sc)
    final, _ = shooting._refined_polyline(p, 2, curve, sc)
    fired = []

    def planted(on):
        def faulty(p, s0, k, sc):
            if on(s0):
                fired.append(s0)
                if fault == "diverge":
                    raise DivergenceError("planted escape")
                return State(*s0)
            return poincare_map(p, s0, k, sc)
        monkeypatch.setattr(shooting, "poincare_map", faulty)

    vertices = {(float(q[0]), float(q[1])) for q in final}
    planted(lambda s0: s0 not in vertices)
    assert winding_number(p, 2, curve, sc) == want
    pts, _ = shooting._refined_polyline(p, 2, curve, sc)
    assert np.array_equal(np.array(pts), np.array(final))
    assert not fired

    added = next(q for q in final
                 if not any(np.array_equal(q, c) for c in curve))
    target = (float(added[0]), float(added[1]))
    planted(lambda s0: s0 == target)
    match = "diverged" if fault == "diverge" else r"\|d\| = 0"
    with pytest.raises(DegreeUndefinedError, match=match) as err:
        winding_number(p, 2, curve, sc)
    assert fired == [target]
    assert "(u, y) = (%.17g, %.17g)" % target in str(err.value)


def test_winding_errors_name_the_vertex(fig2_k1, monkeypatch):
    p, sc, recs = fig2_k1
    # the trivial solution is a fixed point: the displacement at the
    # origin is exactly zero
    with pytest.raises(DegreeUndefinedError,
                       match=r"\(u, y\) = \(0, 0\): \|d\| = 0"):
        winding_number(p, 1, [(0.0, 0.0), (0.01, 0.0), (0.0, 0.01)], sc)
    # states this large escape within three periods
    curve = [(1e6, 0.0), (1.2e6, 0.0), (1.1e6, 2e5)]
    with pytest.raises(DegreeUndefinedError, match="diverged") as err:
        winding_number(p, 3, curve, sc)
    assert any("(u, y) = (%.17g, %.17g)" % q in str(err.value)
               for q in curve)
    # a refinement cut short names the vertex that opens a split edge
    monkeypatch.setattr(shooting, "_WINDING_MAX_POINTS", 12)
    with pytest.raises(DegreeUndefinedError,
                       match=r"did not converge: \d+ vertices, .* \(u, y\)"):
        winding_number(p, 1, record_circle(recs[0]), sc)


def test_winding_cap_counts_the_vertices_refinement_adds(fig2_k1,
                                                        monkeypatch):
    # the cap bounds the vertices refinement adds, not the total, so a
    # curve that starts at the cap still refines: a 16-vertex circle
    # around the k = 1 record takes 14 more vertices under a cap of 16
    p, sc, recs = fig2_k1
    monkeypatch.setattr(shooting, "_WINDING_MAX_POINTS", 16)
    z = np.array([recs[0].initial.u, recs[0].initial.y])
    curve = circle(z, 2e-3 * (1.0 + float(np.hypot(*z))), n=16)
    assert winding_number(p, 1, curve, sc) == 1
    pts, _ = shooting._refined_polyline(p, 1, curve, sc)
    assert len(pts) == 30


def test_winding_with_friction(fig2_friction):
    # c != 0: the one T-periodic orbit has |w| = 1, a circle away from
    # it and from the trivial solution has w = 0
    p, sc, recs = fig2_friction
    assert recs
    for rec in recs:
        assert abs(winding_number(p, 1, record_circle(rec), sc)) == 1
    assert winding_number(p, 1, circle(np.array([0.02, -0.01]), 0.005),
                          sc) == 0
