"""Planar integrator: closed-form oracles, breakpoint handling, blow-up
guard and dense trajectory evaluation."""

import math
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.integrate._ivp import dop853_coefficients as scipy_dop853

from indefinite_bvp import (dop853_coefficients, eigen, integrator,
                            nonlinearity, shooting, weight)
from indefinite_bvp.eigen import EigenProblem, prufer_angle_sweep
from indefinite_bvp.errors import (BracketingError, ConfigurationError,
                                   DivergenceError, DomainError)
from indefinite_bvp.expressions import Expression, quiet_fp
from indefinite_bvp.integrator import (ProblemSpec, State, Trajectory, flow,
                                       integrate, max_on_interval)
from indefinite_bvp.nonlinearity import NonlinearitySpec
from indefinite_bvp.presets import get_preset
from indefinite_bvp.weight import (SignPattern, WeightSpec, a_mu,
                                  detect_sign_pattern)
from oracles import reference_dop853, reference_rk4_screen
from render_dop853_stages import MODULE, render

TWO_PI = 2 * math.pi


def linear_problem():
    """u'' + u = 0 via a constant positive weight and g(s) = s; the
    Neumann pattern is the one positivity interval [0, 2 pi]."""
    w = WeightSpec.from_callable(lambda t: np.ones_like(np.asarray(t,
                                                        dtype=float)), TWO_PI)
    g = NonlinearitySpec.from_callable(lambda s: np.asarray(s, dtype=float),
                                       declared_g0=1.0, declared_ginf=1.0)
    hump = SignPattern(1, (0.0, TWO_PI), (TWO_PI,), mode="neumann")
    return ProblemSpec(w, hump, 1.0, 0.0, g, "neumann")


def fig2_problem():
    w = WeightSpec.sine(TWO_PI, period=1.0)
    g = NonlinearitySpec.arctan_scaled(100.0)
    return ProblemSpec.build(w, 7.0, 0.0, g, boundary="periodic")


def test_state_validation():
    with pytest.raises(DomainError):
        State(math.nan, 0.0)
    s = State(1.0, -2.0)
    assert (s.u, s.y) == (1.0, -2.0)


def test_linear_oracle_cosine():
    # the extended field agrees with u'' + u = 0 while u >= 0, so the
    # oracle holds on [0, pi/2] where u(t) = cos(t) stays nonnegative
    p = linear_problem()
    traj = integrate(p, State(1.0, 0.0), 0.0, math.pi / 2)
    ts = np.linspace(0.0, math.pi / 2, 200)
    vals = traj.eval(ts)
    assert np.max(np.abs(vals[:, 0] - np.cos(ts))) < 1e-8
    assert np.max(np.abs(vals[:, 1] + np.sin(ts))) < 1e-8


def test_extension_below_zero():
    p = linear_problem()
    # for u < 0 the forcing is -u regardless of the weight
    assert p.extended(p.a_mu_at(0.3), -2.0) == pytest.approx(2.0)
    du, dy = p.rhs(0.0, -1.0, 0.0)
    assert du == 0.0 and dy == pytest.approx(-1.0)


def test_flow_matches_integrate():
    p = fig2_problem()
    s0 = State(0.1, 0.4)
    end = flow(p, s0, (0.0, 1.0))
    traj = integrate(p, s0, 0.0, 1.0)
    assert end.u == pytest.approx(float(traj.eval(1.0)[0]), abs=1e-10)
    assert end.y == pytest.approx(float(traj.eval(1.0)[1]), abs=1e-10)


def counting_rhs(monkeypatch, p):
    """Wrap the float field that ``p`` compiled at construction, the
    closure :func:`integrate` steps on, to count its calls; returns the
    count."""
    calls = [0]
    field = p.rhs

    def counted(t, u, y):
        calls[0] += 1
        return field(t, u, y)

    # the dataclass is frozen: swap the instance's closure in its __dict__
    monkeypatch.setitem(vars(p), "rhs", counted)
    return calls


@pytest.mark.parametrize("name", ["fig1", "fig2"])
def test_flow_builds_no_interpolant(name, monkeypatch):
    # flow computes no dense stages: the dense integration makes exactly
    # three more field evaluations per accepted step, and the step
    # sequence, so the terminal state, is bit for bit the same
    p = get_preset(name).problem
    s0 = State(0.1, 0.0 if p.boundary == "neumann" else 0.4)
    span = (0.0, 2 * p.period)
    calls = counting_rhs(monkeypatch, p)
    traj = integrate(p, s0, *span)
    n_dense = calls[0]
    calls[0] = 0
    s1 = flow(p, s0, span)
    steps = len(traj.times) - 1
    breaks = p.breakpoints_between(*span)
    assert breaks and np.isin(breaks, traj.times).all() and steps > 10
    assert n_dense - calls[0] == 3 * steps
    end = traj.states[-1]
    assert np.array([s1.u, s1.y]).tobytes() == end.tobytes()


def test_breakpoint_restart():
    p = fig2_problem()
    traj = integrate(p, State(0.1, 0.4), 0.0, 2.0)
    # the weight changes sign at 0.5, 1.0, 1.5; each is an exact node
    for b in (0.5, 1.0, 1.5):
        assert np.min(np.abs(traj.times - b)) < 1e-12


def test_blowup_guard():
    # a large positive state inside a negativity interval of the weight is
    # pushed up superexponentially and must trip the guard
    p = fig2_problem()
    with pytest.raises(DivergenceError) as exc:
        integrate(p, State(50.0, 0.0), 0.5, 1.0)
    assert 0.5 < exc.value.last_time <= 1.0
    u, y = exc.value.last_state
    assert abs(u) + abs(y) >= integrator.BLOWUP_NORM


def test_trajectory_span_and_samples():
    p = linear_problem()
    traj = integrate(p, State(1.0, 0.0), 0.0, math.pi / 2)
    lo, hi = traj.span
    assert (lo, hi) == (0.0, math.pi / 2)
    ts, us, ys = traj.sample(64)
    assert ts[0] == lo and ts[-1] == hi


def test_trajectory_scalar_eval():
    p = linear_problem()
    traj = integrate(p, State(1.0, 0.0), 0.0, math.pi / 2)
    v = traj.eval(math.pi / 4)
    assert v.shape == (2,)
    assert v[0] == pytest.approx(math.cos(math.pi / 4), abs=1e-9)


def test_trajectory_csv(tmp_path):
    p = linear_problem()
    traj = integrate(p, State(1.0, 0.0), 0.0, 1.0)
    path = tmp_path / "traj.csv"
    traj.to_csv(str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,u,up"
    assert len(lines) > 512


def test_extrema_on_interval():
    p = linear_problem()
    traj = integrate(p, State(1.0, 0.0), 0.0, math.pi / 2)
    t_max, u_max = max_on_interval(traj, 0.0, math.pi / 2)
    assert u_max == pytest.approx(1.0, abs=1e-9)
    assert t_max == pytest.approx(0.0, abs=1e-6)
    with pytest.raises(DomainError):
        max_on_interval(traj, -1.0, 1.0)


def test_integrate_bad_span():
    p = linear_problem()
    with pytest.raises(DomainError):
        integrate(p, State(1.0, 0.0), 1.0, 1.0)


@pytest.mark.parametrize("mu, c", [
    (0.0, 0.0), (-1.0, 0.0), (math.inf, 0.0), (math.nan, 0.0),
    (7.0, math.nan), (7.0, math.inf), (7.0, -math.inf)])
def test_mu_and_c_must_be_finite(mu, c):
    # an infinite mu overflows the segment grid of multiple shooting and a
    # non-finite c makes every flow fail: both are refused at construction
    w = WeightSpec.sine(TWO_PI, period=1.0)
    with pytest.raises(DomainError):
        ProblemSpec.build(w, mu, c, NonlinearitySpec.power(2))


def test_pattern_mode_must_be_the_boundary():
    # a Neumann pattern of -sin(2 pi t) opens with the negativity interval,
    # so a periodic search over it would see the degenerate interval
    # [1, 1] and return no solution; it is refused at construction, as
    # is a periodic pattern under Neumann conditions
    w = WeightSpec.from_expression("-sin(2*pi*t)", 1.0)
    g = NonlinearitySpec.arctan_scaled(100.0)
    neumann = detect_sign_pattern(w, periodic=False)
    with pytest.raises(ConfigurationError, match="periodic problem needs"):
        ProblemSpec(w, neumann, 7.0, 0.0, g)
    with pytest.raises(ConfigurationError, match="neumann problem needs"):
        ProblemSpec(w, detect_sign_pattern(w), 7.0, 0.0, g, "neumann")
    assert ProblemSpec(w, neumann, 7.0, 0.0, g, "neumann").boundary == \
        "neumann"


def test_build_aligns_pattern():
    w = WeightSpec.sine(TWO_PI, period=1.0).shifted(0.7)
    p = ProblemSpec.build(w, 7.0, 0.0, NonlinearitySpec.power(2))
    # after alignment the pattern starts at 0 on a positivity interval
    assert p.pattern.sigma[0] == 0.0
    assert p.period == 1.0
    assert p.a_mu_at(1e-3) > 0.0


# every weight and g kind, for the scalar/vector agreement of the forcing
WEIGHTS = {
    "sine": WeightSpec.sine(TWO_PI, period=1.0),
    "sin_pm": WeightSpec.sin_pm(3 * math.pi, 1.0, 7.0, period=1.0),
    "table": WeightSpec.from_table([0.0, 0.3, 0.45, 1.0], [2.0, -1.5, 0.5]),
    "expression": WeightSpec.from_expression(
        "sin(2*pi*t)^3 + 0.3*cos(4*pi*t) - 1/(t + 2)", 1.0),
    "shifted": WeightSpec.sin_pm(TWO_PI, 1.0, 3.0, period=1.0).shifted(0.3),
    # -0.0 at whole t
    "callable": WeightSpec.from_callable(
        lambda t: -np.sin(TWO_PI * t) * (1.2 + np.cos(TWO_PI * t)), 1.0),
}
# neumann mode keeps each weight's own origin, so the -0.0 at whole t stays
PATTERNS = {name: detect_sign_pattern(w, periodic=False)
            for name, w in WEIGHTS.items()}
GS = {
    "power": NonlinearitySpec.power(2.5),
    "arctan_scaled": NonlinearitySpec.arctan_scaled(100.0),
    "expression": NonlinearitySpec.from_expression("s^1.5*atan(s) + exp(s)-1"),
    "clamped_expression": NonlinearitySpec.from_expression("s*s - 0.5*s",
                                                           clamp=True),
    "callable": NonlinearitySpec.from_callable(lambda s: s ** 2.2 + s),
    # squares its argument in place and returns it: no caller may write
    # into what g returned, or keep using the array it passed in
    "in_place": NonlinearitySpec.from_callable(
        lambda s: np.multiply(s, s, out=s)),
}


def bits(x):
    return np.float64(x).tobytes()


def two_branch_forcing(g, a, u):
    """Oracle: the extended forcing in two ``np.where`` branches, g(0) = 0
    by rule, a g(u) for u >= 0 and -u below."""
    raw = nonlinearity._kernel(g)
    s = np.maximum(u, 0.0)
    return np.where(u >= 0.0, a * np.where(s == 0.0, 0.0, raw(s)), -u)


@pytest.mark.parametrize("gname", sorted(GS))
def test_extended_matches_two_branch_form(gname):
    # the branch-free a g(max(u, 0)) - min(u, 0) has the bits of the
    # two-branch form at signed zeros, subnormals, u < 0 and +-inf, for
    # every g kind; a nan only has to stay a nan
    p = ProblemSpec(WEIGHTS["sine"], PATTERNS["sine"], 7.0, 0.0, GS[gname],
                    "neumann")
    us = np.array([0.0, -0.0, 5e-324, -5e-324, -1.0, 0.3, 7.0, math.inf,
                   -math.inf])
    # long enough for numpy's vector loops as well as its tail loops
    u = np.tile(us, 64)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for a in (0.0, -0.0, -7.3, 2.5):
            want = two_branch_forcing(GS[gname], a, u)
            assert p.extended(a, u).tobytes() == want.tobytes(), a
            assert np.isnan(p.extended(a, np.array([math.nan]))).all()


@pytest.mark.parametrize("gname", ["power", "arctan_scaled"])
def test_analytic_g_maps_zero_to_zero(gname):
    # the analytic kinds drop the g(0) = 0 rule: their kernels give +0.0
    g = nonlinearity.g_vector(GS[gname])
    assert g(np.zeros(3)).tobytes() == np.zeros(3).tobytes()


points = st.tuples(
    st.floats(-7.0, 7.0),
    st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-3.0, -1e-300),
              st.floats(1e-300, 3.0)))


@given(st.sampled_from(sorted(WEIGHTS)), st.sampled_from(sorted(GS)),
       st.lists(points, min_size=1, max_size=6), st.floats(-3.0, 3.0),
       st.floats(0.5, 20.0), st.floats(-1.0, 1.0))
@settings(max_examples=400, deadline=None)
@example("callable", "power", [(2.0, 0.5), (-0.0, 0.0)], 0.0, 7.0, 0.0)
def test_scalar_rhs_matches_vector_forcing(wname, gname, pts, y, mu, c):
    # rhs is the extended forcing, bit for bit, at every point of a
    # batch, for u < 0, u = 0, u > 0 and any t; so is the forcing of the
    # whole batch at one time, as the screen takes it
    p = ProblemSpec(WEIGHTS[wname], PATTERNS[wname], mu, c, GS[gname],
                    "neumann")
    t_vec = np.array([t for t, _ in pts])
    u_vec = np.array([u for _, u in pts])
    f_vec = p.extended(p.a_mu_at(t_vec), u_vec)
    for j, (t, u) in enumerate(pts):
        du, dy = p.rhs(t, u, y)
        assert bits(du) == bits(y)
        assert bits(dy) == bits(-c * y - f_vec[j]), (t, u)
        at_t = p.extended(p.a_mu_at(np.full(len(pts), t)), u_vec)
        for v, f in zip(u_vec, at_t):
            assert bits(p.rhs(t, v, y)[1]) == bits(-c * y - f), (t, v)


@pytest.mark.parametrize("wname", sorted(WEIGHTS))
def test_compiled_a_mu_matches_two_part_form(wname):
    # the vector a_mu built at construction has the bits of
    # a+(t) - mu * a-(t), signed zeros included (whole t for "callable")
    p = ProblemSpec(WEIGHTS[wname], PATTERNS[wname], 7.3, 0.0,
                    GS["power"], "neumann")
    ts = np.concatenate([np.linspace(-2.0, 3.0, 2001), [0.0, 1.0, 2.0]])
    want = a_mu(WEIGHTS[wname], 7.3, ts)
    assert p.a_mu_at(ts).tobytes() == want.tobytes()
    assert bits(p.a_mu_at(1.0)) == bits(a_mu(WEIGHTS[wname], 7.3, 1.0))


SCREEN_STATES = np.array([[0.5, 0.0], [-0.2, 0.4], [0.0, -0.3], [0.0, 0.0],
                          [1e-3, 2.0], [3.0, -1.0], [6e7, 6e7]])


def screen_by_pieces(p, states, t0, t1):
    """The screen written plainly: one flow_rows per weight piece of
    [t0, t1] at the screen tolerances, on the rows that are finite and
    whose forcing at the piece start is finite; the others read nan."""
    out = states.astype(float).copy()
    edges = [t0] + p.breakpoints_between(t0, t1) + [t1]
    for lo, hi in zip(edges[:-1], edges[1:]):
        with quiet_fp():
            f = p.extended(p.a_mu_at(np.full(len(out), lo)), out[:, 0])
        out[~np.isfinite(f)] = np.nan
        live = np.isfinite(out).all(axis=1)
        m = int(live.sum())
        out[live] = integrator.flow_rows(
            p, out[live], [lo] * m, [hi - lo] * m, shooting._SCREEN_RTOL,
            shooting._SCREEN_ATOL)[0]
    return out


def screen_problem(wname, gname):
    return ProblemSpec(WEIGHTS[wname], PATTERNS[wname], 7.0, 0.3, GS[gname],
                       "neumann")


@pytest.mark.parametrize("gname", sorted(GS))
@pytest.mark.parametrize("wname", sorted(WEIGHTS))
def test_screen_flow_is_flow_rows_by_piece(wname, gname):
    # the screen is the batched kernel on each weight piece, fed the rows
    # still finite: bit for bit, for u < 0, u = 0, u > 0 and a row that
    # starts above the guard and reads nan, whether it escapes in a step
    # or its field (exp(6e7) in the expression g) is not finite
    p = screen_problem(wname, gname)
    want = screen_by_pieces(p, SCREEN_STATES, 0.05, 0.65)
    got = shooting.screen_flow(p, SCREEN_STATES, 0.05, 0.65)
    assert got.tobytes() == want.tobytes()
    assert np.isnan(got[-1]).all()


@pytest.mark.parametrize("gname", sorted(GS))
@pytest.mark.parametrize("wname", sorted(WEIGHTS))
def test_screen_flow_matches_reference_rk4(wname, gname):
    # an independent fixed-step RK4 at 600 steps per unit time reaches
    # the screen's end states to 3 % and loses the same rows
    p = screen_problem(wname, gname)
    want = reference_rk4_screen(p, SCREEN_STATES, 0.05, 0.65, 600)
    got = shooting.screen_flow(p, SCREEN_STATES, 0.05, 0.65)
    np.testing.assert_allclose(got, want, rtol=0.03, atol=0.03)


def test_screen_calls_an_expression_g_unguarded(monkeypatch):
    # the screen runs inside one floating-point guard, so its forcing
    # calls an expression g without the guard of Expression.__call__
    p = screen_problem("sine", "expression")
    calls = []
    original = Expression.__call__

    def spy(self, x):
        calls.append(1)
        return original(self, x)

    monkeypatch.setattr(Expression, "__call__", spy)
    states = SCREEN_STATES[[0, 1, 4]]
    want = screen_by_pieces(p, states, 0.05, 0.65)
    got = shooting.screen_flow(p, states, 0.05, 0.65)
    assert calls == []
    assert got.tobytes() == want.tobytes()


def nan_at_small_u_problem():
    """fig2 with a g that is nan at u = 0.01 alone."""
    p = fig2_problem()
    g = NonlinearitySpec.from_callable(lambda s: np.where(
        np.asarray(s) == 0.01, np.nan, 100.0 * s * np.arctan(s)))
    return ProblemSpec(p.weight, p.pattern, p.mu, p.c, g, p.boundary)


def test_flow_rows_names_the_row_whose_start_field_is_not_finite():
    # rows 1 and 3 have a nan field at the start: both are left out and
    # named in ``escaped``, with their start time and state, and the
    # others end where a flow of them alone ends, bit for bit
    p = nan_at_small_u_problem()
    Z = np.array([[0.5, 0.0], [0.01, 0.0], [2.0, 1.0], [0.01, 0.3]])
    Y, escaped = integrator.flow_rows(p, Z, [0.1] * 4, [0.3] * 4, 1e-10,
                                      1e-12)
    assert sorted(escaped) == [1, 3]
    for row in (1, 3):
        err = escaped[row]
        assert isinstance(err, DivergenceError) and err.row == row
        assert "row %d start state or field is not finite" % row in str(err)
        assert err.last_time == 0.1
        assert err.last_state == tuple(Z[row])
    assert np.isnan(Y[[1, 3]]).all()
    alone, none = integrator.flow_rows(p, Z[[0, 2]], [0.1] * 2, [0.3] * 2,
                                       1e-10, 1e-12)
    assert not none
    assert Y[[0, 2]].tobytes() == alone.tobytes()


def test_flow_rows_names_a_row_that_starts_not_finite():
    # a nan or infinite start state is left out and named, not a
    # ValueError for the whole flow
    p = fig2_problem()
    Z = np.array([[0.1, 0.4], [np.nan, 0.0], [0.3, np.inf]])
    Y, escaped = integrator.flow_rows(p, Z, [0.0] * 3, [0.5] * 3, 1e-10,
                                      1e-12)
    assert sorted(escaped) == [1, 2]
    for row in (1, 2):
        assert escaped[row].row == row
        assert "row %d start state" % row in str(escaped[row])
    assert np.isnan(Y[1:]).all()
    alone, _ = integrator.flow_rows(p, Z[:1], [0.0], [0.5], 1e-10, 1e-12)
    assert Y[0].tobytes() == alone[0].tobytes()


def test_flow_rows_leaves_out_the_row_that_collapses_the_step():
    # rows 0 and 2 reach u = 1.5, where g turns nan, and drive the step
    # below its minimum near t = 0.169 and t = 0.809.  Each is left out
    # in turn, not the largest row 1, which ends where a flow of it alone
    # ends, bit for bit, in the kernel and in the screen
    p = nan_g_problem()
    Z = np.array([[1.0, 2.0], [-5.0, 0.0], [0.2, 0.1]])
    tols = shooting._SCREEN_RTOL, shooting._SCREEN_ATOL
    alone, none = integrator.flow_rows(p, Z[[1]], [0.0], [1.0], *tols)
    assert not none
    Y, escaped = integrator.flow_rows(p, Z, [0.0] * 3, [1.0] * 3, *tols)
    assert sorted(escaped) == [0, 2]
    for row, t in ((0, 0.169), (2, 0.809)):
        err = escaped[row]
        assert err.row == row
        assert "row %d step size fell below the minimum" % row in str(err)
        assert abs(err.last_time - t) < 1e-3
        assert np.isfinite(err.last_state).all()
    assert np.isnan(Y[[0, 2]]).all()
    assert Y[1].tobytes() == alone[0].tobytes()
    screened = shooting.screen_flow(p, Z, 0.0, 1.0)
    assert np.isnan(screened[[0, 2]]).all()
    assert screened[1].tobytes() == alone[0].tobytes()


def test_flow_rows_leaves_the_callers_rows_alone():
    # a flow that leaves out a row at its start, one at a collapsed step
    # and one that escapes writes nothing into Z and returns a new array
    p = nan_g_problem()
    Z = np.array([[1.0, 2.0], [np.nan, 0.0], [-5.0, 0.0], [-2e8, 0.0]])
    before = Z.copy()
    Y, escaped = integrator.flow_rows(p, Z, [0.0] * 4, [1.0] * 4, 1e-4,
                                      1e-7)
    assert sorted(escaped) == [0, 1, 3]
    assert "escaped the guard region" in str(escaped[3])
    assert Z.tobytes() == before.tobytes()
    assert not np.shares_memory(Y, Z)


def test_screen_never_raises():
    # rows 1 and 3 have a nan field at the start, so the flow leaves both
    # out there, in one pass; each named row reads nan and the others are
    # flowed again, to the bits of a screen of the grid without them
    p = nan_at_small_u_problem()
    grid = np.array([[0.5, 0.0], [0.01, 0.0], [0.1, 0.4], [0.01, -0.2],
                     [0.2, -0.3]])
    got = shooting.screen_flow(p, grid, 0.0, 1.0)
    assert np.isnan(got[[1, 3]]).all()
    rest = [0, 2, 4]
    assert np.isfinite(got[rest]).all()
    assert got[rest].tobytes() == \
        shooting.screen_flow(p, grid[rest], 0.0, 1.0).tobytes()


def test_expression_problem_pickles():
    # the compiled evaluators are rebuilt from the expression sources
    p = ProblemSpec(WEIGHTS["expression"], PATTERNS["expression"], 7.0, 0.2,
                    GS["expression"], "neumann")
    q = pickle.loads(pickle.dumps(p))
    assert np.array(q.rhs(0.3, 0.4, -0.1)).tobytes() == \
        np.array(p.rhs(0.3, 0.4, -0.1)).tobytes()


def _shifted_expression_problem():
    # the positivity interval of this weight opens at t = 0.968, so build
    # shifts the weight's origin there
    w = WeightSpec.from_expression("sin(2*pi*t)+0.2", 1.0)
    return ProblemSpec.build(w, 7.0, 0.3, NonlinearitySpec.arctan_scaled(100))


def test_shifted_expression_problem_pickles():
    # the shift is data on the weight, not a closure around it
    p = _shifted_expression_problem()
    q = pickle.loads(pickle.dumps(p))
    assert q.weight.shift == p.pattern.origin_shift != 0.0
    for t in (0.0, 0.3, 0.97, 1.5, -0.2):
        assert np.array(q.rhs(t, 0.4, -0.1)).tobytes() == \
            np.array(p.rhs(t, 0.4, -0.1)).tobytes()


def test_shifted_expression_integrates_unguarded(monkeypatch):
    # the float field of a shifted expression weight calls the compiled
    # expression without its guard, with the bits of evaluate
    p = _shifted_expression_problem()
    calls = []
    original = Expression.__call__

    def spy(self, x):
        calls.append(1)
        return original(self, x)

    monkeypatch.setattr(Expression, "__call__", spy)
    traj = integrate(p, State(0.3, 0.1), 0.0, 2.0)
    assert calls == []
    assert len(traj.times) > 10
    ts = np.linspace(-3.0, 5.0, 801)
    a_at = weight.evaluate_scalar(p.weight)
    with quiet_fp():
        scalar = np.array([a_at(float(t)) for t in ts])
    assert scalar.tobytes() == weight.evaluate(p.weight, ts).tobytes()


def test_expression_weight_integrates_without_warnings():
    # the scalar RHS calls an expression without its guard; integrate's
    # one guard keeps the division by zero at t = 0 quiet
    w = WeightSpec.from_expression("sin(2*pi*t) + 1/(1 + 1/t)", 1.0)
    p = ProblemSpec.build(w, 7.0, 0.0, NonlinearitySpec.power(2),
                          boundary="neumann")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = integrate(p, State(0.1, 0.0), 0.0, 0.5)
    assert np.all(np.isfinite(traj.states))
    assert traj.states[-1, 0] != 0.1


def test_kink_inside_a_piece_is_left_to_step_control():
    # the table's jump at 0.3 joins two positive cells, so integrate does
    # not restart there; step rejection keeps the flow within 1e-9 of
    # the flow that restarts exactly at the jump
    w = WeightSpec.from_table([0.0, 0.3, 0.5, 1.0], [1.0, 3.0, -2.0])
    p = ProblemSpec.build(w, 2.0, 0.0, NonlinearitySpec.power(2))
    assert p.breakpoints_between(0.0, 1.0) == [0.5]
    tol = dict(rtol=1e-10, atol=1e-12)
    for s0 in (State(1.0, 0.0), State(0.5, 0.2), State(0.2, 0.0)):
        whole = integrate(p, s0, 0.0, 1.0, **tol)
        assert 0.5 in whole.times and 0.3 not in whole.times
        split = flow(p, flow(p, s0, (0.0, 0.3), **tol), (0.3, 1.0), **tol)
        assert abs(whole.states[-1, 0] - split.u) < 1e-9
        assert abs(whole.states[-1, 1] - split.y) < 1e-9


# ---------------------------------------------------------------------------
# the float DOP853 stepper against scipy's solve_ivp


def test_vendored_tableau_is_scipys():
    # the steppers take scipy's tableau from a vendored copy; every array
    # must keep scipy's shape and bits, and the three integers their values
    for name in ("C", "A", "B", "E3", "E5", "D"):
        ours = getattr(dop853_coefficients, name)
        theirs = getattr(scipy_dop853, name)
        assert ours.dtype == theirs.dtype and ours.shape == theirs.shape
        assert ours.tobytes() == theirs.tobytes(), name
    for name in ("N_STAGES", "N_STAGES_EXTENDED", "INTERPOLATOR_POWER"):
        assert getattr(dop853_coefficients, name) == \
            getattr(scipy_dop853, name), name


def scipy_oracle(p, s0, t0, t1, rtol, atol):
    """solve_ivp(method="DOP853") restarted at the same breakpoints with
    the same tolerances: the terminal state and a dense evaluator, or None
    when the orbit reaches the blow-up guard."""
    def field(t, z):
        return np.array(p.rhs(t, z[0], z[1]))

    def guard(t, z):
        return abs(z[0]) + abs(z[1]) - integrator.BLOWUP_NORM

    guard.terminal = True
    edges = [t0] + p.breakpoints_between(t0, t1) + [t1]
    z, sols = np.array(s0, dtype=float), []
    with np.errstate(all="ignore"):
        for lo, hi in zip(edges[:-1], edges[1:]):
            sol = solve_ivp(field, (lo, hi), z, method="DOP853", rtol=rtol,
                            atol=atol, dense_output=True, events=guard)
            if sol.status != 0:
                return None
            sols.append((lo, hi, sol.sol))
            z = sol.y[:, -1]

    def dense(ts):
        out = np.empty((len(ts), 2))
        for lo, hi, sol in sols:
            mask = (ts >= lo) & (ts <= hi)
            out[mask] = sol(ts[mask]).T
        return out

    return z, dense


def fig1_expression_problem():
    w = WeightSpec.from_expression(
        "max(sin(3*pi*t), 0) - 7*max(-sin(3*pi*t), 0)", 1.0)
    g = NonlinearitySpec.from_expression("100*s*atan(s)")
    return ProblemSpec.build(w, 1.0, 0.0, g, boundary="neumann")


def kinked_table_problem():
    w = WeightSpec.from_table([0.0, 0.3, 0.5, 1.0], [1.0, 3.0, -2.0])
    return ProblemSpec.build(w, 2.0, 0.0, NonlinearitySpec.power(2))


def fig2_friction_problem():
    p = fig2_problem()
    return ProblemSpec(p.weight, p.pattern, p.mu, 0.5, p.g, p.boundary)


ORACLE_CASES = {
    "fig1-expression": (fig1_expression_problem, (0.07, 0.0), 1.0),
    "fig2-2T": (fig2_problem, (0.1, 0.4), 2.0),
    "fig2-c0.5": (fig2_friction_problem, (0.1, 0.4), 1.0),
    "kinked-table": (kinked_table_problem, (0.5, 0.2), 1.0),
    "linear-cosine": (linear_problem, (1.0, 0.0), math.pi / 2),
}


def assert_matches_scipy(p, s0, t1, rtol=1e-10, atol=1e-12):
    oracle = scipy_oracle(p, s0, 0.0, t1, rtol, atol)
    try:
        traj = integrate(p, s0, 0.0, t1, rtol=rtol, atol=atol)
    except DivergenceError:
        assert oracle is None
        return
    assert oracle is not None
    z, dense = oracle
    end = traj.states[-1]
    assert np.all(np.abs(end - z) <= 1e-9 * (1.0 + np.abs(z))), (end, z)
    ts = np.linspace(0.0, t1, 257)
    assert np.max(np.abs(traj.eval(ts) - dense(ts))) <= 1e-8


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_scalar_dop853_matches_scipy(case):
    build, s0, t1 = ORACLE_CASES[case]
    assert_matches_scipy(build(), s0, t1)


@given(st.floats(0.0, 1.0), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))
@settings(max_examples=25, deadline=None)
@example(0.0, 0.0, 0.0)
# the 3rd-order error term underflows to 0 with the 5th-order one: a nan
# error norm, which rejects the step as in scipy, not a ZeroDivisionError
@example(3.0060958824614716e-82, 0.0, 0.0)
def test_scalar_dop853_matches_scipy_property(u0, y0, c):
    p = fig2_problem()
    p = ProblemSpec(p.weight, p.pattern, p.mu, c, p.g, p.boundary)
    assert_matches_scipy(p, (u0, y0), 1.0)


def nan_g_problem():
    """A g that is nan above u = 1.5 on a unit weight."""
    w = WeightSpec.from_callable(lambda t: np.ones_like(np.asarray(
        t, dtype=float)), 1.0)
    g = NonlinearitySpec.from_callable(
        lambda s: np.where(np.asarray(s) > 1.5, np.nan, -10.0 * np.asarray(s)))
    hump = SignPattern(1, (0.0, 1.0), (1.0,), mode="neumann")
    return ProblemSpec(w, hump, 1.0, 0.0, g, "neumann")


def test_nan_field_raises_in_bounded_calls(monkeypatch):
    # a g that is nan above u = 1.5 makes every step that reaches it fail
    # its error test; the step shrinks to scipy's minimum and the flow
    # stops with a DivergenceError instead of looping
    p = nan_g_problem()
    calls = counting_rhs(monkeypatch, p)
    for s0 in (State(1.0, 2.0), State(2.0, 0.0)):
        calls[0] = 0
        with pytest.raises(DivergenceError) as exc:
            integrate(p, s0, 0.0, 1.0)
        assert calls[0] < 20000
        assert 0.0 <= exc.value.last_time < 1.0
        assert np.all(np.isfinite(exc.value.last_state))


# ---------------------------------------------------------------------------
# the written-out stages against the loop over the tableau rows


def test_stage_module_is_rendered_from_the_tableau():
    # the checked-in stages are the renderer's output on the vendored
    # tableau; rerun tests/render_dop853_stages.py after a tableau change
    assert MODULE.read_text(encoding="utf-8") == render()


def stepper_outcome(stepper, field, *args):
    """The bits of what ``stepper(field, *args)`` returns (its step ends
    and dense stages) and its end state, or the message, time and state
    of the DivergenceError it raises and None."""
    try:
        with quiet_fp():
            ts, us, ys, stages = stepper(field, *args)
    except DivergenceError as exc:
        return (str(exc), np.array([exc.last_time,
                                    *exc.last_state]).tobytes()), None
    return tuple(np.array(x, dtype=float).tobytes()
                 for x in (ts, us, ys, stages)), (us[-1], ys[-1])


def assert_stages_match_loop(field, t0, t1, u, y, rtol=1e-10, atol=1e-12):
    """Both steppers, dense and not (the extra stages never change the
    steps); returns the end state, None when the flow raises."""
    for dense in (True, False):
        args = (field, t0, t1, u, y, rtol, atol, dense)
        got, end = stepper_outcome(integrator.dop853, *args)
        assert got == stepper_outcome(reference_dop853, *args)[0]
    return end


def assert_pieces_match_loop(p, s0, t0, t1):
    """Both steppers on each smooth piece of [t0, t1] from s0, as
    :func:`integrate` chains them."""
    end = s0
    edges = [t0] + p.breakpoints_between(t0, t1) + [t1]
    for lo, hi in zip(edges[:-1], edges[1:]):
        end = assert_stages_match_loop(p.rhs, lo, hi, *end)
        if end is None:
            return


STAGE_CASES = dict({name: (build, s0, 0.0, t1)
                    for name, (build, s0, t1) in ORACLE_CASES.items()}, **{
    "fig2-escape": (fig2_problem, (50.0, 0.0), 0.5, 1.0),
    "nan-g": (nan_g_problem, (1.0, 2.0), 0.0, 1.0),
})


@pytest.mark.parametrize("case", sorted(STAGE_CASES))
def test_stages_match_the_tableau_loop(case):
    # the fig1 expression, the kinked table, an escape and a nan field
    # that drives the step below its minimum, bit for bit
    build, s0, t0, t1 = STAGE_CASES[case]
    assert_pieces_match_loop(build(), s0, t0, t1)


@given(st.floats(-2.0, 60.0), st.floats(-5.0, 5.0), st.floats(-1.0, 1.0))
@settings(max_examples=60, deadline=None)
@example(0.0, 0.0, 0.0)
@example(3.0060958824614716e-82, 0.0, 0.0)
@example(-0.0, -0.0, 0.0)
def test_stages_match_the_tableau_loop_property(u0, y0, c):
    p = fig2_problem()
    p = ProblemSpec(p.weight, p.pattern, p.mu, c, p.g, p.boundary)
    assert_pieces_match_loop(p, (u0, y0), 0.0, 1.0)


@pytest.mark.parametrize("c, lam", [(0.0, 3.0), (1.5, 40.0), (80.0, 1.0),
                                    (80.0, 0.5)])
def test_prufer_stages_match_the_tableau_loop(c, lam, monkeypatch):
    # the angle field of the sweep, stepped by both; at c = 80 and
    # lambda = 0.5 the step falls below its minimum
    calls = []

    def spy(*args):
        calls.append(args)
        return integrator.dop853(*args)

    monkeypatch.setattr(eigen, "dop853", spy)
    ep = EigenProblem(weight.evaluate_scalar(WeightSpec.sine(TWO_PI)), 0.0,
                      0.5, c)
    try:
        prufer_angle_sweep(ep, lam)
    except BracketingError:
        pass
    (field, t0, t1, theta0, zero, rtol, atol, _), = calls
    assert_stages_match_loop(field, t0, t1, theta0, zero, rtol, atol)


def test_flow_rows_freezes_an_escaped_row():
    # a row that starts above the guard is named at the end of the first
    # step, the smallest step end of every attempt; a row at u = 0, the
    # state an escaped row is frozen at, stays exactly 0 beside it
    p = fig2_problem()
    ends = []
    a_mu_at = p.a_mu_at

    def recording(ts):
        if np.ndim(ts) == 2:
            ends.append(ts[-1, 0])
        return a_mu_at(ts)

    object.__setattr__(p, "a_mu_at", recording)
    Z = np.array([[2e8, 0.0], [0.0, 0.0], [0.1, 0.4]])
    Y, escaped = integrator.flow_rows(p, Z, [0.0, 0.0, 0.0], [0.5, 0.5, 0.5],
                                      1e-10, 1e-12)
    assert list(escaped) == [0]
    err = escaped[0]
    assert err.row == 0 and err.last_time == min(ends) < 0.5
    assert abs(err.last_state[0]) + abs(err.last_state[1]) \
        >= integrator.BLOWUP_NORM
    assert np.isnan(Y[0]).all()
    assert np.all(Y[1] == 0.0)
    assert np.all(np.isfinite(Y[2]))


def test_rtol_is_floored_as_in_scipy():
    p = fig2_problem()
    floor = 100 * np.finfo(float).eps
    a = flow(p, State(0.1, 0.4), (0.0, 1.0), rtol=1e-20)
    b = flow(p, State(0.1, 0.4), (0.0, 1.0), rtol=floor)
    assert (a.u, a.y) == (b.u, b.y)


def test_trajectory_eval_at_joints_and_step_ends():
    # the interpolant of a step ends where the next one (or the next
    # piece) starts; a scalar t gives shape (2,), an array (n, 2)
    p = fig2_problem()
    traj = integrate(p, State(0.1, 0.4), 0.0, 2.0)
    breaks = p.breakpoints_between(0.0, 2.0)
    assert breaks
    for b in breaks:
        before = np.nextafter(b, -np.inf)
        assert np.max(np.abs(traj.eval(b) - traj.eval(before))) < 1e-12
    ends = traj.times[1:-1]
    after = np.nextafter(ends, np.inf)
    assert np.max(np.abs(traj.eval(ends) - traj.eval(after))) < 1e-12
    assert np.max(np.abs(traj.eval(traj.times) - traj.states)) < 1e-12
    assert traj.eval(0.25).shape == (2,)
    assert traj.eval(np.linspace(0.0, 2.0, 7)).shape == (7, 2)
    assert traj.eval([0.25]).shape == (1, 2)


def test_trajectory_shapes_are_checked():
    # n steps take n + 1 times and states and n blocks of 7 rows; a
    # mismatch would make eval extrapolate a wrong step silently
    traj = integrate(fig2_problem(), State(0.1, 0.4), 0.0, 1.0)
    t, s, F = traj.times, traj.states, traj.F
    Trajectory(t, s, F)
    for bad in ((t, s, F[:-1]), (t, s[:-1], F), (t[:1], s[:1], F[:0]),
                (t, s, F[:, :6])):
        with pytest.raises(DomainError, match="steps"):
            Trajectory(*bad)


@pytest.mark.parametrize("name", ["fig1", "fig2"])
def test_trajectory_step_starts_are_its_states(name):
    # a time equal to a step start belongs to the step that starts there,
    # at x = 0: eval returns the stored state bit for bit, breakpoints
    # included, and t1 is the last step at x = 1
    p = get_preset(name).problem
    traj = integrate(p, State(0.1, 0.0), 0.0, 2 * p.period)
    assert len(traj.F) == len(traj.times) - 1 == len(traj.states) - 1
    starts = traj.times[:-1]
    assert traj.eval(starts).tobytes() == traj.states[:-1].tobytes()
    assert np.abs(traj.eval(traj.times[-1]) - traj.states[-1]).max() < 1e-12
