"""Multistart shooting for periodic and Neumann solutions.

The search screens a grid of initial states one period at a time on the
batched DOP853 kernel :func:`integrator.flow_rows` at loose tolerances,
one flow per weight piece: the k-period screen is that period map
iterated k times on the grid.  A search returns its screen with its
records; handed that result as ``base``, a search on the same problem
and grid continues it, so a k = 2 search after the k = 1 search flows
only [T, 2T], with the bits of a cold screen.  The grid points with the
smallest displacement go straight to damped multiple-shooting Newton,
whose roots are flowed at the search tolerances.
Accepted solutions are classified by the binary code of their hump
maxima and cross-checked by an independent verification pass.

The Newton rows, each on its own segment, and the residual of
:func:`verify_solution` go through one batched flow, :func:`_batch_flow`,
on the same kernel; nothing here calls ``solve_ivp``.  Single
trajectories, and the vertices of the winding-number polylines one at a
time, use the float DOP853 stepper of :func:`integrator.integrate`.

Every polish is a lockstep round of :func:`_newton_steps` generators,
one per seed, inside :func:`_polish_seeds`, whose roots all pass the one
gate :func:`_accept`; the continuation polishes each trial mu there as a
single seed.  Each Newton evaluation asks for a flow tolerance matched
to the current defect, on a ladder of decades from the screen's rtol
down to the search tolerance, and a root is returned only from a flow
at the search tolerance.  Each round flows the pending rows of every
unfinished seed and sends each generator its rows; the rows at one
decade share one batched flow.  A seed whose polish has ended drops
out.  A flow never fails as a whole: it leaves out and names each row
it cannot flow, so only the seed that owns that row sees the failure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .brent import brentq
from .errors import (DegreeUndefinedError, DivergenceError, DomainError,
                     SolverError, UnclassifiableError)
from .integrator import (State, Trajectory, flow, flow_rows, integrate,
                         max_on_interval)
from .nonlinearity import g_eval
from .weight import k_fold_pattern


@dataclass(frozen=True)
class SearchConfig:
    """Grids and tolerances for the multistart searches."""

    u_min: float = 1e-4
    u_max: float = 10.0
    u_count: int = 48
    y_min: float = -5.0
    y_max: float = 5.0
    y_count: int = 32
    newton_max_iter: int = 30
    residual_tol: float = 1e-8
    rtol: float = 1e-10
    atol: float = 1e-12
    max_candidates: int = 60

    def __post_init__(self):
        # every count is at least 1 and every float finite
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "int" and not value >= 1:
                kind = "grid counts" if f.name.endswith("_count") \
                    else "counts"
                raise DomainError("%s must be positive: %s = %r"
                                  % (kind, f.name, value))
            if f.type == "float" and not math.isfinite(value):
                raise DomainError("%s must be finite" % f.name)
        for name in ("u_min", "residual_tol", "rtol", "atol"):
            if not getattr(self, name) > 0:
                raise DomainError("%s must be positive" % name)
        # the log grid runs from u_min up to u_max; nan is out of range
        if not self.u_max > self.u_min:
            raise DomainError("u_max must exceed u_min")


@dataclass
class SolutionRecord:
    """A solution found by shooting.

    ``node_states`` (shape (n, 2)) are the states at the matching times
    ``nodes[:-1]``; ``nodes`` has n + 1 entries spanning the whole window.
    A Neumann record is a single segment [0, T].
    """

    k: int
    trajectory: Trajectory
    residual: float
    sup_norm: float
    boundary: str
    node_states: np.ndarray
    nodes: list
    code: tuple = None
    min_period_multiple: int = None
    unclassifiable: bool = False

    @property
    def initial(self):
        """The state at t = 0, the first node state."""
        return State(*map(float, self.node_states[0]))

    @property
    def code_string(self):
        if self.code is None:
            return None
        return "".join(str(b) for b in self.code)


# ---------------------------------------------------------------------------
# grid screen

_SCREEN_RTOL = 1e-4     # tolerances of the screen's batched flows
_SCREEN_ATOL = 1e-7
_NEWTON_FORCING = 1e-2  # trial flow rtol over d min(1, d), d the defect


def screen_flow(p, states, t0, t1):
    """End states of a batch of initial states flowed from t0 to t1: one
    :func:`integrator.flow_rows` per weight piece of [t0, t1], at
    ``_SCREEN_RTOL`` and ``_SCREEN_ATOL``.

    Accuracy is qualitative; this only locates candidate basins for the
    Newton polish.  A row the flow leaves out reads nan, so the next
    piece leaves it out at its start, and the screen never raises.  Each
    piece steps from its own two edges, so calls over [t0, s] and
    [s, t1], where s is a breakpoint inside [t0, t1] (every jT is one),
    give the bits of one call over [t0, t1].
    """
    out = np.asarray(states, dtype=float)
    edges = [t0] + p.breakpoints_between(t0, t1) + [t1]
    for lo, hi in zip(edges[:-1], edges[1:]):
        out = flow_rows(p, out, [lo] * len(out), [hi - lo] * len(out),
                        _SCREEN_RTOL, _SCREEN_ATOL)[0]
    return out


# ---------------------------------------------------------------------------
# accurate maps


def poincare_map(p, s0, k=1, sc=None):
    """State at time k*T starting from s0 at the pattern origin."""
    if k < 1:
        raise DomainError("k must be >= 1")
    sc = sc or SearchConfig()
    return flow(p, s0, (0.0, k * p.period), rtol=sc.rtol, atol=sc.atol)


_GROWTH_CAP = 7.0
_FD_STEP = 1e-7         # relative difference-quotient step in Newton
_DEDUP_TOL = 1e-6       # relative initial-state distance of duplicates
_TRIVIAL_TOL = 1e-3     # sup-norm below which a root is trivial
_SMALL_SCALE = 0.05     # shrink factor for coded orbit seeds
_MAX_CODED_K = 7        # largest k seeded with all 2**k - 1 coded words
_LEVEL_MARGIN = 1e-6    # relative distance of a hump maximum from r and R
_LEVEL_GAP = 1.5        # smallest ratio of maxima that splits small/large
_LEVEL_R_FACTOR = 10.0  # R over the largest hump maximum
_MAX_MU_STEPS = 200     # continuation steps, accepted or rejected
_WINDING_MIN_DISP = 1e-9    # displacement that leaves the degree undefined
_WINDING_MAX_POINTS = 4096  # vertices refinement adds before it gives up


def _g_slope(g, amp):
    amp = min(max(float(amp), 1e-3), 100.0)
    eps = 1e-6 * (1.0 + amp)
    return max(1.0, (g_eval(g, amp + eps) - g_eval(g, amp)) / eps)


def _segment_nodes(p, k, traj):
    """(node states, nodes): the matching times of multiple shooting over
    [0, kT] and the states of ``traj`` at all but the last, a Newton seed.

    Every weight breakpoint is a node, and each smooth piece is further
    subdivided so the local exponential rate sqrt(max |a_mu| g'(u))
    times the segment length stays below a fixed cap; without this the
    flow across a negativity interval at large mu expands beyond double
    precision and Newton cannot converge.  The amplitude entering g' is
    the maximum of |u| over the piece along ``traj``, so deep troughs
    stay cheap.
    """
    t1 = k * p.period
    base = [0.0] + p.breakpoints_between(0.0, t1) + [t1]
    nodes = [0.0]
    for lo, hi in zip(base[:-1], base[1:]):
        ts = np.linspace(lo, hi, 33)
        amax = float(np.max(np.abs(p.a_mu_at(ts))))
        a_loc = float(np.max(np.abs(
            traj.eval(np.clip(ts, *traj.span))[:, 0])))
        rate = math.sqrt(max(amax * _g_slope(p.g, a_loc), 1.0))
        n = max(1, int(math.ceil((hi - lo) * rate / _GROWTH_CAP)))
        nodes.extend(np.linspace(lo, hi, n + 1)[1:].tolist())
    return traj.eval(np.array(nodes[:-1])), nodes


def _flow_level(defect, sc):
    """Decade j of the Newton trial flows from an iterate whose largest
    segment defect is ``defect``: they run at 10^j times ``sc.rtol`` and
    ``sc.atol``.  The rtol is ``_NEWTON_FORCING`` d min(1, d), held
    between ``sc.rtol`` and ``_SCREEN_RTOL`` and rounded down to a
    decade; j = 0 is the search tolerance.  An unknown defect, inf,
    gives the loosest decade."""
    ratio = min(_SCREEN_RTOL, _NEWTON_FORCING * defect * min(1.0, defect)) \
        / sc.rtol
    # the small shift keeps an exact decade such as 1e-4 / 1e-10 whole
    return math.floor(math.log10(max(ratio, 1.0)) + 1e-9)


def _batch_flow(p, Z, t0s, lens, sc):
    """Endpoint states of m independent segment flows, row j of Z from
    t0s[j] over lens[j], at the tolerances of ``sc``: the one batched
    flow of the Newton rows and of :func:`verify_solution`, on the DOP853
    kernel :func:`integrator.flow_rows`.

    No segment may contain a weight breakpoint.  Returns the (Y, escaped)
    of :func:`integrator.flow_rows`.
    """
    return flow_rows(p, Z, t0s, lens, sc.rtol, sc.atol)


def _orbit_seed(p, s0, k, sc):
    """(node states, nodes) propagated from s0, or None on escape.

    The whole window is integrated once; the orbit's own amplitude sets
    the matching grid so strongly forced stretches get enough nodes.
    """
    try:
        traj = integrate(p, State(float(s0[0]), float(s0[1])),
                         0.0, k * p.period, rtol=sc.rtol, atol=sc.atol)
    except DivergenceError:
        return None
    return _segment_nodes(p, k, traj)


def _newton_steps(z, sc):
    """Damped multiple-shooting Newton with matching at every breakpoint,
    on node states ``z`` (shape (n, 2)), as a generator.

    The unknowns are the states z_j at the matching nodes; the residual is
    F_j = flow(z_j over segment j) - z_{j+1 mod n}.  Fine segmentation
    keeps every segment flow mildly expanding even when the full period
    map is violently stretching (large mu).

    Every evaluation flows 3n rows in one batched flow: each z_j together
    with z_j + h e_u and z_j + h e_y, h = ``_FD_STEP`` * (1 + |z_j|).  All
    rows share one adaptive step sequence, so the difference quotients
    differentiate the same discrete map that gives F (internal numerical
    differentiation, Bock 1981) and carry O(h) error instead of the
    integrator's tol/h noise, at any flow tolerance.  Each line-search
    trial therefore also brings the Jacobian for the next step, and
    Newton converges quadratically near a root without g' or variational
    equations.

    The flow tolerance follows the residual (the forcing terms of
    inexact Newton, Eisenstat & Walker 1996; Deuflhard 2004): the first
    evaluation flows at the loosest decade of :func:`_flow_level`, and
    the trials of each step at the decade of the current defect, so
    steps far from a root take few flow steps.  A root is returned only
    from an evaluation at the search tolerance: a loose evaluation whose
    defect is already below ``residual_tol`` is evaluated once more at
    ``sc.rtol`` and ``sc.atol``, and Newton goes on from there.

    The generator yields (rows, decade) for each evaluation and receives
    their flowed end states, or the thrown DivergenceError of a row the
    flow left out; :func:`_polish_lockstep` flows them with the rows of
    every seed at that decade, at 10^decade times ``sc.rtol`` and
    ``sc.atol``.  It returns (node states with the first row at the
    pattern start, largest per-segment matching defect) or None.
    """
    n = len(z)
    seg = np.arange(n)
    nxt = (seg + 1) % n

    def system(z, level):
        # (f, jac) of z from the flowed rows z_j, z_j + h e_u, z_j + h e_y
        hs = _FD_STEP * (1.0 + np.abs(z))           # (n, 2)
        rows = np.repeat(z, 3, axis=0)
        rows[1::3, 0] += hs[:, 0]
        rows[2::3, 1] += hs[:, 1]
        out = (yield rows, level).reshape(n, 3, 2)
        fz = out[:, 0]
        # dfz[j, c] is column c of segment j's flow derivative
        dfz = (out[:, 1:] - fz[:, None, :]) / hs[:, :, None]
        jac = np.zeros((n, 2, n, 2))
        jac[seg, :, seg, :] = dfz.transpose(0, 2, 1)
        jac[seg, :, nxt, :] -= np.eye(2)
        return fz - z[nxt], jac.reshape(2 * n, 2 * n)

    level = _flow_level(math.inf, sc)
    try:
        f, jac = yield from system(z, level)
    except DivergenceError:
        return None
    bound = 100.0 * (1.0 + float(np.max(np.abs(z))))
    best = math.inf
    stall = 0
    for it in range(sc.newton_max_iter + 1):
        # converged when every segment defect is small; the summed norm
        # grows with the node count and would gate on integrator noise
        defect = float(np.max(np.linalg.norm(f, axis=1)))
        if defect < sc.residual_tol and level:
            # a loose flow only says the root is near: confirm it at the
            # search tolerance
            level = 0
            try:
                f, jac = yield from system(z, level)
            except DivergenceError:
                return None
            defect = float(np.max(np.linalg.norm(f, axis=1)))
        if defect < sc.residual_tol:
            return z, defect
        if it == sc.newton_max_iter or float(np.max(np.abs(z))) > bound:
            return None
        nf = float(np.linalg.norm(f))
        if nf < 0.5 * best:
            best, stall = nf, 0
        else:
            stall += 1
            if stall >= 10:
                return None
        try:
            step = np.linalg.solve(jac, -f.ravel()).reshape(n, 2)
        except np.linalg.LinAlgError:
            return None
        level = _flow_level(defect, sc)
        lam = 1.0
        for _ in range(12):
            try:
                f_new, jac_new = yield from system(z + lam * step, level)
            except DivergenceError:
                lam *= 0.5
                continue
            if np.linalg.norm(f_new) < nf:
                break
            lam *= 0.5
        else:
            return None
        z = z + lam * step
        f, jac = f_new, jac_new


def _polish_lockstep(p, seeds, sc):
    """:func:`_newton_steps` of every (node states, nodes) pair in
    ``seeds``, in lockstep: [(z, defect) or None] in seed order.  Every
    polish, the continuation's included, goes through here.

    Each round flows the pending request of every unfinished seed, with
    its own segment starts and lengths, and then sends each seed its
    flowed rows, or throws it the error of its first row the flow left
    out.  The requests at one decade are stacked, in seed order, into
    one :func:`_batch_flow` call, so a round makes one flow per distinct
    decade among its requests.  Rows that share a flow share its steps
    and error norm, so a seed's Newton path may differ from its solo
    path within the flow tolerance; a diverging trial still fails only
    its own seed.
    """
    steps, pending, t0s, lens = {}, {}, {}, {}
    for i, (z0, nodes) in enumerate(seeds):
        steps[i] = _newton_steps(np.asarray(z0, dtype=float).reshape(
            len(nodes) - 1, 2).copy(), sc)
        pending[i] = next(steps[i])
        t0s[i] = np.repeat(np.asarray(nodes[:-1], dtype=float), 3)
        lens[i] = np.repeat(np.diff(nodes), 3)
    results = [None] * len(seeds)
    while pending:
        replies = {}
        for level in sorted({level for _, level in pending.values()}):
            group = [i for i in pending if pending[i][1] == level]
            rows = [pending[i][0] for i in group]
            edges = np.cumsum([0] + [len(r) for r in rows])
            scale = 10.0 ** level
            out, escaped = _batch_flow(
                p, np.concatenate(rows),
                np.concatenate([t0s[i] for i in group]),
                np.concatenate([lens[i] for i in group]),
                replace(sc, rtol=sc.rtol * scale, atol=sc.atol * scale))
            for i, lo, hi in zip(group, edges[:-1], edges[1:]):
                replies[i] = next((escaped[r] for r in sorted(escaped)
                                   if lo <= r < hi), out[lo:hi])
        for i, reply in replies.items():
            try:
                pending[i] = (steps[i].throw(reply)
                              if isinstance(reply, DivergenceError)
                              else steps[i].send(reply))
            except StopIteration as done:
                results[i] = done.value
                del pending[i]
    return results


# ---------------------------------------------------------------------------
# record assembly, dedup, searches


def _stitched_trajectory(p, z, nodes, sc):
    """The :meth:`Trajectory.join` of the flows of the segments
    [nodes[j], nodes[j + 1]], each from its own node state z[j].

    Restarting each segment on its own node state keeps the later humps
    accurate even when the full-window flow amplifies the node error.  At
    each node the trajectory holds z[j], and the defect of the earlier
    segment's end stays inside that segment's dense rows.
    """
    return Trajectory.join([
        integrate(p, State(float(z[j, 0]), float(z[j, 1])), nodes[j],
                  nodes[j + 1], rtol=sc.rtol, atol=sc.atol)
        for j in range(len(nodes) - 1)])


def _accept(p, z, nodes, k, residual, sc, boundary):
    """The record of a converged root, or None when its stitched
    trajectory diverges, is trivial (sup-norm below ``_TRIVIAL_TOL``) or
    is not positive.  Every search and the continuation accept roots here.
    """
    try:
        traj = _stitched_trajectory(p, z, nodes, sc)
    except DivergenceError:
        return None
    _, us, _ = traj.sample(max(1024, 256 * k))
    sup = float(np.max(np.abs(us)))
    if sup < _TRIVIAL_TOL or not float(np.min(us)) > 0.0:
        return None
    return SolutionRecord(k=k, trajectory=traj, residual=residual,
                          sup_norm=sup, boundary=boundary,
                          node_states=z, nodes=list(nodes))


def _dedup(records, scale):
    records = sorted(records, key=lambda r: (r.initial.u, r.initial.y))
    kept = []
    tol = _DEDUP_TOL * (1.0 + scale)
    for rec in records:
        near = [other for other in kept
                if math.hypot(rec.initial.u - other.initial.u,
                              rec.initial.y - other.initial.y) < tol]
        # same initial state alone is not enough: coded orbits at large mu
        # separate only after a deep negativity trough, so the whole
        # trajectories must agree
        if near:
            ts = np.linspace(*rec.trajectory.span, 257)
            us = rec.trajectory.eval(ts)[:, 0]
            if any(float(np.max(np.abs(us - other.trajectory.eval(ts)[:, 0])))
                   < 1e-6 * (1.0 + rec.sup_norm) for other in near):
                continue
        kept.append(rec)
    return kept


def _polish_seeds(p, k, seeds, sc):
    """Accepted, deduplicated kT-periodic records of the roots Newton
    reaches from ``seeds``, a list of (node states, nodes) pairs.

    All seeds are polished together by :func:`_polish_lockstep`, and each
    root passes the one gate :func:`_accept`; each trial of the
    continuation is a single seed here.
    """
    found = [_accept(p, polished[0], nodes, k, polished[1], sc, "periodic")
             for (_, nodes), polished
             in zip(seeds, _polish_lockstep(p, seeds, sc))
             if polished is not None]
    return _dedup([rec for rec in found if rec is not None], sc.u_max)


def _coded_orbit_seeds(p, k, base):
    """Node seeds for the k-th iterate built from 1-periodic records.

    Every binary word of length k (except the all-zero word) selects per
    period either the node states of a 1-periodic solution or their
    shrunken copies; these sit near the coded subharmonic orbits of the
    coexistence dynamics.  Outside 2 <= k <= ``_MAX_CODED_K`` there are
    none.
    """
    if not 2 <= k <= _MAX_CODED_K:
        return []
    seeds = []
    T = p.period
    for rec in base:
        big, nodes1 = _segment_nodes(p, 1, rec.trajectory)
        # tile the 1-period grid so the word blocks line up exactly
        nodes_k = [j * T + t
                   for j in range(k) for t in nodes1[:-1]] + [k * T]
        small = _SMALL_SCALE * big
        for word in range(1, 2 ** k):
            bits = [(word >> (k - 1 - j)) & 1 for j in range(k)]
            seeds.append((np.vstack([big if b else small for b in bits]),
                          nodes_k))
    return seeds


class SearchResult(list):
    """The records of :func:`find_periodic_solutions` and ``screen``, the
    grid screen it flowed: (key, {j: grid end states after j periods}),
    keyed by the problem and the six grid fields."""

    def __init__(self, records, screen):
        super().__init__(records)
        self.screen = screen


def _screen_periods(p, starts, k, sc, prior):
    """(the grid ``starts`` after k periods of the screen, the screen):
    one :func:`screen_flow` per period [(j - 1)T, jT], each from the end
    states of the one before.

    A ``prior`` screen with this search's key is continued from its
    latest period j <= k: only periods j + 1..k are flowed, and each jT
    is an edge of the k-period window's pieces, so the bits are those
    of a cold screen.  The screen returned keeps ``prior``'s periods.
    """
    key = (p, sc.u_min, sc.u_max, sc.u_count, sc.y_min, sc.y_max,
           sc.y_count)
    ends = dict(prior[1]) if prior is not None and prior[0] == key else {}
    j = max((i for i in ends if i <= k), default=0)
    finals = ends[j] if j else starts
    T = p.period
    for i in range(j + 1, k + 1):
        finals = ends[i] = screen_flow(p, finals, (i - 1) * T, i * T)
    return finals, (key, ends)


def find_periodic_solutions(p, k, sc=None, base=None):
    """Positive kT-periodic solutions by multistart damped multiple
    shooting on the period map, sorted by initial state (u, then u'),
    as a :class:`SearchResult` that also holds the grid screen.

    The grid screen is :func:`_screen_periods`: one :func:`screen_flow`
    per period.  It continues the screen of ``base`` when ``base`` is the
    result of a search on the same problem and grid (``max_candidates``
    may differ); a plain list screens cold.  For
    2 <= k <= 7 the 1-periodic records ``base`` also seed every coded
    word; when omitted they come from a k=1 search with at most 20
    candidates, which is handed this search's screen and flows nothing.
    """
    if p.boundary != "periodic":
        raise DomainError("problem is not in periodic mode")
    if k < 1:
        raise DomainError("k must be >= 1")
    sc = sc or SearchConfig()
    u_grid = np.geomspace(sc.u_min, sc.u_max, sc.u_count)
    y_grid = np.linspace(sc.y_min, sc.y_max, sc.y_count)
    uu, yy = np.meshgrid(u_grid, y_grid, indexing="ij")
    starts = np.column_stack([uu.ravel(), yy.ravel()])
    finals, screen = _screen_periods(p, starts, k, sc,
                                     getattr(base, "screen", None))
    disp = finals - starts
    mags = np.hypot(disp[:, 0], disp[:, 1])
    # the max_candidates smallest finite displacements, ascending
    # (diverged rows are NaN and sort last)
    best = np.argsort(mags, kind="stable")[:sc.max_candidates]
    # at small u the geometric grid is finer than the cluster radius, so
    # neighbouring candidates there would polish to the same orbit; keep
    # one per cluster
    points = []
    for q in starts[best[np.isfinite(mags[best])]]:
        if all(np.hypot(*(q - o)) > 1e-4 * (1.0 + sc.u_max) for o in points):
            points.append(q)
    seeds = [zn for zn in (_orbit_seed(p, q, k, sc) for q in points)
             if zn is not None]
    if base is None and 2 <= k <= _MAX_CODED_K:
        base = find_periodic_solutions(
            p, 1, replace(sc, max_candidates=min(sc.max_candidates, 20)),
            base=SearchResult([], screen))
    seeds.extend(_coded_orbit_seeds(p, k, base))
    return SearchResult(_polish_seeds(p, k, seeds, sc), screen)


def find_neumann_solutions(p, sc=None):
    """Positive solutions with u'(0) = u'(T) = 0 by a 1D sweep over a
    linear grid of initial displacements (the periodic grid is geometric
    in u), bracketing sign changes of the terminal slope."""
    if p.boundary != "neumann":
        raise DomainError("problem is not in neumann mode")
    sc = sc or SearchConfig()
    T = p.period
    u_grid = np.linspace(sc.u_min, sc.u_max, sc.u_count)
    starts = np.column_stack([u_grid, np.zeros_like(u_grid)])
    finals = screen_flow(p, starts, 0.0, T)
    yT = finals[:, 1]

    # brentq returns an x it has evaluated, so the root's residual is
    # looked up, not flowed again
    slopes = {}

    def terminal_slope(u0):
        slopes[u0] = flow(p, State(float(u0), 0.0), (0.0, T),
                          rtol=sc.rtol, atol=sc.atol).y
        return slopes[u0]

    found = []
    for i in range(len(u_grid) - 1):
        if not (np.isfinite(yT[i]) and np.isfinite(yT[i + 1])):
            continue
        if yT[i] == 0.0 or yT[i] * yT[i + 1] >= 0.0:
            continue
        try:
            u_root = brentq(terminal_slope, u_grid[i], u_grid[i + 1],
                            xtol=1e-14, rtol=8.9e-16)
            residual = abs(slopes[u_root])
        except (ValueError, DivergenceError):
            continue
        if residual > sc.residual_tol:
            continue
        rec = _accept(p, np.array([[u_root, 0.0]]), [0.0, T], 1, residual,
                      sc, "neumann")
        if rec is not None:
            found.append(rec)
    return _dedup(found, sc.u_max)


# ---------------------------------------------------------------------------
# classification


def _hump_maxima(rec, p):
    """The maximum of u over each positivity interval of the record's
    kT window, in order, one interval at a time."""
    for lo, hi in k_fold_pattern(p.pattern, rec.k).pos_intervals():
        yield max_on_interval(rec.trajectory, lo, hi)[1]


def classify_code(rec, p, r, R):
    """Binary code of the solution: bit i is 1 when the maximum of u over
    positivity interval i lies in (r, R), 0 when it is below r.

    Raises UnclassifiableError when a hump maximum sits within the relative
    ``_LEVEL_MARGIN`` of r, or at/above R.
    """
    if not 0 < r < R:
        raise DomainError("need 0 < r < R")
    bits = []
    for umax in _hump_maxima(rec, p):
        if abs(umax - r) < _LEVEL_MARGIN * (1.0 + r):
            raise UnclassifiableError(
                "hump maximum %.8g sits on the classification level r=%.8g"
                % (umax, r))
        if umax >= R * (1.0 - _LEVEL_MARGIN):
            raise UnclassifiableError(
                "hump maximum %.8g reaches the upper level R=%.8g" % (umax, R))
        bits.append(1 if umax > r else 0)
    rec.code = tuple(bits)
    return rec.code


def track_in_mu(p, rec, mu_target, sc=None):
    """Continue a periodic record along the weight scaling mu.

    Natural-parameter continuation with a multiplicative step in mu.  Each
    trial mu is a one-seed :func:`_polish_seeds`, whose gate every root
    passes; the seed is the last accepted record on the trial's matching
    grid, moved by the secant through the record before it.  A failed
    polish, a rejected root or one collapsed towards zero halves the step.
    Returns the accepted record at mu_target, or None when the branch
    cannot be followed.  Raises DomainError unless 0 < mu_target < inf.
    """
    sc = sc or SearchConfig()
    if rec.boundary != "periodic":
        raise DomainError("continuation tracks periodic records")
    if not 0.0 < mu_target < math.inf:
        raise DomainError("mu_target must be positive and finite, got %r"
                          % mu_target)
    mu = p.mu
    if mu_target == mu:
        return rec
    up = mu_target > mu
    factor = 1.5 if up else 1.0 / 1.5
    collapsed = max(_TRIVIAL_TOL,
                    1e-3 * float(np.max(np.abs(rec.node_states))))
    mu_prev, prev = None, None      # the record accepted before ``rec``
    for _ in range(_MAX_MU_STEPS):
        mu_try = mu * factor
        if (up and mu_try >= mu_target) or (not up and mu_try <= mu_target):
            mu_try = mu_target
        q = replace(p, mu=mu_try)
        z_seed, nodes = _segment_nodes(q, rec.k, rec.trajectory)
        if prev is not None:
            # secant prediction along the branch, linear in log mu
            s = math.log(mu_try / mu) / math.log(mu / mu_prev)
            z_seed = z_seed + (z_seed - prev.trajectory.eval(nodes[:-1])) * s
        found = _polish_seeds(q, rec.k, [(z_seed, nodes)], sc)
        if not found or float(np.max(np.abs(found[0].node_states))) \
                <= collapsed:
            # halve the log-step actually tried, which is shorter than
            # ``factor`` when the trial was clamped to the target
            factor = math.sqrt(mu_try / mu)
            if abs(factor - 1.0) < 1e-4:
                return None
            continue
        mu_prev, prev = mu, rec
        mu, rec = mu_try, found[0]
        if mu == mu_target:
            return rec
        factor = min(factor ** 1.5, 4.0) if up else max(factor ** 1.5, 0.25)
    return None


def coded_multiplicity(p, k, mu_target, sc=None, base=None):
    """Coded kT-periodic solutions at a large weight scaling mu_target.

    Finds (or takes via ``base``) the 1-periodic solutions at the
    problem's own mu, continues the large one (every hump above the
    level r of :func:`adaptive_levels`; on a tie the larger sup-norm) to
    mu_target, then polishes a coded seed for every nonzero binary word
    of length k there.  The direct grid search is useless at extreme mu
    (the period map stretches beyond screening resolution), which is why
    the search is staged this way.  Returns (records, problem at
    mu_target).  Raises DomainError, before any search, unless
    2 <= k <= ``_MAX_CODED_K``.
    """
    if not 2 <= k <= _MAX_CODED_K:
        raise DomainError("coded words are seeded for 2 <= k <= %d, got "
                          "k=%r" % (_MAX_CODED_K, k))
    sc = sc or SearchConfig()
    if base is None:
        base = find_periodic_solutions(p, 1, sc)
    if not base:
        raise SolverError("no 1-periodic solution to continue from")
    r, R = adaptive_levels(base, p)
    large = []
    for rec in base:
        try:
            # classify a copy: the caller's records keep their codes
            code = classify_code(replace(rec), p, r, R)
        except UnclassifiableError:
            continue
        if all(code):
            large.append(rec)
    if not large:
        raise SolverError("no 1-periodic solution with every hump above "
                          "r=%g to continue from" % r)
    rec = max(large, key=lambda b: b.sup_norm)
    hi = track_in_mu(p, rec, mu_target, sc)
    if hi is None:
        raise SolverError("continuation to mu=%g lost the branch"
                          % mu_target)
    q = replace(p, mu=mu_target)
    return _polish_seeds(q, k, _coded_orbit_seeds(q, k, [hi]), sc), q


def adaptive_levels(records, p):
    """Classification levels (r, R) inferred from a family of solutions.

    Collects the hump maxima of all records and splits them at the largest
    multiplicative gap exceeding ``_LEVEL_GAP``; r is the geometric mean of
    the gap edges.  With no such gap every hump counts as large and r sits
    below the smallest maximum.  R is ``_LEVEL_R_FACTOR`` times the
    largest.
    """
    maxima = [umax for rec in records for umax in _hump_maxima(rec, p)]
    if not maxima:
        raise DomainError("no solutions to infer levels from")
    vals = np.sort(np.asarray(maxima))
    vals = vals[vals > 0]
    if vals.size == 0:
        raise DomainError("all hump maxima vanish")
    R = _LEVEL_R_FACTOR * float(vals[-1])
    if vals.size == 1:
        return float(vals[0]) / _LEVEL_GAP, R
    ratios = vals[1:] / vals[:-1]
    i = int(np.argmax(ratios))
    if ratios[i] > _LEVEL_GAP:
        r = float(np.sqrt(vals[i] * vals[i + 1]))
    else:
        r = float(vals[0]) / _LEVEL_GAP
    return r, R


# ---------------------------------------------------------------------------
# winding number (numerical degree proxy)


def winding_number(p, k, curve, sc=None):
    """Signed rotation number of the displacement map around a closed
    polyline of initial states.

    The polyline is refined (midpoint insertion in state space) until all
    successive displacement-angle increments are below pi/2.  Every
    vertex is flowed once, by :func:`poincare_map` over [0, kT] at the
    search tolerances, when a refinement round first needs it.

    A DegreeUndefinedError names the vertex (u, y) whose trajectory
    diverged or whose displacement vanished.
    """
    if k < 1:
        raise DomainError("k must be >= 1")
    sc = sc or SearchConfig()
    pts = [np.asarray(q, dtype=float) for q in curve]
    if len(pts) < 3:
        raise DomainError("curve needs at least 3 vertices")
    if np.allclose(pts[0], pts[-1]):
        pts = pts[:-1]
    _, deltas = _refined_polyline(p, k, pts, sc)
    return int(round(sum(deltas) / (2 * math.pi)))


def _refined_polyline(p, k, pts, sc):
    """(final polyline, displacement-angle increment of each of its
    edges) of the refinement in :func:`winding_number`."""
    cache = {}      # (u, y) -> displacement angle
    start = len(pts)

    def angle(q):
        u, y = float(q[0]), float(q[1])
        if (u, y) not in cache:
            try:
                img = poincare_map(p, (u, y), k, sc)
            except DivergenceError as exc:
                raise DegreeUndefinedError(
                    "trajectory from curve vertex (u, y) = (%.17g, %.17g) "
                    "diverged" % (u, y)) from exc
            du, dy = img.u - u, img.y - y
            length = math.hypot(du, dy)
            if length < _WINDING_MIN_DISP:
                raise DegreeUndefinedError(
                    "displacement vanishes at curve vertex (u, y) = "
                    "(%.17g, %.17g): |d| = %.3g" % (u, y, length))
            cache[u, y] = math.atan2(dy, du)
        return cache[u, y]

    while True:
        angles = [angle(q) for q in pts]
        n = len(pts)
        deltas = [(angles[(i + 1) % n] - angles[i] + math.pi)
                  % (2 * math.pi) - math.pi for i in range(n)]
        refined = []
        for i, q in enumerate(pts):
            refined.append(q)
            if abs(deltas[i]) >= math.pi / 2:
                refined.append(0.5 * (q + pts[(i + 1) % n]))
        if len(refined) == n:
            return pts, deltas
        if len(refined) - start > _WINDING_MAX_POINTS:
            a = next(q for q, d in zip(pts, deltas) if abs(d) >= math.pi / 2)
            raise DegreeUndefinedError(
                "curve refinement did not converge: %d vertices, the edge "
                "from curve vertex (u, y) = (%.17g, %.17g) still turns by "
                "pi/2 or more" % (len(refined), a[0], a[1]))
        pts = refined


# ---------------------------------------------------------------------------
# verification


@dataclass
class VerificationReport:
    checks: dict = field(default_factory=dict)
    details: dict = field(default_factory=dict)

    @property
    def passed(self):
        return all(self.checks.values())


def verify_solution(rec, p, r_star=None, sc=None):
    """Independent checks on an accepted solution record.

    Asserts the boundary residual, strict positivity, the monotone slope
    of e^{ct} u' on positivity/negativity intervals, the endpoint-maximum
    property on negativity intervals, stability of the sup-norm under
    re-integration at tightened tolerance, and (when given) the a priori
    bound R*.
    """
    sc = sc or SearchConfig()
    rep = VerificationReport()
    traj = rec.trajectory
    t0, t1 = traj.span
    n = max(2048, 512 * rec.k)
    ts, us, ys = traj.sample(n)
    sup = float(np.max(np.abs(us)))

    # residual
    if rec.boundary == "periodic":
        z, nodes = rec.node_states, rec.nodes
        fz, escaped = _batch_flow(p, z, nodes[:-1], np.diff(nodes), sc)
        if escaped:
            raise escaped[min(escaped)]
        res = float(np.max(np.linalg.norm(
            fz - np.roll(z, -1, axis=0), axis=1)))
    else:
        res = abs(float(traj.eval(t0)[1])) + abs(float(traj.eval(t1)[1]))
    rep.checks["residual"] = res < 10 * sc.residual_tol
    rep.details["residual"] = res

    # positivity
    min_u = float(np.min(us))
    rep.checks["positive"] = min_u > 0.0
    rep.details["min_u"] = min_u

    # monotone slope of e^{ct} u' and endpoint maximum on I-
    pat = k_fold_pattern(p.pattern, rec.k)
    slope = np.exp(p.c * ts) * ys
    # the check is qualitative; the slack must sit above dense-output
    # interpolation noise, which grows with the stiffness of the flow
    slack = 1e-6 * (1.0 + float(np.max(np.abs(slope))))
    mono_ok = True
    for (lo, hi), sign in (
            [(iv, -1) for iv in pat.pos_intervals()] +
            [(iv, +1) for iv in pat.neg_intervals()]):
        mask = (ts >= lo) & (ts <= hi)
        if mask.sum() < 2:
            continue
        seg = slope[mask]
        d = np.diff(seg) * sign
        if np.any(d < -slack):
            mono_ok = False
    rep.checks["monotone_slope"] = mono_ok

    endpoint_ok = True
    for (lo, hi) in pat.neg_intervals():
        if hi <= lo:
            continue
        _, umax = max_on_interval(traj, lo, hi)
        edge = max(float(traj.eval(lo)[0]), float(traj.eval(hi)[0]))
        if umax > edge + 1e-7 * (1.0 + sup):
            endpoint_ok = False
    rep.checks["neg_endpoint_max"] = endpoint_ok

    # re-integration at tightened tolerance
    tight_sc = replace(sc, rtol=max(sc.rtol / 100, 1e-13),
                       atol=max(sc.atol / 100, 1e-15))
    try:
        tight = _stitched_trajectory(p, rec.node_states, rec.nodes, tight_sc)
        du = tight.eval(ts)[:, 0] - us
        drift = float(np.max(np.abs(du)))
        rep.checks["reintegration"] = drift < 1e-6
        rep.details["reintegration_drift"] = drift
    except DivergenceError:
        rep.checks["reintegration"] = False

    if r_star is not None:
        rep.checks["below_R_star"] = sup < r_star
        rep.details["sup_norm"] = sup
    return rep
