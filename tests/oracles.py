"""Reference integrations for the tests to check the package against.

- :func:`reference_dop853` is the float DOP853 stepper as a loop over
  the rows of the tableau, the reference of the written-out stages of
  :func:`integrator.dop853`.
- :func:`reference_rk4_screen` is a fixed-step RK4 grid screen, an
  integrator independent of DOP853 whose grid picks the adaptive screen
  of :func:`shooting.screen_flow` must reproduce.

The others run on scipy's ``solve_ivp``, independent of the package's
own DOP853 steppers:

- :func:`direct_radial_integration` integrates the radial equation in r
  itself, the cross-check of the annulus-to-1D reduction.
- :func:`reference_angle_sweep` is the Prüfer angle flow as a 1-D ODE,
  and :func:`reference_first_eigenvalue` its root, the cross-checks of
  :func:`eigen.prufer_angle_sweep` and :func:`eigen.first_eigenvalue`.
"""

import math

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from indefinite_bvp import dop853_coefficients as dop
from indefinite_bvp.errors import BracketingError, DivergenceError, DomainError
from indefinite_bvp.expressions import quiet_fp
from indefinite_bvp.integrator import BLOWUP_NORM
from indefinite_bvp.nonlinearity import g_scalar

PROFILE_SAMPLES = 1024      # uniform points of a radial profile
REF_RTOL = 1e-10            # DOP853 tolerances of the references
REF_ATOL = 1e-12


def _nonzero(row):
    """(index, coefficient) of the nonzero entries of a tableau row."""
    return tuple((j, float(a)) for j, a in enumerate(row) if a != 0.0)


# the DOP853 tableau as Python floats: stages 1..11 of a step, the weights
# of the 8th-order solution and of the 5th- and 3rd-order error estimates,
# and the three extra stages of the dense output
_STAGES = tuple((float(dop.C[s]), _nonzero(dop.A[s, :s]))
                for s in range(1, dop.N_STAGES))
_B = _nonzero(dop.B)
_E5 = _nonzero(dop.E5)
_E3 = _nonzero(dop.E3)
_EXTRA = tuple((float(dop.C[s]), _nonzero(dop.A[s, :s]))
               for s in range(dop.N_STAGES + 1, dop.N_STAGES_EXTENDED))


def _diverged(reason, t, u, y):
    return DivergenceError("%s near t=%.6g" % (reason, t), last_time=t,
                           last_state=(u, y))


def _initial_step(field, t, u, y, fu, fy, t_end, rtol, atol):
    """scipy's ``select_initial_step`` for the 7th-order error estimator,
    on floats."""
    length = t_end - t
    su = atol + abs(u) * rtol
    sy = atol + abs(y) * rtol
    d0 = math.hypot(u / su, y / sy) / math.sqrt(2.0)
    d1 = math.hypot(fu / su, fy / sy) / math.sqrt(2.0)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, length)
    f1u, f1y = field(t + h0, u + h0 * fu, y + h0 * fy)
    d2 = math.hypot((f1u - fu) / su, (f1y - fy) / sy) / math.sqrt(2.0) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d2, d1)) ** (1.0 / 8.0)
    return min(100 * h0, h1, length)


def reference_dop853(field, t, t_end, u, y, rtol, atol, dense):
    """The float DOP853 stepper with its stages as loops over the rows of
    the tableau, each sum from 0.0 in the order of the row: the same
    arguments, results and errors as :func:`integrator.dop853`, whose
    written-out stages must keep these bits."""
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
            ku, ky = [fu], [fy]
            for c, row in _STAGES:
                su = sy = 0.0
                for j, a in row:
                    su += a * ku[j]
                    sy += a * ky[j]
                du, dy = field(t + c * h, u + su * h, y + sy * h)
                ku.append(du)
                ky.append(dy)
            e5u = e5y = e3u = e3y = 0.0
            for j, e in _E5:
                e5u += e * ku[j]
                e5y += e * ky[j]
            for j, e in _E3:
                e3u += e * ku[j]
                e3y += e * ky[j]
            su = sy = 0.0
            for j, b in _B:
                su += b * ku[j]
                sy += b * ky[j]
            u_new = u + h * su
            y_new = y + h * sy
            scale_u = atol + max(abs(u), abs(u_new)) * rtol
            scale_y = atol + max(abs(y), abs(y_new)) * rtol
            n5 = (e5u / scale_u) ** 2 + (e5y / scale_y) ** 2
            n3 = (e3u / scale_u) ** 2 + (e3y / scale_y) ** 2
            try:
                err = 0.0 if n5 == 0.0 and n3 == 0.0 else \
                    h * n5 / math.sqrt((n5 + 0.01 * n3) * 2.0)
            except ZeroDivisionError:
                err = math.nan
            if err < 1.0:
                factor = 10.0 if err == 0.0 else \
                    min(10.0, 0.9 * err ** (-1.0 / 8.0))
                h_abs = h * (min(1.0, factor) if rejected else factor)
                break
            h_abs = h * max(0.2, 0.9 * err ** (-1.0 / 8.0))
            rejected = True
        if not abs(u_new) + abs(y_new) < BLOWUP_NORM:
            raise _diverged("trajectory escaped the guard region", t_new,
                            u_new, y_new)
        fu, fy = field(t_new, u_new, y_new)
        ku.append(fu)
        ky.append(fy)
        if dense:
            for c, row in _EXTRA:
                su = sy = 0.0
                for j, a in row:
                    su += a * ku[j]
                    sy += a * ky[j]
                du, dy = field(t + c * h, u + su * h, y + sy * h)
                ku.append(du)
                ky.append(dy)
            stages.append((ku, ky))
        t, u, y = t_new, u_new, y_new
        ts.append(t)
        us.append(u)
        ys.append(y)
    return ts, us, ys, stages


def reference_rk4_screen(p, states, t0, t1, steps_per_unit):
    """End states of the rows ``states`` flowed from t0 to t1 by classical
    RK4 with max(4, ceil(length * steps_per_unit)) equal steps on each
    weight piece; every stage calls the extended forcing at its own time
    for every row.  A row whose |u| + |y| is not finite or exceeds
    ``BLOWUP_NORM`` after a step reads nan from then on."""
    u = states[:, 0].astype(float).copy()
    y = states[:, 1].astype(float).copy()
    edges = [t0] + p.breakpoints_between(t0, t1) + [t1]

    def deriv(t, u, y):
        return y, -p.c * y - p.extended(p.a_mu_at(np.full(len(u), t)), u)

    with np.errstate(all="ignore"):
        for lo, hi in zip(edges[:-1], edges[1:]):
            n = max(4, int(math.ceil((hi - lo) * steps_per_unit)))
            h = (hi - lo) / n
            t = lo
            for _ in range(n):
                k1u, k1y = deriv(t, u, y)
                k2u, k2y = deriv(t + h / 2, u + h / 2 * k1u, y + h / 2 * k1y)
                k3u, k3y = deriv(t + h / 2, u + h / 2 * k2u, y + h / 2 * k2y)
                k4u, k4y = deriv(t + h, u + h * k3u, y + h * k3y)
                u = u + h / 6 * (k1u + 2 * k2u + 2 * k3u + k4u)
                y = y + h / 6 * (k1y + 2 * k2y + 2 * k3y + k4y)
                t += h
                dead = ~np.isfinite(u) | ~np.isfinite(y) | \
                    (np.abs(u) + np.abs(y) > BLOWUP_NORM)
                u[dead] = np.nan
                y[dead] = np.nan
    return np.column_stack([u, y])


def direct_radial_integration(ap, U0):
    """Reference second-order integration in the radial variable.

    Integrates U'' + ((N-1)/r) U' + Q_mu(r) g~(U) = 0 from U(R1) = U0,
    U'(R1) = 0 and returns samples (r, U).  Used to cross-check the 1D
    reduction; the extended field matches the 1D solver's convention.
    """
    g = g_scalar(ap.g)

    def qmu(r):
        q = float(ap.q_at(r))
        return max(q, 0.0) - ap.mu * max(-q, 0.0)

    def rhs(r, z):
        U, V = z
        force = qmu(r) * g(U) if U >= 0 else -U
        return [V, -(ap.N - 1) / r * V - force]

    pts = sorted({ap.R1, ap.R2} |
                 {r for r in ap.kink_hints if ap.R1 < r < ap.R2})
    rs_all, us_all = [], []
    z = [float(U0), 0.0]
    # g is an unguarded scalar callable: one guard for the whole flow
    with quiet_fp():
        for a, b in zip(pts[:-1], pts[1:]):
            sol = solve_ivp(rhs, (a, b), z, method="DOP853",
                            rtol=REF_RTOL, atol=REF_ATOL, dense_output=True)
            if not sol.success:
                raise DomainError("radial reference integration failed")
            rs = np.linspace(a, b, max(16, int(PROFILE_SAMPLES * (b - a)
                                               / (ap.R2 - ap.R1))))
            rs_all.append(rs)
            us_all.append(sol.sol(rs)[0])
            z = sol.y[:, -1]
    return np.concatenate(rs_all), np.concatenate(us_all)


def reference_angle_sweep(ep, lam):
    """Terminal angle theta(beta) of the 1-D angle flow

        theta' = e^{-ct} cos^2(theta) + e^{ct} lambda a(t) sin^2(theta)

    from theta(alpha) = 0 (left Dirichlet) or pi/2 (left Neumann), on
    ``solve_ivp``'s DOP853 at the tolerances of the package's sweep."""
    theta0 = 0.0 if ep.left_bc == "dirichlet" else math.pi / 2.0

    def rhs(t, th):
        a = float(ep.weight_fn(t))
        ect = math.exp(ep.c * t)
        s, co = math.sin(th[0]), math.cos(th[0])
        return [co * co / ect + ect * lam * a * s * s]

    # weight_fn may call an expression unguarded: one guard for the sweep
    with quiet_fp():
        sol = solve_ivp(rhs, (ep.alpha, ep.beta), [theta0], method="DOP853",
                        rtol=REF_RTOL, atol=REF_ATOL)
    if not sol.success:
        raise BracketingError("angle integration failed")
    return float(sol.y[0, -1])


def reference_first_eigenvalue(ep):
    """Smallest root of :func:`reference_angle_sweep` at the angle of the
    right BC: pi/2 for a Dirichlet-Neumann problem, pi otherwise.  The
    root is bracketed by doubling from lambda = 1 and found by scipy's
    ``brentq`` at the package's root tolerance (1e-8), so that a
    comparison with :func:`eigen.first_eigenvalue` measures the sweeps."""
    target = math.pi / 2.0 if (ep.left_bc, ep.right_bc) == \
        ("dirichlet", "neumann") else math.pi

    def f(lam):
        return reference_angle_sweep(ep, lam) - target

    lo, hi = 0.0, 1.0
    while f(hi) < 0:
        lo, hi = hi, 2.0 * hi
    return brentq(f, lo, hi, xtol=1e-8, rtol=1e-8)
