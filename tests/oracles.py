"""Reference integrations on scipy's ``solve_ivp``, independent of the
package's own DOP853 steppers, for the tests to check the package
against.

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

from indefinite_bvp.errors import BracketingError, DomainError
from indefinite_bvp.expressions import quiet_fp
from indefinite_bvp.nonlinearity import g_scalar

PROFILE_SAMPLES = 1024      # uniform points of a radial profile
REF_RTOL = 1e-10            # DOP853 tolerances of the references
REF_ATOL = 1e-12


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
