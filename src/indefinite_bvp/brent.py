"""Brent's root finder on a bracket, ported from scipy so that no caller
imports ``scipy.optimize``, and the one extremum routine of the package.

:func:`brentq` is a line-for-line port of the C loop of scipy's
``optimize.brentq`` (``scipy/optimize/Zeros/brentq.c``) together with the
checks of its Python wrapper.  It runs the same floating-point
operations in the same order on Python floats, so it returns scipy's
results bit for bit; ``tests/test_brent.py`` pins that.  See Brent,
*Algorithms for Minimization without Derivatives* (1973), ch. 4.

:func:`grid_minimum` finds the smallest value of a vectorized function
on a sorted grid and refines it by re-gridding between the neighbours
of the best point; it serves the hump maxima of
:func:`integrator.max_on_interval` and the growth functionals of
:mod:`nonlinearity`.
"""

from __future__ import annotations

import math
import sys

import numpy as np

RTOL = 4 * sys.float_info.epsilon   # scipy's default and smallest rtol
_MAXITER = 100                      # brentq's default maxiter
# grid_minimum: re-grid rounds after the first grid, points of each
_REFINE_ROUNDS = 4
_REFINE_POINTS = 64


def brentq(f, a, b, xtol, rtol=RTOL):
    """A root of f in [a, b], where f(a) and f(b) differ in sign.

    Brent's method: inverse quadratic interpolation or a secant step
    where it shrinks the bracket fast enough, bisection otherwise; it
    stops when the bracket is narrower than xtol + rtol |x|.  An end
    where f is exactly zero is returned as it is.  Raises ``ValueError``
    for xtol <= 0, rtol < 4 eps, f(a) and f(b) of one sign, or a nan
    value of f, and ``RuntimeError`` after 100 iterations.
    """
    if xtol <= 0:
        raise ValueError("xtol too small (%g <= 0)" % xtol)
    if rtol < RTOL:
        raise ValueError("rtol too small (%g < %g)" % (rtol, RTOL))

    def value(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError("The function value at x=%s is NaN; solver "
                             "cannot continue." % x)
        return fx

    xtol, rtol = float(xtol), float(rtol)
    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre = value(xpre)
    fcur = value(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(_MAXITER):
        if fpre != 0 and fcur != 0 and \
                math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate; where C divides by zero (the product
                # below underflows when f is tiny across the bracket) its
                # step is inf or nan, which the test below bisects
                try:
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) \
                        / (dblk * dpre * (fblk - fpre))
                except ZeroDivisionError:
                    stry = math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise RuntimeError("Failed to converge after %d iterations." % _MAXITER)


def grid_minimum(f, grid):
    """(x, f(x)) at the smallest value of f over a sorted grid, refined.

    f maps an array of points to an array of values.  After the first
    grid, each of ``_REFINE_ROUNDS`` rounds evaluates f at
    ``_REFINE_POINTS`` points from the left to the right neighbour of
    the last round's best point, so each round narrows the bracket by
    a factor of about 30.  A point replaces the best one only where its
    value is strictly smaller, and every grid keeps its ends, so a
    minimum at an end of the grid comes back as f at that end, bit for
    bit.  The first of equal values wins, as in ``np.argmin``.
    """
    best_x = best_f = None
    for _ in range(_REFINE_ROUNDS + 1):
        vals = f(grid)
        i = int(np.argmin(vals))
        if best_f is None or vals[i] < best_f:
            best_x, best_f = grid[i], vals[i]
        grid = np.linspace(grid[max(i - 1, 0)],
                           grid[min(i + 1, len(grid) - 1)], _REFINE_POINTS)
    return float(best_x), float(best_f)
