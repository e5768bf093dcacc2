"""Brent's methods on a bracket, ported from scipy so that no caller
imports ``scipy.optimize``.

:func:`brentq` is a line-for-line port of the C loop of scipy's
``optimize.brentq`` (``scipy/optimize/Zeros/brentq.c``) together with the
checks of its Python wrapper; :func:`minimize_bounded` is a port of
``scipy.optimize._optimize._minimize_scalar_bounded``, the ``"bounded"``
method of ``minimize_scalar``.  Both run the same floating-point
operations in the same order on Python floats, so they return scipy's
results bit for bit; ``tests/test_brent.py`` pins that.  See Brent,
*Algorithms for Minimization without Derivatives* (1973), ch. 4 and 5.
"""

from __future__ import annotations

import math
import sys

RTOL = 4 * sys.float_info.epsilon   # scipy's default and smallest rtol
_MAXITER = 100                      # brentq's default maxiter
_MAXFUN = 500                       # minimize_scalar's default maxiter


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


def _sign_or_one(x):
    # numpy's sign(x) + (x == 0): -1 below zero, 1 at or above it
    return -1.0 if x < 0 else 1.0 if x >= 0 else x


def minimize_bounded(f, lo, hi, xatol):
    """(x, f(x)) at a local minimum of f on [lo, hi].

    Brent's bounded method: golden-section steps, with parabolic steps
    where the parabola through the last three points is acceptable; it
    stops when x is known to within about 2 (xatol / 3 + sqrt(eps) |x|),
    or after 500 evaluations of f.  Raises ``ValueError`` for bounds
    that are not finite or with lo > hi.
    """
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("Optimization bounds must be finite scalars.")
    if lo > hi:
        raise ValueError("The lower bound exceeds the upper bound.")
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    a, b = lo, hi
    fulc = a + golden_mean * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    x = xf
    fx = f(x)
    num = 1

    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1

    while abs(xf - xm) > (tol2 - 0.5 * (b - a)):
        golden = True
        # check for a parabolic fit
        if abs(e) > tol1:
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat

            # is the parabola acceptable?
            if abs(p) < abs(0.5 * q * r) and p > q * (a - xf) and \
                    p < q * (b - xf):
                rat = (p + 0.0) / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 * _sign_or_one(xm - xf)
            else:
                golden = True

        if golden:
            e = (a - xf) if xf >= xm else (b - xf)
            rat = golden_mean * e

        x = xf + _sign_or_one(rat) * max(abs(rat), tol1)
        fu = f(x)
        num += 1

        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu

        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1

        if num >= _MAXFUN:
            break
    return float(xf), float(fx)
