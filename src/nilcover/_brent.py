"""Brent's root bracketing and bounded minimisation on Python floats.

Both routines follow Brent, *Algorithms for Minimization Without
Derivatives* (1973), as scipy implements them, step for step, so that they
return the same floats as ``scipy.optimize.brentq`` and
``scipy.optimize.minimize_scalar(method="bounded")`` (the tests compare
them).  They are here so that the solvers of the library load no scipy.
"""

import math
import sys

_EPS = sys.float_info.epsilon
# scipy's defaults: brentq's maxiter and the bounded minimiser's maxiter,
# which counts evaluations
_MAXITER = 100
_MAXFUN = 500


def _checked(f, x):
    fx = f(x)
    if math.isnan(fx):
        raise ValueError("the function value at x=%r is NaN; the solver "
                         "cannot continue" % x)
    return fx


def _brentq(f, a, b, xtol):
    """A root of f in [a, b], where f(a) and f(b) differ in sign, to within
    xtol + 4*eps*|root| (scipy's default rtol).

    A port of scipy's Zeros/brentq.c: each step takes inverse quadratic
    interpolation (the secant when only two points are known) when it is
    short enough, and bisection otherwise.  ValueError for f(a) and f(b) of
    one sign or a NaN value of f, RuntimeError after _MAXITER steps.
    """
    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre = _checked(f, xpre)
    fcur = _checked(f, xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(_MAXITER):
        if (fpre != 0.0 and fcur != 0.0
                and math.copysign(1.0, fpre) != math.copysign(1.0, fcur)):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + 4 * _EPS * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur

        bisect = True
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = (-fcur * (fblk * dblk - fpre * dpre)
                            / (dblk * dpre * (fblk - fpre)))
            except ZeroDivisionError:
                # C gives inf or nan here, which fails the step test below
                pass
            else:
                limit = 3 * abs(sbis) - delta
                if 2 * abs(stry) < (abs(spre) if abs(spre) < limit
                                    else limit):  # good short step
                    spre, scur = scur, stry
                    bisect = False
        if bisect:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = _checked(f, xcur)
    raise RuntimeError("failed to converge after %d iterations, value is %r"
                       % (_MAXITER, xcur))


_SQRT_EPS = math.sqrt(2.2e-16)
_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))
_XATOL = 1e-10  # the tolerance in x of both minimisations of the library


def _fminbound(f, lo, hi):
    """(x, f(x)) at a local minimum of f on [lo, hi], to within _XATOL in x.

    A port of scipy's _minimize_scalar_bounded (Brent's method: parabolic
    steps where the fit is acceptable, golden-section steps elsewhere); it
    stops after _MAXFUN evaluations.  f may return inf on part of the
    interval: a parabola through an inf value is never accepted.
    """
    a, b = lo, hi
    fulc = a + _GOLDEN * (b - a)
    nfc = xf = fulc
    rat = e = 0.0
    fx = f(xf)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * abs(xf) + _XATOL / 3.0
    tol2 = 2.0 * tol1

    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:  # try a parabolic fit
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                golden = False
                rat = p / q
                x = xf + rat
                if x - a < tol2 or b - x < tol2:
                    rat = -tol1 if xm < xf else tol1
        if golden:
            e = a - xf if xf >= xm else b - xf
            rat = _GOLDEN * e

        # scipy's np.sign(rat) + (rat == 0): a step of 0 goes up
        x = xf + (-1.0 if rat < 0.0 else 1.0) * max(abs(rat), tol1)
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
        tol1 = _SQRT_EPS * abs(xf) + _XATOL / 3.0
        tol2 = 2.0 * tol1

        if num >= _MAXFUN:
            break
    return xf, fx
