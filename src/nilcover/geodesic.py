"""Geodesics of Nil and the inverse-geodesic distance.

Arc-length parametrized geodesics from the origin are classified by an
initial direction (alpha, theta): alpha is the horizontal heading and
theta the pitch against the xy-plane.  With w = sin(theta), c = cos(theta)
and u = w*s the curve admits one closed form that is stable across the
special cases w = 0 (straight-line-with-drift) and |w| = 1 (the fibre):

    x = c*s * sinc(u/2) * cos(u/2 + alpha)
    y = c*s * sinc(u/2) * sin(u/2 + alpha)
    z = w*s + (c^2 s^3 w / 2) * g(u) + x*y/2,   g(u) = (u - sin u)/u^3.

The distance solver inverts this map.  Rotational symmetry about the
z-axis reduces the problem to two equations in (theta, s): in the sheared
coordinates (rho, zeta) = (hypot(x, y), z - xy/2) the geodesic sphere of
radius s is the surface of revolution of the profile curve

    X(s, theta) = c*s*sinc(u/2),
    Z(s, theta) = w*s + (c^2 s^3 w / 2)*g(u),

so d(O, p) solves X = rho, Z = |zeta|, and alpha falls out in closed form.
Geodesic spheres exist for radii up to 2*pi.  A geodesic of pitch theta
minimizes up to arc length 2*pi/|sin(theta)|, which is never below 2*pi,
so any root of the profile system with s <= 2*pi belongs to a minimizing
geodesic and is the distance.  The solver accepts only such roots; a point
farther than 2*pi from the origin raises NoSolutionError.

The section rule is exact.  For s <= 2*pi, X(s, theta) = c*s*sinc(w*s/2)
is a product of two nonnegative factors that fall in theta while
w*s/2 <= pi, so it falls strictly from s to 0 on [0, pi/2]: the s-sphere's
profile is a graph over rho, at the pitch theta_s(rho) with
X(s, theta_s) = rho.  Balls grow with s and every point of the s-sphere
lies at distance exactly s, so the section of the closed s-ball at rho,
|zeta| <= Z(s, theta_s(rho)), grows strictly in s from zeta = 0 at s = rho.
The distance to (rho, zeta) is therefore the one root of
Z(s, theta_s(rho)) = |zeta| on [rho, 2*pi], and a target above the 2*pi
ball's section (past a 1e-9 margin) has no root with s <= 2*pi.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from ._brent import _brentq
from .core import Point, inverse, translate
from .errors import DomainError, NilcoverError, NoSolutionError, _finite_number

PI = math.pi
TWO_PI = 2.0 * math.pi

# Newton acceptance threshold for the profile system residual
_ROOT_TOL = 1e-10


# ---------------------------------------------------------------------------
# profile of the sphere's shear image and its derivatives, series-switched
# near zero so everything stays smooth

def _profile_array(R: float, theta: np.ndarray):
    """The profile (X, Z) at R > 0 over ascending pitches theta in
    [0, pi/2], with _profile_fj's series switches.

    u = R sin(theta) rises along theta, so each series branch applies on
    a prefix of it, and each branch is evaluated only where it applies.
    At R <= pi the polyline through these points of the sphere lies inside
    the ball, which is convex there (see covering._table_limit).
    """
    w = np.sin(theta)
    c = np.cos(theta)
    u = w * R
    v = 0.5 * u
    i, j = np.searchsorted(u, 0.1), np.searchsorted(v, 1e-6)
    sinc = np.empty_like(u)
    v2 = v[:j] * v[:j]
    sinc[:j] = 1.0 - v2 / 6.0 + v2 * v2 / 120.0
    sinc[j:] = np.sin(v[j:]) / v[j:]
    g = np.empty_like(u)
    u2 = u[:i] * u[:i]
    g[:i] = 1.0 / 6 - u2 / 120 + u2 * u2 / 5040 - u2 * u2 * u2 / 362880
    us = u[i:]
    g[i:] = (us - np.sin(us)) / (us * us * us)
    return c * R * sinc, u + 0.5 * c * c * w * R ** 3 * g


def _profile_fj(R: float, theta: float):
    """The profile and its partials in one pass.

    Returns (X, Z, dX/dtheta, dX/dR, dZ/dtheta, dZ/dR).  With v = u/2 the
    series-switched factors are
        sinc(v) = sin(v)/v,
        g(u) = (u - sin u)/u^3,
        p(u) = (1 - cos u)/u^2,
        q(u) = (2 sin u - u(1 + cos u))/(2 u^3),
        h(v) = (cos v - sinc v)/v^2,
    and the sines and cosines of theta, v and u are taken once.
    """
    w = math.sin(theta)
    c = math.cos(theta)
    u = w * R
    v = 0.5 * u
    sin_v = math.sin(v)
    cos_v = math.cos(v)
    sin_u = math.sin(u)
    cos_u = math.cos(u)
    R3 = R ** 3
    if abs(v) < 1e-6:
        v2 = v * v
        sinc = 1.0 - v2 / 6.0 + v2 * v2 / 120.0
    else:
        sinc = sin_v / v
    if abs(v) < 0.1:
        v2 = v * v
        h = -1.0 / 3 + v2 / 30 - v2 * v2 / 840 + v2 * v2 * v2 / 45360
    else:
        h = (cos_v - sinc) / (v * v)
    if abs(u) < 0.1:
        u2 = u * u
        g = 1.0 / 6 - u2 / 120 + u2 * u2 / 5040 - u2 * u2 * u2 / 362880
        p = 0.5 - u2 / 24 + u2 * u2 / 720 - u2 * u2 * u2 / 40320
        q = 1.0 / 12 - u2 / 80 + u2 * u2 / 2016 - u2 * u2 * u2 / 103680
    else:
        g = (u - sin_u) / (u * u * u)
        p = (1.0 - cos_u) / (u * u)
        q = (2.0 * sin_u - u * (1.0 + cos_u)) / (2.0 * u ** 3)
    X = c * R * sinc
    Z = w * R + 0.5 * c * c * w * R3 * g
    dXdt = 0.25 * c * c * w * R3 * h - 2.0 * sin_v
    dXdR = c * cos_v
    dZdt = c * R3 * q + 0.5 * c * R * (1.0 + cos_u)
    dZdR = w * (1.0 + 0.5 * c * c * R * R * p)
    return X, Z, dXdt, dXdR, dZdt, dZdR


def _profile(R: float, theta: float) -> tuple[float, float]:
    """The profile point (X, Z) alone."""
    return _profile_fj(R, theta)[:2]


# ---------------------------------------------------------------------------
# forward map

@dataclass(frozen=True)
class GeodesicParams:
    """Initial data of a unit-speed geodesic from the origin.

    alpha: heading in [-pi, pi); theta: pitch in [-pi/2, pi/2]; s: arc length.
    """

    alpha: float
    theta: float
    s: float


@dataclass(frozen=True)
class GeodesicSolveResult:
    params: GeodesicParams
    residual: float


def geodesic_xyz(alpha: float, theta: float, s: float) -> Point:
    """Endpoint of the geodesic from the origin with heading alpha, pitch
    theta and arc length s; DomainError unless all three are finite
    numbers."""
    message = "geodesic parameters must be finite numbers"
    alpha, theta, s = [_finite_number(v, message) for v in (alpha, theta, s)]
    r, Z = _profile(s, theta)
    u = math.sin(theta) * s
    psi = 0.5 * u + alpha
    x = r * math.cos(psi)
    y = r * math.sin(psi)
    return (x, y, Z + 0.5 * x * y)


def geodesic_point(g: GeodesicParams) -> Point:
    """Endpoint of the geodesic with initial data g, starting at the origin."""
    return geodesic_xyz(g.alpha, g.theta, g.s)


# ---------------------------------------------------------------------------
# inverse problem

def _newton_profile(rho, zeta, th0, R0):
    """Damped Newton on X(R,th) = rho, Z(R,th) = zeta; zeta >= 0 assumed.

    Returns (theta, R) on success, None on failure.  Each trial point
    costs one _profile_fj call; the Jacobian of the accepted point is kept
    for the next step.
    """
    th, R = th0, R0
    fj = _profile_fj(R, th)
    f1, f2 = fj[0] - rho, fj[1] - zeta
    nrm = math.hypot(f1, f2)
    for _ in range(60):
        if nrm < 1e-13:
            break
        _, _, dXdt, dXdR, dZdt, dZdR = fj
        det = dXdt * dZdR - dXdR * dZdt
        if det == 0.0 or not math.isfinite(det):
            return None
        dth = -(f1 * dZdR - f2 * dXdR) / det
        dR = (f1 * dZdt - f2 * dXdt) / det
        step = 1.0
        for _ in range(30):
            th_n = min(max(th + step * dth, 0.0), 0.5 * PI)
            R_n = min(max(R + step * dR, 1e-9), TWO_PI * 1.05)
            fj_n = _profile_fj(R_n, th_n)
            g1, g2 = fj_n[0] - rho, fj_n[1] - zeta
            n_n = math.hypot(g1, g2)
            if n_n < nrm:
                th, R, fj, f1, f2, nrm = th_n, R_n, fj_n, g1, g2, n_n
                break
            step *= 0.5
        else:
            break
    if nrm < _ROOT_TOL:
        return th, R
    return None


def _relative_target(p1: Point, p2: Point) -> Point:
    """p2 in the frame where p1 sits at the origin."""
    return translate(p2, inverse(p1))


def _reduced(target: Point):
    x, y, z = target
    rho = math.hypot(x, y)
    zeta = z - 0.5 * x * y
    return rho, zeta


def _bracket_profile(rho, zs):
    """The root (theta, s) for a target off the axis and the equator.

    Nested Brent root brackets (_brent._brentq) on the section rule of the
    module docstring: the inner one finds the pitch theta_s(rho) on
    [0, pi/2], the outer one the s in [rho, 2*pi] whose section height
    Z(s, theta_s(rho)) is zs.  The outer one's first evaluation, at
    s = 2*pi, is the exact reach test.
    """
    def pitch(s):
        if rho >= s:  # the section at rho is at most the point zeta = 0
            return 0.0
        return _brentq(lambda t: _profile(s, t)[0] - rho, 0.0, 0.5 * PI,
                       xtol=1e-15)

    def excess(s):
        return _profile(s, pitch(s))[1] - zs

    top = excess(TWO_PI)
    if top < -1e-9:
        raise NoSolutionError("(rho=%g, |zeta|=%g) lies outside the 2*pi ball"
                              % (rho, zs))
    s = TWO_PI if top <= 0.0 else _brentq(excess, rho, TWO_PI, xtol=1e-15)
    return pitch(s), s


def _invert_profile(rho, zeta):
    """The minimizing root (theta, s) for the sheared target (rho, zeta).

    The root solves the profile system for |zeta|, so theta >= 0; callers
    sign it.  The distance is at least rho, and the longest vertical chord
    of the 2*pi ball is 5*pi, so a target with rho > 2*pi or
    |zeta| > 5*pi/2, or a non-finite one, is rejected at once.  The axis
    and the equator have closed forms.  Elsewhere a root with s <= 2*pi is
    minimizing (see the module docstring), so the single Newton run is
    accepted whenever it finds one; when it does not, _bracket_profile
    finds the root or rejects a target outside the 2*pi ball.
    """
    zs = abs(zeta)
    if not (rho <= TWO_PI + 1e-9 and zs <= 2.5 * PI + 1e-9):
        raise NoSolutionError("(rho=%g, |zeta|=%g) lies beyond geodesic reach"
                              % (rho, zs))
    if rho < 1e-14:
        th, s = 0.5 * PI, zs
    elif zs < 1e-14:
        # equatorial target: the profile solve degenerates to theta = 0
        th, s = 0.0, rho
    else:
        th0 = math.atan2(zs, rho)
        R0 = math.hypot(rho, zs)
        root = _newton_profile(rho, zs, min(th0, 0.5 * PI * 0.999),
                               min(R0, TWO_PI))
        if root is not None and root[1] <= TWO_PI + 1e-9:
            return root
        th, s = _bracket_profile(rho, zs)
    if s > TWO_PI + 1e-9:
        raise NoSolutionError("no geodesic of length <= 2*pi reaches "
                              "(rho=%g, |zeta|=%g)" % (rho, zs))
    return th, s


_PAST_FLOAT_RANGE = "a coordinate past the float range is out of reach"
_NOT_A_NUMBER = "point coordinates must be real numbers"
_NOT_A_TRIPLE = "points must be coordinate triples"


def _coordinate(x) -> float:
    """float(x) for a real number (an int, a float or a numpy scalar, not a
    str); DomainError for anything else, NoSolutionError for an int past
    the float range."""
    # float and int first: they pass without the ABC's slower check
    if not isinstance(x, (float, int, numbers.Real)):
        # from None: distance_to_origin asks this while handling the
        # TypeError that such a coordinate raised
        raise DomainError(_NOT_A_NUMBER) from None
    try:
        return float(x)
    except OverflowError:
        raise NoSolutionError(_PAST_FLOAT_RANGE) from None


def _float_points(*points) -> list:
    """The points with float coordinates, as _coordinate reads them; a
    float passes as it is.  A point that is not a sequence of three values
    raises DomainError.  An infinite coordinate is left to the solvers,
    which raise NoSolutionError for it."""
    try:
        return [(x if type(x) is float else _coordinate(x),
                 y if type(y) is float else _coordinate(y),
                 z if type(z) is float else _coordinate(z))
                for x, y, z in points]
    except NilcoverError:  # _coordinate's DomainError is a ValueError too
        raise
    except (TypeError, ValueError):  # the unpacking of a point failed
        raise DomainError(_NOT_A_TRIPLE) from None


def distance_to_origin(p: Point) -> float:
    """Arc length of a minimizing geodesic from the origin to p.

    Raises NoSolutionError when p lies farther than 2*pi from the origin,
    as it does for a coordinate past the float range, and DomainError for
    a p that is no coordinate triple or a coordinate that is no number,
    such as a str.
    """
    try:
        rho, zeta = _reduced(p)
    except OverflowError:  # an int past the float range, as far as inf
        raise NoSolutionError(_PAST_FLOAT_RANGE) from None
    except (TypeError, ValueError):
        _float_points(p)  # raises the DomainError that names the fault
        raise  # p read as three real numbers: the fault is not p's
    return _invert_profile(rho, zeta)[1]


def distance(p1: Point, p2: Point) -> float:
    """Nil distance between two points; NoSolutionError beyond 2*pi."""
    return distance_to_origin(_relative_target(*_float_points(p1, p2)))


def geodesic_between(p1: Point, p2: Point) -> GeodesicSolveResult:
    """Minimizing geodesic taking p1 to p2.

    The search runs in the frame translating p1 to the origin; the returned
    parameters describe the geodesic from p1 directly.  Below arc length
    2*pi the minimizing geodesic is unique; a p2 farther than 2*pi from p1
    raises NoSolutionError.
    """
    target = _relative_target(*_float_points(p1, p2))
    rho, zeta = _reduced(target)
    if rho < 1e-14 and abs(zeta) < 1e-14:
        return GeodesicSolveResult(GeodesicParams(0.0, 0.0, 0.0), 0.0)
    theta, s = _invert_profile(rho, zeta)
    theta = theta if zeta >= 0 else -theta
    alpha = 0.0
    if rho >= 1e-14:
        alpha = math.remainder(math.atan2(target[1], target[0])
                               - 0.5 * (math.sin(theta) * s), TWO_PI)
        if alpha >= PI:  # keep in [-pi, pi)
            alpha -= TWO_PI
    best = GeodesicParams(alpha=alpha, theta=theta, s=s)
    residual = math.dist(geodesic_point(best), target)
    return GeodesicSolveResult(best, residual)
