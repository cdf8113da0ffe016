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

The reach rule is exact.  X(2*pi, theta) falls strictly from 2*pi to 0 on
[0, pi/2], so the 2*pi sphere's profile is a graph over rho: with theta*
the root of X(2*pi, theta*) = rho, the closed 2*pi ball is the set of
(rho, zeta) with rho <= 2*pi and |zeta| <= Z(2*pi, theta*).  A target
outside it (past a 1e-9 margin) has no root with s <= 2*pi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.optimize import brentq

from .core import Point, inverse, translate
from .errors import NoSolutionError

PI = math.pi
TWO_PI = 2.0 * math.pi

# Newton acceptance threshold for the profile system residual
_ROOT_TOL = 1e-10
# dedup tolerance for distinct (theta, s) roots
_BRANCH_TOL = 1e-7


# ---------------------------------------------------------------------------
# scalar kernels, series-switched near zero so everything stays smooth

def _sinc(v: float) -> float:
    if abs(v) < 1e-6:
        v2 = v * v
        return 1.0 - v2 / 6.0 + v2 * v2 / 120.0
    return math.sin(v) / v


def _g(u: float) -> float:
    # (u - sin u) / u^3
    if abs(u) < 0.1:
        u2 = u * u
        return 1.0 / 6 - u2 / 120 + u2 * u2 / 5040 - u2 * u2 * u2 / 362880
    return (u - math.sin(u)) / (u * u * u)


def _p(u: float) -> float:
    # (1 - cos u) / u^2
    if abs(u) < 0.1:
        u2 = u * u
        return 0.5 - u2 / 24 + u2 * u2 / 720 - u2 * u2 * u2 / 40320
    return (1.0 - math.cos(u)) / (u * u)


def _q(u: float) -> float:
    # (2 sin u - u (1 + cos u)) / (2 u^3)
    if abs(u) < 0.1:
        u2 = u * u
        return 1.0 / 12 - u2 / 80 + u2 * u2 / 2016 - u2 * u2 * u2 / 103680
    return (2.0 * math.sin(u) - u * (1.0 + math.cos(u))) / (2.0 * u ** 3)


def _h(v: float) -> float:
    # (cos v - sinc v) / v^2
    if abs(v) < 0.1:
        v2 = v * v
        return -1.0 / 3 + v2 / 30 - v2 * v2 / 840 + v2 * v2 * v2 / 45360
    return (math.cos(v) - _sinc(v)) / (v * v)


# ---------------------------------------------------------------------------
# profile of the sphere's shear image and its derivatives

def _profile(R: float, theta: float) -> tuple[float, float]:
    w = math.sin(theta)
    c = math.cos(theta)
    u = w * R
    X = c * R * _sinc(0.5 * u)
    Z = w * R + 0.5 * c * c * w * R ** 3 * _g(u)
    return X, Z


def _profile_dz(R: float, theta: float) -> float:
    """dZ/dtheta at fixed R; smooth on the closed interval."""
    w = math.sin(theta)
    c = math.cos(theta)
    u = w * R
    return c * R ** 3 * _q(u) + 0.5 * c * R * (1.0 + math.cos(u))


def _profile_jacobian(R: float, theta: float):
    """Returns (dX/dtheta, dX/dR, dZ/dtheta, dZ/dR)."""
    w = math.sin(theta)
    c = math.cos(theta)
    u = w * R
    dXdR = c * math.cos(0.5 * u)
    dZdR = w * (1.0 + 0.5 * c * c * R * R * _p(u))
    dXdt = 0.25 * c * c * w * R ** 3 * _h(0.5 * u) - 2.0 * math.sin(0.5 * u)
    dZdt = _profile_dz(R, theta)
    return dXdt, dXdR, dZdt, dZdR


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
    w = math.sin(theta)
    c = math.cos(theta)
    u = w * s
    r = c * s * _sinc(0.5 * u)
    psi = 0.5 * u + alpha
    x = r * math.cos(psi)
    y = r * math.sin(psi)
    z = w * s + 0.5 * c * c * w * s ** 3 * _g(u) + 0.5 * x * y
    return (x, y, z)


def geodesic_point(g: GeodesicParams) -> Point:
    """Endpoint of the geodesic with initial data g, starting at the origin."""
    return geodesic_xyz(g.alpha, g.theta, g.s)


# ---------------------------------------------------------------------------
# inverse problem

def _newton_profile(rho, zeta, th0, R0, itmax=60):
    """Damped Newton on X(R,th) = rho, Z(R,th) = zeta; zeta >= 0 assumed.

    Returns (theta, R) on success, None on failure.
    """
    th, R = th0, R0

    def residual(th, R):
        X, Z = _profile(R, th)
        return X - rho, Z - zeta

    f1, f2 = residual(th, R)
    nrm = math.hypot(f1, f2)
    for _ in range(itmax):
        if nrm < 1e-13:
            break
        dXdt, dXdR, dZdt, dZdR = _profile_jacobian(R, th)
        det = dXdt * dZdR - dXdR * dZdt
        if det == 0.0 or not math.isfinite(det):
            return None
        dth = -(f1 * dZdR - f2 * dXdR) / det
        dR = (f1 * dZdt - f2 * dXdt) / det
        step = 1.0
        improved = False
        for _ in range(30):
            th_n = min(max(th + step * dth, 0.0), 0.5 * PI)
            R_n = min(max(R + step * dR, 1e-9), TWO_PI * 1.05)
            g1, g2 = residual(th_n, R_n)
            n_n = math.hypot(g1, g2)
            if n_n < nrm:
                th, R, f1, f2, nrm = th_n, R_n, g1, g2, n_n
                improved = True
                break
            step *= 0.5
        if not improved:
            break
    if nrm < _ROOT_TOL:
        return th, R
    return None


def _all_profile_roots(rho, zeta):
    """Multistart sweep: every distinct (theta, s) with the target profile."""
    roots = []
    for i in range(1, 18):
        th0 = 0.5 * PI * i / 17.0
        for R0 in (0.3, 0.8, 1.5, 2.4, 3.2, 4.2, 5.2, 6.28):
            sol = _newton_profile(rho, zeta, th0, R0)
            if sol is None:
                continue
            if not any(abs(sol[0] - r[0]) < _BRANCH_TOL
                       and abs(sol[1] - r[1]) < _BRANCH_TOL for r in roots):
                roots.append(sol)
    roots.sort(key=lambda r: (r[1], r[0]))
    return roots


def _relative_target(p1: Point, p2: Point) -> Point:
    """p2 in the frame where p1 sits at the origin."""
    return translate(p2, inverse(p1))


def _reduced(target: Point):
    x, y, z = target
    rho = math.hypot(x, y)
    zeta = z - 0.5 * x * y
    return rho, zeta


def _check_reach(rho, zs):
    """Raise NoSolutionError unless (rho, zs) lies in the closed 2*pi ball.

    Exact (see the module docstring): the 2*pi sphere's profile height at
    rho is Z(2*pi, theta*) with X(2*pi, theta*) = rho, theta* on [0, pi/2].
    """
    if rho >= TWO_PI:
        theta = 0.0
    else:
        theta = brentq(lambda t: _profile(TWO_PI, t)[0] - rho,
                       0.0, 0.5 * PI, xtol=1e-15)
    if zs > _profile(TWO_PI, theta)[1] + 1e-9:
        raise NoSolutionError("(rho=%g, |zeta|=%g) lies outside the 2*pi ball"
                              % (rho, zs))


def _invert_profile(rho, zeta):
    """The minimizing root (theta, s) for the sheared target (rho, zeta).

    The root solves the profile system for |zeta|, so theta >= 0; callers
    sign it.  The reach rule has a cheap and an exact form.  The distance
    is at least rho, and the longest vertical chord of the 2*pi ball is
    5*pi, so a target with rho > 2*pi or |zeta| > 5*pi/2 is rejected at
    once.  A root with s <= 2*pi is minimizing (see the module docstring):
    the single Newton run is accepted whenever it finds one.  When it does
    not, the exact test rejects a target with |zeta| > Z(2*pi, theta*) + 1e-9,
    where X(2*pi, theta*) = rho, and the multistart sweep runs only for
    targets inside the 2*pi ball.
    """
    zs = abs(zeta)
    if rho > TWO_PI + 1e-9 or zs > 2.5 * PI + 1e-9:
        raise NoSolutionError("(rho=%g, |zeta|=%g) lies beyond geodesic reach"
                              % (rho, zs))
    if rho < 1e-14:
        root = (0.5 * PI, zs)
    elif zs < 1e-14:
        # equatorial target: the profile solve degenerates to theta = 0
        root = (0.0, rho)
    else:
        th0 = math.atan2(zs, rho)
        R0 = math.hypot(rho, zs)
        root = _newton_profile(rho, zs, min(th0, 0.5 * PI * 0.999),
                               min(R0, TWO_PI))
        if root is None or root[1] > TWO_PI + 1e-9:
            _check_reach(rho, zs)
            roots = _all_profile_roots(rho, zs)
            root = roots[0] if roots else None
    if root is None or root[1] > TWO_PI + 1e-9:
        raise NoSolutionError("no geodesic of length <= 2*pi reaches "
                              "(rho=%g, |zeta|=%g)" % (rho, zs))
    return root


def distance_to_origin(p: Point) -> float:
    """Arc length of a minimizing geodesic from the origin to p.

    Raises NoSolutionError when p lies farther than 2*pi from the origin.
    """
    return _invert_profile(*_reduced(p))[1]


def distance(p1: Point, p2: Point) -> float:
    """Nil distance between two points; NoSolutionError beyond 2*pi."""
    return distance_to_origin(_relative_target(p1, p2))


def _params_from_root(theta, s, target: Point) -> GeodesicParams:
    x, y, z = target
    rho, zeta = _reduced(target)
    th_signed = theta if zeta >= 0 else -theta
    if rho < 1e-14:
        alpha = 0.0
    else:
        u = math.sin(th_signed) * s
        alpha = math.remainder(math.atan2(y, x) - 0.5 * u, TWO_PI)
        if alpha >= PI:  # keep in [-pi, pi)
            alpha -= TWO_PI
    return GeodesicParams(alpha=alpha, theta=th_signed, s=s)


def geodesic_between(p1: Point, p2: Point) -> GeodesicSolveResult:
    """Minimizing geodesic taking p1 to p2.

    The search runs in the frame translating p1 to the origin; the returned
    parameters describe the geodesic from p1 directly.  Below arc length
    2*pi the minimizing geodesic is unique; a p2 farther than 2*pi from p1
    raises NoSolutionError.
    """
    target = _relative_target(p1, p2)
    rho, zeta = _reduced(target)
    if rho < 1e-14 and abs(zeta) < 1e-14:
        return GeodesicSolveResult(GeodesicParams(0.0, 0.0, 0.0), 0.0)
    best = _params_from_root(*_invert_profile(rho, zeta), target)
    residual = math.dist(geodesic_point(best), target)
    return GeodesicSolveResult(best, residual)
