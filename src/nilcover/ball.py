"""Geodesic spheres and balls: profile, surface, volume, convexity, chords.

The sphere of radius R about the origin is a surface of revolution once the
shear (x,y,z) -> (x,y,z-xy/2) is applied: it is swept by rotating the
profile curve (X(R,theta), Z(R,theta)), theta in [-pi/2, pi/2], about the
z-axis.  All ball-level quantities reduce to one-dimensional work on that
profile.  Spheres only exist for R <= 2*pi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.optimize import minimize_scalar

from .constants import BALL_CONVEXITY_MAX_RADIUS, M_IMAGE_CONVEXITY_MAX_RADIUS
from .core import Point, m_inverse
from .errors import DomainError
from .geodesic import PI, TWO_PI, _profile, _profile_fj


def _check_radius(R: float, allow_zero=False) -> float:
    R = float(R)
    if not math.isfinite(R):
        raise DomainError("radius must be finite")
    if R > TWO_PI + 1e-12:
        raise DomainError("no geodesic sphere of radius %g > 2*pi" % R)
    if R < 0.0 or (R == 0.0 and not allow_zero):
        raise DomainError("radius must be positive")
    return R


@dataclass(frozen=True)
class ProfilePoint:
    X: float
    Z: float


def sphere_profile(R: float, theta: float) -> ProfilePoint:
    """Profile of the sheared sphere: X is the axis distance, Z the height."""
    R = _check_radius(R)
    if not -0.5 * PI - 1e-12 <= theta <= 0.5 * PI + 1e-12:
        raise DomainError("theta must lie in [-pi/2, pi/2]")
    X, Z = _profile(R, theta)
    return ProfilePoint(X, Z)


def sphere_point(R: float, theta: float, phi: float) -> Point:
    """A point of the geodesic sphere in model coordinates."""
    p = sphere_profile(R, theta)
    return m_inverse((p.X * math.cos(phi), p.X * math.sin(phi), p.Z))


def ball_volume(R: float) -> float:
    """Volume of the geodesic ball of radius R (the model volume element is
    the Euclidean one, so this is a body-of-revolution integral over the
    sheared profile)."""
    R = _check_radius(R, allow_zero=True)
    if R == 0.0:
        return 0.0

    def integrand(theta):
        X, _, _, _, dZdt, _ = _profile_fj(R, theta)
        return X * X * dZdt

    val, _err = quad(integrand, 0.0, 0.5 * PI, epsabs=1e-13, epsrel=1e-12, limit=200)
    return TWO_PI * val


def is_ball_convex(R: float) -> bool:
    """Convexity of the ball in model coordinates (exact threshold pi/2)."""
    R = _check_radius(R)
    return R <= BALL_CONVEXITY_MAX_RADIUS


def is_m_image_convex(R: float) -> bool:
    """Convexity of the ball's image under m_map (exact threshold pi)."""
    R = _check_radius(R)
    return R <= M_IMAGE_CONVEXITY_MAX_RADIUS


def first_profile_critical_theta(R: float, n=4000):
    """First interior zero of dZ/dtheta, or None.

    Diagnostic cross-check for is_m_image_convex: an interior critical
    point of the profile height appears exactly when the sheared ball stops
    being convex.
    """
    R = _check_radius(R)
    thetas = np.linspace(1e-4, 0.5 * PI - 1e-4, n)
    vals = np.array([_profile_fj(R, t)[4] for t in thetas])
    idx = np.where(np.diff(np.sign(vals)) != 0)[0]
    if len(idx) == 0:
        return None
    return float(thetas[idx[0]])


def max_vertical_chord(R: float) -> float:
    """Length of the longest chord parallel to the z-axis.

    The shear preserves vertical chords, and in the sheared picture the
    longest one is the symmetric pair +-max Z(R, theta).

    For R <= pi the chord is the vertical diameter 2R.  There u = R sin(theta)
    lies in [0, pi] and

        dZ/dtheta = c R^3 q(u) + (1/2) c R (1 + cos u) >= 0,

    because 2 sin u - u(1 + cos u) = 4 cos(u/2) (sin(u/2) - (u/2) cos(u/2))
    is >= 0 on [0, pi] (tan x >= x on [0, pi/2)), so q(u) >= 0.  Z then
    rises to its top Z(R, pi/2) = R.  Past pi the top is found numerically.
    """
    R = _check_radius(R)
    if R <= PI:
        return 2.0 * R
    res = minimize_scalar(lambda t: -_profile(R, t)[1], bounds=(0.0, 0.5 * PI),
                          method="bounded", options={"xatol": 1e-12})
    zmax = max(-res.fun, _profile(R, 0.5 * PI)[1])
    return 2.0 * zmax


@dataclass(frozen=True)
class SphereMesh:
    vertices: tuple
    faces: tuple
    resolution: tuple


def sphere_mesh(R: float, n_theta: int, n_phi: int, m_image=False) -> SphereMesh:
    """Watertight triangle mesh of the sphere on a (theta, phi) grid.

    n_theta+1 latitude rings plus two pole vertices; 2*n_phi*(n_theta+1)
    triangles.  With m_image=True vertices are emitted in the sheared
    coordinates instead of model coordinates.
    """
    R = _check_radius(R)
    if n_theta < 4 or n_phi < 4:
        raise DomainError("mesh resolution must be at least 4x4")
    rings = n_theta + 1
    verts = []
    for i in range(rings):
        theta = -0.5 * PI + (i + 1) * PI / (n_theta + 2)
        X, Z = _profile(R, theta)
        for j in range(n_phi):
            phi = TWO_PI * j / n_phi - PI
            p = (X * math.cos(phi), X * math.sin(phi), Z)
            verts.append(p if m_image else m_inverse(p))
    south = len(verts)
    verts.append((0.0, 0.0, -R))
    north = len(verts)
    verts.append((0.0, 0.0, R))

    faces = []
    for i in range(rings - 1):
        for j in range(n_phi):
            a = i * n_phi + j
            b = i * n_phi + (j + 1) % n_phi
            c = (i + 1) * n_phi + j
            d = (i + 1) * n_phi + (j + 1) % n_phi
            faces.append((a, b, d))
            faces.append((a, d, c))
    for j in range(n_phi):
        a = j
        b = (j + 1) % n_phi
        faces.append((south, b, a))
        base = (rings - 1) * n_phi
        faces.append((north, base + a, base + b))
    return SphereMesh(tuple(verts), tuple(faces), (n_theta, n_phi))


def mesh_to_obj(mesh: SphereMesh) -> str:
    lines = []
    for v in mesh.vertices:
        lines.append("v %.17g %.17g %.17g" % v)
    for f in mesh.faces:
        lines.append("f %d %d %d" % (f[0] + 1, f[1] + 1, f[2] + 1))
    return "\n".join(lines) + "\n"


def hull_gap(mesh: SphereMesh) -> float:
    """Greatest depth of a mesh vertex strictly inside the Euclidean convex
    hull of all vertices; ~0 exactly when the surface is convex."""
    from scipy.spatial import ConvexHull

    pts = np.asarray(mesh.vertices, float)
    hull = ConvexHull(pts)
    # hull equations give outward normals: eq . (x, 1) <= 0 inside
    vals = pts @ hull.equations[:, :3].T + hull.equations[:, 3]
    depth = -np.max(vals, axis=1)
    return float(np.max(depth))
