"""Geodesic spheres and balls: profile, surface, volume, convexity, chords.

The sphere of radius R about the origin is a surface of revolution once the
shear (x,y,z) -> (x,y,z-xy/2) is applied: it is swept by rotating the
profile curve (X(R,theta), Z(R,theta)), theta in [-pi/2, pi/2], about the
z-axis.  All ball-level quantities reduce to one-dimensional work on that
profile.  Spheres only exist for R <= 2*pi.

The profile height Z(R, theta) rises while u = R sin(theta) < pi and falls
after (the fold rule, proved in max_vertical_chord).  The longest vertical
chord, 2R up to R = pi and (R^2 + pi^2)/pi beyond, and the pitch
asin(pi/R) where the sheared ball stops being convex are closed forms of
that one fact; only the volume is an integral, a fixed Gauss-Legendre sum
over the profile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import BALL_CONVEXITY_MAX_RADIUS, M_IMAGE_CONVEXITY_MAX_RADIUS
from .core import Point, m_inverse
from .errors import DomainError, _finite_number, _whole_number
from .geodesic import PI, TWO_PI, _profile, _profile_fj


def _check_radius(R: float, allow_zero=False) -> float:
    R = _finite_number(R, "radius must be a finite number")
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


def _legendre(n: int, x: float):
    """P_n(x) and P_n'(x) by the three-term recurrence."""
    p0, p1 = 1.0, x
    for k in range(2, n + 1):
        p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
    return p1, n * (x * p1 - p0) / (x * x - 1.0)


def _gauss_legendre(n: int):
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1].

    Each node is Newton's root of P_n from the start cos(pi (i + 3/4) /
    (n + 1/2)), and its weight 2 / ((1 - x^2) P_n'(x)^2) is taken at the
    converged node.
    """
    nodes, weights = [], []
    for i in range(n):
        x = math.cos(PI * (i + 0.75) / (n + 0.5))
        dx = 1.0
        while abs(dx) > 1e-15:
            p, dp = _legendre(n, x)
            dx = p / dp
            x -= dx
        _, dp = _legendre(n, x)
        nodes.append(x)
        weights.append(2.0 / ((1.0 - x * x) * dp * dp))
    return nodes, weights


# ball_volume's rule as (pitch, weight) pairs on [0, pi/2]: 17 nodes are the
# fewest that keep the volume within 1e-13 relative of a 30-digit reference
# at every radius in (0, 2*pi] (16 nodes are 1.3e-13 off near R = 5.8)
_VOLUME_NODES = 17
_VOLUME_RULE = tuple((0.25 * PI * (x + 1.0), 0.25 * PI * w)
                     for x, w in zip(*_gauss_legendre(_VOLUME_NODES)))


def ball_volume(R: float) -> float:
    """Volume of the geodesic ball of radius R.

    The model volume element is the Euclidean one, so this is the body of
    revolution of the sheared profile: 2 pi times the integral of
    X^2 dZ/dtheta over theta in [0, pi/2], summed with _VOLUME_RULE (every
    X is 0 at R = 0, so the sum is 0.0 there).
    """
    R = _check_radius(R, allow_zero=True)
    total = 0.0
    for theta, weight in _VOLUME_RULE:
        X, _, _, _, dZdt, _ = _profile_fj(R, theta)
        total += weight * X * X * dZdt
    return TWO_PI * total


def is_ball_convex(R: float) -> bool:
    """Convexity of the ball in model coordinates (exact threshold pi/2)."""
    R = _check_radius(R)
    return R <= BALL_CONVEXITY_MAX_RADIUS


def is_m_image_convex(R: float) -> bool:
    """Convexity of the ball's image under m_map (exact threshold pi)."""
    R = _check_radius(R)
    return R <= M_IMAGE_CONVEXITY_MAX_RADIUS


def first_profile_critical_theta(R: float):
    """First interior zero of dZ/dtheta, or None.

    By the fold rule of max_vertical_chord, dZ/dtheta on (0, pi/2) has the
    sign of cos(u/2), u = R sin(theta), so its one zero is at u = pi:
    theta = asin(pi/R) for R > pi, and none for R <= pi.  An interior
    critical point of the profile height thus appears exactly when the
    sheared ball stops being convex (is_m_image_convex).  The tests check
    the pitch against a sign scan of the profile kernel.
    """
    R = _check_radius(R)
    if R <= PI:
        return None
    return math.asin(PI / R)


def max_vertical_chord(R: float) -> float:
    """Length of the longest chord parallel to the z-axis.

    The shear preserves vertical chords, and in the sheared picture the
    longest one is the symmetric pair +-max Z(R, theta), theta in [0, pi/2].

    The fold rule: with u = R sin(theta) and v = u/2, 1 + cos u = 2 cos^2 v
    and 2 sin u - u(1 + cos u) = 4 cos v (sin v - v cos v), so

        dZ/dtheta = c R^3 q(u) + (1/2) c R (1 + cos u) = c cos(v) B,
        B = R [cos v + R^2 (sin v - v cos v) / (4 v^3)],

    with c = cos(theta).  On (0, pi], sin v - v cos v > 0 (its derivative
    is v sin v), and R^2 >= u^2 = 4 v^2, so B >= R sin(v)/v > 0 for
    u < 2 pi (B = R(1 + R^2/12) at v = 0).  The sign of dZ/dtheta is the
    sign of cos(u/2): Z rises while u < pi and falls after.

    For R <= pi, u stays in [0, pi], so Z rises to its top Z(R, pi/2) = R
    and the chord is the vertical diameter 2R.  Past pi, Z peaks at
    u = pi, where R sin(theta) = pi, cos^2(theta) = 1 - pi^2/R^2 and
    g(pi) = 1/pi^2, so Z = (R^2 + pi^2)/(2 pi) and the chord is
    (R^2 + pi^2)/pi: 13 pi/4 at R = 3 pi/2 and 5 pi at R = 2 pi.
    """
    R = _check_radius(R)
    if R <= PI:
        return 2.0 * R
    return (R * R + PI * PI) / PI


@dataclass(frozen=True)
class SphereMesh:
    vertices: tuple
    faces: tuple
    resolution: tuple


def sphere_mesh(R: float, n_theta: int, n_phi: int, m_image=False) -> SphereMesh:
    """Watertight triangle mesh of the sphere on a (theta, phi) grid.

    n_theta+1 latitude rings plus two pole vertices; 2*n_phi*(n_theta+1)
    triangles.  n_theta and n_phi are integers of at least 4; an integral
    float is taken as that integer.  With m_image=True vertices are emitted
    in the sheared coordinates instead of model coordinates.
    """
    R = _check_radius(R)
    message = "mesh resolution must be integers of at least 4"
    n_theta = _whole_number(n_theta, 4, math.inf, message)
    n_phi = _whole_number(n_phi, 4, math.inf, message)
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
