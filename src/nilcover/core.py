"""Translations, rotations and the shear map of the Nil model.

Points live in affine coordinates (x, y, z).  A translation carrying the
origin to (x, y, z) acts on a point (a, b, c) as

    (a, b, c) -> (a + x, b + y, c + b*x + z)

which is the row-by-matrix action of the Heisenberg group on itself.  The
z-axis direction is the fibre: translations (0, 0, z) are central.

Rotations about the z-axis are quadratic in model coordinates, but become
linear after conjugating by the volume-preserving shear

    M: (x, y, z) -> (x, y, z - x*y/2).

The group maps translate, compose, inverse and power are plain
arithmetic on the coordinates, so they work elementwise on triples of numpy
arrays (for example pts.T of an (N, 3) array) and broadcast like numpy
operands; power also takes an integer array of exponents.
"""

from __future__ import annotations

import math

Point = tuple[float, float, float]

ORIGIN: Point = (0.0, 0.0, 0.0)
IDENTITY: Point = (0.0, 0.0, 0.0)


def translate(p: Point, t: Point) -> Point:
    """Apply the translation with parameters t to the point p."""
    a, b, c = p
    x, y, z = t
    return (a + x, b + y, c + b * x + z)


def compose(ta: Point, tb: Point) -> Point:
    """Translation doing ta first, then tb: translate(p, compose(ta, tb))
    == translate(translate(p, ta), tb)."""
    return (ta[0] + tb[0], ta[1] + tb[1], ta[2] + tb[2] + ta[1] * tb[0])


def inverse(t: Point) -> Point:
    x, y, z = t
    return (-x, -y, x * y - z)


def commutator(t1: Point, t2: Point) -> Point:
    """t2^-1 t1^-1 t2 t1, always a fibre translation (0, 0, *)."""
    return (0.0, 0.0, t1[0] * t2[1] - t2[0] * t1[1])


def power(t: Point, n: int) -> Point:
    """Integer power t^n in closed form."""
    x, y, z = t
    # the z drift accumulates a triangular-number shear term
    return (n * x, n * y, n * z + 0.5 * n * (n - 1) * x * y)


def rotate_z(p: Point, omega: float) -> Point:
    """Isometric rotation by omega about the z-axis through the origin.

    Quadratic in (x, y); equal to m_inverse . linear rotation . m_map.
    """
    x, y, z = p
    co, si = math.cos(omega), math.sin(omega)
    xr = x * co - y * si
    yr = x * si + y * co
    zr = z - 0.5 * x * y + 0.5 * xr * yr
    return (xr, yr, zr)


def m_map(p: Point) -> Point:
    """The shear (x, y, z) -> (x, y, z - xy/2); linearizes rotations."""
    x, y, z = p
    return (x, y, z - 0.5 * x * y)


def m_inverse(p: Point) -> Point:
    x, y, z = p
    return (x, y, z + 0.5 * x * y)


def line_reflect_y(p: Point) -> Point:
    """Involutive isometry: half-turn about the y-axis, (x,y,z) -> (-x,y,-z)."""
    x, y, z = p
    return (-x, y, -z)
