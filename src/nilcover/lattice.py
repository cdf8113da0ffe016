"""Discrete translation lattices and their fundamental parallelepipeds.

A lattice is generated by two translations whose horizontal projections are
independent; their commutator is a vertical translation, and taking its k-th
root as a third generator tau3 closes the group.  The fundamental domain is
the parallelepiped {a*t1 + b*t2 + c*tau3 : a, b, c in [0, 1]} as vectors, a
skew solid with vertical sides cut into six tetrahedra.  It tiles the space
under the lattice action for every k (tiling_spot_check samples this).
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Set
from dataclasses import dataclass

import numpy as np

from .core import Point, compose, inverse, power, rotate_z
from .errors import (DegenerateLatticeError, DomainError, _finite_number,
                     _whole_number)

_DEGENERATE_TOL = 1e-12
# largest shell index: the words are enumerated up front, (2n+1)^3 of them
_MAX_SHELL = 50
# point-word pairs tested at once by the tiling check: memory stays
# bounded at any sample count
_TILING_CHUNK = 4096


@dataclass(frozen=True)
class LatticeBasis:
    """Raw generator parameters: two translations and the fibre divisor k."""

    t1: Point
    t2: Point
    k: int = 1

    def __post_init__(self):
        triples = "generators must be coordinate triples"
        # a mapping or a set unpacks too, but in no coordinate order, and
        # bytes unpack to character codes
        if any(isinstance(t, (Mapping, Set, bytes, bytearray))
               for t in (self.t1, self.t2)):
            raise DomainError(triples)
        try:
            (x1, y1, z1), (x2, y2, z2) = self.t1, self.t2
        except (TypeError, ValueError):  # such as 5, None or a pair
            raise DomainError(triples) from None
        message = "generator components must be finite numbers"
        for name, t in (("t1", (x1, y1, z1)), ("t2", (x2, y2, z2))):
            object.__setattr__(self, name, tuple(
                [_finite_number(v, message) for v in t]))
        object.__setattr__(self, "k", _whole_number(
            self.k, 1, math.inf, "k must be a positive integer"))

    def to_dict(self) -> dict:
        return {"t1": list(self.t1), "t2": list(self.t2), "k": self.k}

    @classmethod
    def from_dict(cls, data: Mapping) -> "LatticeBasis":
        """The basis of to_dict's mapping: generators t1 and t2 and an
        optional k (1 if absent), read as the constructor reads them.
        Data that is no mapping with keys t1 and t2 raises DomainError."""
        if not (isinstance(data, Mapping) and "t1" in data and "t2" in data):
            raise DomainError("a lattice basis is a mapping with keys t1 and "
                              "t2, and optionally k")
        return cls(data["t1"], data["t2"], data.get("k", 1))


@dataclass(frozen=True)
class Lattice:
    """A validated lattice, rotated so the first generator points along x.

    rotation is the z-rotation angle that was applied to the input basis;
    it is an isometry, so all metric quantities agree with the raw basis.
    """

    basis: LatticeBasis
    t1: Point
    t2: Point
    k: int
    rotation: float

    @property
    def fibre(self) -> float:
        """Vertical translation length generated by the commutator."""
        return self.t1[0] * self.t2[1]

    @property
    def tau3(self) -> Point:
        return (0.0, 0.0, self.fibre / self.k)


def lattice_from_params(basis: LatticeBasis) -> Lattice:
    area = basis.t1[0] * basis.t2[1] - basis.t2[0] * basis.t1[1]
    if abs(area) < _DEGENERATE_TOL:
        raise DegenerateLatticeError(
            "generators project to parallel directions; commutator is trivial")
    omega = -math.atan2(basis.t1[1], basis.t1[0]) + 0.0
    t1 = rotate_z(basis.t1, omega)
    t1 = (t1[0], 0.0, t1[2])
    t2 = rotate_z(basis.t2, omega)
    if t2[1] < 0.0:
        # swap tau2 for its inverse so the fibre comes out positive
        t2 = inverse(t2)
    return Lattice(basis, t1, t2, basis.k, omega)


@dataclass(frozen=True)
class FundamentalDomain:
    """The nine labeled vertices of the fundamental solid.

    O, T1, T2, T3 are the origin and the three generator images; the rest
    are the composite words.  The eight other than T213 are the corners of
    the parallelepiped that the six tetrahedra fill; T213 = T21 tau3 lies
    one step of tau3 above the corner T21.
    """

    O: Point
    T1: Point
    T2: Point
    T3: Point
    T12: Point
    T13: Point
    T21: Point
    T23: Point
    T213: Point

    def as_dict(self) -> dict:
        """The vertices by label, in field order (a shallow copy)."""
        return dict(vars(self))


def fundamental_domain(lattice: Lattice) -> FundamentalDomain:
    """The nine vertices of the lattice's fundamental solid.

    In lattice coordinates (u, v, h), with p = u*t1 + v*t2 + h*tau3 as
    vectors, the eight vertices of the six tetrahedra are the corners of
    the unit cube for every k, and T213 lies at (1, 1, 2).  T21 = T12 tau3
    is one step of tau3 above T12; the label is that of k = 1, the only k
    where it equals tau2 tau1 (tau2 tau1 = tau1 tau2 tau3^k).  The tiling
    check takes its solid from here (_tiling_table).
    """
    (t11, _, t13), (t21, t22, t23) = lattice.t1, lattice.t2
    vk = lattice.tau3[2]
    return FundamentalDomain(
        O=(0.0, 0.0, 0.0),
        T1=(t11, 0.0, t13),
        T2=(t21, t22, t23),
        T3=(0.0, 0.0, vk),
        T12=(t11 + t21, t22, t13 + t23),
        T13=(t11, 0.0, t13 + vk),
        T21=(t11 + t21, t22, vk + t13 + t23),
        T23=(t21, t22, t23 + vk),
        T213=(t11 + t21, t22, 2.0 * vk + t13 + t23),
    )


def domain_volume(lattice: Lattice) -> float:
    """Volume of the fundamental domain: (projected area)^2 / k."""
    v = lattice.fibre
    return v * v / lattice.k


# Tetrahedra that fill the eight-vertex parallelepiped exactly once.  Five
# of them share the short diagonal T1-T23; the sixth is the corner at O.
DOMAIN_TETRAHEDRA = (
    ("O", "T1", "T2", "T3"),
    ("T1", "T2", "T12", "T23"),
    ("T1", "T2", "T3", "T23"),
    ("T1", "T12", "T23", "T21"),
    ("T1", "T3", "T13", "T23"),
    ("T1", "T13", "T23", "T21"),
)


def domain_tetrahedra(lattice: Lattice) -> tuple:
    verts = fundamental_domain(lattice).as_dict()
    return tuple(tuple(verts[label] for label in tet) for tet in DOMAIN_TETRAHEDRA)


def _exponent_grid(n: int) -> tuple:
    """The exponents (a, b, c) of the shell-n words, lexicographic, as float
    arrays; power gives the same bits with them as with integers."""
    idx = np.arange(-n, n + 1, dtype=float)
    return tuple(g.ravel() for g in np.meshgrid(idx, idx, idx, indexing="ij"))


# the shell-2 grid of every sampling check; other shells build theirs per
# call (shell 50's would pin about 41 MB)
_SHELL2_GRID = _exponent_grid(2)


def _shell_words(lattice: Lattice, n: int) -> np.ndarray:
    """Words tau1^a tau2^b tau3^c, |a|,|b|,|c| <= n, as a (3, (2n+1)^3)
    coordinate array, lexicographic in (a, b, c).

    Distinct exponents give distinct points: the xy-projection fixes (a, b)
    because the projected generators are independent, and then z fixes c.
    """
    n = _whole_number(n, 0, _MAX_SHELL,
                      "shell index must be an integer in [0, %d]" % _MAX_SHELL)
    a, b, c = _SHELL2_GRID if n == 2 else _exponent_grid(n)
    return np.array(compose(compose(power(lattice.t1, a), power(lattice.t2, b)),
                            power(lattice.tau3, c)))


def lattice_points_in_shell(lattice: Lattice, n: int) -> list:
    """Orbit of the origin under words tau1^a tau2^b tau3^c, |a|,|b|,|c| <= n.

    Lexicographic in (a, b, c), (2n+1)^3 points; n is capped at 50 (about a
    million points).
    """
    return list(zip(*_shell_words(lattice, n).tolist()))


@dataclass(frozen=True)
class TilingReport:
    samples: int
    gaps: int
    overlaps: int

    @property
    def violations(self) -> int:
        return self.gaps + self.overlaps

    @property
    def ok(self) -> bool:
        return self.violations == 0


def _translated_coordinates(lattice: Lattice, u, v, h, a, b) -> tuple:
    """Lattice coordinates of translate(p, inverse(tau1^a tau2^b)), given
    p's lattice coordinates (u, v, h) (see tiling_spot_check).

    The projection moves by (-a, -b).  The height drops by the group law's
    fibre terms, x*y + b(b - 1)/2 * t21*t22 over tau, where x = a*t11 +
    b*t21 is the word's x and y = v*t22 the new point's y; t1 lies on the
    x-axis, as lattice_from_params puts it.  Works elementwise on
    broadcasting arrays.
    """
    (t11, _, _), (t21, t22, _), tau = lattice.t1, lattice.t2, lattice.tau3[2]
    u, v = u - a, v - b
    return u, v, h - ((a * t11 + b * t21) * v * (t22 / tau)
                      + b * (b - 1.0) * (0.5 * t21 * t22 / tau))


def _lattice_coordinates(lattice: Lattice, x, y, z) -> tuple:
    """Lattice coordinates (u, v, h) of the point (x, y, z), that is
    (x, y, z) = u*t1 + v*t2 + h*tau3 as vectors (see tiling_spot_check).

    A closed form: t1 lies on the x-axis, as lattice_from_params puts it,
    so y fixes v, then x fixes u and z fixes h.  Works elementwise on
    broadcasting arrays.
    """
    (t11, _, t13), (t21, t22, t23), tau = lattice.t1, lattice.t2, lattice.tau3[2]
    v = y / t22
    u = (x - v * t21) / t11
    return u, v, (z - u * t13 - v * t23) / tau


def _tiling_table() -> np.ndarray:
    """The barycentric maps of the tiling check's six tetrahedra.

    In lattice coordinates the solid is the same for every lattice (see
    fundamental_domain), so its tetrahedra are those of the unit lattice,
    whose coordinates are the lattice coordinates themselves, small
    integers.  The maps act on the homogeneous lattice coordinates
    (1, u, v, h) as one read-only (24, 4) array; rows by barycentric
    coordinate, then tetrahedron.
    """
    homog = np.ones((6, 4, 4))
    homog[..., 1:] = domain_tetrahedra(lattice_from_params(
        LatticeBasis((1.0, 0.0, 0.0), (0.0, 1.0, 0.0))))
    bary = np.linalg.inv(homog).transpose(2, 0, 1).reshape(24, 4)
    bary.setflags(write=False)
    return bary


_TILING_BARY = _tiling_table()


def tiling_spot_check(lattice: Lattice, samples: int = 1000,
                      seed: int = 0) -> TilingReport:
    """Sample the domain's bounding box and count how many lattice translates
    of the fundamental solid contain each point.

    A correct tiling gives exactly one containing translate almost surely;
    a gap (none) or an overlap (two or more interiors) is a violation.
    Boundary grazing is excluded by an eps band: a point is loosely in a
    tetrahedron when its four barycentric coordinates are all at least
    -eps, and strictly in it when they are all at least eps.

    The samples are uniform draws of numpy's default generator seeded
    with seed, a nonnegative integer; like the sample count, it may be
    given as an integral float.  They are drawn and tested _TILING_CHUNK
    point-word pairs at a time, so memory stays bounded at any count.

    Each point is tested only against the translates that can hold it, so
    the counts equal those of a sweep over all lattice words: there is no
    shell cap.  The point p lies in the translate by w = tau1^a tau2^b
    tau3^c when its local point translate(p, inverse(w)) lies in the solid.
    Take lattice coordinates (u, v, h), with p = u*t1 + v*t2 + h*tau3 as
    vectors: (u, v) is the projection in the (t1, t2) basis and h the
    height above the plane of the bottom face O T1 T2 T12, in units of
    tau3.  The local point has (u, v) = (U - a, V - b), where (U, V) is p's,
    and since tau3 is central, c lowers its height by exactly c.

    In these coordinates the solid is the same for every lattice: the unit
    cube, cut into the six tetrahedra (see fundamental_domain).  So their
    barycentric maps are built once, at import (_tiling_table), and each
    call only maps its samples to lattice coordinates, in closed form.

    A point of a tetrahedron inflated by eps is an affine combination of
    its vertices with weights of at least -eps, at most three of them
    negative, so each lattice coordinate stays within 3*eps of the
    vertices' range [0, 1] of that coordinate, h included.  So for a
    margin delta >= 3*eps, the exponents

        n = floor(q + delta) - j,   j = 0, 1

    with q = U for a, q = V for b, and q = the local height of tau1^a tau2^b
    for c, include every word whose inflated translate contains p: two
    values each of a, b and c, where all but one of each only serve points
    within delta of a cell's face.  delta = 1e-6 leaves a thousand times
    eps for rounding.  Both counts are therefore exact.
    """
    samples = _whole_number(samples, 1, math.inf,
                            "sample count must be a positive integer")
    seed = _whole_number(seed, 0, math.inf,
                         "seed must be a nonnegative integer")
    # the margin -delta and the steps j of the docstring, alike for u, v, h
    start, steps = -1e-6, np.array([0.0, 1.0])
    # the tetrahedra's bounding box: T213, the last vertex, which they do not
    # use, lies above
    corners = np.array(list(vars(fundamental_domain(lattice)).values())[:8])
    lo, hi = corners.min(axis=0), corners.max(axis=0)
    rng = np.random.default_rng(seed)

    chunk = _TILING_CHUNK // 8  # eight candidate words per point
    eps = 1e-9
    bands = np.array([-eps, eps])[:, None, None]
    gaps = overlaps = 0
    for first in range(0, samples, chunk):
        # drawn a chunk at a time: the same stream as one draw of them all
        pts = lo + (hi - lo) * rng.random((min(chunk, samples - first), 3))
        u, v, h = _lattice_coordinates(lattice, *pts.T[:, :, None, None])
        a = np.floor(u - start) - steps[:, None]
        b = np.floor(v - start) - steps
        u, v, h = _translated_coordinates(lattice, u, v, h, a, b)
        h = h[..., None] - (np.floor(h - start)[..., None] - steps)
        # axes (coordinate, point, a, b, c)
        local = np.ones((4,) + h.shape)
        local[1], local[2], local[3] = u[..., None], v[..., None], h
        # depth: the least barycentric coordinate in the tetrahedron where
        # it is largest, one per point and word
        depth = (_TILING_BARY @ local.reshape(4, -1)).reshape(4, 6, -1).min(
            axis=0).max(axis=0)
        loose, strict = (depth.reshape(len(h), -1) >= bands).sum(axis=2)
        gaps += int(np.count_nonzero(loose < 1))
        overlaps += int(np.count_nonzero(strict > 1))
    return TilingReport(samples=samples, gaps=gaps, overlaps=overlaps)
