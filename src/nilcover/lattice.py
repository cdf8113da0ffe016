"""Discrete translation lattices and their fundamental parallelepipeds.

A lattice is generated by two translations whose horizontal projections are
independent; their commutator is a vertical translation, and taking its k-th
root as a third generator closes the group.  The fundamental domain is a
skew parallelepiped with vertical sides, cut into six tetrahedra.  For k = 1
it tiles the space under the lattice action.  For k >= 2 it does not:
fundamental_domain puts the vertex T21 = tau2 tau1 k steps of tau3 above T12
instead of one, so the solid is too tall and its translates overlap
(tiling_spot_check counts the overlapping samples).
"""

from __future__ import annotations

import functools
import math
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
        if len(self.t1) != 3 or len(self.t2) != 3:
            raise DomainError("generators must be coordinate triples")
        message = "generator components must be finite numbers"
        for name in ("t1", "t2"):
            object.__setattr__(self, name, tuple(
                _finite_number(v, message) for v in getattr(self, name)))
        object.__setattr__(self, "k", _whole_number(
            self.k, 1, math.inf, "k must be a positive integer"))

    def to_dict(self) -> dict:
        return {"t1": list(self.t1), "t2": list(self.t2), "k": self.k}

    @classmethod
    def from_dict(cls, data: dict) -> "LatticeBasis":
        return cls(tuple(data["t1"]), tuple(data["t2"]), data.get("k", 1))


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
    are the composite words.  T213 closes the top face of the tiling solid;
    the eight others span the parallelepiped used for point-membership
    work.
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

    T21 = tau2 tau1 is put at T12 + (0, 0, fibre), k steps of tau3 above
    T12 instead of one: that is the k >= 2 domain defect of the module
    docstring.  The tiling check takes its solid from here for every k
    (_tiling_table), so a fix here reaches it too.
    """
    t11, _, t13 = lattice.t1
    t21, t22, t23 = lattice.t2
    v = t11 * t22
    vk = v / lattice.k
    return FundamentalDomain(
        O=(0.0, 0.0, 0.0),
        T1=(t11, 0.0, t13),
        T2=(t21, t22, t23),
        T3=(0.0, 0.0, vk),
        T12=(t11 + t21, t22, t13 + t23),
        T13=(t11, 0.0, t13 + vk),
        T21=(t11 + t21, t22, v + t13 + t23),
        T23=(t21, t22, t23 + vk),
        T213=(t11 + t21, t22, v + vk + t13 + t23),
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


@functools.lru_cache(maxsize=8)
def _tiling_table(k: int) -> tuple:
    """The tiling check's geometry for fibre divisor k: (bary, start, steps).

    The solid's vertices come from fundamental_domain of the reference
    lattice t1 = (1, 0, 0), t2 = (0, k, 0), whose tau3 is (0, 0, 1): there
    every coordinate is a small integer and every step of the map to
    lattice coordinates is exact.  bary holds the four barycentric
    coordinates of the six tetrahedra as one read-only (24, 4) map of the
    homogeneous lattice coordinates (1, u, v, h); rows by coordinate, then
    tetrahedron.  The candidate exponents along the i-th lattice
    coordinate q are floor(q - start[i]) - steps[i], as in
    tiling_spot_check.
    """
    ref = lattice_from_params(LatticeBasis((1.0, 0.0, 0.0), (0.0, k, 0.0), k))
    verts = fundamental_domain(ref).as_dict()
    tets = np.array([[_lattice_coordinates(ref, *verts[label])
                      for label in tet] for tet in DOMAIN_TETRAHEDRA], float)
    homog = np.ones((6, 4, 4))
    homog[..., 1:] = tets
    bary = np.linalg.inv(homog).transpose(2, 0, 1).reshape(24, 4)
    delta = 1e-6  # the margin of tiling_spot_check's docstring
    lo = tets.min(axis=(0, 1))
    span = tets.max(axis=(0, 1)) - lo
    start = tuple((lo - delta * span).tolist())
    steps = tuple(np.arange(math.floor(w * (1.0 + 2.0 * delta)) + 1.0)
                  for w in span.tolist())
    for a in (bary,) + steps:
        a.setflags(write=False)
    return bary, start, steps


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

    In these coordinates the solid is the same for every lattice with the
    same k.  So the barycentric maps of the six tetrahedra and the
    exponent ranges below are built once per k, from the exact vertex
    coordinates of a reference lattice (_tiling_table), and each call only
    maps its samples to lattice coordinates, in closed form.

    A point of a tetrahedron inflated by eps is an affine combination of
    its vertices with weights of at least -eps, at most three of them
    negative, so each lattice coordinate stays within 3*eps*w of the
    vertices' range [lo, lo + w] of that coordinate: [0, 1] for u and v,
    [0, k] for h, which T21 reaches (see fundamental_domain).  So for a
    margin delta >= 3*eps, the exponents

        n = floor(q - lo + delta*w) - j,   j = 0, ..., floor(w + 2*delta*w)

    with q = U for a, q = V for b, and q = the local height of tau1^a tau2^b
    for c, include every word whose inflated translate contains p: two
    values each of a and b, and k + 1 of c, where all but one a, one b and
    k values of c only serve points within delta of a cell's face.
    delta = 1e-6 leaves a thousand times eps for rounding.  Both counts are
    therefore exact.
    """
    samples = _whole_number(samples, 1, math.inf,
                            "sample count must be a positive integer")
    seed = _whole_number(seed, 0, math.inf,
                         "seed must be a nonnegative integer")
    bary, start, steps = _tiling_table(lattice.k)
    verts = fundamental_domain(lattice).as_dict()
    # the tetrahedra's bounding box: T213, which they do not use, lies above
    del verts["T213"]
    corners = np.array(list(verts.values()))
    lo, hi = corners.min(axis=0), corners.max(axis=0)
    rng = np.random.default_rng(seed)

    chunk = max(1, _TILING_CHUNK // math.prod(map(len, steps)))
    eps = 1e-9
    bands = np.array([-eps, eps])[:, None, None]
    gaps = overlaps = 0
    for first in range(0, samples, chunk):
        # drawn a chunk at a time: the same stream as one draw of them all
        pts = lo + (hi - lo) * rng.random((min(chunk, samples - first), 3))
        u, v, h = _lattice_coordinates(lattice, *pts.T[:, :, None, None])
        a = np.floor(u - start[0]) - steps[0][:, None]
        b = np.floor(v - start[1]) - steps[1]
        u, v, h = _translated_coordinates(lattice, u, v, h, a, b)
        h = h[..., None] - (np.floor(h - start[2])[..., None] - steps[2])
        # axes (coordinate, point, a, b, c)
        local = np.ones((4,) + h.shape)
        local[1], local[2], local[3] = u[..., None], v[..., None], h
        # depth: the least barycentric coordinate in the tetrahedron where
        # it is largest, one per point and word
        depth = (bary @ local.reshape(4, -1)).reshape(4, 6, -1).min(
            axis=0).max(axis=0)
        loose, strict = (depth.reshape(len(h), -1) >= bands).sum(axis=2)
        gaps += int(np.count_nonzero(loose < 1))
        overlaps += int(np.count_nonzero(strict > 1))
    return TilingReport(samples=samples, gaps=gaps, overlaps=overlaps)
