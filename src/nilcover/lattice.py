"""Discrete translation lattices and their fundamental parallelepipeds.

A lattice is generated by two translations whose horizontal projections are
independent; their commutator is a vertical translation, and taking its k-th
root as a third generator closes the group.  The fundamental domain is a
skew parallelepiped with vertical sides; it tiles the space under the
lattice action.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Point, compose, inverse, power, rotate_z, translate
from .errors import DegenerateLatticeError, DomainError

_DEGENERATE_TOL = 1e-12
# largest shell index: the words are enumerated up front, (2n+1)^3 of them
_MAX_SHELL = 50
# shell searched for the translate containing a tiling sample; shell 2
# misses some corners of the sampled box for k = 1 lattices near
# t21/t11 = 0.5 and reports false gaps
_TILING_SHELL = 3
# sample points tested at once: memory stays bounded at any sample count,
# and a batch of 8 points x 343 words x 6 tetrahedra stays in cache
_TILING_CHUNK = 8


@dataclass(frozen=True)
class LatticeBasis:
    """Raw generator parameters: two translations and the fibre divisor k."""

    t1: Point
    t2: Point
    k: int = 1

    def __post_init__(self):
        if len(self.t1) != 3 or len(self.t2) != 3:
            raise DomainError("generators must be coordinate triples")
        object.__setattr__(self, "t1", tuple(float(v) for v in self.t1))
        object.__setattr__(self, "t2", tuple(float(v) for v in self.t2))
        if not all(math.isfinite(v) for v in self.t1 + self.t2):
            raise DomainError("generator components must be finite")
        if int(self.k) != self.k or self.k < 1:
            raise DomainError("k must be a positive integer")
        object.__setattr__(self, "k", int(self.k))

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
        return {
            "O": self.O, "T1": self.T1, "T2": self.T2, "T3": self.T3,
            "T12": self.T12, "T13": self.T13, "T21": self.T21,
            "T23": self.T23, "T213": self.T213,
        }


def fundamental_domain(lattice: Lattice) -> FundamentalDomain:
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


def _shell_words(lattice: Lattice, n: int) -> np.ndarray:
    """Words tau1^a tau2^b tau3^c, |a|,|b|,|c| <= n, as a (3, (2n+1)^3)
    coordinate array, lexicographic in (a, b, c).

    Distinct exponents give distinct points: the xy-projection fixes (a, b)
    because the projected generators are independent, and then z fixes c.
    """
    if not 0 <= n <= _MAX_SHELL:
        raise DomainError("shell index must lie in [0, %d]" % _MAX_SHELL)
    idx = np.arange(-n, n + 1)
    a, b, c = (g.ravel() for g in np.meshgrid(idx, idx, idx, indexing="ij"))
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


def tiling_spot_check(lattice: Lattice, samples: int = 1000,
                      seed: int = 0) -> TilingReport:
    """Sample the domain's bounding box and count how many lattice translates
    of the fundamental solid contain each point.

    A correct tiling gives exactly one containing translate almost surely;
    a gap (none) or an overlap (two or more interiors) is a violation.
    Boundary grazing is excluded by an epsilon band around each tetrahedron.
    """
    if samples < 1:
        raise DomainError("need at least one sample")
    tets = np.array(domain_tetrahedra(lattice))
    # frames[t] maps an offset from the first vertex of tetrahedron t to
    # its barycentric coordinates
    frames = np.linalg.inv((tets[:, 1:] - tets[:, :1]).transpose(0, 2, 1))
    base = tets[:, 0].T[:, :, None, None]
    lo, hi = tets.min(axis=(0, 1)), tets.max(axis=(0, 1))

    inv_words = inverse(_shell_words(lattice, _TILING_SHELL))

    rng = np.random.default_rng(seed)
    pts = lo + (hi - lo) * rng.random((samples, 3))

    # loose counts inflate each tetrahedron by eps, strict counts shrink it
    eps = 1e-9
    gaps = overlaps = 0
    for start in range(0, samples, _TILING_CHUNK):
        p = pts[start:start + _TILING_CHUNK].T[:, :, None]
        # local coordinates of each point in each translate's frame, and
        # their barycentric coordinates: axes (coordinate, tetrahedron,
        # point, word)
        local = np.array(translate(p, inv_words))
        bary = np.einsum("tij,jtmw->itmw", frames, local[:, None] - base)
        low, total = bary.min(axis=0), bary.sum(axis=0)
        loose = ((low >= -eps) & (total <= 1.0 + eps)).any(axis=0)
        strict = ((low >= eps) & (total <= 1.0 - eps)).any(axis=0)
        gaps += int(np.count_nonzero(loose.sum(axis=-1) < 1))
        overlaps += int(np.count_nonzero(strict.sum(axis=-1) > 1))
    return TilingReport(samples=samples, gaps=gaps, overlaps=overlaps)
