"""Discrete translation lattices and their fundamental parallelepipeds.

A lattice is generated by two translations whose horizontal projections are
independent; their commutator is a vertical translation, and taking its k-th
root as a third generator tau3 closes the group.  In lattice coordinates
(u, v, h), with p = u*t1 + v*t2 + h*tau3 as vectors, the fundamental domain
is the unit cube for every k: a skew solid with vertical sides, cut into six
tetrahedra.

Its lattice translates tile the space, for every lattice and every k.  A
translation maps each vertical line to a vertical line and moves every
height on it by one amount: translate(p, t) adds p_y*t_x + t_z to p_z.  A
point (X, Y) of the plane off the edges lies in exactly one translate of the
projected parallelogram, by some tau1^a tau2^b.  That word maps the solid's
column over the preimage of (X, Y), an interval one tau3 high, into the
vertical line over (X, Y), and as tau3 is central, the translates of that
interval by the words tau3^c cover the line once.  So the translates tile
as soon as the solid's corners are the cube's, and tiling_spot_check checks
exactly that.
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
        Data that is no mapping with keys t1 and t2 raises DomainError, and
        so does any other key, lest a misspelt k ("K") be read as k = 1."""
        if not (isinstance(data, Mapping)
                and {"t1", "t2"} <= data.keys() <= {"t1", "t2", "k"}):
            raise DomainError("a lattice basis is a mapping with keys t1 and "
                              "t2, optionally k, and no other key")
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
    where it equals tau2 tau1 (tau2 tau1 = tau1 tau2 tau3^k).
    tiling_spot_check checks these vertices against the cube's corners.
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


# the lattice coordinates (u, v, h) of the solid's vertices: the unit cube's
# corners, and T213 one step of tau3 above T21
_CUBE_CORNERS = dict(O=(0, 0, 0), T1=(1, 0, 0), T2=(0, 1, 0), T3=(0, 0, 1),
                     T12=(1, 1, 0), T13=(1, 0, 1), T21=(1, 1, 1),
                     T23=(0, 1, 1), T213=(1, 1, 2))


def tiling_spot_check(lattice: Lattice, samples: int = 1000,
                      seed: int = 0) -> TilingReport:
    """Check exactly that the lattice translates of the fundamental solid
    tile the space.

    By the column argument of the module docstring they do once the solid
    is the unit cube in lattice coordinates.  So each of
    fundamental_domain's nine vertices must equal u*t1 + v*t2 + h*tau3 as
    vectors, for its corner (u, v, h) of the cube, and (1, 1, 2) for T213.
    Each coordinate may differ by at most 1e-12 * (|t1|_1 + |t2|_1 +
    2*|tau3|), a few roundings of the sums that build the vertices.  The
    six tetrahedra of DOMAIN_TETRAHEDRA are a constant; the tests check
    that they fill the cube.

    The counts are all or nothing.  When every vertex matches, every point
    lies in exactly one translate: TilingReport(samples, 0, 0).  When one
    is off, the check cannot tell which points the solid misses or holds
    twice, so it counts every sample as a gap: TilingReport(samples,
    samples, 0), which is not ok.

    samples and seed do not change the result.  They remain, and are
    checked by the whole-number rule (a positive and a nonnegative integer,
    or an integral float), because callers pass them: the CLI's --samples
    and the benchmark's tiling workload, which checks that each call
    reports its sample count.
    """
    samples = _whole_number(samples, 1, math.inf,
                            "sample count must be a positive integer")
    _whole_number(seed, 0, math.inf, "seed must be a nonnegative integer")
    t1, t2, tau3 = lattice.t1, lattice.t2, lattice.tau3
    tol = 1e-12 * (sum(map(abs, t1 + t2)) + 2.0 * tau3[2])
    vertices = fundamental_domain(lattice).as_dict()
    exact = all(abs(x - (u * a + v * b + h * c)) <= tol
                for label, (u, v, h) in _CUBE_CORNERS.items()
                for x, a, b, c in zip(vertices[label], t1, t2, tau3))
    return TilingReport(samples, 0 if exact else samples, 0)
