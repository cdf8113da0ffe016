"""Circumscribed balls, covering radii and densities, and density bounds.

covering_radius returns the largest circumradius of the six tetrahedra
that fill the fundamental parallelepiped, validated by quasi-random
sampling.  That equals the covering radius when all six circumballs are
empty of lattice points (Delaunay cells, as on the paper's lattices);
otherwise it can over-estimate, and sampling cannot show it: the unit
lattice gives 0.88302565, while sampling covers it at about 0.77.  The
module also carries the one-parameter hexagonal lattice family and its
optimizer, the chord-based bound functions, and the symmetric-triangle
lower bound.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq, minimize_scalar
from scipy.stats import qmc

from .ball import ball_volume, max_vertical_chord
from .core import Point, inverse, translate
from .errors import (DegenerateGeometryError, DomainError, NilcoverError,
                     NoSolutionError)
from .geodesic import (PI, TWO_PI, _invert_profile, _profile, _profile_array,
                       _profile_fj, _reduced, _relative_target,
                       distance_to_origin)
from .lattice import (DOMAIN_TETRAHEDRA, Lattice, LatticeBasis, _shell_words,
                      domain_volume, fundamental_domain, lattice_from_params)

log = logging.getLogger(__name__)

_RESIDUAL_TOL = 1e-8


def _distance_and_gradient(c, p):
    """Distance from center c to point p and its gradient in c.

    Works through the translation taking c to the origin, then
    differentiates the profile inversion implicitly.
    """
    cx, cy, _ = c
    px, py, _ = p
    qx, qy, qz = _relative_target(c, p)
    rho, zeta = _reduced((qx, qy, qz))
    sg = 1.0 if zeta >= 0 else -1.0
    th, R = _invert_profile(rho, zeta)
    _, _, dXdt, dXdR, dZdt, dZdR = _profile_fj(R, th)
    det = dXdt * dZdR - dXdR * dZdt
    if det == 0.0:
        # c = p: the distance has no gradient there
        raise NoSolutionError("center on a vertex")
    dRdrho = -dZdt / det
    dRdzeta = dXdt / det
    if rho < 1e-12:
        drho = (0.0, 0.0, 0.0)
    else:
        drho = (-qx / rho, -qy / rho, 0.0)
    dzeta = (0.5 * (cy - py), 0.5 * (cx + px), -1.0)
    grad = tuple(dRdrho * a + sg * dRdzeta * b for a, b in zip(drho, dzeta))
    return R, grad


@dataclass(frozen=True)
class CircumballResult:
    center: Point
    radius: float
    residual: float


def _newton_circumball(points, v0):
    """Damped Newton on (center, radius) for the four points, given as
    tuples of floats: the distances are solved in Python floats, which is
    about twice as fast as in numpy scalars and gives the same bits."""
    v = np.asarray(v0, float)

    def FJ(v):
        F = np.empty(4)
        J = np.zeros((4, 4))
        center = v[:3].tolist()
        for i, q in enumerate(points):
            d, g = _distance_and_gradient(center, q)
            F[i] = d - v[3]
            J[i, :3] = g
            J[i, 3] = -1.0
        return F, J

    try:
        F, J = FJ(v)
    except NoSolutionError:
        return None
    nrm = float(np.linalg.norm(F))
    for _ in range(80):
        if nrm < 1e-12:
            break
        try:
            dv = np.linalg.solve(J, -F)
        except np.linalg.LinAlgError:
            return None
        step = 1.0
        while True:
            vn = v + step * dv
            vn[3] = min(max(vn[3], 1e-6), TWO_PI)
            try:
                Fn, Jn = FJ(vn)
            except NoSolutionError:
                Fn = None
            if Fn is not None and np.linalg.norm(Fn) < nrm:
                v, F, J = vn, Fn, Jn
                nrm = float(np.linalg.norm(F))
                break
            step *= 0.5
            if step < 1e-8:
                return v, nrm
    return v, nrm


def _converged_root(points, v0):
    """(center, radius) from a circumball Newton run started at v0, or
    None unless it converged."""
    out = _newton_circumball(points, v0)
    if out is not None and out[1] < _RESIDUAL_TOL:
        return out[0]
    return None


def circumball(p0: Point, p1: Point, p2: Point, p3: Point) -> CircumballResult:
    """Ball through four points: the center equidistant from all of them.

    Damped Newton on (center, radius), started in up to three stages; the
    first stage that accepts a root wins.

    1. The Euclidean circumcenter, unless the points are coplanar.
    2. The coordinate mean C of the points, with start radius R2, the
       largest Nil distance from C to the points.  Its root is accepted only
       if its radius is at most R2: a root past R2 can belong to a larger
       circumball than the smallest one.
    3. A coarse grid of starts over an inflated bounding box; among its
       converged roots the smallest radius wins.
    """
    points = [tuple(float(x) for x in p) for p in (p0, p1, p2, p3)]
    pts = [np.asarray(p, float) for p in points]

    best = None
    A = np.array([2.0 * (pts[i] - pts[0]) for i in (1, 2, 3)])
    b = np.array([pts[i] @ pts[i] - pts[0] @ pts[0] for i in (1, 2, 3)])
    degenerate = abs(np.linalg.det(A)) < 1e-12
    if not degenerate:
        C = np.linalg.solve(A, b)
        R0 = float(np.mean([np.linalg.norm(q - C) for q in pts]))
        best = _converged_root(points, np.array([C[0], C[1], C[2], R0]))
    if best is None:
        C = np.mean(pts, axis=0)
        try:
            R2 = max(distance_to_origin(_relative_target(C, q)) for q in pts)
        except NoSolutionError:
            pass  # a point lies beyond 2*pi of C: no restart from there
        else:
            root = _converged_root(points, np.array([C[0], C[1], C[2], R2]))
            if root is not None and root[3] <= R2:
                best = root
    if best is None:
        # grid fallback: centers can sit outside the point cloud, so the
        # bounding box is inflated by half its diagonal
        lo = np.min(pts, axis=0)
        hi = np.max(pts, axis=0)
        pad = 0.5 * float(np.linalg.norm(hi - lo))
        lo, hi = lo - pad, hi + pad
        dmax = 0.0
        for i in range(4):
            for j in range(i + 1, 4):
                d = _distance_and_gradient(points[i], points[j])[0]
                dmax = max(dmax, d)
        radii = np.linspace(max(0.5 * dmax, 1e-3), min(2.0 * dmax, TWO_PI), 4)
        found = []
        for cx in np.linspace(lo[0], hi[0], 3):
            for cy in np.linspace(lo[1], hi[1], 3):
                for cz in np.linspace(lo[2], hi[2], 3):
                    for r in radii:
                        root = _converged_root(points, (cx, cy, cz, r))
                        if root is not None:
                            found.append(root)
        if found:
            best = min(found, key=lambda v: v[3])
    if best is None:
        if degenerate:
            raise DegenerateGeometryError(
                "points are coplanar; circumball system is singular")
        raise NoSolutionError("no circumscribed ball of radius <= 2*pi found")

    center = (float(best[0]), float(best[1]), float(best[2]))
    radius = float(best[3])
    dists = [_distance_and_gradient(center, q)[0] for q in points]
    residual = max(abs(d - radius) for d in dists)
    return CircumballResult(center=center, radius=radius, residual=residual)


@dataclass(frozen=True)
class CoverageResult:
    covered: bool
    radius: float
    samples: int
    witness: Point | None = None
    witness_distance: float | None = None

    def __bool__(self) -> bool:
        return self.covered


def _circumcenter_probes(lattice: Lattice) -> list:
    """Circumcenters of the domain tetrahedra: the deepest points of the
    domain, where a too-small radius shows first.  Random sampling alone
    would need astronomically many points to land in those pockets."""
    verts = fundamental_domain(lattice).as_dict()
    probes = []
    for tet in DOMAIN_TETRAHEDRA:
        try:
            probes.append(circumball(*[verts[label] for label in tet]).center)
        except (DegenerateGeometryError, NoSolutionError):
            continue
    return probes


def _min_lattice_distance(p: Point, inv_words, R: float, zbound: float,
                          stop_below: float) -> float:
    """Distance from p to the nearest shell lattice point, with a cheap
    cylinder prefilter; returns early once at or below stop_below.

    inv_words holds the inverses of the shell words as three coordinate
    arrays.  The distance to a word is at least its horizontal distance
    rho, so words are measured in increasing rho and the rest are skipped
    once rho exceeds the nearest distance found.
    """
    lx, ly, lz = translate(p, inv_words)
    rho = np.hypot(lx, ly)
    zeta = lz - 0.5 * lx * ly
    near = np.flatnonzero((rho <= R + 1e-9) & (np.abs(zeta) <= zbound + 1e-9))
    near = near[np.argsort(rho[near], kind="stable")]
    dmin = math.inf
    for r, q in zip(rho[near].tolist(), zip(lx[near].tolist(),
                                            ly[near].tolist(),
                                            lz[near].tolist())):
        if r > dmin:
            break
        try:
            d = distance_to_origin(q)
        except NoSolutionError:
            continue
        dmin = min(dmin, d)
        if dmin <= stop_below:
            break
    return dmin


def verify_covering(lattice: Lattice, R: float,
                    n_samples: int = 20000) -> CoverageResult:
    """Check by low-discrepancy sampling that balls of radius R about the
    lattice points cover the fundamental domain.

    Samples map a Halton sequence linearly onto the domain parallelepiped,
    which samples the volume uniformly.  A sample counts as covered when it
    lies within R of one of the shell-2 lattice points; a fast sheared
    profile-table test settles the bulk and exact distances settle the
    boundary stragglers; the circumcenters of the domain tetrahedra are
    probed first.

    When a sample is uncovered, returns the worst uncovered sample (or
    probe) as witness, with its exact distance to the shell lattice points.
    """
    if not 0.0 < R <= TWO_PI + 1e-12:
        raise DomainError("covering radius must lie in (0, 2*pi]")
    if n_samples < 1:
        raise DomainError("need at least one sample")
    return _sample_check(lattice, R, n_samples, _circumcenter_probes(lattice))


def _table_survivors(sx, sy, sz, inv_words, R: float,
                     margin: float) -> np.ndarray:
    """Indices of the points (coordinate arrays sx, sy, sz) that a sheared
    profile-table test cannot place within R - margin of a shell word.

    The table test needs the profile at R to be monotone: R <= pi.  The
    profile never reaches past X = R, so only points with rho <= R - margin
    and zs <= R can pass it, and the table is read for those alone.
    """
    X, Z = _profile_array(R, np.linspace(0.0, 0.5 * PI, 4001))
    alive = np.arange(len(sx))
    for winv in zip(*inv_words):
        if len(alive) == 0:
            break
        lx, ly, lz = translate((sx[alive], sy[alive], sz[alive]), winv)
        rho = np.hypot(lx, ly)
        zs = np.abs(lz - 0.5 * lx * ly)
        near = np.flatnonzero((zs <= R) & (rho <= R - margin))
        ok = np.zeros(len(alive), bool)
        ok[near] = rho[near] <= np.interp(zs[near], Z, X) - margin
        alive = alive[~ok]
    return alive


@functools.lru_cache(maxsize=4)
def _unit_halton(n: int) -> np.ndarray:
    """The first n points of the unscrambled 3-d Halton sequence in the unit
    cube.  They depend on n alone; the cached array is shared, so it is
    read-only."""
    pts = qmc.Halton(d=3, scramble=False).random(n)
    pts.setflags(write=False)
    return pts


def _sample_check(lattice: Lattice, R: float, n_samples: int,
                  probes: list) -> CoverageResult:
    """The sampling check of verify_covering, with the probes given."""
    fd = fundamental_domain(lattice)
    M = np.array([fd.T1, fd.T2, fd.T3], float)
    smp = _unit_halton(n_samples) @ M
    # nearest words first, so most samples pass the table test within a few
    # words; no result depends on the word order
    words = _shell_words(lattice, 2)
    near = np.argsort(np.linalg.norm(words.T - 0.5 * M.sum(axis=0), axis=1))
    inv_words = inverse(words[:, near])

    margin = 1e-6
    sx, sy, sz = smp[:, 0].copy(), smp[:, 1].copy(), smp[:, 2].copy()
    # the table test settles the bulk where it applies; exact distances
    # settle the stragglers
    if R <= PI:
        alive = _table_survivors(sx, sy, sz, inv_words, R, margin)
    else:
        alive = np.arange(n_samples)

    worst_d = -1.0
    worst_p = None
    # the exact pass searches a bit beyond R so a witness's true distance
    # is reported, not just its failure
    R_search = min(1.05 * R + 1e-3, TWO_PI)
    zb_search = 0.5 * max_vertical_chord(R_search)
    stragglers = [(float(sx[i]), float(sy[i]), float(sz[i])) for i in alive]
    far = []
    for p in probes + stragglers:
        dmin = _min_lattice_distance(p, inv_words, R_search, zb_search,
                                     R - margin)
        if dmin > R_search:
            far.append(p)
        elif dmin > R + 1e-9 and dmin > worst_d:
            worst_d, worst_p = dmin, p
    if far:
        # a point with no lattice point within R_search lies farther than
        # every point measured above, so these are measured without the cut.
        # The one farthest horizontally from the lattice (d >= rho) goes
        # first; the table test at its distance drops the rest that lie
        # nearer, and each survivor stops once it is within worst_d.
        fx, fy, fz = np.array(far).T
        lb = np.full(len(far), math.inf)
        for ix, iy in zip(inv_words[0], inv_words[1]):
            lb = np.minimum(lb, np.hypot(fx + ix, fy + iy))
        order = np.argsort(-lb, kind="stable")
        worst_p = far[order[0]]
        worst_d = _min_lattice_distance(worst_p, inv_words, math.inf,
                                        math.inf, worst_d)
        rest = order[1:]
        if worst_d <= PI:
            rest = rest[_table_survivors(fx[rest], fy[rest], fz[rest],
                                         inv_words, worst_d, margin)]
        for i in rest.tolist():
            d = _min_lattice_distance(far[i], inv_words, math.inf, math.inf,
                                      worst_d)
            if d > worst_d:
                worst_d, worst_p = d, far[i]
    if worst_p is None:
        return CoverageResult(covered=True, radius=R, samples=n_samples)
    return CoverageResult(covered=False, radius=R, samples=n_samples,
                          witness=worst_p, witness_distance=float(worst_d))


def covering_radius(lattice: Lattice) -> float:
    """Largest circumradius of the six domain tetrahedra, validated by
    sampling.

    This equals the covering radius, the largest distance from a point of
    the space to the lattice, when all six circumballs are empty of
    lattice points (Delaunay cells, as on the paper's lattices); otherwise
    it can over-estimate: the unit lattice gives 0.88302565, while
    sampling covers it at about 0.77.  The sampling check finds points too
    far from the lattice, never a radius that is too large.  If it finds an
    uncovered point (possible when the balls are large enough to be
    non-convex) the radius is grown by bisection until the check passes.
    """
    verts = fundamental_domain(lattice).as_dict()
    balls = [circumball(*[verts[label] for label in tet])
             for tet in DOMAIN_TETRAHEDRA]
    R = max(b.radius for b in balls)
    probes = [b.center for b in balls]

    def covers(r):
        return _sample_check(lattice, r, 20000, probes).covered

    if covers(min(R * (1.0 + 1e-6), TWO_PI)):
        return R
    log.warning("tetrahedra circumradius %.12g fails sampling check; "
                "growing by bisection", R)
    lo, hi = R, R
    while hi < TWO_PI:
        hi = min(hi * 1.05, TWO_PI)
        if covers(hi):
            break
    else:
        raise NoSolutionError("no covering radius <= 2*pi")
    while hi - lo > 1e-8 * hi:
        mid = 0.5 * (lo + hi)
        if covers(mid):
            hi = mid
        else:
            lo = mid
    return hi


@dataclass(frozen=True)
class DensityReport:
    """Covering radius and density of a lattice.

    verified is True from covering_density: the sampling check of
    verify_covering passed at the returned radius.  It is False from
    hex_density, which does not run the check.
    """

    lattice: LatticeBasis
    covering_radius: float
    ball_volume: float
    domain_volume: float
    density: float
    verified: bool


def _density_report(lattice: Lattice, R: float,
                    verified: bool) -> DensityReport:
    vol = ball_volume(R)
    dvol = domain_volume(lattice)
    return DensityReport(lattice=lattice.basis, covering_radius=R,
                         ball_volume=vol, domain_volume=dvol,
                         density=vol / dvol, verified=verified)


def covering_density(lattice: Lattice) -> DensityReport:
    """Covering density: ball volume at the covering radius over the volume
    of the fundamental domain."""
    # covering_radius returns only a radius whose sampling check passed
    # and raises otherwise
    return _density_report(lattice, covering_radius(lattice), True)


# ---------------------------------------------------------------------------
# chord-based density bounds

_H1 = 13.0 * PI / 4.0
_H2 = 5.0 * PI


def bound_f(R: float) -> float:
    """Density lower bound for covering radii in [pi/2, pi]: the vertical
    chord through any domain point is at most 2R there."""
    if not 0.5 * PI - 1e-12 <= R <= PI + 1e-12:
        raise DomainError("bound_f needs R in [pi/2, pi]")
    return ball_volume(R) / (2.0 * R) ** 2


def bound_f1(R: float) -> float:
    """Same bound for R in [pi, 3pi/2], with the chord capped at 13pi/4."""
    if not PI - 1e-12 <= R <= 1.5 * PI + 1e-12:
        raise DomainError("bound_f1 needs R in [pi, 3*pi/2]")
    return ball_volume(R) / _H1 ** 2


def bound_f2(R: float) -> float:
    """Same bound for R in [3pi/2, 2pi], chord capped at 5pi."""
    if not 1.5 * PI - 1e-12 <= R <= TWO_PI + 1e-12:
        raise DomainError("bound_f2 needs R in [3*pi/2, 2*pi]")
    return ball_volume(R) / _H2 ** 2


def equidistant_projection(p: Point, lattice: Lattice) -> Point:
    """Project p along the z-axis onto the surface equidistant from the
    origin and its fibre translate: 2z - xy = fibre."""
    x, y, _ = p
    return (float(x), float(y), 0.5 * (lattice.fibre + x * y))


# ---------------------------------------------------------------------------
# the symmetric-triangle lower bound

@dataclass(frozen=True)
class LowerBoundConfig:
    rp: float
    chord_theta: float
    ot3: float
    t1p: Point
    t2p: Point
    density: float


def _lower_bound_terms(rp: float, theta: float):
    r, Z = _profile(rp, theta)
    disc = math.sqrt(r * r + 8.0 * rp * rp)
    y0 = (r * r - r * disc) / (4.0 * rp)
    x0 = y0 * (rp - y0) / math.sqrt(rp * rp - y0 * y0)
    t11 = math.sqrt(rp * rp - y0 * y0) - x0
    return 2.0 * Z, t11 * (rp - y0), y0


def lower_bound_density(rp: float) -> LowerBoundConfig:
    """Density of the extremal symmetric configuration at trial radius rp.

    An isosceles triangle inscribed in the equatorial disc, tangency fixing
    its apex, and a vertical chord of the ball must jointly span a
    fundamental domain; equating the chord to twice the triangle area is
    the consistency constraint solved for the chord angle.  The resulting
    density is a lower bound for every lattice covering with this radius.
    """
    rp = float(rp)
    if not 0.0 < rp <= 0.5 * PI + 1e-12:
        raise DomainError("trial radius must lie in (0, pi/2]")

    def psi(theta):
        chord, area2, _ = _lower_bound_terms(rp, theta)
        return chord - area2

    a, b = 1e-6, 0.5 * PI - 1e-12
    grid = np.linspace(a, b, 200).tolist()
    vals = [psi(t) for t in grid]
    roots = []
    for i in range(len(grid) - 1):
        if vals[i] == 0.0:
            roots.append(grid[i])
        elif vals[i] * vals[i + 1] < 0.0:
            roots.append(brentq(psi, grid[i], grid[i + 1], xtol=1e-14))
    if not roots:
        raise NoSolutionError("consistency constraint has no root at rp=%g" % rp)

    best = max(roots, key=lambda t: _lower_bound_terms(rp, t)[0])
    chord, _, y0 = _lower_bound_terms(rp, best)
    t1p = (math.sqrt(rp * rp - y0 * y0), y0, 0.0)
    t2p = (0.0, rp, 0.0)
    return LowerBoundConfig(rp=rp, chord_theta=float(best), ot3=chord,
                            t1p=t1p, t2p=t2p,
                            density=ball_volume(rp) / chord ** 2)


def minimize_lower_bound() -> tuple[float, float]:
    """Trial radius minimizing the lower bound, and the bound itself."""

    def objective(rp):
        try:
            return lower_bound_density(rp).density
        except (NoSolutionError, DomainError):
            return math.inf

    res = minimize_scalar(objective, bounds=(0.05, 0.5 * PI),
                          method="bounded", options={"xatol": 1e-10})
    return float(res.x), float(res.fun)


# ---------------------------------------------------------------------------
# the hexagonal lattice family

def hex_family_lattice(t11: float) -> LatticeBasis:
    """Lattice with regular hexagonal projection whose generators lie on the
    equidistant surface; one free scale parameter."""
    if t11 <= 0.0:
        raise DomainError("scale parameter must be positive")
    s3 = math.sqrt(3.0)
    t1 = (t11, 0.0, s3 * t11 * t11 / 4.0)
    t2 = (0.5 * t11, 0.5 * s3 * t11, 3.0 * s3 * t11 * t11 / 8.0)
    return LatticeBasis(t1=t1, t2=t2, k=1)


def hex_covering_radius(t11: float) -> float:
    """Covering radius within the hexagonal family.

    All six domain tetrahedra are congruent here, so the corner one is
    enough.
    """
    lattice = lattice_from_params(hex_family_lattice(t11))
    fd = fundamental_domain(lattice)
    return circumball(fd.O, fd.T1, fd.T2, fd.T3).radius


def hex_density(t11: float) -> DensityReport:
    """Density of the hexagonal-family lattice at scale t11, unverified."""
    lattice = lattice_from_params(hex_family_lattice(t11))
    return _density_report(lattice, hex_covering_radius(t11), False)


def optimize_hex() -> tuple[float, float, float]:
    """Scale minimizing the hexagonal-family density: (t11, radius, density).

    The optimum is validated as an actual covering before returning.
    """
    res = minimize_scalar(lambda t: hex_density(t).density,
                          bounds=(0.8, 1.8), method="bounded",
                          options={"xatol": 1e-10})
    t11 = float(res.x)
    report = hex_density(t11)
    lattice = lattice_from_params(report.lattice)
    if not verify_covering(lattice, report.covering_radius * (1.0 + 1e-6)):
        raise NilcoverError("hexagonal optimum failed the covering check")
    return t11, report.covering_radius, report.density
