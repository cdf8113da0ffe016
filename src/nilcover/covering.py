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

from .ball import _check_radius, ball_volume
from .core import Point, inverse, translate
from .errors import (DegenerateGeometryError, DomainError, NilcoverError,
                     NoSolutionError, _whole_number)
from .geodesic import (PI, TWO_PI, _profile, _profile_array, _profile_fj,
                       _reduced, _relative_target, distance_to_origin)
from .lattice import (DOMAIN_TETRAHEDRA, Lattice, LatticeBasis, _shell_words,
                      domain_tetrahedra, domain_volume, fundamental_domain,
                      lattice_from_params)

log = logging.getLogger(__name__)

_RESIDUAL_TOL = 1e-8
_STEPS = tuple(0.5 ** k for k in range(27))  # line-search steps, to 1.5e-8


@dataclass(frozen=True)
class CircumballResult:
    center: Point
    radius: float
    residual: float


def _solve3(A, y):
    """(det, x) for a 3x3 A given as lists of floats: its determinant, and
    x with A x = y by Cramer's rule, or None when det is exactly 0, where
    np.linalg.solve raises LinAlgError."""
    (a, b, c), (d, e, f), (g, h, i) = A
    p, q, r = e * i - f * h, f * g - d * i, d * h - e * g
    det = a * p + b * q + c * r
    if det == 0.0:
        return det, None
    u, v, w = y[0] / det, y[1] / det, y[2] / det
    return det, [u * p + v * (c * h - b * i) + w * (b * f - c * e),
                 u * q + v * (a * i - c * g) + w * (c * d - a * f),
                 u * r + v * (b * g - a * h) + w * (a * e - b * d)]


def _circumball_system(points, v):
    """_newton_circumball's step system at v = (c, R, pitches): rows[i]
    (dc, dR) = -r[i], d theta_i = pitch[i] . (dc, 1), and nrm, the norm of
    all f_i, as (rows, r, pitch, nrm); None when a block is singular."""
    cx, cy, cz, R = v[:4]
    rows, r, pitch, sq = [], [], [], 0.0
    for (px, py, pz), t in zip(points, v[4:]):
        # c^-1 p written out: helper calls would cost more than the kernel
        qx, qy = px - cx, py - cy
        rho = math.hypot(qx, qy)
        zeta = pz - cz - cx * qy - 0.5 * qx * qy
        X, Z, dXdt, dXdR, dZdt, dZdR = _profile_fj(R, t)
        det = dXdt * dZdR - dXdR * dZdt
        if det == 0.0 or not math.isfinite(det):
            return None
        f1, f2 = X - rho, Z - zeta
        xt, xr, zt, zr = dXdt / det, dXdR / det, dZdt / det, dZdR / det
        # the c-gradients of rho, (ax, ay, 0), and of zeta, (bx, by, -1)
        ax, ay = (0.0, 0.0) if rho < 1e-12 else (-qx / rho, -qy / rho)
        bx, by = 0.5 * (cy - py), 0.5 * (cx + px)
        rows.append([xt * bx - zt * ax, xt * by - zt * ay, -xt, -1.0])
        r.append(f1 * zt - f2 * xt)
        pitch.append((ax * zr - bx * xr, ay * zr - by * xr, xr,
                      f2 * xr - f1 * zr))
        sq += f1 * f1 + f2 * f2
    return rows, r, pitch, math.sqrt(sq)


def _eliminated_step(rows, r):
    """(dc, dR) with rows (dc, dR) = -r for _circumball_system's rows
    [g_i, -1]: row i minus row 0 leaves (g_i - g_0) dc = r_0 - r_i, and
    dR = g_0 dc + r_0.  None when that 3x3 system is exactly singular."""
    (g0, g1, g2, _), r0 = rows[0], r[0]
    _, dc = _solve3([[x - g0, y - g1, z - g2] for x, y, z, _ in rows[1:]],
                    [r0 - x for x in r[1:]])
    return dc and [*dc, g0 * dc[0] + g1 * dc[1] + g2 * dc[2] + r0]


def _newton_circumball(points, v0):
    """Damped Newton on v = (c, R, theta_1..4), the center, the radius and
    the signed pitches of the four points (tuples of floats), from
    v0 = (c, R) and theta_i = atan2(zeta_i, rho_i).  Seen from c, point i
    has horizontal distance rho_i, sheared height zeta_i and residuals
    f_i = (X, Z)(R, theta_i) - (rho_i, zeta_i); X is even and Z odd in
    theta.  Eliminating d theta_i from its 2x2 block, of determinant det_i,
    leaves the row [g_i, -1] (dc, dR) = -r_i, with the distance's gradient
    g_i = (-dZ/dtheta grad rho_i + dX/dtheta grad zeta_i) / det_i and
    r_i = (f_i1 dZ/dtheta - f_i2 dX/dtheta) / det_i, the distance minus R
    to first order; _eliminated_step solves these rows as a 3x3 system in
    dc.  It runs on Python floats: numpy costs more than that solve.  The
    line search keeps R in [1e-6, 2*pi] and |theta_i| <= pi/2; every
    profile root with R <= 2*pi is minimizing (the geodesic module's
    section rule), so at a root all four distances are R.  Returns
    ((c, R), r) when hypot(r) and the norm of all f_i are below
    _RESIDUAL_TOL; None otherwise.
    """
    v = [float(x) for x in v0]
    v += [math.atan2(zeta, rho) for rho, zeta in
          (_reduced(_relative_target(v[:3], q)) for q in points)]
    system = _circumball_system(points, v)
    if system is None:
        return None
    for _ in range(80):
        rows, r, pitch, nrm = system
        if nrm < 1e-13:
            break
        dv = _eliminated_step(rows, r)
        if dv is None:
            return None
        dv += [a * dv[0] + b * dv[1] + c * dv[2] + e for a, b, c, e in pitch]
        for step in _STEPS:
            x, y, z, R, *ts = [a + step * d for a, d in zip(v, dv)]
            vn = [x, y, z, min(max(R, 1e-6), TWO_PI),
                  *[min(max(t, -0.5 * PI), 0.5 * PI) for t in ts]]
            trial = _circumball_system(points, vn)
            if trial is not None and trial[3] < nrm:
                v, system = vn, trial
                break
        else:
            break  # the line search stalled
    _, r, _, nrm = system
    return (v[:4], r) if max(nrm, math.hypot(*r)) < _RESIDUAL_TOL else None


def circumball(p0: Point, p1: Point, p2: Point, p3: Point) -> CircumballResult:
    """Ball through four points: the center equidistant from all of them.

    Damped Newton on the center, the radius and the points' geodesic
    pitches, from at most two starts; the first accepted root wins.  Its
    radius is at most 2*pi, so it is each point's exact distance.  A step
    is a 3x3 solve in the center by Cramer's rule (_eliminated_step).

    1. The Euclidean circumcenter in the local frame of the points, unless
       they are coplanar.  The points are left-translated so that their
       coordinate mean m sits at the origin, where the Nil metric is
       Euclidean to first order; the circumcenter and the mean distance to
       the points there are taken as the start, and the center is
       translated back by m.
    2. The coordinate mean m of the points, with start radius R2, the
       largest Nil distance from m to the points.  Its root is accepted only
       if its radius is at most R2: a root past R2 can belong to a larger
       circumball than the smallest one.

    The residual is the largest |distance - radius| at the accepted root.
    Raises DegenerateGeometryError when neither start gives one and the
    points are coplanar, and NoSolutionError when neither does otherwise.
    """
    points = [tuple(float(x) for x in p) for p in (p0, p1, p2, p3)]

    best = None
    m = tuple(sum(p[i] for p in points) / 4.0 for i in range(3))
    loc = [_relative_target(m, q) for q in points]
    o = loc[0]
    A = [[2.0 * (q[i] - o[i]) for i in range(3)] for q in loc[1:]]
    b = [sum(x * x for x in q) - sum(x * x for x in o) for q in loc[1:]]
    det, C = _solve3(A, b)
    degenerate = abs(det) < 1e-12
    if not degenerate:
        R0 = sum(math.dist(q, C) for q in loc) / 4.0
        best = _newton_circumball(points, [*translate(C, m), R0])
    if best is None:
        try:
            R2 = max(distance_to_origin(q) for q in loc)
        except NoSolutionError:
            pass  # a point lies beyond 2*pi of m: no restart from there
        else:
            root = _newton_circumball(points, [*m, R2])
            if root is not None and root[0][3] <= R2:
                best = root
    if best is None:
        if degenerate:
            raise DegenerateGeometryError(
                "points are coplanar, so there is no local-frame start, and "
                "the centroid start found no root within its start radius")
        raise NoSolutionError("no circumscribed ball of radius <= 2*pi found")

    v, r = best
    return CircumballResult(center=tuple(v[:3]), radius=v[3],
                            residual=max(abs(x) for x in r))


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
    probes = []
    for labels, tet in zip(DOMAIN_TETRAHEDRA, domain_tetrahedra(lattice)):
        try:
            probes.append(circumball(*tet).center)
        except (DegenerateGeometryError, NoSolutionError) as exc:
            log.warning("no circumball for tetrahedron (%s): %s; its probe "
                        "is dropped", ", ".join(labels), exc)
    return probes


def _word_bounds(points: np.ndarray, inv_words) -> tuple:
    """The shell words as seen from each of the points (an (N, 3) array),
    in one broadcast: five (N, W) arrays (lx, ly, lz, lb, order), whose
    j-th rows are point j's input to _min_lattice_distance.

    inv_words holds the inverses of the shell words as three coordinate
    arrays.  (lx, ly, lz) are the local coordinates of the words relative
    to the points, lb the lower bound max(rho, min(|zeta|, pi)) on each
    distance for the horizontal distance rho and sheared height zeta, and
    order each point's words in increasing bound.  The distance d to a
    word is at least that bound: d >= rho, and a ball of radius d <= pi
    reaches only |zeta| <= d (see max_vertical_chord).
    """
    lx, ly, lz = translate(tuple(points.T[:, :, None]), inv_words)
    zs = np.minimum(np.abs(lz - 0.5 * lx * ly), PI)
    lb = np.maximum(np.hypot(lx, ly), zs)
    return lx, ly, lz, lb, np.argsort(lb, axis=1)


def _min_lattice_distance(rows, stop_below: float) -> float:
    """Distance from a point to the nearest shell lattice point (inf if
    none lies within 2*pi); returns early with some value at or below
    stop_below once the nearest distance is known to be there.

    rows are the point's rows of the five _word_bounds arrays.  Words are
    measured in increasing bound, and the rest are skipped once the bound
    exceeds the nearest distance found.
    """
    lx, ly, lz, lb, order = rows
    dmin = math.inf
    for i in order.tolist():
        if lb[i] > dmin:
            break
        try:
            d = distance_to_origin((float(lx[i]), float(ly[i]), float(lz[i])))
        except NoSolutionError:
            continue
        if d < dmin:
            dmin = d
            if dmin <= stop_below:
                break
    return dmin


def verify_covering(lattice: Lattice, R: float,
                    n_samples: int = 20000) -> CoverageResult:
    """Check by low-discrepancy sampling that balls of radius R about the
    lattice points cover the fundamental domain.

    Samples map a Halton sequence linearly onto the domain parallelepiped,
    which samples the volume uniformly.  A sample counts as covered when it
    lies within R of one of the shell-2 lattice points.  A fast sheared
    profile-table test settles the bulk.  It runs only at radii up to pi,
    where the sheared ball is convex, so the polyline through a few hundred
    points of its profile lies inside it (_table_limit).  The test reads
    that polyline from a uniform zeta grid in constant time per point,
    lowered past the resampling error and by a 1e-6 margin, so every
    sample it accepts lies inside the ball.  Each sample is tested
    against the lattice points at the corners of the domain box first,
    nearest to the center of its grid cell first (see below), and only
    then against all shell points, nearest to the box center first; the
    order changes no result.

    A cell pass settles whole cells of samples before that.  A grid of
    _GRID_CELLS^3 cells is laid over the unit Halton cube, and each cell's
    center is tested against the two box corners nearest to it, with its
    horizontal distance rho and sheared height |zeta| raised by bounds on
    how far any point of the cell can move them (_cell_bounds).  The table
    runs only at R <= pi, where X falls and Z rises in theta (see
    max_vertical_chord), so its limit falls as |zeta| grows, and the
    points it accepts form a down-set: lowering rho or |zeta| keeps a
    point accepted.  So every sample of a passing cell passes the
    per-sample test at that corner, and is dropped from it.  The survivors,
    and so every result, are those of the per-sample test alone.  The cell
    pass runs before any sample is mapped onto the domain: only the samples
    of the cells it leaves open are mapped, and the exact pass below maps
    its own.

    The circumcenters of the domain tetrahedra are probed first, by exact
    distance.  The table test then runs at the larger of R and the worst
    probe distance, since a sample it places nearer than that cannot be
    the witness, capped at pi, where the profile stops being monotone; a
    sample within pi is covered at any R above pi.  Exact distances settle
    the samples it leaves, 64 at a time, each measured only as far as it
    must be to beat R or the worst uncovered point so far; the lower bounds
    that order each sample's words are computed for all 64 (and for all
    probes) at once (_word_bounds).  When that
    worst distance passes the table's radius, the table test runs again
    there on the samples left.  There is no search radius, so the
    witness's distance is exact however far it lies.

    When a sample is uncovered, returns the worst uncovered sample (or
    probe) as witness, with its exact distance to the shell lattice points.
    """
    R = _check_radius(R)
    n_samples = _whole_number(n_samples, 1, math.inf,
                              "sample count must be a positive integer")
    return _sample_check(lattice, R, n_samples, _circumcenter_probes(lattice))


# cells of the uniform zeta grid the profile table is resampled onto, and
# the rounding allowance of a lookup, relative to R
_TABLE_CELLS = 256
_ROUNDING = 16 * np.finfo(float).eps

# the 257 pitches theta in [0, pi/2] the profile table is tabulated at.
# The table runs only at R <= pi, where the sheared ball is convex, so the
# polyline through the profile points lies inside it whatever the grid
# (see _table_limit); a pitch step h gives up a sliver about R h^2 / 8
# thick next to the sphere, under 5e-6 R here.
_PITCH = np.linspace(0.0, 0.5 * PI, 257)

# the table test accepts only points at least this far inside the ball in rho
_MARGIN = 1e-6


def _table_limit(R: float):
    """The horizontal reach of the R ball, lowered by at least _MARGIN, as a
    function of zs = |zeta| in [0, R]: the limit of the table test.

    Needs R <= pi.  There the sheared ball is convex (is_m_image_convex),
    and so is its meridian {rho <= X(|zeta|)} in the (zeta, rho)
    half-plane, where Z rises with the pitch theta (see max_vertical_chord).
    The profile at the 257 pitches of _PITCH is a polyline (Z_j, X_j) whose
    vertices lie on the sphere, so every chord of it lies inside the
    meridian: the polyline is an inner bound of the ball on any grid.  It
    is resampled once onto a uniform grid of _TABLE_CELLS cells over
    [0, R], so a point's cell is found by one multiplication instead of a
    binary search.  The resampled polyline minus the theta polyline is
    piecewise linear and 0 at the grid knots, so its largest value dev is
    taken at some Z_j; by convexity dev is no more than rounding.  The
    grid is lowered by dev + _MARGIN plus a rounding allowance of a few
    ulps of R, so the limit never exceeds the theta polyline lowered by
    _MARGIN: the test accepts only points at least _MARGIN inside the ball
    in rho.  A running minimum keeps the lowered grid from rising where
    rounding would lift it, so the limit falls as zs grows, as the
    profile's reach does.
    """
    X, Z = _profile_array(R, _PITCH)
    scale = _TABLE_CELLS / R

    def lookup(table, steps, zs):
        t = zs * scale
        i = np.minimum(t.astype(np.intp), _TABLE_CELLS - 1)
        return table[i] + (t - i) * steps[i]

    Xg = np.interp(np.linspace(0.0, R, _TABLE_CELLS + 1), Z, X)
    dev = max(float(np.max(lookup(Xg, np.diff(Xg), Z) - X)), 0.0)
    low = np.minimum.accumulate(Xg - (dev + _MARGIN + _ROUNDING * R))
    steps = np.diff(low)
    return lambda zs: lookup(low, steps, zs)


def _table_survivors(pts, cell_of, inv_sweep, inv_corners, cells,
                     R: float) -> np.ndarray:
    """Indices of the points (rows of pts in the unit cube, lying in the
    grid cells cell_of) that a sheared profile-table test cannot place
    within R - _MARGIN of a shell word, once mapped onto the box.

    A point passes when its horizontal distance rho to a word is within
    _table_limit at its |zeta|; distances are compared squared, and the
    limit must be nonnegative.  The profile never reaches past X = R, so
    only points with rho <= R - _MARGIN and |zeta| <= R can pass, and the
    table is read for those alone.

    cells is (centers, order, M): the cell centers on the box as a (3, C)
    array; for each cell, the columns of inv_corners (the inverse box
    corner words) nearest to its center first, as an (8, C) array; and the
    box the cells fill, with rows T1, T2, T3.  First a cell whose center
    passes the test at one of its two nearest corners, with the raised rho
    and |zeta| of _cell_bounds, settles all its points (see
    verify_covering).  Only the points of the cells left open are then
    mapped onto the box, as pts @ M, row by row.  Pass j tests each of
    them at corner order[j] of its cell; most points pass at the first.
    Last, a sweep tests the points left against the words of inv_sweep:
    all inverse shell words but the box corners, which those points have
    failed, so the survivors are those of every word.
    """
    limit = _table_limit(R)
    cut2 = (R - _MARGIN) ** 2

    def accepted(rho2, zs):
        near = np.flatnonzero((zs <= R) & (rho2 <= cut2))
        lim = limit(zs[near])
        ok = np.zeros(len(zs), bool)
        ok[near] = (lim >= 0.0) & (rho2[near] <= lim * lim)
        return ok

    def unsettled(alive, winv):
        lx, ly, lz = translate((sx[alive], sy[alive], sz[alive]), winv)
        return alive[~accepted(lx * lx + ly * ly, np.abs(lz - 0.5 * lx * ly))]

    centers, order, M = cells
    open_cells = np.arange(centers.shape[1])
    for row in order[:2]:
        rho, zs = _cell_bounds(centers[:, open_cells],
                               inv_corners.take(row[open_cells], axis=1), M)
        open_cells = open_cells[~accepted(rho * rho, zs)]
    is_open = np.zeros(centers.shape[1], bool)
    is_open[open_cells] = True
    mapped = np.flatnonzero(is_open[cell_of])
    sx, sy, sz = (pts[mapped] @ M).T.copy()
    cell = cell_of[mapped]
    alive = np.arange(len(mapped))
    for row in order:
        if len(alive) == 0:
            break
        alive = unsettled(alive, inv_corners.take(row[cell[alive]], axis=1))
    for winv in zip(*inv_sweep):
        if len(alive) == 0:
            break
        alive = unsettled(alive, winv)
    return mapped[alive]


# columns of _shell_words(lattice, 2), which is lexicographic in (a, b, c)
# over [-2, 2]^3, that hold the words tau1^a tau2^b tau3^c with a, b, c in
# {0, 1}, in the order 4a + 2b + c: the corners a T1 + b T2 + c T3 of the
# sampled box
_CORNER_WORDS = [25 * (a + 2) + 5 * (b + 2) + c + 2
                 for a in (0, 1) for b in (0, 1) for c in (0, 1)]
# the same columns as a mask over the 125 shell words
_CORNER_MASK = np.zeros(125, bool)
_CORNER_MASK[_CORNER_WORDS] = True

# cells per axis of the grid that the cell pass of the sampling check lays
# over the unit Halton cube; even, see _sample_layout
_GRID_CELLS = 12


def _radical_inverse(n: int, base: int) -> np.ndarray:
    """The base-`base` radical inverses of 0, 1, ..., n - 1."""
    q = np.arange(n, dtype=np.int64)
    v = np.zeros(n)
    b2r = 1.0 / base
    while q.any():
        v += (q % base) * b2r
        b2r /= base
        q //= base
    return v


@functools.lru_cache(maxsize=4)
def _sample_layout(n: int):
    """The sampling check's layout of n samples in the unit cube, as
    read-only arrays (pts, cell_of, centers, order).  It depends on n
    alone, and the cached arrays are shared.

    pts holds the first n points of the unscrambled 3-d Halton sequence,
    one per row: point q's coordinates are the radical inverses of q in
    bases 2, 3 and 5, the base-b digits of q mirrored about the radix
    point.  They are summed digit by digit, least significant first, in
    the order of scipy's qmc.Halton(d=3, scramble=False), so the points
    are the same to the bit.  cell_of holds each point's cell,
    (i G + j) G + k for the cell [i, i + 1] x [j, j + 1] x [k, k + 1] / G,
    G = _GRID_CELLS, and centers the (G^3, 3) cell centers.  Column c of
    the (8, G^3) array order lists the corners of the unit cube, as
    4a + 2b + c, nearest to center c first.  G is even, so a cell lies in
    one half of the cube along every axis, and its nearest corner is
    nearest to each of its points too (tied for a point on a midplane).
    """
    g = _GRID_CELLS
    pts = np.stack([_radical_inverse(n, b) for b in (2, 3, 5)], axis=1)
    ijk = np.minimum((pts * g).astype(np.intp), g - 1)
    cell_of = (ijk[:, 0] * g + ijk[:, 1]) * g + ijk[:, 2]
    mid = (np.arange(g) + 0.5) / g
    centers = np.stack(np.meshgrid(mid, mid, mid, indexing="ij"),
                       axis=-1).reshape(-1, 3)
    # squared distance along each axis to the face at 0 and at 1
    sq = np.stack([centers * centers, (1.0 - centers) ** 2])
    d2 = (sq[:, None, None, :, 0] + sq[None, :, None, :, 1]
          + sq[None, None, :, :, 2])
    order = np.argsort(d2.reshape(8, -1), axis=0,
                       kind="stable").astype(np.uint8)
    for a in (pts, cell_of, centers, order):
        a.setflags(write=False)
    return pts, cell_of, centers, order


def _cell_bounds(centers, winv, M: np.ndarray):
    """Upper bounds (rho_up, zs_up) on the horizontal distance rho and the
    sheared height |zeta| relative to the words winv of every point of the
    grid cells with the given centers (coordinate arrays), for the box with
    rows M = (T1, T2, T3).

    A point of a cell differs from its center c by at most Ex, Ey and Ez
    along the three axes: the cell's half-width h times the column sums of
    |M|, that is h(|t11| + |t21|), h |t22| and h(|t13| + |t23| + |tau3|).
    A point c + d has local coordinates lx = lx_c + dx, ly = ly_c + dy and
    lz = lz_c + dz - w_x dy relative to the word w, so
        rho <= rho_c + hypot(Ex, Ey),
        |zeta| <= |zeta_c| + Ez + |w_x| Ey
                  + (|lx_c| Ey + |ly_c| Ex + Ex Ey) / 2.
    Both are raised by a rounding allowance of 64 eps (1 + S)^2, for S the
    sum of |M|, which bounds every coordinate of a sample, a corner word or
    a center: the rounding of their coordinates, of the local coordinates
    and zeta, and of the table lookup are each a few ulps of S^2 or of
    R <= pi at most.
    """
    absM = np.abs(M)
    Ex, Ey, Ez = (0.5 / _GRID_CELLS * absM.sum(axis=0)).tolist()
    pad = 64 * np.finfo(float).eps * (1.0 + float(absM.sum())) ** 2
    lx, ly, lz = translate(centers, winv)
    rho_up = np.hypot(lx, ly) + (math.hypot(Ex, Ey) + pad)
    zs_up = (np.abs(lz - 0.5 * lx * ly) + np.abs(winv[0]) * Ey
             + 0.5 * (np.abs(lx) * Ey + np.abs(ly) * Ex)
             + (Ez + 0.5 * Ex * Ey + pad))
    return rho_up, zs_up


def _sample_check(lattice: Lattice, R: float, n_samples: int,
                  probes: list) -> CoverageResult:
    """The sampling check of verify_covering, with the probes given."""
    fd = fundamental_domain(lattice)
    M = np.array([fd.T1, fd.T2, fd.T3], float)
    pts, cell_of, centers, order = _sample_layout(n_samples)
    # one inverse of the shell words, indexed for each use: nearest words
    # first, so most samples pass the table test within a few words; no
    # result depends on the word order
    words = _shell_words(lattice, 2)
    inv = np.array(inverse(words))
    near = np.argsort(np.linalg.norm(words.T - 0.5 * M.sum(axis=0), axis=1))
    inv_words = inv[:, near]
    inv_sweep = inv[:, near[~_CORNER_MASK[near]]]
    inv_corners = inv[:, _CORNER_WORDS]
    cells = ((centers @ M).T, order, M)

    worst_d = -1.0
    worst_p = None

    def measure(points):
        # exact distances of the points (an (N, 3) array); a point is
        # recorded only past R + 1e-9 and past the worst uncovered point so
        # far, so it needs measuring no further than the larger of the two
        nonlocal worst_d, worst_p
        bounds = _word_bounds(points, inv_words)
        for j, p in enumerate(points.tolist()):
            floor = max(R + 1e-9, worst_d)
            d = _min_lattice_distance([b[j] for b in bounds], floor)
            if d > floor:
                worst_d, worst_p = d, tuple(p)

    measure(np.array(probes, float).reshape(-1, 3))
    # the table test settles the bulk, at the radius verify_covering explains
    T = min(max(R, worst_d), PI)
    alive = _table_survivors(pts, cell_of, inv_sweep, inv_corners, cells, T)
    while len(alive):
        chunk, alive = alive[:64], alive[64:]
        measure(pts[chunk] @ M)
        if len(alive) and min(worst_d, PI) > T:
            # a sample the table places within T - _MARGIN cannot beat the
            # worst distance found so far
            T = min(worst_d, PI)
            alive = alive[_table_survivors(pts[alive], cell_of[alive],
                                           inv_sweep, inv_corners, cells, T)]
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
    non-convex) the radius is grown to the exact distance of the worst
    uncovered point, its witness, and checked once more; NoSolutionError
    if that check fails too, as when a point lies beyond 2*pi of the
    lattice.
    """
    balls = [circumball(*tet) for tet in domain_tetrahedra(lattice)]
    R = max(b.radius for b in balls)
    probes = [b.center for b in balls]

    res = _sample_check(lattice, min(R * (1.0 + 1e-6), TWO_PI), 20000, probes)
    if res.covered:
        return R
    log.warning("tetrahedra circumradius %.12g fails sampling check; "
                "growing to witness distance %.12g", R, res.witness_distance)
    R = min(res.witness_distance, TWO_PI)
    if _sample_check(lattice, R, 20000, probes).covered:
        return R
    raise NoSolutionError("no covering radius <= 2*pi")


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

    The constraint psi(theta) = chord - 2 area is strictly increasing in
    theta on [1e-6, pi/2 - 1e-12] (the tests check it on a grid of trial
    radii), so it has one root there, found by one bracketed solve;
    NoSolutionError when psi(1e-6) <= 0 <= psi(pi/2 - 1e-12) fails.
    """
    from scipy.optimize import brentq

    rp = float(rp)
    if not 0.0 < rp <= 0.5 * PI + 1e-12:
        raise DomainError("trial radius must lie in (0, pi/2]")

    def psi(theta):
        chord, area2, _ = _lower_bound_terms(rp, theta)
        return chord - area2

    a, b = 1e-6, 0.5 * PI - 1e-12
    if not psi(a) <= 0.0 <= psi(b):
        raise NoSolutionError("consistency constraint has no root at rp=%g" % rp)
    theta = brentq(psi, a, b, xtol=1e-14)
    chord, _, y0 = _lower_bound_terms(rp, theta)
    t1p = (math.sqrt(rp * rp - y0 * y0), y0, 0.0)
    t2p = (0.0, rp, 0.0)
    return LowerBoundConfig(rp=rp, chord_theta=float(theta), ot3=chord,
                            t1p=t1p, t2p=t2p,
                            density=ball_volume(rp) / chord ** 2)


def minimize_lower_bound() -> tuple[float, float]:
    """Trial radius minimizing the lower bound, and the bound itself."""
    from scipy.optimize import minimize_scalar

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


def _corner_radius(lattice: Lattice) -> float:
    fd = fundamental_domain(lattice)
    return circumball(fd.O, fd.T1, fd.T2, fd.T3).radius


def hex_covering_radius(t11: float) -> float:
    """Covering radius within the hexagonal family.

    All six domain tetrahedra are congruent here, so the corner one is
    enough.
    """
    return _corner_radius(lattice_from_params(hex_family_lattice(t11)))


def hex_density(t11: float) -> DensityReport:
    """Density of the hexagonal-family lattice at scale t11, unverified."""
    lattice = lattice_from_params(hex_family_lattice(t11))
    return _density_report(lattice, _corner_radius(lattice), False)


def optimize_hex() -> tuple[float, float, float]:
    """Scale minimizing the hexagonal-family density: (t11, radius, density).

    The optimum is validated as an actual covering before returning.
    """
    from scipy.optimize import minimize_scalar

    res = minimize_scalar(lambda t: hex_density(t).density,
                          bounds=(0.8, 1.8), method="bounded",
                          options={"xatol": 1e-10})
    t11 = float(res.x)
    report = hex_density(t11)
    lattice = lattice_from_params(report.lattice)
    if not verify_covering(lattice, report.covering_radius * (1.0 + 1e-6)):
        raise NilcoverError("hexagonal optimum failed the covering check")
    return t11, report.covering_radius, report.density
