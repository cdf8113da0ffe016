"""Circumballs, covering radii, densities, bounds."""

import functools
import importlib
import logging
import math
import random
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import minimize

from nilcover import covering, geodesic
from nilcover import (DegenerateGeometryError, DomainError, GeodesicParams,
                      LatticeBasis, NoSolutionError, ball_volume, bound_f,
                      bound_f1, bound_f2, circumball, compose, covering_density,
                      covering_radius, distance, distance_to_origin,
                      domain_tetrahedra, equidistant_projection,
                      fundamental_domain, geodesic_between, geodesic_xyz,
                      hex_covering_radius, hex_density, hex_family_lattice,
                      inverse, lattice_from_params, lattice_points_in_shell,
                      lower_bound_density, m_map,
                      minimize_lower_bound, optimize_hex, sphere_point,
                      sphere_profile, translate, verify_covering)

UNIT = LatticeBasis(t1=(1.0, 0.0, 0.0), t2=(0.0, 1.0, 0.0), k=1)
OPT = LatticeBasis(t1=(1.30633820, 0.0, 0.73894461),
                   t2=(0.65316910, 1.13132206, 1.10841692), k=1)
K2 = LatticeBasis((1.1, 0.0, 0.495), (0.33, 0.99, 0.658), 2)
K3 = LatticeBasis((2.1456340601001993, 0.0, 1.2194587210000505),
                  (3.185789232039064, 1.1366884443874858, 3.030083624156494), 3)
# corner (a, b, c) of the unit cube in row 4a + 2b + c
CUBE_CORNERS = np.array([(a, b, c) for a in (0, 1) for b in (0, 1)
                         for c in (0, 1)], float)


def corner_tet(basis):
    lat = lattice_from_params(basis)
    d = fundamental_domain(lat).as_dict()
    return d["O"], d["T1"], d["T2"], d["T3"]


def test_circumball_known_solution():
    res = circumball(*corner_tet(OPT))
    cx, cy, cz = res.center
    assert abs(cx - 0.45981062) < 1e-5
    assert abs(cy - 0.26547179) < 1e-5
    assert abs(cz - 0.79997799) < 1e-5
    assert abs(res.radius - 0.90293941) < 1e-5
    assert res.residual <= 1e-8
    assert all(type(x) is float for x in (*res.center, res.radius,
                                          res.residual))


def test_circumball_equidistance():
    pts = corner_tet(OPT)
    res = circumball(*pts)
    for p in pts:
        assert abs(distance(res.center, p) - res.radius) < 1e-7


def test_circumball_against_minimax_oracle():
    # direct minimax of the farthest-vertex distance must agree
    rng = random.Random(101)
    base = [(0.0, 0.0, 0.0), (0.9, 0.0, 0.0), (0.45, 0.78, 0.0), (0.45, 0.26, 0.73)]
    for trial in range(5):
        pts = [tuple(c + rng.uniform(-0.05, 0.05) for c in p) for p in base]
        res = circumball(*pts)

        def worst(v):
            return max(distance(tuple(v), p) for p in pts)

        opt = minimize(worst, np.array(res.center) + 0.01,
                       method="Nelder-Mead",
                       options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 4000})
        assert res.radius <= opt.fun + 1e-6


def test_distance_gradient_matches_central_differences():
    rng = random.Random(103)
    pairs = [tuple(tuple(rng.uniform(-1.0, 1.0) for _ in range(3))
                   for _ in range(2)) for _ in range(20)]
    c0 = (0.3, -0.4, 0.2)
    # targets on the axis (rho = 0) and on the equator (zeta = 0) relative
    # to c0, which the closed forms solve
    pairs += [(c0, translate((0.0, 0.0, 1.1), c0)),
              (c0, translate((0.6, 0.5, 0.15), c0))]
    # at the exact radius and pitch of p seen from c, the circumball
    # Newton's eliminated row for p is [gradient of distance(c, p), -1],
    # whose g part the system returns, and its distance error is 0
    h = 1e-6
    for c, p in pairs:
        d = distance(c, p)
        rho, zeta = geodesic._reduced(geodesic._relative_target(c, p))
        theta = math.copysign(geodesic._invert_profile(rho, zeta)[0], zeta)
        g, (r,), _, _ = covering._circumball_system([p], [*c, d, theta])
        assert len(g) == 3 and abs(r) < 1e-12
        for i in range(3):
            cp = tuple(x + h * (j == i) for j, x in enumerate(c))
            cm = tuple(x - h * (j == i) for j, x in enumerate(c))
            fd = (distance(cp, p) - distance(cm, p)) / (2.0 * h)
            assert abs(g[i] - fd) < 1e-6
    # c = p: the distance has no gradient there, and the block is singular
    assert covering._circumball_system([c0], [*c0, 0.0, 0.5 * math.pi]) is None


def test_all_six_tetrahedra_congruent_at_optimum():
    lat = lattice_from_params(OPT)
    radii = [circumball(*tet).radius for tet in domain_tetrahedra(lat)]
    for r in radii:
        assert abs(r - 0.90293941) < 1e-6


def test_unit_lattice_tetrahedra_radii():
    lat = lattice_from_params(UNIT)
    radii = [circumball(*tet).radius for tet in domain_tetrahedra(lat)]
    expected = [0.88302565, 0.82271751, 0.82271751,
                0.88302565, 0.79380260, 0.79380260]
    for r, e in zip(radii, expected):
        assert abs(r - e) < 1e-6


def test_covering_radius_values():
    assert abs(covering_radius(lattice_from_params(OPT)) - 0.90293941) < 1e-6
    assert abs(covering_radius(lattice_from_params(UNIT)) - 0.88302565) < 1e-6


def test_verify_covering_tight():
    for basis in (OPT, hex_family_lattice(1.2600158931406935)):
        lat = lattice_from_params(basis)
        R = covering_radius(lat)
        assert verify_covering(lat, R * (1 + 1e-6)).covered
        shrunk = verify_covering(lat, R * (1 - 1e-3))
        assert not shrunk.covered
        assert shrunk.witness is not None
        assert shrunk.witness_distance > R * (1 - 1e-3)


def test_witness_distance_far_below_radius():
    # at R = 0.65 several samples are uncovered; the witness must be the
    # worst of them (0.69928 was the first one found), and the reported
    # distance its exact distance to the shell lattice points
    lat = lattice_from_params(UNIT)
    res = verify_covering(lat, 0.65, 2000)
    assert not res.covered
    d = math.inf
    for w in lattice_points_in_shell(lat, 2):
        try:
            d = min(d, distance(w, res.witness))
        except NoSolutionError:
            continue
    assert abs(res.witness_distance - d) < 1e-8
    assert res.witness_distance == pytest.approx(0.75599, abs=1e-5)
    assert res.witness == pytest.approx((0.44580, 0.53681, 0.43712), abs=1e-5)
    # at R = 0.01 every sample is such a straggler: same worst sample
    assert verify_covering(lat, 0.01, 2000) == replace(res, radius=0.01)


def test_verify_covering_independent_of_word_order(monkeypatch):
    # the table pass tries the shell words nearest-first; shuffling the
    # words it is given must not change any result, witness included
    cases = [(UNIT, 0.65), (UNIT, 0.7), (UNIT, 0.9), (OPT, 0.9), (K2, 0.8)]
    expected = [verify_covering(lattice_from_params(b), R, 2000)
                for b, R in cases]
    shell_words = covering._shell_words
    perm = np.random.default_rng(5).permutation(125)
    monkeypatch.setattr(covering, "_shell_words",
                        lambda lat, n: shell_words(lat, n)[:, perm])
    got = [verify_covering(lattice_from_params(b), R, 2000) for b, R in cases]
    assert got == expected
    assert [r.covered for r in got] == [False, False, True, False, True]


def test_dropped_probe_is_logged(monkeypatch, caplog):
    # a domain tetrahedron without a circumball gives no probe; the check
    # says which one it dropped
    lat = lattice_from_params(UNIT)
    verts = fundamental_domain(lat).as_dict()
    bad = tuple(verts[v] for v in ("T1", "T12", "T23", "T21"))
    real = covering.circumball

    def circumball_failing_once(*pts):
        if pts == bad:
            raise NoSolutionError("no circumscribed ball")
        return real(*pts)

    monkeypatch.setattr(covering, "circumball", circumball_failing_once)
    with caplog.at_level(logging.WARNING, logger="nilcover.covering"):
        probes = covering._circumcenter_probes(lat)
    assert len(probes) == 5
    assert "tetrahedron (T1, T12, T23, T21)" in caplog.text


def test_min_lattice_distance_matches_brute_force():
    # the nearest shell-2 word by brute force, and the lower bound the
    # search orders words by, on seeded points of three boxes and at the
    # probes; the bounds and word orders come from one batch for all the
    # points, and each row gives its point's distance
    rng = np.random.default_rng(11)
    for basis in (OPT, UNIT, K2):
        lat = lattice_from_params(basis)
        inv_words = inverse(covering._shell_words(lat, 2))
        fd = fundamental_domain(lat)
        M = np.array([fd.T1, fd.T2, fd.T3])
        points = [tuple(float(x) for x in u @ M) for u in rng.random((12, 3))]
        points += covering._circumcenter_probes(lat)
        bounds = covering._word_bounds(np.array(points), inv_words)
        for j, p in enumerate(points):
            lx, ly, lz, lb, order = (b[j] for b in bounds)
            d = math.inf
            for i, q in enumerate(zip(*(c.tolist()
                                        for c in translate(p, inv_words)))):
                assert q == (lx[i], ly[i], lz[i])
                try:
                    dq = geodesic.distance_to_origin(q)
                except NoSolutionError:
                    continue
                d = min(d, dq)
                assert lb[i] <= dq + 1e-12
            assert np.all(np.diff(lb[order]) >= 0.0)
            rows = [b[j] for b in bounds]
            assert covering._min_lattice_distance(rows, -1.0) == d


def test_failing_check_measures_few_points(monkeypatch):
    # at R = 0.01 every sample is uncovered.  On OPT the six probes settle
    # the witness distance and the table pass at that distance leaves
    # almost no sample to measure exactly.  On the basis (t1, t1 t2) of the
    # same lattice every probe lies on a lattice point, so the table pass
    # runs at R; it runs again at the worst distance measured so far, so
    # not all 20 000 samples go to the exact pass
    calls = _count_calls(monkeypatch, "_min_lattice_distance")
    rewritten = LatticeBasis(OPT.t1, compose(OPT.t1, OPT.t2), OPT.k)
    for basis, witness, most in ((OPT, 0.9029394144, 16),
                                 (rewritten, 0.8930859864, 200)):
        calls.clear()
        res = verify_covering(lattice_from_params(basis), 0.01)
        assert not res.covered
        assert res.witness_distance == pytest.approx(witness, abs=1e-9)
        assert len(calls) <= most


def test_passing_probes_measure_one_word_each(monkeypatch):
    # at R (1 + 1e-6) each circumcentre probe lies within R of its
    # nearest lattice point, which it measures first; a probe is recorded
    # only past R + 1e-9, so the others are not measured.  On OPT and the
    # hexagonal optimum every sample passes the table test, so the six
    # probes make all of the check's distance solves
    probes = _count_calls(monkeypatch, "_min_lattice_distance")
    solves = _count_calls(monkeypatch, "distance_to_origin")
    for basis in (OPT, hex_family_lattice(1.26001585)):
        lat = lattice_from_params(basis)
        R = max(circumball(*tet).radius for tet in domain_tetrahedra(lat))
        probes.clear()
        solves.clear()
        assert verify_covering(lat, R * (1 + 1e-6)).covered
        assert len(probes) == 6
        assert len(solves) == 6


def test_profile_array_matches_scalar_profile():
    # at the profile table's pitches, whether a series branch covers all of
    # the grid, a part of it, or only its first pitch, theta = 0
    thetas = covering._PITCH
    assert np.all(np.diff(np.sin(thetas)) >= 0.0)
    prefixes = set()
    for R in (1e-3, 0.19, 0.2, 0.9, math.pi):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            X, Z = geodesic._profile_array(R, thetas)
        ref = _scalar_profile_table(R)
        assert np.max(np.abs(X - ref[:, 0])) <= 1e-14
        assert np.max(np.abs(Z - ref[:, 1])) <= 1e-14
        u = R * np.sin(thetas)
        prefixes |= {np.count_nonzero(u < 0.1), np.count_nonzero(u < 2e-6)}
    assert {1, thetas.size} < prefixes


@functools.lru_cache(maxsize=None)
def _scalar_profile_table(R):
    return np.array([geodesic._profile(R, t) for t in covering._PITCH])


def _reference_survivors(sx, sy, sz, inv_words, R, margin):
    # the table pass without the cylinder prefilter: the scalar profile
    # table is read for every alive point
    prof = _scalar_profile_table(R)
    alive = np.arange(len(sx))
    for winv in zip(*inv_words):
        lx, ly, lz = translate((sx[alive], sy[alive], sz[alive]), winv)
        rho = np.hypot(lx, ly)
        zs = np.abs(lz - 0.5 * lx * ly)
        xs = np.interp(zs, prof[:, 1], prof[:, 0])
        alive = alive[~((zs <= R) & (rho <= xs - margin))]
    return alive


def _box(lat):
    fd = fundamental_domain(lat)
    return np.array([fd.T1, fd.T2, fd.T3], float)


def test_table_survivors_match_unfiltered_reference():
    # the cell, corner and sweep passes keep exactly the reference's
    # survivors, on all points and, as in the exact pass's rerun, on a
    # subset of them; the table pass takes unit-cube points and maps them
    # onto the box itself
    pts, cell_of, centers, order = covering._sample_layout(4000)
    sub = np.flatnonzero(np.random.default_rng(3).random(4000) < 0.3)
    for basis in (OPT, UNIT, K2, K3):
        lat = lattice_from_params(basis)
        M = _box(lat)
        sx, sy, sz = (pts @ M).T.copy()
        words = covering._shell_words(lat, 2)
        inv_words = inverse(words)
        inv_corners = np.array(inverse(words[:, covering._CORNER_WORDS]))
        cells = ((centers @ M).T, order, M)
        for R in (0.3, 0.7, 0.90293941 * (1 + 1e-6), 1.5, math.pi):
            want = _reference_survivors(sx, sy, sz, inv_words, R,
                                        covering._MARGIN)
            got = covering._table_survivors(pts, cell_of, inv_words,
                                            inv_corners, cells, R)
            assert np.array_equal(got, want)
            got = covering._table_survivors(pts[sub], cell_of[sub], inv_words,
                                            inv_corners, cells, R)
            assert np.array_equal(sub[got], np.intersect1d(want, sub))


def test_mapped_subsets_match_full_map():
    # the table pass maps only the samples of open cells, and the exact
    # pass its own 64-point chunks: each must be bit for bit the same rows
    # of the full map of all samples onto the box
    pts = covering._sample_layout(20000)[0]
    rng = np.random.default_rng(29)
    for basis in (OPT, UNIT, K2, K3):
        M = _box(lattice_from_params(basis))
        full = pts @ M
        subsets = [np.flatnonzero(rng.random(len(pts)) < share)
                   for share in (0.01, 0.07, 0.3)]
        subsets += [rng.choice(len(pts), n, replace=False) for n in (1, 5, 64)]
        for sub in subsets:
            assert (pts[sub] @ M).tobytes() == full[sub].tobytes()


def test_table_sweep_skips_corner_words(monkeypatch):
    # every sample that reaches the table's sweep has failed the 8 box
    # corner words, so the sweep tests the other 117 shell words alone
    swept = []
    real = covering.translate

    def spy(p, t):
        if isinstance(p[0], np.ndarray) and np.ndim(t[0]) == 0:
            swept.append(tuple(float(x) for x in t))
        return real(p, t)

    monkeypatch.setattr(covering, "translate", spy)
    lat = lattice_from_params(UNIT)
    assert not verify_covering(lat, 0.65, 2000)
    words = covering._shell_words(lat, 2)
    inv = set(zip(*np.array(inverse(words)).tolist()))
    corners = set(zip(*np.array(
        inverse(words[:, covering._CORNER_WORDS])).tolist()))
    assert len(corners) == 8 and set(swept) == inv - corners


def test_cell_bounds_hold_inside_cells():
    # the corners of every grid cell, and seeded points of seeded cells, lie
    # within the cell's raised rho and |zeta| relative to each box corner
    # word; some cell corners attain the bounds before rounding
    rng = np.random.default_rng(23)
    h = 0.5 / covering._GRID_CELLS
    centers = covering._sample_layout(2000)[2]
    cell_corners = centers[:, None] + h * (2.0 * CUBE_CORNERS - 1.0)
    for basis in (OPT, UNIT, K2, K3):
        lat = lattice_from_params(basis)
        M = _box(lat)
        inv_corners = np.array(inverse(
            covering._shell_words(lat, 2)[:, covering._CORNER_WORDS]))
        cells = rng.choice(len(centers), 12, replace=False)
        inside = (centers[cells, None]
                  + h * rng.uniform(-1.0, 1.0, (len(cells), 300, 3)))
        for c, u in ((slice(None), cell_corners), (cells, inside)):
            pts = tuple(np.moveaxis(u @ M, -1, 0))
            center = tuple((centers[c] @ M).T)
            for winv in inv_corners.T:
                rho_up, zs_up = covering._cell_bounds(center, winv, M)
                lx, ly, lz = translate(pts, winv)
                assert np.all(np.hypot(lx, ly) <= rho_up[:, None])
                assert np.all(np.abs(lz - 0.5 * lx * ly) <= zs_up[:, None])


def test_corner_words_are_box_corners():
    # the corner candidates are the shell words with exponents in {0, 1},
    # in the order 4a + 2b + c, and bit for bit the corners of the box
    # the samples fill
    exps = np.array(np.meshgrid(*[np.arange(-2, 3)] * 3,
                                indexing="ij")).reshape(3, -1)
    in_01 = np.all((exps == 0) | (exps == 1), axis=0)
    for basis in (OPT, UNIT, K2, K3):
        lat = lattice_from_params(basis)
        words = covering._shell_words(lat, 2)
        got = words[:, covering._CORNER_WORDS]
        assert got.tobytes() == words[:, in_01].tobytes()
        assert got.T.tobytes() == (CUBE_CORNERS @ _box(lat)).tobytes()


def test_corner_passes_settle_opt(monkeypatch):
    # at R (1 + 1e-6) every sample of OPT's check passes the table test at
    # one of its box corners, so the sweep over the shell words runs no
    # pass.  A table pass translates point arrays: a cell pass (one
    # _cell_bounds call) and a corner pass by one word per point, a sweep
    # pass by one word for all
    lat = lattice_from_params(OPT)
    R = max(circumball(*tet).radius for tet in domain_tetrahedra(lat))
    calls = _count_calls(monkeypatch, "translate")
    cell_passes = _count_calls(monkeypatch, "_cell_bounds")
    assert verify_covering(lat, R * (1 + 1e-6)).covered
    # the exact pass translates its points as 2-d arrays, all words at once
    passes = [t for p, t in calls if np.ndim(p[0]) == 1]
    per_point = [t for t in passes if np.ndim(t[0]) == 1]
    assert 1 <= len(cell_passes) <= 2
    assert 1 <= len(per_point) - len(cell_passes) <= 8
    assert len(passes) == len(per_point)


def test_table_limit_below_theta_table():
    # the uniform-grid lookup, lowered past its resampling error, never
    # exceeds the theta-table lookup lowered by the margin, at the table's
    # breakpoints Z_j and on a dense zeta grid in between
    margin = covering._MARGIN
    for R in (1e-3, 0.19, 0.2, 0.9, math.pi):
        X, Z = geodesic._profile_array(R, covering._PITCH)
        zs = np.concatenate([np.linspace(0.0, R, 200001), Z[Z <= R]])
        lim = covering._table_limit(R)(zs)
        assert np.all(lim <= np.interp(zs, Z, X) - margin)
        # and it never rises in zs, so the points it accepts form a
        # down-set in (|zeta|, rho), which the cell pass relies on
        assert np.all(np.diff(lim[:200001]) <= 0.0)


def test_pitch_polyline_inside_ball():
    # at R <= pi the sheared ball is convex, so the polyline through the
    # table's profile points lies inside it: Z rises along the pitch grid,
    # and at the quarter points and midpoint of every pitch interval the
    # polyline reaches no farther than the profile at the same height
    thetas = covering._PITCH
    for R in (1e-3, 0.19, 0.2, 0.9, 2.0, 3.0, math.pi):
        X, Z = geodesic._profile_array(R, thetas)
        assert np.all(np.diff(Z) > 0.0)
        for q in (0.25, 0.5, 0.75):
            inner = thetas[:-1] + q * np.diff(thetas)
            prof = np.array([geodesic._profile(R, t) for t in inner])
            assert np.all(np.interp(prof[:, 1], Z, X) <= prof[:, 0])


def test_halton_points_match_scipy():
    # the numpy radical inverse gives scipy's unscrambled Halton points to
    # the bit
    from scipy.stats import qmc

    for n in (1, 2, 7, 2000, 20000):
        want = qmc.Halton(d=3, scramble=False).random(n)
        assert np.array_equal(covering._sample_layout(n)[0], want)


def test_halton_points_shared_read_only():
    layout = covering._sample_layout(2000)
    assert covering._sample_layout(2000) is layout
    pts, cell_of, centers, order = layout
    for a in layout:
        assert not a.flags.writeable
    with pytest.raises(ValueError):
        pts[0, 0] = 1.0
    with pytest.raises(ValueError):
        cell_of[0] = 0
    # every point lies in its cell
    g = covering._GRID_CELLS
    assert centers.shape == (g ** 3, 3)
    assert np.all(np.abs(pts - centers[cell_of]) <= 0.5 / g + 1e-15)
    # each column of the cell order: the eight corners of the unit cube,
    # one byte each, nearest to the cell center first
    assert order.dtype == np.uint8 and order.shape == (8, g ** 3)
    assert np.array_equal(np.sort(order, axis=0),
                          np.repeat(np.arange(8)[:, None], g ** 3, axis=1))
    d2 = ((centers[None] - CUBE_CORNERS[order]) ** 2).sum(axis=2)
    assert np.all(np.diff(d2, axis=0) >= 0.0)
    # and a cell's nearest corner is nearest to each of its points
    d2 = ((pts[None] - CUBE_CORNERS[:, None]) ** 2).sum(axis=2)
    first = d2[order[0, cell_of], np.arange(len(pts))]
    assert np.array_equal(first, d2.min(axis=0))
    lat = lattice_from_params(UNIT)
    first = verify_covering(lat, 0.7, 2000)
    assert repr(verify_covering(lat, 0.7, 2000)) == repr(first)


def test_verify_covering_tiny_radius():
    lat = lattice_from_params(OPT)
    res = verify_covering(lat, 0.01)
    assert not res.covered


def test_verify_covering_domain():
    lat = lattice_from_params(UNIT)
    with pytest.raises(DomainError):
        verify_covering(lat, 0.0)
    with pytest.raises(DomainError):
        verify_covering(lat, 2 * math.pi + 0.1)
    # an int past the float range is no sample count either
    for n_samples in (0, 100.5, 10 ** 400):
        with pytest.raises(DomainError):
            verify_covering(lat, 0.9, n_samples)


ORIGIN = (0.0, 0.0, 0.0)


@pytest.mark.parametrize("call, error", [
    (lambda x: distance_to_origin((x, 0.0, 0.0)), NoSolutionError),
    (lambda x: distance(ORIGIN, (0.0, 0.0, x)), NoSolutionError),
    (lambda x: distance((x, 0.0, 0.0), ORIGIN), NoSolutionError),
    (lambda x: geodesic_between(ORIGIN, (0.0, x, 0.0)), NoSolutionError),
    (lambda x: circumball(ORIGIN, (1.0, 0.0, 0.0), (0.0, 1.0, 0.0),
                          (0.0, 0.0, x)), NoSolutionError),
    (hex_family_lattice, DomainError),
    (hex_density, DomainError),
    (hex_covering_radius, DomainError),
    (lower_bound_density, DomainError),
    (lambda x: sphere_point(1.0, 0.1, x), DomainError),
    (lambda x: sphere_profile(1.0, x), DomainError),
    (lambda x: sphere_point(1.0, x, 0.0), DomainError),
    (bound_f, DomainError),
    (bound_f1, DomainError),
    (bound_f2, DomainError),
    (ball_volume, DomainError),
    (lambda x: verify_covering(lattice_from_params(UNIT), x), DomainError),
    (lambda x: geodesic_xyz(x, 0.0, 1.0), DomainError),
    (lambda x: geodesic_xyz(0.0, x, 1.0), DomainError),
    (lambda x: geodesic_xyz(0.0, 0.0, x), DomainError),
], ids=["distance_to_origin", "distance-p2", "distance-p1",
        "geodesic_between", "circumball", "hex_family_lattice",
        "hex_density", "hex_covering_radius", "lower_bound_density",
        "sphere_point-phi", "sphere_profile-theta", "sphere_point-theta",
        "bound_f", "bound_f1", "bound_f2", "ball_volume",
        "verify_covering-radius", "geodesic_xyz-alpha", "geodesic_xyz-theta",
        "geodesic_xyz-s"])
def test_past_float_range_raises_as_inf(call, error):
    # an int past the float range raises the error that inf gets in the
    # same argument, not a bare OverflowError; a non-finite angle, radius,
    # scale or geodesic parameter is no real number.  A str or None is no
    # number: DomainError wherever it stands, also where a number would be
    # read from it
    for x in (math.inf, -math.inf, math.nan, 10 ** 400, -10 ** 400):
        with pytest.raises(error):
            call(x)
    for x in ("0.1", "a", None):
        with pytest.raises(DomainError):
            call(x)


def test_points_take_real_numbers_only():
    # ints and numpy scalars are read as the floats they equal; a str
    # coordinate is not parsed, wherever it stands
    lat = lattice_from_params(UNIT)
    p = (0.3, -0.2, 0.45)
    d = distance(ORIGIN, p)
    assert distance((0, 0, 0), [np.float64(x) for x in p]) == d
    assert distance_to_origin(np.array(p)) == d
    assert distance(ORIGIN, (1, 0, 0)) == 1.0
    tet = [ORIGIN, (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)]
    ball = circumball(*tet)
    assert circumball((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)) == ball
    for i in range(4):
        for j in range(3):
            q = [list(v) for v in tet]
            q[i][j] = str(q[i][j])
            for call in (lambda: circumball(*q), lambda: distance(q[i], p),
                         lambda: distance(p, q[i]),
                         lambda: distance_to_origin(q[i]),
                         lambda: geodesic_between(q[i], p),
                         lambda: equidistant_projection(q[i], lat)):
                with pytest.raises(DomainError, match="real numbers"):
                    call()
    # a point of the wrong length, or one that is no sequence, is no
    # coordinate triple, wherever it stands
    for bad in ((1.0, 0.0), (0.0, 1.0, 0.0, 0.0), (), 5, None):
        for call in (lambda: distance(ORIGIN, bad), lambda: distance(bad, p),
                     lambda: distance_to_origin(bad),
                     lambda: geodesic_between(p, bad),
                     lambda: geodesic_between(bad, p),
                     lambda: circumball(*tet[:3], bad),
                     lambda: circumball(bad, *tet[1:]),
                     lambda: equidistant_projection(bad, lat)):
            with pytest.raises(DomainError,
                               match="points must be coordinate triples"):
                call()


def test_covering_density_report():
    rep = covering_density(lattice_from_params(OPT))
    assert abs(rep.covering_radius - 0.90293941) < 1e-6
    assert abs(rep.ball_volume - 3.12538516) < 1e-5
    assert abs(rep.domain_volume - 2.18415656) < 1e-5
    assert abs(rep.density - 1.43093459) < 1e-5
    assert rep.verified
    assert rep.density * rep.domain_volume == pytest.approx(rep.ball_volume)


def _count_calls(monkeypatch, name, wrap=lambda res: res, module=covering):
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return wrap(real(*args, **kwargs))

    monkeypatch.setattr(module, name, counted)
    return calls


def _count_fallback_roots(monkeypatch):
    # profile solves the single Newton run missed that found a root (each
    # one was a multistart sweep before the bracketed fallback); a reach
    # rejection raises and is not counted
    roots = []
    _count_calls(monkeypatch, "_bracket_profile",
                 lambda root: roots.append(root) or root, module=geodesic)
    return roots


def test_covering_density_one_covering_pass(monkeypatch):
    circumballs = _count_calls(monkeypatch, "circumball")
    checks = _count_calls(monkeypatch, "_sample_check")
    assert covering_density(lattice_from_params(OPT)).verified
    assert len(circumballs) == 6
    assert len(checks) == 1


def test_covering_radius_grows_to_witness(monkeypatch, caplog):
    # circumradii 3 % short fail the sampling check; the radius is grown to
    # the exact distance of the check's witness, the largest distance the
    # check measured, still from the first six circumballs.  A second check
    # there would pass, so none runs; a fresh check does pass
    circumballs = _count_calls(
        monkeypatch, "circumball",
        lambda res: replace(res, radius=0.97 * res.radius))
    checks = _count_calls(monkeypatch, "_sample_check")
    with caplog.at_level(logging.WARNING, logger="nilcover.covering"):
        rep = covering_density(lattice_from_params(OPT))
    assert abs(rep.covering_radius - 0.90293941) < 1e-6
    assert rep.verified
    assert len(circumballs) == 6
    assert len(checks) == 1
    assert "witness distance %.12g" % rep.covering_radius in caplog.text
    monkeypatch.undo()
    assert verify_covering(lattice_from_params(OPT),
                           rep.covering_radius).covered


def test_no_multistart_sweeps_on_paper_lattices(monkeypatch):
    # circumball line searches try centres out of geodesic reach; every
    # distance on these lattices is a Newton root or a reach rejection
    sweeps = _count_fallback_roots(monkeypatch)
    covering_density(lattice_from_params(OPT))
    assert sweeps == []
    optimize_hex()
    assert sweeps == []


def _normal_form(t11, a, b, k):
    t21, t22 = a * t11, b * t11
    fibre = t11 * t22
    return LatticeBasis((t11, 0.0, 0.5 * fibre),
                        (t21, t22, 0.5 * (fibre + t21 * t22)), k)


def test_no_multistart_sweeps_out_of_2pi_reach(monkeypatch):
    # from a Euclidean start in global coordinates, a line-search trial
    # centre of this seeded normal-form lattice lay at rho = 6.03,
    # |zeta| = 4.79: inside the cheap reach bounds, outside the 2*pi ball.
    # The local-frame start does not try it (test_geodesic's
    # test_reach_test_rejects_before_sweeping pins that target); no
    # fallback may find a root either way
    sweeps = _count_fallback_roots(monkeypatch)
    basis = LatticeBasis((1.3583922569872162, 0, 0.7919083901351797),
                         (0.17242402546769206, 1.1659495054713527,
                          0.8924272437478974), k=2)
    assert covering_density(lattice_from_params(basis)).verified
    assert sweeps == []


def test_circumball_centroid_restart(monkeypatch):
    # the local-frame start solves every domain tetrahedron of these
    # lattices in one Newton run; a Euclidean start in global coordinates
    # fails on one tetrahedron of each
    sweeps = _count_fallback_roots(monkeypatch)
    newtons = _count_calls(monkeypatch, "_newton_circumball")
    per_ball = []
    real = covering.circumball

    def counted(*args):
        before = len(newtons)
        res = real(*args)
        per_ball.append(len(newtons) - before)
        return res

    monkeypatch.setattr(covering, "circumball", counted)
    # large-1-k2's radius is still the largest of the six domain
    # circumradii: the largest empty circumball of its Delaunay cells,
    # found by a walk over them, has radius 1.06900293
    for basis, R in ((_normal_form(1.6, 0.25, 0.875, 2), 1.14563123),
                     (_normal_form(1.8, 0.5, 0.75, 1), 1.30871930)):
        per_ball.clear()
        rep = covering_density(lattice_from_params(basis))
        assert abs(rep.covering_radius - R) < 1e-7
        assert per_ball == [1] * 6
    # the corner tetrahedron of this lattice failed its local-frame start
    # when each Newton evaluation solved four profile Newtons; the joint
    # Newton solves it from there.  The centroid start solves it too, with
    # a radius within its start radius R2
    newtons.clear()
    pts = [tuple(float(x) for x in p) for p in corner_tet(K3)]
    res = real(*pts)
    assert len(newtons) == 1
    assert abs(res.radius - 1.88874823) < 1e-7
    assert res.residual <= 1e-8
    m = tuple(sum(p[i] for p in pts) / 4.0 for i in range(3))
    R2 = max(distance(m, p) for p in pts)
    v, r = covering._newton_circumball(pts, [*m, R2])
    assert abs(v[3] - 1.88874823) < 1e-7 and v[3] <= R2
    assert math.hypot(*r) < 1e-8
    assert sweeps == []


def test_circumball_newton_evaluations_on_opt(monkeypatch):
    # the local-frame start reaches each of OPT's six circumballs in at
    # most six Newton evaluations of one profile kernel call per point (a
    # Euclidean start in global coordinates took 17 and 20 evaluations on
    # two of them, each solving four profile Newtons)
    evals = _count_calls(monkeypatch, "_profile_fj")
    for tet in domain_tetrahedra(lattice_from_params(OPT)):
        evals.clear()
        assert abs(circumball(*tet).radius - 0.90293941) < 1e-6
        assert len(evals) <= 4 * 6


def test_solve3_matches_numpy():
    rng = np.random.default_rng(11)
    for _ in range(200):
        A = rng.uniform(-1.0, 1.0, (3, 3))
        b = rng.uniform(-1.0, 1.0, 3)
        want = np.linalg.solve(A, b)
        det, got = covering._solve3(A.ravel().tolist(), b.tolist())
        assert det == pytest.approx(np.linalg.det(A), rel=1e-12)
        assert all(type(x) is float for x in got)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
    # two equal rows: the determinant is exactly 0
    A = [[0.3, -1.2, 0.7], [0.5, 0.25, -2.0], [0.3, -1.2, 0.7]]
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(np.array(A), np.ones(3))
    flat = [x for row in A for x in row]
    assert covering._solve3(flat, [1.0] * 3) == (0.0, None)


def test_eliminated_step_matches_4x4_solve():
    # at seeded Newton states about three circumballs, the step from the
    # row differences solves the 4x4 system of rows [g_i, -1]
    rng = np.random.default_rng(29)
    corners = (corner_tet(OPT), corner_tet(hex_family_lattice(1.26001585)),
               corner_tet(K3))
    for pts in corners:
        pts = [tuple(float(x) for x in p) for p in pts]
        ball = circumball(*pts)
        for _ in range(20):
            c = [x + rng.uniform(-0.05, 0.05) for x in ball.center]
            R = ball.radius * rng.uniform(0.95, 1.05)
            thetas = [math.atan2(zeta, rho) + rng.uniform(-0.05, 0.05)
                      for rho, zeta in (geodesic._reduced(
                          geodesic._relative_target(c, q)) for q in pts)]
            g, r, _, _ = covering._circumball_system(pts, [*c, R, *thetas])
            rows = np.c_[np.reshape(g, (4, 3)), -np.ones(4)]
            want = np.linalg.solve(rows, -np.array(r))
            got = covering._eliminated_step(g, r)
            assert all(type(x) is float for x in got)
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_newton_circumball_singular_jacobian(monkeypatch):
    # a profile kernel with dX/dtheta = 0 leaves every eliminated row
    # without a z-part, so the 4x4 row system is singular, which
    # np.linalg.solve rejects, and so are its row differences: the step is
    # None and the Newton run gives up with None
    monkeypatch.setattr(covering, "_profile_fj",
                        lambda R, theta: (0.0, 0.0, 0.0, 1.0, 1.0, 0.0))
    pts = [(float(i), 0.0, 0.0) for i in range(4)]
    v0 = (0.0, 0.0, 0.0, 1.0)
    g, r, _, nrm = covering._circumball_system(pts, [*v0, *[0.0] * 4])
    assert g[2::3] == [0.0] * 4 and nrm > 0.0
    rows = np.c_[np.reshape(g, (4, 3)), -np.ones(4)]
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(rows, np.ones(4))
    assert covering._eliminated_step(g, r) is None
    assert covering._newton_circumball(pts, v0) is None


def test_distance_gradient_reuses_newton_jacobian(monkeypatch):
    # a circumball Newton evaluation is one profile kernel call per point,
    # whose Jacobian gives both the step and the distance gradient; no
    # profile Newton runs inside it (480 and 64 kernel calls when each
    # evaluation solved four profile Newtons).  The sampling check's six
    # probes make one distance solve each, four kernel calls apiece
    evals = _count_calls(monkeypatch, "_profile_fj", module=geodesic)
    in_circumball = _count_calls(monkeypatch, "_profile_fj")
    covering_density(lattice_from_params(OPT))
    assert (len(in_circumball), len(evals)) == (96, 24)
    evals.clear()
    in_circumball.clear()
    circumball(*corner_tet(hex_family_lattice(1.26001585)))
    assert (len(in_circumball), len(evals)) == (16, 0)


def test_profile_kernel_calls_per_operation(monkeypatch):
    # every call of the profile kernel, through whichever module binds it:
    # ball_volume computes its two profile values itself (it made 17
    # kernel calls, so 33 per hex_density), and a circumball evaluation is
    # one kernel call per point.  From the sheared local frame a hex corner
    # takes four evaluations, and so does each of OPT's circumballs
    calls = []
    real = geodesic._profile_fj

    def counted(*args):
        calls.append(args)
        return real(*args)

    for name, module in list(sys.modules.items()):
        if (name.startswith("nilcover")
                and getattr(module, "_profile_fj", None) is real):
            monkeypatch.setattr(module, "_profile_fj", counted)
    systems = _count_calls(monkeypatch, "_circumball_system")
    hex_corner = corner_tet(hex_family_lattice(1.26001585))
    for run, want in ((lambda: circumball(*hex_corner), 16),
                      (lambda: hex_density(1.26001585), 16),
                      (lambda: covering_density(lattice_from_params(OPT)),
                       120)):
        calls.clear()
        systems.clear()
        run()
        assert len(calls) == want
    # OPT's six circumballs: 24 evaluations of four calls; the sampling
    # check's six probe solves make the other 24
    assert len(systems) == 24


COPLANAR = ((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (2.0, 0.0, 0.0), (0.0, 1.0, 0.0))


def test_circumball_restart_guard(monkeypatch):
    # coplanar points have no local-frame start; the centroid start
    # converges to a circumball of radius 4.78401346, past its start radius
    # R2, so the guard rejects it and the points are reported coplanar
    roots = []
    starts = _count_calls(monkeypatch, "_newton_circumball",
                          lambda root: roots.append(root) or root)
    with pytest.raises(DegenerateGeometryError,
                       match="coplanar, so there is no local-frame start"):
        circumball(*COPLANAR)
    m = tuple(sum(p[i] for p in COPLANAR) / 4.0 for i in range(3))
    R2 = max(distance(m, p) for p in COPLANAR)
    assert abs(R2 - 1.31493426) < 1e-7
    assert [start for _, start in starts] == [[*m, R2]]
    (v, F), = roots
    assert abs(v[3] - 4.78401346) < 1e-7 and v[3] > R2
    assert math.hypot(*F) < 1e-8


def _seeded_domain_tetrahedra(seed, n):
    # the six domain tetrahedra each of n seeded lattices, k uniform in
    # 1..3: even draws in the paper's normal form over the box of the
    # benchmark's normal-form lattices (t11 in [0.8, 1.8], t21/t11 in
    # [0, 0.5], t22/t11 in [0.75, 1]), odd draws with both generators
    # uniform in [-1.5, 1.5]^3
    rng = np.random.default_rng(seed)
    tets = []
    for i in range(n):
        k = int(rng.integers(1, 4))
        if i % 2 == 0:
            t11, a, b = (rng.uniform(0.8, 1.8), rng.uniform(0.0, 0.5),
                         rng.uniform(0.75, 1.0))
            t21, t22 = a * t11, b * t11
            fibre = t11 * t22
            basis = LatticeBasis((t11, 0.0, 0.5 * fibre),
                                 (t21, t22, 0.5 * (fibre + t21 * t22)), k)
        else:
            basis = LatticeBasis(tuple(rng.uniform(-1.5, 1.5, 3).tolist()),
                                 tuple(rng.uniform(-1.5, 1.5, 3).tolist()), k)
        tets += domain_tetrahedra(lattice_from_params(basis))
    return tets


def _newton_runs(monkeypatch):
    # the _newton_circumball calls: their arguments, and whether each
    # found a root
    runs = []
    starts = _count_calls(monkeypatch, "_newton_circumball",
                          lambda root: runs.append(root is not None) or root)
    return starts, runs


def test_circumball_start_chain_survey(monkeypatch):
    # the 240 domain tetrahedra of 40 seeded lattices, by the Newton run
    # whose root circumball returns: the sheared local-frame start finds
    # 195 roots, of which circumball accepts 162 and rejects 33 that end
    # too far from their start; the plain local-frame start gives 37 roots
    # and the centroid start 4; 37 have no root
    tets = _seeded_domain_tetrahedra(0, 40)
    starts, runs = _newton_runs(monkeypatch)
    wins, radii = {}, []
    for tet in tets:
        starts.clear()
        runs.clear()
        try:
            res = circumball(*tet)
        except NoSolutionError:
            won, radius = None, None
        else:
            won, radius = len(runs), res.radius
            assert runs[-1] and res.residual <= 1e-8
        wins[won] = wins.get(won, 0) + 1
        wins["rejected"] = wins.get("rejected", 0) + (runs[0] and won != 1)
        radii.append(radius)
    assert wins == {1: 162, 2: 37, 3: 4, None: 37, "rejected": 33}
    # the plain and centroid starts alone, with no sheared start (its
    # frame's _circumcentre, the first call of each ball, gives None, as
    # for a singular system): they find 202 roots, and circumball returns
    # each of them above with the same radius: the sheared start loses no
    # root and changes no radius, and gains one
    real = covering._circumcentre
    frames = []

    def plain_only(*pts):
        frames.append(pts)
        return None if len(frames) == 1 else real(*pts)

    monkeypatch.setattr(covering, "_circumcentre", plain_only)
    found = 0
    for tet, radius in zip(tets, radii):
        frames.clear()
        try:
            plain = circumball(*tet).radius
        except NoSolutionError:
            continue
        found += 1
        assert abs(radius - plain) <= 1e-12 * plain
    assert found == 202


def test_circumball_far_sheared_root_rejected(monkeypatch):
    # a domain tetrahedron of a seeded generic lattice: the sheared start's
    # Newton run ends 1.73 R0 from its start, on a circumball of radius
    # 4.7264914702 through the four points.  circumball rejects it and
    # returns the plain start's root, a ball of radius 1.5947603553
    tet = [(1.7167900849859012, 0.0, -0.3603684327005182),
           (-1.2004640988849304, 0.5563798027531804, -0.9301838442969248),
           (0.0, 0.0, 0.9551873288530717),
           (-1.2004640988849304, 0.5563798027531804, 0.02500348455614687)]
    starts, runs = _newton_runs(monkeypatch)
    ball = circumball(*tet)
    assert runs == [True, True]
    far, _ = covering._newton_circumball(*starts[0])
    assert abs(far[3] - 4.7264914702) < 1e-9
    assert abs(ball.radius - 1.5947603553) < 1e-9
    for p in tet:
        assert abs(distance(ball.center, p) - ball.radius) <= 1e-12


def test_circumball_plain_start_root_accepted(monkeypatch):
    # tetrahedron 190 of the survey above: the sheared start finds no
    # root, and the plain local-frame start after it does
    tet = [(0.9109933191425647, 0.0, 1.5376390488529685),
           (0.0, 0.0, 0.061817880191621474),
           (0.9109933191425647, 0.0, 1.59945692904459),
           (-1.5640823050065387, 0.06785766579474484, 0.7177773423319167)]
    starts, runs = _newton_runs(monkeypatch)
    ball = circumball(*tet)
    assert runs == [False, True]
    assert abs(ball.radius - 1.3928494105) < 1e-9
    for p in tet:
        assert abs(distance(ball.center, p) - ball.radius) <= 1e-12


def test_circumball_centroid_start_root_accepted(monkeypatch):
    # tetrahedron 150 of the survey above: neither local-frame start finds
    # a root, and the centroid start finds one within its start radius R2,
    # which circumball accepts
    tet = [(0.0, 0.0, 0.0), (1.060141259473274, 0.0, 0.8840448689869412),
           (1.3845353216992817, 0.16739950910065626, -0.9822671112780756),
           (0.0, 0.0, 0.08873356320658876)]
    starts, runs = _newton_runs(monkeypatch)
    ball = circumball(*tet)
    assert runs == [False, False, True]
    R2 = starts[2][1][3]
    assert abs(ball.radius - 1.0684639948) < 1e-9 and ball.radius <= R2
    for p in tet:
        assert abs(distance(ball.center, p) - ball.radius) <= 1e-12
    # a geodesic from a point to itself has length 0
    res = geodesic_between(tet[0], tet[0])
    assert res.params == GeodesicParams(0.0, 0.0, 0.0) and res.residual == 0.0


def test_circumball_at_most_three_newton_runs(monkeypatch):
    # the sheared and plain local-frame starts and the centroid start are
    # the only ones: four of K3's domain tetrahedra and points out of
    # geodesic reach of each other fail after them, with circumball's own
    # error
    newtons = _count_calls(monkeypatch, "_newton_circumball")
    outcomes = []
    for pts in (*domain_tetrahedra(lattice_from_params(K3)), COPLANAR,
                ((0.0, 0.0, 0.0), (20.0, 0.0, 0.0), (0.0, 20.0, 0.0),
                 (0.0, 0.0, 400.0))):
        newtons.clear()
        try:
            outcomes.append(circumball(*pts).radius)
        except (DegenerateGeometryError, NoSolutionError) as exc:
            outcomes.append((type(exc), str(exc)))
        assert 1 <= len(newtons) <= 3
    none = (NoSolutionError, "no circumscribed ball of radius <= 2*pi found")
    assert outcomes == [pytest.approx(1.88874823, abs=1e-8), none, none, none,
                        none, pytest.approx(1.90466859, abs=1e-8),
                        (DegenerateGeometryError, "points are coplanar, so "
                         "there is no local-frame start, and the centroid "
                         "start found no root within its start radius"),
                        none]
    res = verify_covering(lattice_from_params(K3), 1.0, 2000)
    assert abs(res.witness_distance - 1.1457685362) < 1e-9


def _density_bases(monkeypatch, seed):
    # the lattices of the benchmark's density workload at a seed, from its
    # own input builder
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "bench"))
    workloads = importlib.import_module("workloads")
    monkeypatch.setattr(workloads, "_density_op",
                        lambda label, basis, *args: basis)
    return workloads.build("density", seed, 1.0)


def test_circumballs_exact_on_density_inputs(monkeypatch):
    # every domain tetrahedron of the density inputs of seeds 0 and 7919,
    # and 20 hex-family corners: each vertex lies at the radius from the
    # centre by exact distance, and the reported residual is small
    tets = [tet for seed in (0, 7919)
            for basis in _density_bases(monkeypatch, seed)
            for tet in domain_tetrahedra(lattice_from_params(basis))]
    tets += [corner_tet(hex_family_lattice(t11))
             for t11 in np.linspace(0.9, 1.7, 20).tolist()]
    assert len(tets) == 2 * 23 * 6 + 20
    for tet in tets:
        res = circumball(*tet)
        assert res.residual <= 1e-8
        for p in tet:
            assert abs(distance(res.center, p) - res.radius) <= 1e-12


def test_bound_f_values():
    assert abs(bound_f(math.pi / 2) - 1.71179510) < 1e-5
    assert abs(bound_f1(math.pi) - 1.441711246) < 1e-6
    assert abs(bound_f2(3 * math.pi / 2) - 2.372757788026564) < 1e-9


def test_bounds_increasing_on_their_intervals():
    r = math.pi / 2
    while r < math.pi - 0.02:
        assert bound_f(r + 0.02) > bound_f(r)
        r += 0.02
    r = math.pi
    while r < 3 * math.pi / 2 - 0.02:
        assert bound_f1(r + 0.02) > bound_f1(r)
        r += 0.02
    r = 3 * math.pi / 2
    while r < 2 * math.pi - 0.02:
        assert bound_f2(r + 0.02) > bound_f2(r)
        r += 0.02


def test_bounds_domains():
    with pytest.raises(DomainError):
        bound_f(math.pi / 2 - 0.01)
    with pytest.raises(DomainError):
        bound_f(math.pi + 0.01)
    with pytest.raises(DomainError):
        bound_f1(math.pi - 0.01)
    with pytest.raises(DomainError):
        bound_f1(3 * math.pi / 2 + 0.01)
    with pytest.raises(DomainError):
        bound_f2(3 * math.pi / 2 - 0.01)
    with pytest.raises(DomainError):
        bound_f2(2 * math.pi + 0.01)


def test_bound_values_exceed_achieved_density():
    # any ball with radius in these ranges covers less efficiently than
    # the achieved optimum, so each bound stays above it
    for f, lo in ((bound_f, math.pi / 2), (bound_f1, math.pi),
                  (bound_f2, 3 * math.pi / 2)):
        assert f(lo) > 1.42900615


def test_equidistant_projection():
    lat = lattice_from_params(UNIT)
    assert equidistant_projection((0.0, 0.0, 0.3), lat) == (0.0, 0.0, 0.5)
    assert equidistant_projection((1.0, 1.0, -2.0), lat) == (1.0, 1.0, 1.0)
    # ints and numpy scalars are read as the floats they equal
    for q in ((1, 1, -2), np.array((1.0, 1.0, -2.0))):
        assert equidistant_projection(q, lat) == (1.0, 1.0, 1.0)
        assert all(type(x) is float for x in equidistant_projection(q, lat))
    # the surface has no point above an infinite or nan coordinate
    for bad in (math.inf, -math.inf, math.nan):
        for i in range(3):
            q = [1.0, 1.0, -2.0]
            q[i] = bad
            with pytest.raises(DomainError, match="finite coordinates"):
                equidistant_projection(q, lat)
    rng = random.Random(111)
    for basis in (UNIT, OPT):
        lat = lattice_from_params(basis)
        for _ in range(50):
            p = tuple(rng.uniform(-2, 2) for _ in range(3))
            q = equidistant_projection(p, lat)
            # the sheared image is the flat plane at half the fibre height
            assert abs(m_map(q)[2] - lat.fibre / 2) < 1e-12


def test_hex_family_construction():
    basis = hex_family_lattice(2.0)
    assert basis.t1 == pytest.approx((2.0, 0.0, math.sqrt(3.0)))
    assert basis.t2 == pytest.approx((1.0, math.sqrt(3.0), 1.5 * math.sqrt(3.0)))
    assert basis.k == 1
    with pytest.raises(DomainError):
        hex_family_lattice(0.0)
    with pytest.raises(DomainError):
        hex_family_lattice(-1.0)


def test_hex_generators_lie_on_equidistant_surface():
    rng = random.Random(121)
    for _ in range(20):
        t11 = rng.uniform(0.6, 1.8)
        lat = lattice_from_params(hex_family_lattice(t11))
        for t in (lat.t1, lat.t2):
            assert abs(m_map(t)[2] - lat.fibre / 2) < 1e-12


def test_hex_covering_radius_monotone():
    values = [hex_covering_radius(t) for t in (1.0, 1.15, 1.3, 1.45, 1.6)]
    expected = [0.6430839870117137, 0.7644252055010181, 0.8970520907440427,
                1.0434107171062446, 1.2065197505346303]
    for v, e in zip(values, expected):
        assert abs(v - e) < 1e-7
    assert all(a < b for a, b in zip(values, values[1:]))


def test_hex_density_radius_is_hex_covering_radius():
    for t11 in (0.9, 1.26001585, 1.5, 1.7):
        assert hex_density(t11).covering_radius == hex_covering_radius(t11)


def test_hex_density_at_best_lattice_generator():
    # the best general lattice is a member of the hexagonal family
    rep = hex_density(1.30633820)
    assert abs(rep.density - 1.43093459) < 1e-6


def test_optimize_hex():
    t11, R, dens = optimize_hex()
    assert abs(t11 - 1.26001585) < 1e-4
    assert abs(R - 0.86046718) < 1e-4
    assert abs(dens - 1.42900615) < 1e-5
    # optimum beats the six-congruent-tetrahedra lattice
    assert dens < 1.43093459


def test_lower_bound_config():
    cfg = lower_bound_density(0.8584744499478333)
    assert abs(cfg.density - 1.362781119320525) < 1e-9
    assert abs(cfg.chord_theta - 0.9270908355550823) < 1e-7
    assert abs(math.hypot(*cfg.t1p[:2]) - cfg.rp) < 1e-9
    assert cfg.t2p == pytest.approx((0.0, cfg.rp, 0.0))
    with pytest.raises(DomainError):
        lower_bound_density(0.0)
    with pytest.raises(DomainError):
        lower_bound_density(math.pi / 2 + 0.1)
    # psi(1e-6) > 0 below about 8.8e-7; past about 1.5e-162 rp * rp
    # underflows to 0, where the terms would divide by 0
    for rp in (1e-7, 1e-160, 2e-162, 1e-162, 1e-300, math.ulp(0.0)):
        with pytest.raises(NoSolutionError, match="no root"):
            lower_bound_density(rp)


def test_lower_bound_constraint_increasing():
    # lower_bound_density's one bracketed solve needs psi = chord - 2 area
    # strictly increasing in the chord pitch, negative at the left end and
    # positive at the right
    thetas = np.linspace(1e-6, 0.5 * math.pi - 1e-12, 201)
    for rp in np.linspace(0.0, 0.5 * math.pi, 51)[1:]:
        psi = [chord - area2 for chord, area2, _ in
               (covering._lower_bound_terms(rp, t) for t in thetas)]
        assert psi[0] < 0.0 < psi[-1]
        assert all(a < b for a, b in zip(psi, psi[1:]))


def test_minimize_lower_bound():
    rp, dens = minimize_lower_bound()
    assert abs(rp - 0.85847445) < 1e-3
    assert abs(dens - 1.36278112) < 1e-4
    # sandwich: lower bound below the achieved optimum
    assert dens < 1.42900615 + 1e-8


def test_lower_bound_below_hex_at_matched_radius():
    # at equal covering radius the relaxed two-generator configuration
    # can only do better (smaller density) than the true lattice
    for t11 in (1.0, 1.1, 1.2600158931406935, 1.4):
        R = hex_covering_radius(t11)
        if R > math.pi / 2:
            continue
        cfg = lower_bound_density(R)
        rep = hex_density(t11)
        assert cfg.density <= rep.density + 1e-9
