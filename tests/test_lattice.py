"""Lattices, fundamental domains, tilings."""

import dataclasses
import gc
import math
import random
import weakref

import numpy as np
import pytest

from nilcover import lattice
from nilcover import (DegenerateLatticeError, DomainError, LatticeBasis,
                      TilingReport, commutator, compose, domain_tetrahedra,
                      domain_volume, distance_to_origin, fundamental_domain,
                      hex_family_lattice, inverse, lattice_from_params,
                      lattice_points_in_shell, power, rotate_z,
                      tiling_spot_check, translate)

UNIT = LatticeBasis(t1=(1.0, 0.0, 0.0), t2=(0.0, 1.0, 0.0), k=1)
OPT = LatticeBasis(t1=(1.30633820, 0.0, 0.73894461),
                   t2=(0.65316910, 1.13132206, 1.10841692), k=1)
# a normal-form k = 2 lattice: its solid tiles, as at k = 1
K2 = LatticeBasis(t1=(1.7, 0.0, 1.2325), t2=(0.8, 1.45, 1.8125), k=2)


def close(a, b, tol=1e-12):
    return max(abs(x - y) for x, y in zip(a, b)) <= tol


def test_unit_domain_vertices():
    dom = fundamental_domain(lattice_from_params(UNIT))
    d = dom.as_dict()
    assert d["O"] == (0.0, 0.0, 0.0)
    assert close(d["T1"], (1.0, 0.0, 0.0))
    assert close(d["T2"], (0.0, 1.0, 0.0))
    assert close(d["T3"], (0.0, 0.0, 1.0))
    assert close(d["T12"], (1.0, 1.0, 0.0))
    assert close(d["T13"], (1.0, 0.0, 1.0))
    assert close(d["T21"], (1.0, 1.0, 1.0))
    assert close(d["T23"], (0.0, 1.0, 1.0))
    assert close(d["T213"], (1.0, 1.0, 2.0))


def test_domain_vertices_are_lattice_words():
    # every vertex is a word in the generators, subscripts in application order
    lat = lattice_from_params(OPT)
    t1, t2, t3 = lat.t1, lat.t2, lat.tau3
    d = fundamental_domain(lat).as_dict()
    assert close(d["T1"], t1)
    assert close(d["T2"], t2)
    assert close(d["T3"], t3)
    assert close(d["T12"], compose(t1, t2))
    assert close(d["T21"], compose(t2, t1))
    assert close(d["T13"], compose(t1, t3))
    assert close(d["T23"], compose(t2, t3))
    assert close(d["T213"], compose(compose(t2, t1), t3))


def test_t21_vs_t12_differ_by_fibre():
    lat = lattice_from_params(OPT)
    d = fundamental_domain(lat).as_dict()
    assert close(compose(d["T12"], lat.tau3), d["T21"], tol=1e-12)


def test_domain_volumes():
    assert abs(domain_volume(lattice_from_params(UNIT)) - 1.0) < 1e-15
    big = LatticeBasis(t1=(6.0, 0.0, 0.0), t2=(0.0, 6.0, 0.0), k=1)
    assert abs(domain_volume(lattice_from_params(big)) - 1296.0) < 1e-9
    assert abs(domain_volume(lattice_from_params(OPT)) - 2.18415656) < 1e-7


def test_domain_volume_scales_with_k():
    base = LatticeBasis(t1=(1.5, 0.0, 0.0), t2=(0.2, 1.1, 0.0), k=1)
    halved = LatticeBasis(t1=base.t1, t2=base.t2, k=2)
    v1 = domain_volume(lattice_from_params(base))
    v2 = domain_volume(lattice_from_params(halved))
    assert abs(v1 - 2 * v2) < 1e-12


def test_tetrahedra_cover_all_vertices():
    lat = lattice_from_params(OPT)
    d = fundamental_domain(lat).as_dict()
    tets = domain_tetrahedra(lat)
    assert len(tets) == 6
    used = set()
    for tet in tets:
        assert len(tet) == 4
        for p in tet:
            matches = [name for name, q in d.items() if close(p, q, tol=1e-12)]
            assert len(matches) == 1
            used.add(matches[0])
    # the decomposition touches eight of the nine corners
    assert used == {"O", "T1", "T2", "T3", "T12", "T13", "T21", "T23"}


def test_shells():
    lat = lattice_from_params(UNIT)
    shell0 = lattice_points_in_shell(lat, 0)
    assert shell0 == [(0.0, 0.0, 0.0)]
    shell1 = lattice_points_in_shell(lat, 1)
    assert len(shell1) == 27
    assert (0.0, 0.0, 0.0) in shell1
    assert (1.0, 1.0, 2.0) not in shell1
    shell2 = lattice_points_in_shell(lat, 2)
    assert len(shell2) == 125
    assert (1.0, 1.0, 2.0) in shell2


def shell_by_word_loop(lat, n):
    """Reference enumeration: one compose/power word at a time."""
    pts = []
    rng = range(-n, n + 1)
    for a in rng:
        pa = power(lat.t1, a)
        for b in rng:
            pab = compose(pa, power(lat.t2, b))
            for c in rng:
                pts.append(compose(pab, power(lat.tau3, c)))
    return pts


def test_shells_match_word_loop():
    for basis in (UNIT, OPT, hex_family_lattice(1.26001585), K2):
        lat = lattice_from_params(basis)
        for n in range(4):
            pts = lattice_points_in_shell(lat, n)
            assert len(pts) == (2 * n + 1) ** 3
            assert all(type(p) is tuple and type(p[0]) is float for p in pts)
            assert pts == shell_by_word_loop(lat, n)


def test_shell_index_bounds():
    lat = lattice_from_params(UNIT)
    for n in (-1, 51, 1.5):
        with pytest.raises(DomainError):
            lattice_points_in_shell(lat, n)


def test_shell_words_match_compose_power():
    # the float exponent grids give the words of integer exponents to the
    # bit, signed zeros included
    bases = [hex_family_lattice(1.26001585), OPT, UNIT,
             LatticeBasis(OPT.t1, compose(OPT.t1, OPT.t2), OPT.k)]
    bases += [normal_form(1.3, 0.2, 0.9, k) for k in (1, 2, 3)]
    for basis in bases:
        lat = lattice_from_params(basis)
        for n in range(4):
            idx = np.arange(-n, n + 1)
            a, b, c = (g.ravel()
                       for g in np.meshgrid(idx, idx, idx, indexing="ij"))
            want = np.array(compose(compose(power(lat.t1, a),
                                            power(lat.t2, b)),
                                    power(lat.tau3, c)))
            got = lattice._shell_words(lat, n)
            assert np.array_equal(got, want)
            assert got.tobytes() == want.tobytes()


def test_only_the_shell2_exponent_grid_is_kept(monkeypatch):
    # shell 2 reads the module's grid; every other shell builds its grid
    # per call, and nothing keeps it once the call returns
    built = []
    real = lattice._exponent_grid

    def spy(n):
        grid = real(n)
        built.extend(weakref.ref(g) for g in grid)
        return grid

    monkeypatch.setattr(lattice, "_exponent_grid", spy)
    lat = lattice_from_params(OPT)
    lattice._shell_words(lat, 2)
    assert built == []
    for n in (0, 1, 3, 5):
        lattice._shell_words(lat, n)
    gc.collect()
    assert len(built) == 4 * 3 and all(ref() is None for ref in built)


def test_domain_vertices_in_shells():
    # eight vertices are one-step words; the ninth needs two vertical steps
    lat = lattice_from_params(OPT)
    d = fundamental_domain(lat).as_dict()
    shell1 = lattice_points_in_shell(lat, 1)
    shell2 = lattice_points_in_shell(lat, 2)

    def member(pts, q):
        return any(close(p, q, tol=1e-9) for p in pts)

    for name in ("O", "T1", "T2", "T3", "T12", "T13", "T21", "T23"):
        assert member(shell1, d[name]), name
    assert not member(shell1, d["T213"])
    assert member(shell2, d["T213"])


def test_fibre_generator_is_central_commutator():
    lat = lattice_from_params(OPT)
    comm = commutator(lat.t1, lat.t2)
    assert close(comm, power(lat.tau3, lat.k), tol=1e-12)
    p = (0.3, -0.2, 0.9)
    assert close(translate(translate(p, lat.tau3), lat.t1),
                 translate(translate(p, lat.t1), lat.tau3))


def test_normalization():
    rng = random.Random(83)
    for _ in range(50):
        raw1 = (rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
        raw2 = (rng.uniform(-1.0, 1.0), rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0))
        lat = lattice_from_params(LatticeBasis(t1=raw1, t2=raw2, k=1))
        # first generator is rotated onto the x-axis
        assert lat.t1[1] == 0.0
        assert lat.t1[0] > 0.0
        assert lat.fibre > 0.0
        # rotation preserves distance to the origin
        assert abs(distance_to_origin(lat.t1) - distance_to_origin(raw1)) < 1e-9
        area = raw1[0] * raw2[1] - raw1[1] * raw2[0]
        assert abs(domain_volume(lat) - area * area) < 1e-9


def test_basis_round_trip():
    d = OPT.to_dict()
    assert d == {"t1": [1.30633820, 0.0, 0.73894461],
                 "t2": [0.65316910, 1.13132206, 1.10841692],
                 "k": 1}
    assert LatticeBasis.from_dict(d) == OPT


def test_degenerate_basis_rejected():
    with pytest.raises(DegenerateLatticeError):
        lattice_from_params(LatticeBasis(t1=(1.0, 0.0, 0.0), t2=(2.0, 0.0, 0.0), k=1))
    # k is a number: the string "2" is not read as 2
    for k in (0, 1.5, math.inf, math.nan, 10 ** 400, "2"):
        with pytest.raises(DomainError):
            LatticeBasis(t1=(1.0, 0.0, 0.0), t2=(0.0, 1.0, 0.0), k=k)
    # an integral float or a numpy scalar is read as that integer
    for k in (3.0, np.int64(3), np.float64(3.0)):
        basis = LatticeBasis(t1=(1.0, 0.0, 0.0), t2=(0.0, 1.0, 0.0), k=k)
        assert basis.k == 3 and type(basis.k) is int


def test_generators_must_be_triples():
    # a generator that is no sequence, or one of the wrong length, is no
    # coordinate triple, in either place; nor is a mapping or a set of
    # three numbers, whose keys or members have no coordinate order, nor
    # three bytes, which unpack to character codes
    for bad in (5, None, (1.0, 0.0), (1.0, 0.0, 0.0, 0.0),
                {1: "a", 2: "b", 3: "c"}, {1.0: 0.0, 2.0: 0.0, 3.0: 0.0},
                {0.0, 1.0, 2.0}, frozenset((0.0, 1.0, 2.0)), b"abc",
                bytearray(b"abc")):
        for t1, t2 in ((bad, (0.0, 1.0, 0.0)), ((1.0, 0.0, 0.0), bad)):
            with pytest.raises(DomainError,
                               match="generators must be coordinate triples"):
                LatticeBasis(t1, t2)


def test_from_dict_refuses_malformed_data():
    # data that is no mapping with keys t1 and t2, or that has another key
    # than those and k, or whose generator is no triple, raises DomainError,
    # never a bare TypeError or KeyError
    for data in ([1, 2], None, "t1", {"t1": [1.0, 0.0, 0.0]},
                 {"t2": [0.0, 1.0, 0.0], "k": 1},
                 {"t1": [1.0, 0.0, 0.0], "t2": [0.0, 1.0, 0.0], "K": 2}):
        with pytest.raises(DomainError, match="mapping with keys t1 and t2"):
            LatticeBasis.from_dict(data)
    for t1 in (5, None, {"x": 1.0, "y": 0.0, "z": 0.0}):
        with pytest.raises(DomainError,
                           match="generators must be coordinate triples"):
            LatticeBasis.from_dict({"t1": t1, "t2": [0, 1, 0]})


def test_domain_needs_a_normalized_lattice():
    # a raw basis whose t1 leaves the x-axis has no fibre of its own: the
    # domain functions take the Lattice that lattice_from_params makes,
    # and refuse the basis instead of building a wrong solid from it
    basis = LatticeBasis((1.0, 1.0, 0.0), (0.0, 1.0, 0.0))
    for call in (fundamental_domain, domain_tetrahedra, domain_volume):
        with pytest.raises(AttributeError):
            call(basis)
    T1 = fundamental_domain(lattice_from_params(basis)).T1
    assert close(T1, (math.sqrt(2.0), 0.0, -0.5))


def test_tiling_spot_checks():
    for basis in (UNIT, OPT):
        rep = tiling_spot_check(lattice_from_params(basis), samples=400, seed=0)
        assert rep.samples == 400
        assert rep.gaps == 0
        assert rep.overlaps == 0
        assert rep.ok


def tiling_by_point_loop(lat, samples, seed, shell=3):
    """Reference spot check: one point and tetrahedron at a time, against
    the translates by every word of the shell."""
    tets = domain_tetrahedra(lat)
    frames = []
    for tet in tets:
        a = np.asarray(tet[0], float)
        M = np.column_stack([np.asarray(tet[i], float) - a for i in (1, 2, 3)])
        frames.append((a, np.linalg.inv(M)))

    def in_any_tet(q, eps):
        for a, Minv in frames:
            x = Minv @ (np.asarray(q, float) - a)
            if x.min() >= -eps and x.sum() <= 1.0 + eps:
                return True
        return False

    corners = np.array([v for tet in tets for v in tet])
    lo, hi = corners.min(axis=0), corners.max(axis=0)
    pts = lo + (hi - lo) * np.random.default_rng(seed).random((samples, 3))
    # a local point outside the solid's bounding box, widened by far more
    # than the eps band inflates a tetrahedron, lies in none of them
    pad = 1e-6 * (hi - lo)
    box_lo, box_hi = (lo - pad)[:, None], (hi + pad)[:, None]
    inv_words = inverse(tuple(lattice._shell_words(lat, shell)))
    gaps = overlaps = 0
    for p in pts:
        q = np.array(translate(tuple(p), inv_words))
        local = q[:, ((box_lo <= q) & (q <= box_hi)).all(axis=0)].T
        if sum(in_any_tet(q, 1e-9) for q in local) < 1:
            gaps += 1
        if sum(in_any_tet(q, -1e-9) for q in local) > 1:
            overlaps += 1
    return TilingReport(samples=samples, gaps=gaps, overlaps=overlaps)


def test_tiling_sample_count_domain():
    lat = lattice_from_params(OPT)
    for samples in (0, 2.5, 10 ** 400):
        with pytest.raises(DomainError):
            tiling_spot_check(lat, samples)
    assert tiling_spot_check(lat, 3.0) == tiling_spot_check(lat, 3)


def test_tiling_seed_domain():
    # the seed is a nonnegative integer, and an integral float is taken as
    # that integer, as the sample count is
    lat = lattice_from_params(UNIT)
    for seed in (1.5, -1, -2.0, float("nan"), 10 ** 400):
        with pytest.raises(DomainError):
            tiling_spot_check(lat, 1, seed=seed)
    assert tiling_spot_check(lat, 50, 2.0) == tiling_spot_check(lat, 50, 2)


def leaky_solid(monkeypatch):
    """Patch the solid's tetrahedra, for domain_tetrahedra and so for the
    point loop: the third becomes a copy of the second, so each cell keeps
    a gap of a sixth of its volume."""
    tets = lattice.DOMAIN_TETRAHEDRA
    monkeypatch.setattr(lattice, "DOMAIN_TETRAHEDRA",
                        tets[:2] + tets[1:2] + tets[3:])


def test_tiling_matches_point_loop():
    # shell 5 holds every translate these samples can lie in: shells 3 to 6
    # agree
    for basis, seed in ((OPT, 3), (K2, 0)):
        lat = lattice_from_params(basis)
        rep = tiling_spot_check(lat, 25, seed)
        assert rep == tiling_by_point_loop(lat, 25, seed, shell=5)


def test_domain_tetrahedra_fill_the_cube(monkeypatch):
    # the exact check trusts DOMAIN_TETRAHEDRA to fill the cube whose
    # corners it checks: on the unit lattice the point loop finds every
    # sample in exactly one translate of them, and gaps once one of them is
    # lost
    unit = lattice_from_params(UNIT)
    assert tiling_by_point_loop(unit, 60, 2) == TilingReport(60, 0, 0)
    leaky_solid(monkeypatch)
    assert tiling_by_point_loop(unit, 60, 2).gaps > 0


def solid_k_steps_high(lat):
    """The solid with T21 a whole commutator, k steps of tau3, above T12,
    and T213 one step above that: it tiles at k = 1 only."""
    (t11, _, t13), (t21, t22, t23) = lat.t1, lat.t2
    top = lat.fibre + t13 + t23
    return dataclasses.replace(
        fundamental_domain(lat), T21=(t11 + t21, t22, top),
        T213=(t11 + t21, t22, top + lat.tau3[2]))


def test_tiling_check_finds_a_solid_k_steps_high(monkeypatch):
    # the check reads the vertices that fundamental_domain builds, so a
    # solid that overlaps its translates at k >= 2 fails it, as it fails
    # the point loop, whose tetrahedra come from there too
    monkeypatch.setattr(lattice, "fundamental_domain", solid_k_steps_high)
    for basis in (K2, normal_form(1.3, 0.2, 0.9, 3)):
        lat = lattice_from_params(basis)
        assert tiling_spot_check(lat, 25) == TilingReport(25, 25, 0)
        assert tiling_by_point_loop(lat, 25, 0).violations > 0
    # at k = 1 the solid is the cube's
    assert tiling_spot_check(lattice_from_params(OPT)).ok


def normal_form(t11, a, b, k):
    """Basis in the paper's normal form: t1 on the x-axis, both generators
    on the equidistant surface z = (fibre + x*y)/2."""
    t21, t22 = a * t11, b * t11
    fibre = t11 * t22
    return LatticeBasis((t11, 0.0, 0.5 * fibre),
                        (t21, t22, 0.5 * (fibre + t21 * t22)), k)


def test_tiling_normal_form_k1_matches_point_loop():
    # k = 1 normal forms from the tiling workload's box, t11 in [0.8, 1.8],
    # t21/t11 in [0, 0.5] and t22/t11 in [0.75, 1], three corners included
    rng = random.Random(7)
    bases = [normal_form(0.8, 0.5, 0.75, 1), normal_form(1.8, 0.5, 0.75, 1),
             normal_form(1.8, 0.0, 1.0, 1)]
    bases += [normal_form(rng.uniform(0.8, 1.8), rng.uniform(0.0, 0.5),
                          rng.uniform(0.75, 1.0), 1) for _ in range(3)]
    for i, basis in enumerate(bases):
        lat = lattice_from_params(basis)
        rep = tiling_spot_check(lat, 30, i)
        assert rep == tiling_by_point_loop(lat, 30, i)
        assert rep.ok


def test_tiling_k2_k3_have_no_gaps():
    # every point lies in exactly one translate: the solids tile for k >= 2
    # as for k = 1
    for basis in (K2, normal_form(1.3, 0.2, 0.9, 3)):
        rep = tiling_spot_check(lattice_from_params(basis), samples=200,
                                seed=0)
        assert rep.gaps == 0 and rep.overlaps == 0


def seeded_lattices():
    """Lattices with k = 1..4 from raw bases that lattice_from_params must
    rotate, half of them with a t2 that it swaps for its inverse."""
    rng = random.Random(19)
    lats = []
    for k in (1, 2, 3, 4):
        for sign in (1.0, -1.0, 1.0, -1.0):
            raw1 = (rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0),
                    rng.uniform(-1.0, 1.0))
            raw2 = (rng.uniform(-0.4, 0.4), sign * rng.uniform(0.5, 2.0),
                    rng.uniform(-1.0, 1.0))
            lat = lattice_from_params(LatticeBasis(raw1, raw2, k))
            # the raw t2 lies on the side of t1 that sign says, so the
            # negative ones are swapped
            assert (rotate_z(raw2, lat.rotation)[1] < 0.0) == (sign < 0.0)
            lats.append(lat)
    return lats


def test_tiling_table_matches_fundamental_domain():
    # in lattice coordinates every lattice's solid is that of the unit
    # lattice, whatever k is: the unit cube, with T213 at (1, 1, 2).  The
    # tiling check's corner table says so, and the unit lattice's vertices
    # are those coordinates exactly.  The inverse of the generator matrix
    # maps every lattice's vertices back to them
    want = dict(O=(0, 0, 0), T1=(1, 0, 0), T2=(0, 1, 0), T3=(0, 0, 1),
                T12=(1, 1, 0), T13=(1, 0, 1), T21=(1, 1, 1), T23=(0, 1, 1),
                T213=(1, 1, 2))
    assert lattice._CUBE_CORNERS == want
    assert fundamental_domain(lattice_from_params(UNIT)).as_dict() == want
    for lat in seeded_lattices():
        vertices = fundamental_domain(lat).as_dict()
        got = np.array(list(vertices.values())) @ np.linalg.inv(
            [lat.t1, lat.t2, lat.tau3])
        assert np.allclose(got, list(want.values()), rtol=0.0,
                           atol=1e-12), lat.k


def test_domain_is_one_tau3_high_for_every_k():
    # T21 and T213 lie one and two steps of tau3 above T12 at every k, so
    # the solid tiles: the exact check passes, and the point loop finds no
    # gap or overlap.  Its shell must reach the solid's height in steps of
    # tau3, which is 16 on the sixth k = 3 lattice
    for i, lat in enumerate(seeded_lattices()):
        d = fundamental_domain(lat).as_dict()
        assert close(compose(d["T12"], lat.tau3), d["T21"]), lat.k
        assert close(compose(d["T21"], lat.tau3), d["T213"]), lat.k
        assert tiling_spot_check(lat, 200, i).ok, lat.k
        assert tiling_by_point_loop(lat, 10, i, shell=24).ok, lat.k


def test_tiling_needs_no_linear_algebra_per_call(monkeypatch):
    # the check maps the cube's corners forward, by the generators: a call
    # inverts no matrix
    lat = lattice_from_params(normal_form(1.3, 0.2, 0.9, 3))
    warm = tiling_spot_check(lat, 50, 4)

    def boom(*args, **kwargs):
        raise AssertionError("np.linalg.inv called")

    monkeypatch.setattr(np.linalg, "inv", boom)
    assert tiling_spot_check(lat, 50, 4) == warm


def test_tiling_needs_shell_three():
    # a corner of this lattice's bounding box lies in a translate by a
    # shell-3 word only, so a point loop over shell 2 would report a false
    # gap there; over shell 3 it finds none, as the exact check does
    basis = LatticeBasis(t1=(1.7809676559690528, 0.0, 1.4202298597173604),
                         t2=(0.8059798820541969, 1.5948968584099195,
                             2.0629572506322784), k=1)
    lat = lattice_from_params(basis)
    assert tiling_spot_check(lat, samples=200, seed=168).ok
    assert tiling_by_point_loop(lat, 200, 168).ok
