"""Circumballs, covering radii, densities, bounds."""

import logging
import math
import random
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import minimize

from nilcover import covering, geodesic
from nilcover import (DomainError, LatticeBasis, NoSolutionError, ball_volume,
                      bound_f, bound_f1, bound_f2, circumball, covering_density,
                      covering_radius, distance, domain_tetrahedra,
                      equidistant_projection, fundamental_domain,
                      hex_covering_radius, hex_density, hex_family_lattice,
                      inverse, lattice_from_params, lattice_points_in_shell,
                      lower_bound_density, m_map,
                      minimize_lower_bound, optimize_hex, translate,
                      verify_covering)

UNIT = LatticeBasis(t1=(1.0, 0.0, 0.0), t2=(0.0, 1.0, 0.0), k=1)
OPT = LatticeBasis(t1=(1.30633820, 0.0, 0.73894461),
                   t2=(0.65316910, 1.13132206, 1.10841692), k=1)


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
    h = 1e-6
    for c, p in pairs:
        d, grad = covering._distance_and_gradient(c, p)
        assert d == distance(c, p)
        for i in range(3):
            cp = tuple(x + h * (j == i) for j, x in enumerate(c))
            cm = tuple(x - h * (j == i) for j, x in enumerate(c))
            fd = (distance(cp, p) - distance(cm, p)) / (2.0 * h)
            assert abs(grad[i] - fd) < 1e-6
    with pytest.raises(NoSolutionError):
        covering._distance_and_gradient(c0, c0)


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
    # at R = 0.65 several samples have no lattice point within the exact
    # pass's search radius; the witness must be the worst of them (0.69928
    # was the first one found), and the reported distance its own
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
    cases = [(UNIT, 0.65), (UNIT, 0.7), (UNIT, 0.9), (OPT, 0.9),
             (LatticeBasis((1.1, 0.0, 0.495), (0.33, 0.99, 0.658), 2), 0.8)]
    expected = [verify_covering(lattice_from_params(b), R, 2000)
                for b, R in cases]
    shell_words = covering._shell_words
    perm = np.random.default_rng(5).permutation(125)
    monkeypatch.setattr(covering, "_shell_words",
                        lambda lat, n: shell_words(lat, n)[:, perm])
    got = [verify_covering(lattice_from_params(b), R, 2000) for b, R in cases]
    assert got == expected
    assert [r.covered for r in got] == [False, False, True, False, True]


def test_profile_array_matches_scalar_profile():
    thetas = np.linspace(0.0, 0.5 * math.pi, 4001)
    for R in (1e-3, 0.19, 0.2, 0.9, math.pi):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            X, Z = geodesic._profile_array(R, thetas)
        ref = np.array([geodesic._profile(R, t) for t in thetas])
        assert np.max(np.abs(X - ref[:, 0])) <= 1e-14
        assert np.max(np.abs(Z - ref[:, 1])) <= 1e-14


def _reference_survivors(sx, sy, sz, inv_words, R, margin):
    # the table pass without the cylinder prefilter: the scalar profile
    # table is read for every alive point
    thetas = np.linspace(0.0, 0.5 * math.pi, 4001)
    prof = np.array([geodesic._profile(R, t) for t in thetas])
    alive = np.arange(len(sx))
    for winv in zip(*inv_words):
        lx, ly, lz = translate((sx[alive], sy[alive], sz[alive]), winv)
        rho = np.hypot(lx, ly)
        zs = np.abs(lz - 0.5 * lx * ly)
        xs = np.interp(zs, prof[:, 1], prof[:, 0])
        alive = alive[~((zs <= R) & (rho <= xs - margin))]
    return alive


def test_table_survivors_match_unfiltered_reference():
    k2 = LatticeBasis((1.1, 0.0, 0.495), (0.33, 0.99, 0.658), 2)
    for basis in (OPT, UNIT, k2):
        lat = lattice_from_params(basis)
        fd = fundamental_domain(lat)
        M = np.array([fd.T1, fd.T2, fd.T3], float)
        sx, sy, sz = (covering._unit_halton(4000) @ M).T.copy()
        inv_words = inverse(covering._shell_words(lat, 2))
        for R in (0.3, 0.7, 0.90293941 * (1 + 1e-6), 1.5, math.pi):
            got = covering._table_survivors(sx, sy, sz, inv_words, R, 1e-6)
            want = _reference_survivors(sx, sy, sz, inv_words, R, 1e-6)
            assert np.array_equal(got, want)


def test_halton_points_shared_read_only():
    pts = covering._unit_halton(2000)
    assert not pts.flags.writeable
    with pytest.raises(ValueError):
        pts[0, 0] = 1.0
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

    def counted(*args):
        calls.append(args)
        return wrap(real(*args))

    monkeypatch.setattr(module, name, counted)
    return calls


def test_covering_density_one_covering_pass(monkeypatch):
    circumballs = _count_calls(monkeypatch, "circumball")
    checks = _count_calls(monkeypatch, "_sample_check")
    assert covering_density(lattice_from_params(OPT)).verified
    assert len(circumballs) == 6
    assert len(checks) == 1


def test_covering_radius_bisection(monkeypatch, caplog):
    # circumradii 3 % short fail the sampling check, so the radius must be
    # grown back by bisection, still from the first six circumballs
    circumballs = _count_calls(
        monkeypatch, "circumball",
        lambda res: replace(res, radius=0.97 * res.radius))
    with caplog.at_level(logging.WARNING, logger="nilcover.covering"):
        rep = covering_density(lattice_from_params(OPT))
    assert "growing by bisection" in caplog.text
    assert abs(rep.covering_radius - 0.90293941) < 1e-6
    assert rep.verified
    assert len(circumballs) == 6


def test_no_multistart_sweeps_on_paper_lattices(monkeypatch):
    # circumball line searches try centres out of geodesic reach; the
    # reach test must reject them without a multistart sweep
    sweep = geodesic._all_profile_roots
    sweeps = []

    def counted(*args):
        sweeps.append(args)
        return sweep(*args)

    for module in (geodesic, covering):
        if getattr(module, "_all_profile_roots", None) is sweep:
            monkeypatch.setattr(module, "_all_profile_roots", counted)
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
    # a line-search trial centre of this seeded normal-form lattice lies
    # at rho = 6.03, |zeta| = 4.79: inside the cheap reach bounds, outside
    # the 2*pi ball; the exact reach test rejects it without a sweep
    sweeps = _count_calls(monkeypatch, "_all_profile_roots", module=geodesic)
    basis = LatticeBasis((1.3583922569872162, 0, 0.7919083901351797),
                         (0.17242402546769206, 1.1659495054713527,
                          0.8924272437478974), k=2)
    assert covering_density(lattice_from_params(basis)).verified
    assert sweeps == []


def test_circumball_centroid_restart(monkeypatch):
    # one domain tetrahedron of each lattice fails its Euclidean start; the
    # centroid start solves it, so no circumball reaches the grid
    sweeps = _count_calls(monkeypatch, "_all_profile_roots", module=geodesic)
    newtons = _count_calls(monkeypatch, "_newton_circumball")
    per_ball = []
    real = covering.circumball

    def counted(*args):
        before = len(newtons)
        res = real(*args)
        per_ball.append(len(newtons) - before)
        return res

    monkeypatch.setattr(covering, "circumball", counted)
    for basis, R in ((_normal_form(1.6, 0.25, 0.875, 2), 1.31277238),
                     (_normal_form(1.8, 0.5, 0.75, 1), 1.30871930)):
        per_ball.clear()
        rep = covering_density(lattice_from_params(basis))
        assert abs(rep.covering_radius - R) < 1e-7
        assert len(per_ball) == 6
        assert 2 in per_ball
        assert max(per_ball) <= 2
    assert sweeps == []


def test_circumball_restart_guard():
    # the centroid start converges here to a circumball of radius 4.78401346,
    # past its start radius, so the grid runs and finds the smallest
    res = circumball((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (2.0, 0.0, 0.0),
                     (0.0, 1.0, 0.0))
    assert abs(res.radius - 4.04049001) < 1e-7
    assert res.residual <= 1e-8


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
