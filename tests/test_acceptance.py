"""End-to-end acceptance checks for the headline results.

Each test prints a single PASS/FAIL line so the suite can be skimmed from
captured output (run with -s or -rA to see the passing lines).
"""

import math
import random

from nilcover import (IDENTITY, LatticeBasis, ball_volume, bound_f, bound_f1,
                      bound_f2, circumball, compose, covering_density,
                      distance, distance_to_origin, first_profile_critical_theta,
                      fundamental_domain, geodesic_xyz, hex_family_lattice,
                      inverse, lattice_from_params, line_reflect_y,
                      lower_bound_density, max_vertical_chord,
                      minimize_lower_bound, optimize_hex, rotate_z,
                      sphere_mesh, sphere_profile, tiling_spot_check,
                      translate, verify_covering)

from mesh_hull import hull_gap

OPT = LatticeBasis(t1=(1.30633820, 0.0, 0.73894461),
                   t2=(0.65316910, 1.13132206, 1.10841692), k=1)


def report(name, ok):
    print("ACCEPTANCE %s: %s" % ("PASS" if ok else "FAIL", name))
    assert ok, name


def test_corner_circumball():
    lat = lattice_from_params(OPT)
    d = fundamental_domain(lat).as_dict()
    res = circumball(d["O"], d["T1"], d["T2"], d["T3"])
    ok = (abs(res.center[0] - 0.45981062) < 1e-5
          and abs(res.center[1] - 0.26547179) < 1e-5
          and abs(res.center[2] - 0.79997799) < 1e-5
          and abs(res.radius - 0.90293941) < 1e-5)
    report("corner tetrahedron circumball center and radius", ok)


def test_six_tetrahedra_density():
    rep = covering_density(lattice_from_params(OPT))
    ok = (abs(rep.ball_volume - 3.12538516) < 1e-5
          and abs(rep.domain_volume - 2.18415656) < 1e-5
          and abs(rep.density - 1.43093459) < 1e-5
          and rep.verified)
    report("six-congruent-tetrahedra lattice density 1.43093459", ok)


def test_hex_family_optimum():
    t11, R, density = optimize_hex()
    basis = hex_family_lattice(t11)
    lat = lattice_from_params(basis)
    covered = verify_covering(lat, R * (1 + 1e-4)).covered
    ok = (abs(t11 - 1.26001585) < 1e-4
          and abs(R - 0.86046718) < 1e-4
          and abs(density - 1.42900615) < 1e-5
          and abs(basis.t1[2] - 0.68746826) < 1e-5
          and abs(basis.t2[2] - 1.03120239) < 1e-5
          and covered)
    report("hexagonal family optimum density 1.42900615", ok)


def test_lower_bound():
    rp, density = minimize_lower_bound()
    cfg = lower_bound_density(rp)
    _, _, hex_density_value = optimize_hex()
    ok = (abs(density - 1.36278112) < 1e-4
          and abs(rp - 0.85847445) < 1e-3
          and abs(cfg.density - density) < 1e-12
          and density < hex_density_value <= 1.42900615 + 1e-8)
    report("lattice-like lower bound 1.36278112 brackets the optimum", ok)


def test_large_radius_bounds():
    ok = (abs(bound_f(math.pi / 2) - 1.71179510) < 1e-5
          and abs(bound_f2(3 * math.pi / 2) - 2.372757787) < 1e-5
          and abs(bound_f1(math.pi) - 1.441711246) < 1e-3)
    r = math.pi / 2
    while ok and r < math.pi - 0.02:
        ok = bound_f(r + 0.02) > bound_f(r)
        r += 0.02
    r = math.pi
    while ok and r < 3 * math.pi / 2 - 0.02:
        ok = bound_f1(r + 0.02) > bound_f1(r)
        r += 0.02
    r = 3 * math.pi / 2
    while ok and r < 2 * math.pi - 0.02:
        ok = bound_f2(r + 0.02) > bound_f2(r)
        r += 0.02
    report("large-radius density bounds exceed the optimum and increase", ok)


def test_vertical_chords():
    ok = (abs(max_vertical_chord(3 * math.pi / 2) - 13 * math.pi / 4) < 1e-6
          and abs(max_vertical_chord(2 * math.pi) - 5 * math.pi) < 1e-6
          and abs(sphere_profile(2 * math.pi, math.pi / 6).Z
                  - 5 * math.pi / 2) < 1e-12)
    report("extreme vertical chords 13pi/4 and 5pi", ok)


def test_convexity_transitions():
    ok = all(first_profile_critical_theta(r) is None
             for r in (1.0, 2.0, 3.0, math.pi))
    ok = ok and all(first_profile_critical_theta(r) is not None
                    for r in (math.pi + 0.05, 4.0, 2 * math.pi - 0.01))
    ok = ok and hull_gap(sphere_mesh(math.pi / 2, n_theta=16, n_phi=24)) < 1e-6
    ok = ok and hull_gap(sphere_mesh(2.0, n_theta=16, n_phi=24)) > 1e-3
    report("convexity transition of the ball at radius pi", ok)


def test_property_suites():
    ok = True

    # group laws
    rng = random.Random(1)
    for _ in range(1000):
        a = tuple(rng.uniform(-2, 2) for _ in range(3))
        b = tuple(rng.uniform(-2, 2) for _ in range(3))
        c = tuple(rng.uniform(-2, 2) for _ in range(3))
        lhs = compose(compose(a, b), c)
        rhs = compose(a, compose(b, c))
        ok = ok and max(abs(x - y) for x, y in zip(lhs, rhs)) < 1e-12
        ident = compose(a, inverse(a))
        ok = ok and max(abs(x) for x in ident) < 1e-12
        ok = ok and max(abs(x - y)
                        for x, y in zip(compose(a, IDENTITY), a)) < 1e-12
    if not ok:
        report("property suites", ok)

    # isometry invariance of the distance
    rng = random.Random(2)
    for _ in range(200):
        p = tuple(rng.uniform(-1.5, 1.5) for _ in range(3))
        q = tuple(rng.uniform(-1.5, 1.5) for _ in range(3))
        t = tuple(rng.uniform(-1.5, 1.5) for _ in range(3))
        w = rng.uniform(-math.pi, math.pi)
        d = distance(p, q)
        ok = ok and abs(distance(translate(p, t), translate(q, t)) - d) < 1e-8
        ok = ok and abs(distance(rotate_z(p, w), rotate_z(q, w)) - d) < 1e-8
        ok = ok and abs(distance(line_reflect_y(p), line_reflect_y(q)) - d) < 1e-8
    if not ok:
        report("property suites", ok)

    # geodesics have unit speed
    rng = random.Random(3)
    h = 1e-5
    for _ in range(100):
        a = rng.uniform(-math.pi, math.pi)
        th = rng.uniform(-1.4, 1.4)
        s = rng.uniform(0.1, 2.0)
        p0 = geodesic_xyz(a, th, s - h)
        p1 = geodesic_xyz(a, th, s + h)
        vx = (p1[0] - p0[0]) / (2 * h)
        vy = (p1[1] - p0[1]) / (2 * h)
        vz = (p1[2] - p0[2]) / (2 * h)
        x = geodesic_xyz(a, th, s)[0]
        speed = math.sqrt(vx * vx + vy * vy + (vz - x * vy) ** 2)
        ok = ok and abs(speed - 1.0) < 1e-6

    # distance to a geodesic endpoint recovers arc length
    rng = random.Random(4)
    for _ in range(200):
        a = rng.uniform(-math.pi, math.pi)
        th = rng.uniform(-1.3, 1.3)
        s = rng.uniform(0.05, 2.6)
        p = geodesic_xyz(a, th, s)
        ok = ok and abs(distance_to_origin(p) - s) < 1e-8
    if not ok:
        report("property suites", ok)

    # small balls are nearly Euclidean
    r = 0.01
    ok = ok and abs(ball_volume(r) / (4 / 3 * math.pi * r ** 3) - 1) < 1e-3

    # fundamental domains tile
    for basis in (LatticeBasis(t1=(1.0, 0.0, 0.0), t2=(0.0, 1.0, 0.0), k=1),
                  OPT,
                  hex_family_lattice(1.2600158931406935)):
        rep = tiling_spot_check(lattice_from_params(basis),
                                samples=1000, seed=0)
        ok = ok and rep.ok

    report("property suites", ok)
