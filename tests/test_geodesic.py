"""Geodesics and the distance function."""

import math
import random

import pytest

from nilcover import geodesic
from nilcover import (NoSolutionError, distance, distance_to_origin,
                      geodesic_between, geodesic_xyz, line_reflect_y,
                      rotate_z, translate)


def rand_point(rng, scale=1.5):
    return tuple(rng.uniform(-scale, scale) for _ in range(3))


def test_geodesic_endpoint_exact():
    # alpha=pi/4, theta=0 stays in the xy-plane: a Euclidean straight line
    x, y, z = geodesic_xyz(math.pi / 4, 0.0, 2.0)
    assert abs(x - math.sqrt(2.0)) < 1e-12
    assert abs(y - math.sqrt(2.0)) < 1e-12
    assert abs(z - 1.0) < 1e-12


def test_geodesic_starts_at_origin():
    rng = random.Random(7)
    for _ in range(50):
        a = rng.uniform(-math.pi, math.pi)
        th = rng.uniform(-math.pi / 2, math.pi / 2)
        p = geodesic_xyz(a, th, 0.0)
        assert max(abs(v) for v in p) < 1e-12


def test_geodesic_unit_speed():
    # finite-difference velocity has norm 1 in the metric
    # dx^2 + dy^2 + (dz - x dy)^2
    rng = random.Random(11)
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
        assert abs(speed - 1.0) < 1e-6


def test_distance_round_trip():
    # distance to a geodesic endpoint recovers arc length
    rng = random.Random(13)
    for _ in range(200):
        a = rng.uniform(-math.pi, math.pi)
        th = rng.uniform(-1.3, 1.3)
        s = rng.uniform(0.05, 2.6)
        p = geodesic_xyz(a, th, s)
        assert abs(distance_to_origin(p) - s) < 1e-8


def test_distance_round_trip_beyond_pi():
    # every geodesic with |theta| <= 1.4 minimizes past 2*pi, so a root
    # found between pi and 2*pi is the distance
    rng = random.Random(43)
    for _ in range(200):
        a = rng.uniform(-math.pi, math.pi)
        th = rng.uniform(-1.4, 1.4)
        s = rng.uniform(math.pi, 6.2)
        p = geodesic_xyz(a, th, s)
        assert abs(distance_to_origin(p) - s) < 1e-9
        assert geodesic_between((0.0, 0.0, 0.0), p).residual < 1e-8


def test_geodesic_between_residual():
    rng = random.Random(17)
    for _ in range(100):
        p = rand_point(rng)
        res = geodesic_between((0.0, 0.0, 0.0), p)
        assert res.residual < 1e-8
        q = geodesic_xyz(res.params.alpha, res.params.theta, res.params.s)
        assert math.dist(p, q) < 1e-8
        assert abs(res.params.s - distance_to_origin(p)) < 1e-10


def test_distance_symmetry():
    rng = random.Random(19)
    for _ in range(100):
        p = rand_point(rng)
        q = rand_point(rng)
        assert abs(distance(p, q) - distance(q, p)) < 1e-8


def test_distance_left_invariance():
    rng = random.Random(23)
    for _ in range(200):
        p = rand_point(rng)
        q = rand_point(rng)
        t = rand_point(rng)
        d = distance(p, q)
        assert abs(distance(translate(p, t), translate(q, t)) - d) < 1e-8


def test_distance_rotation_and_reflection_invariance():
    rng = random.Random(29)
    for _ in range(200):
        p = rand_point(rng)
        w = rng.uniform(-math.pi, math.pi)
        d = distance_to_origin(p)
        assert abs(distance_to_origin(rotate_z(p, w)) - d) < 1e-8
        assert abs(distance_to_origin(line_reflect_y(p)) - d) < 1e-8


def test_triangle_inequality():
    rng = random.Random(31)
    for _ in range(500):
        p = rand_point(rng)
        q = rand_point(rng)
        assert distance(p, q) <= distance_to_origin(p) + distance_to_origin(q) + 1e-9


def test_distance_continuity_near_plane():
    # crossing the sheared plane zeta = 0 must not jump
    rng = random.Random(37)
    for _ in range(50):
        x = rng.uniform(0.2, 1.5)
        y = rng.uniform(-1.5, 1.5)
        base = x * y / 2.0
        d_up = distance_to_origin((x, y, base + 1e-9))
        d_dn = distance_to_origin((x, y, base - 1e-9))
        assert abs(d_up - d_dn) < 1e-6


def test_on_axis_distance():
    assert abs(distance_to_origin((0.0, 0.0, 1.3)) - 1.3) < 1e-14
    assert abs(distance_to_origin((0.0, 0.0, -2.0)) - 2.0) < 1e-14
    with pytest.raises(NoSolutionError):
        distance_to_origin((0.0, 0.0, 2 * math.pi + 0.5))


def test_far_points_rejected():
    # rho > 2*pi, or |zeta| > 5*pi/2 (half the longest vertical chord of
    # the 2*pi ball), puts a point beyond geodesic reach
    origin = (0.0, 0.0, 0.0)
    for p in [(7.0, 0.0, 0.0), (6.35, 0.0, 0.0), (6.3, 0.2, 0.4),
              (1.0, 0.0, 8.0)]:
        with pytest.raises(NoSolutionError):
            distance_to_origin(p)
        with pytest.raises(NoSolutionError):
            distance(origin, p)
        with pytest.raises(NoSolutionError):
            geodesic_between(origin, p)


def _count_sweeps(monkeypatch):
    sweeps = []
    sweep = geodesic._all_profile_roots

    def counted(*args):
        sweeps.append(args)
        return sweep(*args)

    monkeypatch.setattr(geodesic, "_all_profile_roots", counted)
    return sweeps


def test_reach_test_keeps_every_point_within_2pi():
    # soundness: no endpoint of a geodesic of length <= 2*pi is rejected,
    # every tenth one on the 2*pi sphere itself
    rng = random.Random(47)
    rejected = []
    for i in range(2000):
        th = rng.uniform(0.0, 0.5 * math.pi)
        s = 2 * math.pi if i % 10 == 0 else rng.uniform(0.0, 2 * math.pi)
        rho, zeta = geodesic._reduced(
            geodesic_xyz(rng.uniform(-math.pi, math.pi), th, s))
        try:
            geodesic._check_reach(rho, abs(zeta))
        except NoSolutionError:
            rejected.append((th, s))
    assert rejected == []


def test_reach_test_rejects_before_sweeping(monkeypatch):
    # sharpness: a circumball trial centre from a seeded normal-form
    # lattice passes the cheap bounds (rho <= 2*pi, |zeta| <= 5*pi/2), but
    # its only root has s = 6.48 > 2*pi; the 2*pi ball reaches only
    # |zeta| = 3.54 at this rho
    sweeps = _count_sweeps(monkeypatch)
    with pytest.raises(NoSolutionError):
        geodesic._invert_profile(6.033, 4.789)
    with pytest.raises(NoSolutionError):
        geodesic._invert_profile(6.033, -4.789)
    assert sweeps == []


def test_in_plane_distance_is_euclidean():
    rng = random.Random(41)
    for _ in range(50):
        x = rng.uniform(-2.0, 2.0)
        y = rng.uniform(-2.0, 2.0)
        # points on the sheared plane through the origin
        p = (x, y, x * y / 2.0)
        assert abs(distance_to_origin(p) - math.hypot(x, y)) < 1e-10


def test_known_lattice_distance():
    # generator of the best covering lattice
    t1 = (1.30633820, 0.0, 0.73894461)
    assert abs(distance_to_origin(t1) - 1.4778892262913008) < 1e-10


def _series(x, first):
    # sum of (-1)^k x^(2k) / (2k + first)!, the Taylor series of
    # sinc (first = 1) and of (x - sin x)/x^3 (first = 3)
    return math.fsum((-1) ** k * x ** (2 * k) / math.factorial(2 * k + first)
                     for k in range(30))


def test_profile_fj_matches_profile_and_central_differences():
    # the grid crosses every series switch: theta = 0 and pi/2, the band
    # |u| < 0.1 (theta = 0.01, R = 0.05) and the band |u/2| < 1e-6
    # (theta = 1e-7); X and Z are checked against the full Taylor series
    radii = (1e-3, 0.05, 0.19, 0.2, 0.5, 1.0, 2.0, math.pi, 4.0, 5.5,
             2 * math.pi)
    thetas = (0.0, 1e-7, 1e-3, 0.01, 0.1, 0.5, 1.0, 1.5, math.pi / 2)
    h = 1e-6
    prof = geodesic._profile
    for R in radii:
        for th in thetas:
            X, Z, dXdt, dXdR, dZdt, dZdR = geodesic._profile_fj(R, th)
            w, c = math.sin(th), math.cos(th)
            u = w * R
            assert X == pytest.approx(c * R * _series(0.5 * u, 1), abs=1e-13)
            assert Z == pytest.approx(
                w * R + 0.5 * c * c * w * R ** 3 * _series(u, 3), abs=1e-13)
            (Xtp, Ztp), (Xtm, Ztm) = prof(R, th + h), prof(R, th - h)
            (XRp, ZRp), (XRm, ZRm) = prof(R + h, th), prof(R - h, th)
            assert dXdt == pytest.approx((Xtp - Xtm) / (2 * h), abs=1e-6)
            assert dXdR == pytest.approx((XRp - XRm) / (2 * h), abs=1e-6)
            assert dZdt == pytest.approx((Ztp - Ztm) / (2 * h), abs=1e-6)
            assert dZdR == pytest.approx((ZRp - ZRm) / (2 * h), abs=1e-6)
