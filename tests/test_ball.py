"""Geodesic spheres, balls, volumes, convexity."""

import math
import random

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from nilcover import geodesic
from nilcover import (DomainError, ball_volume, distance_to_origin,
                      first_profile_critical_theta, hull_gap, is_ball_convex,
                      is_m_image_convex, m_map, max_vertical_chord,
                      mesh_to_obj, sphere_mesh, sphere_point, sphere_profile)


def test_frozen_volumes():
    assert abs(ball_volume(math.pi / 2) - 16.8947493237242) < 1e-9
    assert abs(ball_volume(math.pi) - 150.29507649445594) < 1e-8
    assert abs(ball_volume(3 * math.pi / 2) - 585.4545176856507) < 1e-7


def test_volume_optimal_radius():
    assert abs(ball_volume(0.90293941) - 3.12538516) < 1e-5


def test_volume_small_radius_euclidean():
    # tiny balls are nearly Euclidean
    r = 0.01
    euclid = 4.0 / 3.0 * math.pi * r ** 3
    assert abs(ball_volume(r) / euclid - 1.0) < 1e-3


def test_volume_zero_and_monotone():
    assert ball_volume(0.0) == 0.0
    prev = 0.0
    r = 0.05
    while r < 2 * math.pi:
        v = ball_volume(r)
        assert v > prev
        prev = v
        r += 0.05


def test_volume_domain():
    with pytest.raises(DomainError):
        ball_volume(2 * math.pi + 0.01)
    with pytest.raises(DomainError):
        ball_volume(-0.5)


def test_vertical_chords():
    # small balls: the chord is the vertical diameter
    for r in (0.3, 1.0, 2.0, math.pi):
        assert abs(max_vertical_chord(r) - 2 * r) < 1e-9
    # frozen values past the first conjugate radius
    assert abs(max_vertical_chord(3 * math.pi / 2) - 13 * math.pi / 4) < 1e-9
    assert abs(max_vertical_chord(2 * math.pi) - 5 * math.pi) < 1e-9


def _chord_by_search(R):
    # the profile height maximised numerically over theta in [0, pi/2]
    res = minimize_scalar(lambda t: -geodesic._profile(R, t)[1],
                          bounds=(0.0, 0.5 * math.pi), method="bounded",
                          options={"xatol": 1e-12})
    return 2.0 * max(-res.fun, geodesic._profile(R, 0.5 * math.pi)[1])


def test_vertical_chord_closed_form_up_to_pi():
    # the closed form 2R for R <= pi agrees with the search it replaces;
    # past pi the search still runs
    for R in np.linspace(0.0, math.pi, 2002)[1:]:
        assert abs(max_vertical_chord(R) - _chord_by_search(R)) <= 1e-15
    for R in np.linspace(math.pi, 2 * math.pi, 41)[1:]:
        assert max_vertical_chord(R) == _chord_by_search(R)


def test_profile_closed_form_point():
    # at R = 2*pi, theta = pi/6 the height is exactly 5*pi/2
    pt = sphere_profile(2 * math.pi, math.pi / 6)
    assert abs(pt.Z - 5 * math.pi / 2) < 1e-12


def test_profile_axis_and_equator():
    for r in (0.5, 1.5, 3.0):
        eq = sphere_profile(r, 0.0)
        assert abs(eq.X - r) < 1e-12 and abs(eq.Z) < 1e-12
        top = sphere_profile(r, math.pi / 2)
        assert abs(top.X) < 1e-12


def test_sphere_points_at_distance():
    # every sphere point lies at distance R from the origin
    rng = random.Random(61)
    for _ in range(100):
        r = rng.uniform(0.1, 5.5)
        th = rng.uniform(-math.pi / 2 + 0.01, math.pi / 2 - 0.01)
        ph = rng.uniform(-math.pi, math.pi)
        p = sphere_point(r, th, ph)
        assert abs(distance_to_origin(p) - r) < 1e-6


def test_sphere_point_shear_structure():
    # the m-image has x^2+y^2 = X^2 and height independent of phi
    rng = random.Random(67)
    for _ in range(100):
        r = rng.uniform(0.1, 6.0)
        th = rng.uniform(-math.pi / 2, math.pi / 2)
        ph = rng.uniform(-math.pi, math.pi)
        prof = sphere_profile(r, th)
        q = m_map(sphere_point(r, th, ph))
        assert abs(math.hypot(q[0], q[1]) - abs(prof.X)) < 1e-12
        assert abs(q[2] - prof.Z) < 1e-12


def test_convexity_thresholds():
    assert is_ball_convex(1.5)
    assert is_ball_convex(math.pi / 2)
    assert not is_ball_convex(math.pi / 2 + 1e-9)
    assert is_m_image_convex(3.0)
    assert is_m_image_convex(math.pi)
    assert not is_m_image_convex(math.pi + 1e-9)


def test_critical_theta():
    # profile is monotone up to R = pi, folds beyond
    for r in (1.0, 2.0, 3.0, math.pi):
        assert first_profile_critical_theta(r) is None
    for r in (math.pi + 0.05, 3.5, 5.0, 2 * math.pi - 0.01):
        th = first_profile_critical_theta(r)
        assert th is not None
        assert 0.0 < th < math.pi / 2
    assert abs(first_profile_critical_theta(3.5) - 1.1139312535109593) < 1e-9


def test_mesh_counts_and_accuracy():
    mesh = sphere_mesh(1.2, n_theta=32, n_phi=64)
    assert len(mesh.vertices) == 2114
    assert len(mesh.faces) == 4224
    rng = random.Random(71)
    for _ in range(40):
        v = mesh.vertices[rng.randrange(len(mesh.vertices))]
        assert abs(distance_to_origin(v) - 1.2) < 1e-6


def test_mesh_faces_index_range():
    mesh = sphere_mesh(0.8, n_theta=8, n_phi=12)
    n = len(mesh.vertices)
    for f in mesh.faces:
        assert all(0 <= i < n for i in f)


def test_mesh_to_obj():
    mesh = sphere_mesh(1.0, n_theta=4, n_phi=6)
    text = mesh_to_obj(mesh)
    lines = text.strip().splitlines()
    nv = sum(1 for ln in lines if ln.startswith("v "))
    nf = sum(1 for ln in lines if ln.startswith("f "))
    assert nv == len(mesh.vertices)
    assert nf == len(mesh.faces)
    # obj indices are 1-based
    first_face = next(ln for ln in lines if ln.startswith("f "))
    assert min(int(tok) for tok in first_face.split()[1:]) >= 1


def test_mesh_domain():
    with pytest.raises(DomainError):
        sphere_mesh(7.0, n_theta=8, n_phi=12)
    with pytest.raises(DomainError):
        sphere_mesh(1.0, n_theta=3, n_phi=12)


def test_hull_gap_detects_convexity():
    # convex ball hugs its hull; larger ball does not
    assert hull_gap(sphere_mesh(math.pi / 2, n_theta=16, n_phi=24)) < 1e-6
    assert hull_gap(sphere_mesh(2.0, n_theta=16, n_phi=24)) > 1e-3


def test_m_image_hull_gap():
    # the sheared image stays convex out to R = pi
    assert hull_gap(sphere_mesh(2.0, n_theta=16, n_phi=24, m_image=True)) < 1e-6
    assert hull_gap(sphere_mesh(3.5, n_theta=16, n_phi=24, m_image=True)) > 1e-3
