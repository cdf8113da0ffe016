"""Geodesic spheres, balls, volumes, convexity."""

import math
import random

import mpmath
import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from nilcover import ball, covering, geodesic
from nilcover import (DomainError, ball_volume, distance_to_origin,
                      first_profile_critical_theta, is_ball_convex,
                      is_m_image_convex, m_map, max_vertical_chord,
                      mesh_to_obj, sphere_mesh, sphere_point, sphere_profile)

from mesh_hull import hull_gap

EPS = np.finfo(float).eps


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


def mp_ball_volume(R):
    """2 pi times the integral of X^2 dZ/dtheta over [0, pi/2] in 30-digit
    arithmetic, from the closed-form profile with no series switch.

    The numerator of q(u) = (2 sin u - u (1 + cos u)) / (2 u^3) cancels
    about 2 log10(1/u) digits, so each point is evaluated with that many
    more.
    """
    R = mpmath.mpf(R)

    def integrand(theta):
        c, w = mpmath.cos(theta), mpmath.sin(theta)
        u = w * R
        with mpmath.workdps(35 + 2 * max(0, int(-mpmath.log10(u)))):
            X = c * R * mpmath.sin(u / 2) / (u / 2)
            q = (2 * mpmath.sin(u) - u * (1 + mpmath.cos(u))) / (2 * u ** 3)
            dZdt = c * R ** 3 * q + c * R * (1 + mpmath.cos(u)) / 2
            return X * X * dZdt

    with mpmath.workdps(30):
        return 2 * mpmath.pi * mpmath.quad(integrand,
                                           [0, mpmath.pi / 4, mpmath.pi / 2])


def test_volume_matches_mpmath_reference():
    # the fixed rule's error is largest near R = 5.8 and at 2 pi: one node
    # fewer is about 1.3e-13 off there
    for R in (1e-6, 0.9029394, math.pi / 2, math.pi, 3 * math.pi / 2, 5.77,
              6.0, 2 * math.pi):
        ref = float(mp_ball_volume(R))
        assert abs(ball_volume(R) / ref - 1.0) < 1e-13, R


def test_volume_loop_matches_profile_kernel_sum():
    # ball_volume's loop computes X and dZ/dtheta itself; its sum is bit
    # for bit the one of _profile_fj's values over _VOLUME_RULE
    def kernel_sum(R):
        total = 0.0
        for theta, weight in ball._VOLUME_RULE:
            X, _, _, _, dZdt, _ = geodesic._profile_fj(R, theta)
            total += weight * X * X * dZdt
        return 2 * math.pi * total

    rng = np.random.default_rng(2027)
    radii = [0.0, 1e-9, math.pi, 2 * math.pi, *rng.uniform(0.0, 2 * math.pi,
                                                          2000).tolist()]
    # radii that put a node u = R sin(theta) just below and just above
    # _profile_fj's series switches |u| = 0.1 and |u/2| = 1e-6
    below, above = set(), set()
    for theta, _ in ball._VOLUME_RULE:
        w = math.sin(theta)
        for edge in (0.1, 2e-6):
            for R in (edge / w * (1 - 1e-12), edge / w * (1 + 1e-12)):
                if R <= 2 * math.pi:
                    radii.append(R)
                    (below if w * R < edge else above).add((theta, edge))
    # all 17 nodes at the v switch, all but the lowest at the u switch
    assert below == above and len(below) == 33
    for R in radii:
        assert ball_volume(R) == kernel_sum(R), R


def test_volume_domain():
    with pytest.raises(DomainError):
        ball_volume(2 * math.pi + 0.01)
    with pytest.raises(DomainError):
        ball_volume(-0.5)
    # a radius is a finite number, and an int past the float range is none
    for R in (math.nan, math.inf, 10 ** 400, "1.0"):
        with pytest.raises(DomainError):
            ball_volume(R)
    # a volume is defined at radius 0, a sphere is not: every other radius
    # argument takes the least positive float and refuses 0
    assert ball_volume(0) == ball_volume(-0.0) == 0.0
    for f in (is_ball_convex, is_m_image_convex, first_profile_critical_theta,
              max_vertical_chord, lambda R: sphere_profile(R, 0.0)):
        f(5e-324)
        for R in (0, 0.0, -0.0):
            with pytest.raises(DomainError, match=r"radius must lie in"):
                f(R)


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
    # the closed forms, 2R up to pi and (R^2 + pi^2)/pi beyond, agree with
    # the search they replace
    for R in np.linspace(0.0, math.pi, 2002)[1:]:
        assert abs(max_vertical_chord(R) - _chord_by_search(R)) <= 1e-15
    for R in np.linspace(math.pi, 2 * math.pi, 41)[1:]:
        ref = _chord_by_search(R)
        assert abs(max_vertical_chord(R) - ref) <= 4 * EPS * ref


def test_vertical_chord_is_float_and_gives_paper_chords():
    for R in (1.0, math.pi, 4.0, 2 * math.pi):
        assert type(max_vertical_chord(R)) is float
    # the chord caps of the paper's bounds f1 and f2
    for h, R in ((covering._H1, 1.5 * math.pi), (covering._H2, 2 * math.pi)):
        assert abs(max_vertical_chord(R) - h) <= 4 * EPS * h


def test_fold_sign_rule():
    # dZ/dtheta > 0 exactly when u = R sin(theta) < pi, for theta in
    # [0, pi/2): the proof in max_vertical_chord, checked on the kernel
    rng = np.random.default_rng(83)
    R = rng.uniform(0.0, 2 * math.pi, 20000)
    th = rng.uniform(0.0, 0.5 * math.pi, 20000)
    u = R * np.sin(th)
    keep = np.abs(u - math.pi) > 1e-6
    for r, t, below in zip(R[keep], th[keep], u[keep] < math.pi):
        assert (geodesic._profile_fj(r, t)[4] > 0.0) == below


def test_fold_pitch_against_sign_scan():
    # dZ/dtheta on a 2001-point pitch grid changes sign once, in the cell
    # that holds asin(pi/R)
    thetas = np.linspace(0.0, 0.5 * math.pi, 2001)
    for R in (math.pi + 0.01, 3.5, 4.0, 5.0, 2 * math.pi - 0.01):
        dz = np.array([geodesic._profile_fj(R, t)[4] for t in thetas])
        cells = np.flatnonzero(np.diff(np.sign(dz)) != 0)
        th = first_profile_critical_theta(R)
        assert len(cells) == 1
        assert thetas[cells[0]] <= th <= thetas[cells[0] + 1]
    # the fold starts right past pi, where is_m_image_convex turns False
    assert first_profile_critical_theta(math.pi + 1e-8) is not None


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
    assert abs(first_profile_critical_theta(3.5) - 1.1142896949775036) < 1e-9
    assert first_profile_critical_theta(3.5) == math.asin(math.pi / 3.5)


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
    # a resolution must be integral; an integral float is taken as that
    # integer
    for n_theta, n_phi in ((4.5, 8), (8, 4.5), (math.nan, 8), (8, math.inf),
                           (10 ** 400, 8)):
        with pytest.raises(DomainError):
            sphere_mesh(1.0, n_theta, n_phi)
    assert sphere_mesh(1.0, 8.0, 8.0) == sphere_mesh(1.0, 8, 8)
    assert sphere_mesh(1.0, 8.0, 8.0).resolution == (8, 8)


def test_hull_gap_detects_convexity():
    # convex ball hugs its hull; larger ball does not
    assert hull_gap(sphere_mesh(math.pi / 2, n_theta=16, n_phi=24)) < 1e-6
    assert hull_gap(sphere_mesh(2.0, n_theta=16, n_phi=24)) > 1e-3


def test_m_image_hull_gap():
    # the sheared image stays convex out to R = pi
    assert hull_gap(sphere_mesh(2.0, n_theta=16, n_phi=24, m_image=True)) < 1e-6
    assert hull_gap(sphere_mesh(3.5, n_theta=16, n_phi=24, m_image=True)) > 1e-3
