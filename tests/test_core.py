"""Group operations and model isometries."""

import math
import random

import numpy as np
import pytest

from nilcover import (IDENTITY, ORIGIN, commutator, compose, inverse,
                      line_reflect_y, m_inverse, m_map, power, rotate_z,
                      translate)


def rand_triple(rng, scale=2.0):
    return tuple(rng.uniform(-scale, scale) for _ in range(3))


def close(a, b, tol=1e-12):
    return max(abs(x - y) for x, y in zip(a, b)) <= tol


def test_group_laws_random():
    rng = random.Random(12345)
    for _ in range(1000):
        a = rand_triple(rng)
        b = rand_triple(rng)
        c = rand_triple(rng)
        # associativity
        assert close(compose(compose(a, b), c), compose(a, compose(b, c)))
        # identity and inverse
        assert close(compose(a, IDENTITY), a)
        assert close(compose(IDENTITY, a), a)
        assert close(compose(a, inverse(a)), IDENTITY)
        assert close(compose(inverse(a), a), IDENTITY)
        # translation action is the group law
        p = rand_triple(rng)
        assert close(translate(translate(p, a), b), translate(p, compose(a, b)))


def test_matrix_representation_oracle():
    # unitriangular matrices reproduce the composition law
    def mat(t):
        return np.array([[1.0, t[1], t[2]],
                         [0.0, 1.0, t[0]],
                         [0.0, 0.0, 1.0]])

    rng = random.Random(99)
    for _ in range(200):
        a = rand_triple(rng)
        b = rand_triple(rng)
        prod = mat(a) @ mat(b)
        c = compose(a, b)
        assert abs(prod[0, 1] - c[1]) < 1e-12
        assert abs(prod[1, 2] - c[0]) < 1e-12
        assert abs(prod[0, 2] - c[2]) < 1e-12


def test_commutator_matches_word():
    rng = random.Random(5)
    for _ in range(100):
        t1 = rand_triple(rng)
        t2 = rand_triple(rng)
        word = compose(compose(compose(inverse(t2), inverse(t1)), t2), t1)
        assert close(word, commutator(t1, t2))
        # the commutator is vertical and central
        comm = commutator(t1, t2)
        assert comm[0] == 0.0 and comm[1] == 0.0
        assert close(compose(comm, t1), compose(t1, comm))


def test_power_matches_repeated_composition():
    rng = random.Random(21)
    for _ in range(50):
        t = rand_triple(rng)
        acc = IDENTITY
        for n in range(6):
            assert close(power(t, n), acc, tol=1e-11)
            acc = compose(acc, t)
        assert close(power(t, -3), inverse(power(t, 3)), tol=1e-11)


def test_group_maps_on_arrays():
    rng = np.random.default_rng(8)
    p, t, u = (rng.uniform(-2.0, 2.0, (3, 40)) for _ in range(3))
    n = rng.integers(-5, 6, 40)
    cases = ((translate, (p, t)), (compose, (t, u)), (inverse, (t,)),
             (power, (t, n)))
    for fn, args in cases:
        batched = np.array(fn(*args))
        for i in range(40):
            scalar = fn(*(tuple(a[:, i].tolist()) if a.ndim == 2
                          else int(a[i]) for a in args))
            assert batched[:, i].tolist() == list(scalar)


def test_m_map_round_trip():
    rng = random.Random(3)
    for _ in range(200):
        p = rand_triple(rng)
        assert close(m_inverse(m_map(p)), p)
        assert close(m_map(m_inverse(p)), p)


def test_rotate_z_is_m_conjugated_linear_rotation():
    rng = random.Random(17)
    for _ in range(200):
        p = rand_triple(rng)
        w = rng.uniform(-math.pi, math.pi)
        x, y, z = m_map(p)
        xr = x * math.cos(w) - y * math.sin(w)
        yr = x * math.sin(w) + y * math.cos(w)
        assert close(rotate_z(p, w), m_inverse((xr, yr, z)))


def test_rotation_conjugates_translations():
    # rotating a translated point equals translating by the rotated parameters
    rng = random.Random(29)
    for _ in range(200):
        p = rand_triple(rng)
        t = rand_triple(rng)
        w = rng.uniform(-math.pi, math.pi)
        lhs = rotate_z(translate(p, t), w)
        rhs = translate(rotate_z(p, w), rotate_z(t, w))
        assert close(lhs, rhs, tol=1e-11)


def test_reflection_involution():
    rng = random.Random(31)
    for _ in range(100):
        p = rand_triple(rng)
        assert close(line_reflect_y(line_reflect_y(p)), p)


def test_origin_is_identity_point():
    assert translate(ORIGIN, (1.0, 2.0, 3.0)) == (1.0, 2.0, 3.0)
    assert ORIGIN == (0.0, 0.0, 0.0)
