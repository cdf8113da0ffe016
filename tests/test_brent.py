"""The in-house Brent solvers against scipy.optimize, their reference: the
same floats from the same evaluations, the same exception types, and the
same results from the library functions that call them."""

import math
import random

import numpy as np
import pytest
from scipy.optimize import brentq, minimize_scalar

from nilcover import _brent, covering, geodesic, geodesic_xyz
from nilcover._brent import _brentq, _fminbound

# smooth functions with their brackets' sampling ranges: f(x) - c changes
# sign on [lo, hi] for c between f(lo) and f(hi), f increasing there
SMOOTH = [
    (lambda x: x ** 3 - 2.0 * x, 1.0, 3.0),
    (math.sin, -1.5, 1.5),
    (math.exp, -3.0, 2.0),
    (lambda x: math.atan(5.0 * x) + 0.1 * x, -4.0, 4.0),
    (lambda x: x + 0.9 * math.sin(x), -6.0, 6.0),
    (lambda x: math.log1p(x * x) * x, 0.0, 10.0),
]


def _traced(f):
    calls = []

    def g(x):
        calls.append(x)
        return f(x)
    return g, calls


def _scipy_fminbound(f, lo, hi):
    # at the port's tolerance; numpy scalars warn where an inf objective
    # makes inf - inf, where the port's Python floats give nan silently
    with np.errstate(invalid="ignore"):
        res = minimize_scalar(f, bounds=(lo, hi), method="bounded",
                              options={"xatol": _brent._XATOL})
    return float(res.x), float(res.fun)


def test_brentq_matches_scipy_bit_for_bit():
    # seeded brackets around seeded roots, at the library's tolerances and
    # scipy's default: the same root from the same evaluation points
    rng = random.Random(27)
    for f, lo, hi in SMOOTH:
        for _ in range(40):
            a = rng.uniform(lo, 0.5 * (lo + hi))
            b = rng.uniform(0.5 * (lo + hi), hi)
            c = f(a) + rng.uniform(0.01, 0.99) * (f(b) - f(a))
            if rng.random() < 0.5:
                a, b = b, a  # a descending bracket
            for xtol in (1e-15, 1e-14, 2e-12, 1e-6):
                ours, ours_calls = _traced(lambda x: f(x) - c)
                ref, ref_calls = _traced(lambda x: f(x) - c)
                root = _brentq(ours, a, b, xtol=xtol)
                assert type(root) is float
                assert root == brentq(ref, a, b, xtol=xtol)
                assert ours_calls == ref_calls


def test_brentq_errors_match_scipy(monkeypatch):
    cases = [
        (lambda x: x * x + 1.0, -1.0, 2.0, 100),  # one sign at both ends
        (lambda x: 1e-170, 0.0, 1.0, 100),  # their product underflows
        (lambda x: math.nan, 0.0, 1.0, 100),  # NaN at an end
        (lambda x: math.nan if 0.2 < x < 0.8 else x - 0.5, 0.0, 1.0, 100),
        (lambda x: math.sin(x) - 0.3, 0.0, 1.5, 2),  # too few iterations
    ]
    for f, a, b, maxiter in cases:
        monkeypatch.setattr(_brent, "_MAXITER", maxiter)
        with pytest.raises(Exception) as ref:
            brentq(f, a, b, xtol=1e-15, maxiter=maxiter)
        with pytest.raises(Exception) as ours:
            _brentq(f, a, b, xtol=1e-15)
        assert ours.type is ref.type
        assert ours.type in (ValueError, RuntimeError)


def test_brentq_ends_and_signs_match_scipy():
    # a zero at either end, a signed zero there, and values whose products
    # underflow: the sign test reads sign bits, as scipy's does
    for f, a, b in ((lambda x: x, 0.0, 1.0), (lambda x: x - 1.0, 0.0, 1.0),
                    (lambda x: -0.0 if x == 0.0 else 1.0, 0.0, 1.0),
                    (lambda x: 1e-170 * (x - 0.3), 0.0, 1.0)):
        assert _brentq(f, a, b, xtol=1e-15) == brentq(f, a, b, xtol=1e-15)


def test_brentq_zero_divisor_bisects():
    # at values near 1e-170 the extrapolation's divisor, a product of two
    # slopes, underflows to 0: C divides to inf or nan and bisects, and so
    # must the port (each of these takes that branch 8 or 9 times)
    for f in (lambda x: 1e-170 * ((x - 0.3) ** 3 + 0.01 * (x - 0.3)),
              lambda x: 1e-170 * (math.exp(x) - 1.5)):
        ours, ours_calls = _traced(f)
        ref, ref_calls = _traced(f)
        assert _brentq(ours, 0.0, 1.0, xtol=1e-15) == brentq(ref, 0.0, 1.0,
                                                              xtol=1e-15)
        assert ours_calls == ref_calls


def test_fminbound_matches_scipy(monkeypatch):
    # x and f as minimize_scalar(method="bounded") gives them, from the
    # same evaluation points, on smooth objectives and on objectives that
    # are inf on part of the interval, as minimize_lower_bound's is; at the
    # library's tolerance and a coarser one
    rng = random.Random(2011)
    objectives = [
        lambda x, c: (x - c) ** 2,
        lambda x, c: math.cosh(x - c) + 0.1 * x,
        lambda x, c: math.sin(3.0 * x) + 0.2 * (x - c) ** 2,
        lambda x, c: math.inf if x < c - 0.5 else (x - c) ** 2 - x,
        lambda x, c: math.inf if x > c else math.exp(-x) * (x - c) ** 2,
        lambda x, c: math.inf if abs(x - c) > 0.3 else abs(x - c) ** 1.5,
    ]
    for objective in objectives:
        for _ in range(25):
            lo = rng.uniform(-2.0, 0.5)
            hi = lo + rng.uniform(0.5, 3.0)
            c = rng.uniform(lo, hi)
            for xatol in (1e-10, 1e-5):
                monkeypatch.setattr(_brent, "_XATOL", xatol)
                ours, ours_calls = _traced(lambda x: objective(x, c))
                ref, ref_calls = _traced(lambda x: objective(x, c))
                x, fx = _fminbound(ours, lo, hi)
                assert (x, fx) == _scipy_fminbound(ref, lo, hi)
                assert ours_calls == ref_calls


def test_fminbound_stops_at_maxfun(monkeypatch):
    monkeypatch.setattr(_brent, "_MAXFUN", 7)
    f, calls = _traced(lambda x: math.sin(40.0 * x) + x * x)
    got = _fminbound(f, -3.0, 3.0)
    assert len(calls) == 7
    res = minimize_scalar(lambda x: math.sin(40.0 * x) + x * x,
                          bounds=(-3.0, 3.0), method="bounded",
                          options={"xatol": _brent._XATOL, "maxiter": 7})
    assert res.nfev == 7
    assert got == (float(res.x), float(res.fun))


def test_library_results_match_scipy_driven(monkeypatch):
    # optimize_hex, minimize_lower_bound, lower_bound_density and
    # _bracket_profile give repr-identical results with scipy's solvers
    # in place of the in-house ones
    rng = random.Random(400)
    targets = []
    for _ in range(200):
        p = geodesic_xyz(0.0, rng.uniform(-0.5 * math.pi, 0.5 * math.pi),
                         rng.uniform(0.05, 2 * math.pi))
        targets.append(geodesic._reduced(p))
    radii = [0.3 + 1.2 * i / 24 for i in range(25)]

    def results():
        brackets = []
        for rho, zeta in targets:
            try:
                brackets.append(geodesic._bracket_profile(rho, abs(zeta)))
            except Exception as exc:  # noqa: BLE001 - compared by type
                brackets.append(type(exc))
        bounds = [covering.lower_bound_density(rp) for rp in radii]
        return repr((covering.optimize_hex(), covering.minimize_lower_bound(),
                     bounds, brackets))

    ours = results()
    monkeypatch.setattr(geodesic, "_brentq", brentq)
    monkeypatch.setattr(covering, "_brentq", brentq)
    monkeypatch.setattr(covering, "_fminbound", _scipy_fminbound)
    assert ours == results()
