"""Inputs, calls and result checks of the four benchmark workloads.

Every workload is a list of operations that one client runs in a closed
loop.  An operation is one library call on one input; its check compares
the result with a reference taken from the paper or from an invariant of
the geometry, never with an earlier output of the library.

Inputs come from the workload seed only.  Seeded parameters are stratified
(one jittered draw per cell of a fixed design) so that every seed gets the
same mix of cheap, expensive and known-failing inputs; what differs from
seed to seed is where in its cell each input lies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

import nilcover as nc

TWO_PI = 2.0 * math.pi

# The paper's lattice whose six domain tetrahedra are congruent, and its
# headline numbers.
OPT = nc.LatticeBasis(t1=(1.30633820, 0.0, 0.73894461),
                      t2=(0.65316910, 1.13132206, 1.10841692), k=1)
OPT_RADIUS = 0.90293941
OPT_DENSITY = 1.43093459
# The hexagonal family's optimum and the relaxed lower bound.
HEX_T11 = 1.26001585
HEX_RADIUS = 0.86046718
HEX_DENSITY = 1.42900615
LOWER_BOUND = 1.36278112
UNIT = nc.LatticeBasis(t1=(1.0, 0.0, 0.0), t2=(0.0, 1.0, 0.0), k=1)

# The box of seeded normal-form lattices: t11, t21/t11, t22/t11.
T11_RANGE = (0.8, 1.8)
A_RANGE = (0.0, 0.5)
B_RANGE = (0.75, 1.0)

# Density draws seeded lattices up to scale 1.4, eight strata per k; the shape
# strata follow fixed permutations so scale and shape are not correlated.
# Above about 1.5 whether a lattice misses the deadline flips from draw to
# draw inside one stratum, and each miss moves wall_s by the deadline, so
# that part of the box is covered by fixed points instead: at the seed the
# second and third miss the deadline (they run past 15 s).
DENSITY_SEEDED_T11 = (0.8, 1.4)
DENSITY_STRATA = 8
DENSITY_SHAPE_PERMS = {1: (3, 6, 1, 4, 7, 2, 5, 0), 2: (5, 0, 3, 6, 1, 4, 7, 2)}
DENSITY_LARGE = ((1.6, 0.0, 0.875, 1), (1.6, 0.25, 0.875, 2),
                 (1.8, 0.5, 0.75, 1))
HEX_GRID = (0.9, 1.7, 100)
VERIFY_SAMPLES = 20000
VERIFY_BIG_SAMPLES = 8
# A tiling operation spot-checks one lattice at TILING_SAMPLES points, as
# that many one-point calls with consecutive sample seeds.  Each call tests
# its point against the same 125 shell words and 6 tetrahedra, so the calls
# do equal work: their best times differ by about 3 %.  A call takes 5-10 ms,
# short enough that the best of the ~150 tries an input gets in a run finds
# the host unloaded, where a 30-point call (0.15-0.3 s) tried 6 times does
# not.  30 points are enough for every k = 2 lattice to show its known gaps
# (none hid them on seeds 0-59, where 24 points hid one).
TILING_SAMPLES = 30
# k of the seeded tiling lattices, by scale stratum: 14 with k = 1, and
# two each of k = 2 and 3 spread over the scales.  Inputs number at least
# 21 in every workload, so that op_tail_ms (the 11th largest latency) is
# not below the median.
TILING_K = (1, 1, 1, 2, 1, 1, 1, 3, 1, 1, 1, 1, 2, 1, 1, 1, 3, 1)


def _only(results: list):
    return results[0]


@dataclass
class Op:
    """One operation on one input, with the check of its result.

    An operation is one library call, or a fixed sequence of calls that do
    equal work and whose results ``merge`` combines for the check.  The
    runner times each call on its own; the input's latency is the number of
    calls times the best time of any of them over the passes.
    """

    label: str
    calls: tuple[Callable[[], object], ...]
    check: Callable[[object], str | None]
    deadline: float
    merge: Callable[[list], object] = _only


def normal_form(t11: float, a: float, b: float, k: int) -> nc.LatticeBasis:
    """Basis in the paper's normal form: t1 on the x-axis, both generators
    on the equidistant surface z = (fibre + x*y)/2."""
    t21, t22 = a * t11, b * t11
    fibre = t11 * t22
    return nc.LatticeBasis((t11, 0.0, 0.5 * fibre),
                           (t21, t22, 0.5 * (fibre + t21 * t22)), k)


def rewritten_opt() -> nc.LatticeBasis:
    """OPT's group with basis (t1, t1*t2): same lattice, same domain volume."""
    return nc.LatticeBasis(OPT.t1, nc.compose(OPT.t1, OPT.t2), OPT.k)


def _cell(rng, lo: float, hi: float, i: int, n: int) -> float:
    """A uniform draw in the i-th of n equal cells of [lo, hi]."""
    w = (hi - lo) / n
    return lo + w * (i + rng.random())


def _near(name: str, got: float, want: float, tol: float) -> str | None:
    if abs(got - want) <= tol:
        return None
    return "%s %.10g differs from %.10g by more than %g" % (name, got, want, tol)


def _first(*errors):
    return next((e for e in errors if e), None)


# ---------------------------------------------------------------------------
# density

def _density_invariants(basis: nc.LatticeBasis, rep) -> str | None:
    fibre = abs(basis.t1[0] * basis.t2[1] - basis.t2[0] * basis.t1[1])
    dvol = fibre * fibre / basis.k
    if not rep.verified:
        return "sampling check did not verify the covering"
    if not 0.0 < rep.covering_radius <= TWO_PI:
        return "radius %r outside (0, 2*pi]" % rep.covering_radius
    if not rep.density >= 1.0:
        return "density %r below 1" % rep.density
    return _near("domain volume", rep.domain_volume, dvol, 1e-9 * max(1.0, dvol))


def _density_op(label, basis, deadline, radius=None, density=None) -> Op:
    lattice = nc.lattice_from_params(basis)

    def check(rep):
        return _first(
            _density_invariants(basis, rep),
            radius is not None and _near("radius", rep.covering_radius, radius, 1e-5),
            density is not None and _near("density", rep.density, density, 1e-5))

    return Op(label, (lambda: nc.covering_density(lattice),), check, deadline)


def density_ops(rng, deadline: float, quick: bool) -> list[Op]:
    ops = [
        _density_op("opt", OPT, deadline, OPT_RADIUS, OPT_DENSITY),
        _density_op("hex-opt", nc.hex_family_lattice(HEX_T11), deadline,
                    HEX_RADIUS, HEX_DENSITY),
        _density_op("unit", UNIT, deadline),
        # same lattice as OPT, so the same covering radius
        _density_op("opt-rewritten", rewritten_opt(), deadline, OPT_RADIUS),
    ]
    n = DENSITY_STRATA
    for k, perm in DENSITY_SHAPE_PERMS.items():
        for i in range(n):
            t11 = _cell(rng, *DENSITY_SEEDED_T11, i, n)
            a = _cell(rng, *A_RANGE, perm[i], n)
            b = _cell(rng, *B_RANGE, perm[(i + 3) % n], n)
            ops.append(_density_op("nf-%d-k%d" % (i, k),
                                   normal_form(t11, a, b, k), deadline))
    for i, (t11, a, b, k) in enumerate(DENSITY_LARGE):
        ops.append(_density_op("large-%d-k%d" % (i, k),
                               normal_form(t11, a, b, k), deadline))
    if quick:
        ops = ops[:1] + ops[2:5]
    return ops


# ---------------------------------------------------------------------------
# hex

def hex_ops(rng, deadline: float, quick: bool) -> list[Op]:
    lo, hi, n = HEX_GRID
    if quick:
        n = 4

    def check(rep):
        if rep.density >= HEX_DENSITY - 1e-8:
            return None
        return "density %.10g below the family optimum" % rep.density

    ops = []
    for i in range(n):
        t11 = _cell(rng, lo, hi, i, n)
        ops.append(Op("hex-%d" % i, (lambda t=t11: nc.hex_density(t),), check,
                      deadline))

    def check_opt(res):
        t11, R, density = res
        return _first(_near("t11", t11, HEX_T11, 1e-4),
                      _near("radius", R, HEX_RADIUS, 1e-4),
                      _near("density", density, HEX_DENSITY, 1e-5))

    def check_lower(res):
        return _near("lower bound", res[1], LOWER_BOUND, 1e-4)

    ops.append(Op("optimize-hex", (lambda: nc.optimize_hex(),), check_opt,
                  deadline))
    ops.append(Op("lower-bound", (lambda: nc.minimize_lower_bound(),),
                  check_lower, deadline))
    return ops


# ---------------------------------------------------------------------------
# verify

def check_witness(lattice, R: float, res) -> str | None:
    """An uncovered result must name a witness whose distance to the
    shell-2 lattice points, re-measured with the public distance, matches
    the reported one and exceeds R."""
    if res.covered or res.witness is None or res.witness_distance is None:
        return "expected an uncovered result with a witness"
    d = math.inf
    wx, wy, _ = res.witness
    for w in nc.lattice_points_in_shell(lattice, 2):
        # the distance is at least the horizontal one, so a point farther
        # than the reported distance cannot decide the comparison below
        if math.hypot(w[0] - wx, w[1] - wy) > res.witness_distance + 1e-6:
            continue
        try:
            d = min(d, nc.distance(w, res.witness))
        except nc.NoSolutionError:
            continue  # beyond geodesic reach, so farther than 2*pi
    return _first(_near("witness distance", res.witness_distance, d, 1e-8),
                  d <= R and "witness distance %.10g is not above R" % d)


def verify_ops(rng, deadline: float, quick: bool) -> list[Op]:
    paper = [("opt", nc.lattice_from_params(OPT), OPT_RADIUS),
             ("hex-opt", nc.lattice_from_params(nc.hex_family_lattice(HEX_T11)),
              HEX_RADIUS)]
    samples = VERIFY_SAMPLES // 20 if quick else VERIFY_SAMPLES
    ops = []

    def covered(n):
        def check(res):
            if res.covered and res.samples == n:
                return None
            return "expected covered with %d samples, got %r" % (n, res)
        return check

    n = 1 if quick else 3
    for name, lattice, R0 in paper:
        for i in range(n):
            # just above the radius: the table pass settles nearly all samples
            R = R0 * (1.0 + 10.0 ** _cell(rng, -5.0, -3.0, i, n))
            ops.append(Op("above-%s-%d" % (name, i),
                          (lambda L=lattice, R=R: nc.verify_covering(L, R, samples),),
                          covered(samples), deadline))
        for i in range(n):
            # just below it: stragglers go to the exact pass, a witness shows
            R = R0 * (1.0 - _cell(rng, 0.005, 0.04, i, n))
            ops.append(Op("below-%s-%d" % (name, i),
                          (lambda L=lattice, R=R: nc.verify_covering(L, R, samples),),
                          lambda res, L=lattice, R=R: check_witness(L, R, res),
                          deadline))
    # Beyond pi there is no profile table, so every sample takes the exact
    # pass.  All three lattices have covering radius below pi (the unit
    # lattice's is at most 1/2 + 1/2 + 3/4), so these radii cover.
    big = paper + [("unit", nc.lattice_from_params(UNIT), None)]
    n_big = 1 if quick else 4
    for name, lattice, _ in big:
        for i in range(n_big):
            R = _cell(rng, math.pi, TWO_PI, i, n_big)
            ops.append(Op("beyond-pi-%s-%d" % (name, i),
                          (lambda L=lattice, R=R: nc.verify_covering(
                              L, R, VERIFY_BIG_SAMPLES),),
                          covered(VERIFY_BIG_SAMPLES), deadline))
    return ops


# ---------------------------------------------------------------------------
# tiling

def merge_tiling(reports: list) -> nc.TilingReport:
    """One report for the points of several spot checks of one lattice."""
    return nc.TilingReport(samples=sum(r.samples for r in reports),
                           gaps=sum(r.gaps for r in reports),
                           overlaps=sum(r.overlaps for r in reports))


def tiling_ops(rng, deadline: float, quick: bool) -> list[Op]:
    samples = 10 if quick else TILING_SAMPLES
    lattices = [("opt", OPT), ("hex-opt", nc.hex_family_lattice(HEX_T11)),
                ("unit", UNIT)]
    n = len(TILING_K)
    for i, k in enumerate(TILING_K):
        t11 = _cell(rng, *T11_RANGE, i, n)
        a = _cell(rng, *A_RANGE, (2 * i + 1) % n, n)
        b = _cell(rng, *B_RANGE, (3 * i + 2) % n, n)
        lattices.append(("nf-%d-k%d" % (i, k), normal_form(t11, a, b, k)))
    if quick:
        lattices = lattices[:1] + lattices[-2:]

    def check(rep):
        if rep.ok and rep.samples == samples:
            return None
        return "tiling violated: %d gaps, %d overlaps in %d samples" % (
            rep.gaps, rep.overlaps, rep.samples)

    ops = []
    for name, basis in lattices:
        lattice = nc.lattice_from_params(basis)
        seed0 = int(rng.integers(2 ** 31))
        calls = tuple(lambda L=lattice, s=seed0 + j: nc.tiling_spot_check(L, 1, s)
                      for j in range(samples))
        ops.append(Op(name, calls, check, deadline, merge=merge_tiling))
    return ops


BUILDERS = {"density": density_ops, "hex": hex_ops, "verify": verify_ops,
            "tiling": tiling_ops}


def build(workload: str, seed: int, deadline: float, quick: bool = False):
    rng = np.random.default_rng([seed, sorted(BUILDERS).index(workload)])
    return BUILDERS[workload](rng, deadline, quick)


def warm_up() -> None:
    """Fill lazy imports and first-call caches before timing."""
    nc.hex_density(1.2)
    nc.distance((0.0, 0.0, 0.0), (0.3, 0.2, 0.1))
