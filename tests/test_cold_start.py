"""Importing nilcover loads no scipy module, nor do distances, circumballs,
volumes, densities and the sampling and tiling checks; the functions that
need scipy import it when they run."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import nilcover
from nilcover import geodesic
from nilcover import (LatticeBasis, ball_volume, covering_density,
                      hex_density, lattice_from_params, minimize_lower_bound)

SRC = Path(nilcover.__file__).resolve().parents[1]
OPT = lattice_from_params(LatticeBasis(
    t1=(1.30633820, 0.0, 0.73894461),
    t2=(0.65316910, 1.13132206, 1.10841692), k=1))

SCRIPT = """
import json, math, sys
import nilcover as nc
from nilcover import geodesic

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

loaded = {"import": scipy_modules()}
opt = nc.lattice_from_params(nc.LatticeBasis(
    t1=(1.30633820, 0.0, 0.73894461),
    t2=(0.65316910, 1.13132206, 1.10841692), k=1))
d = nc.fundamental_domain(opt)
nc.distance((0.0, 0.0, 0.0), (0.3, 0.2, 0.1))
nc.circumball(d.O, d.T1, d.T2, d.T3)
R = nc.covering_radius(opt)
assert nc.verify_covering(opt, R * (1 + 1e-6), 2000)
assert nc.tiling_spot_check(opt, samples=50, seed=3).ok
volume = nc.ball_volume(math.pi / 2)
density = nc.covering_density(opt).density
hex_density = nc.hex_density(1.26).density
loaded["no-scipy calls"] = scipy_modules()
print(json.dumps({
    "loaded": loaded,
    "ball_volume": repr(volume),
    "density": repr(density),
    "hex_density": repr(hex_density),
    "lower_bound": repr(nc.minimize_lower_bound()),
    "bracket": repr(geodesic._bracket_profile(1.3, 2.1)),
}))
"""


def test_import_and_scipy_free_calls_load_no_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    out = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                         capture_output=True, text=True, check=True,
                         timeout=120)
    got = json.loads(out.stdout)
    assert got["loaded"] == {"import": [], "no-scipy calls": []}
    # the scipy-free calls give the values they give in a process that has
    # scipy loaded already, and so do the calls that need scipy
    assert float(got["ball_volume"]) == ball_volume(math.pi / 2)
    assert abs(float(got["ball_volume"]) - 16.8947493237242) < 1e-9
    assert float(got["density"]) == covering_density(OPT).density
    assert float(got["hex_density"]) == hex_density(1.26).density
    assert got["lower_bound"] == repr(minimize_lower_bound())
    assert got["bracket"] == repr(geodesic._bracket_profile(1.3, 2.1))
