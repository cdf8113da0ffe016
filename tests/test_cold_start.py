"""Importing nilcover loads no scipy module, nor do distances, circumballs,
volumes, densities, the sampling and tiling checks, the bracketed profile
solve and the optimisers of the hexagonal family and the lower bound, which
neither import scipy nor try to, as if it were not installed; only hull_gap needs scipy, and it imports
it when it runs."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import nilcover
from nilcover import geodesic
from nilcover import (LatticeBasis, ball_volume, covering_density,
                      hex_density, hull_gap, lattice_from_params,
                      lower_bound_density, minimize_lower_bound, optimize_hex,
                      sphere_mesh)

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

class NoScipy(list):
    # as if scipy were not installed, noting each attempt to import it
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            self.append(name)
            raise ModuleNotFoundError(name)

loaded = {"import": scipy_modules()}
blocked = NoScipy()
sys.meta_path.insert(0, blocked)
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
hex_optimum = nc.optimize_hex()
lower_bound = nc.minimize_lower_bound()
bound_config = nc.lower_bound_density(0.9)
bracket = geodesic._bracket_profile(1.3, 2.1)
sys.meta_path.remove(blocked)
loaded["no-scipy calls"] = scipy_modules() + blocked
gap = nc.hull_gap(nc.sphere_mesh(2.0, 8, 12))
loaded["hull_gap"] = "scipy.spatial" in sys.modules
print(json.dumps({
    "loaded": loaded,
    "ball_volume": repr(volume),
    "density": repr(density),
    "hex_density": repr(hex_density),
    "hex_optimum": repr(hex_optimum),
    "lower_bound": repr(lower_bound),
    "bound_config": repr(bound_config),
    "bracket": repr(bracket),
    "hull_gap": repr(gap),
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
    assert got["loaded"] == {"import": [], "no-scipy calls": [],
                             "hull_gap": True}
    # the scipy-free calls give the values they give in a process that has
    # scipy loaded already, and so does hull_gap
    assert float(got["ball_volume"]) == ball_volume(math.pi / 2)
    assert abs(float(got["ball_volume"]) - 16.8947493237242) < 1e-9
    assert float(got["density"]) == covering_density(OPT).density
    assert float(got["hex_density"]) == hex_density(1.26).density
    assert got["hex_optimum"] == repr(optimize_hex())
    assert got["lower_bound"] == repr(minimize_lower_bound())
    assert got["bound_config"] == repr(lower_bound_density(0.9))
    assert got["bracket"] == repr(geodesic._bracket_profile(1.3, 2.1))
    assert float(got["hull_gap"]) == hull_gap(sphere_mesh(2.0, 8, 12))
