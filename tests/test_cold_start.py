"""nilcover runs on numpy alone.  With every scipy import refused, as if
scipy were not installed, `import nilcover`, every public function and
every CLI subcommand run, and so does the bracketed profile fallback of
distances; they load no scipy module, try to import none, and give the
results they give in a process that has scipy loaded."""

import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import nilcover
from nilcover import cli

SRC = Path(nilcover.__file__).resolve().parents[1]

# one call of each public function and of the profile fallback, and one
# run of each CLI subcommand and action; the script below runs them in a fresh process with scipy refused,
# and the test runs them here, where scipy is loaded
CALLS = """
import contextlib, io, math
import nilcover as nc
from nilcover import cli, geodesic

OPT_ARGS = "1.30633820,0,0.73894461,0.65316910,1.13132206,1.10841692"

def library_calls():
    opt = nc.lattice_from_params(nc.LatticeBasis(
        t1=(1.30633820, 0.0, 0.73894461),
        t2=(0.65316910, 1.13132206, 1.10841692), k=1))
    d = nc.fundamental_domain(opt)
    p, q = (0.3, 0.2, 0.1), (-0.4, 0.5, 0.7)
    calls = {
        "ball_volume": lambda: nc.ball_volume(math.pi / 2),
        "bound_f": lambda: nc.bound_f(2.0),
        "bound_f1": lambda: nc.bound_f1(4.0),
        "bound_f2": lambda: nc.bound_f2(5.0),
        "circumball": lambda: nc.circumball(d.O, d.T1, d.T2, d.T3),
        "commutator": lambda: nc.commutator(p, q),
        "compose": lambda: nc.compose(p, q),
        "covering_density": lambda: nc.covering_density(opt),
        "covering_radius": lambda: nc.covering_radius(opt),
        "distance": lambda: nc.distance(p, q),
        "distance_to_origin": lambda: nc.distance_to_origin(q),
        "domain_tetrahedra": lambda: nc.domain_tetrahedra(opt),
        "domain_volume": lambda: nc.domain_volume(opt),
        "equidistant_projection": lambda: nc.equidistant_projection(p, opt),
        "first_profile_critical_theta":
            lambda: nc.first_profile_critical_theta(4.0),
        "fundamental_domain": lambda: nc.fundamental_domain(opt),
        "geodesic_between": lambda: nc.geodesic_between(p, q),
        "geodesic_point":
            lambda: nc.geodesic_point(nc.GeodesicParams(0.3, 0.4, 1.2)),
        "geodesic_xyz": lambda: nc.geodesic_xyz(0.3, 0.4, 1.2),
        "hex_covering_radius": lambda: nc.hex_covering_radius(1.26),
        "hex_density": lambda: nc.hex_density(1.26),
        "hex_family_lattice": lambda: nc.hex_family_lattice(1.26),
        "inverse": lambda: nc.inverse(p),
        "is_ball_convex": lambda: nc.is_ball_convex(2.0),
        "is_m_image_convex": lambda: nc.is_m_image_convex(2.0),
        "lattice_from_params": lambda: nc.lattice_from_params(opt.basis),
        "lattice_points_in_shell": lambda: nc.lattice_points_in_shell(opt, 1),
        "line_reflect_y": lambda: nc.line_reflect_y(p),
        "lower_bound_density": lambda: nc.lower_bound_density(0.9),
        "m_inverse": lambda: nc.m_inverse(p),
        "m_map": lambda: nc.m_map(p),
        "max_vertical_chord": lambda: nc.max_vertical_chord(4.0),
        "mesh_to_obj": lambda: nc.mesh_to_obj(nc.sphere_mesh(2.0, 4, 5)),
        "minimize_lower_bound": nc.minimize_lower_bound,
        "optimize_hex": nc.optimize_hex,
        "power": lambda: nc.power(p, 3),
        "rotate_z": lambda: nc.rotate_z(p, 0.7),
        "sphere_mesh": lambda: nc.sphere_mesh(2.0, 8, 12, m_image=True),
        "sphere_point": lambda: nc.sphere_point(2.0, 0.3, 0.4),
        "sphere_profile": lambda: nc.sphere_profile(2.0, 0.3),
        "tiling_spot_check": lambda: nc.tiling_spot_check(opt, 50, seed=3),
        "translate": lambda: nc.translate(p, q),
        "verify_covering": lambda: nc.verify_covering(opt, 0.9030, 2000),
    }
    return {name: repr(call()) for name, call in calls.items()}

def private_calls():
    # the bracketed profile fallback of distances, which no public call
    # above is known to reach
    return {"_bracket_profile": repr(geodesic._bracket_profile(1.3, 2.1))}

def cli_runs():
    lat = ["--lattice", OPT_ARGS]
    runs = {
        "distance": ["--from", "0,0,0", "--to", "0.3,0.2,0.1"],
        "geodesic": ["--from", "0,0,0", "--to", "0.3,0.2,0.1"],
        "ball-volume": ["--radius", "1.5"],
        "sphere-mesh": ["--radius", "2.0", "--n-theta", "4", "--n-phi", "5"],
        "convexity": ["--radius", "4.0"],
        "chord-max": ["--radius", "4.0"],
        "lattice domain": lat,
        "lattice volume": lat,
        "lattice points": lat,
        "lattice tiling-check": lat + ["--samples", "50"],
        "circumball": ["0,0,0", "1,0,0", "0,1,0", "0,0,1"],
        "covering radius": lat,
        "covering density": lat,
        "covering verify": lat + ["--samples", "2000"],
        "bound f": ["--radius", "2.0"],
        "bound f1": ["--radius", "4.0"],
        "bound f2": ["--radius", "5.0"],
        "bound lower": ["--radius", "0.9"],
        "optimize hex": [],
        "optimize lower": [],
        "constants": [],
    }
    out = {}
    for command, args in runs.items():
        with contextlib.redirect_stdout(io.StringIO()) as text:
            code = cli.main(command.split() + args + ["--json"])
        out[command] = [code, text.getvalue()]
    return out
"""

SCRIPT = """
import json, sys

class NoScipy(list):
    # as if scipy were not installed, noting each attempt to import it
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            self.append(name)
            raise ModuleNotFoundError(name)

blocked = NoScipy()
sys.meta_path.insert(0, blocked)
""" + CALLS + """
results = {"calls": library_calls(), "private": private_calls(),
           "cli": cli_runs()}
results["loaded"] = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
results["blocked"] = blocked
print(json.dumps(results))
"""


def _functions():
    return {name for name in nilcover.__all__
            if inspect.isfunction(getattr(nilcover, name))}


def _commands():
    """Every subcommand, and every subcommand with each of its actions."""
    sub = cli.build_parser()._subparsers._group_actions[0]
    commands = set()
    for name, parser in sub.choices.items():
        actions = [a.choices for a in parser._actions if a.dest == "action"]
        commands.update(["%s %s" % (name, act) for act in actions[0]]
                        if actions else [name])
    return commands


def test_import_and_scipy_free_calls_load_no_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    out = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                         capture_output=True, text=True, check=True,
                         timeout=120)
    got = json.loads(out.stdout)
    assert got["loaded"] == [] and got["blocked"] == []
    assert set(got["calls"]) == _functions()
    assert set(got["cli"]) == _commands()
    assert all(code == 0 for code, _ in got["cli"].values()), got["cli"]
    # the same values in a process that has scipy loaded
    import scipy.optimize  # noqa: F401
    here = {}
    exec(CALLS, here)
    assert got["calls"] == here["library_calls"]()
    assert got["private"] == here["private_calls"]()
    assert got["cli"] == here["cli_runs"]()
