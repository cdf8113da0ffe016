"""Command-line interface.

Every library computation is reachable as a subcommand; numbers print with
17 significant digits so results round-trip exactly.  Exit codes: 0 ok,
1 usage, 2 domain error, 3 no solution, 4 I/O error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import ball, constants, covering, geodesic, lattice
from .errors import (DegenerateGeometryError, DegenerateLatticeError,
                     DomainError, NoSolutionError)


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; this tool reserves 2 for domain errors
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, "%s: error: %s\n" % (self.prog, message))


def _point(text: str):
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("expected x,y,z, got %r" % text)
    try:
        point = tuple(float(v) for v in parts)
    except ValueError:
        raise argparse.ArgumentTypeError("non-numeric coordinate in %r" % text)
    if not all(math.isfinite(v) for v in point):
        raise argparse.ArgumentTypeError("non-finite coordinate in %r" % text)
    return point


def _fmt(x: float) -> str:
    return "%.17g" % x


def _json_value(v) -> str:
    if v is None:
        return "null"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        return _fmt(v) if math.isfinite(v) else "null"
    if isinstance(v, str):
        return json.dumps(v)
    if isinstance(v, (list, tuple)):
        return "[" + ", ".join(_json_value(x) for x in v) + "]"
    if isinstance(v, dict):
        items = ", ".join('"%s": %s' % (k, _json_value(x)) for k, x in v.items())
        return "{" + items + "}"
    raise TypeError("cannot serialize %r" % type(v))


def _human(report: dict, prefix="") -> str:
    lines = []
    for key, v in report.items():
        name = prefix + key
        if isinstance(v, dict):
            lines.append(_human(v, name + "."))
        elif isinstance(v, (list, tuple)):
            if v and isinstance(v[0], (list, tuple)):
                lines.append("%s = %s" % (name, "; ".join(
                    " ".join(_fmt(float(c)) for c in row) for row in v)))
            else:
                lines.append("%s = %s" % (name, " ".join(_fmt(float(c)) for c in v)))
        elif isinstance(v, bool):
            lines.append("%s = %s" % (name, "true" if v else "false"))
        elif isinstance(v, float):
            lines.append("%s = %s" % (name, _fmt(v) if math.isfinite(v) else "unbounded"))
        elif v is None:
            lines.append("%s = none" % name)
        else:
            lines.append("%s = %s" % (name, v))
    return "\n".join(lines)


def _render(report: dict, as_json: bool) -> str:
    return _json_value(report) if as_json else _human(report)


def _load_lattice(args) -> lattice.Lattice:
    if getattr(args, "lattice_file", None):
        # an OSError is not caught here: it exits 4, the I/O code
        try:
            with open(args.lattice_file, encoding="utf-8") as fh:
                basis = lattice.LatticeBasis.from_dict(json.load(fh))
        except ValueError as exc:  # bad JSON, or a DomainError
            raise DomainError("invalid lattice file: %s" % exc)
        return lattice.lattice_from_params(basis)
    values = args.lattice.split(",")
    if len(values) not in (6, 7):
        raise DomainError("--lattice needs t11,t12,t13,t21,t22,t23[,k]")
    try:
        nums = [float(v) for v in values]
    except ValueError as exc:
        raise DomainError("invalid lattice parameters: %s" % exc)
    basis = lattice.LatticeBasis(t1=tuple(nums[:3]), t2=tuple(nums[3:6]),
                                 k=nums[6] if len(nums) == 7 else 1)
    return lattice.lattice_from_params(basis)


def _add_lattice_args(sp):
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--lattice", help="t11,t12,t13,t21,t22,t23[,k]")
    group.add_argument("--lattice-file",
                       help='JSON file {"t1": [..], "t2": [..], "k": 1}')


def build_parser() -> _Parser:
    parser = _Parser(prog="nilcover",
                     description="Geodesic balls and lattice coverings of "
                                 "Nil geometry.")
    sub = parser.add_subparsers(dest="command", required=True)

    def cmd(name, **kw):
        sp = sub.add_parser(name, **kw)
        sp.add_argument("--json", action="store_true",
                        help="emit JSON instead of key = value lines")
        return sp

    sp = cmd("distance", help="geodesic distance between two points")
    sp.add_argument("--from", dest="p_from", type=_point, required=True,
                    metavar="X,Y,Z")
    sp.add_argument("--to", dest="p_to", type=_point, required=True,
                    metavar="X,Y,Z")

    sp = cmd("geodesic", help="minimizing geodesic parameters between points")
    sp.add_argument("--from", dest="p_from", type=_point, required=True,
                    metavar="X,Y,Z")
    sp.add_argument("--to", dest="p_to", type=_point, required=True,
                    metavar="X,Y,Z")

    sp = cmd("ball-volume", help="volume of the geodesic ball")
    sp.add_argument("--radius", type=float, required=True)

    sp = cmd("sphere-mesh", help="triangle mesh of the geodesic sphere")
    sp.add_argument("--radius", type=float, required=True)
    # counts are read as numbers and checked by the library's whole-number
    # rule: 1e3 is 1000, and 1.5 or a 401-digit count (inf) a DomainError
    sp.add_argument("--n-theta", type=float, default=32)
    sp.add_argument("--n-phi", type=float, default=64)
    sp.add_argument("--m-image", action="store_true",
                    help="emit vertices in sheared coordinates")
    sp.add_argument("--out", help="write OBJ here instead of stdout")

    sp = cmd("convexity", help="convexity predicates for a radius")
    sp.add_argument("--radius", type=float, required=True)

    sp = cmd("chord-max", help="longest vertical chord of the ball")
    sp.add_argument("--radius", type=float, required=True)

    sp = cmd("lattice", help="fundamental domain, volume, points, tiling")
    sp.add_argument("action",
                    choices=["domain", "volume", "points", "tiling-check"])
    _add_lattice_args(sp)
    sp.add_argument("--shell", type=float, default=1,
                    help="orbit shell index for points")
    sp.add_argument("--samples", type=float, default=1000,
                    help="sample count for tiling-check")

    sp = cmd("circumball", help="ball through four points")
    sp.add_argument("points", type=_point, nargs=4, metavar="X,Y,Z")

    sp = cmd("covering", help="covering radius, density, sampling check")
    sp.add_argument("action", choices=["radius", "density", "verify"])
    _add_lattice_args(sp)
    sp.add_argument("--radius", type=float,
                    help="ball radius for verify (default: covering radius)")
    sp.add_argument("--samples", type=float, default=20000)

    sp = cmd("bound", help="density bound functions")
    sp.add_argument("action", choices=["f", "f1", "f2", "lower"])
    sp.add_argument("--radius", type=float, required=True)

    sp = cmd("optimize", help="optimize the hex family or the lower bound")
    sp.add_argument("action", choices=["hex", "lower"])

    cmd("constants", help="print the library's named constants")
    return parser


def run(args) -> str:
    if args.command == "distance":
        d = geodesic.distance(args.p_from, args.p_to)
        return _render({"from": list(args.p_from), "to": list(args.p_to),
                        "distance": d}, args.json)

    if args.command == "geodesic":
        res = geodesic.geodesic_between(args.p_from, args.p_to)
        return _render({"from": list(args.p_from), "to": list(args.p_to),
                        "alpha": res.params.alpha, "theta": res.params.theta,
                        "arc_length": res.params.s, "residual": res.residual},
                       args.json)

    if args.command == "ball-volume":
        return _render({"radius": args.radius,
                        "volume": ball.ball_volume(args.radius)}, args.json)

    if args.command == "sphere-mesh":
        mesh = ball.sphere_mesh(args.radius, args.n_theta, args.n_phi,
                                m_image=args.m_image)
        if args.json:
            payload = _json_value({
                "resolution": list(mesh.resolution),
                "vertices": [list(v) for v in mesh.vertices],
                "faces": [list(f) for f in mesh.faces]})
        else:
            payload = ball.mesh_to_obj(mesh).rstrip("\n")
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(payload + "\n")
            return "wrote %s" % args.out
        return payload

    if args.command == "convexity":
        return _render({
            "radius": args.radius,
            "ball_convex": ball.is_ball_convex(args.radius),
            "m_image_convex": ball.is_m_image_convex(args.radius),
            "first_critical_theta":
                ball.first_profile_critical_theta(args.radius)}, args.json)

    if args.command == "chord-max":
        return _render({"radius": args.radius,
                        "max_vertical_chord":
                            ball.max_vertical_chord(args.radius)}, args.json)

    if args.command == "lattice":
        lat = _load_lattice(args)
        if args.action == "domain":
            fd = lattice.fundamental_domain(lat)
            report = {name: list(p) for name, p in fd.as_dict().items()}
            report["rotation"] = lat.rotation
            return _render(report, args.json)
        if args.action == "volume":
            return _render({"domain_volume": lattice.domain_volume(lat)},
                           args.json)
        if args.action == "points":
            pts = lattice.lattice_points_in_shell(lat, args.shell)
            return _render({"shell": int(args.shell), "count": len(pts),
                            "points": [list(p) for p in pts]}, args.json)
        rep = lattice.tiling_spot_check(lat, args.samples)
        return _render({"samples": rep.samples, "gaps": rep.gaps,
                        "overlaps": rep.overlaps,
                        "violations": rep.violations, "ok": rep.ok},
                       args.json)

    if args.command == "circumball":
        res = covering.circumball(*args.points)
        return _render({"center": list(res.center), "radius": res.radius,
                        "residual": res.residual}, args.json)

    if args.command == "covering":
        lat = _load_lattice(args)
        if args.action == "radius":
            return _render({"covering_radius": covering.covering_radius(lat)},
                           args.json)
        if args.action == "density":
            rep = covering.covering_density(lat)
            return _render({"lattice": rep.lattice.to_dict(),
                            "covering_radius": rep.covering_radius,
                            "ball_volume": rep.ball_volume,
                            "domain_volume": rep.domain_volume,
                            "density": rep.density,
                            "verified": rep.verified}, args.json)
        R = args.radius
        if R is None:
            R = covering.covering_radius(lat)
        res = covering.verify_covering(lat, R, args.samples)
        return _render({"radius": res.radius, "samples": res.samples,
                        "covered": res.covered,
                        "witness": list(res.witness) if res.witness else None,
                        "witness_distance": res.witness_distance},
                       args.json)

    if args.command == "bound":
        if args.action == "lower":
            cfg = covering.lower_bound_density(args.radius)
            return _render({"rp": cfg.rp, "chord_theta": cfg.chord_theta,
                            "ot3": cfg.ot3, "t1p": list(cfg.t1p),
                            "t2p": list(cfg.t2p), "density": cfg.density},
                           args.json)
        fn = {"f": covering.bound_f, "f1": covering.bound_f1,
              "f2": covering.bound_f2}[args.action]
        return _render({"radius": args.radius, "value": fn(args.radius)},
                       args.json)

    if args.command == "optimize":
        if args.action == "hex":
            t11, R, density = covering.optimize_hex()
            basis = covering.hex_family_lattice(t11)
            return _render({"t11": t11, "t13": basis.t1[2],
                            "t21": basis.t2[0], "t22": basis.t2[1],
                            "t23": basis.t2[2], "radius": R,
                            "density": density}, args.json)
        rp, density = covering.minimize_lower_bound()
        return _render({"rp": rp, "density": density}, args.json)

    # constants
    return _render({
        "euclidean_optimal_covering_density":
            constants.EUCLIDEAN_OPTIMAL_COVERING_DENSITY,
        "ball_convexity_max_radius": constants.BALL_CONVEXITY_MAX_RADIUS,
        "m_image_convexity_max_radius":
            constants.M_IMAGE_CONVEXITY_MAX_RADIUS,
        "max_ball_radius": constants.MAX_BALL_RADIUS}, args.json)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        out = run(args)
    except (DomainError, DegenerateLatticeError, DegenerateGeometryError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except NoSolutionError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 4
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
