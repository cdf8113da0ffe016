"""Quick self-test of the benchmark itself.

    python3 bench/selftest.py

Runs every workload at a tiny size, traced and untraced, and checks the
result line against BENCHMARK.json; checks that each result check rejects
a wrong result, that the deadline interrupts a runaway call, that a missing
traced function is reported rather than fatal, and that the runner refuses
to run without the library sources.  Takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import run

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
problems = []


def expect(ok: bool, what: str) -> None:
    print("%s %s" % ("ok  " if ok else "FAIL", what))
    if not ok:
        problems.append(what)


def result_lines(workload: str, trace: int):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "0", "--trace", str(trace), "--quick"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=180)
    expect(proc.returncode == 0, "%s trace=%d exits 0 (%s)"
           % (workload, trace, proc.stderr.strip()[-300:]))
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["detail"]


def check_schema(spec) -> None:
    for workload in run.WORKLOADS:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            res, detail = result_lines(workload, trace)
            name = "%s trace=%d" % (workload, trace)
            expect(set(res) == {"correct", "attempted", "failed", "metrics"},
                   name + " result has exactly the four keys")
            expect(res["correct"] is True, name + " is correct")
            expect(isinstance(res["attempted"], int) and res["attempted"] >= 1
                   and isinstance(res["failed"], int), name + " counts are ints")
            units = {m["name"]: m["unit"] for m in spec[group]}
            expect(set(res["metrics"]) == set(units),
                   name + " prints every %s metric" % group)
            expect(all(m["unit"] == units[k] and isinstance(m["value"], float)
                       for k, m in res["metrics"].items()),
                   name + " values are floats with their units")
            if trace == 0:
                expect(all(m["value"] > 0 for m in res["metrics"].values()),
                       name + " end-to-end metrics are positive")
            else:
                expect(detail["missing"] == [], name + " finds every traced function")


def check_result_checks() -> None:
    import nilcover as nc
    import workloads as wl

    ops = {op.label: op for op in wl.build("density", 1, 4.0)}
    lattice = nc.lattice_from_params(wl.OPT)
    good = nc.DensityReport(lattice=wl.OPT, covering_radius=wl.OPT_RADIUS,
                            ball_volume=3.12538516,
                            domain_volume=nc.domain_volume(lattice),
                            density=wl.OPT_DENSITY, verified=True)
    expect(ops["opt"].check(good) is None, "density check accepts OPT's numbers")
    for what, bad in (("radius", {"covering_radius": wl.OPT_RADIUS + 1e-3}),
                      ("density", {"density": wl.OPT_DENSITY - 1e-3}),
                      ("verified flag", {"verified": False}),
                      ("domain volume", {"domain_volume": 2 * good.domain_volume})):
        expect(ops["opt"].check(replace(good, **bad)) is not None,
               "density check rejects a wrong " + what)
    expect(ops["opt-rewritten"].check(replace(good, covering_radius=1.4779))
           is not None, "rewritten basis must give OPT's radius")

    hex_ops = {op.label: op for op in wl.build("hex", 1, 1.0)}
    low = nc.hex_density(1.2)
    expect(hex_ops["hex-0"].check(low) is None, "hex check accepts a family member")
    expect(hex_ops["hex-0"].check(replace(low, density=1.4289)) is not None,
           "hex check rejects a density below the optimum")
    expect(hex_ops["optimize-hex"].check((1.25, wl.HEX_RADIUS, wl.HEX_DENSITY))
           is not None, "optimize_hex check rejects a wrong t11")
    expect(hex_ops["lower-bound"].check((0.86, 1.3625)) is not None,
           "lower-bound check rejects a wrong bound")

    R = wl.OPT_RADIUS * 0.98
    res = nc.verify_covering(lattice, R, 2000)
    expect(wl.check_witness(lattice, R, res) is None, "witness check accepts a real witness")
    expect(wl.check_witness(lattice, R, replace(res, witness_distance=res.witness_distance + 1e-6))
           is not None, "witness check rejects a wrong witness distance")
    expect(wl.check_witness(lattice, R, replace(res, covered=True)) is not None,
           "witness check rejects a covered result below the radius")

    tiling = wl.build("tiling", 1, 4.0)[0]
    expect(tiling.check(nc.TilingReport(samples=wl.TILING_SAMPLES, gaps=1, overlaps=0))
           is not None, "tiling check rejects a gap")


def check_deadline() -> None:
    import signal
    import time

    import workloads as wl

    def runaway():
        while True:
            time.sleep(0.001)

    signal.signal(signal.SIGALRM, run._on_alarm)
    start = time.perf_counter()
    op = wl.Op("runaway", (runaway,), lambda r: None, 0.05)
    outcome = run.run_passes([op], 0.0)
    expect(outcome.failure[op.label][0] == "deadline"
           and time.perf_counter() - start < 1.0 and outcome.latency(op) == 0.05,
           "a runaway call is stopped at its deadline and charged it")


def check_missing_target() -> None:
    import nilcover.covering as covering
    from spans import Tracer

    original = covering._circumcenter_probes
    del covering._circumcenter_probes
    try:
        tracer = Tracer()
        with tracer:
            pass
        expect(tracer.missing == ["covering._circumcenter_probes"],
               "a missing traced function is reported")
    finally:
        covering._circumcenter_probes = original
    expect(covering.circumball.__module__ == "nilcover.covering"
           and not hasattr(covering.circumball, "__wrapped__"),
           "tracing restores the library's functions")


def check_bare_directory() -> None:
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "hex",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           "without src/ the runner exits non-zero and prints no result")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    run._import_library()
    check_result_checks()
    check_deadline()
    check_missing_target()
    check_bare_directory()
    check_schema(spec)
    print("%d problem(s)" % len(problems))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
