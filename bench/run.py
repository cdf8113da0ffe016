"""Benchmark of nilcover: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload density --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the library is imported from
``src/`` of that checkout, nothing is installed.  One client in one thread
runs the workload's operations in a closed loop: each operation starts when
the previous one has returned and been checked.  A pass is one round over
the workload's inputs.  The first pass checks every input; more passes
follow until ``--seconds`` have gone by, not counting time spent on failed
operations, and the run stops between two operations.  An operation is one
library call, or for tiling a fixed sequence of short calls that do equal
work; an input's latency is its number of calls times the best time of any
of them over the passes.  On a shared 2-core VM the host slows every call
by up to 1.8x for milliseconds to seconds at a time; the best of many tries
spread over a run is steady where a single try is not, and the shorter the
call the more tries fit and the steadier their best.

Every operation has a deadline, enforced with SIGALRM in this process; an
operation fails if it raises, misses its deadline or fails its result check.
A failed input is charged its deadline and is not run again.

With ``--trace 0`` the last line carries the end-to-end metrics named in
BENCHMARK.json; with ``--trace 1`` it carries the per-layer metrics of one
more pass run with the library's functions wrapped (see spans.py), and the
tracing overhead: that pass's wall time minus the untraced wall_s.

Failures caused by the known defects listed in spec.json are counted in
``failed`` but keep ``correct`` true; any other failed check or exception
makes it false.  Self-test: ``python3 bench/selftest.py``.

Details (per-failure list, tail percentile, machine) go to the lines before
the last and to ``bench/out/``.
"""

from __future__ import annotations

import os

# Pin native thread pools before numpy is imported anywhere.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import fnmatch  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("density", "hex", "verify", "tiling")
SETUP_PROBES = 3


def _die(message: str, code: int = 2):
    print("bench: " + message, file=sys.stderr)
    sys.exit(code)


def _import_library():
    if not (SRC / "nilcover" / "__init__.py").is_file():
        _die("no library sources at %s; run from a nilcover checkout" % SRC)
    sys.path.insert(0, str(SRC))
    import nilcover
    if Path(nilcover.__file__).resolve().parent != SRC / "nilcover":
        _die("imported nilcover from %s, not from this checkout"
             % nilcover.__file__)


class DeadlineExceeded(Exception):
    """Raised by SIGALRM when an operation passes its deadline."""


def _on_alarm(_signum, _frame):
    raise DeadlineExceeded()


def run_op(op):
    """Run one operation's calls in turn under the operation's deadline;
    returns (failure kind or None, message, seconds of each call)."""
    times, results = [], []
    try:
        for call in op.calls:
            left = op.deadline - sum(times)
            if left <= 0:
                raise DeadlineExceeded()
            start = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, left)
            try:
                results.append(call())
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            times.append(time.perf_counter() - start)
    except DeadlineExceeded:
        return "deadline", "no result within %g s" % op.deadline, times
    except Exception as exc:  # any library error is a failed operation
        return "raised", repr(exc), times
    if sum(times) > op.deadline:
        return "deadline", "took %.3f s" % sum(times), times
    message = op.check(op.merge(results))
    if message:
        return "check", message, times
    return None, "", times


class Outcome:
    """Per-input results of a run: the best time of any of an input's calls
    over the passes it ran in, or its first failure."""

    def __init__(self, ops):
        self.ops = ops
        self.best = {}
        self.failure = {}      # label -> (kind, message)
        self.passes = 0
        self.failed_s = 0.0    # time spent on operations that failed

    def latency(self, op) -> float:
        """The input's number of calls times their best time (the calls of
        one operation do equal work); a failed input is charged its
        deadline."""
        if op.label in self.failure:
            return op.deadline
        return len(op.calls) * self.best[op.label]

    def wall(self) -> float:
        return sum(self.latency(op) for op in self.ops)


def run_passes(ops, seconds: float) -> Outcome:
    """One pass over ops, then more until seconds have gone by, stopping
    between two operations; time spent on failed operations does not count.
    An input that failed is not run again: its result is deterministic and
    a deadline miss would cost the deadline each time."""
    out = Outcome(ops)
    start = time.perf_counter()
    while True:
        for op in ops:
            if op.label in out.failure:
                continue
            if out.passes and time.perf_counter() >= start + seconds + out.failed_s:
                return out
            op_start = time.perf_counter()
            kind, message, times = run_op(op)
            if kind is not None:
                out.failure[op.label] = (kind, message)
                out.failed_s += time.perf_counter() - op_start
            else:
                out.best[op.label] = min(out.best.get(op.label, math.inf),
                                         min(times))
        out.passes += 1
        if len(out.failure) == len(ops):
            return out


def tail(latencies):
    """Highest percentile with at least ten operations beyond it:
    (value, percentile).  Below eleven operations it is the maximum."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def classify(workload, outcome, known_defects):
    """Failures explained by a known defect, and the others."""
    expected, unexpected = [], []
    for label, (kind, message) in outcome.failure.items():
        defect = next((d["id"] for d in known_defects
                       if d["workload"] == workload and kind in d["fails_by"]
                       and any(fnmatch.fnmatchcase(label, p)
                               for p in d["inputs"])), None)
        record = {"input": label, "kind": kind, "message": message,
                  "known_defect": defect}
        (expected if defect else unexpected).append(record)
    return expected, unexpected


def end_to_end(outcome: Outcome, setup_s: float):
    latencies = [outcome.latency(op) for op in outcome.ops]
    n, failed = len(latencies), len(outcome.failure)
    tail_s, tail_pct = tail(latencies)
    metrics = {
        "setup_s": setup_s,
        "wall_s": outcome.wall(),
        "op_p50_ms": 1e3 * statistics.median(latencies),
        "op_tail_ms": 1e3 * tail_s,
        "ok_share": (n - failed) / n,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    info = {"passes": outcome.passes, "inputs": n,
            "failed_op_s": outcome.failed_s,
            "failed_share": failed / n,
            "op_tail_percentile": tail_pct, "op_tail_n": n}
    return metrics, info


def measure_setup(args, probes: int) -> float:
    """Median wall time of fresh interpreters that import the library and
    build this workload's inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.quick:
        cmd.append("--quick")
    times = []
    for _ in range(probes):
        start = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, timeout=120,
                       stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _git_sha():
    """Commit of the checkout from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment():
    import numpy
    import scipy
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "git_sha": _git_sha(),
            "threads": {v: os.environ[v] for v in THREAD_VARS}}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float,
                    help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="tiny inputs, one setup probe (self-test)")
    ap.add_argument("--setup-probe", action="store_true",
                    help="import and build inputs only (used for setup_s)")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        bench_spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        spec = json.loads((HERE / "spec.json").read_text())
    except (OSError, ValueError) as exc:
        _die("cannot read the benchmark definition: %s" % exc)
    if args.seconds is None:
        args.seconds = float(bench_spec["run_seconds"])
    _import_library()
    import workloads

    deadline = spec["deadline_s"][args.workload]
    ops = workloads.build(args.workload, args.seed, deadline, args.quick)
    if args.setup_probe:
        return 0

    setup_s = measure_setup(args, 1 if args.quick else SETUP_PROBES)
    signal.signal(signal.SIGALRM, _on_alarm)
    workloads.warm_up()

    outcome = run_passes(ops, args.seconds)
    metrics, info = end_to_end(outcome, setup_s)
    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        with tracer:
            outcome = run_passes(
                [replace(op, calls=tuple(map(tracer.recording, op.calls)))
                 for op in ops], 0.0)
        info["untraced_wall_s"] = metrics["wall_s"]
        info["traced_wall_s"] = outcome.wall()
        info["spans"] = len(tracer.span_name)
        info["spans_dropped"] = tracer.dropped
        info["missing"] = tracer.missing
        metrics = tracer.metrics()
        metrics["trace.overhead_s"] = info["traced_wall_s"] - info["untraced_wall_s"]
        metrics["trace.missing"] = len(tracer.missing)

    expected, unexpected = classify(args.workload, outcome,
                                    spec["known_defects"])
    wanted = bench_spec["per_layer" if args.trace else "end_to_end"]
    absent = [m["name"] for m in wanted if m["name"] not in metrics]
    if absent:
        _die("metrics not computed: %s" % ", ".join(absent), 3)
    result = {
        "correct": not any(f["kind"] != "deadline" for f in unexpected),
        "attempted": len(ops),
        "failed": len(outcome.failure),
        "metrics": {m["name"]: {"value": float(metrics[m["name"]]),
                                "unit": m["unit"]} for m in wanted},
    }
    detail = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "quick": args.quick, **info,
              "failures": expected + unexpected,
              "unexpected_failures": len(unexpected),
              "environment": environment()}

    out = HERE / "out"
    out.mkdir(exist_ok=True)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    (out / (stem + ".json")).write_text(
        json.dumps({"result": result, "detail": detail}, indent=1) + "\n")
    if tracer is not None:
        tracer.write(out / (stem + "-spans.npz"))

    for name, m in result["metrics"].items():
        print("%-44s %14.6f %s" % (name, m["value"], m["unit"]))
    if not args.trace:
        print("%-44s %14.6f %s" % ("failed_share", info["failed_share"], "ratio"))
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
