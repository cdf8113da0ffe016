"""Per-layer tracing from outside the library.

A Tracer rebinds chosen functions of the nilcover modules to wrappers that
record a span (function, start, end, parent span) per call.  The library's
own source is untouched: a function is rebound in every nilcover module
namespace that holds the same function object, so calls through an
import in another module (``covering`` calls ``geodesic._newton_profile``)
are seen too.  Only calls made inside ``Tracer.recording`` are recorded.
Spans stay in memory and are written out at the end.

Self time of a span is its duration minus the durations of its traced
child spans.
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array

import numpy as np

# (module, function): functions whose calls become spans
SPAN_TARGETS = (
    ("geodesic", "_all_profile_roots"),
    ("geodesic", "_newton_profile"),
    ("geodesic", "distance_to_origin"),
    ("covering", "_distance_and_gradient"),
    ("covering", "_min_lattice_distance"),
    ("covering", "verify_covering"),
    ("covering", "circumball"),
    ("covering", "_newton_circumball"),
    ("covering", "_circumcenter_probes"),
    ("covering", "covering_radius"),
    ("covering", "covering_density"),
    ("covering", "hex_density"),
    ("covering", "optimize_hex"),
    ("covering", "minimize_lower_bound"),
    ("ball", "ball_volume"),
    ("ball", "max_vertical_chord"),
    ("lattice", "tiling_spot_check"),
    ("lattice", "_in_any_tet"),
    ("lattice", "lattice_points_in_shell"),
    ("lattice", "fundamental_domain"),
)
# tiny functions that are only counted: a span each would cost more than
# the call
COUNT_TARGETS = (
    ("core", "compose"),
    ("core", "power"),
    ("core", "inverse"),
)
PACKAGE = "nilcover"
MAX_SPANS = 1_000_000


class Tracer:
    """Wraps the targets while entered; collects spans and counters."""

    def __init__(self):
        self.names = ["%s.%s" % t for t in SPAN_TARGETS + COUNT_TARGETS]
        n = len(self.names)
        self.calls = [0] * n
        self.total = [0.0] * n
        self.self_time = [0.0] * n
        self.pairs = {}            # (parent id, child id) -> calls
        self.newton_failures = 0   # _newton_profile calls returning None
        self.grid_fallbacks = 0    # circumball calls with > 1 Newton solve
        self.verify_samples = 0    # samples requested from verify_covering
        self.missing = []
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.dropped = 0
        self._stack = []
        self._saved = []           # (module, attribute, original)
        self.active = False        # record only inside recording() calls

    # -- wrapping -----------------------------------------------------------

    def _modules(self):
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == PACKAGE
                                      or name.startswith(PACKAGE + "."))]

    def _rebind(self, original, wrapper):
        for module in self._modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._saved.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def install(self):
        for fid, (mod, fn) in enumerate(SPAN_TARGETS + COUNT_TARGETS):
            module = sys.modules.get("%s.%s" % (PACKAGE, mod))
            original = getattr(module, fn, None)
            if not callable(original):
                self.missing.append("%s.%s" % (mod, fn))
                continue
            if fid < len(SPAN_TARGETS):
                wrapper = self._span_wrapper(fid, original)
            else:
                wrapper = self._count_wrapper(fid, original)
            self._rebind(original, wrapper)

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def recording(self, call):
        """call, with spans recorded while it runs (and not, say, while its
        result is checked)."""

        def recorded():
            self.active = True
            try:
                return call()
            finally:
                self.active = False

        return recorded

    def _count_wrapper(self, fid, original):
        calls = self.calls

        def counted(*args, **kwargs):
            if self.active:
                calls[fid] += 1
            return original(*args, **kwargs)

        return counted

    def _span_wrapper(self, fid, original):
        name = self.names[fid]
        is_newton = name == "geodesic._newton_profile"
        is_circumball = name == "covering.circumball"
        is_newton_circumball = name == "covering._newton_circumball"
        signature = (inspect.signature(original)
                     if name == "covering.verify_covering" else None)
        stack = self._stack
        perf = time.perf_counter

        def traced(*args, **kwargs):
            if not self.active:
                return original(*args, **kwargs)
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self.verify_samples += int(bound.arguments["n_samples"])
            parent = stack[-1] if stack else None
            if parent is not None:
                key = (parent[0], fid)
                self.pairs[key] = self.pairs.get(key, 0) + 1
                if is_newton_circumball:
                    parent[3] += 1
            index = self._new_span(fid, parent)
            # frame: id, start, child time, Newton children, span index
            frame = [fid, perf(), 0.0, 0, index]
            stack.append(frame)
            returned = False
            try:
                result = original(*args, **kwargs)
                returned = True
                return result
            finally:
                end = perf()
                stack.pop()
                duration = end - frame[1]
                self.calls[fid] += 1
                self.total[fid] += duration
                self.self_time[fid] += duration - frame[2]
                if parent is not None:
                    parent[2] += duration
                if index >= 0:
                    self.span_start[index] = frame[1]
                    self.span_end[index] = end
                if is_newton and returned and result is None:
                    self.newton_failures += 1
                if is_circumball and frame[3] > 1:
                    self.grid_fallbacks += 1

        traced.__wrapped__ = original
        return traced

    def _new_span(self, fid, parent):
        if len(self.span_name) >= MAX_SPANS:
            self.dropped += 1
            return -1
        self.span_name.append(fid)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        self.span_parent.append(parent[4] if parent is not None else -1)
        return len(self.span_name) - 1

    # -- results ------------------------------------------------------------

    def _id(self, name):
        return self.names.index(name)

    def _pair(self, parent, child):
        return self.pairs.get((self._id(parent), self._id(child)), 0)

    def metrics(self) -> dict:
        """Per-layer metrics: counts, times and ratios."""
        out = {}
        for fid, name in enumerate(self.names):
            out[name + ".calls"] = self.calls[fid]
            out[name + ".total_s"] = self.total[fid]
            out[name + ".self_s"] = self.self_time[fid]

        def ratio(num, den):
            return num / den if den else 0.0

        dg = "covering._distance_and_gradient"
        out[dg + ".multistart_ratio"] = ratio(
            self._pair(dg, "geodesic._all_profile_roots"), self.calls[self._id(dg)])
        out["geodesic._newton_profile.fail_ratio"] = ratio(
            self.newton_failures, self.calls[self._id("geodesic._newton_profile")])
        out["covering.verify_covering.exact_ratio"] = ratio(
            self._pair("covering.verify_covering", "covering._min_lattice_distance"),
            self.verify_samples)
        out["covering.circumball.grid_fallbacks"] = self.grid_fallbacks
        out["covering.covering_radius.verify_calls"] = ratio(
            self._pair("covering.covering_radius", "covering.verify_covering"),
            self.calls[self._id("covering.covering_radius")])
        return out

    def write(self, path) -> None:
        np.savez(path, names=np.array(self.names),
                 name=np.frombuffer(self.span_name, dtype=np.uint16),
                 start=np.frombuffer(self.span_start, dtype=np.float64),
                 end=np.frombuffer(self.span_end, dtype=np.float64),
                 parent=np.frombuffer(self.span_parent, dtype=np.int32))
