"""Per-layer tracing of modframe, done from outside the library.

:meth:`Tracer.install` replaces every public function of every loaded
``modframe`` module with a wrapper, in every ``modframe.*`` namespace that
binds it: ``validation``, ``geodesic``, ``indicatrix`` and ``involute``
use ``from ... import``, so patching only the defining module would miss
their calls.  Each wrapped call records a span (name, parent span, start
and end in ns) in memory; :meth:`Tracer.write_spans` writes them out at
the end and :meth:`Tracer.raw` reduces them to sums that can be merged
across processes.  :func:`derive` turns merged sums into the per-layer
metrics named in ``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from collections import Counter

import numpy as np

LAYERS = ("curves", "numerics", "frames", "darboux", "indicatrix",
          "geodesic", "involute", "validation", "cli")

# 3-vector helpers called ~10^6 times a pass from every layer.  A span each
# would cost more than the arithmetic it times, so their time stays in the
# caller's self time.
UNTRACED = {"numerics.vec", "numerics.norm", "numerics.dot",
            "numerics.cross", "numerics.det3", "numerics.normalize"}
# Called ~1.1 M times a pass from inside the root finder: counted only.
COUNT_ONLY = {"curves.speed"}
# Spans that remember the curve family of their first argument.
TAGGED = {"frames.modified_frame", "curves.at_arclength"}
# First argument is a callback whose evaluations are counted.
COUNTED_CALLBACK = {"numerics.invert_monotone": "numerics.invert_monotone.evals",
                    "numerics.diff_vec": "numerics.diff_vec.f_evals"}
# Counted from the return value: samples the scan found degenerate.
RESULT_COUNTERS = {"involute.involute_scan": (
    "involute.involute_scan.skipped", lambda rep: rep.n_samples - rep.n_defined)}
# Samples the validation suite skips: these exceptions escape a sample's
# evaluation and ``_max_over`` swallows them.
SKIP_ERRORS = ("DegenerateIndicatrix", "TorsionVanishes")

SHARE_FAMILIES = ("helix", "twisted_cubic", "salkowski")
CLI_COMMANDS = ("frames", "indicatrix", "validate")


def _layer_name(obj) -> str | None:
    """``<layer>.<function>`` for a public modframe function, else None."""
    if inspect.isclass(obj) or not callable(obj):
        return None
    if not inspect.isfunction(inspect.unwrap(obj)):
        return None
    module = getattr(obj, "__module__", "") or ""
    name = getattr(obj, "__name__", "")
    if not module.startswith("modframe.") or name.startswith("_"):
        return None
    return f"{module.rsplit('.', 1)[1]}.{name}"


class Tracer:
    """Spans and counters of one traced process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("q")
        self.span_parent = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self.tags: dict[int, str] = {}
        self.counters: Counter = Counter()
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []
        self._cache_start: dict[str, tuple[int, int]] = {}
        self._originals: dict[str, object] = {}

    # -- wrappers ---------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _span_wrapper(self, name: str, fn):
        nid = self._id(name)
        stack = self._stack
        add_name, add_parent = self.span_name.append, self.span_parent.append
        add_start, add_end = self.span_start.append, self.span_end.append
        ends = self.span_end
        clock = time.perf_counter_ns
        tags = self.tags if name in TAGGED else None
        counter = COUNTED_CALLBACK.get(name)
        on_result = RESULT_COUNTERS.get(name)
        counters = self.counters

        def count_calls(f):
            def counted(*a, **k):
                counters[counter] += 1
                return f(*a, **k)
            return counted

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(ends)
            add_name(nid)
            add_parent(stack[-1])
            add_end(0)
            if tags is not None and args:
                tags[sid] = getattr(args[0], "family", "")
            if counter is not None and args:
                args = (count_calls(args[0]),) + args[1:]
            stack.append(sid)
            add_start(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if on_result is not None:
                counters[on_result[0]] += on_result[1](result)
            return result

        return wrapper

    def _count_wrapper(self, name: str, fn):
        counters = self.counters
        key = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _max_over_wrapper(self, fn):
        # Counts the samples validation evaluates and the ones it skips.
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(specs, names, n, sample_fn):
            def counted(spec, s):
                counters["validation.samples_attempted"] += 1
                try:
                    return sample_fn(spec, s)
                except Exception as exc:
                    if type(exc).__name__ in SKIP_ERRORS:
                        counters["validation.samples_skipped"] += 1
                    raise
            return fn(specs, names, n, counted)

        return wrapper

    def install(self) -> None:
        """Wrap every public function of every loaded modframe module."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "modframe" or n.startswith("modframe.")]
        wrappers: dict[int, object] = {}
        for module in modules:
            for attr, obj in list(vars(module).items()):
                name = _layer_name(obj)
                if name is None or name in UNTRACED:
                    continue
                if id(obj) not in wrappers:
                    self._originals[name] = obj
                    if name in COUNT_ONLY:
                        wrappers[id(obj)] = self._count_wrapper(name, obj)
                    else:
                        wrappers[id(obj)] = self._span_wrapper(name, obj)
                self._patch(module, attr, wrappers[id(obj)])
        validation = sys.modules.get("modframe.validation")
        # A private helper: hooked only while it exists, so the benchmark
        # keeps running when a later version of the library drops it.
        if validation is not None and hasattr(validation, "_max_over"):
            self._patch(validation, "_max_over",
                        self._max_over_wrapper(validation._max_over))
        for name, fn in self._originals.items():
            info = getattr(fn, "cache_info", None)
            if info is not None:
                ci = info()
                self._cache_start[name] = (ci.hits, ci.misses)

    def _patch(self, namespace, attr: str, value) -> None:
        self._patched.append((namespace, attr, getattr(namespace, attr)))
        setattr(namespace, attr, value)

    def uninstall(self) -> None:
        for namespace, attr, original in reversed(self._patched):
            setattr(namespace, attr, original)
        self._patched.clear()

    def calls(self, name: str) -> int:
        """Spans recorded so far under ``name``."""
        nid = self._ids.get(name)
        if nid is None:
            return 0
        return int((np.frombuffer(self.span_name, dtype=np.int64) == nid).sum())

    # -- output -----------------------------------------------------------

    def write_spans(self, path) -> None:
        """One line per span: id, parent id (-1 for a root), name, start
        and end in ns of ``time.perf_counter_ns``."""
        with open(path, "w") as fh:
            fh.write("id\tparent\tname\tstart_ns\tend_ns\n")
            names = self.names
            for sid, (nid, parent, start, end) in enumerate(zip(
                    self.span_name, self.span_parent, self.span_start, self.span_end)):
                fh.write(f"{sid}\t{parent}\t{names[nid]}\t{start}\t{end}\n")

    def raw(self) -> dict:
        """Sums over the recorded spans, mergeable with :func:`merge`."""
        name = np.frombuffer(self.span_name, dtype=np.int64)
        parent = np.frombuffer(self.span_parent, dtype=np.int64)
        dur = (np.frombuffer(self.span_end, dtype=np.int64)
               - np.frombuffer(self.span_start, dtype=np.int64))
        nested = parent >= 0
        child = np.zeros_like(dur)
        np.add.at(child, parent[nested], dur[nested])
        self_ns = dur - child
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        self_sum = np.bincount(name, weights=self_ns, minlength=k)
        incl_sum = np.bincount(name, weights=dur, minlength=k)

        share: dict[str, list[int]] = {}
        mf, at = self._ids.get("frames.modified_frame"), self._ids.get("curves.at_arclength")
        if mf is not None:
            for sid in np.flatnonzero(name == mf):
                share.setdefault(self.tags.get(int(sid), ""), [0, 0])[1] += int(dur[sid])
            if at is not None:
                inner = np.flatnonzero((name == at) & nested)
                inner = inner[name[parent[inner]] == mf]
                for sid in inner:
                    share.setdefault(self.tags.get(int(sid), ""), [0, 0])[0] += int(dur[sid])

        cache = {}
        for fn_name, (hits0, misses0) in self._cache_start.items():
            ci = self._originals[fn_name].cache_info()
            cache[fn_name] = [ci.hits - hits0, ci.misses - misses0]

        return {
            "calls": {n: int(c) for n, c in zip(self.names, calls)},
            "self_ns": {n: int(v) for n, v in zip(self.names, self_sum)},
            "incl_ns": {n: int(v) for n, v in zip(self.names, incl_sum)},
            "share_ns": share,
            "modified_frame_ns": dur[name == mf].tolist() if mf is not None else [],
            "counters": dict(self.counters),
            "cache": cache,
            "spans": int(len(dur)),
        }


def merge(raws: list[dict]) -> dict:
    """Sum the :meth:`Tracer.raw` results of several processes."""
    out = {"calls": Counter(), "self_ns": Counter(), "incl_ns": Counter(),
           "share_ns": {}, "modified_frame_ns": [], "counters": Counter(),
           "cache": {}, "spans": 0}
    for raw in raws:
        for key in ("calls", "self_ns", "incl_ns", "counters"):
            out[key].update(raw[key])
        for fam, (num, den) in raw["share_ns"].items():
            acc = out["share_ns"].setdefault(fam, [0, 0])
            acc[0] += num
            acc[1] += den
        for fn_name, (hits, misses) in raw["cache"].items():
            acc = out["cache"].setdefault(fn_name, [0, 0])
            acc[0] += hits
            acc[1] += misses
        out["modified_frame_ns"].extend(raw["modified_frame_ns"])
        out["spans"] += raw["spans"]
    return out


def derive(raw: dict, extra: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics ``{name: (value, unit)}`` from merged sums.

    ``extra`` holds what the benchmark measured around the library:
    ``import_s``, ``import_scipy_s``, ``overhead_s``, ``output_bytes``,
    ``points`` (frame samples on curves that need arclength inversion)
    and ``point_inversions`` (inversions made for those samples).  A
    metric of a layer the workload does not reach reads 0.
    """
    calls, self_ns, counters = raw["calls"], raw["self_ns"], raw["counters"]
    sec = lambda name: self_ns.get(name, 0) / 1e9
    ratio = lambda num, den: num / den if den else 0.0
    m: dict[str, tuple[float, str]] = {
        "process.import_s": (extra["import_s"], "s"),
        "process.import_scipy_s": (extra["import_scipy_s"], "s"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (sum(v for n, v in self_ns.items()
                                    if n.startswith(layer + ".")) / 1e9, "s")
    for name in ("curves.at_arclength", "curves.eval_jet", "numerics.invert_monotone",
                 "numerics.integrate", "numerics.diff_vec", "frames.modified_frame",
                 "darboux.darboux", "indicatrix.cov_deriv_numeric"):
        m[f"{name}.calls"] = (calls.get(name, 0), "count")
        m[f"{name}.self_s"] = (sec(name), "s")
    for name in ("frames.unit_speed_jet", "indicatrix.cov_deriv_closed",
                 "geodesic.geodesic_report", "geodesic.geodesic_curvature_sphere_at",
                 "involute.involute_scan", "validation.run_validation"):
        m[f"{name}.self_s"] = (sec(name), "s")
    m["curves.speed.calls"] = (counters.get("curves.speed.calls", 0), "count")
    inversions = calls.get("numerics.invert_monotone", 0)
    m["numerics.invert_monotone.evals_per_call"] = (
        ratio(counters.get("numerics.invert_monotone.evals", 0), inversions), "1")
    m["numerics.invert_monotone.calls_per_point"] = (
        ratio(extra["point_inversions"], extra["points"]), "1")
    m["numerics.diff_vec.f_evals"] = (counters.get("numerics.diff_vec.f_evals", 0), "count")
    for fam in SHARE_FAMILIES:
        num, den = raw["share_ns"].get(fam, (0, 0))
        m[f"curves.at_arclength.share.{fam}"] = (ratio(num, den), "1")
    durations = np.asarray(raw["modified_frame_ns"], dtype=float)
    p50, p99 = np.percentile(durations, [50, 99]) / 1e3 if durations.size else (0.0, 0.0)
    m["frames.modified_frame.p50_us"] = (float(p50), "us")
    m["frames.modified_frame.p99_us"] = (float(p99), "us")
    hits, misses = raw["cache"].get("frames.modified_frame", (0, 0))
    m["frames.modified_frame.cache_hit_ratio"] = (ratio(hits, hits + misses), "1")
    m["involute.involute_scan.skipped"] = (counters.get("involute.involute_scan.skipped", 0), "count")
    m["validation.samples_attempted"] = (counters.get("validation.samples_attempted", 0), "count")
    m["validation.samples_skipped"] = (counters.get("validation.samples_skipped", 0), "count")
    for cmd in CLI_COMMANDS:
        m[f"cli.{cmd}.self_s"] = (sec(f"cli.cmd_{cmd}"), "s")
    m["cli.output_bytes"] = (extra["output_bytes"], "bytes")
    m["trace.overhead_s"] = (extra["overhead_s"], "s")
    m["trace.spans"] = (raw["spans"], "count")
    return m
