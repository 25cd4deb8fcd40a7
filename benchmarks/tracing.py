"""Spans around the public functions of every plelidar module.

``Tracer.install`` replaces each public module-level function, and each
public method (plus a hand-written ``__init__``) of each class a module
defines, with a wrapper that records a span: name, start, end, parent span
and thread. Names imported into other modules by ``from x import f`` are
re-bound too, so calls through either name are seen. ``uninstall`` puts the
originals back. The package itself is never edited.

A span started on a thread with no open span of its own (a thread-pool
worker) takes the innermost open span of the installing thread as parent, so
``ple.run_*`` sees its workers' ``estimate_labels`` calls as children.

``layer_metrics`` turns the recorded spans into the per-layer metrics listed
in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import os
import statistics
import threading
import time

LAYERS = (
    "lidar_io", "geometry", "spatial_index", "ple", "evaluation",
    "ssl_mini", "synth", "split", "cli",
)
TIMED_COMMANDS = ("synth", "split", "ple", "eval", "train")


class Span:
    __slots__ = ("id", "name", "parent", "thread", "start", "end", "counts")

    def __init__(self, span_id, name, parent, thread):
        self.id = span_id
        self.name = name
        self.parent = parent
        self.thread = thread
        self.start = self.end = 0.0
        self.counts = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


def _refs_of(a, result):
    return {"refs": tuple((labels.sequence_id, labels.frame_id) for _, labels, _ in a["references"])}


# Work counts taken at the boundary of a call: name -> (bound args, result) -> dict.
COUNTERS = {
    "spatial_index.KdTree.__init__": lambda a, r: {"points": len(a["points"])},
    "spatial_index.KdTree.nearest": lambda a, r: {"points": len(a["queries"])},
    "geometry.apply_points": lambda a, r: {"points": len(a["points"])},
    "lidar_io.read_scan": lambda a, r: {"bytes": 16 * len(r)},
    "ple.estimate_labels": _refs_of,
    "ple.write_ple": lambda a, r: {"bytes": os.path.getsize(a["path"])},
    "evaluation.accumulate": lambda a, r: {"points": len(a["gt"].semantic)},
    "ssl_mini.build_features": lambda a, r: {"points": len(r)},
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._owner_stack: list = []
        self._owner = threading.get_ident()
        self._restore: list = []

    def _stack(self) -> list:
        if threading.get_ident() == self._owner:
            return self._owner_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        sig = inspect.signature(fn) if counter else None
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1].id
            else:
                parent = tracer._owner_stack[-1].id if tracer._owner_stack else None
            span = Span(next(tracer._ids), name, parent, threading.get_ident())
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                tracer.spans.append(span)
            if counter is not None:
                span.counts = counter(sig.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"plelidar.{layer}") for layer in LAYERS}
        replaced = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapper = self.wrap(f"{layer}.{attr}", obj)
                    replaced[id(obj)] = (obj, wrapper)
                elif inspect.isclass(obj):
                    self._wrap_class(layer, obj)
        package = importlib.import_module("plelidar")
        for mod in (package, *modules.values()):
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replaced and replaced[id(obj)][0] is obj:
                    self._set(mod, attr, replaced[id(obj)][1], obj)

    def _wrap_class(self, layer: str, cls) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__init__":
                continue
            fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
            if not inspect.isfunction(fn):
                continue
            # a dataclass-generated __init__ has no source file ("<string>")
            if attr == "__init__" and fn.__code__.co_filename.startswith("<"):
                continue
            wrapper = self.wrap(f"{layer}.{cls.__name__}.{attr}", fn)
            if isinstance(raw, classmethod):
                wrapper = classmethod(wrapper)
            elif isinstance(raw, staticmethod):
                wrapper = staticmethod(wrapper)
            self._set(cls, attr, wrapper, raw)

    def _set(self, owner, attr, value, original) -> None:
        setattr(owner, attr, value)
        self._restore.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()


def _union_length(intervals) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict:
    """span id -> duration minus the part of it that child spans cover."""
    children: dict = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = [
            (max(c.start, s.start), min(c.end, s.end))
            for c in children.get(s.id, ())
            if c.end > s.start and c.start < s.end
        ]
        out[s.id] = s.duration - _union_length(covered)
    return out


def high_percentile(values) -> float:
    """The highest order statistic that still has ten samples beyond it.

    With fewer than 21 samples that would fall below the median, so the
    median is returned instead.
    """
    ordered = sorted(values)
    if len(ordered) < 21:
        return median(ordered)
    return ordered[len(ordered) - 11]


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def _ancestor_named(span, by_id, name: str) -> bool:
    parent = span.parent
    while parent is not None:
        p = by_id[parent]
        if p.name == name:
            return True
        parent = p.parent
    return False


def layer_metrics(spans, frames_total: int, frames_scored: int) -> dict:
    """Per-layer metrics from one traced run.

    ``frames_total`` is the number of frames in the dataset and
    ``frames_scored`` the number of estimate files ``eval`` scored.
    """
    by_id = {s.id: s for s in spans}
    selfs = self_times(spans)
    groups: dict = {}
    for s in spans:
        groups.setdefault(s.name, []).append(s)

    def calls(name):
        return len(groups.get(name, ()))

    def secs(name):
        return sum(s.duration for s in groups.get(name, ()))

    def self_s(name):
        return sum(selfs[s.id] for s in groups.get(name, ()))

    def count(name, key):
        return sum(s.counts[key] for s in groups.get(name, ()) if s.counts)

    m = {}
    for layer in LAYERS:
        own = [s for s in spans if s.layer == layer]
        m[f"{layer}.calls"] = len(own)
        m[f"{layer}.s"] = sum(
            s.duration for s in own
            if s.parent is None or by_id[s.parent].layer != layer
        )
        m[f"{layer}.self_s"] = sum(selfs[s.id] for s in own)

    build, query = "spatial_index.KdTree.__init__", "spatial_index.KdTree.nearest"
    for short, name in (("build", build), ("query", query)):
        m[f"spatial_index.{short}.calls"] = calls(name)
        m[f"spatial_index.{short}.points"] = count(name, "points")
        m[f"spatial_index.{short}.s"] = secs(name)
    queried = m["spatial_index.query.points"]
    m["spatial_index.indexed_per_queried"] = (
        m["spatial_index.build.points"] / queried if queried else 0.0
    )

    runs = groups.get("ple.run_naive", []) + groups.get("ple.run_progressive", [])
    m["ple.run.s"] = sum(s.duration for s in runs)
    m["ple.run.self_s"] = sum(selfs[s.id] for s in runs)
    est = "ple.estimate_labels"
    durations = [s.duration for s in groups.get(est, ())]
    m[f"{est}.calls"] = len(durations)
    m[f"{est}.s"] = sum(durations)
    m[f"{est}.self_s"] = self_s(est)
    m[f"{est}.p50_s"] = median(durations)
    m[f"{est}.p_hi_s"] = high_percentile(durations)
    refs = [r for s in groups.get(est, ()) if s.counts for r in s.counts["refs"]]
    m["ple.ref_uses"] = len(refs)
    m["ple.ref_frames_distinct"] = len(set(refs))
    m["ple.write_ple.calls"] = calls("ple.write_ple")
    m["ple.write_ple.bytes"] = count("ple.write_ple", "bytes")
    m["ple.write_ple.s"] = secs("ple.write_ple")
    m["ple.read_ple.calls"] = calls("ple.read_ple")
    m["ple.read_ple.s"] = secs("ple.read_ple")
    in_eval = sum(
        1 for s in groups.get("ple.read_ple", ()) if _ancestor_named(s, by_id, "cli.cmd_eval")
    )
    m["ple.read_ple.per_frame_scored"] = in_eval / frames_scored if frames_scored else 0.0

    m["geometry.apply_points.calls"] = calls("geometry.apply_points")
    m["geometry.apply_points.points"] = count("geometry.apply_points", "points")
    m["geometry.apply_points.s"] = secs("geometry.apply_points")
    m["geometry.relative_transform.calls"] = calls("geometry.relative_transform")

    m["lidar_io.read_scan.calls"] = calls("lidar_io.read_scan")
    m["lidar_io.read_scan.bytes"] = count("lidar_io.read_scan", "bytes")
    m["lidar_io.read_scan.s"] = secs("lidar_io.read_scan")
    m["lidar_io.read_labels.calls"] = calls("lidar_io.read_labels")
    m["lidar_io.read_labels.s"] = secs("lidar_io.read_labels")
    reads = m["lidar_io.read_scan.calls"] + m["lidar_io.read_labels.calls"]
    m["lidar_io.reads_per_frame"] = reads / frames_total if frames_total else 0.0
    m["lidar_io.build_manifest.s"] = secs("lidar_io.build_manifest")

    for name in ("accumulate", "metrics"):
        m[f"evaluation.{name}.calls"] = calls(f"evaluation.{name}")
        m[f"evaluation.{name}.s"] = secs(f"evaluation.{name}")
    m["evaluation.accumulate.points"] = count("evaluation.accumulate", "points")

    m["ssl_mini.assemble_training_data.s"] = secs("ssl_mini.assemble_training_data")
    m["ssl_mini.assemble_training_data.self_s"] = self_s("ssl_mini.assemble_training_data")
    m["ssl_mini.build_features.points"] = count("ssl_mini.build_features", "points")
    for name in ("build_features", "train_step", "pseudo_label_accuracy"):
        m[f"ssl_mini.{name}.calls"] = calls(f"ssl_mini.{name}")
        m[f"ssl_mini.{name}.s"] = secs(f"ssl_mini.{name}")

    m["synth.generate.s"] = secs("synth.generate")
    m["synth.export.s"] = secs("synth.export")
    m["split.sample_labeled.s"] = secs("split.sample_labeled")
    for command in TIMED_COMMANDS:
        m[f"cli.{command}.s"] = secs(f"cli.cmd_{command}")
    return m
