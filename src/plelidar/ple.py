"""Proximity-based label propagation between pose-aligned scans.

A scan without annotations borrows labels from nearby labeled scans: the
labeled points are transformed into the target's sensor frame with the pose
difference, pooled into one KD-tree, and every target point takes the class
of its globally nearest pooled point.

Two schedules plan a sequence as ``{target: references}``, and one run loop
carries either plan out. ``schedule_naive`` references ground-truth frames
only, within a temporal window around each unlabeled frame.
``schedule_progressive`` lets estimates serve as references: every frame
belongs to one chain, rooted at its temporally nearest ground-truth frame
(ties to the earlier frame id), and a target at offset k from its root may
reference any frame within the root's window whose own offset is below k.
``run_order`` fixes, before the run, an order in which every estimated
reference comes before its targets, and each estimate is handed on in that
order. One process makes them in that order; with more than one worker, it
deals each ready target to an idle forked worker instead.

An estimate is stored as ``<root>/<sequence>/<frame:06d>.ple`` with a
``.meta`` beside it. ``write_estimate`` writes that tree and ``EstimateDir``
lists, checks and reads it; ``write_ple`` and ``read_ple`` are the file pair.
"""

from __future__ import annotations

import contextlib
import heapq
import math
import os
import pickle
import struct
import threading
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import geometry, lidar_io
from .errors import ConfigError, DataError, EmptyResultError, PlelidarError
from .lidar_io import IGNORE_CLASS, LabelMap, PointCloud, SequenceInfo
from .spatial_index import KdTree
from .split import round_half_up

ORIGIN_GROUND_TRUTH = 0
ORIGIN_PLE = 1

PLE_SUFFIX = ".ple"
META_SUFFIX = ".meta"
_SEMANTIC_MASK = 0xFFFF
_ORIGIN_BIT = 1 << 16
_VALID_BIT = 1 << 17


@dataclass(frozen=True)
class PleConfig:
    window_seconds: float = 1.0
    max_references: int = 4
    max_distance: float = math.inf
    progressive: bool = False
    frequency: float = 10.0  # scan rate in Hz; turns window_seconds into frames

    def __post_init__(self):
        # written so that NaN fails every check
        if not 0 < self.window_seconds < math.inf:
            raise ConfigError(
                f"window_seconds must be positive and finite, got {self.window_seconds}")
        if not 0 < self.window_seconds * self.frequency < math.inf:
            raise ConfigError(f"a window of {self.window_seconds} s at {self.frequency} Hz "
                              "is not a positive, finite number of frames")
        if self.max_references < 1:
            raise ConfigError(f"max_references must be >= 1, got {self.max_references}")
        if not self.max_distance > 0:
            raise ConfigError(f"max_distance must be positive, got {self.max_distance}")

    @property
    def window_frames(self) -> int:
        return round_half_up(self.window_seconds * self.frequency)


@dataclass(frozen=True, eq=False)
class PseudoLabelMap:
    """Estimated labels for one scan plus their provenance.

    ``origin_kind`` records whether each label was copied from a ground-truth
    reference (0) or from an earlier estimate (1). Points with valid=False
    exceeded ``max_distance`` and carry the ignore class. ``mean_distance``
    is the mean match distance over the valid points (0.0 when none is).
    """

    semantic: np.ndarray
    valid: np.ndarray
    origin_kind: np.ndarray
    frame_id: int = 0
    sequence_id: str = ""
    references: tuple = ()
    mean_distance: float = 0.0

    def __post_init__(self):
        sem = np.asarray(self.semantic, dtype=np.int32).reshape(-1)
        valid = np.asarray(self.valid, dtype=bool).reshape(-1)
        origin = np.asarray(self.origin_kind).reshape(-1)
        n = len(sem)
        for name, arr in (("valid", valid), ("origin_kind", origin)):
            if len(arr) != n:
                raise DataError(f"{name} length {len(arr)} does not match {n} points")
        # what write_ple cannot pack into a word is refused here
        if n and (sem.min() < 0 or sem.max() > _SEMANTIC_MASK):
            raise DataError("semantic ids must fit in 16 bits")
        if ((origin != ORIGIN_GROUND_TRUTH) & (origin != ORIGIN_PLE)).any():
            raise DataError(f"origin kinds must be {ORIGIN_GROUND_TRUTH} or {ORIGIN_PLE}")
        origin = origin.astype(np.uint8, copy=False)
        if (sem[~valid] != IGNORE_CLASS).any():
            raise DataError("invalid points must carry the ignore class")
        if not self.mean_distance >= 0:
            raise DataError(f"mean distance must not be negative, got {self.mean_distance}")
        for arr in (sem, valid, origin):
            arr.setflags(write=False)
        object.__setattr__(self, "semantic", sem)
        object.__setattr__(self, "valid", valid)
        object.__setattr__(self, "origin_kind", origin)
        object.__setattr__(self, "references", tuple(int(r) for r in self.references))
        object.__setattr__(self, "mean_distance", float(self.mean_distance))

    def __len__(self) -> int:
        return len(self.semantic)

    def __reduce__(self):
        # unpickled through __init__, so its arrays come back checked and read-only
        return PseudoLabelMap, tuple(getattr(self, f.name) for f in fields(self))


def select_references(labeled: set, target: int, cfg: PleConfig) -> list:
    """Labeled frames usable for `target`: in-window, nearest first.

    Ordered by ascending |frame offset|, ties broken by the earlier frame id,
    truncated to cfg.max_references. Empty when nothing is in range.
    """
    window = cfg.window_frames
    in_range = [f for f in labeled if f != target and abs(f - target) <= window]
    in_range.sort(key=lambda f: (abs(f - target), f))
    return in_range[: cfg.max_references]


def _reference_pool(references):
    points, semantics, origins = [], [], []
    for cloud, labels, transform in references:
        if len(cloud) != len(labels):
            raise DataError(
                f"reference frame {labels.frame_id}: {len(cloud)} points "
                f"but {len(labels)} labels"
            )
        if isinstance(labels, PseudoLabelMap):
            mask = labels.valid
            pts = cloud.points[mask]
            sem = labels.semantic[mask]
            origin = ORIGIN_PLE
        else:
            pts = cloud.points
            sem = labels.semantic
            origin = ORIGIN_GROUND_TRUTH
        if len(pts) == 0:
            continue
        points.append(geometry.apply_points(transform, pts))
        semantics.append(sem)
        origins.append(np.full(len(pts), origin, dtype=np.uint8))
    if not points:
        raise DataError("no labeled points available in any reference")
    return np.concatenate(points, axis=0), np.concatenate(semantics), np.concatenate(origins)


def estimate_labels(target_cloud: PointCloud, references, cfg: PleConfig) -> PseudoLabelMap:
    """Label every target point from its nearest pooled reference point.

    `references` is a sequence of (cloud, labels, transform) triples where
    the transform maps that reference's sensor frame into the target's frame
    and labels is a LabelMap or an earlier PseudoLabelMap (only its valid
    points contribute).
    """
    if not references:
        raise DataError("no reference frames given")
    pool_pts, pool_sem, pool_origin = _reference_pool(references)
    tree = KdTree(pool_pts)
    idx, dist = tree.nearest(target_cloud.points)
    semantic = pool_sem[idx].astype(np.int32)
    valid = dist <= cfg.max_distance
    semantic = np.where(valid, semantic, IGNORE_CLASS).astype(np.int32)
    return PseudoLabelMap(
        semantic=semantic,
        valid=valid,
        origin_kind=pool_origin[idx],
        frame_id=target_cloud.frame_id,
        sequence_id=target_cloud.sequence_id,
        references=tuple(labels.frame_id for _, labels, _ in references),
        mean_distance=float(dist[valid].mean()) if valid.any() else 0.0,
    )


class DatasetSource:
    """Frame access over an in-memory generated dataset (single sequence)."""

    def __init__(self, dataset):
        self._data = dataset

    def sequence_ids(self) -> tuple:
        return ("00",)

    def frame_count(self, seq: str) -> int:
        return len(self._data)

    def cloud(self, seq: str, frame: int) -> PointCloud:
        return self._data.clouds[frame]

    def gt_labels(self, seq: str, frame: int) -> LabelMap:
        return self._data.labels[frame]

    def pose(self, seq: str, frame: int) -> geometry.RigidTransform:
        return self._data.poses[frame]


class ManifestSource:
    """Frame access over an on-disk dataset, or one of its sequences.

    Nothing is cached: each call reads the one file it needs. A caller that
    reads a frame twice keeps it itself, as the run loop does.
    """

    def __init__(self, manifest: tuple | SequenceInfo):
        sequences = (manifest,) if isinstance(manifest, SequenceInfo) else manifest
        self._by_id = {s.sequence_id: s for s in sequences}

    def _info(self, seq: str, frame: int):
        """The sequence's manifest entry, checked to hold `frame`."""
        info = self._by_id.get(seq)
        if info is None:
            raise DataError(f"unknown sequence {seq!r}")
        if not 0 <= frame < info.frame_count:
            raise DataError(
                f"sequence {seq}: frame {frame} is outside 0..{info.frame_count - 1}"
            )
        return info

    def sequence_ids(self) -> tuple:
        return tuple(self._by_id)

    def frame_count(self, seq: str) -> int:
        return self._by_id[seq].frame_count

    def cloud(self, seq: str, frame: int) -> PointCloud:
        info = self._info(seq, frame)
        return lidar_io.read_scan(info.scan_paths[frame], frame, seq)

    def point_count(self, seq: str, frame: int) -> int:
        """Points in the frame's scan, from its file size alone."""
        return lidar_io.scan_point_count(self._info(seq, frame).scan_paths[frame])

    def gt_labels(self, seq: str, frame: int) -> LabelMap:
        """The frame's labels, checked against its scan's size; the scan
        itself is not decoded."""
        points = self.point_count(seq, frame)
        info = self._by_id[seq]
        if info.label_paths is None:
            raise DataError(f"sequence {seq} has no label files")
        try:
            return lidar_io.read_labels(info.label_paths[frame], points, frame, seq)
        except DataError as exc:
            raise DataError(f"{exc}, one per point of {info.scan_paths[frame]}") from None

    def pose(self, seq: str, frame: int) -> geometry.RigidTransform:
        return self._info(seq, frame).poses[frame]


def _estimate_for(source, target, refs, scan, labels, cfg: PleConfig) -> PseudoLabelMap:
    """The estimate of `target` from `refs`, whose scans come from scan(frame)
    and labels from labels(frame); a failure names the target."""
    try:
        target_pose = source.pose(*target)
        references = [(scan(g), labels(g),
                       geometry.relative_transform(source.pose(*g), target_pose))
                      for g in refs]
        return estimate_labels(scan(target), references, cfg)
    except PlelidarError as exc:
        raise type(exc)("sequence {}, frame {}: {}".format(*target, exc)) from exc


def schedule_naive(labeled: set, length: int, cfg: PleConfig) -> dict:
    """Plan for one sequence: {target: references} for every unlabeled frame
    with a ground-truth frame in its window; references are ground truth
    only."""
    refs_of = {f: tuple(select_references(labeled, f, cfg))
               for f in range(length) if f not in labeled}
    return {f: refs for f, refs in refs_of.items() if refs}


def chain_root(labeled: set, target: int) -> int:
    """The ground-truth frame whose chain owns `target` (earlier id on ties)."""
    return min(labeled, key=lambda g: (abs(g - target), g))


def schedule_progressive(labeled: set, length: int, cfg: PleConfig) -> dict:
    """Plan for one sequence: {target: references} for every frame within
    the window of its chain root.

    A target's offset is its distance to its root; ground truth has offset
    0. Its candidates are the frames within the root's window at a smaller
    offset than its own, so the nearest frames are labelled first and no
    estimate references one at its own offset or beyond.
    """
    window = cfg.window_frames
    root = {f: chain_root(labeled, f) for f in range(length)} if labeled else {}
    offset = {f: abs(f - r) for f, r in root.items()}
    refs_of = {}
    for f, k in offset.items():
        if 0 < k <= window:
            r = root[f]
            candidates = [g for g in range(max(0, r - window), min(length, r + window + 1))
                          if offset[g] < k]
            refs_of[f] = tuple(select_references(candidates, f, cfg))
    return refs_of


class _UseCounted:
    """Frames read on first use and dropped after their last.

    `uses` counts, per frame, the uses the plan will make; a frame put in
    with `keep` (an estimate) is never read.
    """

    def __init__(self, read, uses: Counter):
        self._read = read
        self._uses = uses
        self._held: dict = {}

    def keep(self, frame: int, item) -> None:
        if self._uses[frame]:
            self._held[frame] = item

    def take(self, frame: int):
        item = self._held.pop(frame) if frame in self._held else self._read(frame)
        self._uses[frame] -= 1
        self.keep(frame, item)
        return item


def _dependencies(refs_of: dict) -> tuple:
    """Per target of a plan `{target: references}`: how many of its references
    are targets too, and which targets reference it."""
    waiting = dict.fromkeys(refs_of, 0)
    dependents: dict = {}
    for f, refs in refs_of.items():
        for g in refs:
            if g in refs_of:
                waiting[f] += 1
                dependents.setdefault(g, []).append(f)
    return waiting, dependents


def run_order(refs_of: dict) -> tuple:
    """The targets of a plan `{target: references}` in the order the run
    makes them.

    An estimate depends only on its references' labels, and every
    estimated reference sits at a smaller offset than its target, so the
    graph has no cycle and any order that makes every estimated reference
    before its targets writes the same bytes. Of the targets whose
    estimated references are all done, the lowest frame id goes next, so
    the run advances through the sequence.
    """
    waiting, dependents = _dependencies(refs_of)
    ready = [f for f, n in waiting.items() if n == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        f = heapq.heappop(ready)
        order.append(f)
        for d in dependents.get(f, ()):
            waiting[d] -= 1
            if not waiting[d]:
                heapq.heappush(ready, d)
    return tuple(order)


def check_workers(workers: int) -> None:
    """Refuse a negative worker count; 0 stands for one per CPU."""
    if workers < 0:
        raise ConfigError(f"workers must be 0 (one per CPU) or a process count, got {workers}")


def _process_count(workers: int, targets: int) -> int:
    """Processes for `targets` estimates: `workers`, or for 0 one per CPU
    this process may use; at most one per target. 1 without os.fork, and in
    a process with more than one thread: a forked child holds only the
    calling thread, so a lock another thread held would never be released."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    if workers == 0:
        workers = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                   else os.cpu_count() or 1)
    return max(1, min(workers, targets))


def _run_serial(source, cfg: PleConfig, plan: dict, emit) -> None:
    """Make the estimates of `plan`'s targets in its order, in this process,
    and hand each to emit(target, estimate) as soon as it is made.

    A scan, a ground-truth label map or an estimate is read (or made) once,
    kept while a later target still needs it, and dropped after its last
    use; a target's label file is never read.
    """
    label_uses = Counter(g for refs in plan.values() for g in refs)
    # each target also reads its own scan once
    scans = _UseCounted(lambda f: source.cloud(*f), label_uses + Counter(plan.keys()))
    labels = _UseCounted(lambda f: source.gt_labels(*f), label_uses)
    for f, refs in plan.items():
        pmap = _estimate_for(source, f, refs, scans.take, labels.take, cfg)
        labels.keep(f, pmap)
        emit(f, pmap)
        del pmap  # not held while the next target runs


def _run_plan(source, split: dict, cfg: PleConfig, schedule, emit, workers: int) -> None:
    """Run every sequence's plan, its targets in `run_order`, handing each
    estimate to emit((sequence, frame), estimate) in that order.

    This process makes them all when `_process_count` gives one process;
    otherwise forked workers make them (`_run_forked`). The estimates are
    the same either way.
    """
    check_workers(workers)
    plan = {}
    for seq in source.sequence_ids():
        labeled = set(split.get(seq, ()))
        if labeled:
            refs_of = schedule(labeled, source.frame_count(seq), cfg)
            plan.update(((seq, f), tuple((seq, g) for g in refs_of[f]))
                        for f in run_order(refs_of))
    processes = _process_count(workers, len(plan))
    if processes < 2:
        _run_serial(source, cfg, plan, emit)
    else:
        _run_forked(source, cfg, plan, processes, emit)


# a message between the parent and a worker: its pickle's length, then the pickle
_HEADER = struct.Struct("<Q")


def _send(file, message) -> None:
    data = pickle.dumps(message, pickle.HIGHEST_PROTOCOL)
    file.write(_HEADER.pack(len(data)))
    file.write(data)
    file.flush()


def _receive(file):
    """The next message on `file`; EOFError if the file ends first."""
    header = file.read(_HEADER.size)
    if len(header) == _HEADER.size:
        (size,) = _HEADER.unpack(header)
        data = file.read(size)
        if len(data) == size:
            return pickle.loads(data)
    raise EOFError("the process on the other side of the pipe has stopped")


def _serve(source, cfg: PleConfig, plan: dict, down, up) -> None:
    """A worker's loop until `down` ends: read a target of `plan` and the
    estimates it references, and send up its estimate, or the exception that
    stopped it. Each target reads its own scans and ground-truth labels."""
    while True:
        try:
            f, estimates = _receive(down)
        except EOFError:
            return
        try:
            result = _estimate_for(source, f, plan[f], lambda g: source.cloud(*g),
                                   lambda g: estimates[g] if g in estimates
                                   else source.gt_labels(*g), cfg)
        except BaseException as exc:  # re-raised in the parent, which decides the run's end
            result = exc
        _send(up, result)
        del result, estimates  # not held while the worker waits


def _fork(serve, started: list) -> tuple:
    """Fork a worker that runs serve(down, up) on its ends of two pipes, and
    return (its pid, the file this process writes its targets to, the file
    this process reads its results from). The worker first closes the files
    of the workers `started` before it, so that each pipe ends when its one
    process on the other side does."""
    down_r, down_w = os.pipe()
    up_r, up_w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        for fd in (down_r, down_w, up_r, up_w):
            os.close(fd)
        raise
    if pid == 0:
        code = 1
        try:
            for _, down, up in started:
                down.close()
                up.close()
            os.close(down_w)
            os.close(up_r)
            with os.fdopen(down_r, "rb") as down, os.fdopen(up_w, "wb") as up:
                serve(down, up)
            code = 0
        finally:
            os._exit(code)  # never returns into the parent's code
    os.close(down_r)
    os.close(up_w)
    return pid, os.fdopen(down_w, "wb"), os.fdopen(up_r, "rb")


def _run_forked(source, cfg: PleConfig, plan: dict, processes: int, emit) -> None:
    """Fork `processes` workers, deal them the targets of `plan`, and emit
    the estimates in the plan's order.

    The ready target earliest in the order (every estimate it references
    made) goes to an idle worker with those estimates, which this process
    holds until their last such dispatch. A worker is sent a target only
    while it waits for one, so every write to it completes. A failed target
    stops the run once every earlier target is emitted, so it leaves what
    one process would: the estimates before the earliest failing target, and
    that target's exception. A worker that dies fails the target it was
    making; the earliest target not yet made is always being made, so a run
    whose every worker dies fails there. Every worker is killed and reaped
    on the way out, whatever the way.
    """
    import select
    import signal

    order = tuple(plan)
    index = {f: i for i, f in enumerate(order)}
    waiting, dependents = _dependencies(plan)
    ready = [index[f] for f, n in waiting.items() if n == 0]
    heapq.heapify(ready)
    # an estimate is kept before any target that references it is ready, so none is read
    estimates = _UseCounted(None, Counter(g for refs in plan.values() for g in refs
                                          if g in plan))
    workers: list = []  # (pid, file of targets, file of results), as _fork returns them
    try:
        for _ in range(processes):
            workers.append(_fork(lambda down, up: _serve(source, cfg, plan, down, up), workers))
        idle, busy = list(workers), {}  # busy: result file descriptor -> (worker, index)
        poller = select.poll()
        made, failed, emitted = {}, {}, 0  # by index; failed holds exceptions
        while True:
            stop = min(failed, default=len(order))
            while idle and ready and ready[0] < stop:
                i = heapq.heappop(ready)
                worker = idle.pop()
                _send(worker[1], (order[i], {g: estimates.take(g) for g in plan[order[i]]
                                             if g in plan}))
                busy[worker[2].fileno()] = worker, i
                poller.register(worker[2], select.POLLIN)
            while emitted in made:  # written while the workers make their targets
                emit(order[emitted], made.pop(emitted))
                emitted += 1
            if emitted == stop:
                break
            for fd, _ in poller.poll():
                poller.unregister(fd)
                worker, i = busy.pop(fd)
                try:
                    result = _receive(worker[2])
                except EOFError:
                    failed[i] = ChildProcessError("sequence {}, frame {}: the worker making it "
                                                  "stopped without a result".format(*order[i]))
                    continue
                idle.append(worker)
                if isinstance(result, BaseException):
                    failed[i] = result
                    continue
                made[i] = result
                estimates.keep(order[i], result)
                for d in dependents.get(order[i], ()):
                    waiting[d] -= 1
                    if not waiting[d]:
                        heapq.heappush(ready, index[d])
        if failed:
            raise failed[stop]
    finally:
        for pid, down, up in workers:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            up.close()
            with contextlib.suppress(BrokenPipeError):  # a message its worker never read
                down.close()


def run_naive(source, split: dict, cfg: PleConfig, workers: int = 1, *, emit=None) -> dict:
    """Estimate labels for every unlabeled frame with a ground-truth frame in window.

    Returns {(sequence_id, frame_id): PseudoLabelMap}. Frames with no
    in-window ground-truth reference are left out. Given `emit`, each
    estimate is instead handed to emit((sequence_id, frame_id), estimate)
    in run order, and the returned dict is empty. `workers` processes make
    the estimates (0: one per CPU this process may use); the result is the
    same at any count.
    """
    if cfg.progressive:
        raise ConfigError("run_naive requires cfg.progressive = False")
    results: dict = {}
    _run_plan(source, split, cfg, schedule_naive, emit or results.__setitem__, workers)
    return results


def run_progressive(source, split: dict, cfg: PleConfig, workers: int = 1, *,
                    emit=None) -> dict:
    """Estimate labels outward from the ground-truth frames, nearest first:
    a frame may reference estimates closer to its chain root than itself.

    Covers exactly the frames run_naive covers, and returns or emits them
    the same way, made by as many processes.
    """
    if not cfg.progressive:
        raise ConfigError("run_progressive requires cfg.progressive = True")
    results: dict = {}
    _run_plan(source, split, cfg, schedule_progressive, emit or results.__setitem__, workers)
    return results


def write_ple(pmap: PseudoLabelMap, path) -> None:
    """Persist a label estimate as packed words plus a text sidecar.

    Word layout per point: class id in bits 0..15, origin kind in bit 16,
    validity in bit 17. The sidecar (same name, .meta) records the sequence,
    the frame, the reference frames and the mean match distance.
    """
    words = (
        pmap.semantic.astype(np.uint32)
        | (pmap.origin_kind.astype(np.uint32) << 16)
        | (pmap.valid.astype(np.uint32) << 17)
    ).astype("<u4")
    path = Path(path)
    path.write_bytes(words.tobytes())
    meta = [
        f"sequence = {pmap.sequence_id}",
        f"frame = {pmap.frame_id}",
        "references = " + ", ".join(str(r) for r in pmap.references),
        f"mean_distance = {pmap.mean_distance:.17g}",
    ]
    lidar_io.write_lines(path.with_suffix(META_SUFFIX), meta)


def read_ple(path) -> PseudoLabelMap:
    """Load a persisted estimate. The ids, references and mean distance come
    from its required .meta."""
    raw = Path(path).read_bytes()
    if len(raw) % 4 != 0:
        raise DataError(f"{path}: length {len(raw)} is not a multiple of 4")
    words = np.frombuffer(raw, dtype="<u4")
    meta_path = Path(path).with_suffix(META_SUFFIX)
    meta = read_meta(meta_path)
    try:
        return PseudoLabelMap(
            semantic=(words & _SEMANTIC_MASK).astype(np.int32),
            valid=(words & _VALID_BIT) != 0,
            origin_kind=((words & _ORIGIN_BIT) != 0).astype(np.uint8),
            frame_id=meta["frame"],
            sequence_id=meta["sequence"],
            references=meta["references"],
            mean_distance=meta["mean_distance"],
        )
    except DataError as exc:
        raise DataError(f"{path} with {meta_path}: {exc}") from None


def read_meta(path) -> dict:
    lines = lidar_io.read_lines(path, DataError)
    fields = {key: value for _, key, value in lidar_io.key_values(lines, path, DataError)}
    try:
        return {
            "sequence": fields["sequence"],
            "frame": int(fields["frame"]),
            "references": tuple(
                int(r) for r in fields["references"].split(",") if r.strip()
            ),
            "mean_distance": float(fields["mean_distance"]),
        }
    except (KeyError, ValueError) as exc:
        raise DataError(f"{path}: missing or malformed field ({exc})") from None


def write_estimate(root, pmap: PseudoLabelMap) -> None:
    """Write an estimate into the tree `EstimateDir` reads:
    <root>/<sequence>/<frame:06d>.ple and its .meta, named by its own ids."""
    seq_dir = Path(root) / pmap.sequence_id
    seq_dir.mkdir(parents=True, exist_ok=True)
    write_ple(pmap, seq_dir / f"{pmap.frame_id:06d}{PLE_SUFFIX}")


class EstimateDir(Mapping):
    """The estimates of a tree `write_estimate` wrote, by (sequence, frame),
    in sequence-name order, then frame order (not name order, which differs
    past frame 999999). Building it lists the tree: a directory that is not
    a sequence of `source`, or a .ple other than a file <frame:06d>.ple for
    a frame of its sequence, is a data error naming its path, and no .ple is
    an empty result. Each lookup reads its file, uncached, and checks that
    its .meta names that frame and that it holds one label per point; `in`
    reads no file.
    """

    def __init__(self, root, source):
        root = Path(root)
        if not root.is_dir():
            raise DataError(f"{root} is not a directory")
        self._paths = {}
        for seq_dir in sorted(p for p in root.iterdir() if p.is_dir()):
            seq = seq_dir.name
            if seq not in source.sequence_ids():
                raise DataError(f"{seq_dir}: unknown sequence {seq!r}, not in the dataset")
            count = source.frame_count(seq)
            for frame, f in lidar_io.frame_files(seq_dir, PLE_SUFFIX, "estimate").items():
                if frame >= count:
                    raise DataError(f"{f}: frame {frame} is outside 0..{count - 1} "
                                    f"of sequence {seq}")
                self._paths[seq, frame] = f
        if not self._paths:
            raise EmptyResultError(f"no {PLE_SUFFIX} files under {root}")
        self._source = source

    def __getitem__(self, key) -> PseudoLabelMap:
        seq, frame = key
        path = self._paths[key]
        pred = read_ple(path)
        if (pred.sequence_id, pred.frame_id) != key:
            raise DataError(f"{path}: its {META_SUFFIX} names frame "
                            f"{pred.sequence_id}/{pred.frame_id}, not {seq}/{frame}")
        points = self._source.point_count(seq, frame)
        if len(pred) != points:
            raise DataError(f"frame {seq}/{frame}: {path} holds {len(pred)} estimates "
                            f"for {points} points")
        return pred

    def __contains__(self, key) -> bool:
        return key in self._paths

    def __iter__(self):
        return iter(self._paths)

    def __len__(self) -> int:
        return len(self._paths)
