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
reference comes before its targets; the loop runs the targets in that order
and hands each estimate on as soon as it is made.

An estimate is stored as ``<root>/<sequence>/<frame:06d>.ple`` with a
``.meta`` beside it. ``write_estimate`` writes that tree and ``EstimateDir``
lists, checks and reads it; ``write_ple`` and ``read_ple`` are the file pair.
"""

from __future__ import annotations

import heapq
import math
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from . import geometry, lidar_io
from .errors import (ConfigError, DataError, EmptyIndexError, EmptyResultError, FormatError,
                     MissingDataError, PlelidarError)
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
        raise EmptyIndexError("no labeled points available in any reference")
    return np.concatenate(points, axis=0), np.concatenate(semantics), np.concatenate(origins)


def estimate_labels(target_cloud: PointCloud, references, cfg: PleConfig) -> PseudoLabelMap:
    """Label every target point from its nearest pooled reference point.

    `references` is a sequence of (cloud, labels, transform) triples where
    the transform maps that reference's sensor frame into the target's frame
    and labels is a LabelMap or an earlier PseudoLabelMap (only its valid
    points contribute).
    """
    if not references:
        raise EmptyIndexError("no reference frames given")
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
            raise MissingDataError(f"unknown sequence {seq!r}")
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
        except FormatError as exc:
            raise FormatError(f"{exc}, one per point of {info.scan_paths[frame]}") from None

    def pose(self, seq: str, frame: int) -> geometry.RigidTransform:
        return self._info(seq, frame).poses[frame]


def _estimate_for(source, seq: str, target: int, refs, scans, labels,
                  cfg: PleConfig) -> PseudoLabelMap:
    target_pose = source.pose(seq, target)
    references = [
        (
            scans.take(g),
            labels.take(g),
            geometry.relative_transform(source.pose(seq, g), target_pose),
        )
        for g in refs
    ]
    return estimate_labels(scans.take(target), references, cfg)


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
    waiting = dict.fromkeys(refs_of, 0)
    dependents: dict = {}
    for f, refs in refs_of.items():
        for g in refs:
            if g in refs_of:
                waiting[f] += 1
                dependents.setdefault(g, []).append(f)
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


def _run_plan(source, split: dict, cfg: PleConfig, schedule, emit) -> None:
    """Run each sequence's plan in `run_order`, handing every estimate to
    emit((sequence, frame), estimate) as soon as it is made.

    A scan, a ground-truth label map or an estimate is read (or made) once,
    kept while a later target still needs it, and dropped after its last
    use; a target's label file is never read.
    """
    for seq in source.sequence_ids():
        labeled = set(split.get(seq, ()))
        if not labeled:
            continue
        refs_of = schedule(labeled, source.frame_count(seq), cfg)
        order = run_order(refs_of)
        label_uses = Counter(g for f in order for g in refs_of[f])
        # each target also reads its own scan once
        scans = _UseCounted(partial(source.cloud, seq), label_uses + Counter(order))
        labels = _UseCounted(partial(source.gt_labels, seq), label_uses)
        for f in order:
            try:
                pmap = _estimate_for(source, seq, f, refs_of[f], scans, labels, cfg)
            except PlelidarError as exc:
                raise type(exc)(f"sequence {seq}, frame {f}: {exc}") from exc
            labels.keep(f, pmap)
            emit((seq, f), pmap)
            del pmap  # not held while the next target runs


def run_naive(source, split: dict, cfg: PleConfig, workers: int = 1, *, emit=None) -> dict:
    """Estimate labels for every unlabeled frame with a ground-truth frame in window.

    Returns {(sequence_id, frame_id): PseudoLabelMap}. Frames with no
    in-window ground-truth reference are left out. Given `emit`, each
    estimate is instead handed to emit((sequence_id, frame_id), estimate)
    as soon as it is made, and the returned dict is empty. `workers` is
    accepted and ignored: the run is single-threaded.
    """
    if cfg.progressive:
        raise ConfigError("run_naive requires cfg.progressive = False")
    results: dict = {}
    _run_plan(source, split, cfg, schedule_naive, emit or results.__setitem__)
    return results


def run_progressive(source, split: dict, cfg: PleConfig, workers: int = 1, *,
                    emit=None) -> dict:
    """Estimate labels outward from the ground-truth frames, nearest first:
    a frame may reference estimates closer to its chain root than itself.

    Covers exactly the frames run_naive covers, and returns or emits them
    the same way. `workers` is accepted and ignored: the run is
    single-threaded.
    """
    if not cfg.progressive:
        raise ConfigError("run_progressive requires cfg.progressive = True")
    results: dict = {}
    _run_plan(source, split, cfg, schedule_progressive, emit or results.__setitem__)
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
        raise FormatError(f"{path}: length {len(raw)} is not a multiple of 4")
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
    lines = lidar_io.read_lines(path, FormatError)
    fields = {key: value for _, key, value in lidar_io.key_values(lines, path, FormatError)}
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
        raise FormatError(f"{path}: missing or malformed field ({exc})") from None


def write_estimate(root, pmap: PseudoLabelMap) -> None:
    """Write an estimate into the tree `EstimateDir` reads:
    <root>/<sequence>/<frame:06d>.ple and its .meta, named by its own ids."""
    seq_dir = Path(root) / pmap.sequence_id
    seq_dir.mkdir(parents=True, exist_ok=True)
    write_ple(pmap, seq_dir / f"{pmap.frame_id:06d}{PLE_SUFFIX}")


class EstimateDir(Mapping):
    """The estimates of a tree `write_estimate` wrote, by (sequence, frame),
    listed in name order, which is (sequence, frame) order. Building it
    lists the tree: a directory that is not a sequence of `source`, or a .ple
    other than <frame:06d>.ple for a frame of its sequence, is a data error
    naming its path, and no .ple is an empty result. Each lookup reads its
    file, uncached, and checks that its .meta names that frame and that it
    holds one label per point; `in` reads no file.
    """

    def __init__(self, root, source):
        root = Path(root)
        if not root.is_dir():
            raise MissingDataError(f"{root} is not a directory")
        self._paths = {}
        for seq_dir in sorted(p for p in root.iterdir() if p.is_dir()):
            seq = seq_dir.name
            if seq not in source.sequence_ids():
                raise DataError(f"{seq_dir}: unknown sequence {seq!r}, not in the dataset")
            count = source.frame_count(seq)
            for f in sorted(seq_dir.glob(f"*{PLE_SUFFIX}")):
                stem = f.stem
                if not (stem.isascii() and stem.isdigit() and stem == f"{int(stem):06d}"
                        and f.is_file()):
                    raise DataError(f"{f}: an estimate is a file named "
                                    f"<frame:06d>{PLE_SUFFIX}, as ple writes it")
                frame = int(stem)
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
