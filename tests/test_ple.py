"""Label propagation: reference selection, nearest transfer, scheduling, file io."""

from __future__ import annotations

import dataclasses
import heapq
import math
import re
import shutil
import weakref
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from plelidar import geometry, lidar_io, ple, synth
from plelidar import split as split_mod
from plelidar.errors import (ConfigError, DataError, EmptyIndexError, EmptyResultError,
                             FormatError)
from plelidar.geometry import RigidTransform
from plelidar.lidar_io import LabelMap, PointCloud
from plelidar.ple import DatasetSource, PleConfig, PseudoLabelMap
from plelidar.spatial_index import nearest_brute

from conftest import corridor_config, export


def _cloud(points, frame_id=0):
    points = np.asarray(points, dtype=float)
    return PointCloud(points, frame_id=frame_id, sequence_id="00")


def _identity():
    return geometry.identity()


class TestConfig:
    def test_window_frames(self):
        assert PleConfig(window_seconds=1.0).window_frames == 10
        assert PleConfig(window_seconds=0.05).window_frames == 1
        assert PleConfig(window_seconds=2.0, frequency=5.0).window_frames == 10

    def test_rejects_bad_values(self):
        with pytest.raises(ConfigError):
            PleConfig(window_seconds=0.0)
        with pytest.raises(ConfigError):
            PleConfig(max_references=0)
        with pytest.raises(ConfigError):
            PleConfig(max_distance=-1.0)

    @pytest.mark.parametrize("field", ["window_seconds", "max_distance"])
    @pytest.mark.parametrize("value", [float("nan"), float("-inf")])
    def test_rejects_nan_and_negative_infinity(self, field, value):
        with pytest.raises(ConfigError):
            PleConfig(**{field: value})

    def test_rejects_infinite_window(self):
        with pytest.raises(ConfigError, match="window_seconds"):
            PleConfig(window_seconds=float("inf"))

    @pytest.mark.parametrize("frequency", [0.0, -10.0, float("nan"), float("inf"), 1e308])
    def test_window_frames_rejects_unusable_frequency(self, frequency):
        with pytest.raises(ConfigError, match="frames"):
            PleConfig(window_seconds=10.0, frequency=frequency)


class TestSelectReferences:
    def test_nearest_first_capped(self):
        cfg = PleConfig(window_seconds=1.0, max_references=2)
        assert ple.select_references({0, 8, 20, 40}, 12, cfg) == [8, 20]

    def test_tie_prefers_earlier_frame(self):
        cfg = PleConfig(window_seconds=1.0, max_references=4)
        assert ple.select_references({0, 20}, 10, cfg) == [0, 20]

    def test_out_of_window_empty(self):
        cfg = PleConfig(window_seconds=1.0)
        assert ple.select_references({0}, 30, cfg) == []

    def test_target_itself_never_selected(self):
        cfg = PleConfig(window_seconds=1.0)
        assert ple.select_references({5}, 5, cfg) == []


class TestEstimateLabels:
    def test_nearest_point_wins(self):
        target = _cloud([[0.0, 0.0, 0.0]], frame_id=1)
        near = (_cloud([[0.1, 0.0, 0.0]], 2), LabelMap([9], [0], 2), _identity())
        far = (_cloud([[0.5, 0.0, 0.0]], 3), LabelMap([40], [0], 3), _identity())
        cfg = PleConfig()
        out = ple.estimate_labels(target, [far, near], cfg)
        assert out.semantic.tolist() == [9]
        assert out.mean_distance == pytest.approx(0.1)
        assert out.references == (3, 2)

    def test_self_reference_is_identity(self):
        rng = np.random.default_rng(7)
        pts = rng.uniform(-5, 5, (80, 3))
        sem = rng.integers(1, 20, 80)
        target = _cloud(pts, frame_id=4)
        ref = (target, LabelMap(sem, np.zeros(80, dtype=int), 4), _identity())
        out = ple.estimate_labels(target, [ref], PleConfig())
        assert np.array_equal(out.semantic, sem)
        assert out.mean_distance == 0.0
        assert np.all(out.valid)

    def test_matches_pooled_brute_force(self):
        rng = np.random.default_rng(11)
        target = _cloud(rng.uniform(-10, 10, (60, 3)), frame_id=5)
        refs = []
        pool_pts, pool_sem, pool_origin = [], [], []
        for frame, count in ((2, 40), (8, 30)):
            pts = rng.uniform(-10, 10, (count, 3))
            sem = rng.integers(1, 12, count)
            t = RigidTransform(
                geometry.axis_angle_rotation(rng.normal(0, 0.3, 3)),
                rng.normal(0, 2, 3),
            )
            refs.append((_cloud(pts, frame), LabelMap(sem, np.zeros(count, dtype=int), frame), t))
            pool_pts.append(geometry.apply_points(t, pts))
            pool_sem.append(sem)
            pool_origin.append(np.full(count, ple.ORIGIN_GROUND_TRUTH))
        pool = np.concatenate(pool_pts)
        idx, dist = nearest_brute(pool, target.points)
        out = ple.estimate_labels(target, refs, PleConfig())
        assert np.array_equal(out.semantic, np.concatenate(pool_sem)[idx])
        assert np.array_equal(out.origin_kind, np.concatenate(pool_origin)[idx])
        assert out.mean_distance == dist.mean()

    def test_max_distance_invalidates(self):
        target = _cloud([[0.0, 0.0, 0.0], [5.0, 0.0, 0.0]])
        ref = (_cloud([[0.0, 0.0, 0.1]], 1), LabelMap([9], [0], 1), _identity())
        out = ple.estimate_labels(target, [ref], PleConfig(max_distance=1.0))
        assert out.valid.tolist() == [True, False]
        assert out.semantic.tolist() == [9, 0]

    def test_pseudo_reference_contributes_only_valid_points(self):
        target = _cloud([[0.0, 0.0, 0.0]], frame_id=2)
        pseudo = PseudoLabelMap(
            semantic=np.array([0, 9], dtype=np.int32),
            valid=np.array([False, True]),
            origin_kind=np.array([1, 1], dtype=np.uint8),
            frame_id=1,
        )
        # invalid point sits right on the target; it must be ignored
        ref_cloud = _cloud([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]], 1)
        out = ple.estimate_labels(target, [(ref_cloud, pseudo, _identity())], PleConfig())
        assert out.semantic.tolist() == [9]
        assert out.origin_kind.tolist() == [ple.ORIGIN_PLE]

    def test_ground_truth_origin_kind(self):
        target = _cloud([[0.0, 0.0, 0.0]])
        ref = (_cloud([[0.1, 0.0, 0.0]], 1), LabelMap([4], [0], 1), _identity())
        out = ple.estimate_labels(target, [ref], PleConfig())
        assert out.origin_kind.tolist() == [ple.ORIGIN_GROUND_TRUTH]

    def test_no_references_raises(self):
        with pytest.raises(EmptyIndexError):
            ple.estimate_labels(_cloud([[0.0, 0.0, 0.0]]), [], PleConfig())

    def test_all_invalid_reference_raises(self):
        empty = PseudoLabelMap(
            semantic=np.zeros(1, dtype=np.int32),
            valid=np.zeros(1, dtype=bool),
            origin_kind=np.ones(1, dtype=np.uint8),
        )
        ref = (_cloud([[0.0, 0.0, 0.0]], 1), empty, _identity())
        with pytest.raises(EmptyIndexError):
            ple.estimate_labels(_cloud([[1.0, 0.0, 0.0]]), [ref], PleConfig())

    def test_length_mismatch_raises(self):
        ref = (_cloud([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]], 1), LabelMap([9], [0], 1), _identity())
        with pytest.raises(DataError):
            ple.estimate_labels(_cloud([[0.0, 0.0, 0.0]]), [ref], PleConfig())


class TestPseudoLabelMap:
    def test_invalid_points_must_carry_ignore_class(self):
        with pytest.raises(DataError):
            PseudoLabelMap(
                semantic=np.array([9], dtype=np.int32),
                valid=np.array([False]),
                origin_kind=np.array([1], dtype=np.uint8),
            )

    @pytest.mark.parametrize("semantic, origin_kind, message", [
        ([70000, 0], [0, 1], "semantic ids must fit in 16 bits"),
        ([-1, 0], [0, 1], "semantic ids must fit in 16 bits"),
        ([9, 0], [0, 2], "origin kinds must be 0 or 1"),
        ([9, 0], [-1, 0], "origin kinds must be 0 or 1"),
    ])
    def test_values_write_ple_cannot_store_are_refused(self, semantic, origin_kind, message):
        # write_ple would pack them into words that read back as other labels
        with pytest.raises(DataError, match=f"^{message}$"):
            PseudoLabelMap(semantic=semantic, valid=[True, False], origin_kind=origin_kind)

    def test_mean_distance_over_valid_only(self):
        target = _cloud([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0], [100.0, 0.0, 0.0]])
        ref = (_cloud([[0.0, 0.0, 0.5]], 1), LabelMap([9], [0], 1), _identity())
        out = ple.estimate_labels(target, [ref], PleConfig(max_distance=3.0))
        assert out.valid.tolist() == [True, True, False]
        assert out.mean_distance == np.mean([0.5, np.hypot(2.0, 0.5)])

    def test_mean_distance_without_valid_points_is_zero(self):
        target = _cloud([[5.0, 0.0, 0.0]])
        ref = (_cloud([[0.0, 0.0, 0.0]], 1), LabelMap([9], [0], 1), _identity())
        out = ple.estimate_labels(target, [ref], PleConfig(max_distance=1.0))
        assert not out.valid.any()
        assert out.mean_distance == 0.0


class TestChainsAndSchedule:
    def test_chain_root_examples(self):
        assert ple.chain_root({0, 4}, 1) == 0
        assert ple.chain_root({0, 4}, 2) == 0
        assert ple.chain_root({0, 4}, 3) == 4

    def test_single_root_rounds(self):
        cfg = PleConfig(window_seconds=1.0, max_references=4, progressive=True)
        plan = ple.schedule_progressive({10}, 21, cfg)
        # offset k holds exactly frames 10 - k and 10 + k, for k = 1..10
        assert {k: sorted(f for f in plan if abs(f - 10) == k) for k in range(1, 12)} == {
            **{k: [10 - k, 10 + k] for k in range(1, 11)}, 11: []}
        assert plan[9] == plan[11] == (10,)
        assert plan[8] == (9, 10, 11)
        assert plan[0] == (1, 2, 3, 4)
        assert sorted(plan) == [f for f in range(21) if f != 10]

    def test_candidates_limited_to_root_window(self):
        # target 9 ties between roots 0 and 18 and belongs to 0; frame 18
        # is inside the target's window but outside the root's, so the
        # chain may not borrow from it
        cfg = PleConfig(window_seconds=1.0, max_references=4, progressive=True)
        plan = ple.schedule_progressive({0, 18}, 19, cfg)
        assert plan[9] == (8, 10, 7, 6)

    def test_unreachable_frames_not_scheduled(self):
        cfg = PleConfig(window_seconds=1.0, progressive=True)
        plan = ple.schedule_progressive({0}, 30, cfg)
        assert set(plan) == set(range(1, 11))

    def test_naive_schedule_is_one_round(self):
        cfg = PleConfig(window_seconds=0.2, max_references=1)
        assert ple.schedule_naive({3, 9}, 12, cfg) == {
            1: (3,), 2: (3,), 4: (3,), 5: (3,), 7: (9,), 8: (9,), 10: (9,), 11: (9,)}
        slow = PleConfig(window_seconds=0.2, max_references=1, frequency=1.0)
        assert ple.schedule_naive({0}, 30, slow) == {}


def _round_schedule_naive(labeled: set, length: int, cfg: PleConfig) -> list:
    """The naive plan as one round of (target, references) pairs."""
    entries = []
    for f in range(length):
        if f in labeled:
            continue
        refs = ple.select_references(labeled, f, cfg)
        if refs:
            entries.append((f, tuple(refs)))
    return [entries] if entries else []


def _round_schedule_progressive(labeled: set, length: int, cfg: PleConfig) -> list:
    """The progressive plan grown round by round: round k-1 holds the frames
    at offset k, referencing ground truth and every earlier round within the
    window of their root."""
    window = cfg.window_frames
    roots = {}
    for f in range(length):
        if f in labeled or not labeled:
            continue
        root = ple.chain_root(labeled, f)
        if abs(f - root) <= window:
            roots[f] = root
    rounds = []
    grown = set(labeled)
    for k in range(1, window + 1):
        targets = sorted(f for f, root in roots.items() if abs(f - root) == k)
        if not targets:
            continue
        entries = []
        for f in targets:
            candidates = {g for g in grown if abs(g - roots[f]) <= window}
            refs = ple.select_references(candidates, f, cfg)
            entries.append((f, tuple(refs)))
        rounds.append(entries)
        grown.update(targets)
    return rounds


@st.composite
def _schedule_case(draw):
    length = draw(st.integers(1, 60))
    labeled = draw(st.sets(st.integers(0, length - 1), max_size=8))
    window_seconds = draw(st.sampled_from([0.05, 0.1, 0.25, 0.4, 1.0]))
    max_references = draw(st.integers(1, 6))
    frequency = draw(st.sampled_from([1.0, 5.0, 10.0]))
    return labeled, length, window_seconds, max_references, frequency


def _offset(labeled: set, frame: int) -> int:
    return abs(frame - ple.chain_root(labeled, frame))


@settings(max_examples=500, deadline=None)
@given(_schedule_case())
@example((set(range(0, 40, 10)), 40, 1.0, 4, 10.0))
@example(({3, 9, 15, 31}, 40, 0.5, 6, 10.0))
def test_plans_equal_the_flattened_round_schedules(case):
    labeled, length, window_seconds, max_references, frequency = case
    for cfg, schedule, rounds in (
        (PleConfig(window_seconds, max_references, frequency=frequency),
         ple.schedule_naive, _round_schedule_naive),
        (PleConfig(window_seconds, max_references, progressive=True, frequency=frequency),
         ple.schedule_progressive, _round_schedule_progressive),
    ):
        flat = [entry for entries in rounds(labeled, length, cfg) for entry in entries]
        plan = schedule(labeled, length, cfg)
        assert len(flat) == len(plan)
        assert plan == dict(flat)


def _heap_order(refs_of: dict) -> list:
    """Reference run_order: the run loop as it popped the lowest ready frame
    from a heap while each estimate finished."""
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
        for d in dependents.pop(f, ()):
            waiting[d] -= 1
            if not waiting[d]:
                heapq.heappush(ready, d)
    return order


@settings(max_examples=500, deadline=None)
@given(_schedule_case())
@example((set(range(0, 40, 10)), 40, 1.0, 4, 10.0))
@example(({3, 9, 15, 31}, 40, 0.5, 6, 10.0))
def test_run_order_is_the_heap_order_and_puts_references_first(case):
    labeled, length, window_seconds, max_references, frequency = case
    for progressive, schedule in ((False, ple.schedule_naive),
                                  (True, ple.schedule_progressive)):
        cfg = PleConfig(window_seconds, max_references, progressive=progressive,
                        frequency=frequency)
        plan = schedule(labeled, length, cfg)
        order = ple.run_order(plan)
        assert isinstance(order, tuple)
        assert list(order) == _heap_order(plan)
        assert sorted(order) == sorted(plan)
        place = {f: i for i, f in enumerate(order)}
        for f, refs in plan.items():
            assert all(place[g] < place[f] for g in refs if g in plan), (f, refs)


@settings(max_examples=200, deadline=None)
@given(_schedule_case())
def test_every_reference_sits_at_a_smaller_offset(case):
    labeled, length, window_seconds, max_references, frequency = case
    for cfg, schedule in ((PleConfig(window_seconds, max_references, frequency=frequency),
                           ple.schedule_naive),
                          (PleConfig(window_seconds, max_references, progressive=True,
                                     frequency=frequency),
                           ple.schedule_progressive)):
        for f, refs in schedule(labeled, length, cfg).items():
            assert all(_offset(labeled, g) < _offset(labeled, f) for g in refs), (f, refs)


@settings(max_examples=200, deadline=None)
@given(_schedule_case())
def test_schedules_target_the_same_frames(case):
    labeled, length, window_seconds, max_references, frequency = case
    naive = ple.schedule_naive(
        labeled, length, PleConfig(window_seconds, max_references, frequency=frequency)
    )
    prog = ple.schedule_progressive(
        labeled, length,
        PleConfig(window_seconds, max_references, progressive=True, frequency=frequency),
    )
    # no naive target references another, so the plan runs as one round
    assert not {g for refs in naive.values() for g in refs} & set(naive)
    assert sorted(naive) == sorted(prog)


@settings(max_examples=200, deadline=None)
@given(_schedule_case())
def test_progressive_references_stay_in_root_window_and_precede_round(case):
    labeled, length, window_seconds, max_references, frequency = case
    cfg = PleConfig(window_seconds, max_references, progressive=True, frequency=frequency)
    window = cfg.window_frames
    plan = ple.schedule_progressive(labeled, length, cfg)
    for f, refs in plan.items():
        root = ple.chain_root(labeled, f)
        # frames labeled before f's round: ground truth and smaller offsets
        known = labeled | {g for g in plan if _offset(labeled, g) < abs(f - root)}
        assert 1 <= len(refs) <= max_references
        for g in refs:
            assert g in known
            assert abs(g - root) <= window
            assert 0 < abs(g - f) <= window


@settings(max_examples=200, deadline=None)
@given(_schedule_case())
def test_naive_references_are_ground_truth_in_window(case):
    labeled, length, window_seconds, max_references, frequency = case
    cfg = PleConfig(window_seconds, max_references, frequency=frequency)
    window = cfg.window_frames
    for f, refs in ple.schedule_naive(labeled, length, cfg).items():
        assert f not in labeled
        assert 1 <= len(refs) <= max_references
        for g in refs:
            assert g in labeled
            assert 0 < abs(g - f) <= window


@pytest.fixture(scope="module")
def corridor_short():
    cfg = corridor_config(frames=8, sensor_range=60.0, points_per_surface=1.0)
    return synth.generate(cfg)


class TestRunners:
    def test_naive_covers_window_only(self, corridor_short):
        source = DatasetSource(corridor_short)
        cfg = PleConfig(window_seconds=0.3)
        out = ple.run_naive(source, {"00": (4,)}, cfg)
        assert sorted(f for _, f in out) == [1, 2, 3, 5, 6, 7]

    def test_progressive_same_domain(self, corridor_short):
        source = DatasetSource(corridor_short)
        naive = ple.run_naive(source, {"00": (3,)}, PleConfig(window_seconds=0.4))
        prog = ple.run_progressive(
            source, {"00": (3,)}, PleConfig(window_seconds=0.4, progressive=True)
        )
        assert set(naive) == set(prog)

    def test_offset_one_matches_naive_with_single_root(self, corridor_short):
        source = DatasetSource(corridor_short)
        naive = ple.run_naive(source, {"00": (4,)}, PleConfig())
        prog = ple.run_progressive(source, {"00": (4,)}, PleConfig(progressive=True))
        for f in (3, 5):
            a, b = naive[("00", f)], prog[("00", f)]
            assert np.array_equal(a.semantic, b.semantic)
            assert a.mean_distance == b.mean_distance

    def test_progressive_decodes_each_frame_once(self, corridor_short, tmp_path, monkeypatch):
        export(corridor_short, tmp_path)
        manifest = lidar_io.build_manifest(tmp_path)
        real_read = lidar_io.read_scan
        reads = []

        def counting_read(path, frame_id=0, sequence_id=""):
            reads.append((sequence_id, frame_id))
            return real_read(path, frame_id, sequence_id)

        monkeypatch.setattr(lidar_io, "read_scan", counting_read)
        cfg = PleConfig(progressive=True)
        ple.run_progressive(ple.ManifestSource(manifest), {"00": (0, 4)}, cfg)
        assert Counter(reads) == {("00", f): 1 for f in range(len(corridor_short))}

    def test_naive_reads_labels_of_ground_truth_references_only(
        self, corridor_short, tmp_path, monkeypatch
    ):
        export(corridor_short, tmp_path)
        manifest = lidar_io.build_manifest(tmp_path)
        counted = {"read_scan": Counter(), "read_labels": Counter()}
        for name, reads in counted.items():
            def count(path, *args, _real=getattr(lidar_io, name), _reads=reads, **kwargs):
                _reads[int(Path(path).stem)] += 1
                return _real(path, *args, **kwargs)
            monkeypatch.setattr(lidar_io, name, count)
        # frame 7 is out of every window, so nothing reads it
        split = {"00": (0, 4)}
        out = ple.run_naive(ple.ManifestSource(manifest), split, PleConfig(window_seconds=0.2))
        assert sorted(f for _, f in out) == [1, 2, 3, 5, 6]
        assert counted["read_labels"] == {0: 1, 4: 1}
        assert counted["read_scan"] == {f: 1 for f in range(7)}

    def test_gt_labels_checks_scan_size_without_decoding(self, corridor_short, tmp_path,
                                                         monkeypatch):
        export(corridor_short, tmp_path)
        source = ple.ManifestSource(lidar_io.build_manifest(tmp_path))
        scan = tmp_path / "sequences" / "00" / "velodyne" / "000002.bin"
        expected = len(lidar_io.read_scan(scan))
        monkeypatch.setattr(lidar_io, "read_scan", None)
        assert len(source.gt_labels("00", 2)) == expected
        scan.write_bytes(scan.read_bytes()[:-4])
        with pytest.raises(FormatError, match="not a multiple of 16 bytes"):
            source.gt_labels("00", 2)

    def test_real_dataset_loop_runs_on_export(self, corridor_short, tmp_path):
        # test_acceptance::test_11's code path, on a synthetic export
        export(corridor_short, tmp_path)
        manifest_by_seq = {
            m.sequence_id: m for m in lidar_io.build_manifest(tmp_path) if m.label_paths
        }
        lengths = {seq: len(m.scan_paths) for seq, m in manifest_by_seq.items()}
        labeled = split_mod.sample_labeled(lengths, 0.01)
        assert labeled == {"00": (0,)}
        covered = []
        for seq, manifest in sorted(manifest_by_seq.items()):
            source = ple.ManifestSource(manifest)
            assert source.sequence_ids() == (seq,)
            outputs = ple.run_progressive(
                source, {seq: labeled[seq]}, PleConfig(progressive=True), workers=8
            )
            for (s, frame), pred in sorted(outputs.items()):
                gt = source.gt_labels(s, frame).semantic
                assert len(gt) == len(pred)
                covered.append(frame)
        assert covered == list(range(1, len(corridor_short)))

    def test_runner_mode_guards(self, corridor_short):
        source = DatasetSource(corridor_short)
        with pytest.raises(ConfigError):
            ple.run_naive(source, {"00": (0,)}, PleConfig(progressive=True))
        with pytest.raises(ConfigError):
            ple.run_progressive(source, {"00": (0,)}, PleConfig())

    def test_sequence_without_labeled_frames_skipped(self, corridor_short):
        source = DatasetSource(corridor_short)
        assert ple.run_naive(source, {}, PleConfig()) == {}


def _round_order_run(source, split: dict, cfg: PleConfig, schedule) -> dict:
    """The run in round order: targets by (offset, frame), every estimate kept."""
    results = {}
    for seq in source.sequence_ids():
        labeled = set(split.get(seq, ()))
        if not labeled:
            continue
        plan = schedule(labeled, source.frame_count(seq), cfg)
        for f in sorted(plan, key=lambda f: (_offset(labeled, f), f)):
            target_pose = source.pose(seq, f)
            references = []
            for g in plan[f]:
                labels = results.get((seq, g))
                if labels is None:
                    labels = source.gt_labels(seq, g)
                references.append((source.cloud(seq, g), labels, geometry.relative_transform(
                    source.pose(seq, g), target_pose)))
            results[(seq, f)] = ple.estimate_labels(source.cloud(seq, f), references, cfg)
    return results


def _assert_same_estimates(got: dict, want: dict) -> None:
    assert sorted(got) == sorted(want)
    for key, b in want.items():
        a = got[key]
        for field in ("semantic", "valid", "origin_kind"):
            assert np.array_equal(getattr(a, field), getattr(b, field)), (key, field)
        assert (a.frame_id, a.sequence_id, a.references, a.mean_distance) == (
            b.frame_id, b.sequence_id, b.references, b.mean_distance), key


@pytest.fixture(scope="module")
def moving_40():
    """40 frames with two moving boxes, few points per frame."""
    cfg = corridor_config(
        frames=40, points_per_surface=0.3, sampling="per-frame",
        bodies=corridor_config().bodies + (
            synth.Box(10, (4.0, 3.0, 1.1), (4.0, 2.0, 1.6), (5.0, 0.0, 0.0)),
            synth.Box(30, (12.0, -5.0, 1.0), (0.8, 0.8, 1.8), (0.0, 2.0, 0.0)),
        ),
    )
    return synth.generate(cfg)


def _cross_chain_references(labeled: set, plan: dict) -> int:
    """References from a target to an estimate of another chain."""
    root = {f: ple.chain_root(labeled, f) for f in plan}
    return sum(g in root and root[g] != root[f] for f, refs in plan.items() for g in refs)


def test_every_tenth_frame_labeled_has_cross_chain_references():
    labeled = set(range(0, 40, 10))
    plan = ple.schedule_progressive(labeled, 40, PleConfig(progressive=True))
    assert _cross_chain_references(labeled, plan) == 19


@st.composite
def _stream_case(draw):
    length = draw(st.integers(2, 40))
    labeled = draw(st.sets(st.integers(0, length - 1), min_size=1, max_size=8))
    window_seconds = draw(st.sampled_from([0.1, 0.3, 0.5, 1.0]))
    max_references = draw(st.integers(1, 6))
    max_distance = draw(st.sampled_from([math.inf, 0.4]))
    progressive = draw(st.booleans())
    return length, labeled, PleConfig(window_seconds, max_references, max_distance, progressive)


@settings(max_examples=60, deadline=None)
@given(_stream_case())
@example((40, set(range(0, 40, 10)), PleConfig(progressive=True)))
@example((40, {3, 9, 15, 31}, PleConfig(0.5, 6, progressive=True)))
def test_streamed_run_equals_round_order_run(moving_40, case):
    length, labeled, cfg = case
    data = dataclasses.replace(
        moving_40, clouds=moving_40.clouds[:length], labels=moving_40.labels[:length],
        poses=moving_40.poses[:length], true_poses=moving_40.true_poses[:length])
    source = DatasetSource(data)
    split = {"00": tuple(sorted(labeled))}
    run, schedule = ((ple.run_progressive, ple.schedule_progressive) if cfg.progressive
                     else (ple.run_naive, ple.schedule_naive))
    try:
        want = _round_order_run(source, split, cfg, schedule)
    except EmptyIndexError:
        # a reference set whose every point is out of range; the stream fails too
        with pytest.raises(EmptyIndexError):
            run(source, split, cfg)
        return
    emitted = []
    assert run(source, split, cfg, emit=lambda key, pmap: emitted.append((key, pmap))) == {}
    keys = [key for key, _ in emitted]
    assert len(set(keys)) == len(keys)
    # an estimate is emitted only after every estimate it references
    for i, ((_, f), pmap) in enumerate(emitted):
        assert {("00", g) for g in pmap.references if ("00", g) in want} <= set(keys[:i])
        assert pmap.frame_id == f
    _assert_same_estimates(dict(emitted), want)
    _assert_same_estimates(run(source, split, cfg), want)


@pytest.fixture(scope="module")
def long_sparse(tmp_path_factory):
    """300 exported frames of a few dozen points each."""
    root = tmp_path_factory.mktemp("long")
    export(synth.generate(corridor_config(frames=300, points_per_surface=0.05)), root)
    return lidar_io.build_manifest(root)


@pytest.mark.parametrize("progressive", [False, True], ids=["naive", "progressive"])
@pytest.mark.parametrize("window_seconds, max_references", [(1.0, 4), (0.5, 8)])
@pytest.mark.parametrize("labeled", [
    tuple(range(5, 300, 12)),
    (0, 7, 40, 100, 101, 160, 171, 250, 299),
], ids=["every-12th", "irregular"])
def test_long_sparse_run_holds_a_bounded_live_set(long_sparse, monkeypatch, progressive,
                                                  window_seconds, max_references, labeled):
    alive = {kind: weakref.WeakSet() for kind in ("scan", "labels", "estimate")}
    reads = Counter()
    for name, kind in (("read_scan", "scan"), ("read_labels", "labels")):
        def read(path, *args, _real=getattr(lidar_io, name), _kind=kind, **kwargs):
            reads[_kind, Path(path).stem] += 1
            item = _real(path, *args, **kwargs)
            alive[_kind].add(item)
            return item
        monkeypatch.setattr(lidar_io, name, read)
    peak = Counter()

    def estimate(*args, _real=ple.estimate_labels, **kwargs):
        # the live set is largest here: the references are still held
        pmap = _real(*args, **kwargs)
        alive["estimate"].add(pmap)
        for kind, objects in alive.items():
            peak[kind] = max(peak[kind], len(objects))
        return pmap

    monkeypatch.setattr(ple, "estimate_labels", estimate)
    cfg = PleConfig(window_seconds, max_references, progressive=progressive)
    run = ple.run_progressive if progressive else ple.run_naive
    emitted = Counter()
    run(ple.ManifestSource(long_sparse), {"00": labeled}, cfg,
        emit=lambda key, pmap: emitted.update([key]))
    schedule = ple.schedule_progressive if progressive else ple.schedule_naive
    assert sorted(emitted) == [("00", f) for f in sorted(schedule(set(labeled), 300, cfg))]
    assert set(emitted.values()) == {1}
    assert set(reads.values()) == {1}
    # Stated bound: at most 2 * (window + max_refs) estimates, scans and
    # label maps alive at once, at any sequence length; naive mode keeps no
    # estimate but the one being made. Measured here: at most 9 estimates
    # and 10 scans, where a run that keeps every estimate ends with 66 to
    # 275 of them.
    bound = 2 * (cfg.window_frames + max_references)
    assert peak["estimate"] <= (bound if progressive else 1)
    assert peak["scan"] <= bound
    assert peak["labels"] + peak["estimate"] <= bound


class TestFileFormat:
    def _sample_map(self):
        return PseudoLabelMap(
            semantic=np.array([9, 0, 40], dtype=np.int32),
            valid=np.array([True, False, True]),
            origin_kind=np.array([0, 1, 1], dtype=np.uint8),
            frame_id=7,
            sequence_id="04",
            references=(2, 3),
            mean_distance=0.375,
        )

    def test_round_trip(self, tmp_path):
        pmap = self._sample_map()
        path = tmp_path / "000007.ple"
        ple.write_ple(pmap, path)
        again = ple.read_ple(path)
        assert np.array_equal(again.semantic, pmap.semantic)
        assert np.array_equal(again.valid, pmap.valid)
        assert np.array_equal(again.origin_kind, pmap.origin_kind)
        assert again.frame_id == 7
        assert again.sequence_id == "04"
        assert again.references == (2, 3)
        assert again.mean_distance == 0.375

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.lists(
            st.tuples(st.integers(0, 0xFFFF), st.booleans(), st.integers(0, 1)), max_size=40
        ),
        frame_id=st.integers(0, 999_999),
        sequence_id=st.sampled_from(["00", "04", "21"]),
        references=st.lists(st.integers(0, 999_999), max_size=6),
        mean_distance=st.floats(0.0, 1e6, allow_nan=False),
    )
    def test_read_after_write_equals_input(
        self, tmp_path_factory, data, frame_id, sequence_id, references, mean_distance
    ):
        valid = np.array([v for _, v, _ in data], dtype=bool)
        pmap = PseudoLabelMap(
            semantic=np.array([c if v else 0 for c, v, _ in data], dtype=np.int32),
            valid=valid,
            origin_kind=np.array([o for _, _, o in data], dtype=np.uint8),
            frame_id=frame_id,
            sequence_id=sequence_id,
            references=tuple(references),
            mean_distance=mean_distance,
        )
        path = tmp_path_factory.mktemp("rt") / "x.ple"
        ple.write_ple(pmap, path)
        again = ple.read_ple(path)
        for field in dataclasses.fields(PseudoLabelMap):
            a, b = getattr(again, field.name), getattr(pmap, field.name)
            if isinstance(b, np.ndarray):
                assert a.dtype == b.dtype and np.array_equal(a, b), field.name
            else:
                assert a == b, field.name
        assert again.mean_distance == mean_distance

    def test_word_packing(self, tmp_path):
        pmap = self._sample_map()
        path = tmp_path / "w.ple"
        ple.write_ple(pmap, path)
        words = np.frombuffer(path.read_bytes(), dtype="<u4")
        assert words[0] == 9 | (1 << 17)
        assert words[1] == 0 | (1 << 16)
        assert words[2] == 40 | (1 << 16) | (1 << 17)

    def test_meta_contents(self, tmp_path):
        pmap = self._sample_map()
        path = tmp_path / "m.ple"
        ple.write_ple(pmap, path)
        meta = ple.read_meta(path.with_suffix(".meta"))
        assert meta["sequence"] == "04"
        assert meta["frame"] == 7
        assert meta["references"] == (2, 3)
        assert meta["mean_distance"] == 0.375

    def test_read_needs_its_meta(self, tmp_path):
        path = tmp_path / "s.ple"
        ple.write_ple(self._sample_map(), path)
        path.with_suffix(".meta").unlink()
        with pytest.raises(FormatError, match="No such file or directory: .*s.meta"):
            ple.read_ple(path)

    def test_read_rejects_negative_mean_distance(self, tmp_path):
        path = tmp_path / "n.ple"
        ple.write_ple(self._sample_map(), path)
        meta = path.with_suffix(".meta")
        meta.write_text(meta.read_text().replace("0.375", "-0.375"))
        with pytest.raises(DataError, match="negative"):
            ple.read_ple(path)

    def test_read_rejects_ragged_file(self, tmp_path):
        path = tmp_path / "r.ple"
        path.write_bytes(b"\x00" * 6)
        with pytest.raises(FormatError):
            ple.read_ple(path)

    def test_meta_rejects_bad_line(self, tmp_path):
        path = tmp_path / "b.meta"
        path.write_text("sequence = 00\nframe\n")
        with pytest.raises(FormatError, match=":2"):
            ple.read_meta(path)


@pytest.fixture(scope="module")
def two_sequences(tmp_path_factory, corridor_short):
    """The short corridor exported as sequences 00 and 01, and a tree of
    naive estimates over both written by `write_estimate`."""
    root = tmp_path_factory.mktemp("tree")
    export(corridor_short, root / "data")
    shutil.copytree(root / "data" / "sequences" / "00", root / "data" / "sequences" / "01")
    source = ple.ManifestSource(lidar_io.build_manifest(root / "data"))
    written = {}

    def write(key, pmap):
        ple.write_estimate(root / "est", pmap)
        written[key] = pmap

    ple.run_naive(source, {"00": (4,), "01": (0, 7)}, PleConfig(window_seconds=0.3), emit=write)
    return source, root / "est", written


class TestEstimateDir:
    def test_write_estimate_puts_files_where_lookups_find_them(self, two_sequences):
        source, est, written = two_sequences
        tree = ple.EstimateDir(est, source)
        assert set(tree) == set(written)
        for (seq, frame), pmap in written.items():
            path = est / seq / f"{frame:06d}.ple"
            assert path.is_file() and path.with_suffix(".meta").is_file()
            got, want = tree[seq, frame], ple.read_ple(path)
            for field in dataclasses.fields(PseudoLabelMap):
                a, b = getattr(got, field.name), getattr(want, field.name)
                assert np.array_equal(a, b) if isinstance(b, np.ndarray) else a == b
            assert np.array_equal(got.semantic, pmap.semantic)

    def test_iterates_by_sequence_then_frame(self, two_sequences):
        source, est, written = two_sequences
        keys = list(ple.EstimateDir(est, source))
        assert keys == sorted(written)
        assert keys[0][0] == "00" and keys[-1][0] == "01"

    def test_membership_reads_no_file(self, two_sequences, monkeypatch):
        source, est, _ = two_sequences
        tree = ple.EstimateDir(est, source)
        reads, real_read = [], ple.read_ple

        def counting_read(path):
            reads.append(path)
            return real_read(path)

        monkeypatch.setattr(ple, "read_ple", counting_read)
        assert ("00", 3) in tree and ("01", 3) in tree
        assert ("00", 4) not in tree and ("02", 3) not in tree
        assert reads == []
        tree["00", 3]
        assert reads == [est / "00" / "000003.ple"]

    @pytest.mark.parametrize("layout", [[], ["00"]], ids=["no-entry", "sequence-only"])
    def test_tree_without_estimates_is_an_empty_result(self, two_sequences, tmp_path, layout):
        source = two_sequences[0]
        for seq in layout:
            (tmp_path / seq).mkdir()
        with pytest.raises(EmptyResultError, match=f"^no .ple files under {re.escape(str(tmp_path))}$"):
            ple.EstimateDir(tmp_path, source)
