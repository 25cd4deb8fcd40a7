"""Confusion tallies, IoU/precision math, curves, and report serialization."""

from __future__ import annotations

import csv
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plelidar import evaluation as ev
from plelidar.errors import DataError, EmptyResultError
from plelidar.lidar_io import LabelMap


class Pred:
    """Minimal prediction wrapper: semantic array plus optional valid mask."""

    def __init__(self, semantic, valid=None):
        self.semantic = np.asarray(semantic, dtype=np.int32)
        if valid is not None:
            self.valid = np.asarray(valid, dtype=bool)


def _gt(sem, frame_id=0):
    sem = np.asarray(sem)
    return LabelMap(sem, np.zeros(len(sem), dtype=int), frame_id=frame_id)


def test_hand_tally():
    cm = ev.ConfusionMatrix([1, 2])
    ev.accumulate(cm, _gt([1, 1, 2, 2, 1]), Pred([1, 2, 2, 1, 1]))
    assert cm.counts.tolist() == [[2, 1], [1, 1]]


def test_ignore_class_rows_dropped():
    cm = ev.ConfusionMatrix([0, 1, 2])
    assert cm.class_ids == (1, 2)
    ev.accumulate(cm, _gt([0, 0, 1]), Pred([1, 2, 1]))
    assert cm.counts.sum() == 1
    assert cm.counts[0, 0] == 1


def test_invalid_predictions_skipped():
    cm = ev.ConfusionMatrix([1, 2])
    ev.accumulate(cm, _gt([1, 1]), Pred([2, 2], valid=[False, True]))
    assert cm.counts.tolist() == [[0, 1], [0, 0]]


def test_length_mismatch_mentions_frame():
    cm = ev.ConfusionMatrix([1])
    with pytest.raises(DataError, match="frame 9"):
        ev.accumulate(cm, _gt([1, 1], frame_id=9), Pred([1]))


def test_unknown_class_rejected():
    cm = ev.ConfusionMatrix([1, 2])
    with pytest.raises(DataError, match="outside"):
        ev.accumulate(cm, _gt([1, 3]), Pred([1, 1]))


def test_unknown_prediction_class_listed_as_plain_ints():
    cm = ev.ConfusionMatrix([1, 2])
    with pytest.raises(DataError, match=r"prediction contains classes outside the matrix: \[3\]$"):
        ev.accumulate(cm, _gt([1, 2]), Pred([3, 2]))


def test_ignore_class_prediction_is_a_miss():
    cm = ev.ConfusionMatrix([0, 1, 2])
    ev.accumulate(
        cm,
        _gt([1, 1, 1, 2, 2, 0, 1]),
        Pred([1, 0, 0, 2, 1, 0, 0], valid=[True, True, True, True, True, True, False]),
    )
    # the ignore-class ground-truth point and the invalid prediction stay out
    assert cm.counts.tolist() == [[1, 0], [1, 1]]
    assert cm.missed.tolist() == [2, 0]
    report = ev.metrics(cm)
    # class 1: TP 1, FP 1, FN 2 misses; class 2: TP 1, FN 1
    assert report.per_class_iou == {1: 1 / 4, 2: 1 / 2}
    assert report.miou == (1 / 4 + 1 / 2) / 2
    assert report.per_class_precision == {1: 1 / 2, 2: 1.0}
    assert report.point_counts == {1: 3, 2: 2}


def test_no_classes_rejected():
    with pytest.raises(DataError):
        ev.ConfusionMatrix([0])


def test_metrics_hand_case():
    # counts [[8, 2], [4, 6]]: IoU_1 = 8/14, IoU_2 = 6/12
    cm = ev.ConfusionMatrix([1, 2])
    cm.counts[:] = [[8, 2], [4, 6]]
    report = ev.metrics(cm)
    assert report.per_class_iou[1] == pytest.approx(8 / 14)
    assert report.per_class_iou[2] == pytest.approx(6 / 12)
    assert report.miou == pytest.approx(0.5357142857142857)
    assert report.per_class_precision[1] == pytest.approx(8 / 12)
    assert report.per_class_precision[2] == pytest.approx(6 / 8)
    assert report.point_counts == {1: 10, 2: 10}


def test_miou_averages_only_seen_classes():
    cm = ev.ConfusionMatrix([1, 2, 3])
    ev.accumulate(cm, _gt([1, 1]), Pred([1, 2]))
    report = ev.metrics(cm)
    # class 3 appears nowhere: no IoU entry, not averaged
    assert 3 not in report.per_class_iou
    # class 2 has an IoU entry (it was predicted) but no ground-truth
    # points, so only class 1 reaches the mean
    assert report.per_class_iou[2] == 0.0
    assert report.miou == pytest.approx(0.5)
    # class 2 was predicted but never true: precision 0 counts toward the mean
    assert report.per_class_precision == {1: 1.0, 2: 0.0}
    assert report.mprecision == pytest.approx(0.5)


def test_predicted_never_true_has_zero_iou_entry():
    cm = ev.ConfusionMatrix([1, 2])
    ev.accumulate(cm, _gt([1]), Pred([2]))
    report = ev.metrics(cm)
    assert report.per_class_iou[2] == 0.0
    # but class 2 has no ground-truth points, so it stays out of mIoU
    assert report.miou == 0.0


def test_empty_matrix_metrics():
    cm = ev.ConfusionMatrix([1, 2])
    report = ev.metrics(cm)
    assert report.miou == 0.0
    assert report.mprecision == 0.0
    assert report.per_class_iou == {}


def test_perfect_prediction():
    cm = ev.ConfusionMatrix([1, 9, 30])
    sem = np.array([1, 9, 30, 1, 9])
    ev.accumulate(cm, _gt(sem), Pred(sem))
    report = ev.metrics(cm)
    assert report.miou == 1.0
    assert report.mprecision == 1.0


def test_merge_and_order_invariance():
    rng = np.random.default_rng(3)
    frames = [
        (_gt(rng.integers(0, 3, 50)), Pred(rng.integers(1, 3, 50)))
        for _ in range(4)
    ]
    whole = ev.ConfusionMatrix([1, 2])
    for gt, pred in frames:
        ev.accumulate(whole, gt, pred)
    shuffled = ev.ConfusionMatrix([1, 2])
    for i in (3, 1, 0, 2):
        ev.accumulate(shuffled, *frames[i])
    assert np.array_equal(shuffled.counts, whole.counts)


def test_merged_holds_both_tallies_over_the_union():
    a = ev.accumulate(ev.ConfusionMatrix([1, 2]), _gt([1, 2, 2]), Pred([1, 1, 0]))
    b = ev.accumulate(ev.ConfusionMatrix([2, 5]), _gt([5, 2]), Pred([2, 5]))
    both = ev.merged(a, b)
    assert both.class_ids == (1, 2, 5)
    assert both.counts.tolist() == [[1, 0, 0], [1, 0, 1], [0, 1, 0]]
    assert both.missed.tolist() == [0, 1, 0]
    # the inputs are left as they were
    assert a.counts.tolist() == [[1, 0], [1, 0]] and b.class_ids == (2, 5)


def _add_at_accumulate(cm, gt, pred):
    """Reference accumulate: unknown classes found by np.unique, tallies by
    np.add.at."""
    mask = gt.semantic != cm.ignore_class
    valid = getattr(pred, "valid", None)
    if valid is not None:
        mask &= valid
    g = gt.semantic[mask]
    p = pred.semantic[mask]
    miss = p == cm.ignore_class
    p = p[~miss]
    for arr, name in ((g, "ground truth"), (p, "prediction")):
        unknown = set(np.unique(arr).tolist()) - set(cm.class_ids)
        if unknown:
            raise DataError(f"{name} contains classes outside the matrix: {sorted(unknown)}")
    gi = np.searchsorted(cm.class_ids, g)
    np.add.at(cm.missed, gi[miss], 1)
    np.add.at(cm.counts, (gi[~miss], np.searchsorted(cm.class_ids, p)), 1)
    return cm


def _unique_score(frames, ignore_class):
    """Reference score: each frame's class set by np.unique."""
    cm, groups = None, {}
    for gt, pred, offset in frames:
        classes = set(np.unique(gt.semantic).tolist())
        classes.update(np.unique(pred.semantic[pred.valid]).tolist())
        classes.discard(ignore_class)
        if classes:
            frame_cm = _add_at_accumulate(ev.ConfusionMatrix(classes, ignore_class), gt, pred)
            cm = frame_cm if cm is None else ev.merged(cm, frame_cm)
        if offset:
            groups.setdefault(abs(int(offset)), []).append(
                ev.metrics(frame_cm).miou if classes else 0.0)
    return cm, [(k, float(np.mean(groups[k]))) for k in sorted(groups)]


def _random_frames(rng, ignore):
    """Frames over a few of a palette that holds the ignore class and ids up
    to 0xFFFF, with invalid and ignore-class predictions."""
    frames = []
    for _ in range(8):
        n = int(rng.integers(0, 300))
        palette = rng.choice([0, 1, 2, 9, 40, 0xFFFE, 0xFFFF, ignore], int(rng.integers(1, 6)))
        pred = rng.choice(np.append(palette, [ignore, 7]), n)
        frames.append((_gt(rng.choice(palette, n)), Pred(pred, valid=rng.random(n) < 0.85),
                       int(rng.integers(-3, 4))))
    return frames


@pytest.mark.parametrize("ignore", [0, 9])
@pytest.mark.parametrize("seed", range(5))
def test_bincount_tallies_equal_the_add_at_reference(seed, ignore):
    frames = _random_frames(np.random.default_rng(seed), ignore)
    want_cm, want_curve = _unique_score(frames, ignore)
    got_cm, got_curve = ev.score(frames, ignore)
    assert got_cm.class_ids == want_cm.class_ids
    assert got_cm.counts.tobytes() == want_cm.counts.tobytes()
    assert got_cm.missed.tobytes() == want_cm.missed.tobytes()
    assert got_curve == want_curve
    # one matrix over every class, and two that lack some: the same tally or
    # the same refusal
    for classes in (want_cm.class_ids, want_cm.class_ids[::2], want_cm.class_ids[:1]):
        results = []
        for tally in (ev.accumulate, _add_at_accumulate):
            cm = ev.ConfusionMatrix(classes, ignore)
            try:
                for gt, pred, _ in frames:
                    tally(cm, gt, pred)
            except DataError as exc:
                results.append(str(exc))
            else:
                results.append((cm.counts.tobytes(), cm.missed.tobytes()))
        assert results[0] == results[1]


_frame = st.integers(1, 12).flatmap(lambda n: st.tuples(
    st.lists(st.integers(0, 5), min_size=n, max_size=n),
    st.lists(st.integers(0, 5), min_size=n, max_size=n),
    st.lists(st.booleans(), min_size=n, max_size=n),
))


@settings(max_examples=60, deadline=None)
@given(frames=st.lists(_frame, min_size=1, max_size=6), ignore=st.sampled_from([0, 3]))
def test_per_frame_matrices_fold_to_the_union_matrix(frames, ignore):
    frames = [(_gt(g), Pred(p, valid=v)) for g, p, v in frames]
    # one offset per frame, so the curve holds every frame's own mIoU
    run = [(gt, pred, i + 1) for i, (gt, pred) in enumerate(frames)]
    union = {c for gt, pred in frames for c in gt.semantic.tolist()
             + pred.semantic[pred.valid].tolist()} - {ignore}
    if not union:
        with pytest.raises(EmptyResultError, match="nothing to evaluate outside the ignore class"):
            ev.score(run, ignore)
        return
    folded, curve = ev.score(run, ignore)
    whole = ev.ConfusionMatrix(union, ignore)
    for gt, pred in frames:
        ev.accumulate(whole, gt, pred)
    assert folded.class_ids == whole.class_ids
    assert np.array_equal(folded.counts, whole.counts)
    assert np.array_equal(folded.missed, whole.missed)
    over_union = [ev.metrics(ev.accumulate(ev.ConfusionMatrix(union, ignore), gt, pred))
                  for gt, pred in frames]
    assert curve == [(i + 1, report.miou) for i, report in enumerate(over_union)]
    for (gt, pred), report in zip(frames, over_union):
        # a run of one frame is scored over that frame's own classes
        try:
            own = ev.metrics(ev.score([(gt, pred, 0)], ignore)[0])
        except EmptyResultError:
            assert report.miou == 0.0
            continue
        assert own.miou == report.miou
        assert own.per_class_iou == report.per_class_iou
        assert own.mprecision == report.mprecision


def _transposed(cm):
    out = ev.ConfusionMatrix(cm.class_ids, cm.ignore_class)
    out.counts[:] = cm.counts.T
    return out


def test_transpose_swaps_precision_and_recall():
    cm = ev.ConfusionMatrix([1, 2])
    cm.counts[:] = [[8, 2], [4, 6]]
    flipped = ev.metrics(_transposed(cm))
    # recall of class 1 in the original = 8/10
    assert flipped.per_class_precision[1] == pytest.approx(8 / 10)
    assert flipped.per_class_precision[2] == pytest.approx(6 / 10)
    # IoU is symmetric under transposition
    assert flipped.miou == pytest.approx(ev.metrics(cm).miou)


def _scored(k, n=10):
    """A frame of n points of class 1, k of them predicted right and the rest
    missed: mIoU k / n."""
    return _gt([1] * n), Pred([1] * k + [0] * (n - k), valid=[True] * n)


def test_interval_curve_groups_and_sorts():
    classless = _gt([0, 0]), Pred([0, 0], valid=[True, True])
    # no ground truth outside the ignore class: class 2 is predicted but has no mIoU
    unlabelled = _gt([0, 0]), Pred([2, 2], valid=[True, True])
    frames = [(*_scored(4), 2), (*_scored(9), -1), (*classless, -3), (*_scored(1), 0),
              (*_scored(7), 1), (*_scored(6), 2), (*_scored(6), 3), (*unlabelled, 4)]
    cm, curve = ev.score(frames)
    assert curve == [(1, pytest.approx(0.8)), (2, pytest.approx(0.5)), (3, pytest.approx(0.3)),
                     (4, 0.0)]
    # the frame at offset 0 is tallied, though it stays out of the curve
    assert cm.class_ids == (1, 2)
    assert cm.counts.tolist() == [[33, 0], [0, 0]]
    assert cm.missed.tolist() == [27, 0]


def test_score_of_nothing_outside_the_ignore_class_is_empty():
    classless = _gt([0, 0]), Pred([0, 3], valid=[True, False])
    for frames in ([], [(*classless, 0), (*classless, 2)]):
        with pytest.raises(EmptyResultError, match="^nothing to evaluate outside the ignore class$"):
            ev.score(frames)
    # another ignore class makes class 0 a class to score
    cm, curve = ev.score([(*classless, 1)], ignore_class=3)
    assert cm.class_ids == (0,) and cm.counts.tolist() == [[1]] and curve == [(1, 1.0)]


def _sample_report():
    rng = np.random.default_rng(5)
    cm = ev.ConfusionMatrix([1, 9, 30])
    gt = rng.choice([0, 1, 9, 30], 300)
    pred = rng.choice([1, 9, 30], 300)
    ev.accumulate(cm, _gt(gt), Pred(pred))
    return ev.metrics(cm)


_CELL_TYPES = {"class": int, "count": int, "offset": int,
               "iou": float, "precision": float, "accuracy": float}


def _table_rows(path, fmt) -> list:
    """The written rows as dicts, parsed with the standard library alone;
    an empty csv cell is left out, as json leaves out a None."""
    if fmt == "json":
        return [json.loads(line) for line in path.read_text().splitlines()]
    with open(path, newline="") as f:
        return [{k: v if v == "mean" else _CELL_TYPES[k](v) for k, v in row.items() if v}
                for row in csv.DictReader(f)]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_report_round_trip(tmp_path, fmt):
    report = _sample_report()
    path = tmp_path / f"report.{fmt}"
    ev.write_report(report, path, format=fmt)
    rows = _table_rows(path, fmt)
    assert [row["class"] for row in rows] == [*report.classes(), "mean"]
    *per_class, mean = rows
    for row in per_class:
        c = row["class"]
        assert row.get("iou") == report.per_class_iou.get(c)
        assert row.get("precision") == report.per_class_precision.get(c)
        assert row["count"] == report.point_counts[c]
    assert (mean["iou"], mean["precision"]) == (report.miou, report.mprecision)
    assert mean["count"] == sum(report.point_counts.values())


def test_report_csv_shape(tmp_path):
    report = _sample_report()
    path = tmp_path / "report.csv"
    ev.write_report(report, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "class,iou,precision,count"
    assert lines[-1].startswith("mean,")


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_curve_round_trip(tmp_path, fmt):
    curve = [(1, 0.875), (2, 0.625), (3, 1.0 / 3.0)]
    path = tmp_path / f"curve.{fmt}"
    ev.write_curve(curve, path, format=fmt)
    rows = _table_rows(path, fmt)
    assert [(row["offset"], row["accuracy"]) for row in rows] == curve


def test_report_and_curve_bytes(tmp_path):
    report = ev.EvalReport({1: 0.5, 9: 1 / 3}, (0.5 + 1 / 3) / 2, {1: 0.25}, 0.25,
                           {1: 4, 9: 2, 30: 0})
    path = tmp_path / "out"
    ev.write_report(report, path, format="csv")
    assert path.read_text() == ("class,iou,precision,count\n1,0.5,0.25,4\n"
                                "9,0.33333333333333331,,2\n30,,,0\n"
                                "mean,0.41666666666666663,0.25,6\n")
    ev.write_report(report, path, format="json")
    assert path.read_text() == (
        '{"class": 1, "count": 4, "iou": 0.5, "precision": 0.25}\n'
        '{"class": 9, "count": 2, "iou": 0.3333333333333333}\n'
        '{"class": 30, "count": 0}\n'
        '{"class": "mean", "count": 6, "iou": 0.41666666666666663, "precision": 0.25}\n')
    ev.write_curve([(1, 0.875), (3, 1 / 3)], path, format="csv")
    assert path.read_text() == "offset,accuracy\n1,0.875\n3,0.33333333333333331\n"
    ev.write_curve([(1, 0.875), (3, 1 / 3)], path, format="json")
    assert path.read_text() == ('{"accuracy": 0.875, "offset": 1}\n'
                                '{"accuracy": 0.3333333333333333, "offset": 3}\n')
    ev.write_curve([], path, format="csv")
    assert path.read_text() == "offset,accuracy\n"
    ev.write_curve([], path, format="json")
    assert path.read_text() == ""


@pytest.mark.parametrize(
    "write, table", [(ev.write_report, ev.EvalReport({}, 0.0, {}, 0.0)), (ev.write_curve, [])],
    ids=["report", "curve"],
)
def test_unknown_write_format_rejected(tmp_path, write, table):
    with pytest.raises(DataError, match="unknown (report|curve) format 'xml'"):
        write(table, tmp_path / "x", format="xml")
    assert not (tmp_path / "x").exists()


@settings(max_examples=40, deadline=None)
@given(
    counts=st.lists(
        st.lists(st.integers(0, 50), min_size=3, max_size=3),
        min_size=3,
        max_size=3,
    )
)
def test_iou_never_exceeds_precision_or_recall(counts):
    cm = ev.ConfusionMatrix([1, 2, 3])
    cm.counts[:] = counts
    report = ev.metrics(cm)
    recall_view = ev.metrics(_transposed(cm)).per_class_precision
    for c, iou in report.per_class_iou.items():
        assert 0.0 <= iou <= 1.0
        if c in report.per_class_precision:
            assert iou <= report.per_class_precision[c] + 1e-12
        if c in recall_view:
            assert iou <= recall_view[c] + 1e-12


@settings(max_examples=30, deadline=None)
@given(
    gt=st.lists(st.sampled_from([0, 1, 2]), min_size=1, max_size=60),
)
def test_self_agreement_is_perfect(gt):
    if all(g == 0 for g in gt):
        cm = ev.ConfusionMatrix([1, 2])
        ev.accumulate(cm, _gt(gt), Pred(gt))
        assert ev.metrics(cm).miou == 0.0
        return
    cm = ev.ConfusionMatrix([1, 2])
    ev.accumulate(cm, _gt(gt), Pred(gt))
    assert ev.metrics(cm).miou == 1.0
