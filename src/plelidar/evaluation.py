"""Segmentation quality: confusion matrices, IoU, precision, and a run's `score`.

Conventions: matrix rows are ground truth, columns are predictions. Points
whose ground truth is the ignore class, or whose prediction is flagged
invalid, are never tallied. A valid prediction of the ignore class on a
labelled point is a miss: a false negative of its ground-truth class, as in
the SemanticKITTI devkit. mIoU averages over classes with at least one
ground-truth point; mPrecision averages over classes with at least one
prediction. Fractions throughout; rendering as percent is up to the caller.

Every tally is one linear pass with np.bincount, never a sort: a frame's
class set is the nonzero bins of its ids (0..0xFFFF, as LabelMap and
PseudoLabelMap enforce), and `accumulate` bins each (ground truth,
prediction) pair as gt * k + pred over the matrix's k classes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import lidar_io
from .errors import DataError, EmptyResultError
from .lidar_io import IGNORE_CLASS

REPORT_COLUMNS = ("class", "iou", "precision", "count")
CURVE_COLUMNS = ("offset", "accuracy")


class ConfusionMatrix:
    """Integer tally of (ground truth, prediction) pairs over a fixed class set,
    plus ``missed``: per ground-truth class, the points predicted as the
    ignore class."""

    def __init__(self, class_ids, ignore_class: int = IGNORE_CLASS):
        ids = sorted(set(int(c) for c in class_ids))
        if ignore_class in ids:
            ids.remove(ignore_class)
        if not ids:
            raise DataError("no classes to evaluate")
        self.class_ids = tuple(ids)
        self.ignore_class = ignore_class
        self.counts = np.zeros((len(ids), len(ids)), dtype=np.int64)
        self.missed = np.zeros(len(ids), dtype=np.int64)


def accumulate(cm: ConfusionMatrix, gt, pred) -> ConfusionMatrix:
    """Add one frame's tallies. gt is a LabelMap; pred is any object with a
    `semantic` array and optionally a `valid` mask."""
    gt_sem = gt.semantic
    pred_sem = pred.semantic
    if len(gt_sem) != len(pred_sem):
        raise DataError(
            f"frame {getattr(gt, 'frame_id', '?')}: {len(gt_sem)} ground-truth "
            f"points vs {len(pred_sem)} predictions"
        )
    mask = gt_sem != cm.ignore_class
    valid = getattr(pred, "valid", None)
    if valid is not None:
        mask &= valid
    g = gt_sem[mask]
    p = pred_sem[mask]
    miss = p == cm.ignore_class
    ids = np.array(cm.class_ids)
    gi = _class_index(ids, g, "ground truth")
    pi = _class_index(ids, p[~miss], "prediction")
    k = len(ids)
    cm.missed += np.bincount(gi[miss], minlength=k)
    cm.counts += np.bincount(gi[~miss] * k + pi, minlength=k * k).reshape(k, k)
    return cm


def _class_index(ids: np.ndarray, arr: np.ndarray, name: str) -> np.ndarray:
    """Each entry's index in the sorted `ids`; an entry not in `ids` is a
    DataError naming every such class, sorted."""
    idx = np.searchsorted(ids, arr)
    unknown = ids[np.minimum(idx, len(ids) - 1)] != arr
    if unknown.any():
        raise DataError(f"{name} contains classes outside the matrix: "
                        f"{sorted(set(arr[unknown].tolist()))}")
    return idx


def merged(a: ConfusionMatrix, b: ConfusionMatrix) -> ConfusionMatrix:
    """A matrix over the union of both class sets holding both tallies; both
    inputs share one ignore class."""
    out = ConfusionMatrix(a.class_ids + b.class_ids, a.ignore_class)
    for cm in (a, b):
        idx = np.searchsorted(out.class_ids, cm.class_ids)
        out.counts[np.ix_(idx, idx)] += cm.counts
        out.missed[idx] += cm.missed
    return out


@dataclass(frozen=True)
class EvalReport:
    per_class_iou: dict
    miou: float
    per_class_precision: dict
    mprecision: float
    point_counts: dict = field(default_factory=dict)

    def classes(self) -> tuple:
        keys = set(self.per_class_iou) | set(self.per_class_precision) | set(self.point_counts)
        return tuple(sorted(keys))


def metrics(cm: ConfusionMatrix) -> EvalReport:
    """Per-class IoU and precision plus their unweighted means.

    IoU_c = TP/(TP+FP+FN), reported when the denominator is nonzero; FN and
    the class's point count include its misses. mIoU averages classes with
    >= 1 ground-truth point. Precision_c = TP/(TP+FP),
    reported when anything was predicted as c; mPrecision averages those.
    """
    counts = cm.counts
    tp = np.diag(counts).astype(np.float64)
    gt_totals = (counts.sum(axis=1) + cm.missed).astype(np.float64)
    pred_totals = counts.sum(axis=0).astype(np.float64)
    iou_denom = gt_totals + pred_totals - tp
    per_iou, per_prec, per_count = {}, {}, {}
    miou_values, mprec_values = [], []
    for i, c in enumerate(cm.class_ids):
        per_count[c] = int(gt_totals[i])
        if iou_denom[i] > 0:
            per_iou[c] = float(tp[i] / iou_denom[i])
            if gt_totals[i] > 0:
                miou_values.append(per_iou[c])
        if pred_totals[i] > 0:
            per_prec[c] = float(tp[i] / pred_totals[i])
            mprec_values.append(per_prec[c])
    miou = float(np.mean(miou_values)) if miou_values else 0.0
    mprec = float(np.mean(mprec_values)) if mprec_values else 0.0
    return EvalReport(per_iou, miou, per_prec, mprec, per_count)


def score(frames, ignore_class: int = IGNORE_CLASS) -> tuple:
    """The run's matrix and curve from (ground truth, estimate, offset) frames.

    A frame is tallied over its own classes (its ground-truth classes and
    valid predictions, less the ignore class) and folded in with `merged`.
    The curve is the mean mIoU per nonzero |offset|, ascending, in frame
    order; a frame with no class scores 0. No class anywhere is an empty result.
    """
    cm, groups = None, {}
    for gt, pred, offset in frames:
        classes = set(np.flatnonzero(np.bincount(gt.semantic)).tolist())
        classes.update(np.flatnonzero(np.bincount(pred.semantic[pred.valid])).tolist())
        classes.discard(ignore_class)
        if classes:
            frame_cm = accumulate(ConfusionMatrix(classes, ignore_class), gt, pred)
            cm = frame_cm if cm is None else merged(cm, frame_cm)
        if offset:
            groups.setdefault(abs(int(offset)), []).append(
                metrics(frame_cm).miou if classes else 0.0)
    if cm is None:
        raise EmptyResultError("nothing to evaluate outside the ignore class")
    return cm, [(k, float(np.mean(groups[k]))) for k in sorted(groups)]


def write_rows(path, format: str, what: str, columns: tuple, rows) -> None:
    """Write rows, tuples in column order, as a csv or json-lines table.

    csv: a header line, None as an empty cell, floats as ``.17g``. json: one
    object per row with sorted keys, None-valued keys left out; no rows write
    an empty file.
    """
    if format == "csv":
        lines = [",".join(columns)]
        lines += [",".join("" if v is None else f"{v:.17g}" if isinstance(v, float) else str(v)
                           for v in row) for row in rows]
    elif format == "json":
        lines = [json.dumps({k: v for k, v in zip(columns, row) if v is not None}, sort_keys=True)
                 for row in rows]
    else:
        raise DataError(f"unknown {what} format {format!r}")
    lidar_io.write_lines(path, lines)


def write_report(report: EvalReport, path, format: str = "csv") -> None:
    """One row per class plus a `mean` summary row; columns class,iou,precision,count."""
    rows = [(c, report.per_class_iou.get(c), report.per_class_precision.get(c),
             report.point_counts.get(c, 0)) for c in report.classes()]
    rows.append(("mean", report.miou, report.mprecision, sum(report.point_counts.values())))
    write_rows(path, format, "report", REPORT_COLUMNS, rows)


def write_curve(curve, path, format: str = "csv") -> None:
    """Persist an interval curve as (offset, accuracy) rows."""
    write_rows(path, format, "curve", CURVE_COLUMNS, [(int(o), v) for o, v in curve])

