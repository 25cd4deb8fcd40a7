"""Segmentation quality metrics: confusion matrix, IoU, precision, curves.

Conventions: matrix rows are ground truth, columns are predictions. Points
whose ground truth is the ignore class, or whose prediction is flagged
invalid, are never tallied. A valid prediction of the ignore class on a
labelled point is a miss: a false negative of its ground-truth class, as in
the SemanticKITTI devkit. mIoU averages over classes with at least one
ground-truth point; mPrecision averages over classes with at least one
prediction. Fractions throughout; rendering as percent is up to the caller.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DataError, FormatError, IoError

IGNORE_CLASS = 0
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
    p = p[~miss]
    for arr, name in ((g, "ground truth"), (p, "prediction")):
        unknown = set(np.unique(arr).tolist()) - set(cm.class_ids)
        if unknown:
            raise DataError(f"{name} contains classes outside the matrix: {sorted(unknown)}")
    gi = np.searchsorted(cm.class_ids, g)
    np.add.at(cm.missed, gi[miss], 1)
    np.add.at(cm.counts, (gi[~miss], np.searchsorted(cm.class_ids, p)), 1)
    return cm


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


def interval_curve(per_frame_reports) -> list:
    """Mean mIoU per |temporal offset| group, as an ascending (offset, mean) list."""
    groups: dict = {}
    for offset, report in per_frame_reports:
        groups.setdefault(abs(int(offset)), []).append(report.miou)
    return [(k, float(np.mean(groups[k]))) for k in sorted(groups)]


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
    try:
        Path(path).write_text("\n".join(lines) + "\n" if lines else "")
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def write_report(report: EvalReport, path, format: str = "csv") -> None:
    """One row per class plus a `mean` summary row; columns class,iou,precision,count."""
    rows = [(c, report.per_class_iou.get(c), report.per_class_precision.get(c),
             report.point_counts.get(c, 0)) for c in report.classes()]
    rows.append(("mean", report.miou, report.mprecision, sum(report.point_counts.values())))
    write_rows(path, format, "report", REPORT_COLUMNS, rows)


def read_rows(path, format: str, what: str, columns: tuple, parse) -> list:
    """Parse each data row of a csv or json-lines table with parse.

    parse receives the row as a dict: a json object, or the csv cells keyed by
    column with empty cells left out. A row parse rejects raises FormatError
    naming the path and the line.
    """
    lines = Path(path).read_text().splitlines()
    numbered = [(n, ln) for n, ln in enumerate(lines, start=1) if ln.strip()]
    if format == "csv":
        if not numbered or numbered[0][1] != ",".join(columns):
            raise FormatError(f"{path}: missing {what} header")
        numbered = numbered[1:]
    elif format != "json":
        raise DataError(f"unknown {what} format {format!r}")
    rows = []
    for lineno, line in numbered:
        try:
            if format == "json":
                row = json.loads(line)
            else:
                cells = line.split(",")
                if len(cells) != len(columns):
                    raise FormatError(f"{path}:{lineno}: expected {len(columns)} columns")
                row = {k: v for k, v in zip(columns, cells) if v}
            rows.append(parse(row))
        except json.JSONDecodeError as exc:
            raise FormatError(f"{path}:{lineno}: bad JSON ({exc})") from None
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"{path}:{lineno}: malformed {what} row ({exc!r})") from None
    return rows


def _report_row(row: dict) -> tuple:
    c = str(row["class"])
    iou, prec = (None if row.get(k) is None else float(row[k]) for k in ("iou", "precision"))
    return ("mean" if c == "mean" else int(c), iou, prec, int(row["count"]))


def read_report(path, format: str = "csv") -> EvalReport:
    rows = read_rows(path, format, "report", REPORT_COLUMNS, _report_row)
    per_iou, per_prec, per_count = {}, {}, {}
    miou = mprec = 0.0
    for c, iou, prec, count in rows:
        if c == "mean":
            miou = iou if iou is not None else 0.0
            mprec = prec if prec is not None else 0.0
            continue
        per_count[c] = count
        if iou is not None:
            per_iou[c] = iou
        if prec is not None:
            per_prec[c] = prec
    return EvalReport(per_iou, miou, per_prec, mprec, per_count)


def write_curve(curve, path, format: str = "csv") -> None:
    """Persist an interval curve as (offset, accuracy) rows."""
    write_rows(path, format, "curve", CURVE_COLUMNS, [(int(o), v) for o, v in curve])


def read_curve(path, format: str = "csv") -> list:
    return read_rows(path, format, "curve", CURVE_COLUMNS,
                     lambda row: (int(row["offset"]), float(row["accuracy"])))
