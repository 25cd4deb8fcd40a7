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


_FMT = "{:.17g}"


def _write_text(path, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def write_report(report: EvalReport, path, format: str = "csv") -> None:
    """One row per class plus a `mean` summary row; columns class,iou,precision,count."""
    if format == "csv":
        lines = ["class,iou,precision,count"]
        for c in report.classes():
            iou = _FMT.format(report.per_class_iou[c]) if c in report.per_class_iou else ""
            prec = (
                _FMT.format(report.per_class_precision[c])
                if c in report.per_class_precision
                else ""
            )
            lines.append(f"{c},{iou},{prec},{report.point_counts.get(c, 0)}")
        total = sum(report.point_counts.values())
        lines.append(
            f"mean,{_FMT.format(report.miou)},{_FMT.format(report.mprecision)},{total}"
        )
        _write_text(path, "\n".join(lines) + "\n")
    elif format == "json":
        lines = []
        for c in report.classes():
            row = {"class": c, "count": report.point_counts.get(c, 0)}
            if c in report.per_class_iou:
                row["iou"] = report.per_class_iou[c]
            if c in report.per_class_precision:
                row["precision"] = report.per_class_precision[c]
            lines.append(json.dumps(row, sort_keys=True))
        summary = {
            "class": "mean",
            "iou": report.miou,
            "precision": report.mprecision,
            "count": sum(report.point_counts.values()),
        }
        lines.append(json.dumps(summary, sort_keys=True))
        _write_text(path, "\n".join(lines) + "\n")
    else:
        raise DataError(f"unknown report format {format!r}")


def _read_rows(path, format: str, what: str, columns: tuple, parse) -> list:
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
    rows = _read_rows(path, format, "report", ("class", "iou", "precision", "count"), _report_row)
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
    if format == "csv":
        lines = ["offset,accuracy"]
        for offset, value in curve:
            lines.append(f"{offset},{_FMT.format(value)}")
        _write_text(path, "\n".join(lines) + "\n")
    elif format == "json":
        lines = [
            json.dumps({"offset": int(o), "accuracy": v}, sort_keys=True)
            for o, v in curve
        ]
        _write_text(path, "\n".join(lines) + "\n" if lines else "")
    else:
        raise DataError(f"unknown curve format {format!r}")


def read_curve(path, format: str = "csv") -> list:
    return _read_rows(path, format, "curve", ("offset", "accuracy"),
                      lambda row: (int(row["offset"]), float(row["accuracy"])))
