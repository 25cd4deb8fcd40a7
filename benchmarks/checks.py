"""Output checks, and the noisy estimate tree the score-train workload scores.

Files are decoded here with plain numpy from the formats the README
documents, so a bug in the package's readers cannot hide a wrong output.
The only package function used is the brute-force oracle
``spatial_index.nearest_brute``.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

REL_TOL = 1e-9  # ROADMAP 2b allows last-bit differences in distances
ABS_TOL = 1e-12  # metres, so that a zero distance still has a tolerance
SAMPLE_FRAMES = 8
SAMPLE_POINTS = 48
_VALID_BIT = 1 << 17
_ORIGIN_BIT = 1 << 16


def _seq_dir(root: Path) -> Path:
    return Path(root) / "sequences" / "00"


def read_points(root: Path, frame: int) -> np.ndarray:
    raw = np.fromfile(_seq_dir(root) / "velodyne" / f"{frame:06d}.bin", dtype="<f4")
    return raw.reshape(-1, 4)[:, :3].astype(np.float64)


def read_semantic(root: Path, frame: int) -> np.ndarray:
    words = np.fromfile(_seq_dir(root) / "labels" / f"{frame:06d}.label", dtype="<u4")
    return (words & 0xFFFF).astype(np.int64)


def read_estimate(path: Path):
    """(semantic, valid) of a written .ple file."""
    words = np.fromfile(path, dtype="<u4")
    return (words & 0xFFFF).astype(np.int64), (words & _VALID_BIT) != 0


def read_references(path: Path) -> tuple:
    for line in path.with_suffix(".meta").read_text().splitlines():
        key, _, value = line.partition("=")
        if key.strip() == "references":
            return tuple(int(r) for r in value.split(",") if r.strip())
    return ()


def read_poses(root: Path) -> list:
    """World-from-sensor 4x4 poses: Tr^-1 . P . Tr, as the README describes."""
    seq = _seq_dir(root)

    def rows(text):
        return [np.vstack([np.array(line.split(), float).reshape(3, 4), [0, 0, 0, 1]])
                for line in text.splitlines() if line.strip()]

    tr = rows((seq / "calib.txt").read_text().split(":", 1)[1])[0]
    tr_inv = np.linalg.inv(tr)
    return [tr_inv @ p @ tr for p in rows((seq / "poses.txt").read_text())]


def read_split(path: Path) -> set:
    return {int(line.split()[1]) for line in Path(path).read_text().splitlines()[1:] if line.strip()}


def estimate_files(est_dir: Path) -> dict:
    return {int(p.stem): p for p in sorted((Path(est_dir) / "00").glob("*.ple"))}


def covered_frames(labeled: set, frames: int, window: int) -> set:
    return {
        f for f in range(frames)
        if f not in labeled and any(abs(f - g) <= window for g in labeled)
    }


class Tally:
    """Operations attempted and failed, with a note per failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list = []

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)


def check_propagation(tally: Tally, root, split_path, est_dir, frames: int, window: int,
                      max_distance, rng) -> None:
    """Coverage of the written estimates, then an oracle re-derivation of
    seeded sample points on seeded sample frames."""
    labeled = read_split(split_path)
    files = estimate_files(est_dir)
    expected = covered_frames(labeled, frames, window)
    tally.record(set(files) == expected,
                 f"estimates for {len(files)} frames, expected {len(expected)}")
    poses = read_poses(root)
    targets = sorted(files)
    picked = rng.choice(len(targets), size=min(SAMPLE_FRAMES, len(targets)), replace=False)
    for target in (targets[i] for i in sorted(picked)):
        ok = _check_frame(root, files, labeled, poses, target, max_distance, rng)
        tally.record(ok, f"frame {target}: estimate disagrees with the brute-force oracle")


def _check_frame(root, files, labeled, poses, target, max_distance, rng) -> bool:
    from plelidar.spatial_index import nearest_brute

    refs = read_references(files[target])
    if not refs:
        return False
    pool_pts, pool_sem = [], []
    to_target = np.linalg.inv(poses[target])
    for ref in refs:
        pts = read_points(root, ref)
        if ref in labeled:
            sem = read_semantic(root, ref)
        elif ref in files:
            sem, valid = read_estimate(files[ref])
            pts, sem = pts[valid], sem[valid]
        else:
            return False
        m = to_target @ poses[ref]
        pool_pts.append(pts @ m[:3, :3].T + m[:3, 3])
        pool_sem.append(sem)
    pool = np.concatenate(pool_pts)
    pool_sem = np.concatenate(pool_sem)
    points = read_points(root, target)
    sem, valid = read_estimate(files[target])
    if len(sem) != len(points):
        return False
    idx = np.sort(rng.choice(len(points), size=min(SAMPLE_POINTS, len(points)), replace=False))
    _, best = nearest_brute(pool, points[idx])
    for i, d_min in zip(idx, best):
        tol = REL_TOL * d_min + ABS_TOL
        if max_distance is not None and abs(d_min - max_distance) > REL_TOL * max_distance:
            if valid[i] != (d_min <= max_distance):
                return False
        if not valid[i]:
            if sem[i] != 0 or max_distance is None:
                return False
            continue
        dist = np.sqrt(np.einsum("ij,ij->i", pool - points[i], pool - points[i]))
        if sem[i] not in set(pool_sem[dist <= d_min + tol].tolist()):
            return False
    return True


def write_noisy_estimates(root, split_path, est_dir, frames: int, window: int, rng):
    """Write a .ple tree from ground truth with seeded label flips and invalid
    points, for every unlabeled frame within `window` of a labeled frame.

    Flips grow with the offset from the labeled frame, as propagated labels
    do. Returns the confusion counts eval should tally, as
    {(gt class, predicted class): count}.
    """
    labeled = sorted(read_split(split_path))
    seq_dir = Path(est_dir) / "00"
    seq_dir.mkdir(parents=True, exist_ok=True)
    targets = sorted(covered_frames(set(labeled), frames, window))
    semantics = {f: read_semantic(root, f) for f in targets}
    classes = np.unique(np.concatenate(list(semantics.values())))
    pairs: dict = {}
    for f in targets:
        gt = semantics[f]
        root_frame = min(labeled, key=lambda g: (abs(g - f), g))
        offset = abs(f - root_frame)
        flip = rng.random(len(gt)) < 0.01 + 0.004 * offset
        pred = gt.copy()
        pred[flip] = rng.choice(classes, size=int(flip.sum()))
        valid = rng.random(len(gt)) >= 0.02
        pred[~valid] = 0
        origin = 0 if offset == 1 else 1
        words = (pred.astype(np.uint32) | (origin * _ORIGIN_BIT)
                 | (valid.astype(np.uint32) * _VALID_BIT)).astype("<u4")
        (seq_dir / f"{f:06d}.ple").write_bytes(words.tobytes())
        (seq_dir / f"{f:06d}.meta").write_text(
            f"sequence = 00\nframe = {f}\nreferences = {root_frame}\nmean_distance = 0\n"
        )
        keep = valid & (gt != 0)
        keys, counts = np.unique((gt[keep] << 16) | pred[keep], return_counts=True)
        for key, n in zip(keys.tolist(), counts.tolist()):
            pair = (key >> 16, key & 0xFFFF)
            pairs[pair] = pairs.get(pair, 0) + n
    return pairs


def expected_scores(pairs: dict) -> tuple:
    """mIoU and mPrecision of a confusion tally, by the README's definitions."""
    classes = sorted({c for pair in pairs for c in pair} - {0})
    index = {c: i for i, c in enumerate(classes)}
    counts = np.zeros((len(classes), len(classes)), dtype=np.int64)
    for (g, p), n in pairs.items():
        counts[index[g], index[p]] += n
    tp = np.diag(counts).astype(float)
    gt_totals, pred_totals = counts.sum(axis=1), counts.sum(axis=0)
    denom = gt_totals + pred_totals - tp
    ious = [tp[i] / denom[i] for i in range(len(classes)) if gt_totals[i] > 0 and denom[i] > 0]
    precs = [tp[i] / pred_totals[i] for i in range(len(classes)) if pred_totals[i] > 0]
    return float(np.mean(ious)), float(np.mean(precs))


def read_report(path) -> tuple:
    """(miou, mprecision) from the mean row of eval's report.csv."""
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            if row["class"] == "mean":
                return float(row["iou"]), float(row["precision"])
    raise ValueError(f"{path}: no mean row")


def check_scores(tally: Tally, report_path, pairs: dict) -> None:
    miou, mprec = read_report(report_path)
    want_miou, want_mprec = expected_scores(pairs)
    ok = abs(miou - want_miou) <= 1e-12 and abs(mprec - want_mprec) <= 1e-12
    tally.record(ok, f"eval reports mIoU {miou} / mPrecision {mprec}, "
                     f"the injected noise gives {want_miou} / {want_mprec}")
