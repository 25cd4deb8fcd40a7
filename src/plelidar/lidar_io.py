"""Readers and writers for sequence datasets in the SemanticKITTI on-disk layout.

A dataset root holds one directory per sequence (optionally under a
``sequences/`` directory):

    <root>/sequences/<seq>/velodyne/<frame:06>.bin   float32 x,y,z,intensity quads
    <root>/sequences/<seq>/labels/<frame:06>.label   uint32: semantic | instance << 16
    <root>/sequences/<seq>/poses.txt                 one 3x4 row-major pose per line
    <root>/sequences/<seq>/calib.txt                 line "Tr: <12 decimals>"

Every sequence needs both ``poses.txt`` and ``calib.txt``. All binary values
are little-endian, and all text is UTF-8 whatever the locale. Poses on disk
are expressed in the calibration reference frame; readers fold the ``Tr``
extrinsic in so that every pose handed out is world-from-LiDAR. A scan's
fourth float32, the intensity, is never read, and is written as 0.
"""

from __future__ import annotations

import math
from dataclasses import KW_ONLY, dataclass
from pathlib import Path

import numpy as np

from . import geometry
from .errors import DataError, FormatError, MissingDataError
from .geometry import RigidTransform

SCAN_SUFFIX = ".bin"
LABEL_SUFFIX = ".label"
IGNORE_CLASS = 0  # the semantic id of an unlabelled point
_POSE_ORTHO_TOL = 1e-4


@dataclass(frozen=True, eq=False)
class PointCloud:
    """One LiDAR scan: (N, 3) float64 coordinates in meters."""

    points: np.ndarray
    _: KW_ONLY
    frame_id: int = 0
    sequence_id: str = ""

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64).reshape(-1, 3)
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return len(self.points)


@dataclass(frozen=True, eq=False)
class LabelMap:
    """Per-point semantic and instance ids, aligned index-for-index with a scan."""

    semantic: np.ndarray
    instance: np.ndarray
    frame_id: int = 0
    sequence_id: str = ""

    def __post_init__(self):
        sem = np.asarray(self.semantic, dtype=np.int32).reshape(-1)
        inst = np.asarray(self.instance, dtype=np.int32).reshape(-1)
        if len(sem) != len(inst):
            raise DataError(f"semantic/instance count mismatch: {len(sem)} vs {len(inst)}")
        for name, arr in (("semantic", sem), ("instance", inst)):
            if len(arr) and (arr.min() < 0 or arr.max() > 0xFFFF):
                raise DataError(f"{name} ids must fit in 16 bits")
        sem.setflags(write=False)
        inst.setflags(write=False)
        object.__setattr__(self, "semantic", sem)
        object.__setattr__(self, "instance", inst)

    def __len__(self) -> int:
        return len(self.semantic)


@dataclass(frozen=True, eq=False)
class SequenceInfo:
    sequence_id: str
    frame_count: int
    scan_paths: tuple
    label_paths: tuple | None
    poses: tuple


def read_lines(path, error) -> list:
    """The lines of a UTF-8 text file; one that cannot be read or decoded
    raises `error`, the caller's error class, naming the file."""
    try:
        return Path(path).read_bytes().decode("utf-8").splitlines()
    except OSError as exc:
        raise error(exc) from None
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text at byte {exc.start}") from None


def write_lines(path, lines) -> None:
    """Write `lines` as UTF-8 text, each ended by a newline."""
    Path(path).write_bytes("".join(f"{line}\n" for line in lines).encode("utf-8"))


def key_values(lines, source, error):
    """Yield (place, key, value) of each `key = value` line, place being
    `source:line` (`line N` without a source). A line that is blank or whose
    first non-blank character is `#` is skipped; a value keeps any `#`."""
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        at = f"{source}:{lineno}" if source is not None else f"line {lineno}"
        if "=" not in stripped:
            raise error(f"{at}: expected 'key = value', got {line!r}")
        key, _, value = stripped.partition("=")
        yield at, key.strip(), value.strip()


def _check_scan_size(path, size: int) -> None:
    if size % 16 != 0:
        raise FormatError(f"{path}: length {size} is not a multiple of 16 bytes")


def scan_point_count(path) -> int:
    """Points in a .bin scan file, from its size alone; the file is not read."""
    size = Path(path).stat().st_size
    _check_scan_size(path, size)
    return size // 16


def read_scan(path, frame_id: int = 0, sequence_id: str = "") -> PointCloud:
    """Decode a .bin scan file: consecutive little-endian float32 (x, y, z, i),
    of which x, y and z are kept."""
    raw = Path(path).read_bytes()
    _check_scan_size(path, len(raw))
    # a signalling NaN warns when cast; the check below reports it
    with np.errstate(invalid="ignore"):
        points = np.frombuffer(raw, dtype="<f4").reshape(-1, 4)[:, :3].astype(np.float64)
    bad = ~np.isfinite(points).all(axis=1)
    if bad.any():
        raise DataError(f"{path}: non-finite coordinate at point {int(np.argmax(bad))}")
    return PointCloud(points, frame_id=frame_id, sequence_id=sequence_id)


def write_scan(cloud: PointCloud, path) -> None:
    """Encode a scan as a .bin file, writing 0 as each point's intensity."""
    data = np.zeros((len(cloud), 4), dtype="<f4")
    data[:, :3] = cloud.points
    Path(path).write_bytes(data.tobytes())


def read_labels(path, expected_count: int, frame_id: int = 0, sequence_id: str = "") -> LabelMap:
    """Decode a .label file: one uint32 per point, semantic in the low 16 bits."""
    raw = Path(path).read_bytes()
    if len(raw) != 4 * expected_count:
        raise FormatError(
            f"{path}: expected {expected_count} labels, file holds {len(raw) // 4}"
        )
    words = np.frombuffer(raw, dtype="<u4")
    return LabelMap(
        (words & 0xFFFF).astype(np.int32),
        (words >> 16).astype(np.int32),
        frame_id,
        sequence_id,
    )


def write_labels(labels: LabelMap, path) -> None:
    words = (
        labels.semantic.astype(np.uint32) | (labels.instance.astype(np.uint32) << 16)
    ).astype("<u4")
    Path(path).write_bytes(words.tobytes())


def _parse_matrix_line(line: str, lineno: int, path) -> np.ndarray:
    parts = line.split()
    if len(parts) != 12:
        raise FormatError(f"{path}:{lineno}: expected 12 values, got {len(parts)}")
    try:
        values = [float(p) for p in parts]
    except ValueError:
        raise FormatError(f"{path}:{lineno}: non-numeric pose entry") from None
    if not all(map(math.isfinite, values)):
        raise FormatError(f"{path}:{lineno}: non-finite pose entry")
    return np.array(values, dtype=np.float64).reshape(3, 4)


def _checked_transform(mat34: np.ndarray, context: str) -> RigidTransform:
    defect = geometry.rotation_defect(mat34[:, :3])
    if not defect <= _POSE_ORTHO_TOL:  # written so that NaN fails
        raise DataError(f"{context}: rotation defect {defect:.3e} exceeds {_POSE_ORTHO_TOL}")
    if np.linalg.det(mat34[:, :3]) < 0:
        raise DataError(f"{context}: rotation has determinant -1, a reflection")
    return RigidTransform(geometry.orthonormalize(mat34[:, :3]), mat34[:, 3])


def read_calibration(path) -> RigidTransform:
    """Extract the Tr extrinsic (sensor-to-reference) from a calib.txt file."""
    for lineno, line in enumerate(read_lines(path, FormatError), start=1):
        if line.startswith("Tr:"):
            return _checked_transform(
                _parse_matrix_line(line[3:], lineno, path), f"{path}:{lineno}"
            )
    raise FormatError(f"{path}: no line starting with 'Tr:'")


def read_poses(pose_path, calib_path) -> list:
    """Read per-frame poses, normalized to world-from-LiDAR.

    File poses are expressed in the calibration reference frame; each is
    conjugated with the ``Tr`` of the required calibration file
    (``Tr^-1 . P . Tr``). Rotations are re-orthonormalized to absorb the
    file's limited precision; a defect beyond 1e-4 is rejected.
    """
    tr = read_calibration(calib_path)
    tr_inv = geometry.invert(tr)
    poses = []
    for lineno, line in enumerate(read_lines(pose_path, FormatError), start=1):
        if not line.strip():
            continue
        pose = _checked_transform(
            _parse_matrix_line(line, lineno, pose_path), f"{pose_path}:{lineno}"
        )
        poses.append(geometry.compose(tr_inv, geometry.compose(pose, tr)))
    return poses


def write_poses(poses, pose_path, calibration: RigidTransform | None = None) -> None:
    """Write world-from-LiDAR poses, re-expressed in the calibration frame."""
    lines = []
    for pose in poses:
        if calibration is not None:
            pose = geometry.compose(
                calibration, geometry.compose(pose, geometry.invert(calibration))
            )
        mat = pose.as_matrix()[:3, :]
        lines.append(" ".join(f"{v:.17g}" for v in mat.reshape(-1)))
    write_lines(pose_path, lines)


def write_calibration(path, tr: RigidTransform) -> None:
    mat = tr.as_matrix()[:3, :]
    write_lines(path, ["Tr: " + " ".join(f"{v:.17g}" for v in mat.reshape(-1))])


def _sequence_dirs(root: Path) -> list:
    base = root / "sequences" if (root / "sequences").is_dir() else root
    dirs = sorted(p for p in base.iterdir() if p.is_dir())
    return [d for d in dirs if (d / "velodyne").is_dir()]


def _frame_files(directory: Path, suffix: str, seq_id: str) -> tuple:
    files = sorted(directory.glob(f"*{suffix}"))
    for index, f in enumerate(files):
        try:
            stem_id = int(f.stem)
        except ValueError:
            kind = "scan" if suffix == SCAN_SUFFIX else "label"
            raise DataError(f"{f}: {kind} file name is not a frame number") from None
        if stem_id != index:
            raise DataError(f"sequence {seq_id}: frame ids not contiguous, expected "
                            f"{directory / f'{index:06d}{suffix}'} got {f}")
    return tuple(files)


def build_manifest(dataset_root) -> tuple:
    """Every sequence under a dataset root as a `SequenceInfo`, in sequence
    order, with validation."""
    root = Path(dataset_root)
    if not root.is_dir():
        raise MissingDataError(f"dataset root {root} does not exist")
    sequences = []
    for seq_dir in _sequence_dirs(root):
        seq_id = seq_dir.name
        scan_paths = _frame_files(seq_dir / "velodyne", SCAN_SUFFIX, seq_id)
        pose_path, calib_path = seq_dir / "poses.txt", seq_dir / "calib.txt"
        for path in (pose_path, calib_path):
            if not path.is_file():
                raise MissingDataError(f"sequence {seq_id}: missing {path}")
        poses = read_poses(pose_path, calib_path)
        if len(poses) != len(scan_paths):
            raise DataError(
                f"sequence {seq_id}: {len(scan_paths)} scans but {len(poses)} poses in {pose_path}"
            )
        label_paths = None
        if (seq_dir / "labels").is_dir():
            label_paths = _frame_files(seq_dir / "labels", LABEL_SUFFIX, seq_id)
            if len(label_paths) != len(scan_paths):
                raise DataError(
                    f"sequence {seq_id}: {len(scan_paths)} scans but "
                    f"{len(label_paths)} label files"
                )
        sequences.append(
            SequenceInfo(
                sequence_id=seq_id,
                frame_count=len(scan_paths),
                scan_paths=scan_paths,
                label_paths=label_paths,
                poses=tuple(poses),
            )
        )
    return tuple(sequences)
