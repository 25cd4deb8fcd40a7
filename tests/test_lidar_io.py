"""On-disk format readers/writers: scans, labels, poses, manifests."""

from __future__ import annotations

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plelidar import geometry, lidar_io
from plelidar.errors import DataError, FormatError, MissingDataError
from plelidar.geometry import RigidTransform
from plelidar.lidar_io import LabelMap, PointCloud


def test_scan_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    pts = rng.uniform(-80, 80, (500, 3)).astype(np.float32).astype(np.float64)
    inten = rng.uniform(0, 1, 500).astype(np.float32).astype(np.float64)
    cloud = PointCloud(pts, inten, frame_id=3, sequence_id="00")
    path = tmp_path / "000003.bin"
    lidar_io.write_scan(cloud, path)
    again = lidar_io.read_scan(path, 3, "00")
    assert np.array_equal(again.points, cloud.points)
    assert np.array_equal(again.intensities, cloud.intensities)


def test_scan_bad_length(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"\x00" * 17)
    with pytest.raises(FormatError):
        lidar_io.read_scan(path)


def test_scan_non_finite_reports_point_index(tmp_path):
    data = np.zeros((4, 4), dtype="<f4")
    data[2, 1] = np.inf
    path = tmp_path / "nan.bin"
    path.write_bytes(data.tobytes())
    with pytest.raises(DataError, match="point 2"):
        lidar_io.read_scan(path)


def test_label_word_layout(tmp_path):
    words = [0x00000028, 0x00010028, 0xFFFF000A]
    path = tmp_path / "000000.label"
    path.write_bytes(struct.pack("<3I", *words))
    labels = lidar_io.read_labels(path, 3)
    assert labels.semantic.tolist() == [40, 40, 10]
    assert labels.instance.tolist() == [0, 1, 65535]


def test_label_round_trip(tmp_path):
    labels = LabelMap([1, 9, 30, 10], [0, 0, 7, 65535])
    path = tmp_path / "x.label"
    lidar_io.write_labels(labels, path)
    again = lidar_io.read_labels(path, 4)
    assert np.array_equal(again.semantic, labels.semantic)
    assert np.array_equal(again.instance, labels.instance)


def test_label_count_mismatch(tmp_path):
    path = tmp_path / "y.label"
    path.write_bytes(b"\x00" * 8)
    with pytest.raises(FormatError, match="expected 5"):
        lidar_io.read_labels(path, 5)


def test_point_cloud_validates_lengths():
    with pytest.raises(DataError):
        PointCloud(np.zeros((3, 3)), np.zeros(2))


def test_label_map_rejects_wide_ids():
    with pytest.raises(DataError):
        LabelMap([70000], [0])


def _pose_line(mat34: np.ndarray) -> str:
    return " ".join(f"{v:.12e}" for v in mat34.reshape(-1))


def _identity_calibration(directory):
    """An identity calib.txt in `directory`, as synth writes for its scenes."""
    path = directory / "calib.txt"
    lidar_io.write_calibration(path, geometry.identity())
    return path


def test_read_poses_identity_calibration(tmp_path):
    rng = np.random.default_rng(1)
    mats = []
    lines = []
    for _ in range(5):
        r = geometry.axis_angle_rotation(rng.normal(0, 0.5, 3))
        t = rng.normal(0, 10, 3)
        m = np.hstack([r, t[:, None]])
        mats.append(m)
        lines.append(_pose_line(m))
    pose_path = tmp_path / "poses.txt"
    pose_path.write_text("\n".join(lines) + "\n")
    poses = lidar_io.read_poses(pose_path, _identity_calibration(tmp_path))
    assert len(poses) == 5
    for pose, m in zip(poses, mats):
        assert np.abs(pose.rotation - m[:, :3]).max() < 1e-9
        assert np.abs(pose.translation - m[:, 3]).max() < 1e-9


def test_read_poses_folds_calibration(tmp_path):
    """World-from-sensor must equal Tr^-1 . P . Tr, checked via 4x4 algebra."""
    rng = np.random.default_rng(2)
    tr_r = geometry.axis_angle_rotation(rng.normal(0, 0.4, 3))
    tr_t = rng.normal(0, 2, 3)
    tr_mat = np.eye(4)
    tr_mat[:3, :3] = tr_r
    tr_mat[:3, 3] = tr_t
    (tmp_path / "calib.txt").write_text(
        "P0: " + " ".join(["0"] * 12) + "\n"
        + "Tr: " + _pose_line(np.hstack([tr_r, tr_t[:, None]])) + "\n"
    )
    p_r = geometry.axis_angle_rotation(rng.normal(0, 0.4, 3))
    p_t = rng.normal(0, 5, 3)
    p_mat = np.eye(4)
    p_mat[:3, :3] = p_r
    p_mat[:3, 3] = p_t
    (tmp_path / "poses.txt").write_text(_pose_line(np.hstack([p_r, p_t[:, None]])) + "\n")
    [pose] = lidar_io.read_poses(tmp_path / "poses.txt", tmp_path / "calib.txt")
    want = np.linalg.inv(tr_mat) @ p_mat @ tr_mat
    assert np.abs(pose.as_matrix() - want).max() < 1e-9


def test_read_poses_reports_line_numbers(tmp_path):
    good = _pose_line(np.hstack([np.eye(3), np.zeros((3, 1))]))
    path = tmp_path / "poses.txt"
    path.write_text(good + "\n1 2 3\n")
    with pytest.raises(FormatError, match=":2"):
        lidar_io.read_poses(path, _identity_calibration(tmp_path))


def test_read_poses_rejects_bad_rotation(tmp_path):
    mat = np.hstack([np.eye(3) * 1.5, np.zeros((3, 1))])
    path = tmp_path / "poses.txt"
    path.write_text(_pose_line(mat) + "\n")
    with pytest.raises(DataError, match="defect"):
        lidar_io.read_poses(path, _identity_calibration(tmp_path))


@pytest.mark.parametrize("name", ["poses.txt", "calib.txt"])
@pytest.mark.parametrize("index", [1, 3], ids=["rotation", "translation"])
def test_read_poses_rejects_non_finite_entry(tmp_path, name, index):
    # nan only: inf can make the rotation's polar decomposition spin, so the
    # command-line test covers it in a subprocess, where a hang times out
    words = _pose_line(np.hstack([np.eye(3), np.zeros((3, 1))])).split()
    (tmp_path / "poses.txt").write_text(" ".join(words) + "\n")
    (tmp_path / "calib.txt").write_text("Tr: " + " ".join(words) + "\n")
    words[index] = "nan"
    bad = tmp_path / name
    bad.write_text(("Tr: " if name == "calib.txt" else "") + " ".join(words) + "\n")
    with pytest.raises(FormatError, match=f"{name}:1: non-finite"):
        lidar_io.read_poses(tmp_path / "poses.txt", tmp_path / "calib.txt")


def test_calibration_missing_tr_line(tmp_path):
    path = tmp_path / "calib.txt"
    path.write_text("P0: 1 2 3\n")
    with pytest.raises(FormatError):
        lidar_io.read_calibration(path)


def test_calibration_needs_the_colon(tmp_path):
    path = tmp_path / "calib.txt"
    path.write_text("Tr 1 0 0 0 0 1 0 0 0 0 1 0\n")
    with pytest.raises(FormatError, match="no line starting with 'Tr:'"):
        lidar_io.read_calibration(path)


def test_pose_write_read_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    poses = [
        RigidTransform(
            geometry.axis_angle_rotation(rng.normal(0, 1, 3)), rng.normal(0, 20, 3)
        )
        for _ in range(4)
    ]
    calib = RigidTransform(geometry.axis_angle_rotation(rng.normal(0, 1, 3)), rng.normal(0, 1, 3))
    pose_path = tmp_path / "poses.txt"
    calib_path = tmp_path / "calib.txt"
    lidar_io.write_poses(poses, pose_path, calibration=calib)
    lidar_io.write_calibration(calib_path, calib)
    again = lidar_io.read_poses(pose_path, calib_path)
    for a, b in zip(again, poses):
        assert np.abs(a.as_matrix() - b.as_matrix()).max() < 1e-12


def _make_sequence(root, seq="00", frames=3, with_labels=True):
    seq_dir = root / "sequences" / seq
    (seq_dir / "velodyne").mkdir(parents=True)
    rng = np.random.default_rng(5)
    lines = []
    for f in range(frames):
        pts = rng.uniform(-10, 10, (20, 3))
        cloud = PointCloud(pts, np.zeros(20), f, seq)
        lidar_io.write_scan(cloud, seq_dir / "velodyne" / f"{f:06d}.bin")
        lines.append(_pose_line(np.hstack([np.eye(3), np.array([[f], [0.0], [0.0]])])))
        if with_labels:
            (seq_dir / "labels").mkdir(exist_ok=True)
            labels = LabelMap(np.full(20, 1), np.zeros(20, dtype=int), f, seq)
            lidar_io.write_labels(labels, seq_dir / "labels" / f"{f:06d}.label")
    (seq_dir / "poses.txt").write_text("\n".join(lines) + "\n")
    _identity_calibration(seq_dir)
    return seq_dir


def test_build_manifest(tmp_path):
    _make_sequence(tmp_path, "00", frames=3)
    _make_sequence(tmp_path, "01", frames=2, with_labels=False)
    manifest = lidar_io.build_manifest(tmp_path)
    assert isinstance(manifest, tuple)
    assert [s.sequence_id for s in manifest] == ["00", "01"]
    seq0, seq1 = manifest
    assert [seq0.frame_count, seq1.frame_count] == [3, 2]
    assert seq0.label_paths is not None and len(seq0.label_paths) == 3
    assert seq1.label_paths is None
    assert np.abs(seq0.poses[2].translation - np.array([2.0, 0.0, 0.0])).max() < 1e-9


def test_build_manifest_lexicographic_order_is_frame_order(tmp_path):
    seq_dir = _make_sequence(tmp_path, "00", frames=5)
    files = sorted((seq_dir / "velodyne").glob("*.bin"))
    manifest = lidar_io.build_manifest(tmp_path)
    assert list(manifest[0].scan_paths) == files


def test_build_manifest_missing_poses(tmp_path):
    seq_dir = _make_sequence(tmp_path)
    (seq_dir / "poses.txt").unlink()
    with pytest.raises(MissingDataError):
        lidar_io.build_manifest(tmp_path)


def test_build_manifest_missing_calibration(tmp_path):
    seq_dir = _make_sequence(tmp_path)
    (seq_dir / "calib.txt").unlink()
    with pytest.raises(MissingDataError, match=f"missing {seq_dir / 'calib.txt'}"):
        lidar_io.build_manifest(tmp_path)


def test_build_manifest_pose_count_mismatch(tmp_path):
    seq_dir = _make_sequence(tmp_path, frames=3)
    text = (seq_dir / "poses.txt").read_text().splitlines()
    (seq_dir / "poses.txt").write_text("\n".join(text[:2]) + "\n")
    with pytest.raises(DataError, match="3 scans but 2 poses"):
        lidar_io.build_manifest(tmp_path)


def test_build_manifest_label_count_mismatch(tmp_path):
    seq_dir = _make_sequence(tmp_path, frames=3)
    (seq_dir / "labels" / "000002.label").unlink()
    with pytest.raises(DataError):
        lidar_io.build_manifest(tmp_path)


def test_build_manifest_gap_in_frames(tmp_path):
    seq_dir = _make_sequence(tmp_path, frames=3)
    (seq_dir / "velodyne" / "000001.bin").rename(seq_dir / "velodyne" / "000009.bin")
    with pytest.raises(DataError, match="contiguous"):
        lidar_io.build_manifest(tmp_path)


def test_build_manifest_missing_root(tmp_path):
    with pytest.raises(MissingDataError):
        lidar_io.build_manifest(tmp_path / "nope")


def test_scan_point_count_from_size(tmp_path):
    path = tmp_path / "s.bin"
    lidar_io.write_scan(PointCloud(np.ones((7, 3)), np.zeros(7)), path)
    assert lidar_io.scan_point_count(path) == 7
    path.write_bytes(path.read_bytes()[:-4])
    with pytest.raises(FormatError, match="not a multiple of 16"):
        lidar_io.scan_point_count(path)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 0xFFFF), st.integers(0, 0xFFFF)), max_size=40))
def test_label_round_trip_any_ids(tmp_path_factory, pairs):
    tmp = tmp_path_factory.mktemp("labels")
    sem = [p[0] for p in pairs]
    inst = [p[1] for p in pairs]
    labels = LabelMap(sem, inst)
    path = tmp / "r.label"
    lidar_io.write_labels(labels, path)
    again = lidar_io.read_labels(path, len(pairs))
    assert again.semantic.tolist() == sem
    assert again.instance.tolist() == inst
