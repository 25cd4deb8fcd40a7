"""Rigid-transform algebra against a 4x4 homogeneous-matrix oracle."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plelidar import geometry
from plelidar.errors import DataError
from plelidar.geometry import RigidTransform


def random_rotation(rng) -> np.ndarray:
    return geometry.axis_angle_rotation(rng.normal(0.0, 1.0, 3))


def random_transform(rng) -> RigidTransform:
    return RigidTransform(random_rotation(rng), rng.normal(0.0, 10.0, 3))


def hmat(t: RigidTransform) -> np.ndarray:
    m = np.eye(4)
    m[:3, :3] = t.rotation
    m[:3, 3] = t.translation
    return m


def apply_homogeneous(t: RigidTransform, pts: np.ndarray) -> np.ndarray:
    ones = np.ones((len(pts), 1))
    return (hmat(t) @ np.hstack([pts, ones]).T).T[:, :3]


def test_identity_is_noop():
    rng = np.random.default_rng(0)
    pts = rng.normal(size=(50, 3))
    assert np.array_equal(geometry.apply_points(geometry.identity(), pts), pts)


def test_apply_matches_homogeneous_oracle():
    rng = np.random.default_rng(1)
    for _ in range(100):
        t = random_transform(rng)
        pts = rng.normal(0.0, 20.0, (64, 3))
        got = geometry.apply_points(t, pts)
        want = apply_homogeneous(t, pts)
        assert np.abs(got - want).max() < 1e-9


def test_invert_matches_matrix_inverse():
    rng = np.random.default_rng(2)
    for _ in range(50):
        t = random_transform(rng)
        want = np.linalg.inv(hmat(t))
        got = hmat(geometry.invert(t))
        assert np.abs(got - want).max() < 1e-9


def test_compose_matches_matrix_product():
    rng = np.random.default_rng(3)
    for _ in range(50):
        a, b = random_transform(rng), random_transform(rng)
        got = hmat(geometry.compose(a, b))
        want = hmat(a) @ hmat(b)
        assert np.abs(got - want).max() < 1e-9


def test_compose_applies_b_first():
    rng = np.random.default_rng(4)
    a, b = random_transform(rng), random_transform(rng)
    pts = rng.normal(size=(10, 3))
    via_compose = geometry.apply_points(geometry.compose(a, b), pts)
    step_by_step = geometry.apply_points(a, geometry.apply_points(b, pts))
    assert np.abs(via_compose - step_by_step).max() < 1e-9


def test_relative_transform_maps_between_frames():
    rng = np.random.default_rng(5)
    for _ in range(30):
        pose_ref, pose_tgt = random_transform(rng), random_transform(rng)
        pts_ref = rng.normal(0.0, 5.0, (20, 3))
        world = geometry.apply_points(pose_ref, pts_ref)
        want = apply_homogeneous(geometry.invert(pose_tgt), world)
        rel = geometry.relative_transform(pose_ref, pose_tgt)
        got = geometry.apply_points(rel, pts_ref)
        assert np.abs(got - want).max() < 1e-9


def test_relative_transform_identities():
    rng = np.random.default_rng(6)
    for _ in range(30):
        a, b, c = (random_transform(rng) for _ in range(3))
        same = geometry.relative_transform(a, a)
        assert np.abs(same.as_matrix() - np.eye(4)).max() < 1e-9
        ab = geometry.relative_transform(a, b)
        ba = geometry.relative_transform(b, a)
        assert np.abs(hmat(geometry.compose(ab, ba)) - np.eye(4)).max() < 1e-9
        ac = geometry.relative_transform(a, c)
        cb_then_ac = geometry.compose(geometry.relative_transform(c, b), ac)
        direct = geometry.relative_transform(a, b)
        assert np.abs(hmat(cb_then_ac) - hmat(direct)).max() < 1e-9


def test_round_trip_error_tiny():
    rng = np.random.default_rng(7)
    for _ in range(100):
        t = random_transform(rng)
        pts = rng.normal(0.0, 50.0, (128, 3))
        back = geometry.apply_points(geometry.invert(t), geometry.apply_points(t, pts))
        assert np.abs(back - pts).max() < 1e-9


def test_constructor_rejects_non_rotation():
    with pytest.raises(DataError, match="not orthonormal with determinant"):
        RigidTransform(np.eye(3) * 2.0, np.zeros(3))
    with pytest.raises(DataError, match="not orthonormal with determinant"):
        reflection = np.diag([1.0, 1.0, -1.0])
        RigidTransform(reflection, np.zeros(3))


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_constructor_rejects_non_finite_rotation(bad):
    r = np.eye(3)
    r[0, 1] = bad
    with pytest.raises(DataError, match="not orthonormal with determinant"):
        RigidTransform(r, np.zeros(3))


def test_orthonormalize_fixes_noisy_rotation():
    rng = np.random.default_rng(8)
    r = random_rotation(rng)
    noisy = r + rng.normal(0.0, 1e-6, (3, 3))
    fixed = geometry.orthonormalize(noisy)
    assert geometry.rotation_defect(fixed) < 1e-12
    assert np.abs(fixed - r).max() < 1e-5


def test_matrix_round_trip():
    rng = np.random.default_rng(9)
    t = random_transform(rng)
    m = t.as_matrix()
    assert np.array_equal(m[3], [0.0, 0.0, 0.0, 1.0])
    again = RigidTransform(m[:3, :3], m[:3, 3])
    assert np.array_equal(again.rotation, t.rotation)
    assert np.array_equal(again.translation, t.translation)


def test_yaw_rotation_quarter_turn():
    r = geometry.yaw_rotation(np.pi / 2.0)
    got = r @ np.array([1.0, 0.0, 0.0])
    assert np.abs(got - np.array([0.0, 1.0, 0.0])).max() < 1e-12


def test_axis_angle_zero_is_identity():
    assert np.array_equal(geometry.axis_angle_rotation(np.zeros(3)), np.eye(3))


def test_axis_angle_known_case():
    r = geometry.axis_angle_rotation(np.array([0.0, 0.0, np.pi / 2.0]))
    assert np.abs(r - geometry.yaw_rotation(np.pi / 2.0)).max() < 1e-12


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_transforms_preserve_distances(seed):
    rng = np.random.default_rng(seed)
    t = random_transform(rng)
    pts = rng.normal(0.0, 10.0, (16, 3))
    moved = geometry.apply_points(t, pts)
    d_before = np.linalg.norm(pts[:, None] - pts[None, :], axis=-1)
    d_after = np.linalg.norm(moved[:, None] - moved[None, :], axis=-1)
    assert np.abs(d_before - d_after).max() < 1e-9
