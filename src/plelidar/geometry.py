"""SE(3) algebra: rigid transforms between sensor frames and their application to points.

All rotations are 3x3 orthonormal float64 matrices, translations are 3-vectors
in meters. Rotations read from text files should be passed through
:func:`orthonormalize` before constructing a :class:`RigidTransform`; the
constructor enforces orthonormality to 1e-9 and will reject raw file values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_ORTHO_TOL = 1e-9


def orthonormalize(rotation: np.ndarray) -> np.ndarray:
    """The nearest orthonormal matrix, by polar decomposition; it keeps the
    sign of the determinant, so a near-rotation maps onto SO(3)."""
    u, _, vt = np.linalg.svd(np.asarray(rotation, dtype=np.float64))
    return u @ vt


def rotation_defect(rotation: np.ndarray) -> float:
    """Frobenius norm of R^T R - I; zero for an exact rotation."""
    r = np.asarray(rotation, dtype=np.float64)
    return float(np.linalg.norm(r.T @ r - np.eye(3)))


@dataclass(frozen=True, eq=False)
class RigidTransform:
    """An SE(3) element: y = rotation @ x + translation."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.rotation, dtype=np.float64).reshape(3, 3)
        t = np.asarray(self.translation, dtype=np.float64).reshape(3)
        r.setflags(write=False)
        t.setflags(write=False)
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)
        ok = rotation_defect(r) <= _ORTHO_TOL and abs(np.linalg.det(r) - 1.0) <= _ORTHO_TOL
        if not ok:  # written so that NaN fails
            raise ValueError("rotation is not orthonormal with determinant +1")

    def as_matrix(self) -> np.ndarray:
        """Return the equivalent 4x4 homogeneous matrix."""
        m = np.eye(4)
        m[:3, :3] = self.rotation
        m[:3, 3] = self.translation
        return m


def identity() -> RigidTransform:
    return RigidTransform(np.eye(3), np.zeros(3))


def invert(t: RigidTransform) -> RigidTransform:
    """Inverse transform: invert(t) composed with t is the identity."""
    r_inv = t.rotation.T
    return RigidTransform(r_inv, -(r_inv @ t.translation))


def compose(a: RigidTransform, b: RigidTransform) -> RigidTransform:
    """Composition applying b first, then a."""
    return RigidTransform(a.rotation @ b.rotation, a.rotation @ b.translation + a.translation)


def relative_transform(pose_ref: RigidTransform, pose_tgt: RigidTransform) -> RigidTransform:
    """Map points from the reference sensor frame into the target sensor frame.

    Both arguments are world-from-sensor poses; the result is
    pose_tgt^-1 composed with pose_ref.
    """
    return compose(invert(pose_tgt), pose_ref)


def apply_points(t: RigidTransform, points: np.ndarray) -> np.ndarray:
    """Transform an (N, 3) array of points. Input is not mutated."""
    pts = np.asarray(points, dtype=np.float64)
    return pts @ t.rotation.T + t.translation


def yaw_rotation(angle: float) -> np.ndarray:
    """Rotation matrix for a yaw (about +z) of `angle` radians."""
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def axis_angle_rotation(vector: np.ndarray) -> np.ndarray:
    """Rodrigues formula: rotation by |vector| radians about vector's direction."""
    v = np.asarray(vector, dtype=np.float64).reshape(3)
    angle = np.linalg.norm(v)
    if angle == 0.0:
        return np.eye(3)
    axis = v / angle
    k = np.array(
        [
            [0.0, -axis[2], axis[1]],
            [axis[2], 0.0, -axis[0]],
            [-axis[1], axis[0], 0.0],
        ]
    )
    return np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)
