"""Deterministic synthetic LiDAR sequences with complete ground truth.

Scenes are built from labeled surfaces: a ground rectangle, vertical walls,
and boxes (optionally moving at constant velocity). Points are sampled
uniformly on the surfaces with seed-deterministic jitter, not raycast, so
there is no occlusion. A piecewise-linear sensor path supplies per-frame
poses; only points within ``sensor_range`` of the sensor survive.

Coordinates are quantized to float32 at generation time so that the in-memory
dataset and its on-disk export agree bit for bit.

The fixed class palette is 1 = ground, 9 = wall, 10 = moving vehicle,
30 = moving pedestrian; any id >= 1 is accepted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from itertools import islice

import numpy as np

from . import geometry, lidar_io
from .errors import ConfigError, DataError
from .geometry import RigidTransform
from .lidar_io import LabelMap, PointCloud

SAMPLING_MODES = ("per-frame", "fixed")
_BODY_STREAM = 0
_POSE_STREAM = 1


@dataclass(frozen=True)
class Ground:
    """Horizontal rectangle at height z spanning [x_min,x_max] x [y_min,y_max]."""

    class_id: int
    x_min: float
    x_max: float
    y_min: float
    y_max: float
    z: float = 0.0

    def extents(self) -> tuple:
        return (self.x_max - self.x_min, self.y_max - self.y_min)

    def surface_areas(self) -> tuple:
        return (math.prod(self.extents()),)

    def sample(self, counts: list, rng) -> np.ndarray:
        (n,) = counts
        return np.column_stack([rng.uniform(self.x_min, self.x_max, n),
                                rng.uniform(self.y_min, self.y_max, n), np.full(n, self.z)])


@dataclass(frozen=True)
class Wall:
    """Vertical rectangle from (x0,y0) to (x1,y1), z_base to z_base+height."""

    class_id: int
    x0: float
    y0: float
    x1: float
    y1: float
    height: float
    z_base: float = 0.0

    def extents(self) -> tuple:
        return (math.hypot(self.x1 - self.x0, self.y1 - self.y0), self.height)

    def surface_areas(self) -> tuple:
        return (math.prod(self.extents()),)

    def sample(self, counts: list, rng) -> np.ndarray:
        (n,) = counts
        s = rng.uniform(0.0, 1.0, n)
        return np.column_stack([self.x0 + s * (self.x1 - self.x0),
                                self.y0 + s * (self.y1 - self.y0),
                                self.z_base + rng.uniform(0.0, self.height, n)])


# a box's sampled faces as (fixed axis, side): the four sides, then the top
_BOX_FACES = ((0, -1.0), (0, 1.0), (1, -1.0), (1, 1.0), (2, 1.0))


@dataclass(frozen=True)
class Box:
    """Axis-aligned cuboid; sampled on all faces except the bottom.

    A nonzero velocity (m/s) makes the body dynamic: its center at frame t is
    center + velocity * t / frequency.
    """

    class_id: int
    center: tuple
    size: tuple
    velocity: tuple = (0.0, 0.0, 0.0)

    def moving(self) -> bool:
        return any(v != 0.0 for v in self.velocity)

    def extents(self) -> tuple:
        return self.size

    def surface_areas(self) -> tuple:
        """The areas of the sampled faces, in sampling order."""
        return tuple(math.prod(s for i, s in enumerate(self.size) if i != axis)
                     for axis, _ in _BOX_FACES)

    def sample(self, counts: list, rng) -> np.ndarray:
        faces = []
        for (axis, side), n in zip(_BOX_FACES, counts):
            face = np.empty((n, 3))
            for i, s in enumerate(self.size):
                face[:, i] = side * s / 2.0 if i == axis else rng.uniform(-s / 2.0, s / 2.0, n)
            faces.append(face)
        return np.concatenate(faces, axis=0)


# A body's scene line is its kind, then its dataclass fields in order: the
# class id, floats, and (x, y, z) triples. Field types are read as the strings
# that postponed annotations leave. A body's sample(counts, rng) draws counts[i]
# points on the surface whose area is surface_areas()[i].
_BODY_KINDS = {cls.__name__.lower(): cls for cls in (Ground, Wall, Box)}
_WIDTHS = {"int": 1, "float": 1, "tuple": 3}
_CASTS = {"int": int, "float": float, "str": str}
_MAX_POINTS = np.iinfo(np.intp).max // 24  # the most one (n, 3) float64 array holds


def _arity(kind) -> int:
    """The number of values on a scene line of body class `kind`."""
    return sum(_WIDTHS[f.type] for f in fields(kind))


def _flat(body) -> list:
    """A body's values in scene-line order: its fields, a triple spread out."""
    return [v for f in fields(body)
            for v in (getattr(body, f.name) if f.type == "tuple" else (getattr(body, f.name),))]


@dataclass(frozen=True)
class SynthConfig:
    """A scene. Each field that is not a tuple is a scene-file key, echoed in field order."""

    seed: int = 0
    frames: int = 2
    frequency: float = 10.0
    sensor_range: float = 70.0
    points_per_surface: float = 2.0
    sampling: str = "per-frame"
    pose_noise_translation: float = 0.0
    pose_noise_rotation: float = 0.0
    path: tuple = ((0.0, 0.0, 1.5),)
    headings: tuple = ()
    bodies: tuple = field(default_factory=tuple)

    def __post_init__(self):
        # written so that NaN fails every check
        if self.frames < 2:
            raise ConfigError(f"frames must be >= 2, got {self.frames}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        for key in ("frequency", "points_per_surface"):
            if not 0 < getattr(self, key) < math.inf:
                raise ConfigError(f"{key} must be positive and finite, got {getattr(self, key)}")
        if not self.sensor_range > 0:
            raise ConfigError(f"sensor_range must be positive, got {self.sensor_range}")
        if self.sampling not in SAMPLING_MODES:
            raise ConfigError(f"sampling must be one of {SAMPLING_MODES}, got {self.sampling!r}")
        for key in ("pose_noise_translation", "pose_noise_rotation"):
            if not 0 <= getattr(self, key) < math.inf:
                raise ConfigError(f"{key} must be >= 0 and finite, got {getattr(self, key)}")
        if not self.path:
            raise ConfigError("sensor path needs at least one waypoint")
        if not all(math.isfinite(v) for wp in self.path for v in wp):
            raise ConfigError(f"path values must be finite, got {self.path}")
        if not all(map(math.isfinite, self.headings)):
            raise ConfigError(f"headings must be finite, got {self.headings}")
        if self.headings and len(self.headings) != len(self.path):
            raise ConfigError(
                f"{len(self.headings)} headings for {len(self.path)} waypoints"
            )
        if not self.bodies:
            raise ConfigError("scene has no bodies")
        for body in self.bodies:
            kind, values = type(body).__name__.lower(), _flat(body)
            if len(values) != _arity(type(body)):
                raise ConfigError(f"{kind} expects {_arity(type(body))} values, got {values}")
            if not 1 <= body.class_id <= 0xFFFF:
                raise ConfigError(f"{kind} class ids must be in [1, 65535] to fit a label's 16 "
                                  f"bits, got {body.class_id}")
            if not all(map(math.isfinite, values)):
                raise ConfigError(f"{kind} values must be finite, got {values}")
            if not all(0 <= e < math.inf for e in body.extents()):
                raise ConfigError(f"{kind} extents must be >= 0 and finite, got {values}")
            if not all(a * self.points_per_surface <= _MAX_POINTS for a in body.surface_areas()):
                raise ConfigError(f"{kind} surface area times points_per_surface must be finite "
                                  f"and at most {_MAX_POINTS:.3g}, the points one array holds, "
                                  f"got {values}")
        # each moving box takes the next instance id
        moving = sum(isinstance(body, Box) and body.moving() for body in self.bodies)
        if moving > 0xFFFF:
            raise ConfigError(f"box: {moving} moving boxes, but their instance ids must be in "
                              "[1, 65535] to fit a label's 16 bits")
        if self.pose_noise_translation or self.pose_noise_rotation:
            # a finite noise can draw an angle whose norm overflows, or positions whose offset does
            with np.errstate(over="ignore", invalid="ignore"):
                try:
                    positions = [pose.translation for pose in reported_poses(self)]
                except DataError:
                    raise ConfigError("pose_noise_rotation draws a rotation angle too large to "
                                      f"compute, got {self.pose_noise_rotation}") from None
                if not np.isfinite(np.ptp(positions, axis=0)).all():
                    raise ConfigError("pose_noise_translation draws positions too far apart to "
                                      f"compute their offset, got {self.pose_noise_translation}")


@dataclass(frozen=True, eq=False)
class SynthDataset:
    """One generated sequence: clouds, ground-truth labels, and poses.

    `poses` are the reported (possibly noise-perturbed) world-from-sensor
    transforms; `true_poses` are the exact ones the geometry was built with.
    """

    config: SynthConfig
    clouds: tuple
    labels: tuple
    poses: tuple
    true_poses: tuple

    def __len__(self) -> int:
        return len(self.clouds)


def _rng(seed: int, stream: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(stream, *key)))


def _sample_body_local(body, density: float, rng) -> np.ndarray:
    return body.sample([max(1, math.ceil(area * density)) for area in body.surface_areas()], rng)


def _body_world_points(body, local: np.ndarray, t: int, frequency: float) -> np.ndarray:
    if isinstance(body, Box):
        offset = np.asarray(body.center, dtype=np.float64)
        if body.moving():
            offset = offset + np.asarray(body.velocity) * (t / frequency)
        return local + offset
    return local


def _interpolated_poses(cfg: SynthConfig) -> list:
    waypoints = np.asarray(cfg.path, dtype=np.float64).reshape(-1, 3)
    headings = (
        np.asarray(cfg.headings, dtype=np.float64)
        if cfg.headings
        else np.zeros(len(waypoints))
    )
    poses = []
    for t in range(cfg.frames):
        if len(waypoints) == 1:
            pos, yaw = waypoints[0], headings[0]
        else:
            u = t * (len(waypoints) - 1) / (cfg.frames - 1)
            seg = min(int(math.floor(u)), len(waypoints) - 2)
            frac = u - seg
            pos = (1.0 - frac) * waypoints[seg] + frac * waypoints[seg + 1]
            yaw = (1.0 - frac) * headings[seg] + frac * headings[seg + 1]
        poses.append(RigidTransform(geometry.yaw_rotation(yaw), pos))
    return poses


def _perturbed(pose: RigidTransform, cfg: SynthConfig, t: int) -> RigidTransform:
    if cfg.pose_noise_translation == 0.0 and cfg.pose_noise_rotation == 0.0:
        return pose
    rng = _rng(cfg.seed, _POSE_STREAM, t)
    d_rot = geometry.axis_angle_rotation(rng.normal(0.0, 1.0, 3) * cfg.pose_noise_rotation)
    d_trans = rng.normal(0.0, 1.0, 3) * cfg.pose_noise_translation
    return RigidTransform(d_rot @ pose.rotation, pose.translation + d_trans)


def frames(cfg: SynthConfig):
    """Yield the sequence's (cloud, labels) pairs in frame order.

    Each frame is built only when it is asked for, so a caller that writes
    or drops a frame before taking the next holds one frame at a time.
    """
    true_poses = _interpolated_poses(cfg)
    density = cfg.points_per_surface
    fixed_local = None
    if cfg.sampling == "fixed":
        fixed_local = [
            _sample_body_local(body, density, _rng(cfg.seed, _BODY_STREAM, b))
            for b, body in enumerate(cfg.bodies)
        ]

    instance_ids = {}
    next_instance = 1
    for b, body in enumerate(cfg.bodies):
        if isinstance(body, Box) and body.moving():
            instance_ids[b] = next_instance
            next_instance += 1

    for t in range(cfg.frames):
        chunks, sems, insts = [], [], []
        for b, body in enumerate(cfg.bodies):
            if fixed_local is not None:
                local = fixed_local[b]
            else:
                local = _sample_body_local(body, density, _rng(cfg.seed, _BODY_STREAM, b, t))
            world = _body_world_points(body, local, t, cfg.frequency)
            chunks.append(world)
            sems.append(np.full(len(world), body.class_id, dtype=np.int32))
            insts.append(np.full(len(world), instance_ids.get(b, 0), dtype=np.int32))
        points = np.concatenate(chunks, axis=0)
        semantic = np.concatenate(sems)
        instance = np.concatenate(insts)
        keep = (
            np.linalg.norm(points - true_poses[t].translation, axis=1) <= cfg.sensor_range
        )
        # scans are stored in the sensor frame, like real recordings
        local = geometry.apply_points(geometry.invert(true_poses[t]), points[keep])
        points = local.astype(np.float32).astype(np.float64)
        yield (
            PointCloud(points, frame_id=t, sequence_id="00"),
            LabelMap(semantic[keep], instance[keep], frame_id=t, sequence_id="00"),
        )


def reported_poses(cfg: SynthConfig) -> list:
    """The world-from-sensor poses a recording reports: the exact ones,
    perturbed by the config's pose noise."""
    return [_perturbed(p, cfg, t) for t, p in enumerate(_interpolated_poses(cfg))]


def generate(cfg: SynthConfig) -> SynthDataset:
    """Build the full sequence in memory; a pure function of the config."""
    clouds, labels = zip(*frames(cfg))
    return SynthDataset(cfg, clouds, labels, tuple(reported_poses(cfg)),
                        tuple(_interpolated_poses(cfg)))


def export(pairs, poses, root_path) -> tuple:
    """Write (cloud, labels) pairs and their poses in the standard sequence
    layout under root_path.

    Each frame's scan and label files are written as soon as `pairs` yields
    it, so streaming `frames(cfg)` holds one frame at a time. Returns the
    number of frames and of points written.
    """
    from pathlib import Path

    seq_dir = Path(root_path) / "sequences" / "00"
    count = points = 0
    (seq_dir / "velodyne").mkdir(parents=True, exist_ok=True)
    (seq_dir / "labels").mkdir(parents=True, exist_ok=True)
    for t, (cloud, label) in enumerate(pairs):
        lidar_io.write_scan(cloud, seq_dir / "velodyne" / f"{t:06d}{lidar_io.SCAN_SUFFIX}")
        lidar_io.write_labels(label, seq_dir / "labels" / f"{t:06d}{lidar_io.LABEL_SUFFIX}")
        count, points = t + 1, points + len(cloud)
    lidar_io.write_poses(poses, seq_dir / "poses.txt")
    lidar_io.write_calibration(seq_dir / "calib.txt", geometry.identity())
    return count, points


def _parse_list(value: str, key: str, at: str) -> list:
    raw = value.strip()
    if not (raw.startswith("[") and raw.endswith("]")):
        raise ConfigError(f"{at}: {key} expects a bracketed list")
    inner = raw[1:-1].strip()
    if not inner:
        return []
    try:
        return [float(p) for p in inner.split(",")]
    except ValueError:
        raise ConfigError(f"{at}: non-numeric entry in {key}") from None


def _body_from_values(kind: str, vals: list, at: str):
    if len(vals) != _arity(_BODY_KINDS[kind]):
        raise ConfigError(f"{at}: {kind} expects {_arity(_BODY_KINDS[kind])} values, "
                          f"got {len(vals)}")
    if not vals[0].is_integer():
        raise ConfigError(f"{at}: class id must be an integer")
    values, args = iter(vals), []
    for f in fields(_BODY_KINDS[kind]):
        part = tuple(islice(values, _WIDTHS[f.type]))
        args.append(part if f.type == "tuple" else _CASTS[f.type](*part))
    return _BODY_KINDS[kind](*args)


def parse_config(lines, source=None) -> SynthConfig:
    """Parse the lines of a flat key = value scene description (see
    config_to_text); a `#` starts a comment.

    An error names its place as ``source:line`` for the file ``source`` the
    lines came from, or as ``line N`` when none is given.
    """
    casts = {f.name: _CASTS[f.type] for f in fields(SynthConfig) if f.type in _CASTS}
    kwargs: dict = {}
    bodies: list = []
    for at, key, value in lidar_io.key_values(lines, source, ConfigError):
        value = value.split("#", 1)[0].strip()
        if key in casts:
            try:
                kwargs[key] = casts[key](value)
            except ValueError:
                raise ConfigError(f"{at}: bad value for {key}: {value!r}") from None
        elif key == "path":
            vals = _parse_list(value, key, at)
            if len(vals) % 3 != 0 or not vals:
                raise ConfigError(f"{at}: path needs 3 values per waypoint")
            kwargs[key] = tuple(tuple(vals[i : i + 3]) for i in range(0, len(vals), 3))
        elif key == "headings":
            kwargs[key] = tuple(_parse_list(value, key, at))
        elif key in _BODY_KINDS:
            bodies.append(_body_from_values(key, _parse_list(value, key, at), at))
        else:
            raise ConfigError(f"{at}: unknown key {key!r}")
    try:
        return SynthConfig(**kwargs, bodies=tuple(bodies))
    except ConfigError as exc:
        raise ConfigError(f"{source}: {exc}" if source is not None else exc) from None


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def config_to_text(cfg: SynthConfig) -> str:
    """Serialize a config with every field materialized; parse round-trips."""
    lines = [f"{f.name} = {(_fmt if f.type == 'float' else str)(getattr(cfg, f.name))}"
             for f in fields(cfg) if f.type in _CASTS]
    lines.append("path = [" + ", ".join(_fmt(v) for wp in cfg.path for v in wp) + "]")
    if cfg.headings:
        lines.append("headings = [" + ", ".join(_fmt(h) for h in cfg.headings) + "]")
    for body in cfg.bodies:
        vals = _flat(body)
        rendered = [str(int(vals[0])), *map(_fmt, vals[1:])]
        lines.append(f"{type(body).__name__.lower()} = [" + ", ".join(rendered) + "]")
    return "\n".join(lines) + "\n"
