"""Synthetic scene generator: determinism, kinematics, export, config text."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plelidar import geometry, lidar_io, synth
from plelidar.errors import ConfigError
from plelidar.synth import Box, Ground, SynthConfig, Wall

from conftest import corridor_config, export, one_box_config


def _world_points(dataset, t):
    return geometry.apply_points(dataset.true_poses[t], dataset.clouds[t].points)


def test_generation_is_deterministic():
    cfg = one_box_config()
    a = synth.generate(cfg)
    b = synth.generate(cfg)
    for t in range(cfg.frames):
        assert np.array_equal(a.clouds[t].points, b.clouds[t].points)
        assert np.array_equal(a.labels[t].semantic, b.labels[t].semantic)
        assert np.array_equal(a.labels[t].instance, b.labels[t].instance)
        assert np.array_equal(a.poses[t].translation, b.poses[t].translation)


def test_seed_changes_points():
    a = synth.generate(corridor_config(frames=2))
    b = synth.generate(corridor_config(frames=2, seed=99))
    assert not np.array_equal(a.clouds[0].points, b.clouds[0].points)


def test_fixed_sampling_keeps_world_points(corridor_dataset):
    # same surface jitter every frame: world coordinates agree across
    # frames up to float32 quantization of the sensor-frame storage
    w0 = _world_points(corridor_dataset, 0)
    w7 = _world_points(corridor_dataset, 7)
    sem0 = corridor_dataset.labels[0].semantic
    sem7 = corridor_dataset.labels[7].semantic
    assert len(w0) == len(w7)
    assert np.array_equal(sem0, sem7)
    assert np.abs(w0 - w7).max() < 1e-4


def test_per_frame_sampling_changes_points():
    cfg = corridor_config(frames=3, sampling="per-frame")
    ds = synth.generate(cfg)
    w0 = _world_points(ds, 0)
    w1 = _world_points(ds, 1)
    assert w0.shape == w1.shape
    assert not np.allclose(w0, w1, atol=1e-3)


def test_scans_are_sensor_frame(corridor_dataset):
    # the corridor walls straddle the sensor, so sensor-frame coordinates
    # must re-center as the sensor advances
    t = 15
    sensor = corridor_dataset.true_poses[t].translation
    pts = corridor_dataset.clouds[t].points
    world = _world_points(corridor_dataset, t)
    assert np.abs(world[:, 0].mean() - pts[:, 0].mean() - sensor[0]) < 0.5


def test_box_moves_at_configured_velocity(one_box_dataset):
    cfg = one_box_dataset.config
    box = next(b for b in cfg.bodies if isinstance(b, Box))
    step = np.asarray(box.velocity) / cfg.frequency
    for t in (0, 5, 12):
        moving_a = _world_points(one_box_dataset, t)[
            one_box_dataset.labels[t].instance > 0
        ]
        moving_b = _world_points(one_box_dataset, t + 1)[
            one_box_dataset.labels[t + 1].instance > 0
        ]
        # fixed sampling: same local jitter, so centroids displace exactly
        delta = moving_b.mean(axis=0) - moving_a.mean(axis=0)
        assert np.abs(delta - step).max() < 1e-4


def test_static_bodies_have_zero_instance(one_box_dataset):
    labels = one_box_dataset.labels[0]
    static = labels.semantic != 10
    assert np.all(labels.instance[static] == 0)
    assert np.all(labels.instance[~static] == 1)


def test_moving_boxes_get_distinct_instances():
    cfg = corridor_config(
        frames=3,
        bodies=corridor_config().bodies
        + (
            Box(10, (5.0, 3.0, 1.0), (2.0, 2.0, 2.0), (1.0, 0.0, 0.0)),
            Box(30, (8.0, -3.0, 1.0), (1.0, 1.0, 2.0), (0.0, 1.0, 0.0)),
            Box(10, (2.0, 0.0, 1.0), (1.0, 1.0, 1.0)),
        ),
    )
    ds = synth.generate(cfg)
    labels = ds.labels[0]
    ids = set(labels.instance.tolist())
    assert ids == {0, 1, 2}
    # the stationary box keeps instance 0
    sem_of_static_box = labels.semantic[(labels.instance == 0) & (labels.semantic == 10)]
    assert len(sem_of_static_box) > 0


def test_pose_path_interpolation():
    cfg = corridor_config(frames=5, path=((0.0, 0.0, 1.5), (4.0, 2.0, 1.5)))
    ds = synth.generate(cfg)
    want_x = np.linspace(0, 4, 5)
    want_y = np.linspace(0, 2, 5)
    for t in range(5):
        assert ds.true_poses[t].translation == pytest.approx([want_x[t], want_y[t], 1.5])


def test_pose_noise_perturbs_reported_only():
    cfg = corridor_config(frames=4, pose_noise_translation=0.05)
    clean = synth.generate(corridor_config(frames=4))
    noisy = synth.generate(cfg)
    for t in range(4):
        assert np.array_equal(clean.clouds[t].points, noisy.clouds[t].points)
        assert np.array_equal(
            clean.true_poses[t].translation, noisy.true_poses[t].translation
        )
    deltas = [
        np.abs(noisy.poses[t].translation - noisy.true_poses[t].translation).max()
        for t in range(4)
    ]
    assert max(deltas) > 0.0


def test_range_filter():
    cfg = corridor_config(frames=2, sensor_range=5.0)
    ds = synth.generate(cfg)
    for t in range(2):
        dist = np.linalg.norm(_world_points(ds, t) - ds.true_poses[t].translation, axis=1)
        assert dist.max() <= 5.0 + 1e-4
    far = synth.generate(corridor_config(frames=2))
    assert len(ds.clouds[0]) < len(far.clouds[0])


def test_box_has_no_bottom_face():
    cfg = corridor_config(
        frames=2,
        bodies=(Box(10, (0.0, 0.0, 2.0), (2.0, 2.0, 2.0)),),
        points_per_surface=20.0,
    )
    ds = synth.generate(cfg)
    pts = _world_points(ds, 0)
    # bottom plane z = 1 carries no samples; top plane z = 3 does
    assert not np.any(np.isclose(pts[:, 2], 1.0, atol=1e-6) & ~np.isclose(np.abs(pts[:, 0]), 1.0, atol=1e-6) & ~np.isclose(np.abs(pts[:, 1]), 1.0, atol=1e-6))
    assert np.any(np.isclose(pts[:, 2], 3.0, atol=1e-6))


def test_export_round_trip(tmp_path, one_box_dataset):
    export(one_box_dataset, tmp_path)
    (seq,) = lidar_io.build_manifest(tmp_path)
    assert seq.sequence_id == "00"
    assert seq.frame_count == len(one_box_dataset)
    for t in (0, 3, 20):
        cloud = lidar_io.read_scan(seq.scan_paths[t], t, "00")
        assert np.array_equal(cloud.points, one_box_dataset.clouds[t].points)
        labels = lidar_io.read_labels(seq.label_paths[t], len(cloud), t, "00")
        assert np.array_equal(labels.semantic, one_box_dataset.labels[t].semantic)
        assert np.array_equal(labels.instance, one_box_dataset.labels[t].instance)
        assert (
            np.abs(seq.poses[t].as_matrix() - one_box_dataset.poses[t].as_matrix()).max()
            < 1e-12
        )


def test_streamed_export_memory_does_not_grow_with_frames(tmp_path):
    def peak(frames):
        cfg = corridor_config(frames=frames, points_per_surface=4.0, sampling="per-frame")
        tracemalloc.start()
        try:
            synth.export(synth.frames(cfg), synth.reported_poses(cfg), tmp_path / str(frames))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(40)  # first-call allocations are not the export's
    # measured: 1.2x; building every frame before writing one gives 3.8x
    assert peak(160) <= 1.5 * peak(40)


def test_config_text_round_trip():
    cfg = one_box_config(pose_noise_translation=0.01, sampling="per-frame")
    text = synth.config_to_text(cfg)
    again = synth.parse_config(text.splitlines())
    assert again == cfg
    assert synth.config_to_text(again) == text


_COORD = st.floats(-1e3, 1e3)
_LENGTH = st.floats(0.0, 1e2)
_TRIPLE = st.tuples(_COORD, _COORD, _COORD)
_CLASS_ID = st.integers(1, 0xFFFF)
_BODIES = st.one_of(
    st.builds(lambda c, x, dx, y, dy, z: Ground(c, x, x + dx, y, y + dy, z),
              _CLASS_ID, _COORD, _LENGTH, _COORD, _LENGTH, _COORD),
    st.builds(Wall, _CLASS_ID, _COORD, _COORD, _COORD, _COORD, _LENGTH, _COORD),
    st.builds(Box, _CLASS_ID, _TRIPLE, st.tuples(_LENGTH, _LENGTH, _LENGTH),
              st.one_of(st.just((0.0, 0.0, 0.0)), _TRIPLE)),
)


@st.composite
def _configs(draw):
    path = tuple(draw(st.lists(_TRIPLE, min_size=1, max_size=4)))
    return SynthConfig(
        seed=draw(st.integers(0, 2**32)),
        frames=draw(st.integers(2, 30)),
        frequency=draw(st.floats(1e-3, 1e3)),
        sensor_range=draw(st.one_of(st.floats(1e-3, 1e3), st.just(math.inf))),
        points_per_surface=draw(st.floats(1e-3, 1e2)),
        sampling=draw(st.sampled_from(synth.SAMPLING_MODES)),
        pose_noise_translation=draw(st.floats(0.0, 10.0)),
        pose_noise_rotation=draw(st.floats(0.0, 1.0)),
        path=path,
        headings=draw(st.one_of(st.just(()), st.tuples(*[_COORD] * len(path)))),
        bodies=tuple(draw(st.lists(_BODIES, min_size=1, max_size=4))),
    )


@settings(max_examples=100, deadline=None)
@given(cfg=_configs())
def test_any_scene_round_trips_through_its_text(cfg):
    text = synth.config_to_text(cfg)
    again = synth.parse_config(text.splitlines())
    assert again == cfg
    assert synth.config_to_text(again) == text


def test_parse_config_minimal():
    cfg = synth.parse_config(["frames = 3", "ground = [1, -5, 5, -5, 5, 0]"])
    assert cfg.frames == 3
    assert cfg.bodies == (Ground(1, -5.0, 5.0, -5.0, 5.0, 0.0),)


def test_parse_config_rejects_unknown_key():
    with pytest.raises(ConfigError, match="unknown"):
        synth.parse_config(["no_such_key = 3"])


def test_parse_config_rejects_bad_arity():
    with pytest.raises(ConfigError, match="line 1"):
        synth.parse_config(["wall = [9, 0, 0, 1]"])


@pytest.mark.parametrize("overrides, message", [
    ({"frames": 1}, "frames must be >= 2"),
    ({"bodies": ()}, "scene has no bodies"),
    ({"headings": (0.0,)}, "1 headings for 2 waypoints"),
    ({"pose_noise_rotation": 1e200}, "pose_noise_rotation draws a rotation angle"),
    # instance ids are 16 bits, one per moving box
    ({"bodies": (Box(10, (0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (1.0, 0.0, 0.0)),) * 65536},
     "box: 65536 moving boxes"),
])
def test_invalid_config_cannot_be_built(overrides, message):
    # so no function that takes a config meets one it cannot run
    with pytest.raises(ConfigError, match=message):
        corridor_config(**overrides)


def test_ids_at_16_bits_are_accepted():
    moving = Box(0xFFFF, (0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (1.0, 0.0, 0.0))
    assert len(corridor_config(bodies=(moving,) * 0xFFFF).bodies) == 0xFFFF


def test_validate_rejects_bad_configs():
    base = corridor_config()
    with pytest.raises(ConfigError):
        synth.generate(corridor_config(frames=1))
    with pytest.raises(ConfigError):
        synth.generate(corridor_config(frequency=0.0))
    with pytest.raises(ConfigError):
        synth.generate(corridor_config(sampling="sometimes"))
    with pytest.raises(ConfigError):
        synth.generate(SynthConfig(frames=3, bodies=()))
    with pytest.raises(ConfigError):
        synth.generate(
            corridor_config(bodies=base.bodies + (Ground(0, -1, 1, -1, 1),))
        )
    with pytest.raises(ConfigError):
        synth.generate(corridor_config(headings=(0.0,)))


@pytest.mark.parametrize("box", [
    Box(10, (0.0, 0.0), (1.0, 1.0), (0.0, 0.0)),
    Box(10, (0.0, 0.0, 1.0), (1.0, 1.0, 1.0), (0.0, 0.0, 0.0, 0.0)),
])
def test_box_whose_triples_are_not_three_values_is_refused(box):
    # the scene format holds exactly three values per triple
    with pytest.raises(ConfigError, match="box expects 10 values"):
        SynthConfig(frames=2, bodies=(box,))


@pytest.mark.parametrize("line, named", [
    ("points_per_surface = nan", "points_per_surface"),
    ("points_per_surface = inf", "points_per_surface"),
    ("ground = [1, -5, inf, -5, 5, 0]", "ground"),
    ("ground = [1, -1e308, 1e308, -5, 5, 0]", "ground"),
    ("ground = [1, 5, -5, -5, 5, 0]", "ground"),
    ("ground = [1, -1e200, 1e200, -1e200, 1e200, 0]", "ground surface area"),
    # a finite area, but more points than one numpy array holds
    ("ground = [1, -1e10, 1e10, -1e10, 1e10, 0]", "ground surface area"),
    ("ground = [70000, -5, 5, -5, 5, 0]", "ground class ids must be in"),
    ("ground = [0, -5, 5, -5, 5, 0]", "ground class ids must be in"),
    ("ground = [nan, -5, 5, -5, 5, 0]", "line 3"),
    ("wall = [9, 0, 0, 1, 0, -1, 0]", "wall"),
    ("box = [10, 0, 0, 1, -1, 1, 1, 0, 0, 0]", "box"),
    ("box = [10, 0, 0, 1, 1, 1, 1, nan, 0, 0]", "box"),
    ("seed = -1", "seed"),
    ("sensor_range = nan", "sensor_range"),
    ("path = [0, 0, nan]", "path"),
    ("headings = [nan]", "headings"),
    ("frequency = nan", "frequency"),
    ("frequency = inf", "frequency"),
    ("pose_noise_translation = nan", "pose_noise_translation"),
    ("pose_noise_rotation = inf", "pose_noise_rotation"),
    # finite, but a draw overflows the rotation angle, or the offset of two positions
    ("pose_noise_rotation = 1e200", "pose_noise_rotation"),
    ("pose_noise_translation = 1e308", "pose_noise_translation"),
])
def test_parse_config_rejects_scene_it_cannot_build(line, named):
    with pytest.raises(ConfigError, match=named):
        synth.parse_config(["frames = 3", "ground = [1, -5, 5, -5, 5, 0]", line])


def test_infinite_sensor_range_keeps_every_point():
    cfg = synth.parse_config(["frames = 2", "sensor_range = inf", "ground = [1, -5, 5, -5, 5, 0]"])
    assert cfg.sensor_range == float("inf")
    assert [len(c) for c in synth.generate(cfg).clouds] == [200, 200]


def test_point_density_scales_with_area():
    small = SynthConfig(frames=2, bodies=(Ground(1, 0, 1, 0, 1),), points_per_surface=3.0)
    big = SynthConfig(frames=2, bodies=(Ground(1, 0, 10, 0, 10),), points_per_surface=3.0)
    n_small = len(synth.generate(small).clouds[0])
    n_big = len(synth.generate(big).clouds[0])
    assert n_small == 3
    assert n_big == 300


def test_float32_storage(one_box_dataset):
    pts = one_box_dataset.clouds[2].points
    assert pts.dtype == np.float64
    assert np.array_equal(pts, pts.astype(np.float32).astype(np.float64))
