"""Shared scene builders for the test suite."""

from __future__ import annotations

import pytest

from plelidar import synth


def corridor_config(**overrides) -> synth.SynthConfig:
    """Static corridor: ground strip with two side walls, sensor driving +x."""
    base = dict(
        seed=11,
        frames=20,
        frequency=10.0,
        sensor_range=500.0,
        points_per_surface=2.0,
        sampling="fixed",
        path=((0.0, 0.0, 1.5), (19.0, 0.0, 1.5)),
        bodies=(
            synth.Ground(1, -10.0, 30.0, -8.0, 8.0),
            synth.Wall(9, -10.0, -8.0, 30.0, -8.0, 3.0),
            synth.Wall(9, -10.0, 8.0, 30.0, 8.0, 3.0),
        ),
    )
    base.update(overrides)
    return synth.SynthConfig(**base)


def one_box_config(**overrides) -> synth.SynthConfig:
    """Corridor plus a single box crossing it at 0.5 m per frame, elevated
    so its points sit clear of the ground."""
    corridor = corridor_config()
    base = dict(
        seed=29,
        frames=21,
        frequency=10.0,
        sensor_range=500.0,
        points_per_surface=2.0,
        sampling="fixed",
        path=((0.0, 0.0, 1.5), (20.0, 0.0, 1.5)),
        bodies=corridor.bodies
        + (synth.Box(10, (4.0, 3.0, 1.1), (6.0, 2.0, 1.6), (5.0, 0.0, 0.0)),),
    )
    base.update(overrides)
    return synth.SynthConfig(**base)


def export(dataset: synth.SynthDataset, root):
    """Write an in-memory dataset through synth's streaming writer."""
    return synth.export(zip(dataset.clouds, dataset.labels), dataset.poses, root)


@pytest.fixture(scope="session")
def corridor_dataset():
    return synth.generate(corridor_config())


@pytest.fixture(scope="session")
def one_box_dataset():
    return synth.generate(one_box_config())
