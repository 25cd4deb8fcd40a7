"""The benchmark's workloads: scene, split, timed commands and derived seeds.

Every workload keeps its geometry fixed; the workload seed only moves the
sampled points (through the scene seed), the label noise and the oracle's
sample, so the amount of work barely changes from seed to seed. NOTES.md
records why each workload was chosen.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# The corridor of the ROADMAP baseline scene, and its two moving boxes.
CORRIDOR = (
    "ground = [1, -30.0, 70.0, -12.0, 12.0, 0.0]",
    "wall = [9, -30.0, -12.0, 70.0, -12.0, 6.0, 0.0]",
    "wall = [9, -30.0, 12.0, 70.0, 12.0, 6.0, 0.0]",
)
BASELINE_BOXES = (
    "box = [10, 4.0, 3.0, 1.1, 6.0, 2.0, 1.6, 5.0, 0.0, 0.0]",
    "box = [30, 10.0, -5.0, 1.0, 0.8, 0.8, 1.8, 0.0, 1.0, 0.0]",
)
# Extra traffic for progressive-moving: oncoming and overtaking cars and
# pedestrians crossing the corridor, each at its own speed.
CROSSING_BOXES = (
    "box = [10, 30.0, 6.0, 1.0, 4.5, 1.9, 1.5, -8.0, 0.0, 0.0]",
    "box = [10, -12.0, -2.5, 1.0, 4.5, 1.9, 1.5, 11.0, 0.0, 0.0]",
    "box = [30, 18.0, 9.0, 1.0, 0.8, 0.8, 1.8, 0.0, -2.5, 0.0]",
    "box = [30, 26.0, -9.0, 1.0, 0.8, 0.8, 1.8, 0.4, 1.6, 0.0]",
)
# A corridor long enough for a 15 s drive.
LONG_CORRIDOR = (
    "ground = [1, -30.0, 160.0, -12.0, 12.0, 0.0]",
    "wall = [9, -30.0, -12.0, 160.0, -12.0, 6.0, 0.0]",
    "wall = [9, -30.0, 12.0, 160.0, 12.0, 6.0, 0.0]",
)


@dataclass(frozen=True)
class Workload:
    name: str
    frames: int
    points_per_surface: float
    path: str
    bodies: tuple
    ratio: str
    stages: tuple  # timed commands after set-up, in order
    progressive: bool = False
    max_distance: float | None = None
    workers: int = 1  # handed to `ple` through a --config file
    train_steps: int = 500
    estimate_window: int = 0  # score-train: offset up to which estimates are written

    def scene(self, synth_seed: int) -> str:
        lines = [
            f"seed = {synth_seed}",
            f"frames = {self.frames}",
            "frequency = 10.0",
            "sensor_range = 60.0",
            f"points_per_surface = {self.points_per_surface}",
            "sampling = per-frame",
            f"path = {self.path}",
            *self.bodies,
        ]
        return "\n".join(lines) + "\n"


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="naive-dense",
            frames=40,
            points_per_surface=2.0,
            path="[0.0, 0.0, 1.5, 39.0, 0.0, 1.5]",
            bodies=CORRIDOR + BASELINE_BOXES,
            ratio="10%",
            stages=("ple", "eval"),
        ),
        Workload(
            name="progressive-moving",
            frames=40,
            points_per_surface=1.0,
            path="[0.0, 0.0, 1.5, 39.0, 0.0, 1.5]",
            bodies=CORRIDOR + BASELINE_BOXES + CROSSING_BOXES,
            ratio="10%",
            stages=("ple", "eval"),
            progressive=True,
            max_distance=0.5,
            workers=2,
        ),
        Workload(
            name="score-train",
            frames=150,
            points_per_surface=1.0,
            path="[0.0, 0.0, 1.5, 100.0, 0.0, 1.5]",
            bodies=LONG_CORRIDOR + BASELINE_BOXES,
            ratio="2%",
            stages=("eval", "train"),
            estimate_window=20,
        ),
    )
}


@dataclass(frozen=True)
class Seeds:
    workload: int
    synth: int
    noise: int
    oracle: int


def derive_seeds(seed: int) -> Seeds:
    """Independent scene, label-noise and oracle-sample seeds from one seed."""
    synth, noise, oracle = (
        int(child.generate_state(1)[0]) for child in np.random.SeedSequence(seed).spawn(3)
    )
    return Seeds(seed, synth, noise, oracle)
