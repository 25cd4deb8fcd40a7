"""Selection of the labeled subset of frames for a given annotation budget.

Frames are picked at an even temporal stride within each sequence. Two ways
of turning a ratio into per-sequence counts are supported:

* ``global-floor`` (default): the total budget is ``floor(ratio * frames)``
  over the whole dataset, apportioned to sequences by largest remainder of
  their length share. This keeps the dataset-wide labeled count exact.
* ``per-sequence``: each sequence independently gets
  ``max(1, round(ratio * length))`` frames, rounding half up.
"""

from __future__ import annotations

import math

from . import lidar_io
from .errors import ConfigError, DataError

MODES = ("global-floor", "per-sequence")


def round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def parse_ratio(text: str) -> float:
    """Parse a labeled ratio, either a decimal ("0.005") or percent ("0.5%")."""
    raw = text.strip()
    try:
        if raw.endswith("%"):
            value = float(raw[:-1]) / 100.0
        else:
            value = float(raw)
    except ValueError:
        raise ConfigError(f"cannot parse ratio {text!r}") from None
    if not 0.0 < value <= 1.0:
        raise ConfigError(f"ratio must be in (0, 1], got {value}")
    return value


def stride_frames(length: int, count: int) -> tuple:
    """`count` frame ids spread evenly over `0..length-1`, first one at 0."""
    if not 0 < count <= length:
        raise ConfigError(f"cannot pick {count} frames from {length}")
    return tuple(round_half_up(k * length / count) for k in range(count))


def _counts_global_floor(lengths: dict, ratio: float) -> dict:
    total = sum(lengths.values())
    budget = max(1, math.floor(ratio * total))
    quotas = {seq: budget * n / total for seq, n in lengths.items()}
    counts = {seq: math.floor(q) for seq, q in quotas.items()}
    leftover = budget - sum(counts.values())
    # Largest fractional remainder first; earlier sequence wins ties.
    order = sorted(lengths, key=lambda s: (-(quotas[s] - counts[s]), s))
    for seq in order:
        if leftover == 0:
            break
        if counts[seq] < lengths[seq]:
            counts[seq] += 1
            leftover -= 1
    if leftover:
        raise ConfigError(f"budget {budget} exceeds dataset size {total}")
    return counts


def _counts_per_sequence(lengths: dict, ratio: float) -> dict:
    return {seq: min(n, max(1, round_half_up(ratio * n))) for seq, n in lengths.items()}


def sample_labeled(lengths: dict, ratio: float, mode: str = "global-floor") -> dict:
    """Pick labeled frame ids per sequence.

    `lengths` maps sequence id to frame count; the result maps sequence id to
    a sorted tuple of frame ids (sequences allotted zero frames are omitted).
    """
    if not lengths:
        raise ConfigError("no sequences to sample from")
    if any(n <= 0 for n in lengths.values()):
        raise ConfigError("every sequence must have at least one frame")
    if not 0.0 < ratio <= 1.0:
        raise ConfigError(f"ratio must be in (0, 1], got {ratio}")
    if mode == "global-floor":
        counts = _counts_global_floor(lengths, ratio)
    elif mode == "per-sequence":
        counts = _counts_per_sequence(lengths, ratio)
    else:
        raise ConfigError(f"unknown split mode {mode!r}, expected one of {MODES}")
    return {
        seq: stride_frames(lengths[seq], m) for seq, m in counts.items() if m > 0
    }


def labeled_total(split: dict) -> int:
    return sum(len(v) for v in split.values())


def write_split(split: dict, path) -> None:
    lines = ["[labeled]"]
    for seq in sorted(split):
        for frame in split[seq]:
            lines.append(f"{seq} {frame}")
    lidar_io.write_lines(path, lines)


def read_split(path) -> dict:
    lines = lidar_io.read_lines(path, DataError)
    if not lines or lines[0].strip() != "[labeled]":
        raise DataError(f"{path}: first line must be '[labeled]'")
    split: dict = {}
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != 2:
            raise DataError(f"{path}:{lineno}: expected 'sequence frame', got {line!r}")
        seq, frame_text = parts
        try:
            frame = int(frame_text)
        except ValueError:
            raise DataError(f"{path}:{lineno}: frame id {frame_text!r} is not an integer") from None
        if frame < 0:
            raise DataError(f"{path}:{lineno}: negative frame id {frame}")
        split.setdefault(seq, []).append(frame)
    return {seq: tuple(sorted(set(frames))) for seq, frames in split.items()}


def validate_split(split: dict, lengths: dict) -> None:
    """Check every referenced frame exists; raises DataError otherwise."""
    for seq, frames in split.items():
        if seq not in lengths:
            raise DataError(f"split references unknown sequence {seq!r}")
        for frame in frames:
            if not 0 <= frame < lengths[seq]:
                raise DataError(
                    f"split references frame {frame} of sequence {seq!r} "
                    f"which has {lengths[seq]} frames"
                )
