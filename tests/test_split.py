"""Labeled-frame selection and split file round trips."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plelidar import split as sp
from plelidar.errors import ConfigError, DataError

# Frame counts of the ten standard odometry training sequences.
KITTI_LENGTHS = {
    "00": 4541, "01": 1101, "02": 4661, "03": 801, "04": 271,
    "05": 2761, "06": 1101, "07": 1101, "09": 1591, "10": 1201,
}


def test_round_half_up():
    assert sp.round_half_up(0.5) == 1
    assert sp.round_half_up(1.5) == 2
    assert sp.round_half_up(2.5) == 3
    assert sp.round_half_up(2.4) == 2
    assert sp.round_half_up(-0.5) == 0


def test_parse_ratio_forms():
    assert sp.parse_ratio("0.5%") == pytest.approx(0.005)
    assert sp.parse_ratio("0.005") == pytest.approx(0.005)
    assert sp.parse_ratio("1%") == pytest.approx(0.01)
    assert sp.parse_ratio("100%") == pytest.approx(1.0)


@pytest.mark.parametrize("bad", ["0", "0%", "-1%", "150%", "2.0", "pct", ""])
def test_parse_ratio_rejects(bad):
    with pytest.raises(ConfigError):
        sp.parse_ratio(bad)


def test_stride_frames_examples():
    assert sp.stride_frames(10, 2) == (0, 5)
    assert sp.stride_frames(10, 10) == tuple(range(10))
    assert sp.stride_frames(7, 1) == (0,)
    assert sp.stride_frames(100, 4) == (0, 25, 50, 75)


def test_stride_frames_always_unique_and_in_range():
    for length in range(1, 40):
        for count in range(1, length + 1):
            frames = sp.stride_frames(length, count)
            assert len(frames) == count
            assert len(set(frames)) == count
            assert all(0 <= f < length for f in frames)
            assert list(frames) == sorted(frames)


@pytest.mark.parametrize(
    "ratio,total",
    [(0.005, 95), (0.01, 191), (0.02, 382), (0.05, 956)],
)
def test_default_mode_matches_reference_totals(ratio, total):
    chosen = sp.sample_labeled(KITTI_LENGTHS, ratio)
    assert sp.labeled_total(chosen) == total


def test_global_floor_budget_allocation():
    # budget floor(0.5 * 30) = 15, split by largest remainder
    lengths = {"a": 10, "b": 20}
    chosen = sp.sample_labeled(lengths, 0.5)
    assert len(chosen["a"]) == 5
    assert len(chosen["b"]) == 10


def test_global_floor_remainder_prefers_earlier_sequence():
    # quotas 1.5 each with budget 3: both remainders tie at 0.5,
    # the extra frame must land on the lexicographically earlier id
    lengths = {"x": 15, "w": 15}
    chosen = sp.sample_labeled(lengths, 0.1)
    assert len(chosen["w"]) == 2
    assert len(chosen["x"]) == 1


def test_global_floor_minimum_one_frame():
    chosen = sp.sample_labeled({"00": 50}, 0.001)
    assert sp.labeled_total(chosen) == 1
    assert chosen["00"] == (0,)


def test_per_sequence_mode():
    lengths = {"00": 100, "01": 9}
    chosen = sp.sample_labeled(lengths, 0.01, mode="per-sequence")
    # 00: round_half_up(1.0) = 1; 01: max(1, round_half_up(0.09)) = 1
    assert len(chosen["00"]) == 1
    assert len(chosen["01"]) == 1


def test_per_sequence_rounding_uses_half_up():
    chosen = sp.sample_labeled({"00": 10}, 0.25, mode="per-sequence")
    # 2.5 rounds up to 3
    assert len(chosen["00"]) == 3


def test_unknown_mode():
    with pytest.raises(ConfigError):
        sp.sample_labeled({"00": 10}, 0.5, mode="nope")


def test_sample_labeled_full_ratio():
    lengths = {"00": 4, "01": 2}
    chosen = sp.sample_labeled(lengths, 1.0)
    assert chosen["00"] == (0, 1, 2, 3)
    assert chosen["01"] == (0, 1)


def test_split_file_round_trip(tmp_path):
    chosen = {"00": (0, 10, 20), "03": (5,)}
    path = tmp_path / "labeled.split"
    sp.write_split(chosen, path)
    again = sp.read_split(path)
    assert again == chosen


def test_read_split_reports_bad_line(tmp_path):
    path = tmp_path / "bad.split"
    path.write_text("[labeled]\n00 1\nnot-a-pair\n")
    with pytest.raises(DataError, match=":3"):
        sp.read_split(path)


def test_read_split_requires_header(tmp_path):
    path = tmp_path / "h.split"
    path.write_text("00 1\n")
    with pytest.raises(DataError, match=r"first line must be '\[labeled\]'"):
        sp.read_split(path)


def test_read_split_sorts_and_dedups(tmp_path):
    path = tmp_path / "d.split"
    path.write_text("[labeled]\n00 5\n00 1\n00 5\n")
    assert sp.read_split(path) == {"00": (1, 5)}


def test_validate_split():
    lengths = {"00": 10}
    sp.validate_split({"00": (0, 9)}, lengths)
    with pytest.raises(DataError):
        sp.validate_split({"00": (10,)}, lengths)
    with pytest.raises(DataError):
        sp.validate_split({"01": (0,)}, lengths)


@settings(max_examples=40, deadline=None)
@given(
    lengths=st.dictionaries(
        st.text("0123456789", min_size=2, max_size=2),
        st.integers(1, 500),
        min_size=1,
        max_size=6,
    ),
    ratio=st.floats(0.001, 1.0),
    mode=st.sampled_from(sp.MODES),
)
def test_sampling_invariants(lengths, ratio, mode):
    chosen = sp.sample_labeled(lengths, ratio, mode=mode)
    assert set(chosen) <= set(lengths)
    for seq, frames in chosen.items():
        assert len(frames) >= 1
        assert len(set(frames)) == len(frames)
        assert all(0 <= f < lengths[seq] for f in frames)
    total = sp.labeled_total(chosen)
    assert 1 <= total <= sum(lengths.values())


@settings(max_examples=25, deadline=None)
@given(
    chosen=st.dictionaries(
        st.text("0123456789", min_size=2, max_size=2),
        st.lists(st.integers(0, 999), min_size=1, max_size=8, unique=True).map(
            lambda v: tuple(sorted(v))
        ),
        min_size=1,
        max_size=4,
    )
)
def test_split_round_trip_any(tmp_path_factory, chosen):
    tmp = tmp_path_factory.mktemp("split")
    path = tmp / "s.split"
    sp.write_split(chosen, path)
    assert sp.read_split(path) == chosen
