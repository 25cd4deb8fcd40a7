"""End-to-end command line coverage over a small generated dataset."""

from __future__ import annotations

import csv
import filecmp
import logging
import os
import shutil
import subprocess
import sys
import threading
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from plelidar import cli, evaluation, lidar_io, ple, split as split_mod, ssl_mini, synth
from plelidar.errors import DataError

from conftest import corridor_config, export, one_box_config


def _scene_file(tmp_path, cfg) -> Path:
    path = tmp_path / "scene.config"
    path.write_text(synth.config_to_text(cfg))
    return path


def _csv_rows(path) -> list:
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def _tree_bytes(root: Path, skip_names=()) -> dict:
    out = {}
    for p in sorted(root.rglob("*")):
        if p.is_file() and p.name not in skip_names:
            out[str(p.relative_to(root))] = p.read_bytes()
    return out


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One synthesized dataset with a split, reused by the read-only tests."""
    root = tmp_path_factory.mktemp("cliws")
    scene = _scene_file(root, one_box_config(frames=12, points_per_surface=1.0))
    data = root / "data"
    assert cli.main(["synth", "--config", str(scene), "--out", str(data)]) == 0
    split = root / "labeled.split"
    assert (
        cli.main(
            ["split", "--root", str(data), "--ratio", "10%", "--out", str(split)]
        )
        == 0
    )
    return {"root": root, "data": data, "split": split}


def test_synth_writes_dataset_and_echo(tmp_path, capsys):
    scene = _scene_file(tmp_path, corridor_config(frames=3, points_per_surface=1.0))
    out = tmp_path / "ds"
    assert cli.main(["synth", "--config", str(scene), "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "frames=3" in printed and "out=" in printed
    assert (out / "sequences" / "00" / "velodyne" / "000000.bin").is_file()
    assert (out / "sequences" / "00" / "labels" / "000002.label").is_file()
    assert (out / "sequences" / "00" / "poses.txt").is_file()
    assert (out / "sequences" / "00" / "calib.txt").is_file()
    # the echoed config parses back to the same scene
    echoed = synth.parse_config((out / "synth.config").read_text().splitlines())
    assert echoed == synth.parse_config(scene.read_text().splitlines())


def test_synth_requires_config(tmp_path, capsys):
    assert cli.main(["synth", "--out", str(tmp_path / "x")]) == 2
    assert "requires --config" in capsys.readouterr().err


def test_synth_is_reproducible(tmp_path):
    scene = _scene_file(tmp_path, corridor_config(frames=3, points_per_surface=1.0))
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["synth", "--config", str(scene), "--out", str(a)]) == 0
    assert cli.main(["synth", "--config", str(scene), "--out", str(b)]) == 0
    assert _tree_bytes(a) == _tree_bytes(b)


@pytest.mark.parametrize("sampling", ["fixed", "per-frame"])
def test_synth_output_equals_writing_generate(tmp_path, capsys, sampling):
    cfg = one_box_config(frames=6, points_per_surface=1.0, sampling=sampling,
                         pose_noise_translation=0.05, pose_noise_rotation=0.01)
    streamed, in_memory = tmp_path / "streamed", tmp_path / "in_memory"
    scene = _scene_file(tmp_path, cfg)
    assert cli.main(["synth", "--config", str(scene), "--out", str(streamed)]) == 0
    dataset = synth.generate(cfg)
    export(dataset, in_memory)
    assert _tree_bytes(streamed, skip_names=("synth.config",)) == _tree_bytes(in_memory)
    points = sum(len(cloud) for cloud in dataset.clouds)
    assert capsys.readouterr().out == f"frames=6 points={points} out={streamed}\n"


@pytest.mark.parametrize("k", [1, 5])
def test_failed_synth_takes_away_the_synth_config_of_a_finished_run(tmp_path, monkeypatch,
                                                                    capsys, k):
    out = tmp_path / "ds"
    first = _scene_file(tmp_path, one_box_config(frames=8, points_per_surface=1.0, seed=3))
    assert cli.main(["synth", "--config", str(first), "--out", str(out)]) == 0
    second = tmp_path / "second.config"
    second.write_text(synth.config_to_text(
        one_box_config(frames=8, points_per_surface=1.0, seed=4)))
    calls = Counter()

    def write(labels, path, _real=lidar_io.write_labels):
        calls["write"] += 1
        if calls["write"] == k:
            raise OSError(f"{path}: injected")
        _real(labels, path)

    monkeypatch.setattr(lidar_io, "write_labels", write)
    capsys.readouterr()
    # frames 0..k-2 are the second scene's, so no synth.config may vouch for them
    assert cli.main(["synth", "--config", str(second), "--out", str(out)]) == 3
    label = out / "sequences" / "00" / "labels" / f"{k - 1:06d}.label"
    assert capsys.readouterr().err == f"error: {label}: injected\n"
    assert not (out / "synth.config").exists()


def test_synth_scene_it_cannot_parse_leaves_a_finished_run_in_place(tmp_path, capsys):
    out = tmp_path / "ds"
    scene = _scene_file(tmp_path, corridor_config(frames=3, points_per_surface=1.0))
    assert cli.main(["synth", "--config", str(scene), "--out", str(out)]) == 0
    before = _tree_bytes(out)
    bad = tmp_path / "bad.config"
    bad.write_text("frames = three\n")
    assert cli.main(["synth", "--config", str(bad), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {bad}:1: ")
    assert _tree_bytes(out) == before


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("line, message", [
    ("pose_noise_rotation = 1e200",
     "pose_noise_rotation draws a rotation angle too large to compute, got 1e+200"),
    ("pose_noise_translation = 1e308",
     "pose_noise_translation draws positions too far apart to compute their offset, got 1e+308"),
])
def test_synth_pose_noise_that_overflows_leaves_a_finished_run_in_place(tmp_path, capsys,
                                                                       line, message):
    out = tmp_path / "ds"
    scene = _scene_file(tmp_path, corridor_config(frames=3, points_per_surface=1.0))
    assert cli.main(["synth", "--config", str(scene), "--out", str(out)]) == 0
    before = _tree_bytes(out)
    noisy = tmp_path / "noisy.config"
    noisy.write_text(f"frames = 3\nground = [1, -5, 5, -5, 5, 0]\n{line}\n")
    capsys.readouterr()
    assert cli.main(["synth", "--config", str(noisy), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {noisy}: {message}\n"
    assert _tree_bytes(out) == before


@pytest.fixture(scope="module")
def estimates(workspace):
    """Naive estimates over the shared workspace, read by the eval tests."""
    est = workspace["root"] / "est"
    assert cli.main(["ple", "--root", str(workspace["data"]), "--split",
                     str(workspace["split"]), "--out", str(est)]) == 0
    return est


def test_split_counts_and_files(workspace, capsys):
    out = workspace["root"] / "fresh.split"
    code = cli.main(
        ["split", "--root", str(workspace["data"]), "--ratio", "25%", "--out", str(out)]
    )
    assert code == 0
    assert "labeled=3 unlabeled=9 total=12" in capsys.readouterr().out
    text = out.read_text()
    assert text.startswith("[labeled]\n")
    # the echo holds the parsed ratio, not the text given on the command line
    assert cli.read_flat(workspace["root"] / "fresh.split.config")["ratio"] == "0.25"


def test_split_bad_ratio_exits_config(workspace, capsys):
    code = cli.main(
        ["split", "--root", str(workspace["data"]), "--ratio", "0", "--out", "/tmp/x"]
    )
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_missing_dataset_exits_data(tmp_path, capsys):
    code = cli.main(
        ["split", "--root", str(tmp_path / "void"), "--ratio", "10%", "--out", "/tmp/x"]
    )
    assert code == 3


def _argv(command, data, split, est, out) -> list:
    """A run of `command` over the dataset `data`, with the flags it needs."""
    argv = [command, "--root", str(data), "--out", str(out)]
    if command == "split":
        return argv + ["--ratio", "10%"]
    argv += ["--split", str(split)]
    if command in ("eval", "train"):
        argv += ["--ple-dir", str(est)]
    return argv + (["--steps", "1"] if command == "train" else [])


@pytest.mark.parametrize("command", ["split", "ple", "eval", "train"])
def test_sequence_without_calibration_exits_data(workspace, estimates, tmp_path, capsys,
                                                 command):
    data = tmp_path / "data"
    shutil.copytree(workspace["data"], data)
    calib = data / "sequences" / "00" / "calib.txt"
    calib.unlink()
    out = tmp_path / "out"
    assert cli.main(_argv(command, data, workspace["split"], estimates, out)) == 3
    assert capsys.readouterr().err == f"error: sequence 00: missing {calib}\n"
    assert not out.exists()


@pytest.mark.parametrize("name, message", [
    ("poses.txt", ":1: non-numeric pose entry"),
    ("velodyne/abc.bin", ": scan file name is not a frame number"),
    ("labels/abc.label", ": label file name is not a frame number"),
    ("poses.txt", ":1: rotation has determinant -1, a reflection"),
    ("calib.txt", ":1: rotation has determinant -1, a reflection"),
])
def test_broken_dataset_file_exits_data(workspace, tmp_path, capsys, name, message):
    data = tmp_path / "data"
    shutil.copytree(workspace["data"], data)
    path = data / "sequences" / "00" / name
    if "reflection" in message:
        # the first pose, or the extrinsic, with its z axis mirrored: read as
        # a rotation, it would silently become another one
        first, *rest = path.read_text().splitlines()
        words = first.split()
        words[-2] = "-1"
        path.write_text("\n".join([" ".join(words), *rest]) + "\n")
    elif name == "poses.txt":
        path.write_text("x" + path.read_text())  # the first entry reads 'x1'
    else:
        shutil.copy(path.parent / f"000000{path.suffix}", path)
    out = tmp_path / "out"
    assert cli.main(_argv("split", data, None, None, out)) == 3
    assert capsys.readouterr().err == f"error: {path}{message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["split", "ple", "eval", "train"])
@pytest.mark.parametrize("name, kind", [("velodyne/000003.bin", "scan"),
                                        ("labels/000003.label", "label")])
def test_directory_named_as_a_frame_file_exits_data(workspace, estimates, tmp_path, capsys,
                                                   command, name, kind):
    # refused when the dataset is listed, before its size is taken as a point count
    data = tmp_path / "data"
    shutil.copytree(workspace["data"], data)
    path = data / "sequences" / "00" / name
    path.unlink()
    path.mkdir()
    out = tmp_path / "out"
    assert cli.main(_argv(command, data, workspace["split"], estimates, out)) == 3
    assert capsys.readouterr().err == f"error: {path}: {kind} is not a file\n"
    assert not out.exists()


@pytest.mark.parametrize("line, message", [
    ("00 x", "frame id 'x' is not an integer"),
    ("00 -1", "negative frame id -1"),
])
def test_split_file_bad_frame_id_exits_data(workspace, tmp_path, capsys, line, message):
    split = tmp_path / "bad.split"
    split.write_text(f"[labeled]\n00 0\n{line}\n")
    out = tmp_path / "out"
    assert cli.main(_argv("ple", workspace["data"], split, None, out)) == 3
    assert capsys.readouterr().err == f"error: {split}:3: {message}\n"
    assert not out.exists()


def test_ple_naive_then_eval(workspace, tmp_path, capsys):
    est = tmp_path / "est"
    code = cli.main(
        [
            "ple",
            "--root", str(workspace["data"]),
            "--split", str(workspace["split"]),
            "--out", str(est),
        ]
    )
    assert code == 0
    printed = capsys.readouterr().out
    assert printed.startswith("frames=")
    ple_files = sorted((est / "00").glob("*.ple"))
    assert len(ple_files) > 0
    assert all(p.with_suffix(".meta").is_file() for p in ple_files)

    rep = tmp_path / "rep"
    code = cli.main(
        [
            "eval",
            "--root", str(workspace["data"]),
            "--ple-dir", str(est),
            "--split", str(workspace["split"]),
            "--group-by-offset",
            "--format", "both",
            "--out", str(rep),
        ]
    )
    assert code == 0
    printed = capsys.readouterr().out
    assert "miou=" in printed and "mprecision=" in printed
    for name in ("report.csv", "report.jsonl", "curve.csv", "curve.jsonl", "eval.config"):
        assert (rep / name).is_file()
    curve_rows = (rep / "curve.csv").read_text().splitlines()
    assert curve_rows[0] == "offset,accuracy"
    assert len(curve_rows) > 1


def test_ple_worker_count_keeps_bytes_identical(workspace, tmp_path):
    outs = []
    for workers in ("1", "8"):
        est = tmp_path / f"w{workers}"
        code = cli.main(
            [
                "ple",
                "--root", str(workspace["data"]),
                "--split", str(workspace["split"]),
                "--workers", workers,
                "--progressive",
                "--out", str(est),
            ]
        )
        assert code == 0
        outs.append(_tree_bytes(est, skip_names=("ple.config",)))
    assert outs[0] == outs[1]


@pytest.mark.parametrize("progressive", [False, True], ids=["naive", "progressive"])
def test_ple_window_is_seconds_times_frequency(workspace, tmp_path, progressive):
    def run(name, frequency, seconds):
        est = tmp_path / name
        assert cli.main(["ple", "--root", str(workspace["data"]), "--split",
                         str(workspace["split"]), "--frequency", frequency,
                         "--window-seconds", seconds, "--out", str(est),
                         *(["--progressive"] if progressive else [])]) == 0
        return _tree_bytes(est, skip_names=("ple.config",))

    ten_frames = run("10hz-1s", "10", "1")
    assert run("5hz-2s", "5", "2") == ten_frames
    # half the window reaches fewer frames
    assert len(run("5hz-1s", "5", "1")) < len(ten_frames)


@pytest.mark.parametrize("flags", [["--window-seconds", "1e308"],
                                   ["--frequency", "1e308", "--window-seconds", "10"]],
                         ids=" ".join)
def test_ple_unusable_window_leaves_a_finished_run_in_place(workspace, estimates, tmp_path,
                                                           capsys, flags):
    out = tmp_path / "est"
    shutil.copytree(estimates, out)
    before = _tree_bytes(out)
    assert "ple.config" in before
    assert cli.main(["ple", "--root", str(workspace["data"]), "--split",
                     str(workspace["split"]), *flags, "--out", str(out)]) == 2
    assert "is not a positive, finite number of frames" in capsys.readouterr().err
    assert _tree_bytes(out) == before


@pytest.mark.filterwarnings("error")
def test_ple_refuses_poses_too_far_apart_to_square_their_distances(tmp_path, capsys):
    # reported positions 1e300 m apart would overflow the kd-tree's squared
    # distances to inf, where every match ties
    scene = _scene_file(tmp_path, corridor_config(frames=3, points_per_surface=1.0,
                                                  pose_noise_translation=1e300))
    data, split, out = tmp_path / "data", tmp_path / "labeled.split", tmp_path / "est"
    assert cli.main(["synth", "--config", str(scene), "--out", str(data)]) == 0
    assert cli.main(["split", "--root", str(data), "--ratio", "34%", "--out", str(split)]) == 0
    capsys.readouterr()
    assert cli.main(["ple", "--root", str(data), "--split", str(split), "--out", str(out)]) == 3
    assert capsys.readouterr().err == ("error: sequence 00, frame 1: points contain a "
                                       "coordinate of magnitude above 1e+150 m\n")
    assert not (out / "ple.config").exists()


def test_ple_starts_no_thread(workspace, tmp_path, monkeypatch):
    def refuse(self):
        raise AssertionError("ple started a thread")

    # a middle root gives every round two targets, one on each side
    middle = tmp_path / "middle.split"
    split_mod.write_split({"00": (5,)}, middle)
    monkeypatch.setattr(threading.Thread, "start", refuse)
    code = cli.main(
        [
            "ple",
            "--root", str(workspace["data"]),
            "--split", str(middle),
            "--workers", "8",
            "--progressive",
            "--out", str(tmp_path / "e"),
        ]
    )
    assert code == 0


@pytest.mark.parametrize(
    "line, message",
    [("progressive = False", "progressive = 'False' is not true or false"),
     ("workers = two", "workers = 'two' is not a valid int")],
)
def test_ple_config_file_bad_value_exits_config(workspace, tmp_path, capsys, line, message):
    config = tmp_path / "ple.config"
    config.write_text(line + "\n")
    code = cli.main(
        [
            "ple",
            "--root", str(workspace["data"]),
            "--split", str(workspace["split"]),
            "--config", str(config),
            "--out", str(tmp_path / "e"),
        ]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert str(config) in err and message in err
    assert not (tmp_path / "e").exists()


@pytest.mark.parametrize(
    "command, line, message",
    [("eval", "format = xml", "format = 'xml' is not one of csv, json, both"),
     ("split", "mode = sideways", "mode = 'sideways' is not one of global-floor, per-sequence")],
    ids=["eval-format", "split-mode"],
)
def test_config_file_value_outside_choices_exits_config(
    workspace, estimates, tmp_path, capsys, command, line, message
):
    config = tmp_path / f"{command}.config"
    config.write_text(line + "\n")
    flags = {"eval": ["--ple-dir", str(estimates)], "split": ["--ratio", "10%"]}[command]
    out = tmp_path / "r"
    code = cli.main([command, "--root", str(workspace["data"]), *flags,
                     "--config", str(config), "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert str(config) in err and message in err
    assert not out.exists()


def test_config_file_help_key_is_ignored(workspace, tmp_path):
    config = tmp_path / "ple.config"
    config.write_text("help = yes\nmax_refs = 3\n")
    out = tmp_path / "e"
    code = cli.main(["ple", "--root", str(workspace["data"]), "--split", str(workspace["split"]),
                     "--config", str(config), "--out", str(out)])
    assert code == 0
    echoed = cli.read_flat(out / "ple.config")
    assert "help" not in echoed and echoed["max_refs"] == "3"


def _replay_flags(command, workspace, estimates) -> list:
    data, split = str(workspace["data"]), str(workspace["split"])
    return {
        "synth": ["--config", str(workspace["root"] / "scene.config")],
        "split": ["--root", data, "--ratio", "25%", "--mode", "per-sequence"],
        "ple": ["--root", data, "--split", split, "--progressive", "--window-seconds", "0.5",
                "--max-refs", "2", "--max-distance", "0.75"],
        "eval": ["--root", data, "--ple-dir", str(estimates), "--split", split,
                 "--group-by-offset", "--format", "both", "--ignore-class", "255"],
        "train": ["--root", data, "--split", split, "--steps", "4", "--batch-size", "32",
                  "--hidden", "4", "--max-points", "800", "--tau", "0.5", "--single-branch"],
    }[command]


def _run_outputs(command, out: Path) -> dict:
    """Every file a run wrote; the echo's own out path becomes a placeholder."""
    if command == "split":
        files = {"split": out.read_bytes(), "split.config": Path(f"{out}.config").read_bytes()}
    else:
        files = _tree_bytes(out)
    return {name: data.replace(str(out).encode(), b"<out>") if name.endswith(".config") else data
            for name, data in files.items()}


def test_flag_defaults_equal_the_config_defaults():
    _, commands = cli.build_parser()
    pairs = {
        ("ple", ple.PleConfig()): {"window_seconds": "window_seconds",
                                   "max_refs": "max_references",
                                   "max_distance": "max_distance",
                                   "frequency": "frequency",
                                   "progressive": "progressive"},
        ("train", ssl_mini.SSLConfig()): {"lambda_mt": "lambda_mt", "tau": "tau",
                                          "alpha_ema": "alpha_ema", "lr": "learning_rate",
                                          "steps": "steps", "batch_size": "batch_size",
                                          "hidden": "hidden", "seed": "seed"},
    }
    for (command, cfg), fields in pairs.items():
        for dest, field in fields.items():
            default = commands[command].get_default(dest)
            assert default == getattr(cfg, field), (command, dest)
            assert type(default) is type(getattr(cfg, field)), (command, dest)


@pytest.mark.parametrize("command", ["synth", "split", "ple", "eval", "train"])
def test_every_command_replays_from_its_echo(workspace, estimates, tmp_path, command):
    first, again = tmp_path / "first", tmp_path / "again"
    flags = _replay_flags(command, workspace, estimates)
    assert cli.main([command, *flags, "--out", str(first)]) == 0
    echo = Path(f"{first}.config") if command == "split" else first / f"{command}.config"
    if command != "synth":  # synth's echo is its scene, not its flags
        _, commands = cli.build_parser()
        dests = {action.dest for action in commands[command]._actions} - {"help", "config"}
        assert set(cli.read_flat(echo)) == dests
    assert cli.main([command, "--config", str(echo), "--out", str(again)]) == 0
    assert _run_outputs(command, again) == _run_outputs(command, first)


@pytest.mark.parametrize("form", ["separate", "joined"])
@pytest.mark.parametrize("command", ["split", "ple", "eval", "train"])
def test_abbreviated_config_flag_applies_the_file(workspace, estimates, tmp_path, command, form):
    # argparse takes --conf for --config, so the file must not be skipped
    first, again = tmp_path / "first", tmp_path / "again"
    assert cli.main([command, *_replay_flags(command, workspace, estimates),
                     "--out", str(first)]) == 0
    echo = Path(f"{first}.config") if command == "split" else first / f"{command}.config"
    flag = ["--conf", str(echo)] if form == "separate" else [f"--conf={echo}"]
    assert cli.main([command, *flag, "--out", str(again)]) == 0
    assert _run_outputs(command, again) == _run_outputs(command, first)


def test_config_flag_without_a_value_is_a_usage_error(workspace, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["ple", "--root", str(workspace["data"]), "--split", str(workspace["split"]),
                  "--out", str(tmp_path / "e"), "--config"])
    assert exc.value.code == 2
    assert capsys.readouterr().err == ("usage: ple ple [--config CONFIG]\n"
                                       "ple ple: error: argument --config: expected one argument\n")
    assert not (tmp_path / "e").exists()


@pytest.mark.parametrize("command", ["split", "eval", "train"])
def test_old_echo_with_frequency_still_replays(workspace, estimates, tmp_path, command):
    # only ple takes --frequency; echoes written before the other commands
    # dropped it still hold the key, which is ignored
    config = tmp_path / "old.config"
    config.write_text("frequency = 5\n")
    out = tmp_path / "r"
    flags = _replay_flags(command, workspace, estimates)
    assert cli.main([command, *flags, "--config", str(config), "--out", str(out)]) == 0
    echo = Path(f"{out}.config") if command == "split" else out / f"{command}.config"
    assert "frequency" not in cli.read_flat(echo)


def test_echoed_paths_holding_a_hash_replay(workspace, tmp_path):
    # only a line that starts with '#' is a comment; a value keeps its '#'
    data, split = tmp_path / "data#1", tmp_path / "labeled#1.split"
    shutil.copytree(workspace["data"], data)
    shutil.copy(workspace["split"], split)
    first, again = tmp_path / "first#1", tmp_path / "again"
    assert cli.main(["ple", "--root", str(data), "--split", str(split), "--out", str(first)]) == 0
    replay = tmp_path / "replay.config"
    replay.write_text("# a comment\n  # an indented one\n" + (first / "ple.config").read_text())
    assert cli.main(["ple", "--config", str(replay), "--out", str(again)]) == 0
    assert _run_outputs("ple", again) == _run_outputs("ple", first)


@pytest.mark.parametrize("command", ["split", "ple"])
@pytest.mark.parametrize("name", ["est ", " est", "e\nst", "e\rst"])
def test_setting_its_echo_cannot_replay_exits_config(workspace, tmp_path, monkeypatch, capsys,
                                                      command, name):
    # read_flat strips a value and splits lines, so such a value would
    # replay as another path; the run is refused before it writes anything
    monkeypatch.chdir(tmp_path)
    flags = {"split": ["--ratio", "10%"], "ple": ["--split", str(workspace["split"])]}[command]
    argv = [command, "--root", str(workspace["data"]), *flags, "--out", name]
    assert cli.main(argv) == cli.EXIT_CONFIG
    assert "cannot be echoed" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == []


@pytest.mark.parametrize("command, name, index, value", [
    ("split", "poses.txt", 0, "inf"),
    ("split", "poses.txt", 1, "nan"),
    ("split", "poses.txt", 3, "nan"),
    ("split", "calib.txt", 0, "inf"),
    ("split", "calib.txt", 1, "nan"),
    ("split", "calib.txt", 3, "nan"),
    ("ple", "poses.txt", 0, "inf"),
    ("ple", "calib.txt", 0, "inf"),
])
def test_non_finite_pose_or_calibration_exits_data(workspace, tmp_path, command, name, index,
                                                   value):
    # run in a subprocess with a timeout, so that a command that hangs fails
    # this test instead of stalling the suite
    data = tmp_path / "data"
    shutil.copytree(workspace["data"], data)
    path = data / "sequences" / "00" / name
    lines = path.read_text().splitlines()
    words = lines[0].split()
    words[index + (name == "calib.txt")] = value  # the calib row starts with "Tr:"
    path.write_text("\n".join([" ".join(words), *lines[1:]]) + "\n")
    flags = {"split": ["--ratio", "10%"], "ple": ["--split", str(workspace["split"])]}[command]
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "plelidar.cli", command, "--root", str(data), *flags,
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True, timeout=30,
        env={**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")},
    )
    assert proc.returncode == 3, proc.stderr
    assert f"{path}:1: non-finite pose entry" in proc.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["split", "synth"])
def test_runs_do_not_depend_on_the_locale(workspace, tmp_path, command):
    # an ASCII locale with UTF-8 mode off reads and writes UTF-8 all the same
    out = tmp_path / "out"
    if command == "synth":
        config = _scene_file(tmp_path, corridor_config(frames=3, points_per_surface=1.0))
        config.write_text("# scène, café\n" + config.read_text(), encoding="utf-8")
        argv = ["synth", "--config", str(config), "--out", str(out)]
    else:
        config = tmp_path / "split.config"
        config.write_text("# café\nratio = 25%\nmode = global-floor\n", encoding="utf-8")
        argv = ["split", "--config", str(config), "--root", str(workspace["data"]),
                "--out", str(out / "labeled.split")]
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    outputs = []
    for locale_env in ({"PYTHONUTF8": "1"}, {"PYTHONUTF8": "0", "LC_ALL": "C"}):
        out.mkdir()
        proc = subprocess.run([sys.executable, "-m", "plelidar.cli", *argv], capture_output=True,
                              timeout=60, env={**env, **locale_env})
        assert proc.returncode == 0, proc.stderr
        outputs.append((proc.stdout, _tree_bytes(out)))
        shutil.rmtree(out)
    assert outputs[0] == outputs[1]
    assert outputs[0][1]


# per command: a module it runs, and the modules it must not load
COMMAND_MODULES = {
    "synth": ("synth", {"ple", "spatial_index", "ssl_mini", "evaluation"}),
    "split": ("split", {"ple", "spatial_index", "synth", "ssl_mini", "evaluation"}),
    "ple": ("ple", {"synth", "ssl_mini", "evaluation"}),
    "eval": ("evaluation", {"synth", "ssl_mini"}),
    "train": ("ssl_mini", {"synth"}),
}


@pytest.fixture(scope="module")
def numpy_loads_ma():
    """Whether a bare `import numpy` loads numpy.ma: numpy 1.x does, and
    numpy 2.x leaves it to the first use, such as a plain np.unique."""
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, numpy; print('numpy.ma' in sys.modules)"],
        capture_output=True, text=True, timeout=60, check=True)
    return proc.stdout.split() == ["True"]


@pytest.mark.parametrize("command", sorted(COMMAND_MODULES))
def test_each_command_loads_only_the_modules_it_runs(workspace, estimates, tmp_path, command,
                                                     numpy_loads_ma):
    data, split = str(workspace["data"]), str(workspace["split"])
    scene = _scene_file(tmp_path, corridor_config(frames=2, points_per_surface=1.0))
    flags = {
        "synth": ["--config", str(scene)],
        "split": ["--root", data, "--ratio", "10%"],
        "ple": ["--root", data, "--split", split],
        "eval": ["--root", data, "--ple-dir", str(estimates)],
        "train": ["--root", data, "--split", split, "--ple-dir", str(estimates), "--steps", "2"],
    }[command]
    script = ("import sys\n"
              "from plelidar import cli\n"
              "code = cli.main(sys.argv[1:])\n"
              "print('numpy.ma' in sys.modules)\n"
              "print(*sorted(m.split('.')[1] for m in sys.modules if m.startswith('plelidar.')))\n"
              "sys.exit(code)\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", script, command, *flags, "--out", str(tmp_path / "out")],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")},
    )
    assert proc.returncode == 0, proc.stderr
    *_, loads_ma, modules = proc.stdout.splitlines()
    loaded = set(modules.split())
    runs, unused = COMMAND_MODULES[command]
    assert runs in loaded
    assert not loaded & unused
    # numpy.ma costs about 9 ms of import; only numpy itself may load it
    assert loads_ma == "False" or numpy_loads_ma


def test_synth_scene_it_cannot_build_exits_config(tmp_path, capsys):
    scene = tmp_path / "scene.config"
    scene.write_text(synth.config_to_text(one_box_config()) + "points_per_surface = nan\n")
    assert cli.main(["synth", "--config", str(scene), "--out", str(tmp_path / "ds")]) == 2
    assert capsys.readouterr().err == (
        f"error: {scene}: points_per_surface must be positive and finite, got nan\n")
    assert not (tmp_path / "ds").exists()


@pytest.mark.parametrize("ground", [
    "[1, -1e200, 1e200, -1e200, 1e200, 0]",  # an area too large to be a finite number
    "[1, -1e10, 1e10, -1e10, 1e10, 0]",  # a count too large for one numpy array
])
def test_synth_surface_it_cannot_sample_exits_config(tmp_path, capsys, ground):
    scene = tmp_path / "scene.config"
    scene.write_text(f"frames = 2\nground = {ground}\n")
    assert cli.main(["synth", "--config", str(scene), "--out", str(tmp_path / "ds")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {scene}: ground surface area times points_per_surface")
    assert not (tmp_path / "ds").exists()


@pytest.mark.parametrize("bodies, message", [
    (["ground = [70000, -10.0, 20.0, -8.0, 8.0, 0.0]"],
     "ground class ids must be in [1, 65535] to fit a label's 16 bits, got 70000"),
    (["box = [10, 0, 0, 0, 0.1, 0.1, 0.1, 1, 0, 0]"] * 65536,
     "box: 65536 moving boxes, but their instance ids must be in [1, 65535] to fit a "
     "label's 16 bits"),
])
def test_synth_ids_beyond_16_bits_exit_config_before_writing(tmp_path, capsys, bodies, message):
    scene = tmp_path / "scene.config"
    scene.write_text("\n".join(["frames = 2", "points_per_surface = 0.001", *bodies]) + "\n")
    out = tmp_path / "ds"
    assert cli.main(["synth", "--config", str(scene), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {scene}: {message}\n"
    assert not out.exists()


def test_synth_missing_scene_file_exits_config(tmp_path, capsys):
    nope = tmp_path / "nope.scene"
    assert cli.main(["synth", "--config", str(nope), "--out", str(tmp_path / "ds")]) == 2
    assert str(nope) in capsys.readouterr().err
    assert not (tmp_path / "ds").exists()


@pytest.mark.parametrize("line, message", [
    ("frames", "expected 'key = value', got 'frames'"),
    ("box = 1, 2", "box expects a bracketed list"),
    ("frames = x", "bad value for frames: 'x'"),
    ("path = [1, 2]", "path needs 3 values per waypoint"),
    ("ground = [1, a, 2, 3, 4, 5]", "non-numeric entry in ground"),
])
def test_synth_bad_scene_line_exits_config_naming_file_and_line(tmp_path, capsys, line,
                                                                 message):
    scene = tmp_path / "scene.config"
    scene.write_text(f"frames = 3\nground = [1, -5, 5, -5, 5, 0]\n{line}\n")
    assert cli.main(["synth", "--config", str(scene), "--out", str(tmp_path / "ds")]) == 2
    assert capsys.readouterr().err == f"error: {scene}:3: {message}\n"
    assert not (tmp_path / "ds").exists()


def test_ple_fully_labeled_notice(workspace, tmp_path, capsys):
    full = tmp_path / "full.split"
    assert (
        cli.main(
            [
                "split",
                "--root", str(workspace["data"]),
                "--ratio", "100%",
                "--out", str(full),
            ]
        )
        == 0
    )
    capsys.readouterr()
    code = cli.main(
        [
            "ple",
            "--root", str(workspace["data"]),
            "--split", str(full),
            "--out", str(tmp_path / "none"),
        ]
    )
    assert code == 0
    assert "already labeled" in capsys.readouterr().out
    assert (tmp_path / "none" / "ple.config").is_file()


def test_ple_unreachable_frames_exit_empty(workspace, tmp_path, capsys):
    # a window too small to reach any neighbor leaves everything uncovered
    code = cli.main(
        [
            "ple",
            "--root", str(workspace["data"]),
            "--split", str(workspace["split"]),
            "--window-seconds", "0.01",
            "--out", str(tmp_path / "e"),
        ]
    )
    assert code == 4


def test_ple_exit_empty_takes_away_the_ple_config_of_a_finished_run(workspace, estimates,
                                                                   tmp_path, capsys):
    out = tmp_path / "e"
    shutil.copytree(estimates, out)
    kept = _tree_bytes(out, skip_names={"ple.config"})
    assert cli.main(["ple", "--root", str(workspace["data"]), "--split",
                     str(workspace["split"]), "--window-seconds", "0.01",
                     "--out", str(out)]) == 4
    assert (capsys.readouterr().err
            == "error: no unlabeled frame has a labeled frame in its window\n")
    # the first run's estimates stay, but no ple.config vouches for them
    assert _tree_bytes(out) == kept


@pytest.mark.parametrize("k", [1, 5])
@pytest.mark.parametrize("mode", [[], ["--progressive"]], ids=["naive", "progressive"])
def test_failed_ple_keeps_the_estimates_written_before_it(workspace, tmp_path, monkeypatch,
                                                          capsys, mode, k):
    argv = ["ple", "--root", str(workspace["data"]), "--split", str(workspace["split"]), *mode]
    full, failed = tmp_path / "full", tmp_path / "failed"
    written = []

    def write(pmap, path, _real=ple.write_ple):
        written.append(f"00/{Path(path).name}")
        _real(pmap, path)

    monkeypatch.setattr(ple, "write_ple", write)
    assert cli.main([*argv, "--out", str(full)]) == 0
    calls = Counter()

    def estimate(*args, _real=ple.estimate_labels, **kwargs):
        calls["estimate"] += 1
        if calls["estimate"] == k:
            raise DataError("injected")
        return _real(*args, **kwargs)

    monkeypatch.setattr(ple, "estimate_labels", estimate)
    capsys.readouterr()
    assert cli.main([*argv, "--out", str(failed)]) == 3
    frame = int(Path(written[k - 1]).stem)
    assert f"error: sequence 00, frame {frame}: injected" in capsys.readouterr().err
    # the first k-1 estimates stay, whole; no ple.config marks a finished run
    kept = {name for ple_file in written[:k - 1]
            for name in (ple_file, ple_file.replace(ple.PLE_SUFFIX, ple.META_SUFFIX))}
    assert _tree_bytes(failed) == {name: data for name, data in _tree_bytes(full).items()
                                   if name in kept}
    # failing over a finished run leaves its estimates but takes away its ple.config
    rerun = tmp_path / "rerun"
    shutil.copytree(full, rerun)
    calls.clear()
    assert cli.main([*argv, "--out", str(rerun)]) == 3
    assert _tree_bytes(rerun) == _tree_bytes(full, skip_names={"ple.config"})


def test_failed_eval_takes_away_the_eval_config_of_a_finished_run(workspace, estimates,
                                                                 tmp_path, capsys):
    scores = tmp_path / "scores"
    argv = ["eval", "--root", str(workspace["data"]), "--format", "both", "--out", str(scores)]
    assert cli.main([*argv, "--ple-dir", str(estimates)]) == 0
    assert (scores / "eval.config").is_file()
    # other estimates: all but the last frame
    fewer = tmp_path / "fewer"
    shutil.copytree(estimates, fewer)
    last = sorted((fewer / "00").glob(f"*{ple.PLE_SUFFIX}"))[-1]
    last.unlink()
    last.with_suffix(ple.META_SUFFIX).unlink()
    assert cli.main([*argv[:-1], str(tmp_path / "clean"), "--ple-dir", str(fewer)]) == 0
    (scores / "report.jsonl").unlink()
    (scores / "report.jsonl").mkdir()
    capsys.readouterr()
    assert cli.main([*argv, "--ple-dir", str(fewer)]) == 3
    assert str(scores / "report.jsonl") in capsys.readouterr().err
    # the csv report is the new run's, so no eval.config may vouch for the old one
    assert filecmp.cmp(scores / "report.csv", tmp_path / "clean" / "report.csv", shallow=False)
    assert not (scores / "eval.config").exists()


@pytest.mark.parametrize("command", ["eval", "train"])
def test_estimate_whose_meta_names_another_frame_exits_data(workspace, estimates, tmp_path,
                                                            capsys, command):
    # every frame of the fixed-sampling scene has as many points, so only
    # the .meta tells frame 1's estimate from frame 8's
    est = tmp_path / "est"
    shutil.copytree(estimates, est)
    for suffix in (ple.PLE_SUFFIX, ple.META_SUFFIX):
        shutil.copyfile(est / "00" / f"000001{suffix}", est / "00" / f"000008{suffix}")
    out = tmp_path / "out"
    assert cli.main(_argv(command, workspace["data"], workspace["split"], est, out)) == 3
    wrong = est / "00" / f"000008{ple.PLE_SUFFIX}"
    assert capsys.readouterr().err == (
        f"error: {wrong}: its {ple.META_SUFFIX} names frame 00/1, not 00/8\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["eval", "train"])
def test_stray_file_under_ple_dir_exits_data(workspace, estimates, tmp_path, capsys, command):
    est = tmp_path / "est"
    shutil.copytree(estimates, est)
    stray = est / "00" / f"first{ple.PLE_SUFFIX}"
    shutil.copy(sorted((est / "00").glob(f"*{ple.PLE_SUFFIX}"))[0], stray)
    argv = [command, "--root", str(workspace["data"]), "--split", str(workspace["split"]),
            "--ple-dir", str(est), "--out", str(tmp_path / "r")]
    assert cli.main(argv + (["--steps", "1"] if command == "train" else [])) == 3
    assert f"error: {stray}: " in capsys.readouterr().err


@pytest.mark.parametrize("command", ["eval", "train"])
@pytest.mark.parametrize("name", ["1", "0000001", "+00001", "-00001", "00000\u0661"])
def test_estimate_not_named_as_ple_writes_exits_data(workspace, estimates, tmp_path, capsys,
                                                    command, name):
    # ple writes <seq>/<frame:06d>.ple; a copy under another name that
    # parses to the same frame is not read as a second estimate of it
    est = tmp_path / "est"
    shutil.copytree(estimates, est)
    stray = est / "00" / f"{name}{ple.PLE_SUFFIX}"
    shutil.copy(est / "00" / f"000001{ple.PLE_SUFFIX}", stray)
    shutil.copy(est / "00" / "000001.meta", stray.with_suffix(".meta"))
    out = tmp_path / "r"
    assert cli.main(_argv(command, workspace["data"], workspace["split"], est, out)) == 3
    assert capsys.readouterr().err.startswith(f"error: {stray}: ")
    assert not out.exists()


@pytest.mark.parametrize("command", ["eval", "train"])
@pytest.mark.parametrize("entry, named, message", [
    ("99", "99", "unknown sequence '99'"),
    ("99/000001.ple", "99", "unknown sequence '99'"),
    ("00/000999.ple", "00/000999.ple", "frame 999 is outside 0..11"),
], ids=["empty-sequence-dir", "sequence-dir", "frame-past-end"])
def test_ple_dir_entry_outside_dataset_exits_data(workspace, estimates, tmp_path, capsys,
                                                 command, entry, named, message):
    est = tmp_path / "est"
    shutil.copytree(estimates, est)
    path = est / entry
    if path.suffix:
        path.parent.mkdir(exist_ok=True)
        shutil.copy(est / "00" / f"000001{ple.PLE_SUFFIX}", path)
    else:
        path.mkdir()
    out = tmp_path / "r"
    assert cli.main(_argv(command, workspace["data"], workspace["split"], est, out)) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {est / named}: ") and message in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["eval", "train"])
def test_directory_named_as_an_estimate_exits_data(workspace, estimates, tmp_path, capsys,
                                                   command):
    est = tmp_path / "est"
    shutil.copytree(estimates, est)
    path = est / "00" / f"000001{ple.PLE_SUFFIX}"
    path.unlink()
    path.mkdir()
    out = tmp_path / "r"
    assert cli.main(_argv(command, workspace["data"], workspace["split"], est, out)) == 3
    assert capsys.readouterr().err.startswith(f"error: {path}: ")
    assert not out.exists()


@pytest.mark.parametrize("command", ["eval", "train"])
def test_missing_ple_dir_exits_data(workspace, tmp_path, capsys, command):
    nope, out = tmp_path / "nope", tmp_path / "r"
    assert cli.main([command, "--root", str(workspace["data"]), "--split", str(workspace["split"]),
                     "--ple-dir", str(nope), "--out", str(out)]) == 3
    assert capsys.readouterr().err == f"error: {nope} is not a directory\n"
    assert not out.exists()


def test_eval_scores_ignore_class_prediction_as_miss(workspace, estimates, tmp_path, capsys):
    ignore = 1
    tally: dict = {}
    source = ple.ManifestSource(lidar_io.build_manifest(workspace["data"]))
    for path in sorted((estimates / "00").glob("*.ple")):
        gt = source.gt_labels("00", int(path.stem)).semantic
        pred = ple.read_ple(path)
        keep = (gt != ignore) & pred.valid
        for g, p in zip(gt[keep].tolist(), pred.semantic[keep].tolist()):
            tally[(g, p)] = tally.get((g, p), 0) + 1
    assert sum(n for (_, p), n in tally.items() if p == ignore) > 0
    classes = sorted({g for g, _ in tally})
    ious = []
    for c in classes:
        tp = tally.get((c, c), 0)
        fp = sum(n for (g, p), n in tally.items() if p == c and g != c)
        fn = sum(n for (g, p), n in tally.items() if g == c and p != c)
        ious.append(tp / (tp + fp + fn))

    code = cli.main(
        [
            "eval",
            "--root", str(workspace["data"]),
            "--ple-dir", str(estimates),
            "--ignore-class", str(ignore),
            "--out", str(tmp_path / "r"),
        ]
    )
    assert code == 0
    assert f"miou={np.mean(ious):.6f} " in capsys.readouterr().out


def test_eval_reads_and_tallies_each_frame_once(workspace, estimates, tmp_path, monkeypatch):
    calls: dict = {}
    counted = ((ple, "read_ple"), (lidar_io, "read_scan"), (lidar_io, "read_labels"),
               (evaluation, "accumulate"))
    for module, name in counted:
        def count(*args, _real=getattr(module, name), _name=name, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(module, name, count)
    code = cli.main(["eval", "--root", str(workspace["data"]), "--ple-dir", str(estimates),
                     "--split", str(workspace["split"]), "--group-by-offset",
                     "--out", str(tmp_path / "r")])
    assert code == 0
    scored = len(list((estimates / "00").glob(f"*{ple.PLE_SUFFIX}")))
    # no scan is decoded: a label file is checked against its scan's size
    assert calls == {"read_ple": scored, "read_labels": scored, "accumulate": scored}


def test_eval_estimate_one_word_short_exits_data(workspace, estimates, tmp_path, capsys):
    est = tmp_path / "est"
    shutil.copytree(estimates, est)
    short = sorted((est / "00").glob(f"*{ple.PLE_SUFFIX}"))[-1]
    short.write_bytes(short.read_bytes()[:-4])
    code = cli.main(["eval", "--root", str(workspace["data"]), "--ple-dir", str(est),
                     "--out", str(tmp_path / "r")])
    assert code == 3
    assert f"frame 00/{int(short.stem)}: {short} holds" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("command", ["eval", "train"])
def test_estimate_without_meta_exits_data(workspace, estimates, tmp_path, capsys, command):
    est = tmp_path / "est"
    shutil.copytree(estimates, est)
    meta = sorted((est / "00").glob(f"*{ple.META_SUFFIX}"))[-1]
    meta.unlink()
    out = tmp_path / "r"
    assert cli.main(_argv(command, workspace["data"], workspace["split"], est, out)) == 3
    assert f"error: [Errno 2] No such file or directory: '{meta}'" in capsys.readouterr().err
    assert not out.exists()


def test_meta_without_mean_distance_exits_data(workspace, estimates, tmp_path, capsys):
    est = tmp_path / "est"
    shutil.copytree(estimates, est)
    meta = sorted((est / "00").glob(f"*{ple.META_SUFFIX}"))[-1]
    meta.write_text("".join(line for line in meta.read_text().splitlines(keepends=True)
                            if not line.startswith("mean_distance")))
    out = tmp_path / "r"
    assert cli.main(_argv("eval", workspace["data"], workspace["split"], est, out)) == 3
    assert capsys.readouterr().err.startswith(f"error: {meta}: missing or malformed field")
    assert not out.exists()


def test_train_estimate_one_word_short_exits_data(workspace, estimates, tmp_path, capsys):
    est = tmp_path / "est"
    shutil.copytree(estimates, est)
    short = sorted((est / "00").glob(f"*{ple.PLE_SUFFIX}"))[-1]
    short.write_bytes(short.read_bytes()[:-4])
    out = tmp_path / "run"
    assert cli.main(_argv("train", workspace["data"], workspace["split"], est, out)) == 3
    points = (len(short.read_bytes()) + 4) // 4
    assert capsys.readouterr().err == (
        f"error: frame 00/{int(short.stem)}: {short} holds {points - 1} estimates "
        f"for {points} points\n")
    assert not out.exists()


def test_eval_frame_with_nothing_to_score_enters_curve_at_zero(workspace, estimates, tmp_path):
    data, est = tmp_path / "data", tmp_path / "est" / "00"
    shutil.copytree(workspace["data"], data)
    est.mkdir(parents=True)
    labeled = split_mod.read_split(workspace["split"])["00"]
    by_offset: dict = {}
    for path in sorted((estimates / "00").glob(f"*{ple.PLE_SUFFIX}")):
        by_offset.setdefault(min(abs(int(path.stem) - g) for g in labeled), path)
    (offset_empty, empty), (offset_kept, kept) = sorted(by_offset.items())[:2]
    for path in (empty, kept):
        shutil.copy(path, est / path.name)
        shutil.copy(path.with_suffix(".meta"), est / path.with_suffix(".meta").name)
    # every ground-truth point of one frame becomes the ignore class, and
    # every estimate of that frame a valid estimate of it
    frame = int(empty.stem)
    label_path = data / "sequences" / "00" / "labels" / f"{frame:06d}.label"
    label_path.write_bytes(bytes(label_path.stat().st_size))
    n = label_path.stat().st_size // 4
    ple.write_ple(ple.PseudoLabelMap(
        semantic=np.zeros(n), valid=np.ones(n, dtype=bool), origin_kind=np.zeros(n),
        frame_id=frame, sequence_id="00"), est / empty.name)
    out = tmp_path / "r"
    code = cli.main(["eval", "--root", str(data), "--ple-dir", str(tmp_path / "est"),
                     "--split", str(workspace["split"]), "--group-by-offset", "--out", str(out)])
    assert code == 0
    curve = {int(row["offset"]): float(row["accuracy"]) for row in _csv_rows(out / "curve.csv")}
    assert set(curve) == {offset_empty, offset_kept}
    assert curve[offset_empty] == 0.0 and curve[offset_kept] > 0.0


def test_eval_without_estimates_exits_empty(workspace, tmp_path):
    empty = tmp_path / "none"
    empty.mkdir()
    code = cli.main(
        [
            "eval",
            "--root", str(workspace["data"]),
            "--ple-dir", str(empty),
            "--out", str(tmp_path / "r"),
        ]
    )
    assert code == 4


@pytest.mark.parametrize("command", ["eval", "train"])
def test_empty_ple_dir_exits_empty_before_reading_a_frame(workspace, tmp_path, monkeypatch,
                                                          capsys, command):
    empty, out = tmp_path / "e", tmp_path / "r"
    empty.mkdir()

    def no_read(*args, **kwargs):
        raise AssertionError("a frame was read")

    monkeypatch.setattr(lidar_io, "read_scan", no_read)
    monkeypatch.setattr(lidar_io, "read_labels", no_read)
    assert cli.main(_argv(command, workspace["data"], workspace["split"], empty, out)) == 4
    assert capsys.readouterr().err == f"error: no .ple files under {empty}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "seq, frame, message",
    [("99", 1, "unknown sequence"), ("00", 999, "outside")],
)
def test_eval_estimate_outside_dataset_exits_data(
    workspace, tmp_path, capsys, seq, frame, message
):
    est = tmp_path / "est" / seq
    est.mkdir(parents=True)
    (est / f"{frame:06d}.ple").write_bytes(bytes(40))
    code = cli.main(
        [
            "eval",
            "--root", str(workspace["data"]),
            "--ple-dir", str(tmp_path / "est"),
            "--out", str(tmp_path / "r"),
        ]
    )
    assert code == 3
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "bad_split", [{"99": (0,)}, {"00": (999,)}], ids=["unknown-sequence", "frame-past-end"]
)
def test_eval_split_outside_dataset_exits_data(workspace, tmp_path, capsys, bad_split):
    est = tmp_path / "est"
    data = str(workspace["data"])
    assert cli.main(["ple", "--root", data, "--split", str(workspace["split"]),
                     "--out", str(est)]) == 0
    split_path = tmp_path / "bad.split"
    split_mod.write_split(bad_split, split_path)
    code = cli.main(
        [
            "eval",
            "--root", data,
            "--ple-dir", str(est),
            "--group-by-offset",
            "--split", str(split_path),
            "--out", str(tmp_path / "r"),
        ]
    )
    assert code == 3
    assert "split references" in capsys.readouterr().err
    assert not (tmp_path / "r" / "curve.csv").exists()


def test_eval_offset_grouping_needs_split(workspace, tmp_path):
    code = cli.main(
        [
            "eval",
            "--root", str(workspace["data"]),
            "--ple-dir", str(tmp_path),
            "--group-by-offset",
            "--out", str(tmp_path / "r"),
        ]
    )
    assert code == 2


def test_train_writes_models_and_history(workspace, tmp_path, capsys):
    out = tmp_path / "run"
    code = cli.main(
        [
            "train",
            "--root", str(workspace["data"]),
            "--split", str(workspace["split"]),
            "--steps", "12",
            "--batch-size", "64",
            "--hidden", "8",
            "--max-points", "2000",
            "--out", str(out),
        ]
    )
    assert code == 0
    assert "final_pseudo_label_accuracy=" in capsys.readouterr().out
    for name in ("history.csv", "student.model", "teacher.model", "train.config"):
        assert (out / name).is_file()
    assert [int(row["step"]) for row in _csv_rows(out / "history.csv")] == [12]


def _train_argv(workspace, out, *flags) -> list:
    return ["train", "--root", str(workspace["data"]), "--split", str(workspace["split"]),
            "--max-points", "2000", "--batch-size", "64", "--hidden", "8", "--out", str(out),
            *flags]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("flags", [["--lr", "1e300"], ["--lambda-mt", "1e308"]],
                         ids=lambda v: " ".join(v))
def test_diverging_train_exits_config_and_writes_nothing(workspace, tmp_path, capsys, flags):
    out = tmp_path / "run"
    assert cli.main(_train_argv(workspace, out, "--steps", "3", *flags)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: training diverged") and "step 3" in err
    assert "--lr" in err and "--lambda-mt" in err
    assert not out.exists()
    # over a finished run, the missing train.config marks the run unfinished
    assert cli.main(_train_argv(workspace, out, "--steps", "3")) == 0
    assert (out / "train.config").is_file()
    assert cli.main(_train_argv(workspace, out, "--steps", "3", *flags)) == 2
    assert not (out / "train.config").exists()


@pytest.mark.filterwarnings("error")
def test_train_history_holds_finite_cross_entropy(workspace, tmp_path):
    # at this step size some clean point is so confidently wrong that its
    # true class's probability underflows to 0; its cost is still finite
    out = tmp_path / "run"
    assert cli.main(_train_argv(workspace, out, "--lr", "100", "--steps", "50")) == 0
    (row,) = _csv_rows(out / "history.csv")
    assert all(np.isfinite(float(v)) for v in row.values())
    assert float(row["ce_clean"]) > 100.0


def test_train_unknown_estimate_class_exits_data(workspace, tmp_path, capsys):
    labeled = split_mod.read_split(workspace["split"])["00"]
    (seq,) = lidar_io.build_manifest(workspace["data"])
    frame = next(f for f in range(seq.frame_count) if f not in labeled)
    n = len(lidar_io.read_scan(seq.scan_paths[frame]))
    est = tmp_path / "est" / "00"
    est.mkdir(parents=True)
    bogus = ple.PseudoLabelMap(
        semantic=np.full(n, 77), valid=np.ones(n, dtype=bool), origin_kind=np.zeros(n),
        frame_id=frame, sequence_id="00",
    )
    ple.write_ple(bogus, est / f"{frame:06d}{ple.PLE_SUFFIX}")
    code = cli.main(
        [
            "train",
            "--root", str(workspace["data"]),
            "--split", str(workspace["split"]),
            "--ple-dir", str(tmp_path / "est"),
            "--steps", "1",
            "--out", str(tmp_path / "run"),
        ]
    )
    assert code == 3
    assert "class 77" in capsys.readouterr().err


@pytest.mark.parametrize("command, flags", [
    ("ple", ["--window-seconds", "nan"]),
    ("ple", ["--window-seconds", "inf"]),
    ("ple", ["--frequency", "nan"]),
    ("ple", ["--frequency", "0"]),
    ("ple", ["--frequency", "-10"]),
    ("ple", ["--max-distance", "nan"]),
    ("train", ["--max-points", "-5"]),
    ("train", ["--max-points", "0"]),
    ("train", ["--lr", "nan"]),
    ("train", ["--lambda-mt", "nan"]),
    ("train", ["--seed", "-1"]),
], ids=lambda v: " ".join(v) if isinstance(v, list) else v)
def test_unusable_numeric_setting_exits_config(workspace, tmp_path, capsys, command, flags):
    out = tmp_path / "out"
    code = cli.main([command, "--root", str(workspace["data"]), "--split",
                     str(workspace["split"]), "--out", str(out), *flags])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("missing", ["root", "estimates"])
def test_train_refuses_max_points_below_one_before_reading(workspace, tmp_path, monkeypatch,
                                                          capsys, missing):
    empty, out = tmp_path / "e", tmp_path / "r"
    empty.mkdir()
    root = tmp_path / "nope" if missing == "root" else workspace["data"]

    def no_read(*args, **kwargs):
        raise AssertionError("a frame was read")

    monkeypatch.setattr(lidar_io, "read_scan", no_read)
    monkeypatch.setattr(lidar_io, "read_labels", no_read)
    code = cli.main(["train", "--root", str(root), "--split", str(workspace["split"]),
                     "--ple-dir", str(empty), "--max-points", "0", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == "error: max_points must be >= 1, got 0\n"
    assert not out.exists()


@pytest.mark.parametrize("flags, message", [
    (["--tau", "2"], "tau must lie in [0, 1]"),
    (["--lr", "0"], "learning_rate must be positive and finite"),
    (["--alpha-ema", "1"], "alpha_ema must lie in [0, 1)"),
], ids=["--tau 2", "--lr 0", "--alpha-ema 1"])
def test_train_refuses_a_bad_setting_before_reading_data(tmp_path, capsys, flags, message):
    # the root and the split are both missing, and the setting is named first
    out = tmp_path / "run"
    code = cli.main(["train", "--root", str(tmp_path / "nope"), "--split",
                     str(tmp_path / "nope.split"), "--out", str(out), *flags])
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_train_decodes_each_scan_at_most_once(workspace, estimates, tmp_path, monkeypatch):
    source = ple.ManifestSource(lidar_io.build_manifest(workspace["data"]))
    ends = np.cumsum([int((source.gt_labels("00", f).semantic != lidar_io.IGNORE_CLASS).sum())
                      for f in range(12)])
    estimated = Counter(int(p.stem) for p in (estimates / "00").glob(f"*{ple.PLE_SUFFIX}"))
    reads = {"read_scan": Counter(), "read_ple": Counter()}
    for module, name in ((lidar_io, "read_scan"), (ple, "read_ple")):
        def count(path, *args, _real=getattr(module, name), _reads=reads[name], **kwargs):
            _reads[int(Path(path).stem)] += 1
            return _real(path, *args, **kwargs)
        monkeypatch.setattr(module, name, count)
    for max_points in (3, 300, 100000000):
        # the frames that the seeded sample of assembly falls in
        rng = np.random.default_rng(np.random.SeedSequence(0, spawn_key=(2,)))
        sampled = (set(np.searchsorted(ends, rng.choice(ends[-1], size=max_points, replace=False),
                                       side="right").tolist())
                   if max_points < ends[-1] else set(range(12)))
        if max_points == 3:
            assert set(estimated) - sampled  # an estimated frame holds no sampled point
        for counter in reads.values():
            counter.clear()
        code = cli.main(["train", "--root", str(workspace["data"]), "--split",
                         str(workspace["split"]), "--ple-dir", str(estimates), "--steps", "1",
                         "--max-points", str(max_points), "--out", str(tmp_path / str(max_points))])
        assert code == 0
        # each estimate once, sampled or not; a scan only where points were sampled
        assert reads["read_ple"] == estimated
        assert reads["read_scan"] == Counter(sampled)


def test_train_zero_steps(workspace, tmp_path):
    out = tmp_path / "zero"
    code = cli.main(
        [
            "train",
            "--root", str(workspace["data"]),
            "--split", str(workspace["split"]),
            "--steps", "0",
            "--max-points", "1000",
            "--out", str(out),
        ]
    )
    assert code == 0
    assert _csv_rows(out / "history.csv") == []
    assert (out / "history.csv").read_text() == ",".join(ssl_mini.HISTORY_COLUMNS) + "\n"


def test_train_threshold_sweep(workspace, tmp_path, capsys):
    out = tmp_path / "sweep"
    code = cli.main(
        [
            "train",
            "--root", str(workspace["data"]),
            "--split", str(workspace["split"]),
            "--steps", "6",
            "--batch-size", "32",
            "--hidden", "4",
            "--max-points", "800",
            "--threshold-sweep",
            "--out", str(out),
        ]
    )
    assert code == 0
    assert "sweep=" in capsys.readouterr().out
    rows = (out / "sweep.csv").read_text().splitlines()
    assert rows[0] == "tau,pseudo_label_accuracy"
    assert len(rows) == 1 + len(cli.TAU_SWEEP)


def test_train_warns_when_no_pseudo_label_clears_tau(workspace, tmp_path, monkeypatch, caplog):
    monkeypatch.delenv("PLE_LOG", raising=False)
    out = tmp_path / "strict"
    code = cli.main(
        [
            "train",
            "--root", str(workspace["data"]),
            "--split", str(workspace["split"]),
            "--tau", "1.0",
            "--steps", "4",
            "--batch-size", "32",
            "--hidden", "4",
            "--max-points", "800",
            "--out", str(out),
        ]
    )
    assert code == 0
    source = ple.ManifestSource(lidar_io.build_manifest(workspace["data"]))
    labeled = split_mod.read_split(workspace["split"])
    data = ssl_mini.assemble_training_data(source, labeled, max_points=800, seed=0)
    unlabeled = int((data.label_kind == ssl_mini.KIND_NONE).sum())
    assert unlabeled > 0
    warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
    assert len(warnings) == 1
    assert f"none of {unlabeled} unlabeled points cleared tau=1:" in warnings[0]
    assert float(_csv_rows(out / "history.csv")[-1]["pseudo_label_accuracy"]) == 0.0
    # with every frame labeled, the warning names the other case
    full = tmp_path / "full.split"
    assert cli.main(["split", "--root", str(workspace["data"]), "--ratio", "100%",
                     "--out", str(full)]) == 0
    caplog.clear()
    assert cli.main(["train", "--root", str(workspace["data"]), "--split", str(full),
                     "--tau", "0.5", "--steps", "4", "--batch-size", "32", "--hidden", "4",
                     "--max-points", "800", "--out", str(tmp_path / "run")]) == 0
    warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
    assert len(warnings) == 1
    assert "none exists" in warnings[0] and "tau=0.5:" in warnings[0]
    assert "none of" not in warnings[0]


_SMALL_TRAIN = ["--batch-size", "32", "--hidden", "4", "--max-points", "800"]


def test_train_scores_the_teacher_once_per_history_row(workspace, tmp_path, monkeypatch):
    taus = []

    def spy(teacher, data, tau, _real=ssl_mini.pseudo_label_score):
        taus.append(tau)
        return _real(teacher, data, tau)

    monkeypatch.setattr(ssl_mini, "pseudo_label_score", spy)
    data = ["--root", str(workspace["data"]), "--split", str(workspace["split"])]
    # rows at steps 100, 200 and 250
    assert cli.main(["train", *data, *_SMALL_TRAIN, "--steps", "250",
                     "--out", str(tmp_path / "run")]) == 0
    assert taus == [0.9] * 3
    taus.clear()
    # rows at steps 100 and 120, for each tau
    assert cli.main(["train", *data, *_SMALL_TRAIN, "--steps", "120", "--threshold-sweep",
                     "--out", str(tmp_path / "sweep")]) == 0
    assert taus == [tau for tau in cli.TAU_SWEEP for _ in range(2)]


def test_each_sweep_row_is_a_plain_runs_final_accuracy(workspace, tmp_path):
    data = ["--root", str(workspace["data"]), "--split", str(workspace["split"]),
            *_SMALL_TRAIN, "--steps", "120"]
    assert cli.main(["train", *data, "--threshold-sweep", "--out", str(tmp_path / "sweep")]) == 0
    sweep = _csv_rows(tmp_path / "sweep" / "sweep.csv")
    assert [float(row["tau"]) for row in sweep] == list(cli.TAU_SWEEP)
    for row in sweep:
        out = tmp_path / row["tau"]
        assert cli.main(["train", *data, "--tau", row["tau"], "--out", str(out)]) == 0
        last = _csv_rows(out / "history.csv")[-1]
        assert row["pseudo_label_accuracy"] == last["pseudo_label_accuracy"], row["tau"]


def test_zero_step_sweep_writes_zero_for_every_tau_without_warning(workspace, tmp_path,
                                                                   monkeypatch, caplog, capsys):
    monkeypatch.delenv("PLE_LOG", raising=False)
    out = tmp_path / "sweep"
    assert cli.main(["train", "--root", str(workspace["data"]), "--split",
                     str(workspace["split"]), *_SMALL_TRAIN, "--steps", "0",
                     "--threshold-sweep", "--out", str(out)]) == 0
    assert capsys.readouterr().out == "sweep=0:0.0000 0.5:0.0000 0.7:0.0000 0.9:0.0000\n"
    assert [(float(row["tau"]), row["pseudo_label_accuracy"])
            for row in _csv_rows(out / "sweep.csv")] == [(tau, "0") for tau in cli.TAU_SWEEP]
    assert [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING] == []


# the reference scene at 0.3 points per surface
ONE_ROOT_SCENE = """\
seed = 29
frames = 40
frequency = 10.0
sensor_range = 60.0
points_per_surface = 0.3
sampling = per-frame
path = [0.0, 0.0, 1.5, 39.0, 0.0, 1.5]
ground = [1, -30.0, 70.0, -12.0, 12.0, 0.0]
wall = [9, -30.0, -12.0, 70.0, -12.0, 6.0, 0.0]
wall = [9, -30.0, 12.0, 70.0, 12.0, 6.0, 0.0]
box = [10, 4.0, 3.0, 1.1, 6.0, 2.0, 1.6, 5.0, 0.0, 0.0]
box = [30, 10.0, -5.0, 1.0, 0.8, 0.8, 1.8, 0.0, 1.0, 0.0]
"""


@pytest.fixture(scope="module")
def one_root(tmp_path_factory):
    """A 2.5 % split labels frame 0 alone; progressive estimates reach
    frames 1-10 and leave 29 frames without a label for the n-head."""
    root = tmp_path_factory.mktemp("oneroot")
    scene, data, split = root / "scene.config", root / "data", root / "labeled.split"
    scene.write_text(ONE_ROOT_SCENE)
    est = root / "est"
    assert cli.main(["synth", "--config", str(scene), "--out", str(data)]) == 0
    assert cli.main(["split", "--root", str(data), "--ratio", "2.5%", "--out", str(split)]) == 0
    assert cli.main(["ple", "--root", str(data), "--split", str(split), "--progressive",
                     "--out", str(est)]) == 0
    assert sorted(int(p.stem) for p in (est / "00").glob(f"*{ple.PLE_SUFFIX}")) == list(
        range(1, 11))
    return ["--root", str(data), "--split", str(split), "--ple-dir", str(est)]


def _read_model(path) -> ssl_mini.DualHeadNet:
    header, _, blob = path.read_bytes().partition(b"\nend\n")
    values, params = np.frombuffer(blob, dtype="<f8"), {}
    for line in header.decode("ascii").splitlines()[1:]:
        name, *shape = line.split()
        shape = tuple(map(int, shape))
        size = int(np.prod(shape))
        params[name], values = values[:size].reshape(shape), values[size:]
    return ssl_mini.DualHeadNet(params)


def test_dual_branch_at_least_single_on_propagated_labels(one_root, tmp_path):
    sweeps = {}
    for mode, flags in (("dual", []), ("single", ["--single-branch"])):
        out = tmp_path / mode
        assert cli.main(["train", *one_root, "--steps", "500", "--threshold-sweep",
                         *flags, "--out", str(out)]) == 0
        sweeps[mode] = {float(row["tau"]): float(row["pseudo_label_accuracy"])
                        for row in _csv_rows(out / "sweep.csv")}
    assert sorted(sweeps["dual"]) == sorted(sweeps["single"]) == list(cli.TAU_SWEEP)
    for tau in cli.TAU_SWEEP:
        assert sweeps["dual"][tau] >= sweeps["single"][tau], tau


def test_only_the_dual_branch_trains_the_n_head(one_root, tmp_path):
    for single in (False, True):
        out = tmp_path / ("single" if single else "dual")
        flags = ["--single-branch"] if single else []
        assert cli.main(["train", *one_root, "--steps", "500", "--tau", "0.5", *flags,
                         "--out", str(out)]) == 0
        # the student's: the teacher's EMA can move the last bit of an unchanged head
        student = _read_model(out / "student.model")
        features, hidden = student.params["w1"].shape
        init = ssl_mini.DualHeadNet.init(features, hidden, student.params["wc"].shape[1], seed=0)
        for name in ("wn", "bn"):
            assert np.array_equal(student.params[name], init.params[name]) == single, name


def _pseudo_label_counts(caplog) -> list:
    return [int(r.getMessage().split()[0]) for r in caplog.records
            if r.name == "plelidar.ssl_mini" and "took a pseudo-label" in r.getMessage()]


def test_train_logs_how_many_points_took_a_pseudo_label(one_root, workspace, tmp_path,
                                                        caplog):
    caplog.set_level(logging.INFO, logger="plelidar")
    small = ["--steps", "20", "--batch-size", "32", "--hidden", "4", "--tau", "0"]
    assert cli.main(["train", *one_root, *small, "--out", str(tmp_path / "a")]) == 0
    counts = _pseudo_label_counts(caplog)
    assert len(counts) == 1 and counts[0] > 0
    caplog.clear()
    # a sweep logs once per tau
    assert cli.main(["train", *one_root, *small, "--threshold-sweep",
                     "--out", str(tmp_path / "b")]) == 0
    assert len(_pseudo_label_counts(caplog)) == len(cli.TAU_SWEEP)
    caplog.clear()
    # every frame labeled leaves no point to take a pseudo-label
    full = tmp_path / "full.split"
    assert cli.main(["split", "--root", str(workspace["data"]), "--ratio", "100%",
                     "--out", str(full)]) == 0
    caplog.clear()
    assert cli.main(["train", "--root", str(workspace["data"]), "--split", str(full), *small,
                     "--out", str(tmp_path / "c")]) == 0
    assert _pseudo_label_counts(caplog) == [0]


def test_config_echo_round_trips_through_read_flat(workspace, tmp_path):
    out = tmp_path / "e"
    assert (
        cli.main(
            [
                "ple",
                "--root", str(workspace["data"]),
                "--split", str(workspace["split"]),
                "--out", str(out),
            ]
        )
        == 0
    )
    values = cli.read_flat(out / "ple.config")
    assert values["workers"] == "1"
    assert values["progressive"] == "false"
    assert values["max_distance"] == "inf"
