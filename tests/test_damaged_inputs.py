"""The exit-code contract under damaged input: a seeded mutation sweep.

Every input file of a small generated run is damaged in nine ways, and each
command that could read it runs in-process through ``cli.main``. Whatever
the damage, a run exits 0, 2, 3 or 4, raises nothing out of ``main``, prints
no traceback or warning, and an exit 3 names the damaged file. A per-case
alarm turns a hang (an ``inf`` pose once hung ``split``) into a failure.
"""

from __future__ import annotations

import random
import re
import shutil
import signal
from pathlib import Path

import numpy as np
import pytest

from plelidar import cli, synth

from conftest import one_box_config

pytestmark = pytest.mark.filterwarnings("error")

MUTATIONS = ("empty", "half-truncated", "one-byte-short", "garbage-appended", "nan", "huge",
             "binary-noise", "latin-1", "deleted")

# damaged file -> its place under the clean run's directory
INPUTS = {
    "poses.txt": "data/sequences/00/poses.txt",
    "calib.txt": "data/sequences/00/calib.txt",
    "split": "labeled.split",
    "bin": "data/sequences/00/velodyne/000004.bin",  # a target's scan
    "label": "data/sequences/00/labels/000003.label",  # a ground-truth reference's labels
    "ple": "est/00/000004.ple",
    "meta": "est/00/000004.meta",
    "config": "flags.config",
}
TEXT_INPUTS = ("poses.txt", "calib.txt", "split", "meta", "config", "scene")

# one --config file for every command; each command reads the keys it knows
FLAGS = """\
# settings of the sweep's runs
mode = global-floor
format = both
max_refs = 4
hidden = 8
max_points = 500
window_seconds = 1.0
"""

# The value that `nan` and `huge` replace is the file's last number, so the
# scene ends with sensor_range: a huge frame count or density is a valid
# request for a large job, not damage.
SCENE = """\
# a small scene for the sweep, café
seed = 5
frames = 3
points_per_surface = 0.5
path = [0.0, 0.0, 1.5, 2.0, 0.0, 1.5]
ground = [1, -5.0, 5.0, -5.0, 5.0, 0.0]
box = [10, 2.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.5, 0.0, 0.0]
sensor_range = 60.0
"""

COMMANDS = {
    "split": ["split", "--ratio", "34%", "--out", "{out}/new.split"],
    "ple": ["ple", "--split", "{run}/labeled.split", "--out", "{out}/est"],
    "ple-progressive": ["ple", "--progressive", "--split", "{run}/labeled.split",
                        "--out", "{out}/est"],
    "eval": ["eval", "--split", "{run}/labeled.split", "--group-by-offset",
             "--ple-dir", "{run}/est", "--out", "{out}/scores"],
    "train": ["train", "--split", "{run}/labeled.split", "--ple-dir", "{run}/est",
              "--steps", "2", "--out", "{out}/run"],
}

ALARM_S = 30
_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*(?:[eE][-+]?\d+)?|nan|inf)")


def _mutated(kind: str, raw: bytes, name: str, rng: random.Random) -> bytes:
    if kind == "empty":
        return b""
    if kind == "half-truncated":
        return raw[: len(raw) // 2]
    if kind == "one-byte-short":
        return raw[:-1]
    if kind == "garbage-appended":
        return raw + rng.randbytes(13)
    if kind == "binary-noise":
        return rng.randbytes(len(raw))
    if kind == "latin-1":
        return raw + "# café\n".encode("latin-1")
    value = "nan" if kind == "nan" else "99999999"
    if name in TEXT_INPUTS:  # the file's last number
        text = raw.decode("utf-8")
        last = list(_NUMBER.finditer(text))[-1]
        return (text[: last.start()] + value + text[last.end():]).encode("utf-8")
    # a scan's last x, or a word file's last word (NaN as float32 bits)
    at = len(raw) - (16 if name == "bin" else 4)
    dtype = "<u4" if kind == "huge" and name != "bin" else "<f4"
    return raw[:at] + np.array([value], dtype=dtype).tobytes() + raw[at + 4:]


def _damage(path: Path, kind: str, name: str) -> None:
    if kind == "deleted":
        path.unlink()
    else:
        rng = random.Random(f"{name}/{kind}")
        path.write_bytes(_mutated(kind, path.read_bytes(), name, rng))


def _timeout(signum, frame):
    raise TimeoutError(f"no exit within {ALARM_S} s")


def _run(argv: list, capsys):
    """Exit code and stderr of one in-process run, under an alarm."""
    capsys.readouterr()
    previous = signal.signal(signal.SIGALRM, _timeout)
    signal.alarm(ALARM_S)
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects a value
        code = exc.code
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    return code, capsys.readouterr().err


def _check(code, err: str, damaged: Path) -> None:
    assert code in (0, 2, 3, 4), err
    assert "Traceback" not in err
    if code == 3:
        assert str(damaged) in err, err


@pytest.fixture(scope="module")
def clean_run(tmp_path_factory):
    """A generated dataset with its split, naive estimates and a --config file."""
    base = tmp_path_factory.mktemp("sweep")
    scene = tmp_path_factory.mktemp("scene") / "scene.config"
    scene.write_text(synth.config_to_text(one_box_config(frames=6, points_per_surface=0.5)))
    data = base / "data"
    assert cli.main(["synth", "--config", str(scene), "--out", str(data)]) == 0
    split = base / "labeled.split"
    assert cli.main(["split", "--root", str(data), "--ratio", "34%", "--out", str(split)]) == 0
    assert split.read_text() == "[labeled]\n00 0\n00 3\n"
    assert cli.main(["ple", "--root", str(data), "--split", str(split),
                     "--out", str(base / "est")]) == 0
    (base / "flags.config").write_bytes(FLAGS.encode("utf-8"))
    for place in INPUTS.values():
        assert (base / place).is_file(), place
    return base


@pytest.mark.parametrize("command", sorted(COMMANDS))
@pytest.mark.parametrize("mutation", MUTATIONS)
@pytest.mark.parametrize("name", sorted(INPUTS))
def test_damaged_input_keeps_the_exit_code_contract(clean_run, tmp_path, capsys, name,
                                                    mutation, command):
    run = tmp_path / "run"
    shutil.copytree(clean_run, run)
    damaged = run / INPUTS[name]
    _damage(damaged, mutation, name)
    out = tmp_path / "out"
    out.mkdir()
    argv = [a.format(run=run, out=out) for a in COMMANDS[command]]
    argv[1:1] = ["--config", str(run / "flags.config"), "--root", str(run / "data")]
    _check(*_run(argv, capsys), damaged)


@pytest.mark.parametrize("mutation", MUTATIONS)
def test_damaged_scene_keeps_the_exit_code_contract(tmp_path, capsys, mutation):
    scene = tmp_path / "scene.config"
    scene.write_bytes(SCENE.encode("utf-8"))
    _damage(scene, mutation, "scene")
    code, err = _run(["synth", "--config", str(scene), "--out", str(tmp_path / "ds")], capsys)
    _check(code, err, scene)
    assert code in (0, 2), err
