#!/usr/bin/env python3
"""Check that no command holds more memory on a long sequence.

    python3 scripts/memory_smoke.py

Runs `synth`, `split`, `ple` and `ple --progressive` (10 % labelled), each
at the default worker count and at `--workers 1`, then `eval
--group-by-offset` and `train --steps 2` on the naive estimates, on
one corridor scene at `SHORT` and `LONG` frames, each command as its own
process, and reads each command's peak resident memory (`ru_maxrss`,
Linux) from `os.wait4`. Both lengths cover the same drive through the same scene, so
every frame holds about the same points and only the number of frames
grows. Exits 1 if any command's peak on the long sequence exceeds its peak
on the short one by more than `TOLERANCE`. A forked `ple` reports its
largest process, not the sum: the parent, which holds the estimates it has
yet to write or to send to a worker, or a worker; the `--workers 1` rows
cover the one-process loop. The package is used from
`src/` of this checkout; scratch files go to a temporary directory.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
COMMANDS = ("synth", "split", "ple", "ple --progressive", "ple --workers 1",
            "ple --progressive --workers 1", "eval --group-by-offset", "train --steps 2")
SHORT, LONG, TOLERANCE = 40, 400, 0.10


def scene(frames: int) -> str:
    """The same 40 m drive down the same corridor, cut into `frames` scans."""
    return "\n".join([
        "seed = 5",
        f"frames = {frames}",
        "frequency = 10.0",
        "sensor_range = 60.0",
        "points_per_surface = 1.0",
        "sampling = per-frame",
        "path = [0.0, 0.0, 1.5, 39.0, 0.0, 1.5]",
        "ground = [1, -30.0, 70.0, -12.0, 12.0, 0.0]",
        "wall = [9, -30.0, -12.0, 70.0, -12.0, 6.0, 0.0]",
        "wall = [9, -30.0, 12.0, 70.0, 12.0, 6.0, 0.0]",
        "box = [10, 4.0, 3.0, 1.1, 6.0, 2.0, 1.6, 5.0, 0.0, 0.0]",
        "box = [30, 10.0, -5.0, 1.0, 0.8, 0.8, 1.8, 0.0, 1.0, 0.0]",
    ]) + "\n"


def peak_mb(argv: list) -> float:
    """Run one command to completion; its peak RSS in MB."""
    env = dict(os.environ, PYTHONPATH=str(SRC), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.Popen([sys.executable, "-m", "plelidar.cli", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=env)
    output = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        raise SystemExit(f"ple {' '.join(argv)} exited with {code}:\n{output.decode()}")
    return usage.ru_maxrss / 1024.0


def peaks(frames: int, work: Path) -> dict:
    base = work / str(frames)
    base.mkdir()
    (base / "scene.config").write_text(scene(frames))
    data, split = str(base / "data"), str(base / "labeled.split")
    common = ["--root", data, "--split", split]
    naive = str(base / "naive")
    argvs = {
        "synth": ["synth", "--config", str(base / "scene.config"), "--out", data],
        "split": ["split", "--root", data, "--ratio", "10%", "--out", split],
        "ple": ["ple", *common, "--out", naive],
        "ple --progressive": ["ple", *common, "--progressive", "--out", str(base / "progressive")],
        "ple --workers 1": ["ple", *common, "--workers", "1", "--out", str(base / "naive-1")],
        "ple --progressive --workers 1": ["ple", *common, "--progressive", "--workers", "1",
                                          "--out", str(base / "progressive-1")],
        "eval --group-by-offset": ["eval", *common, "--ple-dir", naive, "--group-by-offset",
                                   "--out", str(base / "scores")],
        "train --steps 2": ["train", *common, "--ple-dir", naive, "--steps", "2",
                            "--out", str(base / "run")],
    }
    return {command: peak_mb(argvs[command]) for command in COMMANDS}


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        short = peaks(SHORT, Path(tmp))
        long = peaks(LONG, Path(tmp))
    failed = False
    for command in COMMANDS:
        growth = long[command] / short[command] - 1.0
        over = growth > TOLERANCE
        failed |= over
        print(f"{command:30} {SHORT} frames {short[command]:6.1f} MB  "
              f"{LONG} frames {long[command]:6.1f} MB  {growth:+6.1%}"
              + ("  FAIL" if over else ""))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
