#!/usr/bin/env python3
"""Benchmark of the plelidar pipeline, `synth -> split -> ple -> eval -> train`.

    python3 benchmarks/run.py --workload naive-dense --seed 1 --seconds 30 --trace 0

With ``--trace 0`` every command runs as its own process, the way a user
runs it, and the end-to-end metrics are printed. With ``--trace 1`` one
in-process run of ``plelidar.cli.main`` is traced and the per-layer metrics
are printed. Either way the outputs are checked, and the last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``. The package is used from ``src/`` of the
checkout this file sits in; nothing needs installing. Scratch files go to
``.bench_work/`` at the checkout root and are removed at the end. NOTES.md
in this directory describes the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

import numpy as np

import checks
from tracing import Tracer, high_percentile, layer_metrics, median
from workloads import WORKLOADS, derive_seeds

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
MIN_ITERATIONS = 3
DEADLINE_S = 170.0  # children still running then are killed and count as failed
WINDOW_FRAMES = 10  # ple's default --window-seconds 1.0 at the scenes' 10 Hz
BLAS_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

E2E_UNITS = {
    "setup_s": "s",
    "pipeline_s": "s",
    "points_per_s": "points/s",
    "peak_rss_mb": "MB",
    "miou": "fraction",
    "mprecision": "fraction",
}


def layer_unit(name: str) -> str:
    last = name.rsplit(".", 1)[-1]
    if last == "s" or last.endswith("_s"):
        return "s"
    if last == "bytes":
        return "bytes"
    if last in ("calls", "points", "ref_uses", "ref_frames_distinct"):
        return "count"
    return "ratio"


class Layout:
    """Paths of one run's scene, dataset, split and outputs."""

    def __init__(self, base: Path):
        self.base = base
        self.scene = base / "scene.config"
        self.ple_config = base / "ple.bench.config"
        self.data = base / "data"
        self.split = base / "labeled.split"
        self.estimates = base / "estimates"
        self.scores = base / "scores"
        self.model = base / "model"


def command_argv(w, lay: Layout, command: str) -> list:
    if command == "synth":
        return ["synth", "--config", str(lay.scene), "--out", str(lay.data)]
    if command == "split":
        return ["split", "--root", str(lay.data), "--ratio", w.ratio, "--out", str(lay.split)]
    common = ["--root", str(lay.data), "--split", str(lay.split)]
    if command == "ple":
        argv = ["ple", *common, "--out", str(lay.estimates)]
        if w.progressive:
            argv.append("--progressive")
        if w.max_distance is not None:
            argv += ["--max-distance", repr(w.max_distance)]
        if w.workers != 1:
            argv += ["--config", str(lay.ple_config)]
        return argv
    if command == "eval":
        return ["eval", *common, "--ple-dir", str(lay.estimates), "--out", str(lay.scores),
                "--group-by-offset", "--format", "both"]
    if command == "train":
        return ["train", *common, "--ple-dir", str(lay.estimates), "--out", str(lay.model),
                "--steps", str(w.train_steps)]
    raise ValueError(command)


class Children:
    """Runs `python -m plelidar.cli ...` children one at a time, recording
    wall time, peak resident memory (from os.wait4) and exit status."""

    def __init__(self, log_dir: Path, tally):
        self.log_dir = log_dir
        self.deadline = time.perf_counter() + DEADLINE_S
        self.tally = tally
        self.peak_rss_mb = 0.0
        # one BLAS thread per child, so --workers alone sets the thread count
        self.env = {var: "1" for var in BLAS_THREADS} | dict(os.environ, PYTHONPATH=str(SRC))

    def run(self, argv: list) -> float:
        log = self.log_dir / f"{argv[0]}.log"
        with open(log, "wb") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-m", "plelidar.cli", *argv],
                stdout=out, stderr=subprocess.STDOUT, env=self.env, cwd=ROOT,
            )
            timer = threading.Timer(max(0.0, self.deadline - start), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
                timer.join()
            wall = time.perf_counter() - start
        code = proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_mb = max(self.peak_rss_mb, usage.ru_maxrss / 1024.0)
        self.tally.record(code == 0, f"ple {argv[0]} exited with {code}: "
                                     + log.read_text(errors="replace")[-300:])
        return wall


def prepare(w, lay: Layout, seeds) -> None:
    shutil.rmtree(lay.base, ignore_errors=True)
    lay.base.mkdir(parents=True)
    lay.scene.write_text(w.scene(seeds.synth))
    lay.ple_config.write_text(f"workers = {w.workers}\n")


def write_estimates(w, lay: Layout, seeds):
    """score-train only: the noisy .ple tree, and the tally eval should find."""
    if not w.estimate_window:
        return None
    return checks.write_noisy_estimates(
        lay.data, lay.split, lay.estimates, w.frames, w.estimate_window,
        np.random.default_rng(seeds.noise),
    )


def check_outputs(w, lay: Layout, seeds, pairs, tally) -> None:
    if "ple" in w.stages:
        checks.check_propagation(
            tally, lay.data, lay.split, lay.estimates, w.frames, WINDOW_FRAMES,
            w.max_distance, np.random.default_rng(seeds.oracle),
        )
    if pairs is not None:
        checks.check_scores(tally, lay.scores / "report.csv", pairs)


def iterations(w, lay: Layout, seeds, seconds: float, tally):
    """Set up and run the workload's commands from scratch, again and again,
    until `seconds` have passed and at least MIN_ITERATIONS are done.

    Set-up is interleaved with the timed commands so that both sample the
    same stretch of machine time. Returns ([{"setup" or command: wall
    seconds}, ...], the children runner, the last set-up's estimate tally).
    """
    children = Children(lay.base.parent, tally)
    done, reports, pairs = [], set(), None
    end = time.perf_counter() + seconds
    while len(done) < MIN_ITERATIONS or time.perf_counter() < end:
        prepare(w, lay, seeds)
        start = time.perf_counter()
        for command in ("synth", "split"):
            children.run(command_argv(w, lay, command))
        if tally.failed:
            break
        pairs = write_estimates(w, lay, seeds)
        it = {"setup": time.perf_counter() - start}
        for command in w.stages:
            it[command] = children.run(command_argv(w, lay, command))
        done.append(it)
        report = lay.scores / "report.csv"
        reports.add(report.read_bytes() if report.is_file() else b"")
        if tally.failed:
            break
    tally.record(len(reports) == 1, "eval reports differ between identical iterations")
    return done, children, pairs


def end_to_end(w, lay: Layout, seeds, seconds: float, tally) -> dict:
    done, children, pairs = iterations(w, lay, seeds, seconds, tally)
    if tally.failed:
        return {}
    check_outputs(w, lay, seeds, pairs, tally)
    series = {key: [it[key] for it in done] for key in done[0]}
    series["pipeline"] = [sum(it[c] for c in w.stages) for it in done]
    for key, values in series.items():
        print(f"{key}_s: mean={statistics.fmean(values):.4f} median={median(values):.4f} "
              f"min={min(values):.4f} p_hi={high_percentile(values):.4f} n={len(values)}")
    # Stage times are means, not medians: on the shared 2-vCPU VM this was
    # tuned on, CPU speed moves in plateaus of 10-20 s, and a median of a few
    # iterations snaps to one plateau where a mean averages over them.
    pipeline = statistics.fmean(series["pipeline"])
    scored = sum(p.stat().st_size // 4 for p in lay.estimates.glob("*/*.ple"))
    miou, mprec = checks.read_report(lay.scores / "report.csv")
    return {
        "setup_s": median(series["setup"]),
        "pipeline_s": pipeline,
        "points_per_s": scored / pipeline,
        "peak_rss_mb": children.peak_rss_mb,
        "miou": miou,
        "mprecision": mprec,
    }


def run_in_process(cli, argv: list, log: Path, tally) -> None:
    with open(log, "w") as out, contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        try:
            code = cli.main(argv)
        except Exception:  # a traceback is a failed command, not a crashed benchmark
            traceback.print_exc()
            code = -1
    tally.record(code == 0, f"in-process ple {argv[0]} exited with {code}")


def per_layer(w, lay: Layout, seeds, seconds: float, tally) -> dict:
    from plelidar import cli

    prepare(w, lay, seeds)
    tracer = Tracer()
    tracer.install()
    try:
        for command in ("synth", "split"):
            run_in_process(cli, command_argv(w, lay, command), lay.base / f"{command}.log", tally)
        # numpy only, so the writer adds no spans
        pairs = write_estimates(w, lay, seeds) if not tally.failed else None
        for command in w.stages:
            run_in_process(cli, command_argv(w, lay, command), lay.base / f"{command}.log", tally)
    finally:
        tracer.uninstall()
    if not tally.failed:
        check_outputs(w, lay, seeds, pairs, tally)
    frames_scored = len(list(lay.estimates.glob("*/*.ple")))
    metrics = layer_metrics(tracer.spans, w.frames, frames_scored)

    # the same commands untraced, each its own process, for the tracing overhead
    metrics["trace.overhead_frac"] = 0.0
    done = iterations(w, lay, seeds, seconds, tally)[0] if not tally.failed else []
    if done and not tally.failed:
        untraced = statistics.fmean(sum(it[c] for c in w.stages) for it in done)
        traced = sum(metrics[f"cli.{c}.s"] for c in w.stages)
        metrics["trace.overhead_frac"] = traced / untraced - 1.0
    metrics["check.failed_frac"] = tally.failed / tally.attempted
    return metrics


def environment(seeds) -> dict:
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy_importable": importlib.util.find_spec("scipy") is not None,
        "seeds": vars(seeds),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "plelidar" / "cli.py").is_file():
        print(f"error: no plelidar sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    w = WORKLOADS[args.workload]
    seeds = derive_seeds(args.seed)
    print("env " + json.dumps(environment(seeds), sort_keys=True))

    base = WORK / f"{w.name}-{args.seed}-{os.getpid()}"
    tally = checks.Tally()
    try:
        lay = Layout(base / "run")
        if args.trace:
            values = per_layer(w, lay, seeds, args.seconds, tally)
        else:
            values = end_to_end(w, lay, seeds, args.seconds, tally)
    finally:
        shutil.rmtree(base, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    for note in tally.notes:
        print(f"FAILED: {note}")
    units = {k: layer_unit(k) for k in values} if args.trace else E2E_UNITS
    metrics = {name: {"value": values.get(name, 0.0), "unit": unit} for name, unit in units.items()}
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
