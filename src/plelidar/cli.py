"""Console entry point: synth / split / ple / eval / train subcommands.

Every command materializes its full configuration (defaults included) into a
flat `key = value` file next to its outputs; pass that file back through
`--config` to reproduce a run bit for bit (flags given on the command line
override the file). A command returns nothing and refuses by raising a
`PlelidarError`; `main` alone turns the outcome into an exit code: 0 success,
2 configuration problem, 3 data problem, 4 empty result. The `ple` module
owns the estimate tree that `ple` writes and `eval` and `train` read, and
`evaluation.score` the tally, fold and offset curve of an `eval` run. The
PLE_LOG environment variable (debug/info/warning/error) sets log verbosity.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import os
import sys
from pathlib import Path

# every process compiles and runs each module it imports, so a module only
# some commands run is imported inside those commands
from . import lidar_io, split as split_mod
from .errors import ConfigError, DataError, EmptyResultError, PlelidarError

log = logging.getLogger("plelidar")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_EMPTY = 4

TAU_SWEEP = (0.0, 0.5, 0.7, 0.9)
SWEEP_COLUMNS = ("tau", "pseudo_label_accuracy")


# argparse plumbing that is not a setting of the run
_NOT_SETTINGS = ("command", "func", "config")


def _write_run_config(path, args) -> None:
    """Echo every parsed setting of a command, keys sorted: a bool as
    true/false, a float to 17 significant digits, None as ''."""
    lines = []
    for key, value in sorted(vars(args).items()):
        if isinstance(value, bool):
            value = "true" if value else "false"
        elif isinstance(value, float):
            value = f"{value:.17g}"
        if key not in _NOT_SETTINGS:
            lines.append(f"{key} = {'' if value is None else value}")
    lidar_io.write_lines(path, lines)


def _check_echoable(args) -> None:
    """Refuse a setting whose echo `read_flat` would not give back: a value
    with a blank at either end or a line break."""
    for key, value in vars(args).items():
        if key not in _NOT_SETTINGS and isinstance(value, str) and (
                value != value.strip() or len(value.splitlines()) > 1):
            raise ConfigError(f"{key} = {value!r} cannot be echoed to a config file: it has "
                              "a blank at either end or a line break")


def read_flat(path) -> dict:
    """Parse `key = value` lines; a line whose first non-blank character is
    `#` is a comment, and a value keeps any `#` it holds."""
    lines = lidar_io.read_lines(path, ConfigError)
    return {key: value for _, key, value in lidar_io.key_values(lines, path, ConfigError)}


def _apply_config_file(parser: argparse.ArgumentParser, argv: list) -> None:
    """Load --config values as parser defaults so explicit flags win."""
    config_path = None
    for i, arg in enumerate(argv):
        if arg == "--config" and i + 1 < len(argv):
            config_path = argv[i + 1]
        elif arg.startswith("--config="):
            config_path = arg.split("=", 1)[1]
    if config_path is None:
        return
    values = read_flat(config_path)
    converted = {}
    for action in parser._actions:
        if action.dest not in values or action.default is argparse.SUPPRESS:
            continue
        raw = values[action.dest]
        if isinstance(action.default, bool):
            if raw not in ("true", "false"):
                raise ConfigError(f"{config_path}: {action.dest} = {raw!r} is not true or false")
            converted[action.dest] = raw == "true"
        elif action.type is not None:
            try:
                converted[action.dest] = action.type(raw)
            except ValueError:
                raise ConfigError(f"{config_path}: {action.dest} = {raw!r} is not a valid "
                                  f"{action.type.__name__}") from None
        else:
            converted[action.dest] = raw
        if action.choices is not None and converted[action.dest] not in action.choices:
            raise ConfigError(f"{config_path}: {action.dest} = {raw!r} is not one of "
                              f"{', '.join(map(str, action.choices))}")
        # a value from the file satisfies an otherwise mandatory flag
        action.required = False
    parser.set_defaults(**converted)


def cmd_synth(args) -> None:
    from . import synth

    if args.config is None:
        raise ConfigError("this command requires --config")
    cfg = synth.parse_config(lidar_io.read_lines(args.config, ConfigError), args.config)
    out = Path(args.out)
    # only a finished run leaves a synth.config, also over an earlier run's frames
    (out / "synth.config").unlink(missing_ok=True)
    frames, points = synth.export(synth.frames(cfg), synth.reported_poses(cfg), out)
    lidar_io.write_lines(out / "synth.config", synth.config_to_text(cfg).splitlines())
    print(f"frames={frames} points={points} out={out}")


def cmd_split(args) -> None:
    args.ratio = split_mod.parse_ratio(args.ratio)
    lengths = {s.sequence_id: s.frame_count for s in lidar_io.build_manifest(args.root)}
    if not lengths:
        raise DataError(f"no sequences found under {args.root}")
    result = split_mod.sample_labeled(lengths, args.ratio, args.mode)
    split_mod.write_split(result, args.out)
    labeled = split_mod.labeled_total(result)
    total = sum(lengths.values())
    _write_run_config(str(args.out) + ".config", args)
    print(f"labeled={labeled} unlabeled={total - labeled} total={total}")


def _load_split_for(source, path) -> dict:
    result = split_mod.read_split(path)
    try:
        split_mod.validate_split(result, {s: source.frame_count(s) for s in source.sequence_ids()})
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None
    return result


def cmd_ple(args) -> None:
    from . import ple

    # checked before anything is read, written or removed
    cfg = ple.PleConfig(
        window_seconds=args.window_seconds,
        max_references=args.max_refs,
        max_distance=args.max_distance,
        progressive=args.progressive,
        frequency=args.frequency,
    )
    source = ple.ManifestSource(lidar_io.build_manifest(args.root))
    labeled = _load_split_for(source, args.split)
    runner = ple.run_progressive if args.progressive else ple.run_naive
    out = Path(args.out)
    frames = points = 0

    def write(_, pmap) -> None:
        nonlocal frames, points
        ple.write_estimate(out, pmap)
        frames, points = frames + 1, points + len(pmap)

    # only a finished run leaves a ple.config, also over an earlier run's files
    (out / "ple.config").unlink(missing_ok=True)
    runner(source, labeled, cfg, emit=write)
    # no estimate is a finished run only when every frame is labeled
    if not frames and any(source.frame_count(s) > len(labeled.get(s, ()))
                          for s in source.sequence_ids()):
        raise EmptyResultError("no unlabeled frame has a labeled frame in its window")

    out.mkdir(parents=True, exist_ok=True)
    _write_run_config(out / "ple.config", args)
    print(f"frames={frames} points={points} out={out}" if frames
          else "frames=0 points=0 (every frame already labeled)")


def cmd_eval(args) -> None:
    from . import evaluation, ple

    if args.group_by_offset and args.split is None:
        raise ConfigError("--group-by-offset needs --split to locate labeled frames")
    source = ple.ManifestSource(lidar_io.build_manifest(args.root))
    split = _load_split_for(source, args.split) if args.split else None
    estimates = ple.EstimateDir(args.ple_dir, source)

    def frames():
        for seq, frame in estimates:
            # ground truth first, so that a damaged scan is named as such
            gt = source.gt_labels(seq, frame)
            roots = split.get(seq) if args.group_by_offset else None
            yield gt, estimates[seq, frame], abs(frame - ple.chain_root(roots, frame)) if roots else 0

    cm, curve = evaluation.score(frames(), args.ignore_class)
    report = evaluation.metrics(cm)
    out = Path(args.out)
    # only a finished run leaves an eval.config, also over an earlier run's reports
    (out / "eval.config").unlink(missing_ok=True)
    out.mkdir(parents=True, exist_ok=True)
    for fmt in ("csv", "json") if args.format == "both" else (args.format,):
        suffix = "csv" if fmt == "csv" else "jsonl"
        evaluation.write_report(report, out / f"report.{suffix}", fmt)
        if args.group_by_offset:
            evaluation.write_curve(curve, out / f"curve.{suffix}", fmt)
    _write_run_config(out / "eval.config", args)
    print(f"miou={report.miou:.6f} mprecision={report.mprecision:.6f} "
          f"frames={len(estimates)}")


def cmd_train(args) -> None:
    from . import evaluation, ple, ssl_mini

    # checked before anything is read, as ple checks its settings
    ssl_mini.check_max_points(args.max_points)
    cfg = ssl_mini.SSLConfig(
        lambda_mt=args.lambda_mt,
        tau=args.tau,
        alpha_ema=args.alpha_ema,
        learning_rate=args.lr,
        steps=args.steps,
        batch_size=args.batch_size,
        hidden=args.hidden,
        seed=args.seed,
    )
    source = ple.ManifestSource(lidar_io.build_manifest(args.root))
    labeled = _load_split_for(source, args.split)
    ple_maps = ple.EstimateDir(args.ple_dir, source) if args.ple_dir else None
    data = ssl_mini.assemble_training_data(
        source, labeled, ple_maps, max_points=args.max_points, seed=args.seed
    )
    out = Path(args.out)
    # only a finished run leaves a train.config, also over an earlier run's files
    (out / "train.config").unlink(missing_ok=True)
    if args.threshold_sweep:
        rows = []
        for tau in TAU_SWEEP:
            history = ssl_mini.train_loop(data, dataclasses.replace(cfg, tau=tau),
                                          args.single_branch)[2]
            # the last history row's accuracy, as a plain run prints it
            acc = history[-1][-1] if history else 0.0
            rows.append((tau, acc))
            log.info("sweep tau=%.2f accuracy=%.4f", tau, acc)
        out.mkdir(parents=True, exist_ok=True)
        evaluation.write_rows(out / "sweep.csv", "csv", "sweep", SWEEP_COLUMNS, rows)
        _write_run_config(out / "train.config", args)
        print("sweep=" + " ".join(f"{tau:g}:{acc:.4f}" for tau, acc in rows))
        return
    student, teacher, history = ssl_mini.train_loop(data, cfg, args.single_branch)
    out.mkdir(parents=True, exist_ok=True)
    ssl_mini.write_history(history, out / "history.csv")
    ssl_mini.save_model(student, out / "student.model")
    ssl_mini.save_model(teacher, out / "teacher.model")
    _write_run_config(out / "train.config", args)
    final_acc = history[-1][-1] if history else 0.0
    print(f"steps={cfg.steps} final_pseudo_label_accuracy={final_acc:.6f} out={out}")


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key = value file with defaults for this command")


def build_parser():
    """Returns (parser, {command: subparser})."""
    parser = argparse.ArgumentParser(
        prog="ple",
        description="Pseudo-label propagation for sequential LiDAR scans",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}

    p = commands["synth"] = sub.add_parser("synth", help="generate a synthetic dataset")
    _add_common(p)
    p.add_argument("--out", required=True, help="dataset root to create")
    p.set_defaults(func=cmd_synth)

    p = commands["split"] = sub.add_parser("split", help="pick the labeled subset of frames")
    _add_common(p)
    p.add_argument("--root", required=True, help="dataset root")
    p.add_argument("--ratio", required=True, help="labeled fraction, e.g. 0.005 or 0.5%%")
    p.add_argument("--out", required=True, help="split file to write")
    p.add_argument("--mode", default="global-floor", choices=split_mod.MODES)
    p.set_defaults(func=cmd_split)

    p = commands["ple"] = sub.add_parser("ple", help="propagate labels to unlabeled frames")
    _add_common(p)
    p.add_argument("--root", required=True)
    p.add_argument("--split", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--progressive", action="store_true", default=False)
    p.add_argument("--window-seconds", type=float, default=1.0)
    p.add_argument("--max-refs", type=int, default=4)
    p.add_argument("--max-distance", type=float, default=float("inf"),
                   help="meters; inf leaves every match valid")
    p.add_argument("--workers", type=int, default=1, help="ignored; ple is single-threaded")
    p.add_argument("--frequency", type=float, default=10.0,
                   help="scan rate in Hz; turns --window-seconds into frames")
    p.set_defaults(func=cmd_ple)

    p = commands["eval"] = sub.add_parser("eval", help="score estimates against ground truth")
    _add_common(p)
    p.add_argument("--root", required=True)
    p.add_argument("--ple-dir", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--format", default="csv", choices=("csv", "json", "both"))
    p.add_argument("--group-by-offset", action="store_true", default=False)
    p.add_argument("--split", default=None)
    p.add_argument("--ignore-class", type=int, default=lidar_io.IGNORE_CLASS)
    p.set_defaults(func=cmd_eval)

    p = commands["train"] = sub.add_parser("train", help="train the dual-head classifier")
    _add_common(p)
    p.add_argument("--root", required=True)
    p.add_argument("--split", required=True)
    p.add_argument("--ple-dir", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--lambda-mt", type=float, default=250.0)
    p.add_argument("--tau", type=float, default=0.9)
    p.add_argument("--alpha-ema", type=float, default=0.99)
    p.add_argument("--lr", type=float, default=0.02)
    p.add_argument("--steps", type=int, default=2000)
    p.add_argument("--batch-size", type=int, default=256)
    p.add_argument("--hidden", type=int, default=32)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--single-branch", action="store_true", default=False)
    p.add_argument("--threshold-sweep", action="store_true", default=False)
    p.add_argument("--max-points", type=int, default=20000)
    p.set_defaults(func=cmd_train)

    return parser, commands


def _configure_logging() -> None:
    level_name = os.environ.get("PLE_LOG", "warning").upper()
    level = getattr(logging, level_name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def main(argv=None) -> int:
    """Run one command and return its exit code; argparse's usage errors
    leave through SystemExit(2)."""
    _configure_logging()
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, commands = build_parser()
    try:
        if argv and argv[0] in commands and argv[0] != "synth":
            _apply_config_file(commands[argv[0]], argv[1:])
        args = parser.parse_args(argv)
        if args.command != "synth":
            _check_echoable(args)
        args.func(args)
    except (PlelidarError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, ConfigError):
            return EXIT_CONFIG
        return EXIT_EMPTY if isinstance(exc, EmptyResultError) else EXIT_DATA
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
