"""Console entry point: synth / split / ple / eval / train subcommands.

Every command materializes its full configuration (defaults included) into a
flat `key = value` file next to its outputs; pass that file back through
`--config` to reproduce a run bit for bit (flags given on the command line
override the file). Exit codes: 0 success, 2 configuration problem, 3 data
problem, 4 empty result. The PLE_LOG environment variable (debug/info/
warning/error) sets log verbosity.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import os
import sys
from collections.abc import Mapping
from pathlib import Path

import numpy as np

# every process compiles and runs each module it imports, so a module only
# some commands run is imported inside those commands
from . import lidar_io, ple, split as split_mod
from .errors import ConfigError, DataError, EmptyResultError, MissingDataError, PlelidarError

log = logging.getLogger("plelidar")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_EMPTY = 4

TAU_SWEEP = (0.0, 0.5, 0.7, 0.9)
SWEEP_COLUMNS = ("tau", "pseudo_label_accuracy")


def write_flat(path, pairs: dict) -> None:
    lines = []
    for key in sorted(pairs):
        value = pairs[key]
        if isinstance(value, bool):
            value = "true" if value else "false"
        elif isinstance(value, float):
            value = f"{value:.17g}"
        lines.append(f"{key} = {value}")
    lidar_io.write_lines(path, lines)


# argparse plumbing that is not a setting of the run
_NOT_SETTINGS = ("command", "func", "config", "needs_config")


def _write_run_config(path, args) -> None:
    """Echo every parsed setting of a command; None is written as ''."""
    write_flat(path, {key: "" if value is None else value
                      for key, value in vars(args).items() if key not in _NOT_SETTINGS})


def _unreadable_setting(args):
    """The first setting whose echo `read_flat` would not give back: a
    value with a blank at either end or a line break."""
    for key, value in vars(args).items():
        if key in _NOT_SETTINGS or not isinstance(value, str):
            continue
        if value != value.strip() or len(value.splitlines()) > 1:
            return key, value
    return None


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


def _manifest_lengths(manifest: tuple) -> dict:
    return {s.sequence_id: s.frame_count for s in manifest}


def cmd_synth(args) -> int:
    from . import synth

    cfg = synth.parse_config(lidar_io.read_lines(args.config, ConfigError), args.config)
    out = Path(args.out)
    frames, points = synth.export(synth.frames(cfg), synth.reported_poses(cfg), out)
    lidar_io.write_lines(out / "synth.config", synth.config_to_text(cfg).splitlines())
    print(f"frames={frames} points={points} out={out}")
    return EXIT_OK


def cmd_split(args) -> int:
    args.ratio = split_mod.parse_ratio(args.ratio)
    manifest = lidar_io.build_manifest(args.root)
    lengths = _manifest_lengths(manifest)
    if not lengths:
        raise DataError(f"no sequences found under {args.root}")
    result = split_mod.sample_labeled(lengths, args.ratio, args.mode)
    split_mod.write_split(result, args.out)
    labeled = split_mod.labeled_total(result)
    total = sum(lengths.values())
    _write_run_config(str(args.out) + ".config", args)
    print(f"labeled={labeled} unlabeled={total - labeled} total={total}")
    return EXIT_OK


def _load_split_for(manifest, path) -> dict:
    result = split_mod.read_split(path)
    try:
        split_mod.validate_split(result, _manifest_lengths(manifest))
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None
    return result


def cmd_ple(args) -> int:
    # checked before anything is read, written or removed
    cfg = ple.PleConfig(
        window_seconds=args.window_seconds,
        max_references=args.max_refs,
        max_distance=args.max_distance,
        progressive=args.progressive,
        frequency=args.frequency,
    )
    manifest = lidar_io.build_manifest(args.root)
    source = ple.ManifestSource(manifest)
    labeled = _load_split_for(manifest, args.split)
    runner = ple.run_progressive if args.progressive else ple.run_naive
    out = Path(args.out)
    frames = points = 0

    def write(key, pmap) -> None:
        nonlocal frames, points
        seq, frame = key
        seq_dir = out / seq
        seq_dir.mkdir(parents=True, exist_ok=True)
        ple.write_ple(pmap, seq_dir / f"{frame:06d}{ple.PLE_SUFFIX}")
        frames, points = frames + 1, points + len(pmap)

    # only a finished run leaves a ple.config, also over an earlier run's files
    (out / "ple.config").unlink(missing_ok=True)
    runner(source, labeled, cfg, emit=write)

    out.mkdir(parents=True, exist_ok=True)
    _write_run_config(out / "ple.config", args)
    total_unlabeled = sum(
        source.frame_count(s) - len(labeled.get(s, ()))
        for s in source.sequence_ids()
    )
    if not frames:
        if total_unlabeled == 0:
            print("frames=0 points=0 (every frame already labeled)")
            return EXIT_OK
        raise EmptyResultError("no unlabeled frame has a labeled frame in its window")
    print(f"frames={frames} points={points} out={out}")
    return EXIT_OK


def _eval_frames(ple_dir: Path, source) -> list:
    """(sequence, frame, path) of each estimate under a --ple-dir tree, taken
    as `ple` writes it: a file `<seq>/<frame:06d>.ple` for a frame of the
    dataset. Any other directory or .ple is a data error naming its path."""
    if not ple_dir.is_dir():
        raise MissingDataError(f"{ple_dir} is not a directory")
    frames = []
    for seq_dir in sorted(p for p in ple_dir.iterdir() if p.is_dir()):
        seq = seq_dir.name
        if seq not in source.sequence_ids():
            raise DataError(f"{seq_dir}: unknown sequence {seq!r}, not in the dataset")
        count = source.frame_count(seq)
        for f in sorted(seq_dir.glob(f"*{ple.PLE_SUFFIX}")):
            stem = f.stem
            if not (stem.isascii() and stem.isdigit() and stem == f"{int(stem):06d}"
                    and f.is_file()):
                raise DataError(f"{f}: an estimate is a file named "
                                f"<frame:06d>{ple.PLE_SUFFIX}, as ple writes it")
            frame = int(stem)
            if frame >= count:
                raise DataError(f"{f}: frame {frame} is outside 0..{count - 1} "
                                f"of sequence {seq}")
            frames.append((seq, frame, f))
    return frames


def cmd_eval(args) -> int:
    from . import evaluation

    if args.group_by_offset and args.split is None:
        raise ConfigError("--group-by-offset needs --split to locate labeled frames")
    manifest = lidar_io.build_manifest(args.root)
    source = ple.ManifestSource(manifest)
    split = _load_split_for(manifest, args.split) if args.split else None
    estimates = _EstimateDir(args.ple_dir, source)
    if not estimates:
        raise EmptyResultError(f"no {ple.PLE_SUFFIX} files under {Path(args.ple_dir)}")

    cm = None
    per_frame = []
    for seq, frame in estimates:
        # ground truth first, so that a damaged scan is named as such
        gt = source.gt_labels(seq, frame)
        pred = estimates[seq, frame]
        classes = set(np.unique(gt.semantic).tolist())
        classes.update(np.unique(pred.semantic[pred.valid]).tolist())
        classes.discard(args.ignore_class)
        if classes:
            frame_cm = evaluation.accumulate(
                evaluation.ConfusionMatrix(classes, args.ignore_class), gt, pred)
            cm = frame_cm if cm is None else evaluation.merged(cm, frame_cm)
        roots = split.get(seq) if args.group_by_offset else None
        offset = abs(frame - ple.chain_root(roots, frame)) if roots else 0
        if offset:
            # a frame with nothing outside the ignore class scores 0
            per_frame.append((offset, evaluation.metrics(frame_cm) if classes
                              else evaluation.EvalReport({}, 0.0, {}, 0.0)))
    if cm is None:
        raise EmptyResultError("nothing to evaluate outside the ignore class")

    report = evaluation.metrics(cm)
    out = Path(args.out)
    # only a finished run leaves an eval.config, also over an earlier run's reports
    (out / "eval.config").unlink(missing_ok=True)
    out.mkdir(parents=True, exist_ok=True)
    curve = evaluation.interval_curve(per_frame) if args.group_by_offset else None
    for fmt in ("csv", "json") if args.format == "both" else (args.format,):
        suffix = "csv" if fmt == "csv" else "jsonl"
        evaluation.write_report(report, out / f"report.{suffix}", fmt)
        if curve is not None:
            evaluation.write_curve(curve, out / f"curve.{suffix}", fmt)
    _write_run_config(out / "eval.config", args)
    print(f"miou={report.miou:.6f} mprecision={report.mprecision:.6f} "
          f"frames={len(estimates)}")
    return EXIT_OK


class _EstimateDir(Mapping):
    """The estimates of a --ple-dir tree by (sequence, frame); each lookup
    reads its file and checks that its .meta names that frame and that it
    holds one label per point, so no estimate is held longer than its caller
    holds it."""

    def __init__(self, ple_dir, source):
        self._paths = {(s, f): path for s, f, path in _eval_frames(Path(ple_dir), source)}
        self._source = source

    def __getitem__(self, key):
        seq, frame = key
        path = self._paths[key]
        pred = ple.read_ple(path)
        if (pred.sequence_id, pred.frame_id) != key:
            raise DataError(f"{path}: its {ple.META_SUFFIX} names frame "
                            f"{pred.sequence_id}/{pred.frame_id}, not {seq}/{frame}")
        points = self._source.point_count(seq, frame)
        if len(pred) != points:
            raise DataError(f"frame {seq}/{frame}: {path} holds {len(pred)} estimates "
                            f"for {points} points")
        return pred

    def __contains__(self, key) -> bool:
        return key in self._paths

    def __iter__(self):
        return iter(self._paths)

    def __len__(self) -> int:
        return len(self._paths)


def _warn_if_unscored(scored: int, tau: float) -> None:
    if not scored:
        log.warning("no unlabeled point cleared tau=%g (or none exists): "
                    "pseudo-label accuracy 0 scores nothing", tau)


def cmd_train(args) -> int:
    from . import evaluation, ssl_mini

    manifest = lidar_io.build_manifest(args.root)
    source = ple.ManifestSource(manifest)
    labeled = _load_split_for(manifest, args.split)
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
    ple_maps = _EstimateDir(args.ple_dir, source) if args.ple_dir else None
    data = ssl_mini.assemble_training_data(
        source, labeled, ple_maps, max_points=args.max_points, seed=args.seed
    )
    out = Path(args.out)
    # only a finished run leaves a train.config, also over an earlier run's files
    (out / "train.config").unlink(missing_ok=True)
    if args.threshold_sweep:
        rows = []
        for tau in TAU_SWEEP:
            _, teacher, _ = ssl_mini.train_loop(data, dataclasses.replace(cfg, tau=tau),
                                                args.single_branch)
            acc, scored = ssl_mini.pseudo_label_score(teacher, data, tau)
            _warn_if_unscored(scored, tau)
            rows.append((tau, acc))
            log.info("sweep tau=%.2f accuracy=%.4f", tau, acc)
        out.mkdir(parents=True, exist_ok=True)
        evaluation.write_rows(out / "sweep.csv", "csv", "sweep", SWEEP_COLUMNS, rows)
        _write_run_config(out / "train.config", args)
        print("sweep=" + " ".join(f"{tau:g}:{acc:.4f}" for tau, acc in rows))
        return EXIT_OK
    student, teacher, history = ssl_mini.train_loop(data, cfg, args.single_branch)
    out.mkdir(parents=True, exist_ok=True)
    ssl_mini.write_history(history, out / "history.csv")
    ssl_mini.save_model(student, out / "student.model")
    ssl_mini.save_model(teacher, out / "teacher.model")
    _write_run_config(out / "train.config", args)
    final_acc = history[-1][-1] if history else 0.0
    if history:
        _warn_if_unscored(ssl_mini.pseudo_label_score(teacher, data, cfg.tau)[1], cfg.tau)
    print(f"steps={cfg.steps} final_pseudo_label_accuracy={final_acc:.6f} out={out}")
    return EXIT_OK


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
    p.set_defaults(func=cmd_synth, needs_config=True)

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
    _configure_logging()
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, commands = build_parser()
    if argv and argv[0] in commands and argv[0] != "synth":
        try:
            _apply_config_file(commands[argv[0]], argv[1:])
        except (PlelidarError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
    args = parser.parse_args(argv)
    if getattr(args, "needs_config", False) and args.config is None:
        print("error: this command requires --config", file=sys.stderr)
        return EXIT_CONFIG
    unreadable = _unreadable_setting(args) if args.command != "synth" else None
    if unreadable is not None:
        key, value = unreadable
        print(f"error: {key} = {value!r} cannot be echoed to a config file: it has a blank "
              "at either end or a line break", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return args.func(args)
    except (PlelidarError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, ConfigError):
            return EXIT_CONFIG
        return EXIT_EMPTY if isinstance(exc, EmptyResultError) else EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
