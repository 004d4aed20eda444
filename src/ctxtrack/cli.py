"""Command-line interface.

Subcommands: gen, train, track, update-sim, respmap. Every command reads
the same JSON experiment config (all omitted sections fall back to
defaults). Exit codes: 0 success, 1 invalid config or arguments or an
output path that cannot be written, 2 numeric failure during computation.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .config import ExperimentConfig, default_config, load_config
from .errors import ConfigError, NumericError
from .fileio import (format_float, load_params, save_params, to_uint8,
                     write_csv, write_ppm)
from .imageops import box_window, crop_resize
from .model import TrackerNet
from .respmap import response_maps, write_response_maps
from .synthetic import gen_sequence
from .tracker import compute_metrics, make_template, run_tracker, simulate_updates
from .train import toy_train

METRICS_HEADER = ["sequence_id", "frame", "iou", "confidence", "threshold",
                  "updated"]


class _Parser(argparse.ArgumentParser):
    """argparse normally exits with status 2 on bad arguments; that code
    is reserved for numeric failures here, so argument problems raise the
    config error instead."""

    def error(self, message):
        raise ConfigError(message)


def _load(args) -> ExperimentConfig:
    if args.config is None:
        return default_config()
    return load_config(args.config)


def _check_outputs(*paths, out_dir=None, inputs=()) -> None:
    """Fail before any work when an output file is a directory, its
    directory is missing, or it resolves to the same file as another
    output or as one of the command's `inputs`, or when `out_dir` or its
    nearest existing ancestor is not a directory; other write errors still
    surface as an OSError at the write."""
    seen = {Path(p).resolve(): f"input {p}" for p in inputs if p is not None}
    for path in paths:
        if path is None:
            continue
        if Path(path).is_dir():
            raise ConfigError(f"cannot write output {path}: it is a directory")
        if not Path(path).parent.is_dir():
            raise ConfigError(f"cannot write output {path}: directory "
                              f"{Path(path).parent} does not exist")
        resolved = Path(path).resolve()
        if resolved in seen:
            raise ConfigError(f"cannot write output {path}: same file as {seen[resolved]}")
        seen[resolved] = f"output {path}"
    if out_dir is not None:
        out_dir = Path(out_dir)
        existing = next(d for d in (out_dir, *out_dir.parents) if d.exists())
        if not existing.is_dir():
            raise ConfigError(f"cannot write output directory {out_dir}: "
                              f"{existing} is not a directory")


def _build_net(cfg: ExperimentConfig, params_path=None) -> TrackerNet:
    try:
        net = TrackerNet(cfg.spec, np.random.default_rng(cfg.train.seed))
    except (ValueError, MemoryError) as exc:
        # a size that passes every config check can still be one numpy
        # cannot shape or allocate
        raise ConfigError(f"cannot build the model: {exc}") from exc
    if params_path is not None:
        state = load_params(params_path)
        try:
            net.load_state(state)
        except ValueError as exc:
            raise ConfigError(
                f"parameter file does not match the model: {exc}") from exc
    return net


def _cmd_gen(args) -> int:
    _check_outputs(out_dir=args.out_dir)
    cfg = _load(args)
    sequence = gen_sequence(cfg.sequence)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for t, frame in enumerate(sequence.frames):
        write_ppm(out_dir / f"frame{t:04d}.ppm", to_uint8(frame))
        x1, y1, x2, y2 = sequence.boxes[t]
        rows.append([str(t)] + [format_float(v) for v in (x1, y1, x2, y2)]
                    + [str(int(sequence.occluded[t]))])
    write_csv(out_dir / "annotations.csv",
              ["frame", "x1", "y1", "x2", "y2", "occluded"], rows)
    print(f"wrote {len(sequence)} frames and annotations to {out_dir}")
    return 0


def _cmd_train(args) -> int:
    _check_outputs(args.params, args.loss_csv, inputs=[args.config])
    cfg = _load(args)
    sequence = gen_sequence(cfg.sequence)
    net = _build_net(cfg)
    losses = toy_train(net, sequence, cfg.train)
    save_params(args.params, net.state())
    if args.loss_csv is not None:
        write_csv(args.loss_csv, ["step", "loss"],
                  [[str(i), format_float(v)] for i, v in enumerate(losses)])
    print(f"trained {cfg.train.steps} steps: first loss "
          f"{format_float(losses[0])}, last loss {format_float(losses[-1])}")
    print(f"wrote parameters to {args.params}")
    return 0


def _cmd_track(args) -> int:
    _check_outputs(args.metrics, inputs=[args.config, args.params])
    cfg = _load(args)
    sequence = gen_sequence(cfg.sequence)
    if len(sequence) < 2:
        raise ConfigError("tracking needs a sequence with at least 2 frames")
    net = _build_net(cfg, args.params)
    records = run_tracker(net, sequence, cfg.track)
    rows = [[args.sequence_id, str(r.frame), format_float(r.iou),
             format_float(r.confidence), format_float(r.threshold),
             str(int(r.updated))] for r in records]
    write_csv(args.metrics, METRICS_HEADER, rows)
    metrics = compute_metrics([r.iou for r in records])
    print(f"AO {format_float(metrics.ao)}  SR@0.5 {format_float(metrics.sr50)}"
          f"  SR@0.75 {format_float(metrics.sr75)}")
    print(f"wrote per-frame metrics to {args.metrics}")
    return 0


def _read_trace(path) -> list[float]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read trace file {path}: {exc}") from exc
    values = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            values.append(float(line))
        except ValueError as exc:
            raise ConfigError(
                f"{path}:{lineno}: not a confidence value: {line!r}") from exc
    if not values:
        raise ConfigError(f"trace file {path} holds no confidence values")
    return values


def _cmd_update_sim(args) -> int:
    _check_outputs(args.out, inputs=[args.config, args.trace])
    cfg = _load(args)
    mode = cfg.track.update_mode
    trace = _read_trace(args.trace)
    decisions = simulate_updates(trace, mode)
    rows = [[str(i), format_float(c), format_float(d.threshold),
             str(int(d.update))]
            for i, (c, d) in enumerate(zip(trace, decisions))]
    write_csv(args.out, ["index", "confidence", "threshold", "updated"], rows)
    total = sum(d.update for d in decisions)
    print(f"mode {mode}: {total} update(s) over {len(trace)} frames")
    print(f"wrote decisions to {args.out}")
    return 0


def _parse_layers(text) -> list[int] | None:
    if text is None:
        return None
    try:
        layers = [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise ConfigError(
            f"--layers expects comma-separated integers, got {text!r}"
        ) from exc
    if not layers:
        raise ConfigError(f"--layers names no layer, got {text!r}")
    return layers


def _cmd_respmap(args) -> int:
    _check_outputs(out_dir=args.out_dir)
    cfg = _load(args)
    layers = _parse_layers(args.layers)
    sequence = gen_sequence(cfg.sequence)
    if len(sequence) < 2:
        raise ConfigError("response maps need a sequence with at least 2 frames")
    frame = args.frame
    if not 1 <= frame < len(sequence):
        raise ConfigError(
            f"--frame must lie in [1, {len(sequence) - 1}], got {frame}")
    net = _build_net(cfg, args.params)
    spec = cfg.spec

    target = make_template(sequence.frames[0], sequence.boxes[0], spec.target_size)
    previous = make_template(sequence.frames[frame - 1], sequence.boxes[frame - 1],
                             spec.search_size)
    search_window = box_window(sequence.boxes[frame - 1], spec.search_size)
    search = crop_resize(sequence.frames[frame], search_window)

    maps = response_maps(net, target.crop, previous.crop, search,
                         prev_box=previous.box,
                         layer_indices=layers)
    paths = write_response_maps(maps, args.out_dir)
    print(f"wrote {len(paths)} response maps to {args.out_dir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ctxtrack",
                     description="Toy visual tracker with cross-frame "
                                 "attention and online template updates.")
    sub = parser.add_subparsers(dest="command", metavar="command")

    def add(name, help_text, func):
        p = sub.add_parser(name, help=help_text, description=help_text)
        p.add_argument("--config", default=None,
                       help="JSON experiment config (defaults when omitted)")
        p.set_defaults(func=func)
        return p

    p = add("gen", "render a synthetic sequence to PPM frames plus "
                   "a box-annotation CSV", _cmd_gen)
    p.add_argument("--out-dir", required=True, help="output directory")

    p = add("train", "run the toy overfit loop and write a parameter file",
            _cmd_train)
    p.add_argument("--params", required=True, help="output parameter file")
    p.add_argument("--loss-csv", default=None,
                   help="optional per-step loss CSV")

    p = add("track", "track the synthetic sequence and write per-frame "
                     "metrics", _cmd_track)
    p.add_argument("--params", default=None,
                   help="parameter file from `train` (random init when "
                        "omitted)")
    p.add_argument("--metrics", required=True, help="output metrics CSV")
    p.add_argument("--sequence-id", default="seq0",
                   help="identifier written to the metrics CSV")

    p = add("update-sim", "replay a confidence trace through the update "
                          "policy of track.update_mode alone", _cmd_update_sim)
    p.add_argument("--trace", required=True,
                   help="text file, one confidence in [0, 1] per line")
    p.add_argument("--out", required=True, help="output decision CSV")

    p = add("respmap", "write per-layer, per-segment response maps as PGM "
                       "images", _cmd_respmap)
    p.add_argument("--params", default=None,
                   help="parameter file (random init when omitted)")
    p.add_argument("--out-dir", required=True, help="output directory")
    p.add_argument("--layers", default=None,
                   help="comma-separated layer indices (all when omitted)")
    p.add_argument("--frame", type=int, default=1,
                   help="search frame index (previous frame is its "
                        "predecessor)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "func", None) is None:
            raise ConfigError("missing command (expected one of: gen, "
                              "train, track, update-sim, respmap)")
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # every input read raises ConfigError, so this is an output write
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
