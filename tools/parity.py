#!/usr/bin/env python3
"""Check that the working tree computes the same bits as an earlier revision.

    python tools/parity.py REV [--expect-change NAME ...]
    python tools/parity.py --ulp-sweep N

Copies `src/` as committed at REV into a temporary directory, then runs
one battery of outputs for REV and for the working tree, each in a fresh
interpreter with one BLAS thread and its own hash seed, so an output that
depends on the hash seed shows as a difference. It prints one `same` or
`DIFF` line per artifact with its sha256, and exits 1 when an artifact
differs that no `--expect-change NAME` names (a deliberate change, to be
explained where the change is described).

The battery (about 50 s per tree; the two trees run at once):
  state.*          `state()` names, shapes and bytes in key order, for toy
                   seeds 0-2 and small seed 0
  taped.*          one taped toy forward of the three images encoded in one
                   pass, with `tracking_loss` and its backward: the head
                   outputs (`taped.outputs`), the loss (`taped.loss`) and
                   every gradient (`taped.grads`), so a change to the loss
                   alone leaves `taped.outputs` same
  records.*        `run_tracker` records for the four update modes x toy
                   seeds 0-2, before and after training, per `final_keys`
  records.long.*   the same for seeds 0-1 on the benchmark's track_toy
                   sequences (61 frames, 3 distractors, drift 0.002, an
                   occlusion over frames 30-38), where crops reach past the
                   frame edge and always-last changes the template every
                   frame
  records.two_frame
                   the same for toy seed 0, untrained, on a 2-frame
                   sequence, whose one forward builds each layer's own terms
  train.*          the per-step losses and final `state()` of that training
                   (30 steps of `toy_train` per seed)
  track.small      `run_tracker` records of the untrained small preset on
                   a 3-frame sequence, whose forwards share `bias_terms()`
  track.small.two_frame
                   the same on a 2-frame sequence, the benchmark's
                   track_small shape, whose one forward builds each layer's
                   own terms
  forward.small    one tape-free forward of that net on random images, each
                   encoded on its own as the tracker encodes them: the cls
                   and reg outputs and the tokens of every traced joint
                   layer, each layer building its own terms, so that a
                   last-bit change the records round away still shows
  forward.small.held
                   the same forward given `bias_terms()`
  cli.*            a 20-step `ctxtrack train` parameter file and loss CSV,
                   then `ctxtrack track` and `ctxtrack respmap --frame 3`
                   with those parameters: the metrics CSV and every PGM
  overfit.*        the run of `test_07` (tests/test_acceptance.py), with
                   the config read from the test module's OVERFIT_*
                   constants: its 500 per-step losses, the final `state()`,
                   and the `run_tracker` records of the trained net

The battery calls the package's public API as this tree has it, so REV
must be recent enough to share it. Hashes depend on the numpy and BLAS
build, so compare trees on one machine only; tests pin none of them.

`--ulp-sweep N` measures instead how far the working tree's `test_07`
(tests/test_acceptance.py) depends on the last bit of its start. For k = 0
to N-1 it builds that test's net, moves element 0 of parameter (37*k) mod P
(in `parameters()` order, of P) up by one ulp with `np.nextafter(x, +inf)`,
and runs the test's training and tracking, read from the test module's
OVERFIT_* constants. Each k runs in a fresh single-BLAS-thread interpreter,
two at a time, about 30 s each. It prints k, the parameter, the final loss
ratio (mean of the last 10 losses over the first) and AO, and exits 1 when
a run misses the test's bounds. It is not part of the test suite.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
NO_GRAD = b"<no gradient>"   # hashed in place of a gradient that is None


def _digest(*chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk if isinstance(chunk, bytes) else str(chunk).encode())
    return h.hexdigest()


def _arrays_digest(named) -> str:
    """sha256 over (name, shape, bytes) of each array, in the given order."""
    chunks = []
    for name, arr in named:
        if arr is None:
            chunks += [name, NO_GRAD]
        else:
            arr = np.ascontiguousarray(arr, dtype=np.float64)
            chunks += [name, arr.shape, arr.tobytes()]
    return _digest(*chunks)


def _records_digest(runs) -> str:
    return _digest(*(np.array([[r.frame, *r.box, r.iou, r.confidence,
                                r.threshold, r.updated] for r in records],
                              dtype=np.float64).tobytes() for records in runs))


def _overfit_run(k: int | None = None):
    """`test_07`'s net, per-step losses and track records, after moving one
    initial weight up by one ulp when `k` is given (see `ulp_run`)."""
    sys.path.insert(0, str(ROOT / "tests"))
    from test_acceptance import OVERFIT_SEQUENCE, OVERFIT_TRAIN
    from ctxtrack.model import TrackerNet, toy_spec
    from ctxtrack.synthetic import gen_sequence
    from ctxtrack.tracker import TrackConfig, run_tracker
    from ctxtrack.train import toy_train

    net = TrackerNet(toy_spec(), np.random.default_rng(0))
    name = None
    if k is not None:
        name, p = list(net.parameters().items())[(37 * k) % len(net.parameters())]
        p.data.flat[0] = np.nextafter(p.data.flat[0], np.inf)
    sequence = gen_sequence(OVERFIT_SEQUENCE)
    losses = toy_train(net, sequence, OVERFIT_TRAIN)
    return net, name, losses, run_tracker(net, sequence, TrackConfig())


def battery() -> dict[str, str]:
    """sha256 of every artifact, computed by the `ctxtrack` on sys.path."""
    from ctxtrack.cli import main as ctxtrack_main
    from ctxtrack.heads import tracking_loss
    from ctxtrack.model import TrackerNet, small_spec, toy_spec
    from ctxtrack.synthetic import SequenceConfig, gen_sequence
    from ctxtrack.tensor import no_grad
    from ctxtrack.tracker import TrackConfig, run_tracker
    from ctxtrack.train import TrainConfig, toy_train
    from ctxtrack.update import MODES

    out: dict[str, str] = {}
    for seed in range(3):
        net = TrackerNet(toy_spec(), np.random.default_rng(seed))
        out[f"state.toy.seed{seed}"] = _arrays_digest(net.state().items())
    small = TrackerNet(small_spec(), np.random.default_rng(0))
    out["state.small.seed0"] = _arrays_digest(small.state().items())
    for name, frames in (("track.small", 3), ("track.small.two_frame", 2)):
        out[name] = _records_digest([run_tracker(
            small, gen_sequence(SequenceConfig(num_frames=frames)),
            TrackConfig(update_mode="always-last"))])
    rng, t, s = np.random.default_rng(0), small.spec.target_size, small.spec.search_size
    with no_grad():
        inputs = (small.encode([rng.random((t, t, 3))]),
                  small.encode([rng.random((s, s, 3))], (0.3 * s, 0.3 * s, 0.6 * s, 0.6 * s)),
                  small.encode([rng.random((s, s, 3))]))
        for name, held in (("forward.small", False), ("forward.small.held", True)):
            trace = []
            outputs = small.forward(*inputs, trace=trace,
                                    bias_terms=small.bias_terms() if held else None)
            out[name] = _arrays_digest([("cls", outputs.cls.data), ("reg", outputs.reg.data),
                                        *((f"joint{i}", x.data) for i, x in enumerate(trace))])
    del small, inputs

    net = TrackerNet(toy_spec(), np.random.default_rng(0))
    rng = np.random.default_rng(0)
    target, previous, search = (rng.random((32, 32, 3)), rng.random((64, 64, 3)),
                                rng.random((64, 64, 3)))
    outputs = net.forward(net.encode([target, previous, search], (16.0, 16.0, 48.0, 48.0)))
    loss, _, _ = tracking_loss(outputs, (20.0, 18.0, 44.0, 46.0))
    loss.backward()
    out["taped.outputs"] = _arrays_digest(
        [("cls", outputs.cls.data), ("reg", outputs.reg.data)])
    out["taped.loss"] = _arrays_digest([("loss", loss.data)])
    out["taped.grads"] = _arrays_digest(
        (name, p.grad) for name, p in net.parameters().items())

    def long_sequence(seed):   # the benchmark's track_toy sequence config
        return gen_sequence(SequenceConfig(
            seed=seed, num_frames=61, num_distractors=3, appearance_drift=0.002,
            occlusion_start=30, occlusion_end=38))

    def track_all_modes(net, sequences):
        return [run_tracker(net, sequence, TrackConfig(update_mode=m))
                for sequence in sequences for m in MODES]

    out["records.two_frame"] = _records_digest(track_all_modes(
        TrackerNet(toy_spec(), np.random.default_rng(0)),
        [gen_sequence(SequenceConfig(num_frames=2))]))

    for keys in ("templates", "all"):
        runs = {"untrained": [], "trained": [], "long.untrained": [], "long.trained": []}
        losses, states = [], []
        for seed in range(3):
            net = TrackerNet(toy_spec(final_keys=keys), np.random.default_rng(seed))
            sequence = gen_sequence(SequenceConfig(seed=seed))
            long = [long_sequence(seed)] if seed < 2 else []
            runs["untrained"] += track_all_modes(net, [sequence])
            runs["long.untrained"] += track_all_modes(net, long)
            losses.append(toy_train(net, sequence, TrainConfig(steps=30, seed=seed)))
            states += [(f"seed{seed}.{name}", arr) for name, arr in net.state().items()]
            runs["trained"] += track_all_modes(net, [sequence])
            runs["long.trained"] += track_all_modes(net, long)
        for name, records in runs.items():
            out[f"records.{name}.{keys}"] = _records_digest(records)
        out[f"train.losses.{keys}"] = _arrays_digest(
            (f"seed{s}", np.array(v)) for s, v in enumerate(losses))
        out[f"train.state.{keys}"] = _arrays_digest(states)

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        config = tmp / "config.json"
        config.write_text(json.dumps({"train": {"steps": 20}}), encoding="utf-8")
        params = tmp / "p.params"
        commands = [
            ["train", "--params", params, "--loss-csv", tmp / "loss.csv"],
            ["track", "--params", params, "--metrics", tmp / "metrics.csv"],
            ["respmap", "--params", params, "--frame", "3", "--out-dir", tmp / "maps"],
        ]
        for command in commands:
            with contextlib.redirect_stdout(io.StringIO()):
                code = ctxtrack_main([str(a) for a in command] + ["--config", str(config)])
            if code != 0:
                raise RuntimeError(f"ctxtrack {command[0]} exited {code}")
        out["cli.params"] = _digest(params.read_bytes())
        out["cli.loss_csv"] = _digest((tmp / "loss.csv").read_bytes())
        out["cli.track_csv"] = _digest((tmp / "metrics.csv").read_bytes())
        maps = sorted((tmp / "maps").iterdir())
        out["cli.respmap_pgms"] = _digest(*(c for m in maps
                                            for c in (m.name, m.read_bytes())))
    net, _, losses, records = _overfit_run()
    out["overfit.losses"] = _arrays_digest([("losses", np.array(losses))])
    out["overfit.state"] = _arrays_digest(net.state().items())
    out["overfit.records"] = _records_digest([records])
    return out


def ulp_run(k: int) -> dict:
    """`test_07`'s final loss ratio and AO, after moving one initial weight
    of its net up by one ulp."""
    _, name, losses, records = _overfit_run(k)
    from test_acceptance import OVERFIT_MAX_RATIO, OVERFIT_MIN_AO
    from ctxtrack.tracker import compute_metrics

    ratio = float(np.mean(losses[-10:])) / losses[0]
    ao = compute_metrics([r.iou for r in records]).ao
    return {"k": k, "parameter": name, "ratio": ratio, "ao": ao,
            "miss": ratio > OVERFIT_MAX_RATIO or ao < OVERFIT_MIN_AO}


def ulp_sweep(n: int) -> int:
    """Run `ulp_run` for k = 0 to n-1, two interpreters at a time; 1 when a
    run misses `test_07`'s bounds."""
    def run(k: int) -> dict:
        proc = subprocess.run([sys.executable, __file__, "--ulp-run", str(k)],
                              env=_single_thread_env(ROOT / "src", "0"),
                              capture_output=True, text=True)
        if proc.returncode != 0:
            raise RuntimeError(f"ulp run {k} failed:\n{proc.stderr}")
        return json.loads(proc.stdout)

    print("test_07 with one initial weight one ulp up")
    print(f"{'k':>3}  {'parameter':36s} {'ratio':>6}  {'AO':>5}")
    missed = 0
    with ThreadPoolExecutor(max_workers=2) as pool:
        for r in pool.map(run, range(n)):
            missed += r["miss"]
            print(f"{r['k']:>3}  {r['parameter']:36s} {100 * r['ratio']:5.1f}%  "
                  f"{r['ao']:.3f}{'  MISS' if r['miss'] else ''}", flush=True)
    print(f"{missed} of {n} run(s) missed test_07's bounds")
    return 1 if missed else 0


def _export_src(rev: str, dest: Path) -> None:
    """Write the files under `src/` as committed at `rev` below `dest`."""
    names = subprocess.run(["git", "-C", ROOT, "ls-tree", "-r", "--name-only",
                            rev, "src"], check=True, capture_output=True,
                           text=True).stdout.split()
    for name in names:
        blob = subprocess.run(["git", "-C", ROOT, "show", f"{rev}:{name}"],
                              check=True, capture_output=True).stdout
        path = dest / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(blob)


def _single_thread_env(src: Path, hash_seed: str) -> dict:
    return dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED=hash_seed,
                OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")


def _start_battery(src: Path, cwd: Path, hash_seed: str) -> subprocess.Popen:
    return subprocess.Popen([sys.executable, __file__, "--battery", str(src)],
                            cwd=cwd, env=_single_thread_env(src, hash_seed),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("rev", nargs="?", help="git revision to compare against")
    parser.add_argument("--expect-change", action="append", default=[],
                        metavar="NAME", help="artifact allowed to differ")
    parser.add_argument("--ulp-sweep", type=int, metavar="N",
                        help="run test_07 with one initial weight one ulp up, "
                             "for N choices of the weight")
    parser.add_argument("--battery", metavar="SRC", help=argparse.SUPPRESS)
    parser.add_argument("--ulp-run", type=int, metavar="K", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.battery or args.ulp_run is not None:
        import ctxtrack
        src = Path(args.battery or ROOT / "src")
        if not Path(ctxtrack.__file__).resolve().is_relative_to(src.resolve()):
            sys.exit(f"imported {ctxtrack.__file__}, not the package under {src}")
        print(json.dumps(battery() if args.battery else ulp_run(args.ulp_run)))
        return 0
    if args.ulp_sweep is not None:
        if args.rev is not None or args.expect_change:
            parser.error("--ulp-sweep takes no REV or --expect-change")
        if args.ulp_sweep < 1:
            parser.error("--ulp-sweep N needs N >= 1")
        return ulp_sweep(args.ulp_sweep)
    if args.rev is None:
        parser.error("REV is required")
    rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "--verify",
                          f"{args.rev}^{{commit}}"], capture_output=True, text=True)
    if rev.returncode != 0:
        parser.error(f"unknown revision {args.rev!r}")
    sha = rev.stdout.strip()
    with tempfile.TemporaryDirectory(prefix="parity-") as tmp:
        tmp = Path(tmp)
        _export_src(sha, tmp / "rev")
        procs = {"REV": _start_battery(tmp / "rev" / "src", tmp, "0"),
                 "working tree": _start_battery(ROOT / "src", tmp, "1")}
        outputs = {name: proc.communicate() for name, proc in procs.items()}
    for name, proc in procs.items():
        if proc.returncode != 0:
            sys.exit(f"battery failed for {name}:\n{outputs[name][1]}")
    old, new = (json.loads(outputs[name][0]) for name in procs)
    unknown = set(args.expect_change) - set(old) - set(new)
    if unknown:
        parser.error(f"--expect-change names no artifact: {sorted(unknown)}")
    print(f"REV {args.rev} = {sha[:12]} against the working tree")
    unexpected = []
    for name in sorted(set(old) | set(new)):
        a, b = old.get(name, "missing"), new.get(name, "missing")
        if a == b:
            print(f"same  {name:28s} {a}")
            continue
        expected = name in args.expect_change
        if not expected:
            unexpected.append(name)
        print(f"DIFF  {name:28s} {a} -> {b}{'  (expected)' if expected else ''}")
    print(f"{len(unexpected)} unexpected difference(s)")
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
