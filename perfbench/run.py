"""ctxtrack benchmark: one workload per process, timed from outside.

Run from the root of a ctxtrack checkout:

    python3 perfbench/run.py --workload track_toy --seed 1 --seconds 24 --trace 0

The benchmark drives ctxtrack only through its library API, the calls the
`ctxtrack track` and `ctxtrack train` commands make, and imports the
package from the checkout's `src/`. With `--trace 0` it times the workload
untraced and prints the end-to-end metrics; with `--trace 1` it alternates
untraced calls with traced reruns of the same inputs under `tracing.Tracer`,
checks that both give the same outputs byte for byte, and prints the
per-layer metrics. Metric names and units come from BENCHMARK.json;
`layer_map.json` says which end-to-end metric and workload each per-layer
metric should move.

The host this runs on is shared, and its speed drifts by a fifth or more
over minutes while the same code runs. So every call is bracketed by runs
of a fixed reference work (`Reference`, independent of ctxtrack), and the
end-to-end times are scaled to a host that runs that work in REF_SECONDS:
a call whose reference runs took 1.2 * REF_SECONDS counts its wall time
divided by 1.2. The raw figures are printed beside them.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. An op is one tracked frame
or one training step. An exception fails every op of the call that raised;
a failed output check fails its op; either makes the exit code 1.
"""
from __future__ import annotations

import argparse
import copy
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import NamedTuple

# Each timed call gets fresh inputs (seed * SEED_STRIDE + call index), so
# no call can reuse work from an earlier one.
SEED_STRIDE = 1000
SETUP_REPEATS = 5
# Headroom over a workload's recorded peak before it may start.
MEMORY_HEADROOM = 1.25
# Host speed the end-to-end times are scaled to: the seconds one run of
# `Reference.run` takes there. Near its median on a 2 vCPU Xeon VM.
REF_SECONDS = 0.35
REF_REPEATS = 8

WORKLOADS = {
    # The paper's default inference path: p-mean policy on a long sequence
    # with distractors, drift and an occlusion window. On untrained weights
    # the policy accepts no frame, so both templates stay fixed. 61 frames
    # keep a call near 3 s, so a run holds enough host-scaled calls.
    "track_toy": {
        "config": {"sequence": {"num_frames": 61, "num_distractors": 3,
                                "appearance_drift": 0.002,
                                "occlusion_start": 30, "occlusion_end": 38}},
        "warmup": 0, "peak_mb": 160,
    },
    # Kernel-bound regime; every frame replaces the previous template. Two
    # frames keep one taped forward alive at a time: a longer sequence
    # holds the last frame's tape during the next forward, about 6.2 GB.
    # The first calls fault in fresh memory, so two are run untimed.
    "track_small": {
        "config": {"model": {"preset": "small"},
                   "track": {"update_mode": "always-last"},
                   "sequence": {"num_frames": 2}},
        "warmup": 2, "peak_mb": 3300,
    },
    # The only workload with backward and Adam; crops are jittered, so no
    # template is ever seen twice.
    "train_toy": {
        "config": {"train": {"steps": 30}},
        "warmup": 0, "peak_mb": 160,
    },
}

# Imported in a fresh interpreter to time the import share of set-up.
_IMPORTS = ("import sys, time; t = time.perf_counter(); "
            "sys.path.insert(0, sys.argv[1]); import numpy; "
            "from ctxtrack import config, model, synthetic, tracker, train; "
            "print(time.perf_counter() - t)")


class BenchError(Exception):
    """The benchmark cannot run here; reported without a result line."""


class Call(NamedTuple):
    index: int
    encoded: list          # per-op bytes; None marks a failed op
    wall: float            # seconds
    outputs: object
    ref: float             # mean seconds of the reference runs around it


class _Node:
    __slots__ = ("value", "next")

    def __init__(self, value: int, next_node: "_Node | None"):
        self.value = value
        self.next = next_node


class Reference:
    """Fixed work whose time tracks the host's speed.

    The host's slow spells hit Python bytecode, small numpy ops, memory
    streaming, BLAS and object allocation unevenly, and a frame does all
    of these; timing each kind tracks the frame's speed better than any
    one of them alone. The buffers stay resident for the whole run.
    """

    def __init__(self, np):
        rng = np.random.default_rng(0)
        self.np = np
        self.small = rng.random((64, 64)) * 0.1
        self.square = rng.random((256, 256)) * 0.01
        self.stream = rng.random(4_000_000)
        self.out = np.empty_like(self.stream)

    @property
    def nbytes(self) -> int:
        return sum(a.nbytes for a in (self.small, self.square,
                                      self.stream, self.out))

    def run(self) -> float:
        """Seconds one run of the work takes now."""
        np = self.np
        t0 = time.perf_counter()
        for _ in range(REF_REPEATS):
            counts: dict[int, int] = {}
            for i in range(15000):
                counts[i & 255] = counts.get(i & 255, 0) + i
            x = self.small
            for _ in range(100):
                x = np.tanh(self.small @ x + 0.1)
                x = x * 0.5 + x.sum(axis=0) * 1e-3
            for _ in range(2):
                np.multiply(self.stream, 1.0001, out=self.out)
                np.add(self.out, self.stream, out=self.out)
            x = self.square
            for _ in range(6):
                x = self.square @ x
            node = None
            for i in range(6000):
                node = _Node(i, node)
            while node is not None:
                node = node.next
        return time.perf_counter() - t0


def _meminfo_mb(field: str) -> float:
    try:
        with open("/proc/meminfo", encoding="ascii") as f:
            for line in f:
                if line.startswith(field + ":"):
                    return int(line.split()[1]) / 1024.0
    except OSError as exc:
        raise BenchError(f"cannot read /proc/meminfo: {exc}") from exc
    raise BenchError(f"/proc/meminfo has no {field}")


def _blas_version(np) -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (TypeError, KeyError):
        return "unknown"


class Bench:
    """One workload in one process: set-up, timed calls and checks."""

    def __init__(self, name: str, seed: int, src: Path, np, ct):
        self.spec = WORKLOADS[name]
        self.seed = seed
        self.src = src
        self.np = np
        self.ct = ct
        self.training = name.startswith("train")
        self.op_kind = "train.run" if self.training else "tracker.run"
        self.net = None
        self.attempted = 0
        self.failed = 0
        self.reference = Reference(np)

    # ------------------------------------------------------------------
    # inputs
    # ------------------------------------------------------------------
    def config(self, index: int):
        """Experiment config of call `index`, seeded from --seed."""
        seed = self.seed * SEED_STRIDE + index
        data = copy.deepcopy(self.spec["config"])
        data.setdefault("sequence", {})["seed"] = seed
        data.setdefault("train", {})["seed"] = seed
        return self.ct.config.config_from_dict(data)

    def build_net(self, cfg):
        return self.ct.model.TrackerNet(
            cfg.spec, self.np.random.default_rng(cfg.train.seed))

    def setup(self) -> dict[str, float]:
        """Median set-up time over SETUP_REPEATS fresh imports and builds.

        Each repeat is scaled by the reference runs around it; the raw
        median is kept as `setup_raw_s`.
        """
        raw, scaled, gens, inits = [], [], [], []
        ref = self.reference.run()
        for _ in range(SETUP_REPEATS):
            out = subprocess.run([sys.executable, "-c", _IMPORTS, str(self.src)],
                                 capture_output=True, text=True, timeout=120,
                                 check=True)
            imported = float(out.stdout.strip().splitlines()[-1])
            t0 = time.perf_counter()
            cfg = self.config(0)
            self.ct.synthetic.gen_sequence(cfg.sequence)
            t1 = time.perf_counter()
            self.net = None
            self.net = self.build_net(cfg)
            t2 = time.perf_counter()
            gens.append(t1 - t0)
            inits.append(t2 - t1)
            before, ref = ref, self.reference.run()
            raw.append(imported + t2 - t0)
            scaled.append(raw[-1] * 2 * REF_SECONDS / (before + ref))
        return {"setup_s": statistics.median(scaled),
                "setup_raw_s": statistics.median(raw),
                "model.init_ms": statistics.median(inits) * 1e3,
                "synthetic.gen_ms": statistics.median(gens) * 1e3}

    # ------------------------------------------------------------------
    # one call: a whole tracked sequence or a whole training run
    # ------------------------------------------------------------------
    def prepare(self, index: int):
        cfg = self.config(index)
        sequence = self.ct.synthetic.gen_sequence(cfg.sequence)
        net = self.build_net(cfg) if self.training else self.net
        return cfg, sequence, net

    def call(self, inputs, tracer=None):
        cfg, sequence, net = inputs
        if self.training:
            fn, args = self.ct.train.toy_train, (net, sequence, cfg.train)
        else:
            fn, args = self.ct.tracker.run_tracker, (net, sequence, cfg.track)
        if tracer is None:
            return fn(*args)
        tracer.watch(net)
        return tracer.call(self.op_kind, fn, *args)

    def ops(self, inputs) -> int:
        cfg, sequence, _ = inputs
        return cfg.train.steps if self.training else len(sequence) - 1

    def encode(self, inputs, outputs) -> list[bytes | None]:
        """Per-op bytes of checked outputs; None marks an op that failed."""
        np = self.np
        if len(outputs) != self.ops(inputs):
            return [None] * self.ops(inputs)
        out: list[bytes | None] = []
        for item in outputs:
            if self.training:
                ok = isinstance(item, float) and np.isfinite(item)
                row = np.array([item], dtype=np.float64)
            else:
                row = np.array([item.frame, *item.box, item.iou,
                                item.confidence, item.threshold,
                                item.updated], dtype=np.float64)
                ok = (bool(np.all(np.isfinite(row[1:6])))
                      and 0.0 <= item.confidence <= 1.0
                      and 0.0 <= item.iou <= 1.0)
            out.append(row.tobytes() if ok else None)
        return out

    # ------------------------------------------------------------------
    # runs
    # ------------------------------------------------------------------
    def run_call(self, index: int, tracer=None):
        """One checked call; returns (per-op bytes, seconds, outputs)."""
        inputs = self.prepare(index)
        n = self.ops(inputs)
        self.attempted += n
        bad_before = tracer.bad_outputs if tracer is not None else 0
        t0 = time.perf_counter()
        try:
            outputs = self.call(inputs, tracer)
        except Exception:  # a failing call fails its ops; the run goes on to report
            traceback.print_exc()
            self.failed += n
            return None, 0.0, None
        wall = time.perf_counter() - t0
        encoded = self.encode(inputs, outputs)
        if tracer is not None and tracer.bad_outputs > bad_before:
            encoded = [None] * n   # non-finite or non-float64 head outputs
        self.failed += sum(e is None for e in encoded)
        return encoded, wall, outputs

    def timed(self, first: int, seconds: float, tracer=None) -> list[Call]:
        """Calls first, first+1, ... until `seconds` have passed, each one
        followed by a reference run."""
        calls = []
        start = time.perf_counter()
        index = first
        ref = self.reference.run()
        while not calls or time.perf_counter() - start < seconds:
            encoded, wall, outputs = self.run_call(index, tracer)
            if encoded is None:
                break
            before, ref = ref, self.reference.run()
            calls.append(Call(index, encoded, wall, outputs, (before + ref) / 2))
            index += 1
        return calls

    def compare(self, reference: list, other: list) -> None:
        """Count ops whose bytes differ between two runs of the same inputs."""
        for ref, call in zip(reference, other):
            self.failed += sum(a is not None and b is not None and a != b
                               for a, b in zip(ref.encoded, call.encoded))


def ops_per_s(calls: list[Call], scaled: bool) -> float:
    """Median over calls of ops per second, at REF_SECONDS if `scaled`."""
    return statistics.median(
        len(c.encoded) / c.wall * (c.ref / REF_SECONDS if scaled else 1.0)
        for c in calls)


def _loss_ratio(np, losses: list[float]) -> float:
    return float(np.mean(losses[-5:]) / losses[0])


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    root = Path.cwd()
    src = root / "src"
    try:
        spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read BENCHMARK.json in {root}: {exc}") from exc
    if not (src / "ctxtrack" / "__init__.py").is_file():
        raise BenchError(f"no ctxtrack sources under {src}; "
                         "run from the root of a ctxtrack checkout")

    # One BLAS thread, pinned before numpy loads: the reference work is
    # single-threaded, and a second thread would contend with whatever
    # else the shared host runs on the other core.
    nproc = len(os.sched_getaffinity(0))
    blas_threads = 1
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(blas_threads)
    sys.path.insert(0, str(src))
    import numpy as np
    import ctxtrack
    from ctxtrack import config, model, synthetic, tracker, train  # noqa: F401
    if Path(ctxtrack.__file__).resolve().parent != (src / "ctxtrack").resolve():
        raise BenchError(f"imported ctxtrack from {ctxtrack.__file__}, not {src}")
    import tracing

    env = {"nproc": nproc, "blas_threads": blas_threads,
           "python": platform.python_version(), "numpy": np.__version__,
           "blas": _blas_version(np),
           "mem_total_mb": round(_meminfo_mb("MemTotal"))}
    print("env " + json.dumps(env, sort_keys=True), flush=True)

    workload = WORKLOADS[args.workload]
    need = workload["peak_mb"] * MEMORY_HEADROOM
    available = _meminfo_mb("MemAvailable")
    if available < need:
        raise BenchError(
            f"{args.workload} peaks near {workload['peak_mb']} MB; only "
            f"{available:.0f} MB available, {need:.0f} MB needed. Not starting.")

    bench = Bench(args.workload, args.seed, src, np, ctxtrack)
    values = bench.setup()
    first = workload["warmup"]
    for index in range(first):
        bench.run_call(index)

    if args.trace == 0:
        calls = bench.timed(first, args.seconds)
        # The same inputs once more, traced: determinism, the tracer's
        # promise to change nothing, and the head-output checks.
        tracer = tracing.Tracer()
        with tracer:
            bench.compare(calls[:1], bench.timed(first, 0, tracer))
        values["ref_ops_per_s"] = ops_per_s(calls, scaled=True) if calls else 0.0
        values["ops_per_s"] = ops_per_s(calls, scaled=False) if calls else 0.0
        # The reference buffers are resident throughout, so they add
        # exactly their size to the peak.
        values["peak_rss_mb"] = (resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss * 1024
            - bench.reference.nbytes) / 2**20
        wanted = spec["end_to_end"]
    else:
        # Untraced and traced calls alternate on the same inputs, so each
        # traced call has an untraced twin to match byte for byte and host
        # drift cancels out of the overhead.
        tracer = tracing.Tracer()
        calls, traced = [], []
        start = time.perf_counter()
        index = first
        while not calls or time.perf_counter() - start < args.seconds:
            plain = bench.timed(index, 0)
            with tracer:
                twin = bench.timed(index, 0, tracer)
            if not plain or not twin:
                break
            calls += plain
            traced += twin
            index += 1
        bench.compare(calls, traced)
        ops = sum(len(c.encoded) for c in traced)
        values.update(tracing.layer_metrics(tracer, bench.op_kind, max(ops, 1)))
        values["trace.overhead_ms_per_op"] = statistics.median(
            (t.wall - u.wall) * 1e3 / len(u.encoded)
            for u, t in zip(calls, traced)) if traced else 0.0
        values["host.ref_ms"] = statistics.median(
            c.ref for c in calls + traced) * 1e3 if traced else 0.0
        wanted = spec["per_layer"]
    values["train.loss_ratio"] = (
        statistics.median(_loss_ratio(np, c.outputs) for c in calls)
        if bench.training and calls else 0.0)

    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            raise BenchError(f"benchmark produced no value for {m['name']}")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        note = " (computed)" if m["name"] in tracing.COMPUTED else ""
        print(f"metric {m['name']} {values[m['name']]:.6g} {m['unit']}{note}")
    if args.trace == 0:
        label = "train_steps_per_s" if bench.training else "track_fps"
        unit = "steps/s" if bench.training else "frames/s"
        print(f"metric {label} {values['ops_per_s']:.6g} {unit} "
              f"(raw, median of {len(calls)} timed calls)")
        print(f"metric ref_{label} {values['ref_ops_per_s']:.6g} {unit} "
              f"(at REF_SECONDS={REF_SECONDS})")
        print(f"metric setup_raw_s {values['setup_raw_s']:.6g} s")
        if bench.training:
            print(f"metric train_loss_ratio {values['train.loss_ratio']:.6g} ratio")
    ratio = bench.failed / max(bench.attempted, 1)
    print(f"metric failed_op_ratio {ratio:.6g} ratio "
          f"({bench.failed} of {bench.attempted} ops)")
    print(json.dumps({"correct": bench.failed == 0,
                      "attempted": max(bench.attempted, 1),
                      "failed": bench.failed, "metrics": metrics}))
    return 0 if bench.failed == 0 else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
