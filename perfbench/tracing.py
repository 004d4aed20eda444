"""Per-layer spans for ctxtrack, recorded from outside the library.

While installed, the tracer replaces public callables of ctxtrack with
wrappers that record a span (kind, label, start, end, parent) around the
original call and then return its result untouched. Removing the tracer
puts every original back. Each name is patched where it is looked up:
modules that import ``crop_resize`` or ``matmul`` into their own
namespace get their own patch.

Backward time is taken as a whole, because the tape's closures are not
named; splitting it per layer needs spans inside the program.
"""
from __future__ import annotations

import time

import numpy as np

from ctxtrack import (attention, backbone, heads, model, optim, positional,
                     tensor, tracker, train, update)

# (owner, attribute, span kind); the kind's prefix is the layer's module.
_FUNCTIONS = (
    (tracker, "crop_resize", "imageops.crop_resize"),
    (train, "crop_resize", "imageops.crop_resize"),
    (tracker, "decode_box", "heads.decode"),
    (train, "tracking_loss", "heads.loss"),
    (tensor, "matmul", "tensor.matmul"),
    (attention, "matmul", "tensor.matmul"),
    (positional, "matmul", "tensor.matmul"),
)
_METHODS = (
    (model.TrackerNet, "forward", "model.forward"),
    (model.TrackerNet, "backbone_forward", "model.backbone"),
    (model.TrackerNet, "neck_forward", "model.neck"),
    (backbone.PatchEmbed, "__call__", "backbone.patch_embed"),
    (backbone.Downsample, "__call__", "backbone.downsample"),
    (backbone.BoxEmbedding, "__call__", "backbone.box_embed"),
    (attention.WindowAttentionBlock, "__call__", "attention.window_block"),
    (attention.CrossFrameAttention, "forward", "attention.cross_frame"),
    (attention.CrossFrameAttention, "forward_search_queries",
     "attention.search_query"),
    (positional.UntiedPositionBias, "bias", "positional.abs_bias"),
    (positional.PairwiseRegionBias, "bias", "positional.rel_bias"),
    (positional.PairwiseRegionBias, "block", "positional.rel_bias"),
    (heads.Heads, "__call__", "heads.forward"),
    (update.TrackState, "should_update", "update.decide"),
    (tensor.Tensor, "backward", "tensor.backward"),
    (optim.Adam, "step", "optim.adam_step"),
)

# span fields
KIND, LABEL, START, END, PARENT, OUTER, EXTRA = range(7)


def module_names(net: model.TrackerNet) -> dict[int, str]:
    """id(module) -> dotted attribute name, e.g. 'stage3_joint.2'."""
    names = {}
    for key, val in vars(net).items():
        if isinstance(val, tensor.Module):
            names[id(val)] = key
        elif isinstance(val, list):
            for i, item in enumerate(val):
                if isinstance(item, tensor.Module):
                    names[id(item)] = f"{key}.{i}"
    return names


def tape_size(outputs) -> tuple[int, int]:
    """Op nodes reachable from the head outputs, and the bytes they own.

    Parameters are leaves without parents and are not counted, nor are
    outputs that are views of another array. Computed from array sizes,
    not measured.
    """
    seen: set[int] = set()
    stack = [outputs.cls, outputs.reg]
    nodes = nbytes = 0
    while stack:
        t = stack.pop()
        if id(t) in seen or not t._parents:
            continue
        seen.add(id(t))
        nodes += 1
        if t.data.base is None:
            nbytes += t.data.nbytes
        stack.extend(t._parents)
    return nodes, nbytes


def _array(x) -> np.ndarray:
    return x.data if isinstance(x, tensor.Tensor) else np.asarray(x)


class Tracer:
    """Spans kept in memory until the run ends; see `layer_metrics`."""

    def __init__(self):
        self.spans: list[list] = []
        self.names: dict[int, str] = {}
        self.tape: tuple[int, int] | None = None
        self.bad_outputs = 0
        self._stack: list[int] = []
        self._depth: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []

    def watch(self, net: model.TrackerNet) -> None:
        """Label the module spans of `net` with their dotted names."""
        self.names.update(module_names(net))

    # ------------------------------------------------------------------
    # spans
    # ------------------------------------------------------------------
    def _open(self, kind: str, label) -> list:
        depth = self._depth.get(kind, 0)
        self._depth[kind] = depth + 1
        span = [kind, label, 0.0, 0.0,
                self._stack[-1] if self._stack else -1, depth == 0, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = time.perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[END] = time.perf_counter()
        self._stack.pop()
        self._depth[span[KIND]] -= 1

    def call(self, kind: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span of the given kind."""
        span = self._open(kind, None)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(span)

    # ------------------------------------------------------------------
    # patching
    # ------------------------------------------------------------------
    def _wrap(self, original, kind: str, method: bool):
        tracer = self

        def wrapper(*args, **kwargs):
            label = tracer.names.get(id(args[0])) if method else None
            span = tracer._open(kind, label)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(span)
            tracer._observe(span, args, result)
            return result

        return wrapper

    def _observe(self, span: list, args, result) -> None:
        kind = span[KIND]
        if kind == "tensor.matmul" and span[OUTER]:
            a, b = _array(args[0]), _array(args[1])
            out = result.data
            span[EXTRA] = (2 * out.size * a.shape[-1],
                           a.nbytes + b.nbytes + out.nbytes)
        elif kind == "update.decide":
            span[EXTRA] = result.update
        elif kind == "model.forward":
            for t in (result.cls, result.reg):
                if t.data.dtype != np.float64 or not np.all(np.isfinite(t.data)):
                    self.bad_outputs += 1
            if self.tape is None:
                self.tape = self.call("trace.tape_walk", tape_size, result)

    def install(self) -> "Tracer":
        for owner, attr, kind in _FUNCTIONS:
            original = getattr(owner, attr)
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, kind, method=False))
        for owner, attr, kind in _METHODS:
            original = owner.__dict__[attr]
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, kind, method=True))
        return self

    def remove(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.remove()


# ----------------------------------------------------------------------
# analysis
# ----------------------------------------------------------------------

# Figures taken from array shapes and sizes rather than a clock; they
# repeat exactly from run to run.
COMPUTED = ("tensor.tape_nodes_per_forward", "tensor.tape_mb_per_forward",
            "tensor.matmul_mflop_per_op", "tensor.matmul_mb_per_op")


def _pct(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def _segments(spans: list[list], run: int, lead: int,
              boundary: str) -> list[tuple[float, float]]:
    """(duration, self time) of each frame or step inside one op span.

    The run's first `lead` children are its own set-up. After that a new
    segment starts where a `boundary` child ends; whatever follows the
    last boundary belongs to the last segment. Self time is the segment
    minus the children inside it.
    """
    children = [s for s in spans if s[PARENT] == run]
    start = children[lead - 1][END]
    out: list[list[float]] = []
    busy = 0.0
    for child in children[lead:]:
        busy += child[END] - child[START]
        if child[KIND] == boundary:
            out.append([start, child[END], busy])
            start, busy = child[END], 0.0
    if out:
        out[-1][1] = spans[run][END]
        out[-1][2] += busy
    return [(end - begin, end - begin - inside) for begin, end, inside in out]


def layer_metrics(tracer: Tracer, op_kind: str, ops: int) -> dict[str, float]:
    """Per-op layer figures from the spans of `ops` traced frames or steps.

    Times are inclusive milliseconds per op, counting only the outermost
    span of each kind so that nested calls are not counted twice.
    """
    spans = tracer.spans
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    by_stage: dict[str, float] = {}
    stage_calls: dict[str, int] = {}
    forwards: list[float] = []
    decide_us: list[float] = []
    accepted = flop = nbytes = 0
    for s in spans:
        if not s[OUTER]:
            continue
        kind, dt = s[KIND], s[END] - s[START]
        total[kind] = total.get(kind, 0.0) + dt
        calls[kind] = calls.get(kind, 0) + 1
        if s[LABEL] is not None and kind.startswith("attention."):
            key = f"{kind}.{s[LABEL].split('.')[0]}"
            by_stage[key] = by_stage.get(key, 0.0) + dt
            stage_calls[key] = stage_calls.get(key, 0) + 1
        if kind == "model.forward":
            forwards.append(dt * 1e3)
        elif kind == "update.decide":
            decide_us.append(dt * 1e6)
            accepted += bool(s[EXTRA])
        elif kind == "tensor.matmul":
            flop += s[EXTRA][0]
            nbytes += s[EXTRA][1]

    def ms(kind: str) -> float:
        return total.get(kind, 0.0) * 1e3 / ops

    def per_op(kind: str) -> float:
        return calls.get(kind, 0) / ops

    # run_tracker crops both templates before its first frame, and a frame
    # ends with the update decision; toy_train crops the target template
    # before its first step, and a step ends with the Adam update.
    track = op_kind == "tracker.run"
    lead, boundary = (2, "update.decide") if track else (1, "optim.adam_step")
    segs = [seg for r, s in enumerate(spans) if s[KIND] == op_kind
            for seg in _segments(spans, r, lead, boundary)]
    seg_ms = [d * 1e3 for d, _ in segs]
    self_ms = sum(x for _, x in segs) * 1e3 / max(len(segs), 1)
    nodes, tape_bytes = tracer.tape or (0, 0)

    out = {
        "tensor.tape_nodes_per_forward": float(nodes),
        "tensor.tape_mb_per_forward": tape_bytes / 1e6,
        "tensor.matmul_mflop_per_op": flop / 1e6 / ops,
        "tensor.matmul_mb_per_op": nbytes / 1e6 / ops,
        "tensor.matmul_ms": ms("tensor.matmul"),
        "tensor.backward_ms": ms("tensor.backward"),
        "optim.adam_step_ms": ms("optim.adam_step"),
        "positional.abs_bias_ms": ms("positional.abs_bias"),
        "positional.abs_bias_calls": per_op("positional.abs_bias"),
        "positional.rel_bias_ms": ms("positional.rel_bias"),
        "positional.rel_bias_calls": per_op("positional.rel_bias"),
        "backbone.patch_embed_calls": per_op("backbone.patch_embed"),
        "backbone.patch_embed_ms": ms("backbone.patch_embed"),
        "backbone.downsample_ms": ms("backbone.downsample"),
        "backbone.box_embed_ms": ms("backbone.box_embed"),
        "model.forward_ms.p50": _pct(forwards, 50),
        "model.forward_ms.p90": _pct(forwards, 90),
        "model.backbone_ms": ms("model.backbone"),
        "model.neck_ms": ms("model.neck"),
        "heads.forward_ms": ms("heads.forward"),
        "heads.decode_ms": ms("heads.decode"),
        "heads.loss_ms": ms("heads.loss"),
        "update.decide_us": float(np.mean(decide_us)) if decide_us else 0.0,
        "update.accept_ratio": accepted / len(decide_us) if decide_us else 0.0,
        "imageops.crop_resize_ms": ms("imageops.crop_resize"),
        "imageops.crops_per_op": per_op("imageops.crop_resize"),
        "tracker.frame_ms.p50": _pct(seg_ms, 50) if track else 0.0,
        "tracker.frame_ms.p90": _pct(seg_ms, 90) if track else 0.0,
        "tracker.loop_ms": self_ms if track else 0.0,
        "train.step_ms.p50": 0.0 if track else _pct(seg_ms, 50),
        "train.step_ms.p90": 0.0 if track else _pct(seg_ms, 90),
        "train.sample_ms": 0.0 if track else self_ms,
    }
    for stage in ("stage1", "stage2", "stage3_local"):
        key = f"attention.window_block.{stage}"
        out[f"attention.window_block_ms.{stage}"] = \
            by_stage.get(key, 0.0) * 1e3 / ops
        out[f"attention.window_block_calls.{stage}"] = \
            stage_calls.get(key, 0) / ops
    for stage in ("stage3_joint", "neck_full"):
        out[f"attention.cross_frame_ms.{stage}"] = \
            by_stage.get(f"attention.cross_frame.{stage}", 0.0) * 1e3 / ops
    out["attention.search_query_ms.neck_last"] = \
        by_stage.get("attention.search_query.neck_last", 0.0) * 1e3 / ops
    return out
