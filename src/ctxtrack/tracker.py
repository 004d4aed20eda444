"""Frame-by-frame tracking with online template updates.

The tracker crops a search window around the last known box, runs the
network against the fixed target template and the current previous-frame
template, decodes the best box, and maps it back to frame coordinates.
After every frame the update policy decides whether the previous-frame
template is replaced with a crop around the new prediction. Inference
builds no autodiff tape, and each template is encoded only when it
changes: the target once per sequence, the previous template, with its
box, at the first frame after each replacement. The joint layers'
position-bias terms depend only on the weights, so a sequence with two or
more frames to track builds each layer's function of a slice of heads that
gives them, `TrackerNet.bias_terms()`, once for all its forwards.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, NumericError, require_finite
from .heads import decode_box
from .imageops import Box, box_iou, box_window, crop_resize
from .model import TrackerNet
from .synthetic import SyntheticSequence
from .tensor import no_grad
from .update import MODES, TrackState


@dataclass(frozen=True)
class TrackConfig:
    update_mode: str = "p-mean"
    seed_confidence: float = 1.0
    oracle: bool = False   # score ground-truth boxes through the pipeline

    def __post_init__(self) -> None:
        require_finite(self)
        if self.update_mode not in MODES:
            raise ConfigError(
                f"unknown update mode {self.update_mode!r}, "
                f"expected one of {MODES}")
        if not 0.0 <= self.seed_confidence <= 1.0:
            raise ConfigError("seed_confidence must lie in [0, 1]")


@dataclass(frozen=True)
class FrameRecord:
    """Per-frame tracking outcome in frame coordinates."""

    frame: int
    box: Box
    iou: float
    confidence: float
    threshold: float   # nan for modes without a threshold
    updated: bool


class _Template(NamedTuple):
    crop: np.ndarray
    box: Box           # box position inside the crop


def make_template(frame: np.ndarray, box: Box, out_size: int) -> _Template:
    """Crop of `out_size` pixels around `box`, with the box in crop pixels."""
    window = box_window(box, out_size)
    return _Template(crop=crop_resize(frame, window),
                     box=window.to_crop(box))


@no_grad()
def run_tracker(net: TrackerNet, sequence: SyntheticSequence,
                cfg: TrackConfig = TrackConfig()) -> list[FrameRecord]:
    """Track through the sequence; returns one record per frame after the
    first (the first frame provides the ground-truth initialization)."""
    if len(sequence) < 1:
        raise ConfigError("cannot track an empty sequence")
    spec = net.spec
    first_box = sequence.boxes[0]

    target = make_template(sequence.frames[0], first_box, spec.target_size).crop
    previous = make_template(sequence.frames[0], first_box, spec.search_size)
    state = TrackState(cfg.update_mode, cfg.seed_confidence)
    target_features = net.encode([target])
    previous_features = None   # encoded at the first forward that uses it
    # shared head functions pay off once two or more forwards use them; for
    # a single forward, building every layer's ahead would only hold memory
    bias_terms = net.bias_terms() if len(sequence) > 2 else None

    last_box = first_box
    records: list[FrameRecord] = []
    for t in range(1, len(sequence)):
        try:
            search_window = box_window(last_box, spec.search_size)
            search_crop = crop_resize(sequence.frames[t], search_window)
        except ValueError as exc:
            raise NumericError(f"cannot crop frame {t}: {exc}") from exc
        if previous_features is None:
            previous_features = net.encode([previous.crop], previous.box)
        outputs = net.forward(target_features, previous_features, net.encode([search_crop]),
                              bias_terms=bias_terms)
        if not (np.all(np.isfinite(outputs.cls.data))
                and np.all(np.isfinite(outputs.reg.data))):
            raise NumericError(f"non-finite head outputs at frame {t}")
        decoded = decode_box(outputs)
        confidence = float(decoded.confidence)

        if decoded.degenerate:
            pred_box = last_box   # hold position rather than collapse
        else:
            pred_box = search_window.to_frame(decoded.box)
        if cfg.oracle:
            pred_box = sequence.boxes[t]

        decision = state.should_update(confidence)
        updated = decision.update and not decoded.degenerate
        if updated:
            try:
                previous = make_template(sequence.frames[t], pred_box,
                                         spec.search_size)
            except ValueError as exc:
                raise NumericError(
                    f"cannot crop the template at frame {t}: {exc}") from exc
            previous_features = None

        records.append(FrameRecord(
            frame=t, box=pred_box,
            iou=box_iou(pred_box, sequence.boxes[t]),
            confidence=confidence, threshold=decision.threshold,
            updated=updated))
        last_box = pred_box
    return records


class TrackMetrics(NamedTuple):
    ao: float     # average overlap across scored frames
    sr50: float   # fraction of frames with overlap strictly above 0.5
    sr75: float   # fraction of frames with overlap strictly above 0.75


def compute_metrics(ious: list[float]) -> TrackMetrics:
    if not ious:
        raise ConfigError("no frames to score")
    values = np.asarray(ious, dtype=np.float64)
    if np.any(values < 0.0) or np.any(values > 1.0):
        raise ConfigError("overlap values must lie in [0, 1]")
    return TrackMetrics(ao=float(values.mean()),
                        sr50=float((values > 0.5).mean()),
                        sr75=float((values > 0.75).mean()))


def simulate_updates(trace, mode: str, seed_confidence: float = 1.0):
    """Replay a confidence trace through the update policy.

    Returns one (update, threshold) decision per trace element, in order.
    """
    try:
        state = TrackState(mode, seed_confidence)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    decisions = []
    for value in trace:
        try:
            decisions.append(state.should_update(float(value)))
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc
    return decisions
