"""Toy training loop: overfit the tracker on a single synthetic sequence.

Each step samples a (target, previous, search) triplet from one sequence:
the target template is a fixed crop around the first-frame box, the
previous frame is drawn uniformly before the search frame, and both crops
are jittered in center and scale so the network cannot memorize a single
pixel layout. Optimization is plain Adam on the combined classification
and box-regression loss.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericError, require_finite
from .heads import tracking_loss
from .imageops import CONTEXT, CropWindow, box_window, crop_resize, crop_window
from .model import TrackerNet
from .optim import Adam
from .synthetic import SyntheticSequence
from .tracker import make_template


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for the toy overfit loop.

    Jitter fields are fractions: center jitter is a fraction of the box
    side, scale jitter multiplies the crop window side by a factor drawn
    from [1 - j, 1 + j].
    """

    steps: int = 500
    lr: float = 3e-3
    seed: int = 0
    final_lr_scale: float = 0.1   # cosine-decay endpoint, as a fraction of lr
    prev_center_jitter: float = 0.25
    prev_scale_jitter: float = 0.2
    search_center_jitter: float = 0.35
    search_scale_jitter: float = 0.1

    def __post_init__(self) -> None:
        require_finite(self)
        if self.steps < 1:
            raise ConfigError("steps must be at least 1")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        # Adam moves a value by about lr per step, so an lr far above 1
        # overflows the next forward
        if not 0.0 <= self.lr <= 1.0:
            raise ConfigError("lr must lie in [0, 1]")
        if not 0.0 < self.final_lr_scale <= 1.0:
            raise ConfigError("final_lr_scale must lie in (0, 1]")
        for name in ("prev_center_jitter", "prev_scale_jitter",
                     "search_center_jitter", "search_scale_jitter"):
            value = getattr(self, name)
            if not 0.0 <= value < 0.5:
                raise ConfigError(f"{name} must lie in [0, 0.5)")
        # The ground-truth box must stay inside the jittered crop so loss
        # targets remain well defined. For a square box of side b the
        # worst-case box extent from the window center is
        # (0.5 + center_jitter) * b while the crop half-width is
        # 0.5 * CONTEXT * (1 - scale_jitter) * b; at CONTEXT = 2 the bound
        # reads center_jitter + scale_jitter < 0.5.
        for cj, sj in ((self.prev_center_jitter, self.prev_scale_jitter),
                       (self.search_center_jitter, self.search_scale_jitter)):
            if 0.5 + cj >= 0.5 * CONTEXT * (1.0 - sj):
                raise ConfigError(
                    "jitter can push the box outside the crop window")


def _lr_at(cfg: TrainConfig, step: int) -> float:
    """Cosine decay from lr at step 0 to lr * final_lr_scale at the last step."""
    t = step / max(1, cfg.steps - 1)
    floor = cfg.final_lr_scale
    return cfg.lr * (floor + (1.0 - floor) * 0.5 * (1.0 + np.cos(np.pi * t)))


def _contained(box, size: int) -> bool:
    x1, y1, x2, y2 = box
    return 0.0 <= x1 and 0.0 <= y1 and x2 <= size and y2 <= size


def _jittered_window(rng: np.random.Generator, box, out_size: int,
                     center_jitter: float, scale_jitter: float) -> CropWindow:
    """`box_window` with its center moved by up to `center_jitter` box widths
    and heights, and its side scaled by 1 + u, u in +-`scale_jitter`."""
    window = box_window(box, out_size)
    x1, y1, x2, y2 = box
    cx = window.cx + rng.uniform(-center_jitter, center_jitter) * (x2 - x1)
    cy = window.cy + rng.uniform(-center_jitter, center_jitter) * (y2 - y1)
    side = window.size * (1.0 + rng.uniform(-scale_jitter, scale_jitter))
    return crop_window((cx, cy), side, out_size)


def toy_train(net: TrackerNet, sequence: SyntheticSequence,
              cfg: TrainConfig) -> list[float]:
    """Run the overfit loop and return the per-step loss values."""
    if len(sequence) < 2:
        raise ConfigError("training needs a sequence with at least 2 frames")
    spec = net.spec
    rng = np.random.default_rng(cfg.seed)
    optimizer = Adam(net.parameters(), lr=cfg.lr)

    target_crop = make_template(sequence.frames[0], sequence.boxes[0],
                                spec.target_size).crop

    losses: list[float] = []
    for step in range(cfg.steps):
        cur = int(rng.integers(1, len(sequence)))
        prev = int(rng.integers(0, cur))

        prev_window = _jittered_window(
            rng, sequence.boxes[prev], spec.search_size,
            cfg.prev_center_jitter, cfg.prev_scale_jitter)
        prev_crop = crop_resize(sequence.frames[prev], prev_window)
        prev_box = prev_window.to_crop(sequence.boxes[prev])

        search_window = _jittered_window(
            rng, sequence.boxes[cur], spec.search_size,
            cfg.search_center_jitter, cfg.search_scale_jitter)
        gt_box = search_window.to_crop(sequence.boxes[cur])
        if not _contained(gt_box, spec.search_size):
            # The jitter bound holds for square boxes; the centered window, of side
            # CONTEXT * sqrt(w * h), holds aspect ratios up to CONTEXT ** 2.
            search_window = box_window(sequence.boxes[cur], spec.search_size)
            gt_box = search_window.to_crop(sequence.boxes[cur])
            if not _contained(gt_box, spec.search_size):
                raise ConfigError(f"frame {cur}: box aspect ratio above {CONTEXT ** 2:g}")
        search_crop = crop_resize(sequence.frames[cur], search_window)

        outputs = net.forward(net.encode([target_crop, prev_crop, search_crop], prev_box))
        if np.any(outputs.cls.data <= 0.0) or np.any(outputs.cls.data >= 1.0):
            raise NumericError(f"saturated classification output at step {step}")
        loss, _, _ = tracking_loss(outputs, gt_box)
        value = float(loss.data)
        if not np.isfinite(value):
            raise NumericError(f"non-finite loss at step {step}")
        losses.append(value)

        optimizer.zero_grad()
        loss.backward()
        optimizer.lr = _lr_at(cfg, step)
        optimizer.step()
    return losses
