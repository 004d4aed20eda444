"""Deterministic synthetic tracking sequences.

Each sequence renders a textured rectangular target following a smooth
random walk over a static textured background, with optional same-texture
distractors, gradual appearance drift, and an occlusion window in which the
target is simply not drawn (its annotation continues, so a tracker's
confidence should collapse there).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, require_finite
from .imageops import Box


@dataclass(frozen=True)
class SequenceConfig:
    seed: int = 0
    num_frames: int = 20
    frame_size: int = 128
    box_size: float = 24.0
    step_sigma: float = 3.0
    num_distractors: int = 2
    appearance_drift: float = 0.0
    occlusion_start: int = -1   # first occluded frame; -1 disables occlusion
    occlusion_end: int = -1     # first frame after the occlusion window

    def __post_init__(self) -> None:
        require_finite(self)
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        if self.num_frames < 1:
            raise ConfigError("num_frames must be at least 1")
        if self.frame_size < 32:
            raise ConfigError("frame_size must be at least 32")
        if not 4.0 <= self.box_size <= self.frame_size / 2:
            raise ConfigError(
                f"box_size must lie in [4, frame_size/2], got {self.box_size}")
        # two reflections move a point by twice the walls' span, so a step
        # that dwarfs the frame takes that many more, and one past float
        # precision never gets back inside
        if not 0 <= self.step_sigma <= 4 * self.frame_size:
            raise ConfigError(
                f"step_sigma must lie in [0, 4 * frame_size], got {self.step_sigma}")
        if self.num_distractors < 0:
            raise ConfigError("num_distractors must be non-negative")
        if self.appearance_drift < 0:
            raise ConfigError("appearance_drift must be non-negative")
        occluded = self.occlusion_start >= 0 or self.occlusion_end >= 0
        if occluded and not (0 <= self.occlusion_start < self.occlusion_end):
            raise ConfigError("occlusion window must satisfy 0 <= start < end")


@dataclass
class SyntheticSequence:
    config: SequenceConfig
    frames: list[np.ndarray]            # (H, W, 3) float64 in [0, 1]
    boxes: list[Box]                    # ground-truth target box per frame
    distractors: list[list[Box]] = field(default_factory=list)
    occluded: list[bool] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.frames)


def _checker(h: int, w: int, cell: int, colors: np.ndarray) -> np.ndarray:
    parity = (np.arange(h)[:, None] // cell + np.arange(w) // cell) % 2
    return colors[parity]


def _paint(frame: np.ndarray, box: Box, colors: np.ndarray, cell: int) -> None:
    h, w, _ = frame.shape
    x1 = min(max(round(box[0]), 0), w)
    y1 = min(max(round(box[1]), 0), h)
    x2 = min(max(round(box[2]), 0), w)
    y2 = min(max(round(box[3]), 0), h)
    if x2 > x1 and y2 > y1:
        frame[y1:y2, x1:x2] = _checker(y2 - y1, x2 - x1, cell, colors)


def _random_walk(rng: np.random.Generator, start: np.ndarray, n: int,
                 sigma: float, low: float, high: float) -> np.ndarray:
    """Reflecting random walk keeping each coordinate inside [low, high]."""
    path = np.empty((n, 2))
    pos = start.astype(np.float64).copy()
    span = high - low
    for t in range(n):
        path[t] = pos
        pos = pos + rng.normal(scale=sigma, size=2)
        # reflect off the walls until inside (sigma << span, so at most twice)
        for axis in range(2):
            while pos[axis] < low or pos[axis] > high:
                if pos[axis] < low:
                    pos[axis] = 2 * low - pos[axis]
                else:
                    pos[axis] = 2 * high - pos[axis]
    return path


def gen_sequence(config: SequenceConfig) -> SyntheticSequence:
    """Render a sequence deterministically from its config's seed."""
    rng = np.random.default_rng(config.seed)
    size = config.frame_size
    half = config.box_size / 2.0
    margin = half + 2.0

    background = _checker(size, size, 16, rng.uniform(0.25, 0.45, size=(2, 3)))
    # painted colours lie in [0, 1] already, so only the noise needs a clip
    background = np.clip(
        background + rng.normal(scale=0.01, size=background.shape), 0.0, 1.0)

    target_colors = rng.uniform(0.6, 0.95, size=(2, 3))
    drift_dir = rng.normal(size=(2, 3))
    drift_dir /= max(np.linalg.norm(drift_dir), 1e-9)

    start = rng.uniform(margin, size - margin, size=2)
    centers = _random_walk(rng, start, config.num_frames, config.step_sigma,
                           margin, size - margin)

    distractor_colors = np.clip(
        target_colors + rng.normal(scale=0.05, size=target_colors.shape), 0, 1)
    distractor_paths = [
        _random_walk(rng, rng.uniform(margin, size - margin, size=2),
                     config.num_frames, config.step_sigma, margin, size - margin)
        for _ in range(config.num_distractors)
    ]

    frames, boxes, distractors, occluded = [], [], [], []
    for t in range(config.num_frames):
        frame = background.copy()
        cx, cy = centers[t]
        box = (cx - half, cy - half, cx + half, cy + half)
        dist_boxes = []
        for path in distractor_paths:
            dx, dy = path[t]
            dbox = (dx - half, dy - half, dx + half, dy + half)
            _paint(frame, dbox, distractor_colors, 6)
            dist_boxes.append(dbox)
        hidden = config.occlusion_start <= t < config.occlusion_end \
            if config.occlusion_start >= 0 else False
        if not hidden:
            colors = np.clip(
                target_colors + config.appearance_drift * t * drift_dir, 0, 1)
            _paint(frame, box, colors, 6)
        frames.append(frame)
        boxes.append(box)
        distractors.append(dist_boxes)
        occluded.append(hidden)
    return SyntheticSequence(config=config, frames=frames, boxes=boxes,
                             distractors=distractors, occluded=occluded)
