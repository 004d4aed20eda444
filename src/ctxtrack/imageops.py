"""Axis-aligned square crops with bilinear resampling.

A crop is described by a window (center, side length in frame pixels, output
resolution). The window carries the coordinate transforms between frame
space and crop space, so boxes predicted inside a crop can be mapped back
to the frame exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

Box = tuple[float, float, float, float]


@dataclass(frozen=True)
class CropWindow:
    """Square sampling window: frame-space center and side, crop resolution."""

    cx: float
    cy: float
    size: float
    out_size: int

    @property
    def scale(self) -> float:
        """Crop pixels per frame pixel."""
        return self.out_size / self.size

    @property
    def left(self) -> float:
        return self.cx - self.size / 2.0

    @property
    def top(self) -> float:
        return self.cy - self.size / 2.0

    def to_crop(self, box: Box) -> Box:
        x1, y1, x2, y2 = box
        s = self.scale
        return ((x1 - self.left) * s, (y1 - self.top) * s,
                (x2 - self.left) * s, (y2 - self.top) * s)

    def to_frame(self, box: Box) -> Box:
        x1, y1, x2, y2 = box
        s = self.scale
        return (x1 / s + self.left, y1 / s + self.top,
                x2 / s + self.left, y2 / s + self.top)


def crop_window(center: tuple[float, float], size: float, out_size: int) -> CropWindow:
    if size <= 0:
        raise ValueError(f"crop window size must be positive, got {size}")
    if out_size < 16 or out_size % 16:
        raise ValueError(f"output size must be a positive multiple of 16, got {out_size}")
    return CropWindow(cx=float(center[0]), cy=float(center[1]),
                      size=float(size), out_size=int(out_size))


def box_window(box: Box, context_scale: float, out_size: int) -> CropWindow:
    """Window centered on a box with side = context_scale * sqrt(box area)."""
    x1, y1, x2, y2 = box
    if not (x1 < x2 and y1 < y2):
        raise ValueError(f"degenerate box: {box}")
    if context_scale <= 0:
        raise ValueError(f"context scale must be positive, got {context_scale}")
    side = context_scale * np.sqrt((x2 - x1) * (y2 - y1))
    return crop_window(((x1 + x2) / 2.0, (y1 + y2) / 2.0), side, out_size)


def crop_resize(frame: np.ndarray, window: CropWindow) -> np.ndarray:
    """Bilinear resample of the window; outside-frame area takes the frame mean.

    Output pixel centers map linearly onto the window, so a crop whose
    window exactly covers the frame at equal resolution reproduces it.
    """
    frame = np.asarray(frame, dtype=np.float64)
    if frame.ndim != 3:
        raise ValueError(f"expected (H, W, C) frame, got {frame.shape}")
    h, w, c = frame.shape
    out = window.out_size
    step = window.size / out
    xs = window.left + (np.arange(out) + 0.5) * step - 0.5
    ys = window.top + (np.arange(out) + 0.5) * step - 0.5
    # floor(v) + 1 must be an int64; this also rejects inf and NaN
    if not (np.all(np.abs(xs) < 2.0 ** 63) and np.all(np.abs(ys) < 2.0 ** 63)):
        raise ValueError(f"window {window} samples outside int64 pixel indices")

    x0 = np.floor(xs).astype(np.int64)
    y0 = np.floor(ys).astype(np.int64)
    fx = (xs - x0)[None, :, None]
    fy = (ys - y0)[:, None, None]

    # rows y0, y0 + 1 and columns x0, x0 + 1, clipped; one gather fetches
    # the four corners as (2, 2, out, out, c), and off-frame corners take
    # the frame mean
    yi = np.stack([y0, y0 + 1])[:, None, :, None]
    xi = np.stack([x0, x0 + 1])[None, :, None, :]
    flat = frame.reshape(-1, c)
    pix = np.take(flat, np.clip(yi, 0, h - 1) * w + np.clip(xi, 0, w - 1), axis=0)
    outside = (yi < 0) | (yi >= h) | (xi < 0) | (xi >= w)
    if outside.any():
        pix[outside] = flat.mean(axis=0)

    (p00, p01), (p10, p11) = pix
    top = p00 * (1 - fx) + p01 * fx
    bot = p10 * (1 - fx) + p11 * fx
    return top * (1 - fy) + bot * fy


def box_iou(a: Box, b: Box) -> float:
    """Plain intersection over union of two boxes; degenerate inputs give 0."""
    ax1, ay1, ax2, ay2 = a
    bx1, by1, bx2, by2 = b
    inter_w = max(0.0, min(ax2, bx2) - max(ax1, bx1))
    inter_h = max(0.0, min(ay2, by2) - max(ay1, by1))
    inter = inter_w * inter_h
    area_a = max(0.0, ax2 - ax1) * max(0.0, ay2 - ay1)
    area_b = max(0.0, bx2 - bx1) * max(0.0, by2 - by1)
    union = area_a + area_b - inter
    return inter / union if union > 0 else 0.0
