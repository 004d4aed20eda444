"""Prediction heads over the search feature map, box decoding, and losses.

The classification head scores each grid position as foreground; the
regression head predicts per-position distances to the four box sides in
grid units. Training combines an IoU-aware focal classification term with
a generalized-IoU term and a smoothed per-side L1 term over positive
positions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .attention import Linear
from .backbone import ltrb_map
from .imageops import STRIDE, Box, cell_grid, validate_box
from .tensor import (Module, Tensor, as_tensor, concat, gelu, maximum, minimum,
                     no_grad)


@dataclass
class HeadOutputs:
    """Per-position predictions: cls in (0,1), reg positive ltrb distances."""

    cls: Tensor  # (H, W, 1)
    reg: Tensor  # (H, W, 4)


class Heads(Module):
    """Two independent three-layer perceptrons applied per position."""

    def __init__(self, dim: int, rng: np.random.Generator):
        self.dim = dim
        self.cls_fc1 = Linear(dim, dim, rng)
        self.cls_fc2 = Linear(dim, dim, rng)
        self.cls_out = Linear(dim, 1, rng)
        self.reg_fc1 = Linear(dim, dim, rng)
        self.reg_fc2 = Linear(dim, dim, rng)
        self.reg_out = Linear(dim, 4, rng)

    def __call__(self, features: Tensor) -> HeadOutputs:
        if features.ndim != 3 or features.shape[2] != self.dim:
            raise ValueError(
                f"expected (H, W, {self.dim}) features, got {features.shape}")
        cls = self.cls_out(gelu(self.cls_fc2(gelu(self.cls_fc1(features)))))
        reg = self.reg_out(gelu(self.reg_fc2(gelu(self.reg_fc1(features)))))
        return HeadOutputs(cls=cls.sigmoid(), reg=reg.exp())


# ----------------------------------------------------------------------
# box decoding
# ----------------------------------------------------------------------

class DecodedBox(NamedTuple):
    box: Box                  # pixels, (x1, y1, x2, y2)
    confidence: float
    position: tuple[int, int]  # (row, col) of the scoring grid cell
    degenerate: bool


def decode_box(outputs: HeadOutputs) -> DecodedBox:
    """Box at the classification argmax; ties break to the lowest flat index.

    Grid position (row k_y, col k_x) with distances (l, t, r, b) decodes to
    STRIDE * (k_x - l, k_y - t, k_x + r, k_y + b) pixels. A box without
    positive extent on both axes is flagged as degenerate.
    """
    cls = outputs.cls.data[..., 0]
    reg = outputs.reg.data
    h, w = cls.shape
    flat = int(np.argmax(cls.reshape(-1)))
    ky, kx = divmod(flat, w)
    l, t, r, b = reg[ky, kx]
    ay, ax = (g[ky, kx] for g in cell_grid((h, w)))
    box = ((ax - l) * STRIDE, (ay - t) * STRIDE,
           (ax + r) * STRIDE, (ay + b) * STRIDE)
    return DecodedBox(box=box, confidence=float(cls[ky, kx]),
                      position=(ky, kx), degenerate=(l + r <= 0 or t + b <= 0))


def _ltrb_to_boxes_tensor(reg: Tensor) -> Tensor:
    """Per-position decoded boxes in grid units, (H, W, 4)."""
    ky, kx = (g[..., None] for g in cell_grid(reg.shape[:2]))
    return concat([kx - reg[:, :, 0:1], ky - reg[:, :, 1:2],
                   kx + reg[:, :, 2:3], ky + reg[:, :, 3:4]], axis=2)


# ----------------------------------------------------------------------
# losses
# ----------------------------------------------------------------------

def _overlap(pred: Tensor, gt: Box) -> tuple[tuple[Tensor, ...], Tensor, Tensor]:
    """Corners of predicted boxes (..., 4), and their intersection and union
    with one validated box."""
    gx1, gy1, gx2, gy2 = gt
    px1, py1, px2, py2 = corners = tuple(pred[..., i] for i in range(4))
    inter_w = (minimum(px2, gx2) - maximum(px1, gx1)).relu()
    inter_h = (minimum(py2, gy2) - maximum(py1, gy1)).relu()
    inter = inter_w * inter_h
    pred_area = (px2 - px1).relu() * (py2 - py1).relu()
    gt_area = (gx2 - gx1) * (gy2 - gy1)
    return corners, inter, pred_area + gt_area - inter


def giou_values(pred: Tensor, gt_box: Box) -> Tensor:
    """Generalized IoU of predicted boxes (..., 4) against one ground truth.

    GIoU = IoU - (hull - union) / hull, always in [-1, 1]. The ground-truth
    box must be non-degenerate, which keeps union and hull positive.
    """
    gx1, gy1, gx2, gy2 = gt = validate_box(gt_box)
    (px1, py1, px2, py2), inter, union = _overlap(as_tensor(pred), gt)
    hull = (maximum(px2, gx2) - minimum(px1, gx1)) * \
           (maximum(py2, gy2) - minimum(py1, gy1))
    return inter / union - (hull - union) / hull


def giou_loss(pred: Tensor, gt_box: Box) -> Tensor:
    """1 - GIoU, elementwise over predicted boxes; in [0, 2]."""
    return 1.0 - giou_values(pred, gt_box)


def varifocal_loss(p: Tensor, q: np.ndarray, alpha: float = 0.75,
                   gamma: float = 2.0) -> Tensor:
    """IoU-aware focal classification loss.

    Positions with target q > 0 pay a cross-entropy against q weighted by q;
    negatives pay -alpha * p**gamma * log(1 - p). The sum is normalized by
    the positive count (at least 1). Predictions must lie strictly inside
    (0, 1) and targets in [0, 1].
    """
    q = np.asarray(q, dtype=np.float64)
    p = as_tensor(p)
    if p.shape != q.shape:
        raise ValueError(f"shape mismatch: predictions {p.shape} vs targets {q.shape}")
    if np.any(p.data <= 0.0) or np.any(p.data >= 1.0):
        raise ValueError("predictions must lie strictly inside (0, 1)")
    if np.any(q < 0.0) or np.any(q > 1.0):
        raise ValueError("targets must lie in [0, 1]")
    pos = (q > 0.0).astype(np.float64)
    log_p = p.log()
    log_not_p = (1.0 - p).log()
    pos_term = (q * log_p + (1.0 - q) * log_not_p) * (-q)
    neg_term = (p ** gamma) * log_not_p * (-alpha)
    total = (pos_term * pos + neg_term * (1.0 - pos)).sum()
    return total / max(1.0, float(pos.sum()))


@dataclass
class TrainingTarget:
    """IoU-aware classification targets for one search frame."""

    q: np.ndarray          # (H, W, 1), zero off the positives
    positives: np.ndarray  # (H, W) bool, the cell's anchor strictly inside the gt box
    box: Box               # ground truth in pixels
    sides: np.ndarray      # (H, W, 4) `ltrb_map` of the gt box


def build_targets(gt_box: Box, boxes: Tensor) -> TrainingTarget:
    """Positives are cells whose own `cell_grid` anchor lies strictly inside
    the gt box, so all four of their `ltrb_map` sides are positive; their
    target is the IoU of the predicted box at that cell, given as decoded
    (H, W, 4) grid-unit `boxes`, taken as a constant (no gradient flows
    through it)."""
    x1, y1, x2, y2 = box = validate_box(gt_box)
    h, w = grid = boxes.shape[:2]
    if x1 < 0 or y1 < 0 or x2 > w * STRIDE or y2 > h * STRIDE:
        raise ValueError(f"gt box {gt_box} outside the {w * STRIDE}x{h * STRIDE} image")
    sides = ltrb_map(box, grid)
    positives = (sides > 0.0).all(axis=-1)
    with no_grad():
        _, inter, union = _overlap(boxes, tuple(v / STRIDE for v in box))
        iou = (inter / union).data
    q = np.where(positives, np.clip(iou, 0.0, 1.0), 0.0)[..., None]
    return TrainingTarget(q=q, positives=positives, box=box, sides=sides)


def total_loss(cls_term, giou_term, lambda_cls: float = 1.5,
               lambda_giou: float = 1.5):
    """Weighted sum of the classification and GIoU terms."""
    return cls_term * lambda_cls + giou_term * lambda_giou


def tracking_loss(outputs: HeadOutputs, gt_box: Box,
                  alpha: float = 0.75, gamma: float = 2.0,
                  lambda_cls: float = 1.5, lambda_giou: float = 1.5
                  ) -> tuple[Tensor, dict[str, float], TrainingTarget]:
    """Full objective for one frame: weighted cls + giou, plus l1 at weight
    1, over positives.

    The l1 term sums, over the four sides, sqrt(d^2 + 1e-12) of the gap d
    between the predicted distance and `ltrb_map` of the ground truth, a
    smoothed |d| with a gradient everywhere. Unlike GIoU, which equals IoU
    while a predicted box contains the ground truth, it pulls each side
    toward its own target.
    """
    boxes = _ltrb_to_boxes_tensor(outputs.reg)
    target = build_targets(gt_box, boxes)
    cls_term = varifocal_loss(outputs.cls, target.q, alpha, gamma)
    if target.positives.any():
        gt_grid = tuple(v / STRIDE for v in target.box)
        mask = target.positives.astype(np.float64)
        count = float(mask.sum())
        giou_term = (giou_loss(boxes, gt_grid) * mask).sum() / count
        gap = outputs.reg - target.sides
        per_side = (gap * gap + 1e-12) ** 0.5
        l1_term = (per_side.sum(axis=-1) * mask).sum() / count
    else:
        giou_term = l1_term = as_tensor(0.0)
    total = total_loss(cls_term, giou_term, lambda_cls, lambda_giou) + l1_term
    parts = {"cls": float(cls_term.data), "giou": float(giou_term.data),
             "l1": float(l1_term.data)}
    return total, parts, target
