"""Backbone building blocks and box-derived feature maps.

Covers the patch embedding that tokenizes an image, the stage transition
that halves the grid while doubling channels, the two maps derived from the
previous-frame box (a normalized Gaussian prior and per-position ltrb
distances), and the learnable embedding that injects both into the
previous-template tokens.
"""

from __future__ import annotations

import numpy as np

from .attention import LayerNorm, Linear
from .imageops import STRIDE, Box, cell_grid, validate_box
from .tensor import Module, Tensor, gelu, normal_parameter


class PatchEmbed(Module):
    """Tokenize an (H, W, 3) image into (H/4, W/4, C) via 4x4 patches."""

    patch = 4

    def __init__(self, channels: int, rng: np.random.Generator):
        in_dim = self.patch * self.patch * 3
        self.proj = Linear(in_dim, channels, rng)
        self.channels = channels

    def __call__(self, image: Tensor) -> Tensor:
        if image.ndim != 3 or image.shape[2] != 3:
            raise ValueError(f"expected (H, W, 3) image, got {image.shape}")
        h, w, _ = image.shape
        p = self.patch
        if h % p or w % p:
            raise ValueError(f"image size {h}x{w} not divisible by {p}")
        return self.proj(image.rearrange((h // p, p, w // p, p, 3), (0, 2, 1, 3, 4),
                                         (h // p, w // p, p * p * 3)))


class Downsample(Module):
    """Merge 2x2 token neighborhoods: (H, W, C) -> (H/2, W/2, 2C)."""

    def __init__(self, channels: int, rng: np.random.Generator):
        self.norm = LayerNorm(4 * channels)
        self.reduce = Linear(4 * channels, 2 * channels, rng, bias=False)
        self.channels = channels

    def __call__(self, tokens: Tensor) -> Tensor:
        if tokens.ndim != 3 or tokens.shape[2] != self.channels:
            raise ValueError(
                f"expected (H, W, {self.channels}) tokens, got {tokens.shape}")
        h, w, c = tokens.shape
        if h % 2 or w % 2:
            raise ValueError(f"grid {h}x{w} must have even sides")
        x = tokens.rearrange((h // 2, 2, w // 2, 2, c), (0, 2, 1, 3, 4),
                             (h // 2, w // 2, 4 * c))
        return self.reduce(self.norm(x))


def ltrb_map(box: Box, grid: tuple[int, int]) -> np.ndarray:
    """Per-position distances to the four box sides, in grid units.

    Position (row k_y, col k_x) gets (l, t, r, b) = (k_x - x1, k_y - y1,
    x2 - k_x, y2 - k_y) for the box in grid units (pixels / STRIDE). The
    channel sums l+r and t+b equal the box width and height everywhere.
    """
    x1, y1, x2, y2 = validate_box(box)
    ky, kx = cell_grid(grid)
    return np.stack([kx - x1 / STRIDE, ky - y1 / STRIDE,
                     x2 / STRIDE - kx, y2 / STRIDE - ky], axis=-1)


def gaussian_map(box: Box, grid: tuple[int, int]) -> np.ndarray:
    """Isotropic Gaussian prior over the token grid, peak normalized to 1.

    The center is the box center in grid coordinates and the spread is
    sigma = max(box_w, box_h) / (4 * STRIDE) grid units, so larger targets
    get wider priors. Normalizing by the maximum puts exactly 1.0 at the
    token nearest the center and keeps every value strictly positive.
    """
    x1, y1, x2, y2 = validate_box(box)
    cx = (x1 + x2) / 2.0 / STRIDE
    cy = (y1 + y2) / 2.0 / STRIDE
    sigma = max(x2 - x1, y2 - y1) / (4.0 * STRIDE)
    ky, kx = cell_grid(grid)
    d2 = (kx - cx) ** 2 + (ky - cy) ** 2
    # subtracting the minimum normalizes the peak to exp(0) = 1 without ever
    # forming a denormal intermediate; the clip guards exp underflow to 0
    expo = (d2 - d2.min()) / (2.0 * sigma * sigma)
    return np.exp(-np.minimum(expo, 700.0))[..., None]


class BoxEmbedding(Module):
    """Learnable injection of the previous-frame box into template tokens.

    Produces w * gaussian_map + mlp(ltrb_map) of a box, in pixels, over the
    `grid` fixed at construction; w is a per-channel weight broadcast over
    positions and the mlp lifts the four distance channels to the token width.
    """

    def __init__(self, dim: int, grid: tuple[int, int], rng: np.random.Generator):
        self.dim = dim
        self.grid = grid
        self.weight = normal_parameter(rng, 1, 1, dim)
        self.fc1 = Linear(4, dim, rng)
        self.fc2 = Linear(dim, dim, rng)

    def __call__(self, box: Box) -> Tensor:
        lifted = self.fc2(gelu(self.fc1(Tensor(ltrb_map(box, self.grid)))))
        return self.weight * Tensor(gaussian_map(box, self.grid)) + lifted
