"""Backbone building blocks and box-derived feature maps.

Covers the patch embedding that tokenizes images, the stage transition
that halves each grid while doubling channels, the two maps derived from
the previous-frame box (a normalized Gaussian prior and per-position ltrb
distances), and the learnable embedding that injects both into the
previous-template tokens. All of them work on flat (L, C) rows: the
row-major cells of each grid, one image's grid after another.
"""

from __future__ import annotations

import numpy as np

from .attention import LayerNorm, Linear, window_partition
from .imageops import STRIDE, Box, cell_grid, validate_box
from .tensor import Module, Tensor, as_tensor, concat, gelu, normal_parameter


def _merge(x: Tensor, grids: tuple[tuple[int, int], ...], size: int) -> Tensor:
    """Each size x size neighbourhood of the rows of `x`, the row-major
    cells of `grids` one grid after another, as one row of size * size * C
    values in (row, col, channel) order: one row permutation, by
    `window_partition`."""
    windows = window_partition(grids, size)
    return x.permute_rows(windows.order, windows.inverse, (-1, size * size * x.shape[-1]))


class PatchEmbed(Module):
    """Tokenize a sequence of (H, W, 3) images via 4x4 patches into one flat
    (L, C) sequence: each image's (H/4, W/4) grid in turn, row-major."""

    patch = 4

    def __init__(self, channels: int, rng: np.random.Generator):
        self.proj = Linear(self.patch * self.patch * 3, channels, rng)

    def __call__(self, images) -> Tensor:
        images = [as_tensor(x) for x in images]
        p = self.patch
        for x in images:
            if x.ndim != 3 or x.shape[2] != 3 or x.shape[0] % p or x.shape[1] % p:
                raise ValueError(f"expected an (H, W, 3) image with H and W divisible "
                                 f"by {p}, got {x.shape}")
        pixels = concat([x.reshape(-1, 3) for x in images])
        return self.proj(_merge(pixels, tuple(x.shape[:2] for x in images), p))


class Downsample(Module):
    """Merge 2x2 token neighbourhoods of a flat sequence of (H, W) grids:
    (L, C) -> (L/4, 2C), each grid's (H/2, W/2) cells in turn."""

    def __init__(self, channels: int, rng: np.random.Generator):
        self.norm = LayerNorm(4 * channels)
        self.reduce = Linear(4 * channels, 2 * channels, rng, bias=False)
        self.channels = channels

    def __call__(self, tokens: Tensor, grids: tuple[tuple[int, int], ...]) -> Tensor:
        rows = sum(h * w for h, w in grids)
        if tokens.shape != (rows, self.channels):
            raise ValueError(f"expected {rows} token rows of width {self.channels} for "
                             f"grids {grids}, got {tokens.shape}")
        if any(h % 2 or w % 2 for h, w in grids):
            raise ValueError(f"grids {grids} must have even sides")
        return self.reduce(self.norm(_merge(tokens, grids, 2)))


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
    `grid` fixed at construction, as one (H * W, dim) row per cell in
    row-major order; w is a per-channel weight broadcast over positions and
    the mlp lifts the four distance channels to the token width.
    """

    def __init__(self, dim: int, grid: tuple[int, int], rng: np.random.Generator):
        self.dim = dim
        self.grid = grid
        self.weight = normal_parameter(rng, 1, 1, dim)
        self.fc1 = Linear(4, dim, rng)
        self.fc2 = Linear(dim, dim, rng)

    def __call__(self, box: Box) -> Tensor:
        lifted = self.fc2(gelu(self.fc1(Tensor(ltrb_map(box, self.grid).reshape(-1, 4)))))
        prior = Tensor(gaussian_map(box, self.grid).reshape(-1, 1))
        return self.weight.reshape(1, self.dim) * prior + lifted
