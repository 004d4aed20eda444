"""Reference code that only tests use: the gradient oracle, the primitive-op
composites that the library's fused ops must match bit for bit, the
per-grid patch embedding and downsampling that the flat forms must match,
and the layout and attention-weight views that no library run reads.

The composites record `Tensor._make` nodes, so their gradients run through
the same sweep as the library's. `composite_attend` and
`composite_residual` are a pre-norm attention layer's two sublayers, which
`attention_sublayer` and `feed_forward_sublayer` replace.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ctxtrack.imageops import STRIDE
from ctxtrack.positional import PairwiseRegionBias, SegmentLayout
from ctxtrack.tensor import (Tensor, _exp_normalize, _unbroadcast, as_tensor, gelu, matmul,
                             no_grad)


def finite_diff_grad(f: Callable[[Tensor], float], x: Tensor, eps: float = 1e-4) -> np.ndarray:
    """Central-difference gradient of a scalar function, one coordinate at a
    time. Perturbs ``x.data`` in place and restores it, so ``f`` may close
    over a model that owns ``x``. Runs with the tape disabled."""
    flat = x.data.reshape(-1)
    grad = np.zeros_like(flat)
    with no_grad():
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            hi = float(f(x))
            flat[i] = orig - eps
            lo = float(f(x))
            flat[i] = orig
            grad[i] = (hi - lo) / (2.0 * eps)
    return grad.reshape(x.data.shape)


def smoothed_l1(reg: np.ndarray, gt_box, positives: np.ndarray) -> float:
    """The tracking loss's per-side L1 term, cell by cell: the mean over the
    positive cells of sum_sides sqrt(d^2 + 1e-12), where d is the gap
    between the predicted (H, W, 4) ltrb distance and the cell's distance
    to that side of the pixel box `gt_box`, both in grid units."""
    x1, y1, x2, y2 = (v / STRIDE for v in gt_box)
    total = 0.0
    for ky, kx in zip(*np.nonzero(positives)):
        sides = (kx - x1, ky - y1, x2 - kx, y2 - ky)
        total += sum(np.sqrt((p - t) ** 2 + 1e-12) for p, t in zip(reg[ky, kx], sides))
    return float(total / positives.sum())


def tanh(t: Tensor) -> Tensor:
    out = np.tanh(t.data)
    return Tensor._make(out, (t,), (lambda g: g * (1.0 - out * out),))


def softmax_lastdim(t: Tensor) -> Tensor:
    """Softmax over the last axis, stabilised by max subtraction."""
    t = as_tensor(t)
    if t.ndim == 0 or t.shape[-1] < 1:
        raise ValueError("softmax_lastdim needs a non-empty last axis")
    out = _exp_normalize(t.data - t.data.max(axis=-1, keepdims=True))
    return Tensor._make(out, (t,),
                 (lambda g: out * (g - (g * out).sum(axis=-1, keepdims=True)),))


def batched_weight_grad(a: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The gradient of a 2-D b in a @ b, for a with leading axes and the
    output gradient g, as one batched product aᵀ @ g per index of those
    axes, summed over them by `_unbroadcast`."""
    return _unbroadcast(a.swapaxes(-1, -2) @ g, (a.shape[-1], g.shape[-1]))


def seeded_root(out: Tensor, seed) -> Tensor:
    """A scalar whose backward hands `out` exactly `seed` as its gradient,
    -0.0 entries included."""
    def bwd(_):
        out.grad = np.array(seed, dtype=np.float64)

    return Tensor._make(np.zeros(()), (out,), bwd)


def composite_attention_weights(q, k, scale, biases=()) -> Tensor:
    """softmax(q @ kᵀ * scale + Σ biases), each bias term added in turn."""
    logits = matmul(q, k.swapaxes(-1, -2)) * scale
    for bias in biases:
        logits = logits + bias
    return softmax_lastdim(logits)


def _split(layer, t: Tensor) -> Tensor:
    """(..., L, dim) -> (..., heads, L, head_dim), one `rearrange` node."""
    *lead, length, _ = t.shape
    n, head_dim = len(lead), layer.dim // layer.heads
    return t.rearrange((*lead, length, layer.heads, head_dim), (*range(n), n + 1, n, n + 2),
                       (*lead, layer.heads, length, head_dim))


def _merge(layer, t: Tensor) -> Tensor:
    """(..., heads, L, head_dim) -> (..., L, dim), one `rearrange` node."""
    *lead, _, length, _ = t.shape
    n = len(lead)
    return t.rearrange(t.shape, (*range(n), n + 1, n, n + 2), (*lead, length, layer.dim))


def layer_weights(layer, xq: Tensor, xk: Tensor, biases=()) -> Tensor:
    """Post-softmax (..., heads, Lq, Lk) weights of a layer's normed tokens."""
    q = _split(layer, layer.w_query(xq))
    k = _split(layer, layer.w_key(xk))
    return composite_attention_weights(q, k, layer.scale, biases)


def composite_attend(layer, xq: Tensor, xk: Tensor, biases=()) -> Tensor:
    """`layer.attend` from `Linear` projections, `rearrange` head splits and
    merges, `composite_attention_weights` and `matmul`."""
    v = _split(layer, layer.w_value(xk))
    return layer.w_out(_merge(layer, matmul(layer_weights(layer, xq, xk, biases), v)))


def feed_forward(ff, x: Tensor) -> Tensor:
    """fc2(gelu(fc1(x))) of a `FeedForward`."""
    return ff.fc2(gelu(ff.fc1(x)))


def composite_residual(layer, tokens: Tensor, attn: Tensor) -> Tensor:
    """`layer._residual` from `+`, `LayerNorm` and `feed_forward`."""
    res = tokens + attn
    return res + feed_forward(layer.ff, layer.norm2(res))


def attention_blocks(layer, tokens: Tensor) -> dict[tuple[str, str], np.ndarray]:
    """A `CrossFrameAttention` layer's post-softmax weights by (query
    segment, key segment): all of them for a full layer, else the search
    rows against the layer's own key set."""
    # whole terms, which a tape-free `_select` would otherwise build by heads
    xq, xk, biases = layer._select(tokens, layer.bias_terms())
    layout = layer.layout
    query_names = layout.names() if layer.keys is None else ("search",)
    key_names = layer.key_names

    def split(a: np.ndarray, names, axis: int) -> list[np.ndarray]:
        sizes = [h * w for h, w in map(layout.grid, names)]
        return np.split(a, np.cumsum(sizes)[:-1], axis=axis)

    rows = split(layer_weights(layer, xq, xk, biases).data, query_names, 1)
    return {(qn, kn): block for qn, row in zip(query_names, rows)
            for kn, block in zip(key_names, split(row, key_names, 2))}


def grid_merge(grid: Tensor, size: int) -> Tensor:
    """Each size x size neighbourhood of one (H, W, C) grid as a token of
    an (H/size, W/size, size * size * C) grid, one `rearrange` node."""
    h, w, c = grid.shape
    return grid.rearrange((h // size, size, w // size, size, c), (0, 2, 1, 3, 4),
                          (h // size, w // size, size * size * c))


def grid_patch_embed(embed, image: Tensor) -> Tensor:
    """A `PatchEmbed`'s (H/4, W/4, C) tokens of one (H, W, 3) image."""
    return embed.proj(grid_merge(image, embed.patch))


def grid_downsample(down, grid: Tensor) -> Tensor:
    """A `Downsample`'s (H/2, W/2, 2C) tokens of one (H, W, C) grid."""
    return down.reduce(down.norm(grid_merge(grid, 2)))


def single_layout(name: str, h: int, w: int) -> SegmentLayout:
    """A one-segment layout."""
    return SegmentLayout(((name, h, w),))


def coords(layout: SegmentLayout, index: int) -> tuple[str, int, int]:
    """Token index -> (segment, row, col); inverse of the flattening."""
    if not 0 <= index < layout.length:
        raise IndexError(index)
    for seg, h, w in layout.segments:
        if index < h * w:
            return (seg, index // w, index % w)
        index -= h * w
    raise AssertionError("unreachable")


def zero_tables(bias: PairwiseRegionBias) -> None:
    """Set every relative displacement table of `bias` to zero."""
    for t in bias.tables:
        t.data[...] = 0.0
