"""Taped primitive ops that only tests use, as references for fused ops.

`composite_gelu` builds gelu from `tanh`, and the attention-weight tests
build their composite from `softmax_lastdim`; both record `_node` tape
nodes, so their gradients run through the same sweep as the library's.
`composite_attend` and `composite_residual` are a pre-norm attention
layer's two sublayers built from one tape node per step, which
`attention_sublayer` and `feed_forward_sublayer` must match bit for bit.
"""

from __future__ import annotations

import numpy as np

from ctxtrack.tensor import Tensor, _exp_normalize, _node, as_tensor, matmul


def tanh(t: Tensor) -> Tensor:
    out = np.tanh(t.data)
    return _node(out, (t,), (lambda g: g * (1.0 - out * out),))


def softmax_lastdim(t: Tensor) -> Tensor:
    """Softmax over the last axis, stabilised by max subtraction."""
    t = as_tensor(t)
    if t.ndim == 0 or t.shape[-1] < 1:
        raise ValueError("softmax_lastdim needs a non-empty last axis")
    out = _exp_normalize(t.data - t.data.max(axis=-1, keepdims=True))
    return _node(out, (t,),
                 (lambda g: out * (g - (g * out).sum(axis=-1, keepdims=True)),))


def seeded_root(out: Tensor, seed) -> Tensor:
    """A scalar whose backward hands `out` exactly `seed` as its gradient.

    `accumulate_grad` turns -0.0 into +0.0; this bypasses it so the op under
    test sees -0.0 in its incoming gradient.
    """
    def bwd(_):
        out.grad = np.array(seed, dtype=np.float64)

    return Tensor._make(np.zeros(()), (out,), bwd)


def _merge(layer, t: Tensor) -> Tensor:
    """(..., heads, L, head_dim) -> (..., L, dim), one `rearrange` node."""
    *lead, _, length, _ = t.shape
    n = len(lead)
    return t.rearrange(t.shape, (*range(n), n + 1, n, n + 2), (*lead, length, layer.dim))


def composite_attend(layer, xq: Tensor, xk: Tensor, biases=()) -> Tensor:
    """`layer.attend` from `Linear` projections, `rearrange` head splits and
    merges, `attention_weights` and `matmul`."""
    v = layer._split(layer.w_value(xk))
    return layer.w_out(_merge(layer, matmul(layer.weights(xq, xk, biases), v)))


def composite_residual(layer, tokens: Tensor, attn: Tensor) -> Tensor:
    """`layer._residual` from `+`, `LayerNorm` and `FeedForward`."""
    res = tokens + attn
    return res + layer.ff(layer.norm2(res))
