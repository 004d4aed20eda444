"""Taped primitive ops that only tests use, as references for fused ops.

`composite_gelu` builds gelu from `tanh`, and the attention-weight tests
build their composite from `softmax_lastdim`; both record `_node` tape
nodes, so their gradients run through the same sweep as the library's.
"""

from __future__ import annotations

import numpy as np

from ctxtrack.tensor import Tensor, _exp_normalize, _node, as_tensor


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
