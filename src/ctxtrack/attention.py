"""Transformer building blocks.

Provides the plumbing (affine projection, layer normalization, feed-forward
sublayer) and one pre-norm attention block that runs over two token sets:
per-image windows, and the joint target/previous-frame/search sequence,
whose logits add absolute-position and relative-displacement terms.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .positional import PairwiseRegionBias, SegmentLayout, UntiedPositionBias
from .tensor import (Module, Tensor, attention_sublayer, feed_forward_sublayer,
                     grad_enabled, layer_norm, linear, normal_parameter, parameter)
# perfbench's tracer patches `matmul` in each module that imports it
from .tensor import matmul  # noqa: F401


class Linear(Module):
    """Affine map on the last axis, y = x @ weight (+ bias)."""

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator,
                 bias: bool = True):
        self.weight = normal_parameter(rng, in_dim, out_dim)
        self.bias = parameter(np.zeros(out_dim)) if bias else None

    def __call__(self, x: Tensor) -> Tensor:
        return linear(x, self.weight, self.bias)


class LayerNorm(Module):
    """Normalization over the last axis with learnable scale and shift."""

    def __init__(self, dim: int):
        self.gamma = parameter(np.ones(dim))
        self.beta = parameter(np.zeros(dim))

    def __call__(self, x: Tensor) -> Tensor:
        return layer_norm(x, self.gamma, self.beta)


class FeedForward(Module):
    """The two affine maps around a gelu, with the usual 4x expansion, that
    `feed_forward_sublayer` applies."""

    expansion = 4

    def __init__(self, dim: int, rng: np.random.Generator):
        self.fc1 = Linear(dim, self.expansion * dim, rng)
        self.fc2 = Linear(self.expansion * dim, dim, rng)


class _PreNormAttention(Module):
    """Pre-norm residual attention with a feed-forward sublayer.

    Token tensors may carry leading batch axes (one per window); heads split
    and merge over the last two axes. Bias modules made in `_init_bias` sit
    between the projections and the norms in parameter and draw order.
    """

    def __init__(self, dim: int, heads: int, rng: np.random.Generator):
        if dim % heads != 0:
            raise ValueError(f"dim {dim} not divisible by heads {heads}")
        self.dim = dim
        self.heads = heads
        # logits that sum `logit_terms` terms keep the spread of one content term
        self.scale = 1.0 / np.sqrt(self.logit_terms * (dim // heads))
        self.w_query = Linear(dim, dim, rng, bias=False)
        self.w_key = Linear(dim, dim, rng, bias=False)
        self.w_value = Linear(dim, dim, rng, bias=False)
        self.w_out = Linear(dim, dim, rng, bias=False)
        self._init_bias(rng)
        self.norm1 = LayerNorm(dim)
        self.norm2 = LayerNorm(dim)
        self.ff = FeedForward(dim, rng)

    def _init_bias(self, rng: np.random.Generator) -> None:
        """No logit bias terms by default."""

    def attend(self, xq: Tensor, xk: Tensor, biases=()) -> Tensor:
        """Projected attention output (..., Lq, dim) of normed tokens."""
        return attention_sublayer(xq, xk, self.w_query.weight, self.w_key.weight,
                                  self.w_value.weight, self.w_out.weight, self.heads,
                                  self.scale, biases)

    def _residual(self, tokens: Tensor, attn: Tensor) -> Tensor:
        """tokens + attn, plus the feed-forward of its norm."""
        ff = self.ff
        return feed_forward_sublayer(tokens, attn, self.norm2.gamma, self.norm2.beta,
                                     ff.fc1.weight, ff.fc1.bias, ff.fc2.weight, ff.fc2.bias)


class Windows(NamedTuple):
    """Window partition of a flat token sequence: `order` lists the token
    indices window by window, `window * window` at a time, and `inverse`
    puts them back."""

    window: int
    order: np.ndarray
    inverse: np.ndarray


@lru_cache(maxsize=64)
def window_partition(grids: tuple[tuple[int, int], ...], window: int) -> Windows:
    """Windows of a flat sequence of the row-major tokens of each (H, W)
    grid in turn: grid by grid, windows and their tokens in row-major
    order. Built once per tuple of grid shapes; the arrays are read-only,
    since every caller shares them."""
    parts, offset = [], 0
    for h, w in grids:
        if h % window or w % window:
            raise ValueError(f"grid {h}x{w} not divisible by window {window}")
        idx = np.arange(offset, offset + h * w).reshape(h // window, window, w // window, window)
        parts.append(idx.transpose(0, 2, 1, 3).reshape(-1))
        offset += h * w
    order = np.concatenate(parts)
    inverse = np.empty_like(order)
    inverse[order] = np.arange(order.size)
    order.flags.writeable = inverse.flags.writeable = False
    return Windows(window, order, inverse)


class WindowAttentionBlock(_PreNormAttention):
    """Pre-norm self-attention over non-overlapping square windows.

    Operates on a flat (L, C) sequence of one or more token grids split by
    a `Windows` partition; tokens only attend to others inside the same
    window, so all mixing is local to each grid. The gather into windows
    and the scatter back are row permutations.
    """

    logit_terms = 1

    def __call__(self, tokens: Tensor, windows: Windows) -> Tensor:
        win, dim = windows.window, self.dim
        if tokens.shape != (windows.order.size, dim):
            raise ValueError(f"expected ({windows.order.size}, {dim}) tokens, "
                             f"got {tokens.shape}")
        order, inverse = windows.order, windows.inverse
        x = self.norm1(tokens).permute_rows(order, inverse, (-1, win * win, dim))
        attn = self.attend(x, x).permute_rows(inverse, order, (-1, dim))
        del x   # the feed-forward does not read it
        return self._residual(tokens, attn)


class CrossFrameAttention(_PreNormAttention):
    """Joint attention over the concatenated target/previous/search tokens.

    Per-head logits sum three terms: scaled content dot products, absolute
    positional logits decoupled from content, and relative displacement
    logits looked up per ordered segment pair. The content term uses scale
    1/sqrt(2 * head_dim) so that content and absolute terms, which add up,
    stay on the footing a single softmax expects. The attention sits inside
    the usual pre-norm residual block with a feed-forward sublayer.

    The role is fixed when the layer is built: keys=None gives a full layer
    (`forward`); "templates" or "all" a search-query layer
    (`forward_search_queries`) whose keys are the target and previous
    tokens, or all tokens. Calling the layer runs its role.
    """

    logit_terms = 2

    def __init__(self, layout: SegmentLayout, dim: int, heads: int,
                 rng: np.random.Generator, keys: str | None = None):
        if keys not in (None, "templates", "all"):
            raise ValueError(f"unknown key mode: {keys!r}")
        self.layout = layout
        self.keys = keys
        # query rows, key rows and key segment names of the layer's role
        self.rows = layout.segment_slice("search") if keys else slice(0, layout.length)
        self.query_names = ("search",) if keys else layout.names()
        templates = keys == "templates"
        self.key_rows = slice(0, self.rows.start if templates else layout.length)
        self.key_names = tuple(n for n in layout.names() if not templates or n != "search")
        super().__init__(dim, heads, rng)

    def _init_bias(self, rng: np.random.Generator) -> None:
        self.abs_bias = UntiedPositionBias(self.layout, self.dim, self.heads, rng)
        self.rel_bias = PairwiseRegionBias(self.layout, self.heads, rng)

    def bias_terms(self) -> tuple[Tensor, Tensor]:
        """Taped: the absolute and relative logit terms of the layer's query
        and key segments, whole, so that the bias tables get gradients; a
        search-query layer builds only its search rows against its key
        segments. The terms depend only on the weights."""
        if self.keys is None:
            return self.abs_bias.bias(), self.rel_bias.bias()
        return (self.abs_bias.bias(self.query_names, self.key_names),
                self.rel_bias.block("search", *self.key_names))

    def term_heads(self):
        """Tape-free: the function of a slice of heads that builds those heads
        of both `bias_terms()`, bit for bit, so that `attention_sublayer`
        builds them one block of heads at a time. It holds the projected
        position rows, not the terms, and depends only on the weights."""
        abs_heads = self.abs_bias.bias_heads(self.query_names, self.key_names)
        rel_heads = self.rel_bias.bias_heads(self.query_names, self.key_names)
        return lambda block: (abs_heads(block), rel_heads(block))

    def _select(self, tokens: Tensor, terms=None):
        """Normed query and key tokens and bias terms of the layer's role;
        `terms`, when given, is `term_heads()`, built once ahead. A layer
        given none builds its own: `bias_terms()` taped, `term_heads()`
        tape-free."""
        if tokens.shape != (self.layout.length, self.dim):
            raise ValueError(f"token shape {tokens.shape} does not match layout "
                             f"{(self.layout.length, self.dim)}")
        x = self.norm1(tokens)
        if terms is None:
            terms = self.bias_terms() if grad_enabled() else self.term_heads()
        if self.keys is None:
            return x, x, terms
        return x[self.rows], x[self.key_rows], terms

    def __call__(self, tokens: Tensor, terms=None) -> Tensor:
        run = self.forward if self.keys is None else self.forward_search_queries
        return run(tokens, terms)

    def forward(self, tokens: Tensor, terms=None) -> Tensor:
        """Full joint attention; output layout equals input layout. `terms`,
        when given, is `term_heads()`."""
        if self.keys is not None:
            raise ValueError(f"a layer built with keys={self.keys!r} has no full forward")
        # one expression, so the terms are dropped before the feed-forward
        return self._residual(tokens, self.attend(*self._select(tokens, terms)))

    def forward_search_queries(self, tokens: Tensor, terms=None) -> Tensor:
        """Search-query attention; returns just the search-segment tokens.
        `terms`, when given, is `term_heads()`."""
        if self.keys is None:
            raise ValueError("a full layer (keys=None) has no search-query forward")
        return self._residual(tokens[self.rows], self.attend(*self._select(tokens, terms)))
