"""Transformer building blocks.

Provides the plumbing (affine projection, layer normalization, feed-forward
sublayer) and one pre-norm attention block that runs over two token sets:
per-image windows, and the joint target/previous-frame/search sequence,
whose logits add absolute-position and relative-displacement terms.
"""

from __future__ import annotations

import numpy as np

from .positional import PairwiseRegionBias, SegmentLayout, UntiedPositionBias
from .tensor import (Module, Tensor, concat, gelu, grad_enabled, layer_norm,
                     matmul, no_grad, parameter, softmax_lastdim)


class Linear(Module):
    """Affine map on the last axis, y = x @ weight (+ bias)."""

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator,
                 bias: bool = True, init_scale: float = 0.02):
        self.weight = parameter(rng.normal(scale=init_scale, size=(in_dim, out_dim)))
        self.bias = parameter(np.zeros(out_dim)) if bias else None

    def __call__(self, x: Tensor) -> Tensor:
        out = matmul(x, self.weight)
        if self.bias is not None:
            out = out + self.bias
        return out


class LayerNorm(Module):
    """Normalization over the last axis with learnable scale and shift."""

    def __init__(self, dim: int, eps: float = 1e-5):
        self.gamma = parameter(np.ones(dim))
        self.beta = parameter(np.zeros(dim))
        self.eps = eps

    def __call__(self, x: Tensor) -> Tensor:
        return layer_norm(x, self.gamma, self.beta, self.eps)


class FeedForward(Module):
    """Two affine maps around a gelu, with the usual 4x expansion."""

    def __init__(self, dim: int, rng: np.random.Generator, expansion: int = 4):
        self.fc1 = Linear(dim, expansion * dim, rng)
        self.fc2 = Linear(expansion * dim, dim, rng)

    def __call__(self, x: Tensor) -> Tensor:
        return self.fc2(gelu(self.fc1(x)))


class _PreNormAttention(Module):
    """Pre-norm residual attention with a feed-forward sublayer.

    Token tensors may carry leading batch axes (one per window); heads split
    and merge over the last two axes. Bias modules made in `_init_bias` sit
    between the projections and the norms in parameter and draw order.
    """

    def __init__(self, dim: int, heads: int, logit_terms: int,
                 rng: np.random.Generator, init_scale: float):
        if dim % heads != 0:
            raise ValueError(f"dim {dim} not divisible by heads {heads}")
        self.dim = dim
        self.heads = heads
        self.head_dim = dim // heads
        # logits that sum `logit_terms` terms keep the spread of one content term
        self.scale = 1.0 / np.sqrt(logit_terms * self.head_dim)
        self.w_query = Linear(dim, dim, rng, bias=False, init_scale=init_scale)
        self.w_key = Linear(dim, dim, rng, bias=False, init_scale=init_scale)
        self.w_value = Linear(dim, dim, rng, bias=False, init_scale=init_scale)
        self.w_out = Linear(dim, dim, rng, bias=False, init_scale=init_scale)
        self._init_bias(rng, init_scale)
        self.norm1 = LayerNorm(dim)
        self.norm2 = LayerNorm(dim)
        self.ff = FeedForward(dim, rng)

    def _init_bias(self, rng: np.random.Generator, init_scale: float) -> None:
        """No logit bias terms by default."""

    def _split(self, t: Tensor) -> Tensor:  # (..., L, dim) -> (..., heads, L, head_dim)
        return t.reshape(*t.shape[:-1], self.heads, self.head_dim).swapaxes(-3, -2)

    def _merge(self, t: Tensor) -> Tensor:  # (..., heads, L, head_dim) -> (..., L, dim)
        t = t.swapaxes(-3, -2)
        return t.reshape(*t.shape[:-2], self.dim)

    def weights(self, xq: Tensor, xk: Tensor, biases=()) -> Tensor:
        """Post-softmax (..., heads, Lq, Lk) weights of normed tokens; each
        bias term is added to the scaled content logits in turn."""
        q = self._split(self.w_query(xq))
        k = self._split(self.w_key(xk))
        logits = matmul(q, k.swapaxes(-1, -2)) * self.scale
        for bias in biases:
            logits = logits + bias
        return softmax_lastdim(logits)

    def attend(self, xq: Tensor, xk: Tensor, biases=()) -> Tensor:
        """Projected attention output (..., Lq, dim) of normed tokens."""
        v = self._split(self.w_value(xk))
        return self.w_out(self._merge(matmul(self.weights(xq, xk, biases), v)))

    def _residual(self, tokens: Tensor, attn: Tensor) -> Tensor:
        res = tokens + attn
        return res + self.ff(self.norm2(res))


class WindowAttentionBlock(_PreNormAttention):
    """Pre-norm self-attention over non-overlapping square windows.

    Operates on one image's token grid (H, W, C); tokens only attend to
    others inside the same window, so all mixing is local to the image.
    """

    def __init__(self, dim: int, heads: int, window: int,
                 rng: np.random.Generator, init_scale: float = 0.02):
        if window < 1:
            raise ValueError(f"window must be positive, got {window}")
        self.window = window
        super().__init__(dim, heads, 1, rng, init_scale)

    def __call__(self, tokens: Tensor) -> Tensor:
        if tokens.ndim != 3 or tokens.shape[2] != self.dim:
            raise ValueError(f"expected (H, W, {self.dim}) tokens, got {tokens.shape}")
        (h, w, dim), win = tokens.shape, self.window
        if h % win or w % win:
            raise ValueError(f"grid {h}x{w} not divisible by window {win}")
        x = self.norm1(tokens).reshape(h // win, win, w // win, win, dim)
        x = x.transpose(0, 2, 1, 3, 4).reshape(-1, win * win, dim)
        attn = self.attend(x, x).reshape(h // win, w // win, win, win, dim)
        return self._residual(tokens, attn.transpose(0, 2, 1, 3, 4).reshape(h, w, dim))


class CrossFrameAttention(_PreNormAttention):
    """Joint attention over the concatenated target/previous/search tokens.

    Per-head logits sum three terms: scaled content dot products, absolute
    positional logits decoupled from content, and relative displacement
    logits looked up per ordered segment pair. The content term uses scale
    1/sqrt(2 * head_dim) so that content and absolute terms, which add up,
    stay on the footing a single softmax expects. The attention sits inside
    the usual pre-norm residual block with a feed-forward sublayer.
    """

    def __init__(self, layout: SegmentLayout, dim: int, heads: int,
                 rng: np.random.Generator, init_scale: float = 0.02):
        self.layout = layout
        super().__init__(dim, heads, 2, rng, init_scale)
        self._held = None   # (keys, bias terms) while held

    def _init_bias(self, rng: np.random.Generator, init_scale: float) -> None:
        self.abs_bias = UntiedPositionBias(self.layout, self.dim, self.heads, rng, init_scale)
        self.rel_bias = PairwiseRegionBias(self.layout, self.heads, rng, init_scale)

    def _search_keys(self, keys: str) -> tuple[slice, int, tuple[str, ...]]:
        """Search query rows, key stop and key segment names for `keys`."""
        if keys not in ("templates", "all"):
            raise ValueError(f"unknown key mode: {keys!r}")
        rows, names = self.layout.segment_slice("search"), self.layout.names()
        if keys == "templates":
            return rows, rows.start, tuple(n for n in names if n != "search")
        return rows, self.layout.length, names

    def bias_terms(self, keys: str | None = None) -> tuple[Tensor, Tensor]:
        """Absolute and relative logit terms for the rows and keys of `keys`.

        keys=None gives the full map. "templates" or "all" keep only the
        search rows against that key set, and gather only the relative-bias
        blocks those rows use. While no tape is recorded, terms kept by
        `hold_bias_terms` for the same keys are returned instead.
        """
        if self._held is not None and self._held[0] == keys and not grad_enabled():
            return self._held[1]
        if keys is None:
            return self.abs_bias.bias(), self.rel_bias.bias()
        rows, stop, names = self._search_keys(keys)
        rel = concat([self.rel_bias.block("search", n) for n in names], axis=2)
        return self.abs_bias.bias()[:, rows, 0:stop], rel

    def hold_bias_terms(self, keys: str | None = None) -> None:
        """Build the bias terms for `keys` once, tape-free, and reuse them
        in every tape-free call until `release_bias_terms`. They depend
        only on the weights, which must not change meanwhile."""
        with no_grad():
            terms = self.bias_terms(keys)
        # a search-row slice is copied, so the full term behind it is freed
        self._held = (keys, tuple(Tensor(np.ascontiguousarray(t.data)) for t in terms))

    def release_bias_terms(self) -> None:
        self._held = None

    def _select(self, tokens: Tensor, keys: str | None = None):
        """Normed query and key tokens, bias terms and key segment names;
        `keys` as in `bias_terms`."""
        if tokens.shape != (self.layout.length, self.dim):
            raise ValueError(f"token shape {tokens.shape} does not match layout "
                             f"{(self.layout.length, self.dim)}")
        x = self.norm1(tokens)
        if keys is None:
            return x, x, self.bias_terms(), self.layout.names()
        rows, stop, names = self._search_keys(keys)
        return x[rows], x[0:stop], self.bias_terms(keys), names

    def __call__(self, tokens: Tensor) -> Tensor:
        return self.forward(tokens)

    def forward(self, tokens: Tensor) -> Tensor:
        """Full joint attention; output layout equals input layout."""
        xq, xk, biases, _ = self._select(tokens)
        return self._residual(tokens, self.attend(xq, xk, biases))

    def forward_search_queries(self, tokens: Tensor, keys: str = "templates") -> Tensor:
        """Final-layer variant: only search tokens act as queries.

        With keys="templates" the keys/values are the target and previous
        tokens only; keys="all" keeps search tokens in the key set too.
        Returns just the search-segment tokens.
        """
        xq, xk, biases, _ = self._select(tokens, keys)
        search = tokens[self.layout.segment_slice("search")]
        return self._residual(search, self.attend(xq, xk, biases))

    def attention_blocks(self, tokens: Tensor, restricted: bool = False,
                         keys: str = "templates") -> dict[tuple[str, str], np.ndarray]:
        """Post-softmax weights partitioned by (query segment, key segment).

        The full map yields nine blocks for a three-segment layout; the
        restricted variant yields only the search-query rows against the
        selected key set.
        """
        xq, xk, biases, key_names = self._select(tokens, keys if restricted else None)
        query_names = ("search",) if restricted else self.layout.names()

        def split(a: np.ndarray, names, axis: int) -> list[np.ndarray]:
            sizes = [h * w for h, w in map(self.layout.grid, names)]
            return np.split(a, np.cumsum(sizes)[:-1], axis=axis)

        rows = split(self.weights(xq, xk, biases).data, query_names, 1)
        return {(qn, kn): block for qn, row in zip(query_names, rows)
                for kn, block in zip(key_names, split(row, key_names, 2))}
