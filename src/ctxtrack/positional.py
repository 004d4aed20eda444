"""Positional terms for joint attention over several token grids.

Three flattened 2-D grids (target template, previous template, search
image) are concatenated into one token sequence. Two learnable terms are
added to the attention logits:

* an untied absolute term, built from per-segment position tables passed
  through their own query/key projections, so content and position are
  scored separately;
* a pairwise relative term with one independent displacement table per
  ordered segment pair, indexed by the 2-D offset between the query and
  key token inside their own grids.

A fixed sine/cosine embedding of the search grid's cells is added to the
features that reach the prediction heads.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .imageops import cell_grid
from .tensor import Module, Tensor, concat, grad_enabled, matmul, normal_parameter

SEGMENTS = ("target", "previous", "search")


@dataclass(frozen=True)
class SegmentLayout:
    """Ordered token-grid segments with row-major flattening."""

    segments: tuple[tuple[str, int, int], ...]

    @property
    def length(self) -> int:
        return sum(h * w for _, h, w in self.segments)

    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _, _ in self.segments)

    def grid(self, name: str) -> tuple[int, int]:
        for seg, h, w in self.segments:
            if seg == name:
                return (h, w)
        raise KeyError(name)

    def offset(self, name: str) -> int:
        off = 0
        for seg, h, w in self.segments:
            if seg == name:
                return off
            off += h * w
        raise KeyError(name)

    def segment_slice(self, name: str) -> slice:
        off = self.offset(name)
        h, w = self.grid(name)
        return slice(off, off + h * w)


def segment_layout(target: tuple[int, int], previous: tuple[int, int],
                   search: tuple[int, int]) -> SegmentLayout:
    """The target/previous/search layout of three grids, in that order."""
    grids = dict(zip(SEGMENTS, (target, previous, search)))
    for name, (h, w) in grids.items():
        if h < 1 or w < 1:
            raise ValueError(f"{name} grid must be at least 1x1, got {h}x{w}")
    return SegmentLayout(tuple((name, h, w) for name, (h, w) in grids.items()))


@lru_cache(maxsize=16)
def sine_embedding(grid: tuple[int, int], dim: int) -> np.ndarray:
    """Parameter-free (H, W, dim) embedding of each cell's position.

    dim / 4 channels each hold sin x, cos x, sin y and cos y of the cell's
    column x and row y, as `cell_grid` gives them, at the frequencies
    4^-i for i = 0 to dim / 4 - 1, so dim must be a multiple of 4. Built
    once per grid and width; the array is read-only, since every caller
    shares it.
    """
    ky, kx = cell_grid(grid)
    freqs = 4.0 ** -np.arange(dim // 4)
    x, y = kx[..., None] * freqs, ky[..., None] * freqs
    out = np.concatenate([np.sin(x), np.cos(x), np.sin(y), np.cos(y)], axis=-1)
    out.flags.writeable = False
    return out


class UntiedPositionBias(Module):
    """Absolute positional logits decoupled from content.

    Keeps one learnable table per segment plus square query/key projections.
    The bias of query rows p_q against key rows p_k is (p_q U_q)(p_k U_k)^T
    split per head and scaled by 1/sqrt(2 * head_dim), mirroring how the
    content term is scaled.
    """

    def __init__(self, layout: SegmentLayout, dim: int, heads: int,
                 rng: np.random.Generator):
        if dim % heads != 0:
            raise ValueError(f"dim {dim} not divisible by heads {heads}")
        self.layout = layout
        self.dim = dim
        self.heads = heads
        self.tables = [normal_parameter(rng, h * w, dim) for _, h, w in layout.segments]
        self.u_query = normal_parameter(rng, dim, dim)
        self.u_key = normal_parameter(rng, dim, dim)

    def _table(self, names: tuple[str, ...]) -> Tensor:
        """The position rows of the named segments, in the order given."""
        return concat([self.tables[self.layout.names().index(n)] for n in names])

    def _project(self, table: Tensor, weight: Tensor) -> Tensor:
        """(heads, rows, head_dim) heads of table @ weight."""
        rows, head_dim = table.shape[0], self.dim // self.heads
        return matmul(table, weight).rearrange((rows, self.heads, head_dim), (1, 0, 2),
                                               (self.heads, rows, head_dim))

    def _projected(self, queries: tuple[str, ...] | None,
                   keys: tuple[str, ...] | None) -> tuple[Tensor, Tensor, float]:
        """The (heads, rows, head_dim) projected position rows of the
        `queries` and of the `keys` segments, and the logits' scale."""
        names = self.layout.names()
        queries, keys = queries or names, keys or names
        q_table = self._table(queries)
        k_table = q_table if keys == queries else self._table(keys)
        return (self._project(q_table, self.u_query), self._project(k_table, self.u_key),
                1.0 / np.sqrt(2.0 * (self.dim // self.heads)))

    def bias(self, queries: tuple[str, ...] | None = None,
             keys: tuple[str, ...] | None = None) -> Tensor:
        """(heads, L_q, L_k) absolute-position logits of the tokens of the
        `queries` segments against those of the `keys` segments, each a
        tuple of segment names, in the order given; None means every
        segment. Only those segments' tables are projected."""
        pq, pk, scale = self._projected(queries, keys)
        return matmul(pq, pk.swapaxes(1, 2)) * scale

    def bias_heads(self, queries: tuple[str, ...] | None = None,
                   keys: tuple[str, ...] | None = None) -> Callable[[slice], np.ndarray]:
        """Tape-free: the function of a slice of heads that gives those heads
        of `bias(queries, keys)`, bit for bit. The position tables are
        projected once, here."""
        pq, pk, scale = self._projected(queries, keys)
        pq, pk_t = pq.data, pk.data.swapaxes(1, 2)
        return lambda block: matmul(pq[block], pk_t[block]).data * scale


@lru_cache(maxsize=16)
def _gather_index(layout: SegmentLayout, queries: tuple[str, ...],
                  keys: tuple[str, ...]) -> tuple[np.ndarray, tuple[int, ...]]:
    """Where each (query token, key token) pair of `queries` x `keys` reads
    its relative logit: a flat (L_q, L_k) index into the pair tables of
    those segments, each flattened per head and concatenated in row-major
    pair order, and the table sizes in that order.

    It depends only on the layout, so every layer shares one copy.
    """
    rows, sizes, offset = [], [], 0
    for q in queries:
        hq, wq = layout.grid(q)
        rq, cq = np.divmod(np.arange(hq * wq), wq)
        blocks = []
        for k in keys:
            hk, wk = layout.grid(k)
            rk, ck = np.divmod(np.arange(hk * wk), wk)
            width = wq + wk - 1
            blocks.append(offset + (rq[:, None] - rk[None, :] + hk - 1) * width
                          + (cq[:, None] - ck[None, :] + wk - 1))
            sizes.append((hq + hk - 1) * width)
            offset += sizes[-1]
        rows.append(np.concatenate(blocks, axis=1))
    index = np.concatenate(rows, axis=0)
    index.flags.writeable = False   # one copy serves every caller
    return index, tuple(sizes)


class PairwiseRegionBias(Module):
    """Relative positional logits, one table per ordered segment pair.

    The table for query segment n and key segment m holds one value per head
    per 2-D displacement (row_q - row_k, col_q - col_k), which spans
    (H_n + H_m - 1) x (W_n + W_m - 1) entries. A term over some query and
    key segments is one gather from their concatenated tables through a
    precomputed flat index (`_gather_index`).
    """

    def __init__(self, layout: SegmentLayout, heads: int,
                 rng: np.random.Generator):
        self.layout = layout
        self.heads = heads
        names = layout.names()
        self.pair_names = [(q, k) for q in names for k in names]
        self.tables = []
        for q, k in self.pair_names:
            hq, wq = layout.grid(q)
            hk, wk = layout.grid(k)
            self.tables.append(normal_parameter(rng, heads, hq + hk - 1, wq + wk - 1))

    def table(self, query_seg: str, key_seg: str) -> Tensor:
        return self.tables[self.pair_names.index((query_seg, key_seg))]

    def _flat(self, queries: tuple[str, ...],
              keys: tuple[str, ...]) -> tuple[list[Tensor], np.ndarray]:
        """The pair tables of `queries` x `keys` in row-major pair order, and
        their values flattened per head and concatenated, as `_gather_index`
        indexes them."""
        tables = [self.table(q, k) for q in queries for k in keys]
        return tables, np.concatenate([t.data.reshape(self.heads, -1) for t in tables], axis=1)

    def _gather(self, queries: tuple[str, ...], keys: tuple[str, ...]) -> Tensor:
        """(heads, L_q, L_k) logits of `queries` x `keys` as one tape node.

        The backward sums each head's gradient into its tables with one
        `np.bincount`, which adds in the same order as `np.add.at` on each
        pair's block in turn, so table gradients keep the bits of a
        per-block gather.
        """
        index, sizes = _gather_index(self.layout, queries, keys)
        tables, flat = self._flat(queries, keys)
        out = np.take(flat, index, axis=1)
        if not grad_enabled():
            return Tensor(out)
        flat_index = index.reshape(-1)

        def bwd(g):
            grads = np.stack([np.bincount(flat_index, weights=gh.reshape(-1),
                                          minlength=flat.shape[1]) for gh in g])
            for t, part in zip(tables, np.split(grads, np.cumsum(sizes)[:-1], axis=1)):
                if t.requires_grad:
                    t.accumulate_grad(part.reshape(t.data.shape))

        return Tensor._make(out, tuple(tables), bwd)

    def block(self, query_seg: str, *key_segs: str) -> Tensor:
        """(heads, L_q, L_k) bias of one query segment against the listed key
        segments, concatenated along the key axis in the order given."""
        return self._gather((query_seg,), key_segs)

    def bias(self) -> Tensor:
        """Full (heads, L, L) relative logits assembled from all regions."""
        names = self.layout.names()
        return self._gather(names, names)

    def bias_heads(self, queries: tuple[str, ...],
                   keys: tuple[str, ...]) -> Callable[[slice], np.ndarray]:
        """Tape-free: the function of a slice of heads that gives those heads
        of the (heads, L_q, L_k) logits of `queries` x `keys`, one gather
        each."""
        index, _ = _gather_index(self.layout, queries, keys)
        flat = self._flat(queries, keys)[1]
        return lambda block: np.take(flat[block], index, axis=1)
