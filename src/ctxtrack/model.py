"""Full tracking network: staged backbone, neck, and prediction heads.

Tokens are one flat sequence from the pixels to the neck: the row-major
cells of each image's grid, one image after another. Three images flow
through shared-weight early stages (patch embedding, windowed local
attention, two downsamplings to stride 16), each layer run once over all
of them, into a final backbone stage that alternates window attention,
local to each image, with joint layers that mix all three. Everything
before the first joint layer is per image: `encode(images, box)` computes
it in one pass over a list of images, with the embedding of the previous
template's box when given, and `forward(*encoded)` runs the rest on
encodings whose rows hold the target, previous and search images in that
order. A template that stays fixed is thus encoded once, and `bias_terms`
gives once the functions that build the joint layers' weight-only terms.
The neck stacks more joint layers, adding the box embedding to the
previous-template rows once at entry, and ends with a layer where only
search tokens act as queries. Its rows, shaped into the search grid plus a
fixed sine embedding of each cell's position, go to the heads, which give
per-position scores and box distances.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

from .attention import CrossFrameAttention, WindowAttentionBlock, window_partition
from .backbone import BoxEmbedding, Downsample, PatchEmbed
from .errors import ConfigError
from .heads import HeadOutputs, Heads
from .imageops import STRIDE, Box
from .positional import segment_layout, sine_embedding
from .tensor import Module, Tensor, concat, grad_enabled, no_grad


class Encoded(NamedTuple):
    """The flat (L, d) tokens of one or more images, each image's stride-16
    grid in row-major order, one after another, after the early stages and
    the first local block pair of the last backbone stage; and, when the
    previous template was encoded with its box, that box's embedding, one
    row per previous-template cell."""

    tokens: Tensor
    box: Tensor | None = None


@dataclass(frozen=True)
class ModelSpec:
    """Structural knobs of the network; defaults give the toy scale."""

    target_size: int = 32
    search_size: int = 64
    channels: int = 8
    n1: int = 3          # joint groups in the last backbone stage
    n2: int = 2          # local block pairs across the two early stages
    n3: int = 4          # neck depth; the last layer is search-query only
    heads: int = 2
    window: int = 2
    final_keys: str = "templates"

    @property
    def dim(self) -> int:
        return 4 * self.channels

    def __post_init__(self) -> None:
        for name in ("target_size", "search_size"):
            size = getattr(self, name)
            if size < STRIDE or size % STRIDE:
                raise ConfigError(f"{name} must be a positive multiple of {STRIDE}")
        for name in ("channels", "n1", "n2", "n3", "heads", "window"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be at least 1")
        if self.channels % self.heads:
            raise ConfigError(
                f"channels {self.channels} not divisible by heads {self.heads}")
        for size in (self.target_size, self.search_size):
            for stride in (4, 8, STRIDE):
                if (size // stride) % self.window:
                    raise ConfigError(
                        f"window {self.window} does not divide the "
                        f"{size // stride}-wide grid at stride {stride}")
        if self.final_keys not in ("templates", "all"):
            raise ConfigError(f"unknown final_keys mode: {self.final_keys!r}")


def toy_spec(**overrides) -> ModelSpec:
    return replace(ModelSpec(), **overrides)


def small_spec(**overrides) -> ModelSpec:
    base = ModelSpec(target_size=112, search_size=224, channels=96,
                     n1=3, n2=2, n3=4, heads=6, window=7)
    return replace(base, **overrides)


class TrackerNet(Module):
    """Backbone + neck + heads with weights shared across the three images."""

    def __init__(self, spec: ModelSpec, rng: np.random.Generator):
        self.spec = spec
        c, d, h = spec.channels, spec.dim, spec.heads
        t16 = spec.target_size // STRIDE
        s16 = spec.search_size // STRIDE
        self.layout = segment_layout((t16, t16), (s16, s16), (s16, s16))
        self.windows = window_partition(tuple((h, w) for _, h, w in self.layout.segments),
                                        spec.window)

        self.patch = PatchEmbed(c, rng)
        pairs1 = (spec.n2 + 1) // 2
        pairs2 = spec.n2 // 2
        self.stage1 = [WindowAttentionBlock(c, h, rng) for _ in range(2 * pairs1)]
        self.down1 = Downsample(c, rng)
        self.stage2 = [WindowAttentionBlock(2 * c, h, rng) for _ in range(2 * pairs2)]
        self.down2 = Downsample(2 * c, rng)
        self.stage3_local = [WindowAttentionBlock(d, h, rng) for _ in range(2 * spec.n1)]
        self.stage3_joint = [CrossFrameAttention(self.layout, d, h, rng)
                             for _ in range(spec.n1)]

        self.box_embed = BoxEmbedding(d, self.layout.grid("previous"), rng)
        self.neck_full = [CrossFrameAttention(self.layout, d, h, rng)
                          for _ in range(spec.n3 - 1)]
        self.neck_last = CrossFrameAttention(self.layout, d, h, rng, keys=spec.final_keys)
        self.head = Heads(d, rng)

    # ------------------------------------------------------------------
    # backbone
    # ------------------------------------------------------------------
    def encode(self, images, box: Box | None = None) -> Encoded:
        """Features of a list of images up to the first joint layer, from
        one pass: the patch embedding, each window block and each
        downsampling run once over the flat tokens of every image. `box`,
        when given, is the previous template's box, and its embedding rides
        along.

        A template that does not change between frames can be encoded once
        and passed to `forward` again and again.
        """
        tokens = self.patch(images)
        p = PatchEmbed.patch
        grids = tuple((h // p, w // p) for h, w, _ in map(np.shape, images))
        for blocks, down in ((self.stage1, self.down1), (self.stage2, self.down2),
                             (self.stage3_local[0:2], None)):
            windows = window_partition(grids, self.spec.window)
            for blk in blocks:
                tokens = blk(tokens, windows)
            if down is not None:
                tokens = down(tokens, grids)
                grids = tuple((h // 2, w // 2) for h, w in grids)
        return Encoded(tokens, None if box is None else self.box_embed(box))

    @no_grad()
    def bias_terms(self) -> dict[CrossFrameAttention, Callable]:
        """Every joint layer's `term_heads()`, by layer: the function that
        builds its weight-only position terms one block of heads at a time,
        the very one the layer builds for itself when given none. One map
        serves every tape-free forward until the weights change."""
        return {layer: layer.term_heads()
                for layer in [*self.stage3_joint, *self.neck_full, self.neck_last]}

    def backbone_forward(self, *inputs: Encoded, trace: list | None = None,
                         bias_terms=None) -> Tensor:
        """Token sequence (L, d) at stride 16 of `encode` outputs whose rows
        hold the target, previous and search images, in that order.

        A list passed as `trace` receives the output tokens of each joint
        layer; `bias_terms` is as in `forward`.
        """
        tokens = concat([x.tokens for x in inputs])
        terms = bias_terms or {}
        for g, layer in enumerate(self.stage3_joint):
            if g:   # `encode` ran the first local pair
                for blk in self.stage3_local[2 * g: 2 * g + 2]:
                    tokens = blk(tokens, self.windows)
            tokens = layer(tokens, terms.get(layer))
            if trace is not None:
                trace.append(tokens)
        return tokens

    # ------------------------------------------------------------------
    # neck and heads
    # ------------------------------------------------------------------
    def neck_forward(self, tokens: Tensor, box: Tensor | None = None,
                     trace: list | None = None, bias_terms=None) -> Tensor:
        """Search feature map (H, W, d) for the heads: the output of the
        joint refinement stack plus `sine_embedding` of the search grid.

        box, when given, is the previous template's box embedding; it is
        added to the previous-template rows once, here at neck entry, as one
        sum with the box padded by zero rows. A list passed as `trace`
        receives the output tokens of each full layer; `bias_terms` is as in
        `forward`.
        """
        if box is not None:
            rows, d = self.layout.segment_slice("previous"), self.spec.dim
            tokens = tokens + concat([Tensor(np.zeros((rows.start, d))), box,
                                      Tensor(np.zeros((self.layout.length - rows.stop, d)))])
        terms = bias_terms or {}
        for layer in self.neck_full:
            tokens = layer(tokens, terms.get(layer))
            if trace is not None:
                trace.append(tokens)
        out = self.neck_last(tokens, terms.get(self.neck_last))
        grid = self.layout.grid("search")
        return out.reshape(*grid, self.spec.dim) + sine_embedding(grid, self.spec.dim)

    def forward(self, *inputs: Encoded, trace: list | None = None,
                bias_terms=None) -> HeadOutputs:
        """Head outputs for `encode` outputs whose rows hold the target,
        previous and search images, in that order; the previous-frame box
        enters only as the embedding that the previous template was encoded
        with. `bias_terms`, when given, is the output of `bias_terms()`,
        which a tape-free forward uses in place of building its own; a taped
        forward builds its own, so that the bias tables get gradients. A
        list passed as `trace` receives the output tokens of every full
        cross-frame layer: the joint backbone layers, then the full neck
        layers.
        """
        if bias_terms is not None and grad_enabled():
            raise ValueError("a taped forward builds its own bias terms")
        boxes = [x.box for x in inputs if x.box is not None]
        if len(boxes) > 1:
            raise ValueError(f"{len(boxes)} inputs carry a box embedding; only the "
                             "previous template's may")
        tokens = self.backbone_forward(*inputs, trace=trace, bias_terms=bias_terms)
        del inputs   # concatenated into `tokens`; the neck does not need them
        features = self.neck_forward(tokens, boxes[0] if boxes else None, trace, bias_terms)
        return self.head(features)

    def __call__(self, *args, **kwargs) -> HeadOutputs:
        return self.forward(*args, **kwargs)
