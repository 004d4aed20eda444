"""Full tracking network: staged backbone, neck, and prediction heads.

Three images flow through shared-weight early stages (patch embedding,
windowed local attention, two downsamplings to stride 16). The final
backbone stage alternates per-image local attention with joint layers that
mix all three token sets. Everything before the first joint layer is per
image, so `encode` can compute it once for a template that stays fixed.
The neck stacks more joint layers, injecting the previous-frame box into
the previous-template tokens once at entry, and ends with a layer where
only search tokens act as queries. The heads turn the resulting search
features into per-position scores and box distances.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .attention import CrossFrameAttention, WindowAttentionBlock
from .backbone import Box, BoxEmbedding, Downsample, PatchEmbed, gaussian_map, ltrb_map
from .heads import HeadOutputs, Heads
from .positional import SegmentLayout, segment_layout
from .tensor import Module, Tensor, concat

STRIDE = 16


class Encoded(NamedTuple):
    """One image's (H, W, d) token grid at stride 16, after the early
    stages and the first local block pair of the last backbone stage."""

    grid: Tensor


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

    def validate(self) -> "ModelSpec":
        for name in ("target_size", "search_size"):
            size = getattr(self, name)
            if size < STRIDE or size % STRIDE:
                raise ValueError(f"{name} must be a positive multiple of {STRIDE}")
        for name in ("channels", "n1", "n2", "n3", "heads", "window"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        if self.channels % self.heads:
            raise ValueError(
                f"channels {self.channels} not divisible by heads {self.heads}")
        for size in (self.target_size, self.search_size):
            for stride in (4, 8, STRIDE):
                if (size // stride) % self.window:
                    raise ValueError(
                        f"window {self.window} does not divide the "
                        f"{size // stride}-wide grid at stride {stride}")
        if self.final_keys not in ("templates", "all"):
            raise ValueError(f"unknown final_keys mode: {self.final_keys!r}")
        return self


def toy_spec(**overrides) -> ModelSpec:
    return replace(ModelSpec(), **overrides).validate()


def small_spec(**overrides) -> ModelSpec:
    base = ModelSpec(target_size=112, search_size=224, channels=96,
                     n1=3, n2=2, n3=4, heads=6, window=7)
    return replace(base, **overrides).validate()


class TrackerNet(Module):
    """Backbone + neck + heads with weights shared across the three images."""

    def __init__(self, spec: ModelSpec, rng: np.random.Generator):
        spec.validate()
        self.spec = spec
        c, d, h = spec.channels, spec.dim, spec.heads
        t16 = spec.target_size // STRIDE
        s16 = spec.search_size // STRIDE
        self.layout = segment_layout((t16, t16), (s16, s16), (s16, s16))

        self.patch = PatchEmbed(c, rng)
        pairs1 = (spec.n2 + 1) // 2
        pairs2 = spec.n2 // 2
        self.stage1 = [WindowAttentionBlock(c, h, spec.window, rng)
                       for _ in range(2 * pairs1)]
        self.down1 = Downsample(c, rng)
        self.stage2 = [WindowAttentionBlock(2 * c, h, spec.window, rng)
                       for _ in range(2 * pairs2)]
        self.down2 = Downsample(2 * c, rng)
        self.stage3_local = [WindowAttentionBlock(d, h, spec.window, rng)
                             for _ in range(2 * spec.n1)]
        self.stage3_joint = [CrossFrameAttention(self.layout, d, h, rng)
                             for _ in range(spec.n1)]

        self.box_embed = BoxEmbedding(d, rng)
        self.neck_full = [CrossFrameAttention(self.layout, d, h, rng)
                          for _ in range(spec.n3 - 1)]
        self.neck_last = CrossFrameAttention(self.layout, d, h, rng)
        self.head = Heads(d, rng)

    # ------------------------------------------------------------------
    # backbone
    # ------------------------------------------------------------------
    def encode(self, image) -> Encoded:
        """Features of one image up to the first joint layer.

        A template that does not change between frames can be encoded once
        and passed to `forward` in place of its image.
        """
        if not isinstance(image, Tensor):
            image = Tensor(np.asarray(image))
        t = self.patch(image)
        for blk in self.stage1:
            t = blk(t)
        t = self.down1(t)
        for blk in self.stage2:
            t = blk(t)
        t = self.down2(t)
        for blk in self.stage3_local[0:2]:
            t = blk(t)
        return Encoded(t)

    def _flatten(self, grids: list[Tensor]) -> Tensor:
        return concat([g.reshape(-1, self.spec.dim) for g in grids], axis=0)

    def _split(self, tokens: Tensor) -> list[Tensor]:
        out = []
        for name in self.layout.names():
            h, w = self.layout.grid(name)
            out.append(tokens[self.layout.segment_slice(name)].reshape(h, w, self.spec.dim))
        return out

    def backbone_forward(self, target, previous, search, joint: bool = True,
                         taps: list | None = None) -> Tensor:
        """Token sequence (L, d) at stride 16 for the three input images.

        Each input is an image or its `encode` output. With joint=False the
        mixing layers are skipped, leaving three independent per-image
        pipelines (ablation mode). A list passed as `taps` receives a copy
        of the token values after each joint layer.
        """
        grids = [(x if isinstance(x, Encoded) else self.encode(x)).grid
                 for x in (target, previous, search)]
        for g in range(self.spec.n1):
            if g:   # `encode` ran the first local pair
                for blk in self.stage3_local[2 * g: 2 * g + 2]:
                    grids = [blk(t) for t in grids]
            if joint:
                tokens = self.stage3_joint[g](self._flatten(grids))
                if taps is not None:
                    taps.append(tokens.data.copy())
                grids = self._split(tokens)
        return self._flatten(grids)

    # ------------------------------------------------------------------
    # neck and heads
    # ------------------------------------------------------------------
    def neck_forward(self, tokens: Tensor, prev_box: Box | None = None,
                     collect: list | None = None,
                     taps: list | None = None) -> Tensor:
        """Search feature map (H, W, d) after the joint refinement stack.

        prev_box, when given, is the previous-frame box in pixel
        coordinates of the previous-template image; it enters the
        previous-template tokens once, here at neck entry. A list passed
        as `collect` receives each layer's post-softmax attention blocks;
        one passed as `taps` receives token values after each full layer.
        """
        if prev_box is not None:
            grid = self.layout.grid("previous")
            emb = self.box_embed(gaussian_map(prev_box, grid, STRIDE),
                                 ltrb_map(prev_box, grid, STRIDE))
            parts = self._split(tokens)
            parts[1] = parts[1] + emb
            tokens = self._flatten(parts)
        for layer in self.neck_full:
            if collect is not None:
                collect.append(layer.attention_blocks(tokens))
            tokens = layer(tokens)
            if taps is not None:
                taps.append(tokens.data.copy())
        if collect is not None:
            collect.append(self.neck_last.attention_blocks(
                tokens, restricted=True, keys=self.spec.final_keys))
        out = self.neck_last.forward_search_queries(tokens, keys=self.spec.final_keys)
        h, w = self.layout.grid("search")
        return out.reshape(h, w, self.spec.dim)

    @contextmanager
    def reused_bias_terms(self):
        """Hold every joint layer's position-bias terms inside the block.

        The terms depend only on the weights, so each tape-free forward in
        the block reuses one copy per layer instead of rebuilding them; a
        taped forward still builds its own. The weights must not change in
        the block. The terms are dropped on exit.
        """
        layers = [(layer, None) for layer in self.stage3_joint + self.neck_full]
        layers.append((self.neck_last, self.spec.final_keys))
        try:
            for layer, keys in layers:
                layer.hold_bias_terms(keys)
            yield
        finally:
            for layer, _ in layers:
                layer.release_bias_terms()

    def forward(self, target, previous, search, prev_box: Box | None = None,
                collect: list | None = None, taps: list | None = None,
                joint: bool = True) -> HeadOutputs:
        tokens = self.backbone_forward(target, previous, search, joint=joint,
                                       taps=taps)
        features = self.neck_forward(tokens, prev_box, collect, taps=taps)
        return self.head(features)

    def __call__(self, *args, **kwargs) -> HeadOutputs:
        return self.forward(*args, **kwargs)
