"""Tests for the transformer blocks and the cross-frame attention layer."""

import numpy as np
import pytest

from ctxtrack.attention import (
    CrossFrameAttention,
    FeedForward,
    LayerNorm,
    Linear,
    WindowAttentionBlock,
    _PreNormAttention,
    window_partition,
)
from ctxtrack.positional import UntiedPositionBias, segment_layout
from ctxtrack.tensor import Tensor, no_grad, parameter

from reference_attention import reference_block
from reference_ops import (attention_blocks, composite_attend, composite_residual,
                           feed_forward, finite_diff_grad, seeded_root, single_layout,
                           zero_tables)


def rel_err(a, b, floor=1e-6):
    a, b = np.asarray(a), np.asarray(b)
    return np.max(np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), floor))


def zero_positional(layer: CrossFrameAttention) -> None:
    for t in layer.abs_bias.tables:
        t.data[...] = 0.0
    zero_tables(layer.rel_bias)


def toy_layer(seed=0, dim=8, heads=2, keys=None):
    rng = np.random.default_rng(seed)
    layout = segment_layout((1, 1), (2, 2), (2, 2))
    return CrossFrameAttention(layout, dim, heads, rng, keys=keys), layout, rng


# ----------------------------------------------------------------------
# plumbing blocks
# ----------------------------------------------------------------------

def test_linear_shapes_and_bias():
    rng = np.random.default_rng(0)
    lin = Linear(3, 5, rng)
    out = lin(Tensor(np.zeros((4, 3))))
    assert out.shape == (4, 5)
    assert np.array_equal(out.data, np.zeros((4, 5)))  # zero input -> bias (zeros)
    lin2 = Linear(3, 5, rng, bias=False)
    assert "bias" not in lin2.parameters()


def test_layernorm_normalizes():
    rng = np.random.default_rng(1)
    ln = LayerNorm(16)
    x = Tensor(rng.normal(size=(10, 16)) * 3.0 + 2.0)
    out = ln(x).data
    assert np.allclose(out.mean(axis=-1), 0.0, atol=1e-12)
    assert np.allclose(out.var(axis=-1), 1.0, atol=1e-4)


def test_layernorm_gradcheck():
    rng = np.random.default_rng(2)
    ln = LayerNorm(5)
    ln.gamma.data[...] = rng.normal(size=5)
    ln.beta.data[...] = rng.normal(size=5)
    x = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
    weight = rng.normal(size=(3, 5))
    loss = (ln(x) * weight).sum()
    loss.backward()
    fd = finite_diff_grad(lambda _: float((ln(x).data * weight).sum()), x)
    assert rel_err(x.grad, fd) < 1e-6


def test_feedforward_expansion_shapes():
    rng = np.random.default_rng(3)
    ff = FeedForward(8, rng)
    assert ff.fc1.weight.shape == (8, 32)
    assert ff.fc2.weight.shape == (32, 8)
    assert feed_forward(ff, Tensor(rng.normal(size=(6, 8)))).shape == (6, 8)


# ----------------------------------------------------------------------
# window attention
# ----------------------------------------------------------------------

def on_grid(blk, tokens, window=2):
    """blk over one (H, W, C) grid of tokens, flattened and split by a
    single-grid partition into windows of `window` cells a side, returned
    as a grid."""
    h, w, c = tokens.shape
    return blk(tokens.reshape(h * w, c), window_partition(((h, w),), window)).reshape(h, w, c)


def test_window_block_preserves_shape():
    rng = np.random.default_rng(4)
    blk = WindowAttentionBlock(32, 2, rng)
    out = blk(Tensor(rng.normal(size=(16, 32))), window_partition(((4, 4),), 2))
    assert out.shape == (16, 32)


def test_window_block_rejects_indivisible_grid():
    rng = np.random.default_rng(5)
    blk = WindowAttentionBlock(8, 2, rng)
    with pytest.raises(ValueError, match="window"):
        on_grid(blk, Tensor(np.zeros((3, 4, 8))))


def test_window_block_no_cross_window_mixing():
    rng = np.random.default_rng(6)
    blk = WindowAttentionBlock(8, 2, rng)
    base = rng.normal(size=(4, 4, 8))
    bumped = base.copy()
    bumped[0, 0, :] += 1.0  # inside the top-left window
    out_a = on_grid(blk, Tensor(base)).data
    out_b = on_grid(blk, Tensor(bumped)).data
    # every token outside the perturbed 2x2 window is untouched
    mask = np.ones((4, 4), dtype=bool)
    mask[0:2, 0:2] = False
    assert np.array_equal(out_a[mask], out_b[mask])
    assert not np.allclose(out_a[~mask], out_b[~mask])


def test_window_block_full_window_equals_plain_attention():
    rng = np.random.default_rng(7)
    blk = WindowAttentionBlock(8, 2, rng)
    tokens = rng.normal(size=(4, 4, 8))
    out = on_grid(blk, Tensor(tokens), 4).data.reshape(16, 8)
    params = {k: v.data for k, v in blk.parameters().items()}
    ref = reference_block(tokens.reshape(16, 8), params, heads=2,
                          scale=1.0 / np.sqrt(4.0))
    assert np.max(np.abs(out - ref)) <= 1e-12


def test_window_block_each_window_equals_plain_attention():
    rng = np.random.default_rng(23)
    blk = WindowAttentionBlock(8, 2, rng)
    tokens = rng.normal(size=(4, 6, 8))
    out = on_grid(blk, Tensor(tokens)).data
    params = {k: v.data for k, v in blk.parameters().items()}
    for r in range(0, 4, 2):
        for c in range(0, 6, 2):
            ref = reference_block(tokens[r:r + 2, c:c + 2].reshape(4, 8), params,
                                  heads=2, scale=1.0 / np.sqrt(4.0))
            assert np.max(np.abs(out[r:r + 2, c:c + 2].reshape(4, 8) - ref)) <= 1e-12


def test_window_block_over_partition_equals_per_grid_calls():
    rng = np.random.default_rng(24)
    shapes = ((2, 2), (4, 4), (4, 6))
    blk = WindowAttentionBlock(8, 2, rng)
    grids = [rng.normal(size=(h, w, 8)) for h, w in shapes]
    flat = blk(Tensor(np.concatenate([g.reshape(-1, 8) for g in grids])),
               window_partition(shapes, 2)).data
    per_grid = np.concatenate([on_grid(blk, Tensor(g)).data.reshape(-1, 8) for g in grids])
    assert flat.tobytes() == per_grid.tobytes()


def test_window_block_rejects_mismatched_partition():
    rng = np.random.default_rng(25)
    shapes = ((2, 2), (4, 4), (4, 4))
    blk = WindowAttentionBlock(8, 2, rng)
    with pytest.raises(ValueError, match="tokens"):
        blk(Tensor(np.zeros((35, 8))), window_partition(shapes, 2))
    with pytest.raises(ValueError, match="divisible"):
        window_partition(((3, 3), (4, 4), (4, 4)), 2)


def test_window_block_gradcheck():
    rng = np.random.default_rng(8)
    blk = WindowAttentionBlock(4, 2, rng)
    x = Tensor(rng.normal(size=(2, 2, 4)), requires_grad=True)
    weight = rng.normal(size=(2, 2, 4))
    loss = (on_grid(blk, x) * weight).sum()
    loss.backward()
    fd = finite_diff_grad(lambda _: float((on_grid(blk, x).data * weight).sum()), x)
    assert rel_err(x.grad, fd) < 1e-5


# ----------------------------------------------------------------------
# fused sublayers against the composites they replace
# ----------------------------------------------------------------------

def _sublayer_case(name):
    """A layer, an input for it and the call under test, for a window block
    over several grids and over a single grid, the joint layer and its two
    search-query modes."""
    rng = np.random.default_rng(40)
    if name in ("window", "grid"):
        blk = WindowAttentionBlock(8, 2, rng)
        shapes = ((4, 6),) if name == "grid" else ((2, 2), (4, 4), (4, 6))
        windows = window_partition(shapes, 2)
        return blk, rng.normal(size=(windows.order.size, 8)), lambda t: blk(t, windows)
    layer = CrossFrameAttention(segment_layout((1, 1), (2, 2), (2, 3)), 8, 2, rng,
                                keys=None if name == "joint" else name)
    return layer, rng.normal(size=(layer.layout.length, 8)), layer


def _sublayer_run(name):
    """Output, input gradient and every parameter gradient of one taped call
    whose incoming gradient holds -0.0 entries; the input is an op node, so
    its residual and norm gradients sum in the sweep."""
    layer, x0, call = _sublayer_case(name)
    leaf = parameter(x0)
    out = call(leaf * 1.5)
    seed = np.random.default_rng(41).normal(size=out.shape)
    seed[::3] = -0.0
    seeded_root(out, seed).backward()
    return [out.data, leaf.grad] + [p.grad for p in layer.parameters().values()]


@pytest.mark.parametrize("name", ["window", "grid", "joint", "templates", "all"])
def test_fused_sublayers_match_composite_bytes(monkeypatch, name):
    # the forward repeats the composite's float operations; the backward
    # sums each gradient in its own order, within 1e-12 of the largest entry
    fused = _sublayer_run(name)
    monkeypatch.setattr(_PreNormAttention, "attend", composite_attend)
    monkeypatch.setattr(_PreNormAttention, "_residual", composite_residual)
    composite = _sublayer_run(name)
    assert fused[0].shape == composite[0].shape
    assert fused[0].tobytes() == composite[0].tobytes()
    assert len(fused) == len(composite)
    for i, (a, b) in enumerate(zip(fused[1:], composite[1:]), 1):
        assert (a is None) == (b is None), i
        if a is not None:
            assert a.shape == b.shape, i
            assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b)), i


def _tape_nodes(*outs):
    seen, stack = set(), list(outs)
    while stack:
        t = stack.pop()
        if t._parents and id(t) not in seen:
            seen.add(id(t))
            stack.extend(t._parents)
    return seen


def test_taped_block_records_one_node_per_sublayer():
    rng = np.random.default_rng(42)
    blk = WindowAttentionBlock(8, 2, rng)
    out = blk(parameter(rng.normal(size=(16, 8))), window_partition(((4, 4),), 2))
    # norm1, the gather into windows, attention, the scatter back, and
    # the feed-forward sublayer with both residual adds
    assert len(_tape_nodes(out)) == 5
    layer, _, rng = toy_layer()
    out = layer(parameter(rng.normal(size=(9, 8))))
    attn = out._parents[1]
    abs_term, rel_term = attn._parents[3:5]
    # norm1, attention and the feed-forward sublayer, beside the bias terms
    assert len(_tape_nodes(out)) == 3 + len(_tape_nodes(abs_term, rel_term))


# ----------------------------------------------------------------------
# cross-frame attention: full forward
# ----------------------------------------------------------------------

def test_forward_shape_contract():
    layer, layout, rng = toy_layer()
    out = layer(Tensor(rng.normal(size=(9, 8))))
    assert out.shape == (9, 8)
    assert layout.length == 9


def test_forward_rejects_layout_mismatch():
    layer, _, rng = toy_layer()
    with pytest.raises(ValueError, match="layout"):
        layer(Tensor(rng.normal(size=(8, 8))))
    with pytest.raises(ValueError, match="layout"):
        layer(Tensor(rng.normal(size=(9, 4))))


def test_degeneracy_to_vanilla_block():
    """Single segment + zero positional tables reproduces a plain block."""
    rng = np.random.default_rng(9)
    layout = single_layout("search", 3, 3)
    layer = CrossFrameAttention(layout, 8, 2, rng)
    zero_positional(layer)
    tokens = rng.normal(size=(9, 8))
    out = layer(Tensor(tokens)).data
    params = {k: v.data for k, v in layer.parameters().items()}
    ref = reference_block(tokens, params, heads=2, scale=1.0 / np.sqrt(2.0 * 4.0))
    assert np.max(np.abs(out - ref)) <= 1e-12


def test_positional_sensitivity_witness():
    """Identical content at two search positions: equal outputs only when the
    positional tables are zero."""
    layer, layout, rng = toy_layer(seed=10)
    tokens = rng.normal(size=(9, 8))
    s = layout.offset("search")
    tokens[s + 1] = tokens[s + 2]  # same content, different coordinates
    out = layer(Tensor(tokens)).data
    assert not np.allclose(out[s + 1], out[s + 2])
    zero_positional(layer)
    out0 = layer(Tensor(tokens)).data
    # with zero positional terms the two tokens are indistinguishable only in
    # their attention *keys*; their query rows still differ from other tokens'
    # but equal each other, so their outputs coincide exactly
    assert np.allclose(out0[s + 1], out0[s + 2], atol=1e-12)


def test_permutation_equivariance_without_positional_terms():
    layer, layout, rng = toy_layer(seed=11)
    zero_positional(layer)
    tokens = rng.normal(size=(9, 8))
    s = layout.segment_slice("search")
    perm = np.arange(9)
    perm[s] = s.start + np.array([2, 0, 3, 1])
    out = layer(Tensor(tokens)).data
    out_perm = layer(Tensor(tokens[perm])).data
    assert np.allclose(out_perm, out[perm], atol=1e-12)


def test_permutation_equivariance_broken_by_positional_terms():
    layer, layout, rng = toy_layer(seed=12)
    tokens = rng.normal(size=(9, 8))
    s = layout.segment_slice("search")
    perm = np.arange(9)
    perm[s] = s.start + np.array([2, 0, 3, 1])
    out = layer(Tensor(tokens)).data
    out_perm = layer(Tensor(tokens[perm])).data
    assert not np.allclose(out_perm, out[perm])


def test_forward_gradients_match_finite_differences():
    layer, layout, rng = toy_layer(seed=13)
    tokens = Tensor(rng.normal(size=(9, 8)), requires_grad=True)
    weight = rng.normal(size=(9, 8))

    def loss_value(_=None):
        return float((layer(tokens).data * weight).sum())

    loss = (layer(tokens) * weight).sum()
    loss.backward()
    checks = {
        "tokens": tokens,
        "w_query": layer.w_query.weight,
        "u_query": layer.abs_bias.u_query,
        "abs_table_search": layer.abs_bias.tables[2],
        "rel_table": layer.rel_bias.table("search", "previous"),
        "norm1_gamma": layer.norm1.gamma,
        "ff_bias": layer.ff.fc1.bias,
    }
    for name, p in checks.items():
        fd = finite_diff_grad(loss_value, p)
        got = p.grad if p.grad is not None else np.zeros_like(p.data)
        assert rel_err(got, fd) < 1e-3, name


# ----------------------------------------------------------------------
# search-query variant
# ----------------------------------------------------------------------

def test_search_query_shape_contract():
    layer, layout, rng = toy_layer(seed=14, keys="templates")
    out = layer.forward_search_queries(Tensor(rng.normal(size=(9, 8))))
    assert out.shape == (4, 8)


def test_search_query_rejects_bad_key_mode():
    with pytest.raises(ValueError, match="key mode"):
        toy_layer(seed=15, keys="everything")


@pytest.mark.parametrize("keys", [None, "templates", "all"])
def test_layer_runs_only_its_role(keys):
    layer, _, rng = toy_layer(seed=15, keys=keys)
    tokens = Tensor(rng.normal(size=(9, 8)))
    role, other = layer.forward, layer.forward_search_queries
    if keys is not None:
        role, other = other, role
    assert layer(tokens).data.tobytes() == role(tokens).data.tobytes()
    with pytest.raises(ValueError, match="keys="):
        other(tokens)


def test_search_query_uniform_keys_give_uniform_attention():
    layer, layout, rng = toy_layer(seed=16, keys="templates")
    zero_positional(layer)
    tokens = rng.normal(size=(9, 8))
    tokens[0:5] = tokens[0]  # target and previous tokens all identical
    blocks = attention_blocks(layer, Tensor(tokens))
    stacked = np.concatenate(
        [blocks[("search", "target")], blocks[("search", "previous")]], axis=2)
    assert stacked.shape == (2, 4, 5)
    assert np.allclose(stacked, 1.0 / 5.0, atol=1e-12)


def test_search_query_differs_from_full_forward():
    layer, layout, rng = toy_layer(seed=17, keys="templates")
    full_layer, _, _ = toy_layer(seed=17)
    tokens = rng.normal(size=(9, 8))
    restricted = layer(Tensor(tokens)).data
    full = full_layer(Tensor(tokens)).data[layout.segment_slice("search")]
    assert not np.allclose(restricted, full)


def test_search_query_all_keys_mode_differs_from_templates_mode():
    templates, _, rng = toy_layer(seed=18, keys="templates")
    everything, _, _ = toy_layer(seed=18, keys="all")
    # the key set draws nothing, so both layers hold the same weights
    assert all(a.tobytes() == b.tobytes() for a, b in
               zip(templates.state().values(), everything.state().values()))
    tokens = rng.normal(size=(9, 8))
    a = templates(Tensor(tokens)).data
    b = everything(Tensor(tokens)).data
    assert not np.allclose(a, b)


def test_search_query_gradcheck():
    layer, _, rng = toy_layer(seed=19, keys="templates")
    tokens = Tensor(rng.normal(size=(9, 8)), requires_grad=True)
    weight = rng.normal(size=(4, 8))
    loss = (layer.forward_search_queries(tokens) * weight).sum()
    loss.backward()
    fd = finite_diff_grad(
        lambda _: float((layer.forward_search_queries(tokens).data * weight).sum()),
        tokens)
    assert rel_err(tokens.grad, fd) < 1e-3


# ----------------------------------------------------------------------
# attention-blocks view
# ----------------------------------------------------------------------

def test_attention_blocks_shapes():
    layer, _, rng = toy_layer(seed=20)
    blocks = attention_blocks(layer, Tensor(rng.normal(size=(9, 8))))
    assert len(blocks) == 9
    assert blocks[("target", "target")].shape == (2, 1, 1)
    assert blocks[("target", "previous")].shape == (2, 1, 4)
    assert blocks[("search", "search")].shape == (2, 4, 4)


def test_attention_blocks_rows_sum_to_one():
    layer, layout, rng = toy_layer(seed=21)
    blocks = attention_blocks(layer, Tensor(rng.normal(size=(9, 8))))
    for qn in layout.names():
        row = np.concatenate([blocks[(qn, kn)] for kn in layout.names()], axis=2)
        assert np.allclose(row.sum(axis=2), 1.0, atol=1e-9)


def test_attention_blocks_restricted_drops_search_keys():
    layer, _, rng = toy_layer(seed=22, keys="templates")
    blocks = attention_blocks(layer, Tensor(rng.normal(size=(9, 8))))
    assert set(blocks) == {("search", "target"), ("search", "previous")}
    row = np.concatenate([blocks[("search", "target")],
                          blocks[("search", "previous")]], axis=2)
    assert np.allclose(row.sum(axis=2), 1.0, atol=1e-9)


def test_attention_blocks_restricted_all_keys_equal_full_search_rows():
    layer, layout, rng = toy_layer(seed=24)
    search_layer, _, _ = toy_layer(seed=24, keys="all")
    tokens = Tensor(rng.normal(size=(9, 8)))
    full = attention_blocks(layer, tokens)
    restricted = attention_blocks(search_layer, tokens)
    assert set(restricted) == {("search", kn) for kn in layout.names()}
    for key, block in restricted.items():
        assert np.max(np.abs(block - full[key])) <= 1e-12


# ----------------------------------------------------------------------
# bias terms passed in
# ----------------------------------------------------------------------

def test_layer_given_its_terms_builds_none(monkeypatch):
    layer, _, rng = toy_layer(seed=25)
    last, _, _ = toy_layer(seed=25, keys="templates")
    tokens = Tensor(rng.normal(size=(9, 8)))
    with no_grad():
        terms = {each: each.term_heads() for each in (layer, last)}
        own = [layer(tokens), last.forward_search_queries(tokens)]
        # whole terms are the taped form; tape-free, they are refused
        with pytest.raises(ValueError, match="function of a slice of heads"):
            layer(tokens, layer.bias_terms())
    calls = []
    for name in ("bias", "bias_heads"):
        original = getattr(UntiedPositionBias, name)

        def counting(self, *args, _original=original, _name=name):
            calls.append(_name)
            return _original(self, *args)

        monkeypatch.setattr(UntiedPositionBias, name, counting)
    with no_grad():
        given = [layer(tokens, terms[layer]),
                 last.forward_search_queries(tokens, terms[last])]
    assert calls == []
    for out, want in zip(given, own):
        assert out.data.tobytes() == want.data.tobytes()
    # a layer given no terms builds its own: taped, whole, and tape-free,
    # one block of heads at a time from position rows projected once
    taped = layer.bias_terms()
    assert taped[0].requires_grad and calls == ["bias"]
    with no_grad():
        last.forward_search_queries(tokens)
    assert calls == ["bias", "bias_heads"]
