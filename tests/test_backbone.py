"""Tests for patch embedding, downsampling, and the box-derived maps."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ctxtrack.backbone import (
    BoxEmbedding,
    Downsample,
    PatchEmbed,
    gaussian_map,
    ltrb_map,
)
from ctxtrack.tensor import Tensor

from reference_ops import finite_diff_grad, grid_downsample, grid_patch_embed


def rel_err(a, b, floor=1e-6):
    a, b = np.asarray(a), np.asarray(b)
    return np.max(np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), floor))


# ----------------------------------------------------------------------
# patch embedding
# ----------------------------------------------------------------------

def test_patch_embed_shape():
    rng = np.random.default_rng(0)
    pe = PatchEmbed(16, rng)
    out = pe([Tensor(rng.random((64, 64, 3)))])
    assert out.shape == (16 * 16, 16)


def test_patch_embed_large_shape():
    rng = np.random.default_rng(1)
    pe = PatchEmbed(96, rng)
    out = pe([Tensor(np.zeros((224, 224, 3)))])
    assert out.shape == (56 * 56, 96)


def test_patch_embed_constant_image_gives_identical_tokens():
    rng = np.random.default_rng(2)
    pe = PatchEmbed(8, rng)
    out = pe([Tensor(np.full((32, 32, 3), 0.37))]).data
    assert np.allclose(out, out[0], atol=1e-15)


def test_patch_embed_rejects_indivisible_size():
    rng = np.random.default_rng(3)
    pe = PatchEmbed(8, rng)
    with pytest.raises(ValueError, match="divisible"):
        pe([Tensor(np.zeros((30, 32, 3)))])
    with pytest.raises(ValueError, match="image"):
        pe([Tensor(np.zeros((32, 32, 4)))])


def test_patch_embed_picks_up_patch_content():
    rng = np.random.default_rng(4)
    pe = PatchEmbed(8, rng)
    img = np.zeros((16, 16, 3))
    img[4:8, 8:12, :] = 1.0  # exactly patch (1, 2)
    out = pe([Tensor(img)]).data
    base = pe([Tensor(np.zeros((16, 16, 3)))]).data
    diff = np.abs(out - base).sum(axis=-1).reshape(4, 4)
    assert diff[1, 2] > 0
    diff[1, 2] = 0
    assert np.all(diff == 0)


# ----------------------------------------------------------------------
# downsampling
# ----------------------------------------------------------------------

def test_downsample_shape():
    rng = np.random.default_rng(5)
    ds = Downsample(16, rng)
    out = ds(Tensor(rng.random((16 * 16, 16))), ((16, 16),))
    assert out.shape == (8 * 8, 32)


def test_downsample_twice_reaches_quadruple_channels():
    rng = np.random.default_rng(6)
    ds1, ds2 = Downsample(8, rng), Downsample(16, rng)
    out = ds2(ds1(Tensor(rng.random((16 * 16, 8))), ((16, 16),)), ((8, 8),))
    assert out.shape == (4 * 4, 32)


def test_downsample_constant_input_gives_constant_output():
    rng = np.random.default_rng(7)
    ds = Downsample(8, rng)
    out = ds(Tensor(np.full((8 * 8, 8), 1.3)), ((8, 8),)).data
    assert np.allclose(out, out[0], atol=1e-15)


def test_downsample_rejects_odd_grid():
    rng = np.random.default_rng(8)
    ds = Downsample(8, rng)
    with pytest.raises(ValueError, match="even"):
        ds(Tensor(np.zeros((7 * 8, 8))), ((7, 8),))


# ----------------------------------------------------------------------
# the flat forms' shape guards
# ----------------------------------------------------------------------

def test_flat_forms_reject_a_row_count_that_is_not_the_grids_cells():
    rng = np.random.default_rng(15)
    ds = Downsample(8, rng)
    for rows in (63, 65, 2 * 64):
        with pytest.raises(ValueError, match="rows"):
            ds(Tensor(np.zeros((rows, 8))), ((8, 8),))
    # an image's rows are its cells only in (H, W, 3) form
    with pytest.raises(ValueError, match="image"):
        PatchEmbed(8, rng)([Tensor(np.zeros((32 * 32, 3)))])


def test_flat_forms_reject_a_width_that_is_not_the_channels():
    rng = np.random.default_rng(16)
    with pytest.raises(ValueError, match="width"):
        Downsample(8, rng)(Tensor(np.zeros((64, 4))), ((8, 8),))
    with pytest.raises(ValueError, match="width"):
        Downsample(8, rng)(Tensor(np.zeros((8, 8, 8))), ((8, 8),))
    pe = PatchEmbed(8, rng)
    for channels in (1, 4):
        with pytest.raises(ValueError, match="image"):
            pe([Tensor(np.zeros((32, 32, 3))), Tensor(np.zeros((32, 32, channels)))])


def test_flat_forms_reject_a_side_that_does_not_divide():
    rng = np.random.default_rng(17)
    with pytest.raises(ValueError, match="even"):
        Downsample(8, rng)(Tensor(np.zeros((16 + 8 * 3, 8))), ((4, 4), (8, 3)))
    with pytest.raises(ValueError, match="divisible"):
        PatchEmbed(8, rng)([Tensor(np.zeros((32, 32, 3))), Tensor(np.zeros((32, 30, 3)))])


# ----------------------------------------------------------------------
# the flat forms against the per-grid reference
# ----------------------------------------------------------------------

def close(a, b):
    """Within 1e-12 of b's largest entry."""
    return np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))


@settings(max_examples=60, deadline=None)
@given(cells=st.lists(st.tuples(st.integers(1, 4), st.integers(1, 4)), min_size=1, max_size=3),
       size=st.sampled_from([2, 4]), seed=st.integers(0, 2 ** 16))
def test_flat_merge_matches_per_grid_reference(cells, size, seed):
    # size 4 is the patch embedding of images, size 2 the downsampling of
    # 4-wide tokens; each grid is cells[i] merged neighbourhoods
    rng = np.random.default_rng(seed)
    grids = tuple((h * size, w * size) for h, w in cells)
    module = PatchEmbed(8, rng) if size == 4 else Downsample(4, rng)
    width = 3 if size == 4 else 4
    arrays = [rng.normal(size=(h, w, width)) for h, w in grids]
    grid_inputs = [Tensor(a, requires_grad=True) for a in arrays]
    if size == 4:
        flat_inputs = [Tensor(a, requires_grad=True) for a in arrays]
        out = module(flat_inputs)
        reference = [grid_patch_embed(module, x) for x in grid_inputs]
    else:
        flat_inputs = [Tensor(np.concatenate([a.reshape(-1, width) for a in arrays]),
                              requires_grad=True)]
        out = module(flat_inputs[0], grids)
        reference = [grid_downsample(module, x) for x in grid_inputs]

    weight = rng.normal(size=out.shape)
    flat_weights = module.parameters()
    (out * Tensor(weight)).sum().backward()
    flat_grads = {name: p.grad for name, p in flat_weights.items()}
    input_grads = [x.grad for x in flat_inputs]
    for p in flat_weights.values():
        p.grad = None
    ends = np.cumsum([r.shape[0] * r.shape[1] for r in reference])
    loss = sum((r * Tensor(weight[e - r.shape[0] * r.shape[1]:e].reshape(r.shape))).sum()
               for r, e in zip(reference, ends))
    loss.backward()

    want = np.concatenate([r.data.reshape(-1, r.shape[-1]) for r in reference])
    want_input = [x.grad for x in grid_inputs]
    if size == 2:
        want_input = [np.concatenate([g.reshape(-1, width) for g in want_input])]
    # the per-grid form projects each row of merged cells with its own
    # product; a 1-wide row is a vector product, whose BLAS kernel sums in
    # another order than the matrix product the flat form runs
    exact = all(w > 1 for _, w in cells)
    for got, ref in [(out.data, want), *zip(input_grads, want_input)]:
        assert got.tobytes() == ref.tobytes() if exact else close(got, ref)
    for name, p in flat_weights.items():
        assert close(flat_grads[name], p.grad), name


# ----------------------------------------------------------------------
# ltrb map
# ----------------------------------------------------------------------

def test_ltrb_map_worked_example():
    out = ltrb_map((32, 16, 96, 80), (8, 8))
    # row k_y=3, col k_x=4
    assert np.allclose(out[3, 4], (2.0, 2.0, 2.0, 2.0))


def test_ltrb_map_zero_at_box_corner():
    out = ltrb_map((32, 16, 96, 80), (8, 8))
    # grid position exactly at the box top-left: col 2, row 1
    l, t, _, _ = out[1, 2]
    assert l == 0.0 and t == 0.0


def test_ltrb_map_channel_sums_constant():
    out = ltrb_map((32, 16, 96, 80), (8, 8))
    assert np.allclose(out[..., 0] + out[..., 2], 4.0)   # box width / stride
    assert np.allclose(out[..., 1] + out[..., 3], 4.0)   # box height / stride


def test_ltrb_map_rejects_degenerate_box():
    with pytest.raises(ValueError, match="degenerate"):
        ltrb_map((10, 10, 10, 20), (4, 4))
    with pytest.raises(ValueError, match="degenerate"):
        ltrb_map((10, 30, 20, 20), (4, 4))


# ----------------------------------------------------------------------
# gaussian map
# ----------------------------------------------------------------------

def test_gaussian_peak_is_one_at_center_token():
    out = gaussian_map((0, 0, 64, 64), (4, 4))
    assert out.shape == (4, 4, 1)
    assert out[2, 2, 0] == 1.0


def test_gaussian_symmetry_about_center():
    out = gaussian_map((0, 0, 64, 64), (4, 4))[..., 0]
    assert out[1, 2] == out[3, 2] == out[2, 1] == out[2, 3]


def test_gaussian_one_sigma_value():
    # box 64 px wide at stride 16: sigma = 64 / 64 = 1 grid unit, center (2,2)
    out = gaussian_map((0, 0, 64, 64), (4, 4))[..., 0]
    assert np.isclose(out[2, 3], np.exp(-0.5), atol=1e-12)


def test_gaussian_values_in_unit_interval():
    rng = np.random.default_rng(9)
    for _ in range(20):
        x1, y1 = rng.uniform(0, 30, size=2)
        bw, bh = rng.uniform(4, 30, size=2)
        out = gaussian_map((x1, y1, x1 + bw, y1 + bh), (4, 4))
        assert np.all(out > 0.0) and np.all(out <= 1.0)
        assert out.max() == 1.0


def test_gaussian_rejects_degenerate_box():
    with pytest.raises(ValueError, match="degenerate"):
        gaussian_map((5, 5, 5, 10), (4, 4))


# ----------------------------------------------------------------------
# box embedding
# ----------------------------------------------------------------------

BOX = (16, 16, 48, 48)


def test_box_embedding_shape():
    rng = np.random.default_rng(10)
    emb = BoxEmbedding(32, (4, 4), rng)
    assert emb(BOX).shape == (4 * 4, 32)


def test_box_embedding_zeroed_is_zero():
    rng = np.random.default_rng(11)
    emb = BoxEmbedding(16, (4, 4), rng)
    emb.weight.data[...] = 0.0
    emb.fc2.weight.data[...] = 0.0
    emb.fc2.bias.data[...] = 0.0
    assert np.array_equal(emb(BOX).data, np.zeros((4 * 4, 16)))


def test_box_embedding_weight_term_peaks_at_gaussian_peak():
    rng = np.random.default_rng(12)
    emb = BoxEmbedding(16, (4, 4), rng)
    emb.fc2.weight.data[...] = 0.0  # isolate the gaussian-weighted term
    emb.fc2.bias.data[...] = 0.0
    out = np.abs(emb(BOX).data).reshape(4, 4, 16)
    g = gaussian_map(BOX, (4, 4))
    peak = np.unravel_index(np.argmax(g[..., 0]), g.shape[:2])
    for c in range(16):
        assert out[..., c].max() == out[peak[0], peak[1], c]


def test_box_embedding_gradcheck():
    rng = np.random.default_rng(14)
    emb = BoxEmbedding(8, (4, 4), rng)
    weight = rng.normal(size=(4 * 4, 8))
    loss = (emb(BOX) * weight).sum()
    loss.backward()
    for p in (emb.weight, emb.fc1.weight, emb.fc2.bias):
        fd = finite_diff_grad(lambda _: float((emb(BOX).data * weight).sum()), p)
        assert rel_err(p.grad, fd) < 1e-5
