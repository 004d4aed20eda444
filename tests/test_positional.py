import numpy as np
import pytest

from ctxtrack.positional import (PairwiseRegionBias, UntiedPositionBias, _gather_index,
                                 segment_layout)
from ctxtrack.tensor import Tensor, concat

from reference_ops import coords, single_layout, zero_tables


def brute_force_relative_bias(bias: PairwiseRegionBias) -> np.ndarray:
    """Per-pair (segment, displacement) lookup over all L^2 token pairs."""
    layout = bias.layout
    L = layout.length
    out = np.zeros((bias.heads, L, L))
    for i in range(L):
        seg_i, ri, ci = coords(layout, i)
        for j in range(L):
            seg_j, rj, cj = coords(layout, j)
            table = bias.table(seg_i, seg_j).data
            hk, wk = layout.grid(seg_j)
            out[:, i, j] = table[:, ri - rj + hk - 1, ci - cj + wk - 1]
    return out


# ----------------------------------------------------------------------
# layout
# ----------------------------------------------------------------------

def assert_slices_tile(lay):
    """`segment_slice` ranges tile range(lay.length) in `names()` order,
    and each index lies in the slice of the segment `coords` names."""
    stop = 0
    for name in lay.names():
        s = lay.segment_slice(name)
        assert s.start == stop and s.stop > s.start and s.step is None
        stop = s.stop
    assert stop == lay.length
    for i in range(lay.length):
        s = lay.segment_slice(coords(lay, i)[0])
        assert s.start <= i < s.stop


def test_layout_small_enumeration():
    lay = segment_layout((1, 1), (2, 2), (2, 2))
    assert lay.length == 9
    assert coords(lay, 0) == ("target", 0, 0)
    assert coords(lay, 1) == ("previous", 0, 0)
    assert coords(lay, 4) == ("previous", 1, 1)
    assert coords(lay, 5) == ("search", 0, 0)
    assert_slices_tile(lay)


def test_layout_stride16_full_scale():
    lay = segment_layout((7, 7), (14, 14), (14, 14))
    assert lay.length == 49 + 196 + 196 == 441


def test_layout_single_segment():
    lay = single_layout("search", 1, 1)
    assert lay.length == 1
    assert coords(lay, 0) == ("search", 0, 0)
    assert_slices_tile(lay)


def test_layout_rejects_zero_grid():
    with pytest.raises(ValueError):
        segment_layout((0, 1), (2, 2), (2, 2))


def test_layout_coords_bijective():
    lay = segment_layout((2, 3), (3, 2), (4, 4))
    seen = set()
    for i in range(lay.length):
        seg, r, c = coords(lay, i)
        assert lay.offset(seg) + r * lay.grid(seg)[1] + c == i
        seen.add((seg, r, c))
    assert len(seen) == lay.length
    assert_slices_tile(lay)


# ----------------------------------------------------------------------
# untied absolute bias
# ----------------------------------------------------------------------

def test_untied_bias_zero_tables_give_zero():
    lay = segment_layout((1, 1), (2, 2), (2, 2))
    bias = UntiedPositionBias(lay, dim=8, heads=2, rng=np.random.default_rng(0))
    for t in bias.tables:
        t.data[...] = 0.0
    assert np.array_equal(bias.bias().data, np.zeros((2, 9, 9)))


def test_untied_bias_scalar_closed_form():
    lay = single_layout("search", 1, 1)
    bias = UntiedPositionBias(lay, dim=1, heads=1, rng=np.random.default_rng(0))
    c, u, v = 0.7, 1.3, -0.4
    bias.tables[0].data[...] = c
    bias.u_query.data[...] = u
    bias.u_key.data[...] = v
    assert abs(bias.bias().data[0, 0, 0] - c * c * u * v / np.sqrt(2.0)) < 1e-15


def test_untied_bias_not_symmetric():
    lay = segment_layout((1, 1), (2, 2), (2, 2))
    bias = UntiedPositionBias(lay, dim=8, heads=2, rng=np.random.default_rng(1))
    a = bias.bias().data
    assert not np.allclose(a, a.transpose(0, 2, 1))


@pytest.mark.parametrize("keys", [("target", "previous"), ("target", "previous", "search")])
def test_untied_bias_search_rows_match_full_term(keys):
    # the search-query layer's term: search rows against the key segments,
    # on grids of three different non-square shapes
    lay = segment_layout((2, 3), (3, 4), (4, 2))
    rows = lay.segment_slice("search")
    cols = slice(0, lay.segment_slice(keys[-1]).stop)

    def run(build):
        bias = UntiedPositionBias(lay, dim=6, heads=3, rng=np.random.default_rng(12))
        out = build(bias)
        c = np.random.default_rng(13).normal(size=out.shape)
        (out * Tensor(c)).sum().backward()
        return out.data, [p.grad for p in (*bias.tables, bias.u_query, bias.u_key)]

    got, got_grads = run(lambda b: b.bias(("search",), keys))
    want, want_grads = run(lambda b: b.bias()[:, rows, cols])
    assert got.shape == want.shape == (3, 8, cols.stop)
    for g, w in zip([got, *got_grads], [want, *want_grads]):
        assert np.abs(g - w).max() <= 1e-12 * np.abs(w).max()


def test_untied_bias_rejects_bad_head_split():
    lay = segment_layout((1, 1), (2, 2), (2, 2))
    with pytest.raises(ValueError, match="divisible"):
        UntiedPositionBias(lay, dim=7, heads=2, rng=np.random.default_rng(0))


# ----------------------------------------------------------------------
# pairwise relative bias
# ----------------------------------------------------------------------

def test_region_table_sizes():
    lay = segment_layout((1, 1), (2, 2), (2, 2))
    bias = PairwiseRegionBias(lay, heads=1, rng=np.random.default_rng(2))
    assert bias.table("target", "target").data.shape == (1, 1, 1)
    assert bias.table("target", "previous").data.shape == (1, 2, 2)
    assert bias.table("previous", "previous").data.shape == (1, 3, 3)


def test_region_bias_zero_tables_give_zero():
    lay = segment_layout((1, 1), (2, 2), (2, 2))
    bias = PairwiseRegionBias(lay, heads=2, rng=np.random.default_rng(3))
    zero_tables(bias)
    assert np.array_equal(bias.bias().data, np.zeros((2, 9, 9)))


def test_adjacent_search_tokens_use_independent_entries():
    lay = segment_layout((1, 1), (2, 2), (1, 2))
    bias = PairwiseRegionBias(lay, heads=1, rng=np.random.default_rng(4))
    table = bias.table("search", "search")
    # displacements (0,-1) and (0,+1) live at different table cells
    zero_tables(bias)
    table.data[0, 0, 0] = 5.0   # dcol = -1
    table.data[0, 0, 2] = 7.0   # dcol = +1
    block = bias.block("search", "search").data
    assert block[0, 0, 1] == 5.0
    assert block[0, 1, 0] == 7.0


def test_vectorized_matches_brute_force_exactly():
    rng = np.random.default_rng(5)
    for _ in range(5):
        grids = [(int(rng.integers(1, 4)), int(rng.integers(1, 4))) for _ in range(3)]
        lay = segment_layout(*grids)
        bias = PairwiseRegionBias(lay, heads=int(rng.integers(1, 4)), rng=rng)
        assert np.array_equal(bias.bias().data, brute_force_relative_bias(bias))


def test_translation_invariance_within_segment():
    lay = segment_layout((1, 1), (3, 3), (3, 3))
    bias = PairwiseRegionBias(lay, heads=2, rng=np.random.default_rng(6))
    full = bias.bias().data
    lay_off = lay.offset("previous")
    w = 3
    # pairs with equal (drow, dcol) share one entry
    i1, j1 = lay_off + 0 * w + 0, lay_off + 1 * w + 1
    i2, j2 = lay_off + 1 * w + 1, lay_off + 2 * w + 2
    assert np.array_equal(full[:, i1, j1], full[:, i2, j2])


def test_every_pair_resolved_from_exactly_one_region():
    lay = segment_layout((1, 2), (2, 2), (2, 3))
    names = lay.names()
    index, sizes = _gather_index(lay, names, names)
    # flat range of each pair's table, in row-major pair order
    ends = np.cumsum(sizes)
    regions = [range(end - size, end) for size, end in zip(sizes, ends)]
    for i in range(lay.length):
        seg_i, _, _ = coords(lay, i)
        for j in range(lay.length):
            seg_j, _, _ = coords(lay, j)
            pair = names.index(seg_i) * len(names) + names.index(seg_j)
            assert [r for r, region in enumerate(regions) if index[i, j] in region] == [pair]


def test_region_bias_gradients_flow_to_tables():
    lay = segment_layout((1, 1), (2, 2), (2, 2))
    bias = PairwiseRegionBias(lay, heads=1, rng=np.random.default_rng(7))
    bias.bias().sum().backward()
    tt = bias.table("previous", "previous")
    # each displacement entry is hit once per matching token pair
    counts = np.zeros((3, 3))
    for dr in range(-1, 2):
        for dc in range(-1, 2):
            n = (2 - abs(dr)) * (2 - abs(dc))
            counts[dr + 1, dc + 1] = n
    assert np.array_equal(tt.grad[0], counts)


def _block_by_index_grids(bias: PairwiseRegionBias, q: str, k: str):
    """One pair's block through a per-block advanced-index gather."""
    (hq, wq), (hk, wk) = bias.layout.grid(q), bias.layout.grid(k)
    rq, cq = np.divmod(np.arange(hq * wq), wq)
    rk, ck = np.divmod(np.arange(hk * wk), wk)
    rows = rq[:, None] - rk[None, :] + hk - 1
    cols = cq[:, None] - ck[None, :] + wk - 1
    return bias.table(q, k)[:, rows, cols]


def _term_by_blocks(bias: PairwiseRegionBias, queries, keys):
    return concat([concat([_block_by_index_grids(bias, q, k) for k in keys], axis=2)
                   for q in queries], axis=1)


@pytest.mark.parametrize("term", ["full", "search_templates", "search_all"])
def test_one_gather_matches_per_block_gather_bytes(term):
    lay = segment_layout((2, 3), (4, 4), (4, 4))
    names = lay.names()
    queries, keys = {"full": (names, names),
                     "search_templates": (("search",), names[:2]),
                     "search_all": (("search",), names)}[term]

    def run(build):
        bias = PairwiseRegionBias(lay, heads=3, rng=np.random.default_rng(8))
        out = build(bias)
        c = np.random.default_rng(9).normal(size=out.shape)
        # two terms on one table: the second adds onto a stored gradient
        (out * Tensor(c)).sum().backward()
        (build(bias) * Tensor(c[::-1].copy())).sum().backward()
        return out.data, [t.grad for t in bias.tables]

    if term == "full":
        got, got_grads = run(lambda b: b.bias())
    else:
        got, got_grads = run(lambda b: b.block("search", *keys))
    want, want_grads = run(lambda b: _term_by_blocks(b, queries, keys))
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    for g, w in zip(got_grads, want_grads):
        assert (g is None) == (w is None)
        if g is not None:
            assert g.tobytes() == w.tobytes()


def test_gather_index_is_built_once_per_layout_and_key_set():
    lay = segment_layout((1, 2), (2, 2), (2, 2))
    names = lay.names()
    assert _gather_index(lay, names, names) is \
        _gather_index(segment_layout((1, 2), (2, 2), (2, 2)), names, names)
    assert _gather_index(lay, ("search",), names) is not \
        _gather_index(lay, ("search",), names[:2])
