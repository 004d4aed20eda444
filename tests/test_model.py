"""Tests for the staged network assembly and the neck."""

import weakref
from contextlib import nullcontext

import numpy as np
import pytest

from ctxtrack import positional, tensor
from ctxtrack.attention import CrossFrameAttention, WindowAttentionBlock
from ctxtrack.backbone import BoxEmbedding, Downsample, PatchEmbed
from ctxtrack.model import STRIDE, ModelSpec, TrackerNet, small_spec, toy_spec
from ctxtrack.positional import sine_embedding
from ctxtrack.synthetic import SequenceConfig, gen_sequence
from ctxtrack.tracker import TrackConfig, run_tracker
from ctxtrack.train import TrainConfig, toy_train
from ctxtrack.tensor import Tensor, linear, matmul, no_grad

from reference_ops import coords, finite_diff_grad


def rel_err(a, b, floor=1e-6):
    a, b = np.asarray(a), np.asarray(b)
    return np.max(np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), floor))


def toy_net(seed=0, **overrides):
    spec = toy_spec(**overrides)
    return TrackerNet(spec, np.random.default_rng(seed)), spec


def toy_images(rng):
    return (rng.random((32, 32, 3)), rng.random((64, 64, 3)),
            rng.random((64, 64, 3)))


def with_box(net, images, box=(16, 16, 48, 48)):
    """The three images, each encoded on its own, the previous one with its
    box."""
    target, previous, search = images
    return net.encode([target]), net.encode([previous], box), net.encode([search])


# ----------------------------------------------------------------------
# spec validation
# ----------------------------------------------------------------------

def test_spec_rejects_bad_sizes():
    with pytest.raises(ValueError, match="multiple"):
        toy_spec(target_size=30)
    with pytest.raises(ValueError, match="window"):
        toy_spec(search_size=48)  # stride-16 grid of 3 is odd
    with pytest.raises(ValueError, match="divisible"):
        toy_spec(channels=9)
    with pytest.raises(ValueError, match="final_keys"):
        toy_spec(final_keys="none")
    with pytest.raises(ValueError, match="at least 1"):
        toy_spec(n3=0)


def test_toy_spec_layout_arithmetic():
    net, spec = toy_net()
    assert spec.dim == 32
    assert net.layout.grid("target") == (2, 2)
    assert net.layout.grid("previous") == (4, 4)
    assert net.layout.grid("search") == (4, 4)
    assert net.layout.length == 36


def test_small_spec_layout_arithmetic():
    spec = small_spec()
    t16, s16 = spec.target_size // STRIDE, spec.search_size // STRIDE
    assert (t16 * t16 + 2 * s16 * s16, spec.dim) == (441, 384)


# ----------------------------------------------------------------------
# backbone
# ----------------------------------------------------------------------

def test_backbone_token_shape():
    net, spec = toy_net()
    rng = np.random.default_rng(1)
    tokens = net.backbone_forward(net.encode(toy_images(rng)))
    assert tokens.shape == (36, 32)


def test_backbone_stride_bookkeeping_other_sizes():
    net, spec = toy_net(target_size=32, search_size=96)
    rng = np.random.default_rng(2)
    tokens = net.backbone_forward(net.encode([rng.random((32, 32, 3)),
                                              rng.random((96, 96, 3)),
                                              rng.random((96, 96, 3))]))
    assert tokens.shape == (2 * 2 + 2 * 6 * 6, 32)


def test_backbone_joint_layers_mix_images():
    net, spec = toy_net(seed=4)
    rng = np.random.default_rng(4)
    target, previous, search = toy_images(rng)
    base = net.backbone_forward(net.encode([target, previous, search])).data
    bumped = net.backbone_forward(net.encode([target, previous, search + 0.25])).data
    t = net.layout.segment_slice("target")
    assert not np.allclose(base[t], bumped[t])


def test_construction_is_deterministic():
    net_a, _ = toy_net(seed=5)
    net_b, _ = toy_net(seed=5)
    state_a, state_b = net_a.state(), net_b.state()
    assert state_a.keys() == state_b.keys()
    for name in state_a:
        assert np.array_equal(state_a[name], state_b[name]), name


_STAGE3_SPECS = {
    "toy": lambda: toy_spec(),
    "toy-96-all": lambda: toy_spec(search_size=96, final_keys="all"),
    "small-window7": lambda: small_spec(channels=8, heads=2),
}


def _spec_images(spec, seed):
    rng = np.random.default_rng(seed)
    return (rng.random((spec.target_size, spec.target_size, 3)),
            rng.random((spec.search_size, spec.search_size, 3)),
            rng.random((spec.search_size, spec.search_size, 3)))


@pytest.mark.parametrize("name", sorted(_STAGE3_SPECS))
def test_taped_and_tape_free_stage3_give_the_same_bytes(name):
    # both passes run each stage-3 local block as one call over the windows
    # of all three images; only the fused sublayers' tape-free branches
    # differ, and they must give the taped forward's bytes
    spec = _STAGE3_SPECS[name]()
    net = TrackerNet(spec, np.random.default_rng(17))
    images = _spec_images(spec, 17)
    box = (8.0, 8.0, spec.search_size - 8.0, spec.search_size - 8.0)
    taped = net.forward(*with_box(net, images, box))
    tokens = net.backbone_forward(net.encode(images))

    def local_pair(tokens):
        for blk in net.stage3_local[2:4]:
            tokens = blk(tokens, net.windows)
        return tokens

    local = local_pair(tokens)
    assert taped.cls.requires_grad and local.requires_grad
    with no_grad():
        free = net.forward(*with_box(net, images, box))
        free_local = local_pair(tokens)
    assert taped.cls.data.tobytes() == free.cls.data.tobytes()
    assert taped.reg.data.tobytes() == free.reg.data.tobytes()
    assert local.data.tobytes() == free_local.data.tobytes()


@pytest.mark.parametrize("name", sorted(_STAGE3_SPECS))
def test_window_partition_lists_each_window_of_each_image(name):
    spec = _STAGE3_SPECS[name]()
    net = TrackerNet(spec, np.random.default_rng(0))
    windows, layout, win = net.windows, net.layout, spec.window
    assert windows.window == win
    assert np.array_equal(np.sort(windows.order), np.arange(layout.length))
    assert np.array_equal(windows.order[windows.inverse], np.arange(layout.length))
    seen = set()
    for run in windows.order.reshape(-1, win * win):
        places = [coords(layout, int(i)) for i in run]
        cells = {(seg, r // win, c // win) for seg, r, c in places}
        assert len(cells) == 1   # one window of one image
        assert sorted((r % win, c % win) for _, r, c in places) == \
            [(r, c) for r in range(win) for c in range(win)]
        seen |= cells
    assert len(seen) == layout.length // (win * win)


def _count_calls(monkeypatch, cls):
    calls = []
    original = cls.__call__

    def counting(self, *args, **kwargs):
        calls.append(self)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(cls, "__call__", counting)
    return calls


def test_tape_free_forward_makes_one_window_call_per_local_block(monkeypatch):
    net, spec = toy_net(seed=18)
    target, previous, search = toy_images(np.random.default_rng(18))
    box = (16, 16, 48, 48)
    with no_grad():
        encoded = net.encode([target]), net.encode([previous], box)
    calls = _count_calls(monkeypatch, WindowAttentionBlock)
    patches = _count_calls(monkeypatch, PatchEmbed)
    merges = _count_calls(monkeypatch, Downsample)
    with no_grad():
        net.forward(*encoded, net.encode([search]))
    # 6 to encode the search image, then one per block of pairs g >= 1
    assert len(calls) == 6 + 2 * (spec.n1 - 1) == 10
    assert patches == [net.patch] and merges == [net.down1, net.down2]
    for seen in (calls, patches, merges):
        seen.clear()
    # a taped forward over the three images encoded in one pass, as
    # training runs it, makes the same calls
    net.forward(net.encode([target, previous, search], box))
    assert len(calls) == 6 + 2 * (spec.n1 - 1) == 10
    assert patches == [net.patch] and merges == [net.down1, net.down2]


# ----------------------------------------------------------------------
# tape-free blocks
# ----------------------------------------------------------------------

def _tape_free_bytes(net, images, held):
    """Head outputs and every traced layer's tokens of one tape-free
    forward, as bytes; `held` passes `bias_terms()`."""
    with no_grad():
        trace = []
        out = net.forward(*with_box(net, images), trace=trace,
                          bias_terms=net.bias_terms() if held else None)
    return [t.data.tobytes() for t in (out.cls, out.reg, *trace)]


@pytest.mark.parametrize("held", [False, True], ids=["own-terms", "held-terms"])
@pytest.mark.parametrize("final_keys", ["templates", "all"])
def test_tape_free_blocks_give_the_one_block_bytes(monkeypatch, final_keys, held):
    # toy shapes fit one block; a smaller budget makes each feed-forward's
    # gelu walk 1, 3, L - 1, L and L + 1 of a joint layer's L rows at a
    # time, and each joint layer's attention 1 of its 4 heads at a time,
    # or a full layer's 3 and then 1
    net, spec = toy_net(seed=19, heads=4, final_keys=final_keys)
    images = toy_images(np.random.default_rng(19))
    whole = _tape_free_bytes(net, images, held)
    length = net.layout.length
    for rows in (1, 3, length - 1, length, length + 1):
        monkeypatch.setattr(tensor, "_BLOCK_BYTES", 8 * 4 * spec.dim * rows)
        assert _tape_free_bytes(net, images, held) == whole, rows


def test_tape_free_joint_layers_build_one_block_at_a_time(monkeypatch):
    net, spec = toy_net(seed=20)
    rows = 3
    # one head of a joint layer's logits, and the tanh of 3 hidden rows
    monkeypatch.setattr(tensor, "_BLOCK_BYTES", 8 * 4 * spec.dim * rows)
    inside, products, tanhs = [], [], []
    for name in ("forward", "forward_search_queries"):
        def entered(self, *args, _original=getattr(CrossFrameAttention, name), **kwargs):
            inside.append(self)
            try:
                return _original(self, *args, **kwargs)
            finally:
                inside.pop()

        monkeypatch.setattr(CrossFrameAttention, name, entered)
    for module in (tensor, positional):
        def recording(a, b, _original=module.matmul):
            out = _original(a, b)
            if inside:
                products.append(out.shape)
            return out

        monkeypatch.setattr(module, "matmul", recording)

    def tanh(x, _original=tensor._gelu_tanh):
        if inside:
            tanhs.append(x.shape)
        return _original(x)

    monkeypatch.setattr(tensor, "_gelu_tanh", tanh)
    run_tracker(net, gen_sequence(SequenceConfig(seed=0, num_frames=2)))
    # every joint layer's logits, absolute term and weighted values come
    # one head at a time; so does the gather of its relative term, which
    # makes no product
    per_head = [shape for shape in products if len(shape) == 3]
    assert len(per_head) == 3 * spec.heads * (spec.n1 + spec.n3)
    assert {shape[0] for shape in per_head} == {1}
    assert tanhs and max(shape[0] for shape in tanhs) == rows


# ----------------------------------------------------------------------
# neck
# ----------------------------------------------------------------------

def test_neck_output_shape_and_depth():
    net, spec = toy_net(seed=6)
    rng = np.random.default_rng(6)
    tokens = net.backbone_forward(net.encode(toy_images(rng)))
    trace = []
    out = net.neck_forward(tokens, net.box_embed((16, 16, 48, 48)), trace=trace)
    assert out.shape == (4, 4, 32)
    assert len(trace) == spec.n3 - 1  # the search-query layer is not traced


def test_neck_single_layer_config():
    net, _ = toy_net(seed=7, n3=1)
    rng = np.random.default_rng(7)
    tokens = net.backbone_forward(net.encode(toy_images(rng)))
    assert net.neck_full == []
    out = net.neck_forward(tokens, net.box_embed((16, 16, 48, 48)))
    assert out.shape == (4, 4, 32)


def test_neck_zeroed_box_embedding_matches_no_injection():
    net, _ = toy_net(seed=8)
    net.box_embed.weight.data[...] = 0.0
    net.box_embed.fc2.weight.data[...] = 0.0
    net.box_embed.fc2.bias.data[...] = 0.0
    rng = np.random.default_rng(8)
    tokens = net.backbone_forward(net.encode(toy_images(rng)))
    with_box = net.neck_forward(tokens, net.box_embed((16, 16, 48, 48))).data
    without = net.neck_forward(tokens, None).data
    assert np.array_equal(with_box, without)


def test_neck_adds_the_box_to_the_previous_template_rows():
    net, _ = toy_net(seed=9)
    rng = np.random.default_rng(9)
    tokens = net.backbone_forward(net.encode(toy_images(rng)))
    box = net.box_embed((16, 16, 48, 48))
    moved = tokens.data.copy()
    moved[net.layout.segment_slice("previous")] += box.data
    got = net.neck_forward(tokens, box).data
    assert got.tobytes() == net.neck_forward(Tensor(moved), None).data.tobytes()


def test_neck_box_injection_changes_output():
    net, _ = toy_net(seed=9)
    rng = np.random.default_rng(9)
    tokens = net.backbone_forward(net.encode(toy_images(rng)))
    a = net.neck_forward(tokens, net.box_embed((16, 16, 48, 48))).data
    b = net.neck_forward(tokens, net.box_embed((8, 8, 40, 40))).data
    assert not np.allclose(a, b)


# ----------------------------------------------------------------------
# full forward
# ----------------------------------------------------------------------

def test_forward_head_outputs():
    net, _ = toy_net(seed=10)
    rng = np.random.default_rng(10)
    target, previous, search = toy_images(rng)
    out = net(net.encode([target, previous, search], (16, 16, 48, 48)))
    assert out.cls.shape == (4, 4, 1)
    assert out.reg.shape == (4, 4, 4)
    assert np.all(out.cls.data > 0) and np.all(out.cls.data < 1)
    assert np.all(out.reg.data > 0)


def test_forward_is_deterministic():
    rng_a, rng_b = np.random.default_rng(11), np.random.default_rng(11)
    net_a, _ = toy_net(seed=11)
    net_b, _ = toy_net(seed=11)
    out_a = net_a(*with_box(net_a, toy_images(rng_a)))
    out_b = net_b(*with_box(net_b, toy_images(rng_b)))
    assert np.array_equal(out_a.cls.data, out_b.cls.data)
    assert np.array_equal(out_a.reg.data, out_b.reg.data)


def test_forward_on_encoded_templates_is_byte_identical():
    net, _ = toy_net(seed=13)
    target, previous, search = toy_images(np.random.default_rng(13))
    box = (16, 16, 48, 48)
    boxed = net.encode([previous], box)
    for direct, cached in (
            (net.forward(net.encode([target, previous, search])),
             net.forward(net.encode([target]), net.encode([previous]), net.encode([search]))),
            (net.forward(net.encode([target, previous, search], box)),
             net.forward(net.encode([target]), boxed, net.encode([search])))):
        assert direct.cls.data.tobytes() == cached.cls.data.tobytes()
        assert direct.reg.data.tobytes() == cached.reg.data.tobytes()


def test_forward_drops_the_search_encoding_before_the_neck(monkeypatch):
    net, _ = toy_net(seed=13)
    target, previous, search = toy_images(np.random.default_rng(13))
    freed = []
    original = TrackerNet.neck_forward

    def neck(self, *args, **kwargs):
        freed.append(search_tokens() is None)
        return original(self, *args, **kwargs)

    def encoded_search():
        nonlocal search_tokens
        encoded = net.encode([search])
        search_tokens = weakref.ref(encoded.tokens.data)
        return encoded

    search_tokens = None
    monkeypatch.setattr(TrackerNet, "neck_forward", neck)
    with no_grad():
        net.forward(net.encode([target]), net.encode([previous], (16, 16, 48, 48)),
                    encoded_search())
    # the backbone concatenated its rows; nothing holds them through the neck
    assert freed == [True]


def test_forward_rejects_two_box_embeddings():
    net, _ = toy_net(seed=13)
    target, previous, search = toy_images(np.random.default_rng(13))
    box = (16, 16, 48, 48)
    with no_grad():
        inputs = net.encode([target]), net.encode([previous], box), net.encode([search], box)
        with pytest.raises(ValueError, match="2 inputs carry a box embedding"):
            net.forward(*inputs)


def test_forward_trace_holds_every_full_cross_frame_layer():
    net, spec = toy_net(seed=14)
    trace = []
    net.forward(*with_box(net, toy_images(np.random.default_rng(14))), trace=trace)
    assert len(trace) == spec.n1 + spec.n3 - 1
    for tokens in trace:
        assert tokens.shape == (net.layout.length, spec.dim)


def test_forward_with_trace_is_byte_identical():
    net, _ = toy_net(seed=15)
    images = with_box(net, toy_images(np.random.default_rng(15)))
    plain = net.forward(*images)
    traced = net.forward(*images, trace=[])
    assert plain.cls.data.tobytes() == traced.cls.data.tobytes()
    assert plain.reg.data.tobytes() == traced.reg.data.tobytes()


@pytest.mark.parametrize("final_keys", ["templates", "all"])
def test_last_traced_layer_feeds_the_search_query_layer(final_keys):
    net, spec = toy_net(seed=16, final_keys=final_keys)
    trace = []
    out = net.forward(*with_box(net, toy_images(np.random.default_rng(16))),
                      trace=trace)
    features = net.neck_last(trace[-1])
    grid = net.layout.grid("search")
    again = net.head(features.reshape(*grid, spec.dim) + sine_embedding(grid, spec.dim))
    assert again.cls.data.tobytes() == out.cls.data.tobytes()
    assert again.reg.data.tobytes() == out.reg.data.tobytes()


def test_forward_gradients_match_finite_differences():
    spec = toy_spec(target_size=32, search_size=32, channels=4,
                    n1=1, n2=1, n3=1)
    net = TrackerNet(spec, np.random.default_rng(12))
    rng = np.random.default_rng(12)
    images = (rng.random((32, 32, 3)), rng.random((32, 32, 3)),
              rng.random((32, 32, 3)))
    box = (8.0, 8.0, 24.0, 24.0)
    w_cls = rng.normal(size=(2, 2, 1))
    w_reg = rng.normal(size=(2, 2, 4))

    def scalar(_=None):
        out = net(*with_box(net, images, box))
        return float((out.cls.data * w_cls).sum() + (out.reg.data * w_reg).sum())

    out = net(*with_box(net, images, box))
    loss = (out.cls * w_cls).sum() + (out.reg * w_reg).sum()
    loss.backward()
    params = net.parameters()
    checks = [
        "patch.proj.bias",
        "stage1.0.norm1.gamma",
        "stage3_joint.0.rel_bias.tables.7",
        "box_embed.weight",
        "neck_last.abs_bias.tables.2",
        "head.cls_out.bias",
        "head.reg_out.bias",
    ]
    for name in checks:
        p = params[name]
        fd = finite_diff_grad(scalar, p)
        got = p.grad if p.grad is not None else np.zeros_like(p.data)
        assert rel_err(got, fd, floor=1e-5) < 1e-3, name


@pytest.mark.parametrize("taped", [True, False], ids=["taped", "tape-free"])
@pytest.mark.parametrize("name", sorted(_STAGE3_SPECS))
def test_joint_encode_equals_single_image_encodes(name, taped):
    spec = _STAGE3_SPECS[name]()
    net = TrackerNet(spec, np.random.default_rng(19))
    images = _spec_images(spec, 19)
    box = (8.0, 8.0, spec.search_size - 8.0, spec.search_size - 8.0)
    target, previous, search = images
    with nullcontext() if taped else no_grad():
        joint = net.encode(images, box)
        single = [net.encode([target]), net.encode([previous], box), net.encode([search])]
        outputs = [net.forward(joint), net.forward(*single)]
    for encoded in (joint, *single):
        assert encoded.tokens.requires_grad == taped
    assert joint.tokens.data.tobytes() == b"".join(e.tokens.data.tobytes() for e in single)
    assert joint.box.data.tobytes() == single[1].box.data.tobytes()
    assert outputs[0].cls.data.tobytes() == outputs[1].cls.data.tobytes()
    assert outputs[0].reg.data.tobytes() == outputs[1].reg.data.tobytes()


def test_joint_encode_gradients_match_finite_differences():
    spec = toy_spec(target_size=32, search_size=32, channels=4,
                    n1=1, n2=1, n3=1)
    net = TrackerNet(spec, np.random.default_rng(20))
    rng = np.random.default_rng(20)
    images = (rng.random((32, 32, 3)), rng.random((32, 32, 3)),
              rng.random((32, 32, 3)))
    box = (8.0, 8.0, 24.0, 24.0)
    w_cls = rng.normal(size=(2, 2, 1))
    w_reg = rng.normal(size=(2, 2, 4))

    def scalar(_=None):
        out = net(net.encode(images, box))
        return float((out.cls.data * w_cls).sum() + (out.reg.data * w_reg).sum())

    out = net(net.encode(images, box))
    ((out.cls * w_cls).sum() + (out.reg * w_reg).sum()).backward()
    params = net.parameters()
    for name in ("stage1.0.w_query.weight", "stage1.0.w_value.weight",
                 "stage1.0.w_out.weight", "neck_last.w_key.weight"):
        fd = finite_diff_grad(scalar, params[name])
        assert rel_err(params[name].grad, fd, floor=1e-5) < 1e-3, name


# ----------------------------------------------------------------------
# initialisation
# ----------------------------------------------------------------------

@pytest.mark.parametrize("seed", [0, 1, 2])
def test_drawn_weights_have_the_init_spread(seed):
    net, _ = toy_net(seed=seed)
    # layer-norm scales and shifts and linear biases start constant; every
    # other parameter is drawn from N(0, 0.02^2)
    drawn = {name: p.data for name, p in net.parameters().items()
             if name.rsplit(".", 1)[-1] not in ("gamma", "beta", "bias")}
    assert all(np.std(w) > 0.0 for w in drawn.values())
    large = {name: w for name, w in drawn.items() if w.size >= 256}
    assert large
    for name, w in large.items():
        assert abs(np.std(w) / 0.02 - 1.0) < 0.2, name


def test_linear_forward_agrees_with_batched_product_at_every_call_site(monkeypatch):
    # `linear` and the fused sublayers run their affine maps through one
    # kernel, which runs one 2-D product over the rows of x; BLAS may sum a
    # row of it in another order than numpy's batched product, so over
    # every shape the toy and small presets feed it, `linear` must agree
    # with the batched composite to rounding. A taped small forward would
    # hold gigabytes; its shapes are the tape-free ones.
    shapes = set()
    kernel = tensor._linear_forward

    def recording(x, weight, bias=None):
        shapes.add((x.shape, weight.shape, bias is not None))
        return kernel(x, weight, bias)

    monkeypatch.setattr(tensor, "_linear_forward", recording)
    rng = np.random.default_rng(0)
    for spec, taped in ((toy_spec(), True), (toy_spec(final_keys="all"), True),
                        (small_spec(), False)):
        net = TrackerNet(spec, rng)
        images = [rng.random((s, s, 3)) for s in
                  (spec.target_size, spec.search_size, spec.search_size)]
        box = (spec.search_size * 0.3, spec.search_size * 0.3,
               spec.search_size * 0.6, spec.search_size * 0.6)
        with no_grad():
            net.forward(*with_box(net, images, box))
        if taped:
            net.forward(*with_box(net, images, box))
    assert len(shapes) > 20
    for x_shape, w_shape, has_bias in sorted(shapes):
        x, w, b = (rng.normal(size=x_shape), rng.normal(size=w_shape),
                   rng.normal(size=w_shape[1]))
        want = matmul(x, w)
        if has_bias:
            want = want + Tensor(b)
        got = linear(Tensor(x), Tensor(w), Tensor(b) if has_bias else None)
        assert got.shape == want.shape, (x_shape, w_shape)
        err = np.abs(got.data - want.data).max()
        assert err <= 1e-12 * np.abs(want.data).max(), (x_shape, w_shape, err)


# ----------------------------------------------------------------------
# the previous template's box embedding, encoded with it
# ----------------------------------------------------------------------

def _count_box_embeddings(monkeypatch):
    boxes = []
    original = BoxEmbedding.__call__

    def counting(self, box):
        boxes.append(box)
        return original(self, box)

    monkeypatch.setattr(BoxEmbedding, "__call__", counting)
    return boxes


def test_encode_embeds_the_box_once_per_template(monkeypatch):
    net, _ = toy_net()
    target, previous, search = toy_images(np.random.default_rng(1))
    a, b = (18.0, 22.0, 41.0, 37.0), (10.0, 12.0, 30.0, 44.0)
    with no_grad():
        tokens = net.backbone_forward(net.encode([target, previous, search]))
        own = {box: net.box_embed(box) for box in (a, b)}
        plain = {box: net.head(net.neck_forward(tokens, own[box])) for box in (a, b)}
        calls = _count_box_embeddings(monkeypatch)
        encoded = {box: net.encode([previous], box) for box in (a, b)}
        outputs = [(box, net.forward(net.encode([target]), encoded[box], net.encode([search])))
                   for box in (a, a, b, a)]
    # one embedding per encoded template, however many forwards read it
    assert calls == [a, b]
    for box, out in outputs:
        assert encoded[box].box.data.tobytes() == own[box].data.tobytes()
        assert out.cls.data.tobytes() == plain[box].cls.data.tobytes()
        assert out.reg.data.tobytes() == plain[box].reg.data.tobytes()


def test_taped_forward_embeds_its_box_and_gives_it_a_gradient(monkeypatch):
    net, _ = toy_net()
    target, previous, search = toy_images(np.random.default_rng(2))
    box = (18.0, 22.0, 41.0, 37.0)
    calls = _count_box_embeddings(monkeypatch)
    grads = []
    for encoded in (False, True):
        for p in net.parameters().values():
            p.grad = None
        calls.clear()
        if encoded:
            out = net.forward(net.encode([target, previous, search], box))
        else:   # the same graph built by hand, embedding the box after the backbone
            tokens = net.backbone_forward(net.encode([target, previous, search]))
            out = net.head(net.neck_forward(tokens, net.box_embed(box)))
        out.cls.sum().backward()
        grads.append({name: p.grad for name, p in net.box_embed.parameters().items()})
        assert calls == [box]
    assert all(g is not None for g in grads[1].values())
    for name, grad in grads[0].items():
        assert grads[1][name].tobytes() == grad.tobytes(), name


def test_run_tracker_embeds_an_unchanged_box_once_per_sequence(monkeypatch):
    calls = _count_box_embeddings(monkeypatch)
    net, _ = toy_net()
    records = run_tracker(net, gen_sequence(SequenceConfig(num_frames=5)),
                          TrackConfig(update_mode="never"))
    assert len(records) == 4
    assert len(calls) == 1


def test_toy_train_embeds_the_previous_box_once_per_step(monkeypatch):
    calls = _count_box_embeddings(monkeypatch)
    net, _ = toy_net()
    losses = toy_train(net, gen_sequence(SequenceConfig(num_frames=5)),
                       TrainConfig(steps=3))
    assert len(losses) == 3
    assert len(calls) == 3


def test_run_tracker_embeds_each_new_template_box_once(monkeypatch):
    calls = _count_box_embeddings(monkeypatch)
    net, _ = toy_net()
    records = run_tracker(net, gen_sequence(SequenceConfig(num_frames=5)),
                          TrackConfig(update_mode="always-last"))
    # the first template, and each replacement that a later frame reads
    assert [r.updated for r in records] == [True] * 4
    assert len(calls) == 4
