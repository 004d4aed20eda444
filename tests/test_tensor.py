import operator
from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from ctxtrack import tensor
from ctxtrack.tensor import (
    Module, Tensor, _unbroadcast, attention_sublayer, concat, feed_forward_sublayer,
    gelu, grad_enabled, layer_norm, linear, matmul, maximum, minimum, no_grad, parameter,
)
from ctxtrack.optim import Adam
from ctxtrack.positional import PairwiseRegionBias, SegmentLayout
from reference_ops import (batched_weight_grad, finite_diff_grad, seeded_root,
                           softmax_lastdim, tanh)


def rel_err(a, b, floor=1e-6):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    denom = np.maximum(floor, np.maximum(np.abs(a), np.abs(b)))
    return np.max(np.abs(a - b) / denom)


# ----------------------------------------------------------------------
# matmul
# ----------------------------------------------------------------------

def test_matmul_identity():
    m = Tensor([[1.0, 2.0], [3.0, 4.0]])
    out = matmul(Tensor(np.eye(2)), m)
    assert np.array_equal(out.data, m.data)


def test_matmul_hand_case():
    out = matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[5.0, 6.0], [7.0, 8.0]]))
    assert np.array_equal(out.data, [[19.0, 22.0], [43.0, 50.0]])


def test_matmul_shape_mismatch_reports_dims():
    with pytest.raises(ValueError, match=r"\(2, 3\) @ \(2, 2\)"):
        matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 2))))


def test_matmul_rejects_1d_operands():
    with pytest.raises(ValueError, match="2-D"):
        matmul(Tensor([2.0]), Tensor([[3.0]]))


def test_matmul_associativity_random_chains():
    rng = np.random.default_rng(0)
    for _ in range(20):
        a, b, c = (Tensor(rng.normal(size=(4, 4))) for _ in range(3))
        left = matmul(matmul(a, b), c).data
        right = matmul(a, matmul(b, c)).data
        assert np.max(np.abs(left - right)) < 1e-9


# ----------------------------------------------------------------------
# softmax
# ----------------------------------------------------------------------

def test_softmax_uniform():
    out = softmax_lastdim(Tensor([0.0, 0.0, 0.0]))
    assert np.allclose(out.data, [1 / 3] * 3, atol=1e-15)


def test_softmax_closed_form():
    out = softmax_lastdim(Tensor([0.0, np.log(3.0)]))
    assert np.allclose(out.data, [0.25, 0.75], atol=1e-12)


def test_softmax_large_inputs_no_overflow():
    out = softmax_lastdim(Tensor([1000.0, 1000.0]))
    assert np.allclose(out.data, [0.5, 0.5])
    assert np.all(np.isfinite(out.data))


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(1)
    for _ in range(50):
        x = Tensor(rng.uniform(-50, 50, size=(6, 9)))
        out = softmax_lastdim(x)
        assert np.max(np.abs(out.data.sum(axis=-1) - 1.0)) < 1e-9
        assert np.all(out.data >= 0)


# ----------------------------------------------------------------------
# backward
# ----------------------------------------------------------------------

def test_backward_sum_gives_ones():
    p = parameter(np.arange(12.0).reshape(3, 4))
    p.sum().backward()
    assert np.array_equal(p.grad, np.ones((3, 4)))


def test_backward_square():
    p = parameter([3.0])
    (p * p).sum().backward()
    assert np.allclose(p.grad, [6.0])


def test_backward_unreachable_parameter_zero_grad():
    p = parameter([1.0, 2.0])
    q = parameter([5.0])
    (p * p).sum().backward()
    assert q.grad is None


def test_backward_rejects_non_scalar():
    p = parameter([1.0, 2.0])
    with pytest.raises(ValueError, match="scalar"):
        (p * p).backward()


def test_backward_fanout_sums():
    p = parameter([2.0])
    y = p * 3.0 + p * 4.0
    y.sum().backward()
    assert np.allclose(p.grad, [7.0])


def test_backward_frees_the_tape_and_a_second_sweep_raises():
    p = parameter([1.0, 2.0])
    y = p * p
    loss = y.sum()
    other = (y * 3.0).sum()
    loss.backward()
    assert y._parents == () and y.grad is None
    assert np.array_equal(p.grad, [2.0, 4.0])
    with pytest.raises(RuntimeError, match="already freed"):
        loss.backward()
    with pytest.raises(RuntimeError, match="already freed"):
        other.backward()
    assert np.array_equal(p.grad, [2.0, 4.0])


@st.composite
def _broadcast_pair(draw):
    """A target shape and a gradient shape numpy broadcasting can produce
    from it: extra leading axes, and any size where the target has 1."""
    shape = tuple(draw(st.lists(st.integers(1, 3), max_size=4)))
    lead = tuple(draw(st.lists(st.integers(1, 3), max_size=2)))
    grown = tuple(draw(st.integers(1, 3)) if size == 1 else size for size in shape)
    return shape, lead + grown


@settings(derandomize=True, deadline=None)
@given(_broadcast_pair(), st.integers(0, 2 ** 32 - 1))
def test_unbroadcast_sums_the_broadcast_axes(shapes, seed):
    shape, grad_shape = shapes
    grad = np.random.default_rng(seed).normal(size=grad_shape)
    lead = len(grad_shape) - len(shape)
    axes = tuple(range(lead)) + tuple(
        lead + i for i, size in enumerate(shape) if size == 1)
    ref = np.sum(grad, axis=axes, keepdims=True).reshape(shape)
    scale = np.sum(np.abs(grad), axis=axes, keepdims=True).reshape(shape)
    out = _unbroadcast(grad, shape)
    assert out.shape == shape
    assert np.all(np.abs(out - ref) <= 1e-12 * scale)
    assert _unbroadcast(grad, grad_shape) is grad


_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul,
           "/": operator.truediv, "maximum": maximum, "minimum": minimum,
           "matmul": matmul}


@st.composite
def _operand_shapes(draw):
    """Two shapes numpy broadcasts together: each shared axis is full on
    both sides or 1 on one or both, and one side may have extra leading axes."""
    full = draw(st.lists(st.integers(2, 3), max_size=3))
    a = tuple(draw(st.sampled_from([n, 1])) for n in full)
    b = tuple(draw(st.sampled_from([n, 1])) for n in full)
    lead = tuple(draw(st.lists(st.integers(1, 3), max_size=2)))
    return (lead + a, b) if draw(st.booleans()) else (a, lead + b)


@st.composite
def _binary_case(draw):
    op = draw(st.sampled_from(sorted(_BINARY)))
    if op == "matmul":
        # broadcast batch axes in front of (m, k) @ (k, n)
        m, k, n = (draw(st.integers(1, 3)) for _ in range(3))
        ba, bb = draw(_operand_shapes())
        shapes = (ba + (m, k), bb + (k, n))
    else:
        shapes = draw(_operand_shapes())
    needs = draw(st.sampled_from([(True, True), (True, False), (False, True)]))
    return op, shapes, needs


@settings(derandomize=True, deadline=None)
@given(_binary_case(), st.integers(0, 2 ** 32 - 1))
def test_binary_op_gradients_match_finite_differences(case, seed):
    op, (sa, sb), needs = case
    rng = np.random.default_rng(seed)
    a0 = rng.normal(size=sa)
    # divisors stay away from 0, and max/min operands from ties
    b0 = rng.uniform(0.5, 2.0, size=sb) * rng.choice([-1.0, 1.0], size=sb) \
        if op == "/" else rng.normal(size=sb)
    if op in ("maximum", "minimum"):
        assume(np.min(np.abs(a0 - b0), initial=np.inf) > 1e-3)
    a, b = (Tensor(v.copy(), requires_grad=r) for v, r in zip((a0, b0), needs))
    w = rng.normal(size=_BINARY[op](Tensor(a0), Tensor(b0)).shape)

    def loss(x, y):
        return (_BINARY[op](x, y) * w).sum()

    loss(a, b).backward()
    for t, other, first in ((a, b, True), (b, a, False)):
        if not t.requires_grad:
            assert t.grad is None
            continue
        fd = finite_diff_grad(
            lambda v: loss(v, other).item() if first else loss(other, v).item(),
            t, eps=1e-5)
        assert t.grad.shape == t.shape
        assert rel_err(t.grad, fd, floor=1e-3) < 1e-5, op


@settings(derandomize=True, deadline=None)
@given(_operand_shapes(), st.integers(0, 2 ** 32 - 1))
def test_sub_gives_the_subtrahend_the_negated_add_gradient(shapes, seed):
    rng = np.random.default_rng(seed)
    a0, b0 = rng.normal(size=shapes[0]), rng.normal(size=shapes[1])
    w = rng.normal(size=np.broadcast_shapes(*shapes))
    grads = {}
    for name, op in (("+", operator.add), ("-", operator.sub)):
        a, b = parameter(a0.copy()), parameter(b0.copy())
        (op(a, b) * w).sum().backward()
        grads[name] = a.grad, b.grad
    assert np.array_equal(grads["-"][0], grads["+"][0])
    assert np.array_equal(grads["-"][1], -grads["+"][1])


# ----------------------------------------------------------------------
# finite differences
# ----------------------------------------------------------------------

def test_finite_diff_square():
    x = Tensor([3.0])
    g = finite_diff_grad(lambda t: float((t * t).sum().item()), x, eps=1e-3)
    assert abs(g[0] - 6.0) < 1e-5


def test_finite_diff_constant():
    x = Tensor([1.0, 2.0, 3.0])
    g = finite_diff_grad(lambda t: 7.5, x)
    assert np.array_equal(g, np.zeros(3))


def test_finite_diff_sum():
    x = Tensor(np.random.default_rng(2).normal(size=(2, 3)))
    g = finite_diff_grad(lambda t: t.sum().item(), x)
    assert np.allclose(g, np.ones((2, 3)), atol=1e-9)


def test_backward_matches_finite_diff_on_composites():
    # mixes matmul, softmax, elementwise ops, reductions, gather, concat
    rng = np.random.default_rng(3)
    w1 = parameter(rng.normal(scale=0.5, size=(4, 5)))
    w2 = parameter(rng.normal(scale=0.5, size=(5, 3)))
    x = Tensor(rng.normal(size=(6, 4)))

    def loss_fn(_=None):
        h = gelu(matmul(x, w1))
        h = softmax_lastdim(matmul(h, w2))
        picked = h[np.array([0, 2, 4]), np.array([1, 0, 2])]
        mixed = concat([picked.reshape(3, 1), (h[:3, :1] * 2.0)], axis=1)
        out = (mixed.sigmoid() * maximum(w2[0, :1], w2[1, :1])).sum()
        return out + minimum(w1[0, 0:1], w1[1, 0:1]).sum()

    loss = loss_fn()
    loss.backward()
    for p in (w1, w2):
        fd = finite_diff_grad(lambda _: loss_fn().item(), p, eps=1e-4)
        assert rel_err(p.grad, fd) < 1e-4


def test_exp_log_chain_gradient():
    p = parameter([0.5, 1.5])
    ((p.exp() + 1.0).log() * p).sum().backward()
    fd = finite_diff_grad(lambda t: ((t.exp() + 1.0).log() * t).sum().item(), p)
    assert rel_err(p.grad, fd) < 1e-6


def test_no_grad_blocks_tape():
    p = parameter([2.0])
    with no_grad():
        out = (p * p).sum()
    assert out._parents == ()
    assert not out.requires_grad


# ----------------------------------------------------------------------
# shape and gather ops
# ----------------------------------------------------------------------

def test_transpose_reshape_roundtrip_grad():
    p = parameter(np.arange(24.0).reshape(2, 3, 4))
    y = p.rearrange((2, 3, 4), (2, 0, 1), (4, 6))
    (y * y).sum().backward()
    assert np.allclose(p.grad, 2 * p.data)


def _regroup(draw, dims):
    """`dims` with runs of adjacent axes merged into one, at random."""
    out = [dims[0]]
    for d in dims[1:]:
        if draw(st.booleans()):
            out[-1] *= d
        else:
            out.append(d)
    return tuple(out)


@st.composite
def _rearrange_case(draw):
    """An input shape, a view shape and permutation for `rearrange`, and an
    output shape, each a regrouping of the same elements."""
    shape = tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=5)))
    axes = tuple(draw(st.permutations(range(len(shape)))))
    mid = tuple(shape[a] for a in axes)
    return _regroup(draw, shape), shape, axes, _regroup(draw, mid)


@settings(derandomize=True, deadline=None)
@given(_rearrange_case(), st.integers(0, 2 ** 32 - 1))
def test_rearrange_is_the_view_chain_and_its_inverse(case, seed):
    in_shape, shape, axes, out_shape = case
    rng = np.random.default_rng(seed)
    x = parameter(rng.normal(size=in_shape))
    up = Tensor(rng.normal(size=out_shape))
    y = x.rearrange(shape, axes, out_shape)
    assert y.data.tobytes() == x.data.reshape(shape).transpose(axes).reshape(out_shape).tobytes()
    (y * up).sum().backward()
    mid = tuple(shape[a] for a in axes)
    want = up.data.reshape(mid).transpose(np.argsort(axes)).reshape(in_shape)
    assert x.grad.shape == in_shape and x.grad.tobytes() == want.tobytes()
    fd = finite_diff_grad(lambda t: (t.rearrange(shape, axes, out_shape) * up).sum().item(), x)
    assert np.allclose(x.grad, fd, rtol=1e-8, atol=1e-8)


def test_backward_sums_fan_out_in_depth_first_post_order():
    # p feeds three chains of depth 1, 2 and 3. The sweep runs the nodes in
    # reverse of a depth-first post-order from the loss, which visits the
    # last parent of `+` first, so p receives its gradients in creation
    # order of the chains: (1 + 1e16) - 1e16 = 0. A sweep in reverse
    # creation order would sum (-1e16 + 1e16) + 1 = 1.
    a, b, c = 1.0, 1e16, -1e16
    assert (a + b) + c != (c + b) + a
    p = parameter([1.0])
    u = p * a
    v = (p * b) * 1.0
    w = ((p * c) * 1.0) * 1.0
    ((u + v) + w).sum().backward()
    assert p.grad.tobytes() == np.array([(a + b) + c]).tobytes()


def test_getitem_slice_grad_scatters():
    p = parameter(np.zeros((3, 3)))
    p[1:, :2].sum().backward()
    expect = np.zeros((3, 3))
    expect[1:, :2] = 1.0
    assert np.array_equal(p.grad, expect)


def test_getitem_repeated_index_accumulates():
    p = parameter([1.0, 2.0])
    idx = np.array([0, 0, 1])
    p[idx].sum().backward()
    assert np.array_equal(p.grad, [2.0, 1.0])


def test_concat_grad_splits():
    a = parameter(np.ones((2, 2)))
    b = parameter(np.ones((3, 2)))
    (concat([a, b], axis=0) * 2.0).sum().backward()
    assert np.array_equal(a.grad, np.full((2, 2), 2.0))
    assert np.array_equal(b.grad, np.full((3, 2), 2.0))


@pytest.mark.parametrize("taped", [True, False], ids=["taped", "tape-free"])
def test_concat_of_one_tensor_returns_it(taped):
    t = parameter(np.ones((2, 2))) * 3.0
    with nullcontext() if taped else no_grad():
        assert concat([t]) is t
        assert concat([t], axis=1) is t


def test_batched_matmul_weight_grad_sums_over_leading_axes():
    # a 2-D weight shared by every index of x's leading axes takes the sum
    # of their gradients
    rng = np.random.default_rng(4)
    x = Tensor(rng.normal(size=(5, 3, 4)))
    w = parameter(rng.normal(size=(4, 2)))
    matmul(x, w).sum().backward()
    fd = finite_diff_grad(lambda _: matmul(x, w).sum().item(), w)
    assert rel_err(w.grad, fd) < 1e-6


@pytest.mark.parametrize("layout", ["contiguous", "transposed", "negative-zero"])
@pytest.mark.parametrize("shape", [(5, 3, 4), (2, 3, 5, 4)], ids=["3d", "4d"])
def test_matmul_weight_grad_flat_product_matches_batched_sum(shape, layout):
    # the weight gradient is one product over all rows of x; it may sum in
    # another order than the batched products summed over the leading axes,
    # so the two agree within float64 rounding: 1e-12 of sum |x| |g|, far
    # above the n * 2^-53 bound for the n <= 30 terms of each entry
    rng = np.random.default_rng(sum(shape))
    *lead, rows, k = shape
    if layout == "transposed":   # a non-contiguous view
        x = rng.normal(size=(*lead, k, rows)).swapaxes(-1, -2)
    else:
        x = rng.normal(size=shape)
    g = rng.normal(size=(*lead, rows, 2))
    if layout == "negative-zero":
        x[..., 0, :] = -0.0
        g[..., 1, :] = -0.0
    w = parameter(rng.normal(size=(k, 2)))
    (matmul(Tensor(x), w) * Tensor(g)).sum().backward()
    want = batched_weight_grad(x, g)
    scale = np.abs(x).reshape(-1, k).T @ np.abs(g).reshape(-1, 2)
    assert np.all(np.abs(w.grad - want) <= 1e-12 * scale)


# ----------------------------------------------------------------------
# optimizer
# ----------------------------------------------------------------------

def test_adam_zero_grad_leaves_params():
    p = parameter([1.0, -2.0])
    opt = Adam({"p": p})
    p.grad = np.zeros(2)
    opt.step()
    assert np.array_equal(p.data, [1.0, -2.0])


def test_adam_step_count_increments():
    p = parameter([1.0])
    opt = Adam({"p": p})
    assert opt.step_count == 0
    p.grad = np.zeros(1)
    opt.step()
    assert opt.step_count == 1


def test_adam_first_step_closed_form():
    # bias-corrected first step moves by ~lr regardless of gradient scale
    p = parameter([1.0])
    opt = Adam({"p": p}, lr=0.1)
    p.grad = np.array([1.0])
    opt.step()
    assert abs(p.data[0] - 0.9) < 1e-8


def test_adam_rejects_shape_mismatch():
    p = parameter([1.0, 2.0])
    opt = Adam({"p": p})
    p.grad = np.zeros(3)
    with pytest.raises(ValueError, match="shape"):
        opt.step()


def test_adam_missing_grad_means_zero():
    p = parameter([1.0])
    q = parameter([2.0])
    opt = Adam({"p": p, "q": q}, lr=0.1)
    p.grad = np.array([1.0])
    opt.step()
    assert q.data[0] == 2.0


def reference_adam_step(params, grads, m, v, t, lr, beta1=0.9, beta2=0.999,
                        eps=1e-8):
    """Per-parameter Adam, the update the flat optimizer must reproduce."""
    for name, p in params.items():
        g = np.asarray(grads.get(name, 0.0), dtype=np.float64)
        m[name] = beta1 * m[name] + (1.0 - beta1) * g
        v[name] = beta2 * v[name] + (1.0 - beta2) * g * g
        m_hat = m[name] / (1.0 - beta1 ** t)
        v_hat = v[name] / (1.0 - beta2 ** t)
        p.data = p.data - lr * m_hat / (np.sqrt(v_hat) + eps)


def test_adam_flat_update_matches_per_parameter_reference_bitwise():
    rng = np.random.default_rng(21)
    shapes = {"w": (3, 4), "b": (5,), "idle": (2, 2), "s": ()}
    init = {name: rng.normal(size=shape) for name, shape in shapes.items()}
    params = {name: parameter(init[name].copy()) for name in shapes}
    ref = {name: parameter(init[name].copy()) for name in shapes}
    m = {name: np.zeros(shape) for name, shape in shapes.items()}
    v = {name: np.zeros(shape) for name, shape in shapes.items()}
    opt = Adam(params, lr=0.05)
    for t, lr in enumerate((0.05, 0.02, 0.07), start=1):
        grads = {name: rng.normal(size=shapes[name]) * 10.0 ** rng.integers(-6, 3)
                 for name in ("w", "b", "s")}
        grads["w"][0, :2] = [0.0, -0.0]
        for name, p in params.items():
            p.grad = grads[name].copy() if name in grads else None
        opt.lr = lr
        opt.step()
        reference_adam_step(ref, grads, m, v, t, lr)
        for name in shapes:
            assert np.array_equal(params[name].data, ref[name].data), (t, name)
            assert params[name].data.shape == shapes[name]
    assert opt.step_count == 3
    assert np.array_equal(params["idle"].data, init["idle"])


class _Pair(Module):
    def __init__(self, rng):
        self.w = parameter(rng.normal(size=(3, 4)))
        self.b = parameter(rng.normal(size=(4,)))


def test_adam_holds_parameter_values_in_one_buffer():
    rng = np.random.default_rng(23)
    shapes = [(3, 4), (5,), (), (2, 1, 2)]
    init = [rng.normal(size=shape) for shape in shapes]
    params = {f"p{i}": parameter(x.copy()) for i, x in enumerate(init)}
    Adam(params)
    base = params["p0"].data.base
    assert base is not None and base.size == sum(x.size for x in init)
    for p, x in zip(params.values(), init):
        assert p.data.base is base and np.array_equal(p.data, x)


@pytest.mark.parametrize("between", ["load_state", "assigned_grad", "none_grad"])
def test_adam_folds_in_what_was_replaced_between_steps(between):
    rng = np.random.default_rng(24)
    net = _Pair(rng)
    params = net.parameters()
    ref = {name: parameter(p.data.copy()) for name, p in params.items()}
    m = {name: np.zeros(p.data.shape) for name, p in params.items()}
    v = {name: np.zeros(p.data.shape) for name, p in params.items()}
    opt = Adam(params, lr=0.05)
    base = params["w"].data.base
    for t in (1, 2, 3):
        grads = {name: rng.normal(size=p.data.shape) for name, p in params.items()}
        opt.zero_grad()
        for name, p in params.items():
            p.accumulate_grad(grads[name])
        if t == 2 and between == "load_state":
            state = {name: rng.normal(size=p.data.shape) for name, p in params.items()}
            net.load_state(state)
            for name, value in state.items():
                ref[name].data = value.copy()
        elif t == 2 and between == "assigned_grad":
            grads["w"] = rng.normal(size=(3, 4))
            params["w"].grad = grads["w"].copy()
        elif t == 2:
            params["b"].grad = None
            del grads["b"]
        opt.step()
        reference_adam_step(ref, grads, m, v, t, 0.05)
        for name, p in params.items():
            assert np.array_equal(p.data, ref[name].data), (t, name)
            assert p.data.base is base


def test_zeroed_gradient_view_first_write_matches_add_zero_bitwise():
    special = [-0.0, 0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, -2.5e-310]
    neg_nan = np.array([0xFFF8000000000123], dtype=np.uint64).view(np.float64)
    column = np.array(special + [neg_nan[0], 1.5]).reshape(5, 2)
    for g in (column, column[:, :1]):       # (5, 2) and (5, 1) broadcast
        p = parameter(np.ones((5, 2)))
        opt = Adam({"p": p})
        opt.zero_grad()
        p.accumulate_grad(g)
        expected = np.add(g, 0.0, out=np.empty((5, 2)))
        assert p.grad.tobytes() == expected.tobytes()


# ----------------------------------------------------------------------
# fused ops against the primitive-op compositions they replace
# ----------------------------------------------------------------------

def composite_gelu(t):
    """gelu as nine primitive tape ops; `gelu`'s values must match it bit
    for bit, and its gradient within 1e-12 of the largest entry."""
    c = 0.7978845608028654
    inner = (t + t * t * t * 0.044715) * c
    return t * (tanh(inner) + 1.0) * 0.5


def composite_layer_norm(x, gamma, beta, eps=1e-5):
    """Layer norm as twelve primitive tape ops, centring by adding -mean."""
    k = 1.0 / x.shape[-1]
    mu = x.sum(axis=-1, keepdims=True) * k
    centered = x + (-mu)
    var = (centered * centered).sum(axis=-1, keepdims=True) * k
    return centered * ((var + eps) ** -0.5) * gamma + beta


def _inputs(rng, shape):
    x = rng.normal(scale=2.0, size=shape)
    x.flat[:4] = [0.0, -0.0, 1e-160, -30.0]
    return x


def _assert_x_grad_near(fused, composite):
    """x's gradient of a closed-form backward against the composite's:
    within 1e-12 of the composite's largest entry."""
    assert fused.shape == composite.shape
    assert np.max(np.abs(fused - composite)) <= 1e-12 * np.max(np.abs(composite))


def _gelu_run(op, x0, upstream, residual, seed=None):
    p = parameter(x0.copy())
    x = p * 1.5                     # an op node, not a leaf
    y = op(x)
    if residual:
        y = y + x
    if seed is not None:
        seeded_root(y, seed).backward()
    else:
        (y * upstream).sum().backward()
    return y.data, p.grad


@pytest.mark.parametrize("residual", [False, True])
def test_gelu_matches_composite_bitwise(residual):
    rng = np.random.default_rng(30)
    x0 = _inputs(rng, (7, 9))
    upstream = rng.normal(size=(7, 9))
    upstream[0, :3] = [0.0, -0.0, 1e-300]
    fused = _gelu_run(gelu, x0, upstream, residual)
    ref = _gelu_run(composite_gelu, x0, upstream, residual)
    assert _bytes_equal(fused[0], ref[0])
    _assert_x_grad_near(fused[1], ref[1])


def test_gelu_incoming_negative_zero_gradient_matches_composite():
    rng = np.random.default_rng(31)
    x0 = _inputs(rng, (4, 6))
    seed = rng.normal(size=(4, 6))
    seed[::2, ::2] = -0.0
    seed[1, 1] = -5e-324
    fused = _gelu_run(gelu, x0, None, True, seed=seed)
    ref = _gelu_run(composite_gelu, x0, None, True, seed=seed)
    assert _bytes_equal(fused[0], ref[0])
    _assert_x_grad_near(fused[1], ref[1])


def test_gelu_gradient_matches_finite_differences():
    # 0 and its neighbours, saturated tanh at +-30, near the derivative's
    # zero at about -0.75, and +-3
    x = parameter([0.0, -0.0, 1e-160, 30.0, -30.0, -0.75, 3.0, -3.0])
    gelu(x).sum().backward()
    fd = finite_diff_grad(lambda t: gelu(t).sum().item(), x, eps=1e-6)
    assert np.max(np.abs(x.grad - fd)) < 1e-8
    assert x.grad[:5].tolist() == [0.5, 0.5, 0.5, 1.0, 0.0]


def test_gelu_is_one_tape_node():
    x = parameter(np.ones(3))
    out = gelu(x)
    assert out._parents == (x,)


def test_gelu_of_no_rows_is_empty():
    for grad in (nullcontext, no_grad):
        with grad():
            assert gelu(parameter(np.zeros((0, 3)))).shape == (0, 3)


def _ln_run(op, x0, g0, b0, upstream, residual, seed=None):
    p = parameter(x0.copy())
    gamma, beta = parameter(g0.copy()), parameter(b0.copy())
    x = p * 1.5
    y = op(x, gamma, beta)
    if residual:
        y = y + x
    if seed is not None:
        seeded_root(y, seed).backward()
    else:
        (y * upstream).sum().backward()
    return y.data, p.grad, gamma.grad, beta.grad


def _ln_params(rng, dim):
    gamma = rng.normal(size=dim)
    gamma[:2] = [-0.0, 0.0]
    return gamma, rng.normal(size=dim)


def _assert_ln_matches(fused, composite):
    """Output, gamma's and beta's gradients byte for byte; x's within 1e-12
    of the composite's largest entry."""
    (out, gx, gg, gb), (out_c, gx_c, gg_c, gb_c) = fused, composite
    assert _bytes_equal(out, out_c)
    assert _bytes_equal(gg, gg_c) and _bytes_equal(gb, gb_c)
    _assert_x_grad_near(gx, gx_c)


@pytest.mark.parametrize("shape", [(6, 8), (3, 5, 8), (1, 4, 8)])
@pytest.mark.parametrize("residual", [False, True])
def test_layer_norm_matches_composite_bitwise(shape, residual):
    rng = np.random.default_rng(32)
    x0 = _inputs(rng, shape)
    x0[-1] = 3.0                    # constant rows: zero variance
    g0, b0 = _ln_params(rng, shape[-1])
    upstream = rng.normal(size=shape)
    upstream.flat[:3] = [0.0, -0.0, 1e-300]
    fused = _ln_run(layer_norm, x0, g0, b0, upstream, residual)
    ref = _ln_run(composite_layer_norm, x0, g0, b0, upstream, residual)
    _assert_ln_matches(fused, ref)


def test_layer_norm_incoming_negative_zero_gradient_matches_composite():
    rng = np.random.default_rng(33)
    x0 = _inputs(rng, (5, 6))
    g0, b0 = _ln_params(rng, 6)
    seed = rng.normal(size=(5, 6))
    seed[:, 0] = -0.0
    seed[2] = -0.0
    fused = _ln_run(layer_norm, x0, g0, b0, None, True, seed=seed)
    ref = _ln_run(composite_layer_norm, x0, g0, b0, None, True, seed=seed)
    _assert_ln_matches(fused, ref)


@st.composite
def _closed_form_case(draw):
    """1-5 rows of width 4-64 at one scale in 1e-3..1e3, each row offset
    by up to 100 times the scale and some rows constant, and an incoming
    gradient with -0.0 entries."""
    rows, width = draw(st.integers(1, 5)), draw(st.integers(4, 64))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    scale = 10.0 ** draw(st.floats(-3.0, 3.0))
    offsets = scale * np.array(draw(st.lists(st.floats(-100.0, 100.0),
                                             min_size=rows, max_size=rows)))
    x = rng.normal(scale=scale, size=(rows, width)) + offsets[:, None]
    constant = np.array(draw(st.lists(st.booleans(), min_size=rows, max_size=rows)))
    x[constant] = offsets[constant, None]
    seed = rng.normal(size=(rows, width))
    seed[rng.random((rows, width)) < 0.25] = -0.0
    return x, seed, _ln_params(rng, width)


@settings(derandomize=True, deadline=None)
@given(_closed_form_case())
def test_closed_form_backwards_match_composites(case):
    # width >= 4: at width 2 with var >> eps, x's true gradient is nearly
    # zero, and at scale 1e3 both forms miss a long-double reference by
    # ~1e-4 of its largest entry, so neither is a reference for the other
    x0, seed, (g0, b0) = case
    fused = _gelu_run(gelu, x0, None, False, seed=seed)
    ref = _gelu_run(composite_gelu, x0, None, False, seed=seed)
    assert _bytes_equal(fused[0], ref[0])
    _assert_x_grad_near(fused[1], ref[1])
    _assert_ln_matches(_ln_run(layer_norm, x0, g0, b0, None, False, seed=seed),
                       _ln_run(composite_layer_norm, x0, g0, b0, None, False, seed=seed))


def test_layer_norm_is_one_tape_node():
    x, gamma, beta = (parameter(np.ones((2, 3))), parameter(np.ones(3)),
                      parameter(np.zeros(3)))
    out = layer_norm(x, gamma, beta)
    assert out._parents == (x, gamma, beta)


def test_layer_norm_gradients_match_finite_differences():
    rng = np.random.default_rng(34)
    x = parameter(rng.normal(size=(2, 3, 5)))
    gamma = parameter(rng.normal(size=5))
    beta = parameter(rng.normal(size=5))
    weight = rng.normal(size=(2, 3, 5))

    def loss_fn(_=None):
        return (layer_norm(x, gamma, beta) * weight).sum()

    loss_fn().backward()
    for p in (x, gamma, beta):
        fd = finite_diff_grad(lambda _: loss_fn().item(), p, eps=1e-5)
        assert rel_err(p.grad, fd) < 1e-6


def test_sub_is_one_tape_node_and_matches_add_neg_bitwise():
    rng = np.random.default_rng(35)
    a0, b0 = rng.normal(size=(4, 3)), rng.normal(size=(1, 3))
    w = rng.normal(size=(4, 3))
    results = []
    for fused in (True, False):
        a, b = parameter(a0.copy()), parameter(b0.copy())
        x = a * 2.0
        out = x - b if fused else x + (-b)
        if fused:
            assert out._parents == (x, b)
        ((out * w).sum() + (b * x).sum()).backward()
        results.append((out.data, a.grad, b.grad))
    for u, v in zip(*results):
        assert np.array_equal(u, v)
    c = parameter(b0.copy())
    (1.0 - c).sum().backward()
    assert np.array_equal(c.grad, -np.ones((1, 3)))


def test_getitem_basic_index_grads_match_scatter_add():
    rng = np.random.default_rng(36)
    data = rng.normal(size=(3, 4, 5))
    for idx in (1, (2, 3), (0, 1, 4), (slice(1, None), 2),
                (slice(None), slice(0, 4, 2), np.int64(3))):
        p = parameter(data.copy())
        picked = p[idx]
        w = rng.normal(size=picked.shape)
        (picked * w).sum().backward()
        expect = np.zeros(data.shape)
        np.add.at(expect, idx, w)
        assert np.array_equal(p.grad, expect), idx


# ----------------------------------------------------------------------
# fused linear against its composite, and the attention softmax
# ----------------------------------------------------------------------

def _bytes_equal(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _composite_linear(x, weight, bias):
    out = matmul(x, weight)
    return out if bias is None else out + bias


def _run_linear(op, x_data, w_data, b_data, fan_out, seed):
    """Value and (x, weight, bias) gradients of op through a loss whose
    incoming gradient holds -0.0 entries; with fan_out, x also feeds a
    second map and a product before the first."""
    x = parameter(x_data.copy())
    w = parameter(w_data.copy())
    b = None if b_data is None else parameter(b_data.copy())
    rng = np.random.default_rng(seed)
    loss = 0.0
    if fan_out:
        loss = (x * 3.0).sum() + op(x, w, None).sum()
    y = op(x, w, b)
    c = rng.normal(size=y.shape)
    c[rng.random(y.shape) < 0.3] = -0.0
    loss = (y * c).sum() + loss
    loss.backward()
    grads = [x.grad, w.grad] + ([] if b is None else [b.grad])
    return y.data, grads


@pytest.mark.parametrize("x_shape", [(5, 3), (4, 6, 3), (3, 4, 3)],
                         ids=["2d", "hwc", "windows"])
@pytest.mark.parametrize("with_bias", [True, False], ids=["bias", "nobias"])
@pytest.mark.parametrize("fan_out", [False, True], ids=["single", "fanout"])
def test_linear_matches_composite_bytes(x_shape, with_bias, fan_out):
    rng = np.random.default_rng(11)
    x_data = rng.normal(size=x_shape)
    x_data[0, ...] = 0.0   # zero rows make exact-zero products
    w_data = rng.normal(size=(3, 7))
    b_data = rng.normal(size=7) if with_bias else None
    got, got_grads = _run_linear(linear, x_data, w_data, b_data, fan_out, 5)
    want, want_grads = _run_linear(_composite_linear, x_data, w_data, b_data, fan_out, 5)
    assert _bytes_equal(got, want)
    assert len(got_grads) == len(want_grads)
    for g, w in zip(got_grads, want_grads):
        assert _bytes_equal(g, w)


def test_linear_is_one_tape_node():
    x = parameter(np.ones((2, 3, 4)))
    y = linear(x, parameter(np.ones((4, 5))), parameter(np.zeros(5)))
    assert len(y._parents) == 3 and all(p._parents == () for p in y._parents)


def test_linear_rejects_bad_operands():
    with pytest.raises(ValueError, match="2-D"):
        linear(Tensor(np.ones(3)), Tensor(np.ones((3, 2))))
    with pytest.raises(ValueError, match="mismatch"):
        linear(Tensor(np.ones((2, 4, 6))), Tensor(np.ones((3, 2))))


def test_attention_weights_rows_sum_to_one_with_extreme_logits():
    # one head whose identity value and output maps pass the weights
    # through: query rows (±1000, 0, 0) meet keys (1, 0, 0), (-1, 0, 0), 0
    xq = Tensor(np.array([[1000.0, 0.0, 0.0], [-1000.0, 0.0, 0.0]]))
    eye = Tensor(np.eye(3))
    w_key = Tensor(np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]))
    out = attention_sublayer(xq, eye, eye, w_key, eye, eye, 1, 1.0).data
    assert np.all(np.isfinite(out))
    assert np.allclose(out.sum(axis=-1), 1.0)


# ----------------------------------------------------------------------
# tape-free fused ops
# ----------------------------------------------------------------------

def _fused_case(name, rng):
    """The op called `name` over fresh parameters drawn from `rng`."""
    x, y = parameter(rng.normal(size=(2, 3, 4))), parameter(rng.normal(size=(2, 3, 4)))
    w, b = parameter(rng.normal(size=(4, 5))), parameter(rng.normal(size=5))
    g, bias = parameter(rng.normal(size=4)), parameter(rng.normal(size=(2, 3, 3)))
    if name == "gather":
        layout = SegmentLayout((("a", 2, 2), ("b", 1, 3)))
        return PairwiseRegionBias(layout, 2, rng).bias
    wq, wk, wv, wo = (parameter(rng.normal(size=(4, 4))) for _ in range(4))
    w2 = parameter(rng.normal(size=(5, 4)))
    b4 = b[:4]   # sliced here, so that `Tensor._make` sees only the op itself
    # a joint layer's 2-D tokens, whose heads a tape-free call walks in
    # blocks; tape-free, the term comes as the function of a slice of heads
    xq, xk = parameter(x.data[0]), parameter(y.data[0])

    def attend():
        terms = [bias] if grad_enabled() else lambda heads: [bias.data[heads]]
        return attention_sublayer(xq, xk, wq, wk, wv, wo, 2, 0.5, terms)

    return {
        "linear": lambda: linear(x, w, b),
        "linear_no_bias": lambda: linear(x, w),
        "matmul_raw_operand": lambda: matmul(x.data, w),
        "layer_norm": lambda: layer_norm(x, g, b4),
        "gelu": lambda: gelu(x),
        "concat": lambda: concat([x, y], axis=1),
        "attention_sublayer": attend,
        "feed_forward_sublayer": lambda: feed_forward_sublayer(x, y, g, b4, w, b, w2, b4),
    }[name]


@pytest.mark.parametrize("name", ["linear", "linear_no_bias", "matmul_raw_operand",
                                  "layer_norm", "gelu", "concat", "gather",
                                  "attention_sublayer", "feed_forward_sublayer"])
def test_tape_free_fused_op_matches_taped_bytes_and_builds_no_node(monkeypatch, name):
    op = _fused_case(name, np.random.default_rng(7))
    taped = op()
    assert taped.requires_grad and taped._backward is not None
    made = []
    original = Tensor._make
    monkeypatch.setattr(Tensor, "_make", staticmethod(
        lambda *args: made.append(1) or original(*args)))
    if name == "attention_sublayer":
        # a budget of one head's 3 x 3 logits splits the 2 heads
        monkeypatch.setattr(tensor, "_BLOCK_BYTES", 8 * 3 * 3)
        assert len(tensor._blocks(2, 3 * 3)) == 2
    with no_grad():
        free = op()
    assert free.data.tobytes() == taped.data.tobytes()
    assert not free.requires_grad and free._parents == ()
    assert made == []
