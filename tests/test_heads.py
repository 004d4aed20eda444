"""Tests for heads, box decoding, targets, and the training objective."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ctxtrack.backbone import ltrb_map
from ctxtrack.heads import (
    HeadOutputs,
    Heads,
    _ltrb_to_boxes_tensor,
    build_targets,
    decode_box,
    giou_loss,
    giou_values,
    total_loss,
    tracking_loss,
    varifocal_loss,
)
from ctxtrack.imageops import STRIDE
from ctxtrack.tensor import Tensor

from reference_ops import finite_diff_grad, smoothed_l1


def rel_err(a, b, floor=1e-6):
    a, b = np.asarray(a), np.asarray(b)
    return np.max(np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), floor))


# ----------------------------------------------------------------------
# heads
# ----------------------------------------------------------------------

def test_heads_shapes_and_ranges():
    rng = np.random.default_rng(0)
    heads = Heads(32, rng)
    out = heads(Tensor(rng.normal(size=(4, 4, 32))))
    assert out.cls.shape == (4, 4, 1)
    assert out.reg.shape == (4, 4, 4)
    assert np.all(out.cls.data > 0) and np.all(out.cls.data < 1)
    assert np.all(out.reg.data > 0)


def test_heads_zeroed_final_layers():
    rng = np.random.default_rng(1)
    heads = Heads(16, rng)
    for lin in (heads.cls_out, heads.reg_out):
        lin.weight.data[...] = 0.0
        lin.bias.data[...] = 0.0
    out = heads(Tensor(rng.normal(size=(4, 4, 16))))
    assert np.array_equal(out.cls.data, np.full((4, 4, 1), 0.5))
    assert np.array_equal(out.reg.data, np.ones((4, 4, 4)))


def test_heads_reject_wrong_width():
    rng = np.random.default_rng(2)
    heads = Heads(16, rng)
    with pytest.raises(ValueError, match="features"):
        heads(Tensor(np.zeros((4, 4, 8))))


# ----------------------------------------------------------------------
# decoding
# ----------------------------------------------------------------------

def outputs_with_peak(cls_map, reg_map):
    return HeadOutputs(cls=Tensor(cls_map[..., None]), reg=Tensor(reg_map))


def test_decode_worked_example():
    cls = np.full((8, 8), 0.1)
    cls[3, 4] = 0.9
    reg = np.ones((8, 8, 4))
    reg[3, 4] = (2.0, 2.0, 2.0, 2.0)
    decoded = decode_box(outputs_with_peak(cls, reg))
    assert decoded.box == (32.0, 16.0, 96.0, 80.0)
    assert decoded.confidence == pytest.approx(0.9)
    assert decoded.position == (3, 4)
    assert not decoded.degenerate


def test_decode_zero_extent_flagged_degenerate():
    cls = np.full((4, 4), 0.2)
    cls[1, 1] = 0.8
    reg = np.zeros((4, 4, 4))
    decoded = decode_box(outputs_with_peak(cls, reg))
    assert decoded.degenerate


def test_decode_tie_breaks_to_lowest_flat_index():
    cls = np.full((4, 4), 0.5)
    reg = np.ones((4, 4, 4))
    decoded = decode_box(outputs_with_peak(cls, reg))
    assert decoded.position == (0, 0)


def test_encode_decode_roundtrip():
    box = (32.0, 16.0, 96.0, 80.0)
    reg = ltrb_map(box, (8, 8))
    cls = np.zeros((8, 8))
    cls[2, 3] = 1.0  # any position inside the box works
    decoded = decode_box(outputs_with_peak(cls, reg))
    assert decoded.box == box


# ----------------------------------------------------------------------
# giou
# ----------------------------------------------------------------------

def test_giou_identical_boxes_loss_zero():
    box = Tensor(np.array([1.0, 2.0, 5.0, 7.0]))
    assert giou_loss(box, (1, 2, 5, 7)).item() == 0.0


def test_giou_disjoint_example():
    pred = Tensor(np.array([0.0, 0.0, 1.0, 1.0]))
    loss = giou_loss(pred, (2, 2, 3, 3))
    assert loss.item() == pytest.approx(16.0 / 9.0, abs=1e-12)


def test_giou_bounds_on_random_pairs():
    rng = np.random.default_rng(3)
    n = 10_000
    a = rng.uniform(0, 10, size=(n, 2))
    b = a + rng.uniform(0.1, 10, size=(n, 2))
    pred = Tensor(np.concatenate([a, b], axis=1))
    for _ in range(3):
        x1, y1 = rng.uniform(0, 10, size=2)
        gt = (x1, y1, x1 + rng.uniform(0.1, 10), y1 + rng.uniform(0.1, 10))
        vals = giou_values(pred, gt).data
        assert np.all(vals >= -1.0 - 1e-12) and np.all(vals <= 1.0 + 1e-12)
        losses = 1.0 - vals
        assert np.all(losses >= -1e-12) and np.all(losses <= 2.0 + 1e-12)


def test_giou_rejects_degenerate_gt():
    with pytest.raises(ValueError, match="degenerate"):
        giou_loss(Tensor(np.array([0.0, 0.0, 1.0, 1.0])), (2, 2, 2, 3))


def test_giou_gradcheck():
    rng = np.random.default_rng(4)
    pred = Tensor(rng.uniform(0, 4, size=(5, 2)), requires_grad=True)
    ext = rng.uniform(0.5, 4, size=(5, 2))

    # build boxes (x1, y1, x1+w, y1+h) from free corner + extent
    def boxes(p):
        from ctxtrack.tensor import concat
        return concat([p, p + ext], axis=1)

    gt = (1.0, 1.0, 3.5, 4.0)
    loss = giou_loss(boxes(pred), gt).sum()
    loss.backward()
    fd = finite_diff_grad(lambda _: float(giou_loss(boxes(pred), gt).data.sum()),
                          pred)
    assert rel_err(pred.grad, fd) < 1e-4


# ----------------------------------------------------------------------
# varifocal
# ----------------------------------------------------------------------

def test_varifocal_negative_example():
    p = Tensor(np.array([0.5]))
    q = np.array([0.0])
    loss = varifocal_loss(p, q)
    assert loss.item() == pytest.approx(-0.75 * 0.25 * np.log(0.5), abs=1e-9)
    assert loss.item() == pytest.approx(0.12997, abs=5e-6)


def test_varifocal_positive_example():
    p = Tensor(np.array([0.5]))
    q = np.array([0.5])
    loss = varifocal_loss(p, q)
    assert loss.item() == pytest.approx(-0.5 * np.log(0.5), abs=1e-12)
    assert loss.item() == pytest.approx(0.34657, abs=5e-6)


def test_varifocal_perfect_positive_approaches_zero():
    # the p -> 1 limit of the q = 1 branch; exactly 1 is outside the domain
    p = Tensor(np.array([1.0 - 1e-9]))
    q = np.array([1.0])
    assert varifocal_loss(p, q).item() == pytest.approx(0.0, abs=1e-8)


def test_varifocal_rejects_out_of_range():
    with pytest.raises(ValueError, match="strictly inside"):
        varifocal_loss(Tensor(np.array([1.0])), np.array([1.0]))
    with pytest.raises(ValueError, match="strictly inside"):
        varifocal_loss(Tensor(np.array([0.0])), np.array([0.0]))
    with pytest.raises(ValueError, match="targets"):
        varifocal_loss(Tensor(np.array([0.5])), np.array([1.5]))
    with pytest.raises(ValueError, match="shape"):
        varifocal_loss(Tensor(np.array([0.5, 0.5])), np.array([1.0]))


def test_varifocal_nonnegative_both_branches():
    rng = np.random.default_rng(5)
    p = Tensor(rng.uniform(0.01, 0.99, size=(64,)))
    q = np.where(rng.random(64) < 0.5, 0.0, rng.uniform(0.01, 1.0, size=64))
    per_pos_sum = varifocal_loss(p, q).item() * max(1.0, (q > 0).sum())
    assert per_pos_sum >= 0.0
    assert varifocal_loss(p, np.zeros(64)).item() >= 0.0


def test_varifocal_normalizes_by_positive_count():
    p = Tensor(np.full(4, 0.5))
    q = np.array([0.5, 0.5, 0.0, 0.0])
    expected = (2 * -0.5 * np.log(0.5) + 2 * -0.75 * 0.25 * np.log(0.5)) / 2
    assert varifocal_loss(p, q).item() == pytest.approx(expected, abs=1e-12)


def test_varifocal_gradcheck():
    rng = np.random.default_rng(6)
    logits = Tensor(rng.normal(size=(4, 4, 1)), requires_grad=True)
    q = np.where(rng.random((4, 4, 1)) < 0.7, 0.0,
                 rng.uniform(0.1, 1.0, size=(4, 4, 1)))
    loss = varifocal_loss(logits.sigmoid(), q)
    loss.backward()
    fd = finite_diff_grad(
        lambda _: float(varifocal_loss(logits.sigmoid(), q).data), logits)
    assert rel_err(logits.grad, fd) < 1e-5


# ----------------------------------------------------------------------
# targets
# ----------------------------------------------------------------------

@pytest.mark.parametrize("gt, cell, side", [
    # anchors sit at pixels 0, 16, 32, 48: only 16 lies strictly inside
    # (9, 23), and cell (1, 1) is 7 px from each side
    ((9, 9, 23, 23), (1, 1), 7 / 16),
    # 16 and 48 lie on the edges, so their cells have a zero side; the
    # four central cells are covered but only (2, 2) is positive, 16 px
    # from each side
    ((16, 16, 48, 48), (2, 2), 1.0),
], ids=["one_anchor_inside", "anchors_on_edges"])
def test_targets_worked_examples(gt, cell, side):
    boxes = _ltrb_to_boxes_tensor(Tensor(np.ones((4, 4, 4))))
    target = build_targets(gt, boxes)
    expected = np.zeros((4, 4), dtype=bool)
    expected[cell] = True
    assert np.array_equal(target.positives, expected)
    assert np.array_equal(target.sides[cell], [side] * 4)
    assert np.all(target.q[~target.positives] == 0.0)


def _grid_coordinate(cells):
    """A pixel coordinate in [0, cells * STRIDE], often a multiple of STRIDE."""
    return st.one_of(st.integers(0, cells).map(lambda k: float(k * STRIDE)),
                     st.floats(0.0, cells * STRIDE))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(data=st.data(), h=st.integers(1, 6), w=st.integers(1, 6))
def test_targets_positive_exactly_where_all_sides_positive(data, h, w):
    x1, x2 = sorted(data.draw(st.lists(_grid_coordinate(w), min_size=2, max_size=2,
                                       unique=True)))
    y1, y2 = sorted(data.draw(st.lists(_grid_coordinate(h), min_size=2, max_size=2,
                                       unique=True)))
    gt = (x1, y1, x2, y2)
    target = build_targets(gt, _ltrb_to_boxes_tensor(Tensor(np.ones((h, w, 4)))))
    assert np.array_equal(target.positives, (ltrb_map(gt, (h, w)) > 0).all(-1))
    if x2 - x1 > STRIDE and y2 - y1 > STRIDE:
        assert target.positives.any()


def test_targets_perfect_predictions_give_q_one():
    box = (16.0, 16.0, 48.0, 48.0)
    boxes = _ltrb_to_boxes_tensor(Tensor(ltrb_map(box, (4, 4))))
    target = build_targets(box, boxes)
    assert target.positives.sum() > 0
    assert np.allclose(target.q[target.positives], 1.0, atol=1e-12)


def test_targets_q_in_unit_interval():
    rng = np.random.default_rng(7)
    boxes = _ltrb_to_boxes_tensor(Tensor(np.exp(rng.normal(size=(4, 4, 4)))))
    target = build_targets((10, 12, 50, 40), boxes)
    assert np.all(target.q >= 0.0) and np.all(target.q <= 1.0)


def test_targets_reject_gt_outside_image():
    boxes = _ltrb_to_boxes_tensor(Tensor(np.ones((4, 4, 4))))
    with pytest.raises(ValueError, match="outside"):
        build_targets((10, 10, 70, 40), boxes)
    with pytest.raises(ValueError, match="degenerate"):
        build_targets((10, 10, 10, 40), boxes)


# ----------------------------------------------------------------------
# total loss
# ----------------------------------------------------------------------

def test_total_loss_arithmetic():
    assert total_loss(0.2, 0.4) == pytest.approx(0.9)
    assert total_loss(0.0, 0.0) == 0.0
    assert total_loss(0.6, 1.2) == pytest.approx(3.0 * total_loss(0.2, 0.4))


def test_tracking_loss_end_to_end_gradcheck():
    """Full objective vs finite differences, with targets frozen."""
    rng = np.random.default_rng(8)
    heads = Heads(8, rng)
    feats = Tensor(rng.normal(size=(4, 4, 8)))
    gt = (12.0, 10.0, 52.0, 46.0)

    out = heads(feats)
    total, parts, target = tracking_loss(out, gt)
    total.backward()

    # freeze the IoU-aware targets: finite differences must see the same
    # constants the backward pass saw, not re-derived ones
    from ctxtrack.heads import _ltrb_to_boxes_tensor, giou_loss as gl
    q = target.q
    mask = target.positives.astype(np.float64)

    def frozen_scalar(_=None):
        o = heads(feats)
        cls_term = varifocal_loss(o.cls, q)
        boxes = _ltrb_to_boxes_tensor(o.reg)
        gt_grid = tuple(v / 16.0 for v in gt)
        giou_term = (gl(boxes, gt_grid) * mask).sum() / mask.sum()
        l1_term = smoothed_l1(o.reg.data, gt, target.positives)
        return float((cls_term * 1.5 + giou_term * 1.5).data) + l1_term

    params = heads.parameters()
    for name in ("cls_out.bias", "reg_out.bias", "cls_fc1.bias", "reg_fc2.bias"):
        p = params[name]
        fd = finite_diff_grad(frozen_scalar, p)
        got = p.grad if p.grad is not None else np.zeros_like(p.data)
        assert rel_err(got, fd, floor=1e-5) < 1e-3, name


def test_tracking_loss_reports_parts():
    rng = np.random.default_rng(9)
    heads = Heads(8, rng)
    out = heads(Tensor(rng.normal(size=(4, 4, 8))))
    total, parts, target = tracking_loss(out, (12, 10, 52, 46))
    assert total.item() == pytest.approx(
        1.5 * parts["cls"] + 1.5 * parts["giou"] + parts["l1"])
    assert parts["giou"] > 0.0 and parts["cls"] > 0.0 and parts["l1"] > 0.0
    assert parts["l1"] == pytest.approx(smoothed_l1(out.reg.data, (12, 10, 52, 46),
                                                    target.positives))
