"""Training loop tests: determinism, config validation, loss behavior."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ctxtrack.errors import ConfigError, NumericError
from ctxtrack.imageops import CONTEXT, box_window
from ctxtrack.model import TrackerNet, toy_spec
from ctxtrack.synthetic import SequenceConfig, gen_sequence
from ctxtrack.train import TrainConfig, _jittered_window, _lr_at, toy_train


def _static_sequence(num_frames=2, seed=0):
    """Target sits still: with zero jitter every step sees the same crops."""
    return gen_sequence(SequenceConfig(
        seed=seed, num_frames=num_frames, frame_size=64, box_size=16.0,
        step_sigma=0.0, num_distractors=0))


def _net(seed=0):
    return TrackerNet(toy_spec(), np.random.default_rng(seed))


ZERO_JITTER = dict(prev_center_jitter=0.0, prev_scale_jitter=0.0,
                   search_center_jitter=0.0, search_scale_jitter=0.0)


class TestTrainConfig:
    def test_defaults_valid(self):
        TrainConfig()

    def test_rejections(self):
        with pytest.raises(ConfigError, match="steps"):
            TrainConfig(steps=0)
        with pytest.raises(ConfigError, match="lr"):
            TrainConfig(lr=-1e-3)
        with pytest.raises(ConfigError, match="lr"):
            TrainConfig(lr=1e30)
        with pytest.raises(ConfigError, match="jitter"):
            TrainConfig(prev_center_jitter=0.5)
        with pytest.raises(ConfigError, match="outside the crop"):
            TrainConfig(search_center_jitter=0.45,
                        search_scale_jitter=0.2)


class TestToyTrain:
    def test_needs_two_frames(self):
        seq = _static_sequence(num_frames=1)
        with pytest.raises(ConfigError, match="at least 2"):
            toy_train(_net(), seq, TrainConfig(steps=1))

    def test_one_loss_per_step_all_finite(self):
        losses = toy_train(_net(), _static_sequence(),
                           TrainConfig(steps=3, seed=1))
        assert len(losses) == 3
        assert all(np.isfinite(v) for v in losses)
        assert all(v > 0 for v in losses)

    def test_zero_lr_keeps_loss_constant(self):
        # Two frames and zero jitter make every step evaluate the same
        # triplet, so with lr=0 the loss sequence is exactly constant.
        cfg = TrainConfig(steps=4, lr=0.0, seed=2, **ZERO_JITTER)
        losses = toy_train(_net(3), _static_sequence(), cfg)
        assert losses == [losses[0]] * 4

    def test_jitter_varies_loss_even_with_zero_lr(self):
        cfg = TrainConfig(steps=4, lr=0.0, seed=2)
        losses = toy_train(_net(3), _static_sequence(), cfg)
        assert len(set(losses)) > 1

    def test_deterministic(self):
        cfg = TrainConfig(steps=3, seed=5)
        a = toy_train(_net(4), _static_sequence(seed=6), cfg)
        b = toy_train(_net(4), _static_sequence(seed=6), cfg)
        assert a == b

    def test_loss_decreases_on_static_scene(self):
        # Full convergence is the acceptance suite's job; here 40 steps
        # must show a clear downward trend on the easiest possible scene.
        cfg = TrainConfig(steps=40, seed=7, **ZERO_JITTER)
        losses = toy_train(_net(8), _static_sequence(), cfg)
        assert losses[-1] < losses[0]
        assert min(losses) < 0.9 * losses[0]

    def test_lr_schedule_fields_change_step_sizes(self):
        # Both schedules start at lr, so the first update is the same; the
        # second is smaller where the cosine decays to half of lr.
        cfg_held = TrainConfig(steps=3, lr=1e-2, seed=11, final_lr_scale=1.0,
                               **ZERO_JITTER)
        cfg_half = TrainConfig(steps=3, lr=1e-2, seed=11, final_lr_scale=0.5,
                               **ZERO_JITTER)
        held = toy_train(_net(12), _static_sequence(), cfg_held)
        half = toy_train(_net(12), _static_sequence(), cfg_half)
        assert held[:2] == half[:2]         # loss before and after step 0
        assert held[2] != half[2]           # different second step size

    def test_schedule_validation(self):
        with pytest.raises(ConfigError, match="final_lr_scale"):
            TrainConfig(final_lr_scale=0.0)

    def test_final_lr_scale_one_holds_lr(self):
        cfg = TrainConfig(steps=9, lr=3e-3, final_lr_scale=1.0)
        assert [_lr_at(cfg, step) for step in range(9)] == [cfg.lr] * 9

    def test_box_too_elongated_for_the_window_is_a_config_error(self):
        # A 48x10 box has aspect ratio 4.8; the centered window at context 2
        # has side 2 * sqrt(480) = 43.8 < 48, so no crop can hold it.
        seq = _static_sequence()
        seq.boxes = [(8.0, 20.0, 56.0, 30.0)] * len(seq)
        with pytest.raises(ConfigError, match="aspect ratio"):
            toy_train(_net(), seq, TrainConfig(steps=1))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_loss_raises(self):
        net = _net(9)
        net.patch.proj.weight.data[:] = np.nan
        with pytest.raises(NumericError, match="non-finite"):
            toy_train(net, _static_sequence(), TrainConfig(steps=1))

    def test_saturated_classification_raises_numeric_error(self):
        # sigmoid(40) rounds to exactly 1.0, which the loss cannot take
        net = _net(9)
        net.head.cls_out.bias.data[:] = 40.0
        with pytest.raises(NumericError,
                           match="saturated classification output at step 0"):
            toy_train(net, _static_sequence(), TrainConfig(steps=1))


@settings(derandomize=True, deadline=None)
@given(steps=st.integers(1, 10_000),
       final_lr_scale=st.floats(0.0, 1.0, exclude_min=True))
def test_lr_schedule_decays_from_lr_to_its_floor(steps, final_lr_scale):
    cfg = TrainConfig(steps=steps, lr=3e-3, final_lr_scale=final_lr_scale)
    lrs = [_lr_at(cfg, step) for step in range(steps)]
    assert lrs[0] == cfg.lr
    assert all(a >= b for a, b in zip(lrs, lrs[1:]))
    if steps >= 2:
        assert lrs[-1] == cfg.lr * final_lr_scale


class _Draws:
    """Stands in for the generator: the k-th `uniform(lo, hi)` returns
    lo + (hi - lo) * fractions[k], so a test can reach either end."""

    def __init__(self, fractions):
        self.fractions = iter(fractions)

    def uniform(self, lo, hi):
        return lo + (hi - lo) * next(self.fractions)


def _bits(window):
    return [v.hex() for v in (window.cx, window.cy, window.size)], window.out_size


_COORD = st.floats(-200.0, 200.0)
_SIDE = st.floats(1.0, 100.0)
_JITTER = st.floats(0.0, 0.5, exclude_max=True)


@settings(derandomize=True, deadline=None)
@given(x1=_COORD, y1=_COORD, w=_SIDE, h=_SIDE, square=st.booleans(),
       center_jitter=_JITTER, scale_jitter=_JITTER,
       out_size=st.sampled_from([16, 64, 224]),
       fractions=st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3),
       seed=st.integers(0, 2**32 - 1))
def test_jittered_window_stays_within_its_jitter_of_the_box_window(
        x1, y1, w, h, square, center_jitter, scale_jitter, out_size,
        fractions, seed):
    box = (x1, y1, x1 + w, y1 + (w if square else h))
    base = box_window(box, out_size)
    still = _jittered_window(np.random.default_rng(seed), box, out_size, 0.0, 0.0)
    assert _bits(still) == _bits(base)

    window = _jittered_window(_Draws(fractions), box, out_size,
                              center_jitter, scale_jitter)
    bw, bh = box[2] - box[0], box[3] - box[1]
    # the bounds hold up to the rounding of one product and one sum
    assert abs(window.cx - base.cx) <= center_jitter * bw + 1e-9
    assert abs(window.cy - base.cy) <= center_jitter * bh + 1e-9
    side = CONTEXT * np.sqrt(bw * bh)
    assert (1.0 - scale_jitter) * side * (1.0 - 1e-12) <= window.size
    assert window.size <= (1.0 + scale_jitter) * side * (1.0 + 1e-12)

    try:
        TrainConfig(search_center_jitter=center_jitter,
                    search_scale_jitter=scale_jitter)
    except ConfigError:
        return
    if square:
        cx1, cy1, cx2, cy2 = window.to_crop(box)
        slack = 1e-9 * out_size
        assert min(cx1, cy1) >= -slack and max(cx2, cy2) <= out_size + slack
