"""Tracker loop, metrics, and update-simulation tests."""

import math
from collections import Counter
from contextlib import nullcontext

import numpy as np
import pytest

import ctxtrack.tracker as tracker_mod
from ctxtrack.backbone import PatchEmbed
from ctxtrack.errors import ConfigError, NumericError
from ctxtrack.heads import HeadOutputs
from ctxtrack.model import TrackerNet, toy_spec
from ctxtrack.positional import PairwiseRegionBias, UntiedPositionBias
from ctxtrack.synthetic import SequenceConfig, gen_sequence
from ctxtrack.tensor import Tensor, no_grad
from ctxtrack.tracker import (TrackConfig, compute_metrics, make_template,
                              run_tracker, simulate_updates)
from ctxtrack.update import TrackState, UpdateDecision


def _sequence(num_frames=6, seed=0, **kw):
    return gen_sequence(SequenceConfig(seed=seed, num_frames=num_frames,
                                       frame_size=96, box_size=16.0, **kw))


def _net(seed=0):
    return TrackerNet(toy_spec(), np.random.default_rng(seed))


class TestTrackConfig:
    def test_rejections(self):
        with pytest.raises(ConfigError, match="update mode"):
            TrackConfig(update_mode="sometimes").validate()
        with pytest.raises(ConfigError, match="seed_confidence"):
            TrackConfig(seed_confidence=1.5).validate()
        with pytest.raises(ConfigError, match="context_scale"):
            TrackConfig(context_scale=-2.0).validate()


class TestRunTracker:
    def test_record_shape_and_ranges(self):
        seq = _sequence()
        records = run_tracker(_net(), seq)
        assert [r.frame for r in records] == list(range(1, len(seq)))
        for r in records:
            assert 0.0 <= r.iou <= 1.0
            assert 0.0 < r.confidence < 1.0
            x1, y1, x2, y2 = r.box
            assert x1 < x2 and y1 < y2

    def test_oracle_mode_scores_perfectly(self):
        seq = _sequence()
        records = run_tracker(_net(), seq, TrackConfig(oracle=True))
        assert all(r.iou == 1.0 for r in records)
        assert compute_metrics([r.iou for r in records]).ao == 1.0

    def test_single_frame_sequence_has_no_records(self):
        assert run_tracker(_net(), _sequence(num_frames=1)) == []

    def test_never_mode_never_updates(self):
        records = run_tracker(_net(), _sequence(),
                              TrackConfig(update_mode="never"))
        assert all(not r.updated for r in records)
        assert all(math.isnan(r.threshold) for r in records)

    def test_always_last_updates_every_frame(self):
        records = run_tracker(_net(), _sequence(),
                              TrackConfig(update_mode="always-last"))
        assert all(r.updated for r in records)
        assert all(math.isnan(r.threshold) for r in records)

    def test_first_threshold_is_seed_confidence(self):
        for mode in ("mean", "p-mean"):
            records = run_tracker(_net(), _sequence(),
                                  TrackConfig(update_mode=mode,
                                              seed_confidence=1.0))
            assert records[0].threshold == 1.0
            # Seeded at the maximum, the first frame can never update.
            assert not records[0].updated

    def test_deterministic(self):
        seq = _sequence(seed=3)
        a = run_tracker(_net(1), seq)
        b = run_tracker(_net(1), seq)
        assert a == b

    def test_degenerate_decode_holds_box_and_blocks_update(self):
        spec = toy_spec()
        grid = spec.search_size // 16

        class FakeNet:
            def __init__(self):
                self.spec = spec

            def encode(self, image):
                return image

            def reused_bias_terms(self):
                return nullcontext()

            def forward(self, target, previous, search, prev_box=None):
                cls = Tensor(np.full((grid, grid, 1), 0.9))
                reg = Tensor(np.zeros((grid, grid, 4)))
                return HeadOutputs(cls=cls, reg=reg)

        seq = _sequence()
        records = run_tracker(FakeNet(), seq,
                              TrackConfig(update_mode="always-last"))
        assert all(r.box == seq.boxes[0] for r in records)
        assert all(not r.updated for r in records)


class TestInference:
    """Tape-free inference with templates encoded once per change."""

    @pytest.mark.parametrize("mode", ["never", "always-last"])
    def test_patch_embedding_runs_once_per_new_image(self, monkeypatch, mode):
        calls = []
        original = PatchEmbed.__call__

        def counting(self, image):
            calls.append(image.shape)
            return original(self, image)

        monkeypatch.setattr(PatchEmbed, "__call__", counting)
        seq = _sequence(num_frames=5)
        records = run_tracker(_net(), seq, TrackConfig(update_mode=mode))
        # the target once, every search crop, and each previous template
        # that a later frame uses
        frames = len(seq)
        assert all(r.updated == (mode == "always-last") for r in records)
        assert len(calls) == (frames + 1 if mode == "never" else 2 * frames - 1)

    def test_previous_features_follow_the_last_accepted_frame(self, monkeypatch):
        pattern = iter([True, False, False, True, True, False, True])
        monkeypatch.setattr(TrackState, "should_update",
                            lambda self, c: UpdateDecision(next(pattern), 0.5))
        net = _net()
        seen = []
        original = net.forward

        def recording(target, previous, search, prev_box=None):
            seen.append((previous.grid.data.copy(), prev_box))
            return original(target, previous, search, prev_box=prev_box)

        monkeypatch.setattr(net, "forward", recording)
        seq = _sequence(num_frames=8)
        cfg = TrackConfig()
        records = run_tracker(net, seq, cfg)
        assert [r.updated for r in records] == [True, False, False, True,
                                               True, False, True]

        template = make_template(seq.frames[0], seq.boxes[0],
                                 cfg.context_scale, net.spec.search_size)
        for record, (features, prev_box) in zip(records, seen):
            assert prev_box == template.box
            assert features.tobytes() == \
                net.encode(template.crop).grid.data.tobytes()
            if record.updated:
                template = make_template(seq.frames[record.frame], record.box,
                                         cfg.context_scale,
                                         net.spec.search_size)

    def test_decoded_outputs_carry_no_tape(self, monkeypatch):
        flags = []
        original = tracker_mod.decode_box

        def recording(outputs, stride):
            flags.append(outputs.cls.requires_grad or outputs.reg.requires_grad)
            return original(outputs, stride)

        monkeypatch.setattr(tracker_mod, "decode_box", recording)
        records = run_tracker(_net(), _sequence())
        assert len(flags) == len(records)
        assert not any(flags)

    @pytest.mark.parametrize("poison", ["nan_weights", "overflowing_reg"])
    def test_non_finite_head_outputs_raise_numeric_error(self, poison):
        net = _net()
        if poison == "nan_weights":
            net.patch.proj.weight.data[:] = np.nan
        else:
            net.head.reg_out.bias.data[:] = 1e3   # exp overflows to inf
        with np.errstate(over="ignore"):
            with pytest.raises(NumericError, match="frame 1"):
                run_tracker(net, _sequence())
            # the failed run leaves tape recording switched back on
            rng = np.random.default_rng(0)
            out = net.forward(rng.random((32, 32, 3)), rng.random((64, 64, 3)),
                              rng.random((64, 64, 3)))
        assert out.cls.requires_grad and out.cls._parents


    def test_runaway_box_raises_numeric_error(self):
        # A large regression bias grows the box about 1e13-fold per frame;
        # the frame-2 template window then samples beyond int64 indices.
        net = _net()
        net.head.reg_out.bias.data[:] = 30.0
        with pytest.raises(NumericError, match="frame 2"):
            run_tracker(net, _sequence(),
                        TrackConfig(update_mode="always-last"))


def _joint_layers(net):
    return [*net.stage3_joint, *net.neck_full, net.neck_last]


def _images(seed=0):
    rng = np.random.default_rng(seed)
    return (rng.random((32, 32, 3)), rng.random((64, 64, 3)),
            rng.random((64, 64, 3)))


class TestReusedBiasTerms:
    """Each joint layer's position-bias terms are built once per sequence."""

    @staticmethod
    def _count_bias_calls(monkeypatch):
        calls = Counter()
        for cls, name in ((UntiedPositionBias, "bias"),
                          (PairwiseRegionBias, "bias"),
                          (PairwiseRegionBias, "block")):
            original = getattr(cls, name)

            def counting(self, *args, _original=original, _name=name):
                calls[(id(self), _name, args)] += 1
                return _original(self, *args)

            monkeypatch.setattr(cls, name, counting)
        return calls

    @staticmethod
    def _record_held(monkeypatch, net):
        held = []
        original = net.forward

        def recording(*args, **kwargs):
            held.append([layer._held is not None for layer in _joint_layers(net)])
            return original(*args, **kwargs)

        monkeypatch.setattr(net, "forward", recording)
        return held

    @pytest.mark.parametrize("mode", ["p-mean", "always-last"])
    def test_terms_are_built_once_per_layer_per_sequence(self, monkeypatch, mode):
        calls = self._count_bias_calls(monkeypatch)
        net = _net()
        run_tracker(net, _sequence(num_frames=5), TrackConfig(update_mode=mode))
        layers = _joint_layers(net)
        # every layer builds its absolute term; the last layer gathers its
        # search-row relative blocks instead of the full relative term
        assert {key[0] for key in calls if key[1] == "bias"} == \
            {id(layer.abs_bias) for layer in layers} | \
            {id(layer.rel_bias) for layer in layers[:-1]}
        assert calls[(id(net.neck_last.rel_bias), "block",
                      ("search", "target"))] == 1
        assert set(calls.values()) == {1}

    def test_two_frame_sequence_holds_nothing(self, monkeypatch):
        calls = self._count_bias_calls(monkeypatch)
        net = _net()
        held = self._record_held(monkeypatch, net)
        run_tracker(net, _sequence(num_frames=2))
        assert held == [[False] * 7]
        assert len([key for key in calls if key[1] == "bias"]) == 13
        assert set(calls.values()) == {1}

    def test_terms_are_dropped_on_return(self, monkeypatch):
        net = _net()
        held = self._record_held(monkeypatch, net)
        run_tracker(net, _sequence(num_frames=5))
        assert held == [[True] * 7] * 4
        assert all(layer._held is None for layer in _joint_layers(net))

    def test_terms_are_dropped_on_numeric_error(self, monkeypatch):
        net = _net()
        net.patch.proj.weight.data[:] = np.nan
        held = self._record_held(monkeypatch, net)
        with pytest.raises(NumericError, match="frame 1"):
            run_tracker(net, _sequence(num_frames=5))
        assert held == [[True] * 7]
        assert all(layer._held is None for layer in _joint_layers(net))

    @staticmethod
    def _gradients(net):
        net.zero_grad()
        out = net.forward(*_images(), prev_box=(20.0, 20.0, 40.0, 40.0))
        (out.cls.sum() + out.reg.sum()).backward()
        return {name: p.grad for name, p in net.parameters().items()}

    def test_taped_forward_builds_its_own_terms(self):
        expected = self._gradients(_net())
        net = _net()
        run_tracker(net, _sequence(num_frames=5))
        after = self._gradients(net)
        with net.reused_bias_terms():
            inside = self._gradients(net)
        tables = [name for name in expected
                  if ".abs_bias." in name or ".rel_bias." in name]
        # every table the layers read gets a gradient
        assert all(expected[name] is not None for name in tables
                   if name.startswith(("stage3_joint", "neck_full"))
                   or ".abs_bias." in name)
        for grads in (after, inside):
            assert grads.keys() == expected.keys()
            for name, grad in expected.items():
                if grad is None:
                    assert grads[name] is None, name
                else:
                    assert grads[name].tobytes() == grad.tobytes(), name

    @pytest.mark.parametrize("final_keys", ["templates", "all"])
    def test_forward_with_reused_terms_is_byte_identical(self, final_keys):
        net = TrackerNet(toy_spec(final_keys=final_keys),
                         np.random.default_rng(0))
        images = _images(1)
        box = (18.0, 22.0, 41.0, 37.0)
        with no_grad():
            plain = net.forward(*images, prev_box=box)
            with net.reused_bias_terms():
                reused = [net.forward(*images, prev_box=box) for _ in range(2)]
        for out in reused:
            assert out.cls.data.tobytes() == plain.cls.data.tobytes()
            assert out.reg.data.tobytes() == plain.reg.data.tobytes()


class TestComputeMetrics:
    def test_worked_example(self):
        m = compute_metrics([1.0, 0.6, 0.4])
        assert m.ao == pytest.approx(2.0 / 3.0)
        assert m.sr50 == pytest.approx(2.0 / 3.0)
        assert m.sr75 == pytest.approx(1.0 / 3.0)

    def test_success_thresholds_are_strict(self):
        m = compute_metrics([0.5, 0.75])
        assert m.sr50 == 0.5
        assert m.sr75 == 0.0

    def test_rejections(self):
        with pytest.raises(ConfigError, match="no frames"):
            compute_metrics([])
        with pytest.raises(ConfigError, match="overlap"):
            compute_metrics([0.5, 1.2])


class TestSimulateUpdates:
    def test_mean_mode_worked_example(self):
        decisions = simulate_updates([0.4, 0.9, 0.9, 0.2, 0.8], "mean",
                                     seed_confidence=1.0)
        assert [d.update for d in decisions] == [False, True, True, False, True]
        assert decisions[0].threshold == 1.0
        assert decisions[1].threshold == pytest.approx(0.7)

    def test_unconditional_modes(self):
        trace = [0.1, 0.9]
        never = simulate_updates(trace, "never")
        always = simulate_updates(trace, "always-last")
        assert [d.update for d in never] == [False, False]
        assert [d.update for d in always] == [True, True]
        assert all(math.isnan(d.threshold) for d in never + always)

    def test_rejections(self):
        with pytest.raises(ConfigError, match="unknown update mode"):
            simulate_updates([0.5], "median")
        with pytest.raises(ConfigError, match="confidence"):
            simulate_updates([1.5], "mean")
