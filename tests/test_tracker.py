"""Tracker loop, metrics, and update-simulation tests."""

import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

import ctxtrack.tracker as tracker_mod
from ctxtrack.backbone import PatchEmbed
from ctxtrack.errors import ConfigError, NumericError
from ctxtrack.heads import HeadOutputs
from ctxtrack.model import TrackerNet, small_spec, toy_spec
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
            TrackConfig(update_mode="sometimes")
        with pytest.raises(ConfigError, match="seed_confidence"):
            TrackConfig(seed_confidence=1.5)


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

            def encode(self, images, box=None):
                return images

            def bias_terms(self):
                return None

            def forward(self, *inputs, bias_terms=None):
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

        def counting(self, images):
            calls.append(len(images))
            return original(self, images)

        monkeypatch.setattr(PatchEmbed, "__call__", counting)
        seq = _sequence(num_frames=5)
        records = run_tracker(_net(), seq, TrackConfig(update_mode=mode))
        # the target once, every search crop, and each previous template
        # that a later frame uses
        frames = len(seq)
        assert all(r.updated == (mode == "always-last") for r in records)
        assert sum(calls) == (frames + 1 if mode == "never" else 2 * frames - 1)

    def test_previous_features_follow_the_last_accepted_frame(self, monkeypatch):
        pattern = iter([True, False, False, True, True, False, True])
        monkeypatch.setattr(TrackState, "should_update",
                            lambda self, c: UpdateDecision(next(pattern), 0.5))
        net = _net()
        seen = []
        original = net.forward

        def recording(target, previous, search, bias_terms=None):
            seen.append((previous.tokens.data.copy(), previous.box.data.copy()))
            return original(target, previous, search, bias_terms=bias_terms)

        monkeypatch.setattr(net, "forward", recording)
        seq = _sequence(num_frames=8)
        records = run_tracker(net, seq)
        assert [r.updated for r in records] == [True, False, False, True,
                                               True, False, True]

        template = make_template(seq.frames[0], seq.boxes[0], net.spec.search_size)
        for record, (features, box) in zip(records, seen):
            with no_grad():
                encoded = net.encode([template.crop], template.box)
            assert box.tobytes() == encoded.box.data.tobytes()
            assert features.tobytes() == encoded.tokens.data.tobytes()
            if record.updated:
                template = make_template(seq.frames[record.frame], record.box,
                                         net.spec.search_size)

    def test_decoded_outputs_carry_no_tape(self, monkeypatch):
        flags = []
        original = tracker_mod.decode_box

        def recording(outputs):
            flags.append(outputs.cls.requires_grad or outputs.reg.requires_grad)
            return original(outputs)

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
            out = net.forward(net.encode([rng.random((32, 32, 3)), rng.random((64, 64, 3)),
                                          rng.random((64, 64, 3))]))
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


def _with_box(net, images, box=(20.0, 20.0, 40.0, 40.0)):
    """The three images, each encoded on its own, the previous one with its
    box."""
    target, previous, search = images
    return net.encode([target]), net.encode([previous], box), net.encode([search])


class TestReusedBiasTerms:
    """Each joint layer's position-bias terms are built once per sequence."""

    @staticmethod
    def _count_bias_calls(monkeypatch):
        calls = Counter()
        for cls, name in ((UntiedPositionBias, "bias"),
                          (UntiedPositionBias, "bias_heads"),
                          (PairwiseRegionBias, "bias"),
                          (PairwiseRegionBias, "block"),
                          (PairwiseRegionBias, "bias_heads")):
            original = getattr(cls, name)

            def counting(self, *args, _original=original, _name=name):
                calls[(id(self), _name, args)] += 1
                return _original(self, *args)

            monkeypatch.setattr(cls, name, counting)
        return calls

    @staticmethod
    def _record_terms(monkeypatch):
        passed = []
        original = TrackerNet.forward

        def recording(self, *args, bias_terms=None, **kwargs):
            passed.append(bias_terms)
            return original(self, *args, bias_terms=bias_terms, **kwargs)

        monkeypatch.setattr(TrackerNet, "forward", recording)
        return passed

    @staticmethod
    def _attributes(net):
        """Each attribute of the net and of every joint layer, by identity."""
        return [{name: id(value) for name, value in vars(obj).items()}
                for obj in [net, *_joint_layers(net)]]

    @pytest.mark.parametrize("mode", ["p-mean", "always-last"])
    def test_terms_are_built_once_per_layer_per_sequence(self, monkeypatch, mode):
        calls = self._count_bias_calls(monkeypatch)
        net = _net()
        run_tracker(net, _sequence(num_frames=5), TrackConfig(update_mode=mode))
        layers = _joint_layers(net)
        # each bias module makes its head function once, for the layer's
        # own queries and keys; no whole term is built while tracking
        assert {key[:2] for key in calls} == \
            {(id(layer.abs_bias), "bias_heads") for layer in layers} | \
            {(id(layer.rel_bias), "bias_heads") for layer in layers}
        assert calls[(id(net.neck_last.rel_bias), "bias_heads",
                      (("search",), ("target", "previous")))] == 1
        assert set(calls.values()) == {1}

    def test_two_frame_sequence_holds_nothing(self, monkeypatch):
        calls = self._count_bias_calls(monkeypatch)
        net = _net()
        passed = self._record_terms(monkeypatch)
        monkeypatch.setattr(net, "bias_terms", lambda: pytest.fail("built terms ahead"))
        run_tracker(net, _sequence(num_frames=2))
        assert passed == [None]
        # the one forward builds each layer's two terms once, one block of
        # heads at a time, and no whole term
        layers = _joint_layers(net)
        assert {key[:2] for key in calls} == \
            {(id(layer.abs_bias), "bias_heads") for layer in layers} | \
            {(id(layer.rel_bias), "bias_heads") for layer in layers}
        assert set(calls.values()) == {1}

    def test_terms_are_dropped_on_return(self, monkeypatch):
        net = _net()
        before = self._attributes(net)
        passed = self._record_terms(monkeypatch)
        run_tracker(net, _sequence(num_frames=5))
        # every frame reads one list of the seven layers' terms
        assert len(passed) == 4 and len(passed[0]) == 7
        assert all(terms is passed[0] for terms in passed)
        assert self._attributes(net) == before

    def test_terms_are_dropped_on_numeric_error(self, monkeypatch):
        net = _net()
        net.patch.proj.weight.data[:] = np.nan
        before = self._attributes(net)
        passed = self._record_terms(monkeypatch)
        with pytest.raises(NumericError, match="frame 1"):
            run_tracker(net, _sequence(num_frames=5))
        assert len(passed) == 1 and len(passed[0]) == 7
        assert self._attributes(net) == before

    @staticmethod
    def _gradients(net):
        for p in net.parameters().values():
            p.grad = None
        out = net.forward(*_with_box(net, _images()))
        (out.cls.sum() + out.reg.sum()).backward()
        return {name: p.grad for name, p in net.parameters().items()}

    def test_taped_forward_builds_its_own_terms(self):
        expected = self._gradients(_net())
        net = _net()
        run_tracker(net, _sequence(num_frames=5))
        after = self._gradients(net)
        terms = net.bias_terms()
        with no_grad():
            net.forward(*_with_box(net, _images()), bias_terms=terms)
        between = self._gradients(net)
        with pytest.raises(ValueError, match="builds its own bias terms"):
            net.forward(net.encode(_images()), bias_terms=terms)
        tables = [name for name in expected
                  if ".abs_bias." in name or ".rel_bias." in name]
        # every table the layers read gets a gradient
        assert all(expected[name] is not None for name in tables
                   if name.startswith(("stage3_joint", "neck_full"))
                   or ".abs_bias." in name)
        for grads in (after, between):
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
        with no_grad():
            images = _with_box(net, _images(1), (18.0, 22.0, 41.0, 37.0))
            plain = net.forward(*images)
            terms = net.bias_terms()
            reused = [net.forward(*images, bias_terms=terms) for _ in range(2)]
        for out in reused:
            assert out.cls.data.tobytes() == plain.cls.data.tobytes()
            assert out.reg.data.tobytes() == plain.reg.data.tobytes()

    @pytest.mark.parametrize("final_keys", ["templates", "all"])
    def test_bias_terms_are_each_layers_own_terms(self, final_keys):
        net = TrackerNet(toy_spec(final_keys=final_keys),
                         np.random.default_rng(0))
        terms = net.bias_terms()
        layers = _joint_layers(net)
        assert list(terms) == layers and len(layers) == 7
        for i, layer in enumerate(layers):
            # each held head function, over every head, gives the layer's
            # whole taped terms byte for byte
            shared, own = terms[layer](slice(None)), layer.bias_terms()
            assert all(isinstance(t, np.ndarray) for t in shared), i
            assert [t.shape for t in shared] == [t.shape for t in own], i
            assert [t.tobytes() for t in shared] == \
                [t.data.tobytes() for t in own], i

    def test_held_terms_keep_less_than_one_whole_term_per_layer(self):
        net = TrackerNet(small_spec(), np.random.default_rng(0))
        length, heads = net.layout.length, net.spec.heads
        whole = 8 * heads * length * length   # bytes of one (heads, L, L) term
        tracemalloc.start()
        try:
            terms = net.bias_terms()
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(terms) == 7
        # whole terms, two per layer, would keep about 117 MB; the head
        # functions keep the projected position rows, about 20 MB
        assert kept < 7 * whole / 2, kept


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
