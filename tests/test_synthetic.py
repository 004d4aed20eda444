"""Synthetic sequence generator tests."""

import numpy as np
import pytest

from ctxtrack.errors import ConfigError
from ctxtrack.synthetic import SequenceConfig, gen_sequence


def test_shapes_and_ranges():
    seq = gen_sequence(SequenceConfig(seed=7, num_frames=5, frame_size=64,
                                      box_size=12.0))
    assert len(seq) == 5
    assert len(seq.boxes) == 5 and len(seq.distractors) == 5
    for frame in seq.frames:
        assert frame.shape == (64, 64, 3)
        assert frame.dtype == np.float64
        assert frame.min() >= 0.0 and frame.max() <= 1.0


def test_deterministic_for_same_seed():
    cfg = SequenceConfig(seed=11, num_frames=6, frame_size=64, box_size=10.0)
    a = gen_sequence(cfg)
    b = gen_sequence(cfg)
    for fa, fb in zip(a.frames, b.frames):
        assert np.array_equal(fa, fb)
    assert a.boxes == b.boxes
    assert a.distractors == b.distractors


def test_different_seeds_differ():
    cfg = SequenceConfig(seed=1, num_frames=3, frame_size=64, box_size=10.0)
    other = SequenceConfig(seed=2, num_frames=3, frame_size=64, box_size=10.0)
    assert not np.array_equal(gen_sequence(cfg).frames[0],
                              gen_sequence(other).frames[0])


def test_boxes_stay_inside_frame():
    seq = gen_sequence(SequenceConfig(seed=3, num_frames=50, frame_size=96,
                                      box_size=20.0, step_sigma=15.0))
    for x1, y1, x2, y2 in seq.boxes:
        assert 0.0 <= x1 < x2 <= 96.0
        assert 0.0 <= y1 < y2 <= 96.0
        assert x2 - x1 == pytest.approx(20.0)
        assert y2 - y1 == pytest.approx(20.0)


def test_zero_sigma_keeps_target_still():
    seq = gen_sequence(SequenceConfig(seed=4, num_frames=8, frame_size=64,
                                      box_size=12.0, step_sigma=0.0))
    assert all(b == seq.boxes[0] for b in seq.boxes)


def test_target_painted_brighter_than_background():
    seq = gen_sequence(SequenceConfig(seed=5, num_frames=1, frame_size=64,
                                      box_size=16.0, num_distractors=0))
    x1, y1, x2, y2 = (int(round(v)) for v in seq.boxes[0])
    inside = seq.frames[0][y1:y2, x1:x2].mean()
    outside = seq.frames[0].sum() - seq.frames[0][y1:y2, x1:x2].sum()
    outside /= (64 * 64 - (x2 - x1) * (y2 - y1)) * 3
    assert inside > outside + 0.1


def test_occlusion_window_hides_target():
    base = SequenceConfig(seed=6, num_frames=10, frame_size=64, box_size=12.0,
                          num_distractors=0, step_sigma=0.0)
    occ = SequenceConfig(seed=6, num_frames=10, frame_size=64, box_size=12.0,
                         num_distractors=0, step_sigma=0.0,
                         occlusion_start=3, occlusion_end=6)
    plain = gen_sequence(base)
    hidden = gen_sequence(occ)
    assert hidden.occluded == [False] * 3 + [True] * 3 + [False] * 4
    # Identical seed: frames match except the occluded ones lose the target.
    for t in range(10):
        same = np.array_equal(plain.frames[t], hidden.frames[t])
        assert same != hidden.occluded[t]
    assert plain.boxes == hidden.boxes
    # During occlusion the frame equals the background + distractors only,
    # so the target region matches frame 3's unpainted appearance.
    x1, y1, x2, y2 = (int(round(v)) for v in hidden.boxes[3])
    target_region = hidden.frames[3][y1:y2, x1:x2]
    painted_region = plain.frames[3][y1:y2, x1:x2]
    assert target_region.mean() < painted_region.mean()


def test_appearance_drift_changes_target_over_time():
    cfg = SequenceConfig(seed=8, num_frames=12, frame_size=64, box_size=14.0,
                         num_distractors=0, step_sigma=0.0,
                         appearance_drift=0.02)
    seq = gen_sequence(cfg)
    x1, y1, x2, y2 = (int(round(v)) for v in seq.boxes[0])
    first = seq.frames[0][y1:y2, x1:x2]
    last = seq.frames[-1][y1:y2, x1:x2]
    assert not np.allclose(first, last, atol=1e-6)
    # Zero drift keeps the target's appearance fixed when it does not move.
    still = gen_sequence(SequenceConfig(seed=8, num_frames=12, frame_size=64,
                                        box_size=14.0, num_distractors=0,
                                        step_sigma=0.0))
    assert np.array_equal(still.frames[0], still.frames[-1])


def test_distractor_count_and_bounds():
    seq = gen_sequence(SequenceConfig(seed=9, num_frames=4, frame_size=64,
                                      box_size=10.0, num_distractors=3))
    for per_frame in seq.distractors:
        assert len(per_frame) == 3
        for x1, y1, x2, y2 in per_frame:
            assert 0.0 <= x1 < x2 <= 64.0 and 0.0 <= y1 < y2 <= 64.0


def test_config_rejections():
    with pytest.raises(ConfigError, match="num_frames"):
        gen_sequence(SequenceConfig(num_frames=0))
    with pytest.raises(ConfigError, match="frame_size"):
        gen_sequence(SequenceConfig(frame_size=16))
    with pytest.raises(ConfigError, match="box_size"):
        gen_sequence(SequenceConfig(frame_size=64, box_size=40.0))
    with pytest.raises(ConfigError, match="box_size"):
        gen_sequence(SequenceConfig(box_size=2.0))
    with pytest.raises(ConfigError, match="step_sigma"):
        gen_sequence(SequenceConfig(step_sigma=-1.0))
    with pytest.raises(ConfigError, match="occlusion"):
        gen_sequence(SequenceConfig(occlusion_start=5, occlusion_end=3))
    with pytest.raises(ConfigError, match="occlusion"):
        gen_sequence(SequenceConfig(occlusion_start=-1, occlusion_end=4))


def test_step_sigma_that_dwarfs_the_frame_is_rejected():
    # at 1e20 the reflecting walk never gets back inside the frame
    with pytest.raises(ConfigError, match="step_sigma"):
        SequenceConfig(step_sigma=1e20)
    with pytest.raises(ConfigError, match="step_sigma"):
        SequenceConfig(frame_size=32, box_size=4.0, step_sigma=128.5)
    seq = gen_sequence(SequenceConfig(seed=8, num_frames=40, frame_size=32,
                                      box_size=4.0, step_sigma=128.0))
    for x1, y1, x2, y2 in seq.boxes:
        assert 0.0 <= x1 < x2 <= 32.0 and 0.0 <= y1 < y2 <= 32.0
