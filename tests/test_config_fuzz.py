"""Config fuzzing: any config dict either runs end to end on the toy preset
or stops with one of the two documented errors, ConfigError (exit 1) or
NumericError (exit 2), and warns of no overflow or invalid value on the
way."""

import warnings

import numpy as np
from hypothesis import example, given, settings, strategies as st

from ctxtrack.config import config_from_dict
from ctxtrack.errors import ConfigError, NumericError
from ctxtrack.model import TrackerNet
from ctxtrack.synthetic import gen_sequence
from ctxtrack.tracker import run_tracker
from ctxtrack.train import toy_train

_FLOAT_EXTREMES = [1e300, -1e300, 1e-300, -1e-300, -1.0, 0.0]
# sizes and counts never get a large integer, so no draw asks for much memory
_SIZE_EXTREMES = st.sampled_from(_FLOAT_EXTREMES + [-1, 0, -10 ** 30])
_INT_EXTREMES = st.sampled_from(_FLOAT_EXTREMES + [-1, 0, -10 ** 30, 10 ** 30])
_FLOAT = st.sampled_from(_FLOAT_EXTREMES + [-10 ** 30, 10 ** 30])

# per section: the usual value of each field, then what an extreme draw
# for it may hold
_FIELDS = {
    "model": {
        "heads": (st.sampled_from([1, 2]), _SIZE_EXTREMES),
        "channels": (st.just(8), _SIZE_EXTREMES),
        "window": (st.just(2), _SIZE_EXTREMES),
        "n1": (st.integers(1, 3), _SIZE_EXTREMES),
        "n2": (st.integers(1, 2), _SIZE_EXTREMES),
        "n3": (st.integers(1, 4), _SIZE_EXTREMES),
        "target_size": (st.just(32), _SIZE_EXTREMES),
        "search_size": (st.just(64), _SIZE_EXTREMES),
        "final_keys": (st.sampled_from(["templates", "all"]),
                       st.sampled_from(["", "none", 1e300])),
    },
    "train": {
        "lr": (st.floats(0.0, 0.01), _FLOAT),
        "seed": (st.integers(0, 3), _INT_EXTREMES),
        "final_lr_scale": (st.floats(0.01, 1.0), _FLOAT),
        "prev_center_jitter": (st.floats(0.0, 0.3), _FLOAT),
        "prev_scale_jitter": (st.floats(0.0, 0.2), _FLOAT),
        "search_center_jitter": (st.floats(0.0, 0.4), _FLOAT),
        "search_scale_jitter": (st.floats(0.0, 0.1), _FLOAT),
    },
    "track": {
        "update_mode": (st.sampled_from(["never", "always-last", "mean", "p-mean"]),
                        st.sampled_from(["", "often", 1e300])),
    },
    "sequence": {
        "seed": (st.integers(0, 3), _INT_EXTREMES),
        "frame_size": (st.integers(48, 128), _SIZE_EXTREMES),
        "box_size": (st.floats(4.0, 16.0), _FLOAT),
        "step_sigma": (st.floats(0.0, 8.0), _FLOAT),
        "num_distractors": (st.integers(0, 3), _SIZE_EXTREMES),
        "appearance_drift": (st.floats(0.0, 0.01), _FLOAT),
        "occlusion_start": (st.just(1), _INT_EXTREMES),
        "occlusion_end": (st.just(2), _INT_EXTREMES),
    },
}


@st.composite
def _configs(draw):
    """A toy-preset config with 2-4 frames and 2 training steps: some fields
    at usual values, then up to three fields set to an extreme."""
    cfg = {"model": {"preset": "toy"}, "train": {"steps": 2},
           "track": {}, "sequence": {"num_frames": draw(st.integers(2, 4))}}
    for section, fields in _FIELDS.items():
        # sorted, so the draws that follow do not hang on the hash seed
        for name in sorted(draw(st.sets(st.sampled_from(sorted(fields)), max_size=3))):
            cfg[section][name] = draw(fields[name][0])
    for _ in range(draw(st.integers(0, 3))):
        section = draw(st.sampled_from(sorted(_FIELDS)))
        name = draw(st.sampled_from(sorted(_FIELDS[section])))
        cfg[section][name] = draw(_FIELDS[section][name][1])
    return cfg


@settings(derandomize=True, deadline=None, max_examples=120)
@given(data=_configs())
# an lr of 1e30 overflowed the second step's forward
@example(data={"model": {"preset": "toy"}, "train": {"steps": 2, "lr": 1e30},
               "track": {}, "sequence": {"num_frames": 2}})
# an int too large for a float overflowed in SequenceConfig's own checks
@example(data={"model": {"preset": "toy"}, "train": {"steps": 2}, "track": {},
               "sequence": {"num_frames": 2, "frame_size": 10 ** 400}})
def test_any_config_runs_or_fails_with_a_documented_error(data):
    # an overflow or invalid value on the way counts as an escape too
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            cfg = config_from_dict(data)
            sequence = gen_sequence(cfg.sequence)
            net = TrackerNet(cfg.spec, np.random.default_rng(cfg.train.seed))
            toy_train(net, sequence, cfg.train)
            run_tracker(net, sequence, cfg.track)
        except (ConfigError, NumericError):
            pass
