"""Experiment configuration loading tests."""

import json
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from ctxtrack.cli import _read_trace
from ctxtrack.config import (SECTIONS, config_from_dict, config_to_dict,
                             default_config, load_config, save_config)
from ctxtrack.errors import ConfigError
from ctxtrack.model import ModelSpec
from ctxtrack.synthetic import SequenceConfig
from ctxtrack.tracker import TrackConfig
from ctxtrack.train import TrainConfig


def test_empty_config_gives_defaults():
    cfg = config_from_dict({})
    assert cfg == default_config()
    assert cfg.preset == "toy"
    assert cfg.spec.search_size == 64
    assert cfg.train.steps == 500
    assert cfg.track.update_mode == "p-mean"
    assert cfg.sequence.num_frames == 20


def test_full_roundtrip():
    cfg = default_config()
    again = config_from_dict(config_to_dict(cfg))
    assert again == cfg


def _unit(lo_open=False, hi_open=False):
    return st.floats(0.0, 1.0, exclude_min=lo_open, exclude_max=hi_open)


@st.composite
def _model_sections(draw):
    window = draw(st.sampled_from([1, 2]))
    heads = draw(st.integers(1, 4))
    return {
        "preset": draw(st.sampled_from(["toy", "small"])),
        "target_size": 16 * window * draw(st.integers(1, 4)),
        "search_size": 16 * window * draw(st.integers(1, 4)),
        "channels": heads * draw(st.integers(1, 4)),
        "heads": heads, "window": window,
        "n1": draw(st.integers(1, 4)), "n2": draw(st.integers(1, 4)),
        "n3": draw(st.integers(1, 4)),
        "final_keys": draw(st.sampled_from(["templates", "all"])),
    }


@st.composite
def _train_sections(draw):
    steps = draw(st.integers(1, 10_000))
    # each pair keeps the box inside its jittered crop: center jitter plus
    # scale jitter below 0.5, with a margin for rounding
    jitters = {}
    for k in ("prev", "search"):
        center = draw(st.floats(0.0, 0.49))
        jitters[f"{k}_center_jitter"] = center
        jitters[f"{k}_scale_jitter"] = draw(st.floats(0.0, 0.99 * (0.5 - center)))
    return {
        "steps": steps, "lr": draw(st.floats(0.0, 1.0)),
        "seed": draw(st.integers(0, 2**32)),
        "final_lr_scale": draw(_unit(lo_open=True)),
        "lambda_cls": draw(st.floats(0.0, 10.0)),
        "lambda_giou": draw(st.floats(0.0, 10.0)),
        "alpha": draw(_unit()), "gamma": draw(st.floats(0.0, 5.0)),
        **jitters,
    }


@st.composite
def _sequence_sections(draw):
    frame_size = draw(st.integers(32, 512))
    occlusion = draw(st.none() | st.tuples(st.integers(0, 50), st.integers(1, 50)))
    start, end = (-1, -1) if occlusion is None else (occlusion[0], sum(occlusion))
    return {
        "seed": draw(st.integers(0, 2**32)),
        "num_frames": draw(st.integers(1, 100)), "frame_size": frame_size,
        "box_size": draw(st.floats(4.0, frame_size / 2)),
        "step_sigma": draw(st.floats(0.0, 100.0)),
        "num_distractors": draw(st.integers(0, 5)),
        "appearance_drift": draw(st.floats(0.0, 10.0)),
        "occlusion_start": start, "occlusion_end": end,
    }


_TRACK_SECTIONS = st.fixed_dictionaries({
    "update_mode": st.sampled_from(["never", "always-last", "mean", "p-mean"]),
    "seed_confidence": _unit(),
    "oracle": st.booleans(),
})


@settings(derandomize=True, deadline=None)
@given(model=_model_sections(), train=_train_sections(), track=_TRACK_SECTIONS,
       sequence=_sequence_sections(),
       present=st.sets(st.sampled_from(["model", "train", "track", "sequence"])))
def test_generated_config_roundtrips(model, train, track, sequence, present):
    sections = {"model": model, "train": train, "track": track, "sequence": sequence}
    cfg = config_from_dict({k: v for k, v in sections.items() if k in present})
    assert config_from_dict(config_to_dict(cfg)) == cfg
    assert config_from_dict(json.loads(json.dumps(config_to_dict(cfg)))) == cfg


def test_roundtrip_through_file(tmp_path):
    path = tmp_path / "cfg.json"
    save_config(default_config(), path)
    assert load_config(path) == default_config()


def test_every_knob_appears_in_dump():
    dump = config_to_dict(default_config())
    assert dump["model"]["preset"] == "toy"
    for key in ("target_size", "search_size", "channels", "n1", "n2", "n3",
                "heads", "window", "final_keys"):
        assert key in dump["model"]
    for key in ("steps", "lr", "seed", "final_lr_scale", "lambda_cls",
                "lambda_giou", "alpha", "gamma",
                "prev_center_jitter", "prev_scale_jitter",
                "search_center_jitter", "search_scale_jitter"):
        assert key in dump["train"]
    for key in ("update_mode", "seed_confidence", "oracle"):
        assert key in dump["track"]
    for key in ("seed", "num_frames", "frame_size", "box_size", "step_sigma",
                "num_distractors", "appearance_drift", "occlusion_start",
                "occlusion_end"):
        assert key in dump["sequence"]
    # The dump is pure JSON.
    json.dumps(dump)


def test_small_preset_and_override():
    cfg = config_from_dict({"model": {"preset": "small", "channels": 48,
                                      "heads": 4}})
    assert cfg.preset == "small"
    assert cfg.spec.search_size == 224
    assert cfg.spec.channels == 48
    assert cfg.spec.heads == 4


def test_section_overrides():
    cfg = config_from_dict({
        "train": {"lr": 0.01, "steps": 7},
        "track": {"update_mode": "mean", "oracle": True},
        "sequence": {"num_frames": 5, "box_size": 12},
    })
    assert cfg.train.lr == 0.01 and cfg.train.steps == 7
    assert cfg.track.update_mode == "mean" and cfg.track.oracle is True
    assert cfg.sequence.num_frames == 5
    assert cfg.sequence.box_size == 12.0
    assert isinstance(cfg.sequence.box_size, float)


def test_unknown_section_rejected():
    with pytest.raises(ConfigError, match="unknown config section"):
        config_from_dict({"optimizer": {}})


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown key"):
        config_from_dict({"train": {"learning_rate": 0.1}})
    with pytest.raises(ConfigError, match="unknown key"):
        config_from_dict({"model": {"depth": 3}})
    with pytest.raises(ConfigError, match="unknown key"):
        config_from_dict({"train": {"warmup_steps": 0}})
    with pytest.raises(ConfigError, match="unknown key"):
        config_from_dict({"train": {"context_scale": 2.0}})
    with pytest.raises(ConfigError, match="unknown key"):
        config_from_dict({"track": {"context_scale": 2.0}})


def test_unknown_preset_rejected():
    with pytest.raises(ConfigError, match="preset"):
        config_from_dict({"model": {"preset": "huge"}})


@pytest.mark.parametrize("preset", [[], {}, ["toy"]], ids=["list", "object", "nested"])
def test_non_string_preset_rejected(preset):
    with pytest.raises(ConfigError, match="model.preset must be a string"):
        config_from_dict({"model": {"preset": preset}})


def test_type_errors_rejected():
    with pytest.raises(ConfigError, match="must be an integer"):
        config_from_dict({"train": {"steps": 2.5}})
    with pytest.raises(ConfigError, match="must be a number"):
        config_from_dict({"train": {"lr": "fast"}})
    with pytest.raises(ConfigError, match="must be true or false"):
        config_from_dict({"track": {"oracle": "yes"}})
    with pytest.raises(ConfigError, match="must be a string"):
        config_from_dict({"track": {"update_mode": 3}})
    with pytest.raises(ConfigError, match="must be a JSON object"):
        config_from_dict({"train": []})
    with pytest.raises(ConfigError, match="root"):
        config_from_dict([1, 2])


def test_invalid_values_become_config_errors():
    with pytest.raises(ConfigError, match="multiple"):
        config_from_dict({"model": {"search_size": 50}})
    with pytest.raises(ConfigError, match="steps"):
        config_from_dict({"train": {"steps": 0}})
    with pytest.raises(ConfigError, match="update mode"):
        config_from_dict({"track": {"update_mode": "often"}})
    with pytest.raises(ConfigError, match="box_size"):
        config_from_dict({"sequence": {"box_size": 1}})


def test_bad_files_rejected(tmp_path):
    missing = tmp_path / "missing.json"
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(missing)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_config(bad)


@pytest.mark.parametrize("text, key", [
    ('{"train": {"steps": 2, "steps": 1}}', "steps"),
    ('{"train": {"steps": 2}, "train": {"steps": 1}}', "train"),
    ('{"sequence": {"seed": 1, "num_frames": 4, "seed": 1}}', "seed"),
], ids=["key", "section", "same-value"])
def test_repeated_key_rejected(tmp_path, text, key):
    path = tmp_path / "config.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ConfigError, match=f"repeated key '{key}'"):
        load_config(path)


# a config built in code or by `dataclasses.replace` skips `_build`, so each
# dataclass must reject non-finite values itself when built; range checks
# like `x < 0` let NaN through
_FLOAT_FIELDS = [(TrainConfig, name) for name in
                 ("lr", "final_lr_scale", "lambda_cls", "lambda_giou",
                  "alpha", "gamma")] + \
                [(TrackConfig, "seed_confidence"),
                 (SequenceConfig, "step_sigma"),
                 (SequenceConfig, "appearance_drift")]


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")],
                         ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("cls, name", _FLOAT_FIELDS,
                         ids=[f"{cls.__name__}.{name}" for cls, name in _FLOAT_FIELDS])
def test_validate_rejects_non_finite_field(cls, name, value):
    with pytest.raises(ConfigError, match=f"{name} must be finite"):
        cls(**{name: value})
    with pytest.raises(ConfigError, match=f"{name} must be finite"):
        replace(cls(), **{name: value})


# the same holds for every range check, in all four config dataclasses
_OUT_OF_RANGE = [
    (ModelSpec, "heads", 3, "not divisible by heads"),
    (TrainConfig, "steps", 0, "steps must be at least 1"),
    (TrackConfig, "seed_confidence", 1.5, "seed_confidence must lie in"),
    (SequenceConfig, "num_frames", 0, "num_frames must be at least 1"),
]


@pytest.mark.parametrize("cls, name, value, match", _OUT_OF_RANGE,
                         ids=[f"{cls.__name__}.{name}" for cls, name, _, _ in _OUT_OF_RANGE])
def test_out_of_range_field_rejected_when_built(cls, name, value, match):
    with pytest.raises(ConfigError, match=match):
        cls(**{name: value})
    with pytest.raises(ConfigError, match=match):
        replace(cls(), **{name: value})


# arbitrary bytes as an input file, among them JSON documents whose keys are
# config names, so that some draws get past the parser to the field checks
_KEYS = sorted({*SECTIONS, *(k for sec in config_to_dict(default_config()).values() for k in sec)})
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(_KEYS), inner, max_size=3),
    max_leaves=8)
_FILE_BYTES = st.one_of(
    st.binary(max_size=64),
    st.text(alphabet='[]{}":,.-+e0123456789 \n#aflnrstu\\', max_size=64).map(str.encode),
    _JSON.map(lambda value: json.dumps(value).encode()))


@settings(derandomize=True, deadline=None, max_examples=100)
@given(data=_FILE_BYTES)
@example(data=b"\xff\xfe\n")
@example(data=b"[" * 100_000)
@example(data=b'{"model": {"preset": []}}')
def test_arbitrary_bytes_give_a_value_or_config_error(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input"
        path.write_bytes(data)
        for read in (load_config, _read_trace):
            try:
                read(path)
            except ConfigError:
                pass
