"""JSON experiment configuration.

One file holds four sections (model, train, track, sequence); every knob
has a default, unknown keys are rejected, and the model section selects a
size preset that individual fields may override.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from typing import get_type_hints

from .errors import ConfigError
from .model import ModelSpec, small_spec, toy_spec
from .synthetic import SequenceConfig
from .tracker import TrackConfig
from .train import TrainConfig

PRESETS = {"toy": toy_spec, "small": small_spec}
SECTIONS = ("model", "train", "track", "sequence")


@dataclass(frozen=True)
class ExperimentConfig:
    preset: str
    spec: ModelSpec
    train: TrainConfig
    track: TrackConfig
    sequence: SequenceConfig


def default_config() -> ExperimentConfig:
    return ExperimentConfig(preset="toy", spec=toy_spec(),
                            train=TrainConfig(), track=TrackConfig(),
                            sequence=SequenceConfig())


def _build(cls, base, section: dict, name: str):
    """Overlay a config section onto a defaults instance with type checks."""
    hints = get_type_hints(cls)
    allowed = {f.name for f in fields(cls)}
    unknown = sorted(set(section) - allowed)
    if unknown:
        raise ConfigError(
            f"unknown key(s) in section {name!r}: {', '.join(unknown)}")
    coerced = {}
    for key, value in section.items():
        want = hints[key]
        if want in (float, int):
            if isinstance(value, bool) or not isinstance(value, (int, want)):
                raise ConfigError(f"{name}.{key} must be "
                                  + ("a number" if want is float else "an integer"))
            # an int that no float can hold overflows where it meets a float
            try:
                number = float(value)
            except OverflowError:
                raise ConfigError(f"{name}.{key} is too large for a float") from None
            if not math.isfinite(number):
                raise ConfigError(f"{name}.{key} must be finite, got {number}")
            coerced[key] = number if want is float else value
        else:
            if not isinstance(value, str):
                raise ConfigError(f"{name}.{key} must be a string")
            coerced[key] = value
    # the section's own checks name a field or a rule, not the section
    try:
        return replace(base, **coerced)
    except ConfigError as exc:
        raise ConfigError(f"{name}: {exc}") from None


def config_from_dict(data) -> ExperimentConfig:
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = sorted(set(data) - set(SECTIONS))
    if unknown:
        raise ConfigError(f"unknown config section(s): {', '.join(unknown)}")
    for name in SECTIONS:
        if name in data and not isinstance(data[name], dict):
            raise ConfigError(f"section {name!r} must be a JSON object")

    model_section = dict(data.get("model", {}))
    preset = model_section.pop("preset", "toy")
    if not isinstance(preset, str):
        raise ConfigError("model.preset must be a string")
    if preset not in PRESETS:
        raise ConfigError(
            f"unknown model preset {preset!r}, expected one of "
            f"{sorted(PRESETS)}")
    spec = _build(ModelSpec, PRESETS[preset](), model_section, "model")
    train = _build(TrainConfig, TrainConfig(), data.get("train", {}), "train")
    track = _build(TrackConfig, TrackConfig(), data.get("track", {}), "track")
    sequence = _build(SequenceConfig, SequenceConfig(),
                      data.get("sequence", {}), "sequence")
    return ExperimentConfig(preset=preset, spec=spec, train=train,
                            track=track, sequence=sequence)


def _unique_keys(pairs) -> dict:
    data = {}
    for key, value in pairs:
        if key in data:
            raise ConfigError(f"repeated key {key!r}")
        data[key] = value
    return data


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        data = json.loads(text, object_pairs_hook=_unique_keys)
    except (ValueError, RecursionError) as exc:
        # ValueError covers malformed JSON, a repeated key and integers past
        # the digit limit; RecursionError, arrays or objects nested too deep
        raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
    return config_from_dict(data)


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """Full nested dict with every knob explicit; loads back unchanged."""
    model = {"preset": cfg.preset}
    model.update(asdict(cfg.spec))
    return {
        "model": model,
        "train": asdict(cfg.train),
        "track": asdict(cfg.track),
        "sequence": asdict(cfg.sequence),
    }


def save_config(cfg: ExperimentConfig, path) -> None:
    Path(path).write_text(json.dumps(config_to_dict(cfg), indent=2) + "\n",
                          encoding="utf-8")
