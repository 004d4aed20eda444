"""Error types that map to the CLI's exit codes."""

import math
from dataclasses import fields


class ConfigError(ValueError):
    """Invalid configuration or input files (CLI exit code 1)."""


class NumericError(RuntimeError):
    """Numeric failure such as a non-finite loss (CLI exit code 2)."""


def require_finite(config) -> None:
    """Raise ConfigError if a float field of the dataclass `config` is NaN
    or infinite. Range checks of the form `x < bound` let NaN through."""
    for f in fields(config):
        value = getattr(config, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{f.name} must be finite, got {value}")
