"""Plain `key = value` run configuration, read into a TrainConfig.

Unknown keys are rejected so typos fail fast. Every command that reads the
configuration logs it, fully resolved, before running.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict
from pathlib import Path
from typing import Iterable, get_type_hints

from .training import TrainConfig


class ConfigError(ValueError):
    pass


# The keys and their types are TrainConfig's fields; its defaults are the defaults.
_TYPES: dict[str, type] = get_type_hints(TrainConfig)

# Smallest legal value of the keys that have one.
_MINIMUMS: dict[str, float] = {
    "hidden_dim": 1, "batch_size": 1, "epochs": 1, "patience": 0, "lr": 0.0,
}


def _assign(values: dict[str, object], key: str, raw: str) -> None:
    """values[key] = raw read as key's type, if key is known and the value legal."""
    key, raw = key.strip(), raw.strip()
    if key not in _TYPES:
        valid = ", ".join(sorted(_TYPES))
        raise ConfigError(f"unknown config key {key!r}; valid keys: {valid}")
    try:
        value = _TYPES[key](raw)
    except ValueError as exc:
        raise ConfigError(f"config key {key!r}: {exc}") from None
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"config key {key!r}: must be finite, got {raw}")
    if key in _MINIMUMS and not value >= _MINIMUMS[key]:
        raise ConfigError(f"config key {key!r}: must be >= {_MINIMUMS[key]}, got {raw}")
    values[key] = value


def load_config(
    path: str | Path | None = None, overrides: Iterable[str] = (), seed: int | None = None
) -> TrainConfig:
    """TrainConfig's defaults, then the file's lines, then each `key=value` override, then seed."""
    values: dict[str, object] = {}
    if path is not None:
        text = Path(path).read_text(encoding="utf-8")
        for lineno, line in enumerate(text.splitlines(), start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            key, sep, raw = stripped.partition("=")
            if not sep:
                raise ConfigError(f"{path}: line {lineno}: expected `key = value`")
            _assign(values, key, raw)
    for assignment in overrides:
        key, sep, raw = assignment.partition("=")
        if not sep:
            raise ConfigError(f"override must look like key=value, got {assignment!r}")
        _assign(values, key, raw)
    if seed is not None:
        values["seed"] = seed
    return TrainConfig(**values)


def resolved_json(config: TrainConfig) -> str:
    """The `{"config": {...}}` line a command that reads the configuration logs, keys sorted."""
    return json.dumps({"config": asdict(config)}, ensure_ascii=False, sort_keys=True)
