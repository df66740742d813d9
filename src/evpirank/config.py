"""Plain `key = value` run configuration with typed accessors.

Unknown keys are rejected so typos fail fast. Every command logs its fully
resolved configuration before running.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import get_type_hints

from .training import TrainConfig


class ConfigError(ValueError):
    pass


# The keys, types and defaults are TrainConfig's fields.
_TYPES = get_type_hints(TrainConfig)
VALID_KEYS: dict[str, type] = {f.name: _TYPES[f.name] for f in fields(TrainConfig)}

DEFAULTS: dict[str, object] = {f.name: f.default for f in fields(TrainConfig)}

# Smallest legal value of the keys that have one.
_MINIMUMS: dict[str, float] = {"hidden_dim": 1, "batch_size": 1, "epochs": 1, "lr": 0.0}


def _check_key(key: str) -> None:
    if key not in VALID_KEYS:
        valid = ", ".join(sorted(VALID_KEYS))
        raise ConfigError(f"unknown config key {key!r}; valid keys: {valid}")


def _parse(key: str, raw: str):
    try:
        value = VALID_KEYS[key](raw)
    except ValueError as exc:
        raise ConfigError(f"config key {key!r}: {exc}") from None
    if key in _MINIMUMS and not value >= _MINIMUMS[key]:
        raise ConfigError(f"config key {key!r}: must be >= {_MINIMUMS[key]}, got {raw}")
    return value


@dataclass
class Config:
    values: dict[str, object] = field(default_factory=dict)

    @classmethod
    def from_file(cls, path: str | Path) -> "Config":
        config = cls()
        text = Path(path).read_text(encoding="utf-8")
        for lineno, line in enumerate(text.splitlines(), start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            key, sep, raw = stripped.partition("=")
            if not sep:
                raise ConfigError(f"{path}: line {lineno}: expected `key = value`")
            key = key.strip()
            _check_key(key)
            config.values[key] = _parse(key, raw.strip())
        return config

    def set_override(self, assignment: str) -> None:
        """Apply one `key=value` override from the command line."""
        key, sep, raw = assignment.partition("=")
        if not sep:
            raise ConfigError(f"override must look like key=value, got {assignment!r}")
        key = key.strip()
        _check_key(key)
        self.values[key] = _parse(key, raw.strip())

    def get(self, key: str):
        _check_key(key)
        return self.values.get(key, DEFAULTS[key])

    def resolved(self) -> dict[str, object]:
        return {key: self.get(key) for key in sorted(VALID_KEYS)}

    def resolved_json(self) -> str:
        return json.dumps({"config": self.resolved()}, ensure_ascii=False)

    def train_config(self) -> TrainConfig:
        return TrainConfig(**self.resolved())
