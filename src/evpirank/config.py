"""The settings `train` reads: `--set key=value` overrides and `--seed`, checked per model.

A model takes only the TrainConfig keys its training reads (KEYS_READ); any
other key, and a value of the wrong type or out of range, is refused, so a
setting a run would ignore fails fast. `train` logs the keys its model
reads, fully resolved, before running.
"""

from __future__ import annotations

import math
from typing import Iterable, get_type_hints

from .training import TrainConfig


class ConfigError(ValueError):
    pass


# The keys and their types are TrainConfig's fields; its defaults are the defaults.
_TYPES: dict[str, type] = get_type_hints(TrainConfig)

# The keys each model's training reads: ngrams and cqa run every epoch at one
# learning rate and draw nothing at random. Any other model reads every key.
KEYS_READ: dict[str, tuple[str, ...]] = {"ngrams": ("epochs", "lr"), "cqa": ("epochs", "lr")}

# Smallest legal value of the keys that have one.
_MINIMUMS: dict[str, float] = {
    "hidden_dim": 1, "batch_size": 1, "epochs": 1, "patience": 0, "lr": 0.0,
}


def load_config(model: str, overrides: Iterable[str] = (), seed: int | None = None) -> dict:
    """The keys model reads, sorted: TrainConfig's defaults, then each `key=value`, then seed."""
    values = {key: getattr(TrainConfig, key) for key in sorted(KEYS_READ.get(model, _TYPES))}
    assignments = [assignment.partition("=") for assignment in overrides]
    if seed is not None:
        assignments.append(("seed", "=", str(seed)))
    for key, sep, raw in assignments:
        if not sep:
            raise ConfigError(f"override must look like key=value, got {key!r}")
        key, raw = key.strip(), raw.strip()
        if key not in values:
            valid = ", ".join(values)
            raise ConfigError(f"model {model!r} reads no config key {key!r}; valid keys: {valid}")
        try:
            value = _TYPES[key](raw)
        except ValueError as exc:
            raise ConfigError(f"config key {key!r}: {exc}") from None
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"config key {key!r}: must be finite, got {raw}")
        if key in _MINIMUMS and not value >= _MINIMUMS[key]:
            raise ConfigError(f"config key {key!r}: must be >= {_MINIMUMS[key]}, got {raw}")
        values[key] = value
    return values
