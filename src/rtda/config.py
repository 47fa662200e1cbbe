"""Run configuration: a flat dataclass parsed from `key = value` lines.

Values are typed by the dataclass field (int, float, str); unknown
keys and malformed lines are errors, so config drift fails loudly. Blank
lines and lines starting with `#` are skipped.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass


class ConfigError(ValueError):
    pass


@dataclass
class TrainConfig:
    seed: int = 0
    num_classes: int = 5
    image_size: int = 64
    batch: int = 4
    max_iter: int = 2000

    seg_lr: float = 2.5e-4
    disc_lr: float = 1e-5
    momentum: float = 0.9
    weight_decay: float = 5e-4
    adam_beta1: float = 0.9
    adam_beta2: float = 0.99
    adam_eps: float = 1e-8
    poly_power: float = 0.9
    lambda_adv: float = 0.01

    disc_variant: str = "fcd-light-thin"
    width_multiplier: float = 1.0

    data_root: str = "data"
    train_split: str = "train"
    out_dir: str = "runs/exp"
    checkpoint_interval: int = 500
    resume: str = ""

    def validate(self) -> "TrainConfig":
        if not 0 <= self.seed < 2**64:
            raise ConfigError("seed must lie in [0, 2^64)")
        if self.num_classes < 2:
            raise ConfigError("num_classes must be at least 2")
        if self.image_size < 32 or self.image_size % 32:
            raise ConfigError("image_size must be a positive multiple of 32")
        if self.batch < 1:
            raise ConfigError("batch must be at least 1")
        if self.max_iter < 0:
            raise ConfigError("max_iter must be nonnegative")
        if self.seg_lr <= 0 or self.disc_lr <= 0:
            raise ConfigError("learning rates must be positive")
        if not 0 < self.poly_power <= 1:
            raise ConfigError("poly_power must lie in (0, 1]")
        if self.lambda_adv < 0:
            raise ConfigError("lambda_adv must be nonnegative")
        if self.checkpoint_interval < 1:
            raise ConfigError("checkpoint_interval must be at least 1")
        if self.width_multiplier <= 0:
            raise ConfigError("width_multiplier must be positive")
        return self


_FIELDS = {f.name: f.type for f in dataclasses.fields(TrainConfig)}


def _parse_value(key: str, raw: str, kind: str):
    raw = raw.strip()
    if kind == "int":
        try:
            return int(raw)
        except ValueError as exc:
            raise ConfigError(f"{key}: expected integer, got {raw!r}") from exc
    if kind == "float":
        try:
            return float(raw)
        except ValueError as exc:
            raise ConfigError(f"{key}: expected float, got {raw!r}") from exc
    if len(raw) >= 2 and raw[0] == raw[-1] and raw[0] in "'\"":
        raw = raw[1:-1]
    return raw


def parse_config(text: str, base: TrainConfig | None = None) -> TrainConfig:
    cfg = dataclasses.replace(base) if base is not None else TrainConfig()
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in _FIELDS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        setattr(cfg, key, _parse_value(key, raw, _FIELDS[key]))
    return cfg.validate()


def load_config(path: str) -> TrainConfig:
    with open(path, "r", encoding="utf-8") as f:
        return parse_config(f.read())


def dump_config(cfg: TrainConfig) -> str:
    lines = [f"{f.name} = {getattr(cfg, f.name)}" for f in dataclasses.fields(TrainConfig)]
    return "\n".join(lines) + "\n"
