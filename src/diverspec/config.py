"""Flat key=value configuration files.

One ``key = value`` pair per line; blank lines and ``#`` comments are
ignored. Keys mirror the model and trainer dataclass fields. Unknown keys,
repeated keys, and type mismatches are hard errors - a config either
round-trips exactly or is rejected.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

from .errors import ConfigError
from .model import DsfConfig
from .training import TrainConfig


def _to_bool(raw: str) -> bool:
    lowered = raw.lower()
    if lowered == "true":
        return True
    if lowered == "false":
        return False
    raise ValueError(f"expected true or false, got {raw!r}")


_MODEL_FIELDS = {f.name: f for f in dataclasses.fields(DsfConfig)}
_TRAIN_FIELDS = {f.name: f for f in dataclasses.fields(TrainConfig)}

_PARSERS = {
    "K": int, "d": int, "f_p": int,
    "eta1": float, "eta2": float, "lambda_orth": float, "dropout_p": float,
    "ppr_alpha": float, "jacobi_a": float, "jacobi_b": float,
    "mode": str, "backbone": str, "pe_init": str, "sigma_p": str, "gamma_init": str,
    "lappe_skip_first": _to_bool, "ablate_ipe": _to_bool,
    "lr": float, "weight_decay": float, "epochs": int, "patience": int,
}


def parse_config_text(text: str, source: str = "config") -> dict:
    """Parse key=value lines into a typed dict; reject anything unknown."""
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source} line {lineno}: expected 'key = value', got {raw!r}")
        key, _, raw_value = line.partition("=")
        key = key.strip()
        raw_value = raw_value.strip()
        if key not in _PARSERS:
            raise ConfigError(f"{source} line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{source} line {lineno}: duplicate key {key!r}")
        try:
            values[key] = _PARSERS[key](raw_value)
        except ValueError as exc:
            raise ConfigError(f"{source} line {lineno}: bad value for {key}: {exc}") from None
    return values


def build_configs(values: dict) -> tuple[DsfConfig, TrainConfig]:
    """Instantiate (and thereby validate) the two config dataclasses."""
    model_kwargs = {k: v for k, v in values.items() if k in _MODEL_FIELDS}
    train_kwargs = {k: v for k, v in values.items() if k in _TRAIN_FIELDS}
    return DsfConfig(**model_kwargs), TrainConfig(**train_kwargs)


def load_config(path: str | Path) -> tuple[DsfConfig, TrainConfig]:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file {path} does not exist")
    return build_configs(parse_config_text(path.read_text(encoding="utf-8"), source=str(path)))


def resolved_dict(model: DsfConfig, train: TrainConfig) -> dict:
    """Every effective key (defaults included), ready for JSON embedding."""
    out = dataclasses.asdict(model)
    out.update(dataclasses.asdict(train))
    return out


def config_hash(model: DsfConfig, train: TrainConfig, variant: str) -> str:
    """Short stable digest of the variant and its fully resolved configuration.

    The variant is part of the digest: the baseline trains other tensors than
    ``dsf`` from the same configuration.
    """
    canonical = json.dumps([variant, resolved_dict(model, train)], sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]
