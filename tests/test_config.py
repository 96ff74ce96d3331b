"""Flat key=value config parsing, resolution, and hashing."""

from __future__ import annotations

import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diverspec.config import (
    build_configs,
    config_hash,
    load_config,
    parse_config_text,
    resolved_dict,
)
from diverspec.domains import DOMAINS
from diverspec.errors import ConfigError
from diverspec.model import DsfConfig
from diverspec.training import TrainConfig

SAMPLE = """
# model
backbone = GPR
mode = R
K = 6
eta1 = 0.4          # inline comment
lambda_orth = 0.001
dropout_p = 0.2

# trainer
lr = 0.01
epochs = 50
"""


def test_parse_and_build_round_trip():
    model, train = build_configs(parse_config_text(SAMPLE))
    assert model.K == 6
    assert model.mode == "R"
    assert model.eta1 == 0.4
    assert model.lambda_orth == 0.001
    assert model.eta2 == 0.0  # default, and pinned by mode R
    assert train.lr == 0.01
    assert train.epochs == 50
    assert train.patience == 100  # default


def test_parse_rejects_unknown_key():
    with pytest.raises(ConfigError, match="line 1: unknown key 'alpha'"):
        parse_config_text("alpha = 3")


def test_parse_rejects_duplicate_key():
    with pytest.raises(ConfigError, match="line 3: duplicate key 'K'"):
        parse_config_text("K = 3\nlr = 0.1\nK = 4")


def test_parse_rejects_bad_value_with_line_number():
    with pytest.raises(ConfigError, match="line 2: bad value for epochs"):
        parse_config_text("lr = 0.1\nepochs = soon")
    with pytest.raises(ConfigError, match="bad value for ablate_ipe"):
        parse_config_text("ablate_ipe = maybe")


def test_parse_rejects_shapeless_line():
    with pytest.raises(ConfigError, match="expected 'key = value'"):
        parse_config_text("just some words")


def test_build_rejects_invalid_combination():
    with pytest.raises(ConfigError, match="mode R pins eta2"):
        build_configs(parse_config_text("mode = R\neta2 = 0.3"))


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="does not exist"):
        load_config(tmp_path / "nope.conf")


def test_load_config_reads_file(tmp_path):
    path = tmp_path / "run.conf"
    path.write_text("backbone = Bern\nK = 4\n")
    model, _ = load_config(path)
    assert model.backbone == "Bern"
    assert model.sigma_p == "Sigmoid"


def test_resolved_dict_covers_every_key():
    model, train = build_configs({})
    resolved = resolved_dict(model, train)
    for key in ("K", "d", "eta1", "mode", "backbone", "lr", "weight_decay", "epochs"):
        assert key in resolved
    assert resolved["sigma_p"] == "Tanh"  # post-resolution value, not None


def test_config_hash_is_stable_and_sensitive():
    a = build_configs(parse_config_text("K = 5"))
    b = build_configs(parse_config_text("K = 5"))
    c = build_configs(parse_config_text("K = 6"))
    assert config_hash(*a, "dsf") == config_hash(*b, "dsf")
    assert config_hash(*a, "dsf") != config_hash(*c, "dsf")
    digest = config_hash(*a, "dsf")
    assert len(digest) == 12
    assert all(ch in "0123456789abcdef" for ch in digest)


def test_config_hash_covers_the_variant():
    model, train = build_configs(parse_config_text("K = 5"))
    digests = {config_hash(model, train, v) for v in ("dsf", "baseline", "no-ipe")}
    assert len(digests) == 3


def _legal_values(field: dataclasses.Field) -> st.SearchStrategy:
    """Values of a config field that its own domain accepts."""
    if field.type == "bool":
        return st.booleans()
    if field.name in ("jacobi_a", "jacobi_b"):
        return st.floats(min_value=-1.0, exclude_min=True, max_value=1e6)
    domain = DOMAINS[field.name]
    if isinstance(domain[0], str):
        return st.sampled_from(domain)
    low, high, ends = domain
    if field.type == "int":
        return st.integers(low, 10**6)
    bounded = high < math.inf
    return st.floats(
        min_value=low, max_value=high if bounded else None, exclude_min=ends[0] == "(",
        exclude_max=bounded and ends[1] == ")", allow_nan=False, allow_infinity=False,
    )


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_every_field_written_as_key_value_parses_back(data):
    values = {
        f.name: data.draw(_legal_values(f), label=f.name)
        for cls in (DsfConfig, TrainConfig)
        for f in dataclasses.fields(cls)
    }
    if values["mode"] == "R":
        values["eta2"] = 0.0
    if values["backbone"] == "Bern":
        values["sigma_p"] = "Sigmoid"
    model, train = build_configs(values)
    text = "".join(f"{key} = {value}\n" for key, value in resolved_dict(model, train).items())
    assert len(text.splitlines()) == 17 + 4
    assert build_configs(parse_config_text(text)) == (model, train)
