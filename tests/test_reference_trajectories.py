"""Pinned training trajectories for every backbone x mode x IPE variant.

Each backbone also pins its mode-R homogeneous baseline (``-R-baseline``).

``tests/data/reference_trajectories.json.gz`` (gzipped JSON) holds, for each
variant, one 20-epoch ``train_once`` run on a 40-node heterophilous two-block
graph: the per-epoch validation accuracies, the best-snapshot parameters and
the beta table realized at that snapshot. A change that reorders floating-point work
must keep every pinned float within ``ATOL`` and ``val_history`` exact.

Floats are stored rounded to 13 significant digits (an error far below
``ATOL``) to keep the fixture small. Regenerate it only when a change is
meant to alter trajectories, from the repository root::

    PYTHONPATH=src python -m tests.test_reference_trajectories
"""

from __future__ import annotations

import gzip
import json
from pathlib import Path

import numpy as np
import pytest

from diverspec import (
    DsfConfig,
    TrainConfig,
    graph_inputs,
    make_splits,
    train_once,
    two_block_graph,
)

FIXTURE = Path(__file__).resolve().parent / "data" / "reference_trajectories.json.gz"
ATOL = 1e-10
DIGITS = 13
BACKBONES = ("GPR", "Bern", "Jacobi")
MODES = ("R", "I")


def variant_names() -> list[str]:
    return [
        f"{backbone}-{mode}-{'ipe' if ipe else 'no-ipe'}"
        for backbone in BACKBONES
        for mode in MODES
        for ipe in (True, False)
    ] + [f"{backbone}-R-baseline" for backbone in BACKBONES]


def run_variant(name: str):
    backbone, mode, variant = name.split("-", 2)
    homogeneous = variant == "baseline"
    cfg = DsfConfig(
        K=10, d=16, f_p=8, dropout_p=0.3, mode=mode, backbone=backbone,
        lambda_orth=0.01 if mode == "R" else 0.0,
        eta2=0.4 if mode == "I" else 0.0,
        jacobi_a=1.5, jacobi_b=-0.5,  # c0 != 0 in the Jacobi recurrence
        ablate_ipe=variant == "no-ipe",
    )
    graph = two_block_graph(block_size=20, seed=11, heterophilous=True)
    split = make_splits(graph, "dense", 1, seed=5)[0]
    return train_once(
        graph, graph_inputs(graph, cfg, homogeneous), cfg, TrainConfig(epochs=20, patience=20),
        split, seed_entropy=(23, 0, 0), homogeneous=homogeneous,
    )


def _encode(array: np.ndarray) -> dict:
    values = [float(f"{x:.{DIGITS}g}") for x in np.asarray(array).ravel()]
    return {"shape": list(np.shape(array)), "values": values}


def _decode(entry: dict) -> np.ndarray:
    return np.array(entry["values"], dtype=np.float64).reshape(entry["shape"])


def record(name: str) -> dict:
    result = run_variant(name)
    return {
        "val_history": result.val_history,
        "betas": _encode(result.betas),
        "params": {key: _encode(value) for key, value in sorted(result.params.items())},
    }


@pytest.fixture(scope="module")
def pinned() -> dict:
    return json.loads(gzip.decompress(FIXTURE.read_bytes()))


@pytest.mark.parametrize("name", variant_names())
def test_trajectory_matches_pinned_reference(name, pinned):
    expected = pinned[name]
    result = run_variant(name)
    assert result.val_history == expected["val_history"]
    assert set(result.params) == set(expected["params"])
    arrays = {"betas": (result.betas, expected["betas"])}
    arrays.update({k: (v, expected["params"][k]) for k, v in result.params.items()})
    for key, (actual, entry) in arrays.items():
        want = _decode(entry)
        assert actual.shape == want.shape, key
        err = np.abs(actual - want).max()
        assert err <= ATOL, f"{name} {key}: max abs error {err:.3e}"


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    text = json.dumps({name: record(name) for name in variant_names()}, separators=(",", ":"))
    FIXTURE.write_bytes(gzip.compress(text.encode(), mtime=0))
    print(f"wrote {FIXTURE} ({FIXTURE.stat().st_size} bytes)")
