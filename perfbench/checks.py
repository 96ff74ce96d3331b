"""Output checks run after every benchmark command, and their reference data.

The checks hold the outputs to properties, not to bytes: refactors that
reorder floating-point work must still pass. ``reference`` is computed once
per run, in the input-preparing child process, with diverspec's public
per-node oracles; ``check_outputs`` then reads one command's output
directory and returns a list of problems (empty when the outputs are good).
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from diverspec import (
    Graph,
    eigendecompose,
    local_graph_frequency,
    local_label_homophily,
    normalized_operators,
)
from diverspec.config import load_config

from generate import K_HOPS, Workload

BANDS = ("low", "mid", "high")
SAMPLE_NODES = 24
TOLERANCE = 1e-12


def expected_eigen_index(num_nodes: int, band: str) -> int:
    """1-based index of a band's eigenvalue: 1, ceil(N/2) and N."""
    return {"low": 1, "mid": (num_nodes + 1) // 2, "high": num_nodes}[band]


def reference(workload: Workload, graph: Graph, config: Path | None, rng) -> dict:
    """What the checks compare one command's outputs against.

    Computed from the generated graph, not from the program's reading of
    it. Diagnose gets the per-node oracle values of a seeded node sample;
    train gets the shape and the chance level of the task.
    """
    counts = np.bincount(graph.labels, minlength=graph.num_classes)
    ref = {
        "command": workload.command,
        "num_nodes": graph.num_nodes,
        "num_edges": graph.num_edges,
        "num_classes": graph.num_classes,
        "chance": float(counts.max() / counts.sum()),
    }
    if workload.command == "train":
        model_cfg, train_cfg = load_config(config)
        ref.update(
            K=model_cfg.K,
            backbone=model_cfg.backbone,
            epochs=train_cfg.epochs,
            cells=workload.runs * workload.splits,
        )
        return ref

    nodes = np.sort(rng.choice(graph.num_nodes, size=SAMPLE_NODES, replace=False))
    homophily = {int(v): local_label_homophily(graph, int(v), K_HOPS) for v in nodes}
    decomposition = eigendecompose(normalized_operators(graph)[1])
    bands = {}
    for band in BANDS:
        index = expected_eigen_index(graph.num_nodes, band)
        vector = decomposition.eigenvectors[:, index - 1]
        bands[band] = {
            "eigen_index": index,
            "lambda": float(decomposition.eigenvalues[index - 1]),
            # Nodes without induced edges are absent from the histogram.
            "values": {
                v: (None if h is None else local_graph_frequency(graph, vector, v, K_HOPS))
                for v, h in homophily.items()
            },
        }
    ref.update(homophily=homophily, bands=bands)
    return ref


def _read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    with open(path, encoding="utf-8") as handle:
        header = handle.readline().rstrip("\n").split(",")
    rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return header, rows


def _read_node_values(path: Path) -> dict[int, float]:
    _, rows = _read_csv(path)
    return {int(node): float(value) for node, value in rows}


def check_train(out: Path, ref: dict) -> list[str]:
    problems = []
    paths = {kind: out / f"{kind}-dsf.{ext}" for kind, ext in
             (("metrics", "json"), ("checkpoint", "json"), ("beta", "csv"))}
    missing = [str(p.name) for p in paths.values() if not p.is_file()]
    if missing:
        return [f"missing output files: {missing}"]

    metrics = json.loads(paths["metrics"].read_text(encoding="utf-8"))
    cells = metrics.get("per_run", [])
    if len(cells) != ref["cells"]:
        problems.append(f"{len(cells)} cells, expected {ref['cells']}")
    short = [c.get("epochs_run") for c in cells if c.get("epochs_run") != ref["epochs"]]
    if short:
        problems.append(f"cells stopped early: epochs_run {short}, expected {ref['epochs']}")
    mean_acc = metrics.get("mean_acc")
    if not isinstance(mean_acc, float) or not math.isfinite(mean_acc):
        problems.append(f"mean_acc {mean_acc!r} is not a finite number")
    elif mean_acc <= ref["chance"]:
        problems.append(f"mean_acc {mean_acc} is not above chance {ref['chance']}")

    checkpoint = json.loads(paths["checkpoint"].read_text(encoding="utf-8"))
    if not checkpoint.get("params"):
        problems.append("checkpoint holds no parameters")

    header, rows = _read_csv(paths["beta"])
    betas = rows[:, 1:]
    want = (ref["num_nodes"], ref["K"] + 1)
    if betas.shape != want or len(header) != want[1] + 1:
        problems.append(f"beta table has shape {betas.shape}, expected {want}")
    elif not np.isfinite(betas).all():
        problems.append("beta table holds non-finite values")
    elif ref["backbone"] == "Bern" and (betas < 0).any():
        problems.append(f"Bern beta table has negative entries (min {betas.min()})")
    elif not np.array_equal(rows[:, 0], np.arange(ref["num_nodes"])):
        problems.append("beta table rows are not nodes 0..N-1 in order")
    return problems


def check_diagnose(out: Path, ref: dict) -> list[str]:
    problems = []
    names = ["homophily.csv", "summary.json"]
    names += [f"frequency_{band}.{ext}" for band in BANDS for ext in ("csv", "json")]
    missing = [name for name in names if not (out / name).is_file()]
    if missing:
        return [f"missing output files: {missing}"]

    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    for key in ("num_nodes", "num_edges"):
        if summary.get(key) != ref[key]:
            problems.append(f"summary {key} {summary.get(key)}, expected {ref[key]}")

    homophily = _read_node_values(out / "homophily.csv")
    outside = [v for v in homophily.values() if not 0.0 <= v <= 1.0]
    if outside:
        problems.append(f"{len(outside)} homophily values outside [0, 1]")
    problems += _compare_sample("homophily", homophily, ref["homophily"])

    for band in BANDS:
        want = ref["bands"][band]
        sidecar = json.loads((out / f"frequency_{band}.json").read_text(encoding="utf-8"))
        if sidecar.get("eigen_index") != want["eigen_index"]:
            problems.append(
                f"{band} band eigen_index {sidecar.get('eigen_index')}, "
                f"expected {want['eigen_index']}"
            )
        lam = sidecar.get("lambda_global")
        if not isinstance(lam, float) or abs(lam - want["lambda"]) > TOLERANCE:
            problems.append(f"{band} band lambda_global {lam}, expected {want['lambda']}")
            continue
        values = _read_node_values(out / f"frequency_{band}.csv")
        outside = [v for v in values.values() if not 0.0 <= v <= lam + TOLERANCE]
        if outside:
            problems.append(f"{len(outside)} {band} frequencies outside [0, {lam}]")
        problems += _compare_sample(f"{band} frequency", values, want["values"])
    return problems


def _compare_sample(what: str, got: dict[int, float], want: dict) -> list[str]:
    """Sampled nodes must match the per-node oracle to ``TOLERANCE``."""
    problems = []
    for node, expected in want.items():
        node = int(node)
        if expected is None:
            if node in got:
                problems.append(f"{what}: node {node} has no induced edges but is listed")
        elif node not in got:
            problems.append(f"{what}: node {node} is missing")
        elif abs(got[node] - expected) > TOLERANCE:
            problems.append(f"{what}: node {node} is {got[node]}, oracle {expected}")
    return problems


def check_outputs(out: Path, ref: dict) -> list[str]:
    if ref["command"] == "train":
        return check_train(out, ref)
    return check_diagnose(out, ref)
