"""Seeded input generators and the three benchmark workloads.

Every workload turns ``--seed`` into a dataset directory (written through the
public ``diverspec.save_dataset``) plus, for ``train``, a flat config file.
Graphs are built with vectorised sampling: ``random_graph`` and
``two_block_graph`` enumerate all O(N^2) node pairs in Python, which is far
too slow at these sizes.

Every generated graph is irregular and has no isolated node: each node is
first wired to one partner of another class, then extra edges are drawn
between degree-weighted endpoints. Regular graphs are avoided because their
RWPE rows are all equal, which the mode-R orthogonality penalty rejects.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from diverspec import Graph, build_graph, save_dataset
from diverspec.config import parse_config_text



def make_rng(seed: int, stream: int) -> np.random.Generator:
    """Philox stream keyed by (seed, stream), independent of diverspec's own seeding."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, stream])))


# Distinct stream words keep the generators and the check sample apart even
# when they share a seed.
STREAMS = {"cornell-gpr": 1, "block2k-bern": 2, "chameleon-diagnose": 3, "check-sample": 4}
K_HOPS = 2


def pareto_weights(rng: np.random.Generator, n: int, shape: float) -> np.ndarray:
    """Degree weights at fixed Pareto quantiles, shuffled over the nodes.

    Fixed quantiles keep the degree profile (hub size included) the same for
    every seed; only which node gets which weight, and the edges, vary.
    A random Pareto sample would let the largest hub swing by a factor of
    three between seeds, and the per-node BFS cost with it.
    """
    quantiles = (np.arange(n) + 0.5) / n
    return rng.permutation((1.0 - quantiles) ** (-1.0 / shape))


def heterophilous_edges(
    rng: np.random.Generator,
    labels: np.ndarray,
    num_edges: int,
    weights: np.ndarray,
    same_accept: float,
) -> np.ndarray:
    """About ``num_edges`` canonical edges that mostly join different classes.

    A pair with equal labels is kept with probability ``same_accept``; a
    pair with different labels always. Endpoints of the extra edges are drawn
    proportionally to ``weights``, which sets how heavy the degree tail is.
    """
    n = labels.shape[0]
    partner = rng.integers(0, n, size=n)
    bad = labels[partner] == labels
    while bad.any():
        partner[bad] = rng.integers(0, n, size=int(bad.sum()))
        bad = labels[partner] == labels
    spanning = np.stack([np.arange(n), partner], axis=1)

    draws = 4 * num_edges
    prob = weights / weights.sum()
    src = rng.choice(n, size=draws, p=prob)
    dst = rng.choice(n, size=draws, p=prob)
    keep = (src != dst) & ((labels[src] != labels[dst]) | (rng.random(draws) < same_accept))
    extra = np.stack([src[keep], dst[keep]], axis=1)

    pairs = np.concatenate([spanning, extra])
    pairs = np.sort(pairs, axis=1)
    keys = pairs[:, 0] * n + pairs[:, 1]
    _, first = np.unique(keys, return_index=True)
    first.sort()  # keep draw order, so truncation does not favour low ids
    return pairs[first[: max(num_edges, n)]]


def bag_of_words(
    rng: np.random.Generator,
    labels: np.ndarray,
    num_features: int,
    base_rate: float,
    topic_words: int,
    topic_rate: float,
) -> np.ndarray:
    """Sparse binary features; each class over-uses its own block of words."""
    n = labels.shape[0]
    rate = np.full((n, num_features), base_rate, dtype=np.float32)
    num_classes = int(labels.max()) + 1
    for c in range(num_classes):
        rows = labels == c
        rate[np.ix_(rows, np.arange(c * topic_words, (c + 1) * topic_words))] = topic_rate
    return (rng.random((n, num_features), dtype=np.float32) < rate).astype(np.float64)


def cornell_graph(seed: int) -> Graph:
    """Cornell-shaped: N=183, ~300 heterophilous edges, F=1703 binary, C=5."""
    rng = make_rng(seed, STREAMS["cornell-gpr"])
    n, num_classes = 183, 5
    labels = rng.integers(0, num_classes, size=n)
    weights = pareto_weights(rng, n, 1.5)
    edges = heterophilous_edges(rng, labels, 300, weights, same_accept=0.6)
    features = bag_of_words(rng, labels, 1703, 0.02, 40, 0.3)
    return build_graph(edges, n, features, labels, num_classes)


def block_graph(seed: int) -> Graph:
    """Heterophilous block graph: N=2000, average degree 6, F=64 Gaussian, C=5."""
    rng = make_rng(seed, STREAMS["block2k-bern"])
    n, num_classes, num_features = 2000, 5, 64
    labels = rng.integers(0, num_classes, size=n)
    weights = pareto_weights(rng, n, 8.0)
    edges = heterophilous_edges(rng, labels, 3 * n, weights, same_accept=0.2)
    means = rng.normal(size=(num_classes, num_features))
    features = means[labels] + rng.normal(scale=2.0, size=(n, num_features))
    return build_graph(edges, n, features, labels, num_classes)


def chameleon_graph(seed: int) -> Graph:
    """Chameleon-shaped: N=2277, ~31k edges with hubs, F=2325 binary, C=5."""
    rng = make_rng(seed, STREAMS["chameleon-diagnose"])
    n, num_classes = 2277, 5
    labels = rng.integers(0, num_classes, size=n)
    weights = pareto_weights(rng, n, 2.1)
    edges = heterophilous_edges(rng, labels, 31000, weights, same_accept=1.0)
    features = bag_of_words(rng, labels, 2325, 0.01, 60, 0.1)
    return build_graph(edges, n, features, labels, num_classes)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: how to build its inputs and which command to run.

    Train workloads set ``patience = epochs`` so every cell runs every epoch
    and the amount of work per command is fixed.
    """

    name: str
    command: str
    build: Callable[[int], Graph]
    runs: int = 1
    splits: int = 1
    base_config: str | None = None
    config_overrides: dict = field(default_factory=dict)

    def argv(self, data: Path, config: Path | None, out: Path, seed: int) -> list[str]:
        """The ``diverspec`` command line for one benchmark command."""
        if self.command == "diagnose":
            return ["diagnose", "--data", str(data), "--out", str(out),
                    "--k-hops", str(K_HOPS), "--bands", "low,mid,high"]
        return ["train", "--data", str(data), "--config", str(config), "--out", str(out),
                "--runs", str(self.runs), "--splits", str(self.splits), "--seed", str(seed)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="cornell-gpr",
            command="train",
            build=cornell_graph,
            runs=1,
            splits=2,
            base_config="configs/cornell.conf",
            config_overrides={"epochs": 40, "patience": 40},
        ),
        Workload(
            name="block2k-bern",
            command="train",
            build=block_graph,
            runs=1,
            splits=2,
            config_overrides={
                "backbone": "Bern", "mode": "R", "pe_init": "RWPE", "K": 10, "d": 64,
                "f_p": 16, "eta1": 0.3, "lambda_orth": 0.001, "dropout_p": 0.5,
                "lr": 0.05, "weight_decay": 0.0005, "epochs": 4, "patience": 4,
            },
        ),
        Workload(
            name="chameleon-diagnose",
            command="diagnose",
            build=chameleon_graph,
        ),
    )
}


def config_text(workload: Workload, repo_root: Path) -> str | None:
    """The flat config a train workload runs with; ``None`` for diagnose.

    ``base_config`` (a committed config file) supplies the model; the
    overrides pin the amount of work.
    """
    if workload.command != "train":
        return None
    values = {}
    if workload.base_config is not None:
        path = repo_root / workload.base_config
        values = parse_config_text(path.read_text(encoding="utf-8"), source=str(path))
    values.update(workload.config_overrides)
    return "".join(f"{key} = {value}\n" for key, value in values.items())


def prepare(workload: Workload, seed: int, directory: Path, repo_root: Path):
    """Write the workload's dataset (and config file) under ``directory``.

    Returns the generated graph, the dataset directory and the config path
    (``None`` for diagnose).
    """
    graph = workload.build(seed)
    data = directory / "data"
    save_dataset(graph, workload.name, data)
    text = config_text(workload, repo_root)
    if text is None:
        return graph, data, None
    config = directory / "workload.conf"
    config.write_text(text, encoding="utf-8")
    return graph, data, config
