"""Shared fixtures: tiny closed-form graphs and the acceptance report hook."""

from __future__ import annotations

import os
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from diverspec import Graph, build_graph, random_graph
from diverspec import graph as graph_module

DATA_ROOT = Path(__file__).resolve().parent.parent / "data"


def require_dataset(name: str) -> Path:
    """Skip the calling test unless data/<name>/ holds a complete dataset."""
    root = DATA_ROOT / name
    missing = [
        f for f in ("meta.json", "edges.tsv", "nodes.tsv") if not (root / f).is_file()
    ]
    if missing:
        pytest.skip(
            f"dataset '{name}' not available: place {', '.join(missing)} "
            f"under {root} to enable this check"
        )
    return root


def toy_graph(
    edges: list[tuple[int, int]],
    labels: list[int],
    num_classes: int | None = None,
    features: np.ndarray | None = None,
) -> Graph:
    n = len(labels)
    if features is None:
        features = np.eye(n, dtype=np.float64)
    if num_classes is None:
        num_classes = max(labels) + 1
    return build_graph(edges, n, features, np.array(labels), num_classes)


def connected_random_graph(num_nodes: int, edge_prob: float, seed: int) -> Graph:
    """Random graph with a spanning path unioned in, so no node is isolated.

    The edge-sum form of the Dirichlet energy only agrees with the Rayleigh
    quotient when every node has degree >= 1 (an isolated node contributes
    to x^T L x through the Laplacian's unit diagonal but appears in no edge).
    """
    base = random_graph(num_nodes, edge_prob, seed=seed)
    order = np.random.default_rng((seed, num_nodes)).permutation(num_nodes)
    chain = np.stack([order[:-1], order[1:]], axis=1)
    edges = np.concatenate([base.edges, chain]) if base.edges.size else chain
    return build_graph(edges, num_nodes, base.features, base.labels, base.num_classes)


def set_usable_cpus(monkeypatch, count: int) -> None:
    """Patch the CPU count every forking stage reads (``graph.usable_cpus``)."""
    monkeypatch.setattr(graph_module, "usable_cpus", lambda: count)


def counting_forks(monkeypatch) -> list[int]:
    """Patch ``os.fork`` to log each child pid; the list fills in this process."""
    forks, real_fork = [], os.fork

    def fork():
        pid = real_fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return forks


# Vertex-transitive graphs: every RWPE row is equal, so every positional
# column is flat. Each entry is (num_nodes, edge list).
EQUAL_RWPE_ROWS = {
    "c30": (30, [(i, (i + 1) % 30) for i in range(30)]),
    "k20": (20, list(combinations(range(20), 2))),
    "petersen": (
        10,
        [(i, (i + 1) % 5) for i in range(5)]
        + [(i, i + 5) for i in range(5)]
        + [(5 + i, 5 + (i + 2) % 5) for i in range(5)],
    ),
}


@pytest.fixture
def k2() -> Graph:
    return toy_graph([(0, 1)], labels=[0, 1])


@pytest.fixture
def c3() -> Graph:
    return toy_graph([(0, 1), (1, 2), (0, 2)], labels=[0, 1, 0])


@pytest.fixture
def p3() -> Graph:
    return toy_graph([(0, 1), (1, 2)], labels=[0, 0, 1])


@pytest.fixture
def star6() -> Graph:
    """Star on 6 nodes, center 0 labeled differently from every leaf."""
    return toy_graph([(0, i) for i in range(1, 6)], labels=[1, 0, 0, 0, 0, 0])


# --- acceptance reporting -------------------------------------------------
#
# Each test_criterion_<nn>_<label> test in test_acceptance.py yields one
# line in a dedicated terminal section so the verdict per criterion is
# readable at a glance.

_acceptance: dict[str, tuple[str, str]] = {}


def pytest_runtest_logreport(report):
    marker = "test_acceptance.py::test_criterion_"
    if marker not in report.nodeid:
        return
    if report.when != "call" and not (report.when == "setup" and report.skipped):
        return
    name = report.nodeid.split("::test_criterion_", 1)[1]
    number, _, label = name.partition("_")
    outcome = report.outcome.upper()
    if report.skipped and isinstance(report.longrepr, tuple):
        reason = report.longrepr[2].removeprefix("Skipped: ")
        outcome = f"SKIPPED ({reason})"
    _acceptance[number] = (label.replace("_", " "), outcome)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _acceptance:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(_acceptance):
        label, outcome = _acceptance[number]
        terminalreporter.write_line(f"criterion {number} ({label}): {outcome}")
