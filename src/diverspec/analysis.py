"""Post-hoc analysis of learned per-node filters and label structure.

Clustering the (N, K+1) weight table reveals the handful of filter shapes a
trained model actually uses; centroid response curves make those shapes
inspectable on the spectrum. The label-homophily histogram is the matching
diagnostic on the data side.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UsageError
from .graph import Graph
from .polynomials import BasisKind, filter_response
from .autodiff import make_rng
from .spectral import local_histograms


@dataclass(frozen=True)
class Clustering:
    """k-means output: assignments, centroids, and the inertia trace.

    ``inertia_history[i]`` is the total squared distance after iteration i;
    it is nonincreasing. The final entry is the converged inertia.
    """

    labels: np.ndarray
    centroids: np.ndarray
    inertia: float
    iterations: int
    inertia_history: list[float]


def _assign(points: np.ndarray, centroids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    d2 = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    labels = np.argmin(d2, axis=1)
    return labels, d2[np.arange(points.shape[0]), labels]


def cluster_weights(
    weights: np.ndarray, k: int = 5, seed: int = 0, max_iter: int = 300
) -> Clustering:
    """Lloyd's k-means with k-means++ seeding over per-node weight rows.

    Deterministic given the seed. Converges when assignments stop changing
    (or at ``max_iter``). An emptied cluster is reseeded to the point
    farthest from its assigned centroid. ``k`` may not exceed the number of
    distinct rows (one for a shared-coefficient baseline table): the extra
    clusters could only stay empty.
    """
    points = np.asarray(weights, dtype=np.float64)
    if points.ndim != 2:
        raise UsageError(f"weights must be 2-D, got shape {points.shape}")
    n = points.shape[0]
    distinct = len(np.unique(points, axis=0))
    if not 1 <= k <= distinct:
        raise UsageError(f"cluster count must lie in [1, {distinct}] (distinct weight rows), got {k}")

    rng = make_rng(seed)
    centroids = np.empty((k, points.shape[1]))
    centroids[0] = points[rng.integers(n)]
    for j in range(1, k):
        d2 = ((points[:, None, :] - centroids[None, :j, :]) ** 2).sum(axis=2).min(axis=1)
        total = d2.sum()
        if total == 0.0:
            centroids[j] = points[rng.integers(n)]
        else:
            centroids[j] = points[rng.choice(n, p=d2 / total)]

    labels = np.full(n, -1)
    history: list[float] = []
    iterations = 0
    for iterations in range(1, max_iter + 1):
        new_labels, dists = _assign(points, centroids)
        taken: set[int] = set()
        for j in range(k):
            members = new_labels == j
            if members.any():
                centroids[j] = points[members].mean(axis=0)
            else:
                order = np.argsort(-dists)
                pick = next(int(i) for i in order if int(i) not in taken)
                taken.add(pick)
                centroids[j] = points[pick]
                new_labels[pick] = j
        history.append(float(_assign(points, centroids)[1].sum()))
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels

    final_labels, final_d2 = _assign(points, centroids)
    return Clustering(
        labels=final_labels,
        centroids=centroids,
        inertia=float(final_d2.sum()),
        iterations=iterations,
        inertia_history=history,
    )


def centroid_curves(
    centroids: np.ndarray, kind: BasisKind, grid: np.ndarray
) -> np.ndarray:
    """Spectral response g(lambda) of each centroid's coefficient row.

    Returns (k, len(grid)); row j is cluster j's filter shape.
    """
    centroids = np.asarray(centroids, dtype=np.float64)
    return np.stack([filter_response(row, kind, grid) for row in centroids])


def homophily_histogram(graph: Graph, k: int = 2) -> tuple[np.ndarray, np.ndarray]:
    """Per-node local label homophily over k-hop induced edges.

    Nodes where the quantity is undefined (empty induced edge set) are
    dropped; returns (node_ids, values) of the defined remainder, from
    :func:`~diverspec.spectral.local_histograms`.
    """
    return local_histograms(graph, k)[:2]
