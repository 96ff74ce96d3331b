"""Weight clustering, centroid response curves, and diagnostic histograms."""

from __future__ import annotations

import numpy as np
import pytest

from diverspec import (
    Bernstein,
    Monomial,
    centroid_curves,
    cluster_weights,
    filter_response,
    homophily_histogram,
    local_label_homophily,
)
from diverspec.errors import UsageError
from tests.conftest import toy_graph


def blobs(seed=0):
    rng = np.random.default_rng(seed)
    a = rng.normal(-10.0, 0.5, size=(20, 3))
    b = rng.normal(10.0, 0.5, size=(25, 3))
    return np.concatenate([a, b]), 20


def test_cluster_identical_rows_collapse():
    weights = np.tile([1.0, -2.0, 0.5], (12, 1))
    clustering = cluster_weights(weights, k=1, seed=0)
    assert len(set(clustering.labels.tolist())) == 1
    for centroid in clustering.centroids:
        assert np.allclose(centroid, [1.0, -2.0, 0.5])
    assert clustering.inertia == pytest.approx(0.0, abs=1e-20)


def test_cluster_two_blobs_perfectly():
    weights, split_at = blobs()
    clustering = cluster_weights(weights, k=2, seed=1)
    left = set(clustering.labels[:split_at])
    right = set(clustering.labels[split_at:])
    assert len(left) == 1 and len(right) == 1 and left != right
    within = sum(
        np.sum((weights[clustering.labels == c] - weights[clustering.labels == c].mean(axis=0)) ** 2)
        for c in range(2)
    )
    assert clustering.inertia == pytest.approx(within)


def test_cluster_determinism():
    weights, _ = blobs(seed=3)
    a = cluster_weights(weights, k=4, seed=9)
    b = cluster_weights(weights, k=4, seed=9)
    assert np.array_equal(a.labels, b.labels)
    assert np.array_equal(a.centroids, b.centroids)


def test_cluster_requires_enough_rows():
    with pytest.raises(UsageError):
        cluster_weights(np.ones((3, 2)), k=4, seed=0)
    # Duplicate rows count once: a shared-row table has a single distinct row.
    with pytest.raises(UsageError, match=r"\[1, 1\]"):
        cluster_weights(np.tile([1.0, -2.0, 0.5], (12, 1)), k=3, seed=0)
    two_rows = np.repeat([[0.0, 1.0], [2.0, 3.0]], 5, axis=0)
    with pytest.raises(UsageError, match=r"\[1, 2\]"):
        cluster_weights(two_rows, k=3, seed=0)
    assert sorted(np.bincount(cluster_weights(two_rows, k=2, seed=0).labels)) == [5, 5]


def test_cluster_inertia_never_increases():
    rng = np.random.default_rng(5)
    weights = rng.standard_normal((60, 4))
    clustering = cluster_weights(weights, k=5, seed=2)
    history = clustering.inertia_history
    assert all(b <= a + 1e-12 for a, b in zip(history, history[1:]))
    assert clustering.inertia == history[-1]


def test_cluster_every_node_assigned_and_centroids_are_means():
    rng = np.random.default_rng(6)
    weights = rng.standard_normal((40, 3))
    clustering = cluster_weights(weights, k=4, seed=4)
    assert clustering.labels.shape == (40,)
    assert set(np.unique(clustering.labels)) <= set(range(4))
    for c in range(4):
        members = weights[clustering.labels == c]
        if len(members):
            assert np.allclose(clustering.centroids[c], members.mean(axis=0))


def test_centroid_curves_zero_and_partition_of_unity():
    grid = np.linspace(0.0, 2.0, 101)
    curves = centroid_curves(np.zeros((2, 4)), Monomial(), grid)
    assert curves.shape == (2, 101)
    assert np.all(curves == 0.0)
    ones = np.ones((1, 6))
    bern = centroid_curves(ones, Bernstein(5), grid)
    assert np.abs(bern - 1.0).max() < 1e-12


def test_centroid_curve_equals_mean_of_member_curves():
    rng = np.random.default_rng(7)
    weights = rng.standard_normal((15, 4))
    clustering = cluster_weights(weights, k=3, seed=5)
    grid = np.linspace(0.0, 2.0, 31)
    curves = centroid_curves(clustering.centroids, Monomial(), grid)
    for c in range(3):
        members = weights[clustering.labels == c]
        member_curves = np.stack(
            [filter_response(w, Monomial(), grid) for w in members]
        )
        assert np.abs(curves[c] - member_curves.mean(axis=0)).max() < 1e-10


def test_homophily_histogram_uniform_labels():
    g = toy_graph([(0, 1), (1, 2), (0, 2)], labels=[1, 1, 1], num_classes=2)
    node_ids, values = homophily_histogram(g, k=2)
    assert node_ids.tolist() == [0, 1, 2]
    assert np.all(values == 1.0)


def test_homophily_histogram_path(p3):
    _, values = homophily_histogram(p3, k=2)
    assert np.allclose(values, 0.5)


def test_homophily_histogram_star_center(star6):
    node_ids, values = homophily_histogram(star6, k=1)
    assert values[node_ids.tolist().index(0)] == 0.0


def test_homophily_histogram_matches_pointwise_definition(star6):
    node_ids, values = homophily_histogram(star6, k=2)
    for node, value in zip(node_ids, values):
        assert value == local_label_homophily(star6, int(node), 2)


def test_homophily_histogram_drops_undefined():
    g = toy_graph([(0, 1)], labels=[0, 1, 1])
    node_ids, values = homophily_histogram(g, k=2)
    assert 2 not in node_ids
    assert len(values) == 2

