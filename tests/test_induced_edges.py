"""Blockwise induced-edge sums against the per-node BFS oracles.

``induced_edge_sums`` gives both diagnose histograms their per-node sums
without a BFS per node: per block of nodes, a 0/1 k-hop reach mask, and per
chunk of edges, one gather of both endpoints' mask rows contracted with
every value column in one GEMM. These tests hold it, and the histograms
built on it, to ``k_hop``, ``local_label_homophily`` and
``local_graph_frequency`` node by node, across several reach blocks and
edge chunks, and bound its memory below one N x N float32 array.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diverspec import (
    eigendecompose,
    frequency_histogram,
    homophily_histogram,
    k_hop,
    local_graph_frequency,
    local_label_homophily,
    normalized_operators,
    random_graph,
)
from diverspec.errors import DataError
from diverspec.graph import _EDGE_CHUNK, _REACH_BLOCK, edge_matrix, induced_edge_sums
from diverspec.spectral import HISTOGRAM_BANDS, band_eigen_index, local_histograms
from tests.conftest import toy_graph


@st.composite
def small_graphs(draw):
    """Graphs of 1-12 nodes; empty or self-loop-only edge lists give edgeless graphs."""
    n = draw(st.integers(1, 12))
    node = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(node, node), max_size=3 * n))
    labels = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    return toy_graph(edges, labels, num_classes=3)


def assert_histograms_match_oracles(graph, k):
    induced = {node: k_hop(graph, node, k)[1] for node in range(graph.num_nodes)}
    defined = np.array([node for node, e in induced.items() if e.shape[0]], dtype=np.int64)

    values = np.arange(1.0, graph.num_edges + 1.0)
    counts, sums = induced_edge_sums(graph, k, values)
    key = np.array([graph.num_nodes, 1])
    for node, edges in induced.items():
        inside = np.isin(graph.edges @ key, edges @ key)
        assert counts[node] == edges.shape[0]
        assert sums[node] == values[inside].sum()

    # One sweep over an (E, 3) matrix of integers equals one call per column,
    # bit for bit, since their sums are exact; an edgeless graph gives (0, 3).
    matrix = np.stack([values, values[::-1], values % 3 == 0], axis=1)
    matrix_counts, matrix_sums = induced_edge_sums(graph, k, matrix)
    np.testing.assert_array_equal(matrix_counts, counts)
    assert matrix_sums.shape == (graph.num_nodes, 3)
    for column in range(3):
        _, column_sums = induced_edge_sums(graph, k, matrix[:, column])
        np.testing.assert_array_equal(matrix_sums[:, column], column_sums)

    ids, homophily = homophily_histogram(graph, k)
    np.testing.assert_array_equal(ids, defined)
    for node, h in zip(ids, homophily):
        assert h == local_label_homophily(graph, int(node), k)

    indices = [band_eigen_index(graph.num_nodes, band) for band in HISTOGRAM_BANDS]
    decomposition = eigendecompose(normalized_operators(graph)[1], indices=indices)
    swept_ids, swept_homophily, swept = local_histograms(
        graph, k, decomposition, HISTOGRAM_BANDS
    )
    np.testing.assert_array_equal(swept_ids, ids)
    np.testing.assert_array_equal(swept_homophily, homophily)
    for band in HISTOGRAM_BANDS:
        hist = frequency_histogram(graph, decomposition, band, k)
        np.testing.assert_array_equal(swept[band].values, hist.values)
        np.testing.assert_array_equal(hist.node_ids, defined)
        _, vector = decomposition.pair(hist.eigen_index - 1)
        expected = [local_graph_frequency(graph, vector, int(node), k) for node in defined]
        np.testing.assert_allclose(hist.values, expected, rtol=0.0, atol=1e-12)


@settings(max_examples=80, deadline=None)
@given(graph=small_graphs(), k=st.integers(0, 3) | st.just(10**6))
def test_histograms_match_per_node_oracles(graph, k):
    assert_histograms_match_oracles(graph, k)


def test_a_band_does_not_depend_on_the_other_bands_asked_for():
    # On this star-like graph a band's sums carried rounding from the other
    # columns of the GEMM when each call packed only the bands it was asked for.
    hub = [(0, node) for node in range(1, 10)]
    graph = toy_graph(hub + [(1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 8), (3, 4)], [0] * 10, 3)
    indices = [band_eigen_index(graph.num_nodes, band) for band in HISTOGRAM_BANDS]
    decomposition = eigendecompose(normalized_operators(graph)[1], indices=indices)
    for k in (1, 2):
        every = local_histograms(graph, k, decomposition, HISTOGRAM_BANDS)[2]
        for band in HISTOGRAM_BANDS:
            for bands in ((band,), HISTOGRAM_BANDS[::-1]):
                alone = local_histograms(graph, k, decomposition, bands)[2][band]
                np.testing.assert_array_equal(alone.values, every[band].values)


def test_histograms_match_oracles_across_reach_blocks():
    graph = random_graph(2 * _REACH_BLOCK + 76, 4.0 / 1100, seed=11)
    assert (graph.degrees == 0).any()
    assert graph.num_edges > 2 * _EDGE_CHUNK
    assert_histograms_match_oracles(graph, k=2)


def test_induced_edge_sums_holds_no_n_by_n_array():
    # A sweep with float64 (N, 512) reach blocks and one sparse product per
    # value column peaks at about 4.5 bytes per N^2 here; the float32 reach
    # blocks and the gathered edge mask stay near 2.5.
    n = 2000
    graph = random_graph(n, 4.0 / n, seed=3)
    assert graph.num_edges > 2 * _EDGE_CHUNK
    values = np.random.default_rng(1).random((graph.num_edges, 4))
    graph.adjacency  # cached on the graph, not part of the sweep
    tracemalloc.start()
    try:
        induced_edge_sums(graph, 2, values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n * np.dtype(np.float32).itemsize


def test_induced_edge_sums_rejects_negative_hops(p3):
    with pytest.raises(DataError, match="nonnegative"):
        induced_edge_sums(p3, -1, np.ones(p3.num_edges))


def test_edge_matrix_places_each_value_at_both_orientations(p3):
    matrix = edge_matrix(p3, np.array([2.0, 5.0])).toarray()
    np.testing.assert_array_equal(matrix, [[0.0, 2.0, 0.0], [2.0, 0.0, 5.0], [0.0, 5.0, 0.0]])
