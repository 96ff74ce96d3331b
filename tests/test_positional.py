"""RWPE from the diagonal of Â powers against explicit random-walk powers.

``init_positional`` reads diag((A D^-1)^m) off products of Â with blocks of
identity columns; these tests hold it to dense matrix powers on small graphs
and to sparse matrix powers on a graph that spans several blocks.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from diverspec import DsfConfig, init_positional, normalized_operators, random_graph
from diverspec.graph import _REACH_BLOCK
from tests.test_induced_edges import small_graphs


def sparse_walk_oracle(graph, f_p):
    """diag((A D^-1)^m), m = 1..f_p, by explicit sparse matrix powers."""
    deg = graph.degrees.astype(np.float64)
    inv_deg = np.divide(1.0, deg, out=np.zeros_like(deg), where=deg > 0)
    walk = graph.adjacency.copy()
    walk.data = walk.data * inv_deg[walk.indices]  # column-scale: A @ D^{-1}
    power = walk.copy()
    columns = [power.diagonal()]
    for _ in range(f_p - 1):
        power = (power @ walk).tocsr()
        columns.append(power.diagonal())
    return np.stack(columns, axis=1)


def rwpe(graph, f_p):
    return init_positional(normalized_operators(graph)[0], DsfConfig(f_p=f_p))


@settings(max_examples=80, deadline=None)
@given(graph=small_graphs(), data=st.data())
def test_rwpe_matches_dense_walk_powers(graph, data):
    f_p = data.draw(st.integers(1, graph.num_nodes), label="f_p")
    walk = graph.adjacency.toarray() @ np.linalg.pinv(np.diag(graph.degrees.astype(np.float64)))
    expected = np.stack(
        [np.diag(np.linalg.matrix_power(walk, m)) for m in range(1, f_p + 1)], axis=1
    )
    positional = rwpe(graph, f_p)
    assert positional.shape == (graph.num_nodes, f_p)
    np.testing.assert_allclose(positional, expected, rtol=0.0, atol=1e-12)
    assert np.all(positional[graph.degrees == 0] == 0.0)


def test_rwpe_matches_sparse_walk_powers_across_blocks():
    graph = random_graph(2 * _REACH_BLOCK + 76, 4.0 / 1100, seed=11)
    isolated = graph.degrees == 0
    assert isolated.any()
    positional = rwpe(graph, 6)
    np.testing.assert_allclose(positional, sparse_walk_oracle(graph, 6), rtol=0.0, atol=1e-12)
    assert np.all(positional[isolated] == 0.0)
    assert np.all(positional[~isolated, 1] > 0.0)  # every walk can step back
