"""Eigendecomposition, graph Fourier transform, and frequency measures."""

from __future__ import annotations

import numpy as np
import pytest
from scipy import sparse

from diverspec import (
    band_eigen_index,
    eigendecompose,
    fourier,
    frequency_histogram,
    global_frequency,
    inverse_fourier,
    local_graph_frequency,
    normalized_operators,
    random_graph,
)
from diverspec.errors import UsageError
from diverspec.graph import SparseOperator
from diverspec.spectral import HISTOGRAM_BANDS
from tests.conftest import connected_random_graph, toy_graph

INV_SQRT2 = 1.0 / np.sqrt(2.0)


def test_eigendecompose_k2(k2):
    _, l_hat = normalized_operators(k2)
    dec = eigendecompose(l_hat)
    assert np.allclose(dec.eigenvalues, [0.0, 2.0])
    assert np.allclose(
        dec.eigenvectors, [[INV_SQRT2, INV_SQRT2], [INV_SQRT2, -INV_SQRT2]]
    )


def test_eigendecompose_triangle(c3):
    _, l_hat = normalized_operators(c3)
    dec = eigendecompose(l_hat)
    assert np.allclose(dec.eigenvalues, [0.0, 1.5, 1.5])


def test_eigendecompose_path(p3):
    _, l_hat = normalized_operators(p3)
    dec = eigendecompose(l_hat)
    assert np.allclose(dec.eigenvalues, [0.0, 1.0, 2.0])


def test_eigendecompose_sign_convention_is_deterministic(p3):
    _, l_hat = normalized_operators(p3)
    dec = eigendecompose(l_hat)
    for col in dec.eigenvectors.T:
        assert col[np.argmax(np.abs(col))] > 0


def test_eigendecompose_rejects_asymmetric():
    mat = sparse.csr_array(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(UsageError):
        eigendecompose(SparseOperator(mat, symmetric=False))


def test_eigenpair_residuals_random():
    for seed in range(5):
        g = random_graph(40, edge_prob=0.1, seed=seed)
        _, l_hat = normalized_operators(g)
        dec = eigendecompose(l_hat)
        residual = l_hat.dense() @ dec.eigenvectors - dec.eigenvectors * dec.eigenvalues
        assert np.abs(residual).max() < 1e-12
        assert dec.eigenvalues.min() > -1e-12
        assert dec.eigenvalues.max() < 2 + 1e-12


def test_fourier_k2_example(k2):
    _, l_hat = normalized_operators(k2)
    dec = eigendecompose(l_hat)
    coeffs = fourier(dec.eigenvectors, np.array([[1.0], [0.0]]))
    assert np.allclose(coeffs, [[INV_SQRT2], [INV_SQRT2]])


def test_fourier_round_trip_random_unit_vectors(c3):
    _, l_hat = normalized_operators(c3)
    dec = eigendecompose(l_hat)
    rng = np.random.default_rng(7)
    for _ in range(100):
        x = rng.standard_normal((3, 1))
        x /= np.linalg.norm(x)
        back = inverse_fourier(dec.eigenvectors, fourier(dec.eigenvectors, x))
        assert np.abs(back - x).max() < 1e-12


def test_global_frequency_equals_rayleigh_quotient():
    g = connected_random_graph(30, edge_prob=0.15, seed=3)
    _, l_hat = normalized_operators(g)
    dec = eigendecompose(l_hat)
    lap = l_hat.dense()
    rng = np.random.default_rng(0)
    for _ in range(10):
        x = rng.standard_normal(30)
        x /= np.linalg.norm(x)
        assert abs(global_frequency(g, x) - x @ lap @ x) < 1e-12
    # on an eigenvector the edge sum is exactly its eigenvalue
    for idx in (0, 7, 29):
        u = dec.eigenvectors[:, idx]
        assert abs(global_frequency(g, u) - dec.eigenvalues[idx]) < 1e-10


def test_global_frequency_constant_vector_is_zero(p3):
    # constant in the D^{1/2}-scaled sense: u_p proportional to sqrt(deg_p)
    u = np.sqrt(p3.degrees.astype(float))
    u /= np.linalg.norm(u)
    assert global_frequency(p3, u) < 1e-15


def test_local_graph_frequency_monotone_and_bounded():
    g = random_graph(25, edge_prob=0.2, seed=11)
    _, l_hat = normalized_operators(g)
    dec = eigendecompose(l_hat)
    u = dec.eigenvectors[:, -1]
    lam_max = dec.eigenvalues[-1]
    for node in (0, 5, 17):
        values = [local_graph_frequency(g, u, node, k) for k in range(1, 6)]
        assert all(b >= a - 1e-15 for a, b in zip(values, values[1:]))
        assert values[-1] <= lam_max + 1e-12


def test_local_graph_frequency_full_hop_reaches_global(c3):
    _, l_hat = normalized_operators(c3)
    dec = eigendecompose(l_hat)
    u = dec.eigenvectors[:, 2]
    assert abs(local_graph_frequency(c3, u, 0, 2) - global_frequency(c3, u)) < 1e-14


def test_band_eigen_index():
    assert band_eigen_index(3, "low") == 0
    assert band_eigen_index(3, "mid") == 1
    assert band_eigen_index(3, "high") == 2
    assert band_eigen_index(10, "mid") == 4  # 1-based ceil(10/2) = 5
    with pytest.raises(UsageError):
        band_eigen_index(3, "ultra")


def test_frequency_histogram_low_band_connected(c3):
    _, l_hat = normalized_operators(c3)
    dec = eigendecompose(l_hat)
    hist = frequency_histogram(c3, dec, "low")
    assert hist.eigen_index == 1
    assert abs(hist.lambda_global) < 1e-12
    assert np.abs(hist.values).max() < 1e-12
    assert hist.node_ids.tolist() == [0, 1, 2]


def test_frequency_histogram_drops_undefined_nodes():
    g = toy_graph([(0, 1)], labels=[0, 1, 1])
    _, l_hat = normalized_operators(g)
    dec = eigendecompose(l_hat)
    hist = frequency_histogram(g, dec, "high")
    assert 2 not in hist.node_ids
    assert len(hist.values) == len(hist.node_ids) <= g.num_nodes


def test_frequency_histogram_high_band_metadata():
    g = random_graph(12, edge_prob=0.3, seed=2)
    _, l_hat = normalized_operators(g)
    dec = eigendecompose(l_hat)
    hist = frequency_histogram(g, dec, "high", k=1)
    assert hist.eigen_index == 12
    assert hist.k == 1
    assert abs(hist.lambda_global - dec.eigenvalues[-1]) < 1e-12


# --- band path: selected eigenpairs from one tridiagonal reduction ----------


def cycle_graph(n: int):
    return toy_graph([(i, (i + 1) % n) for i in range(n)], labels=[0] * n)


def _no_full_eigh(*args, **kwargs):
    raise AssertionError("the band path fell back to the full eigh")


def test_band_path_matches_full_eigh_on_gapped_indices(monkeypatch):
    g = connected_random_graph(80, edge_prob=0.08, seed=4)
    _, l_hat = normalized_operators(g)
    full = eigendecompose(l_hat)
    wanted = (0, 17, 40, 79)
    padded = np.concatenate([[-np.inf], full.eigenvalues, [np.inf]])
    assert min(np.diff(padded)[i : i + 2].min() for i in wanted) > 1e-3

    monkeypatch.setattr(np.linalg, "eigh", _no_full_eigh)
    band = eigendecompose(l_hat, indices=[40, 0, 79, 17, 17])
    assert band.indices == wanted
    np.testing.assert_allclose(
        band.eigenvalues, full.eigenvalues[list(wanted)], rtol=0.0, atol=1e-12
    )
    np.testing.assert_allclose(
        band.eigenvectors, full.eigenvectors[:, list(wanted)], rtol=0.0, atol=1e-10
    )


@pytest.mark.parametrize(
    "graph",
    [cycle_graph(10), toy_graph([(0, i) for i in range(1, 6)], labels=[1, 0, 0, 0, 0, 0])],
    ids=["cycle10", "star6"],
)
def test_band_path_returns_full_eigh_columns_for_a_repeated_eigenvalue(graph):
    _, l_hat = normalized_operators(graph)
    full = eigendecompose(l_hat)
    mid = band_eigen_index(graph.num_nodes, "mid")
    assert np.diff(full.eigenvalues)[mid - 1 : mid + 1].min() < 1e-12

    band = eigendecompose(
        l_hat, indices=[band_eigen_index(graph.num_nodes, b) for b in HISTOGRAM_BANDS]
    )
    chosen = list(band.indices)
    np.testing.assert_array_equal(band.eigenvalues, full.eigenvalues[chosen])
    np.testing.assert_array_equal(band.eigenvectors, full.eigenvectors[:, chosen])


@pytest.mark.parametrize(
    "edges, n", [([], 1), ([(0, 1)], 2), ([], 2)], ids=["one-node", "k2", "two-isolated"]
)
def test_band_path_on_one_and_two_nodes(edges, n):
    _, l_hat = normalized_operators(toy_graph(edges, labels=[0] * n))
    full = eigendecompose(l_hat)
    band = eigendecompose(l_hat, indices=range(n))
    assert band.indices == tuple(range(n))
    np.testing.assert_allclose(band.eigenvalues, full.eigenvalues, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(band.eigenvectors, full.eigenvectors, rtol=0.0, atol=1e-10)


def test_band_path_errors_match_the_full_path(p3):
    asymmetric = SparseOperator(sparse.csr_array(np.array([[0.0, 1.0], [0.0, 0.0]])), False)
    _, l_hat = normalized_operators(p3)
    for operator, limit in ((asymmetric, 20000), (l_hat, 2)):
        messages = []
        for indices in (None, [0]):
            with pytest.raises(UsageError) as info:
                eigendecompose(operator, dense_limit=limit, indices=indices)
            messages.append(str(info.value))
        assert messages[0] == messages[1]
    with pytest.raises(UsageError, match="outside"):
        eigendecompose(l_hat, indices=[3])


def test_partial_decomposition_pair_lookup(p3):
    _, l_hat = normalized_operators(p3)
    full = eigendecompose(l_hat)
    band = eigendecompose(l_hat, indices=[2, 0])
    assert band.num_nodes == 3
    lam, vector = band.pair(2)
    assert abs(lam - full.eigenvalues[2]) < 1e-12
    np.testing.assert_allclose(vector, full.eigenvectors[:, 2], rtol=0.0, atol=1e-10)
    with pytest.raises(UsageError, match="not in this decomposition"):
        band.pair(1)
