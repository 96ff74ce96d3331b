"""Eigendecomposition, graph Fourier transform, and frequency measures."""

from __future__ import annotations

import multiprocessing
import os

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
from diverspec.spectral import HISTOGRAM_BANDS, _Factorization
from tests.conftest import connected_random_graph, counting_forks, set_usable_cpus, toy_graph

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


# --- band path: selected eigenpairs by spectrum slicing ---------------------


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


def _assert_matches_full(band, full):
    chosen = list(band.indices)
    np.testing.assert_allclose(band.eigenvalues, full.eigenvalues[chosen], rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(
        band.eigenvectors, full.eigenvectors[:, chosen], rtol=0.0, atol=1e-10
    )


def _min_gap(values: np.ndarray, indices) -> float:
    padded = np.concatenate([[-np.inf], values, [np.inf]])
    return min(np.diff(padded)[i : i + 2].min() for i in indices)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_band_path_matches_full_eigh_at_300_nodes(monkeypatch, seed):
    # Large enough for the Krylov basis to restart; 12 and 290 lie far from
    # the first shift, so the index search takes several factorizations.
    g = connected_random_graph(300, edge_prob=0.02, seed=seed)
    _, l_hat = normalized_operators(g)
    full = eigendecompose(l_hat)
    wanted = (0, 12, 75, 149, 230, 290, 299)
    assert _min_gap(full.eigenvalues, wanted) > 1e-3

    monkeypatch.setattr(np.linalg, "eigh", _no_full_eigh)
    band = eigendecompose(l_hat, indices=wanted)
    assert band.indices == wanted
    _assert_matches_full(band, full)


def test_band_pairs_do_not_depend_on_the_other_indices():
    g = connected_random_graph(300, edge_prob=0.02, seed=0)
    _, l_hat = normalized_operators(g)
    together = eigendecompose(l_hat, indices=(0, 149, 299))
    for column, index in enumerate(together.indices):
        alone = eigendecompose(l_hat, indices=[index])
        np.testing.assert_array_equal(alone.eigenvalues, together.eigenvalues[[column]])
        np.testing.assert_array_equal(alone.eigenvectors, together.eigenvectors[:, [column]])


@pytest.mark.parametrize("seed, hub", [(0, 0), (2, 23)], ids=["zero-pivot", "tiny-pivot"])
def test_band_path_survives_a_shift_on_an_eigenvalue(monkeypatch, seed, hub):
    # Twin leaves on one hub give the eigenvector e_300 - e_301 with lambda = 1
    # exactly, at index 150: the first shift, trace(L-hat) / N = 1, lands on
    # it, so the inertia count cannot tell which side it is on. Its gapped
    # neighbours 149 and 151 are the targets (its own vector is +-1/sqrt(2) at
    # two nodes, so its sign convention is a rounding tie). With hub 0
    # Bunch-Kaufman meets an exactly zero pivot; with seed 2 and hub 23 only a
    # tiny one, and every solve is swamped by that one direction.
    base = connected_random_graph(300, edge_prob=0.02, seed=seed)
    g = toy_graph(base.edges.tolist() + [(hub, 300), (hub, 301)], labels=[0] * 302)
    _, l_hat = normalized_operators(g)
    full = eigendecompose(l_hat)
    assert abs(full.eigenvalues[150] - 1.0) < 1e-14
    assert _min_gap(full.eigenvalues, [149, 151]) > 1e-3

    shifts = []
    at = _Factorization.at
    monkeypatch.setattr(_Factorization, "at", lambda self, s: shifts.append(s) or at(self, s))
    monkeypatch.setattr(np.linalg, "eigh", _no_full_eigh)
    band = eigendecompose(l_hat, indices=[149, 151])
    assert shifts[0] == 1.0
    _assert_matches_full(band, full)


def _two_components():
    first = connected_random_graph(60, edge_prob=0.1, seed=1)
    second = connected_random_graph(60, edge_prob=0.1, seed=2)
    return toy_graph(
        first.edges.tolist() + (second.edges + 60).tolist(), labels=[0] * 120
    )


def _complete(n: int):
    return toy_graph([(p, q) for p in range(n) for q in range(p + 1, n)], labels=[0] * n)


@pytest.mark.parametrize(
    "graph, end, value",
    [(_two_components(), "low", 0.0), (_complete(60), "high", 60 / 59)],
    ids=["zero-twice", "complete60-top"],
)
def test_band_path_returns_full_eigh_columns_for_a_repeated_end(graph, end, value):
    # Both graphs are larger than one Krylov basis, so the end comes from block
    # Lanczos, whose two-wide blocks see at least two copies of the eigenvalue.
    _, l_hat = normalized_operators(graph)
    full = eigendecompose(l_hat)
    index = band_eigen_index(graph.num_nodes, end)
    neighbour = 1 if end == "low" else graph.num_nodes - 2
    np.testing.assert_allclose(full.eigenvalues[[index, neighbour]], value, atol=1e-12)

    band = eigendecompose(l_hat, indices=[index])
    np.testing.assert_array_equal(band.eigenvalues, full.eigenvalues[[index]])
    np.testing.assert_array_equal(band.eigenvectors, full.eigenvectors[:, [index]])


@pytest.mark.parametrize(
    "graph, indices",
    [
        (connected_random_graph(300, edge_prob=0.02, seed=0), (0, 149, 299)),
        (_two_components(), (0, 59, 119)),
        (_complete(60), (0, 29, 59)),
    ],
    ids=["gapped", "zero-twice", "complete60-top"],
)
def test_band_bytes_do_not_depend_on_where_the_end_pairs_run(monkeypatch, graph, indices):
    # Two usable CPUs run the job beside the eigen stage, then the end pairs,
    # in one forked child; one CPU runs them here first. A repeated end
    # (zero-twice, complete60-top) gives the full eigh columns either way.
    _, l_hat = normalized_operators(graph)
    full = eigendecompose(l_hat)
    forks = counting_forks(monkeypatch)
    layouts = []
    for cpus in (2, 1):
        set_usable_cpus(monkeypatch, cpus)
        layouts.append(eigendecompose(l_hat, indices=indices, alongside=os.getpid))
    assert len(forks) == 1 and not multiprocessing.active_children()
    (forked, child), (here, caller) = layouts
    assert (child, caller) == (forks[0], os.getpid())
    for band in (forked, here):
        assert band.indices == indices
        np.testing.assert_array_equal(band.eigenvalues, here.eigenvalues)
        np.testing.assert_array_equal(band.eigenvectors, here.eigenvectors)
    gaps = np.diff(full.eigenvalues)[[0, -1]]
    if gaps.min() < 1e-12:
        np.testing.assert_array_equal(here.eigenvalues, full.eigenvalues[list(indices)])
        np.testing.assert_array_equal(here.eigenvectors, full.eigenvectors[:, list(indices)])
    else:
        _assert_matches_full(here, full)


def _inertia_graph():
    return connected_random_graph(200, edge_prob=0.03, seed=5)


def test_inertia_count_at_the_mean_eigenvalue_uses_2x2_pivots():
    # L-hat - I = -A_hat has a zero diagonal, so Bunch-Kaufman must take 2x2
    # pivots; the count of negative eigenvalues of D must still match eigh's.
    from scipy.linalg import lapack

    _, l_hat = normalized_operators(_inertia_graph())
    values = np.linalg.eigvalsh(l_hat.dense())
    assert np.abs(values - 1.0).min() > 1e-6
    shifted = l_hat.dense() - np.eye(200)
    assert (lapack.dsytrf(shifted, lower=1)[1] < 0).any()
    count, solve = _Factorization(l_hat).at(1.0)
    assert count == np.count_nonzero(values < 1.0)
    rhs = np.random.default_rng(0).standard_normal((200, 2))
    np.testing.assert_allclose(shifted @ solve(rhs), rhs, rtol=0.0, atol=1e-9)


def test_inertia_count_at_random_shifts():
    _, l_hat = normalized_operators(_inertia_graph())
    values = np.linalg.eigvalsh(l_hat.dense())
    factorization = _Factorization(l_hat)
    for shift in np.random.default_rng(3).uniform(-0.1, 2.1, size=12):
        assert np.abs(values - shift).min() > 1e-8
        assert factorization.at(float(shift))[0] == np.count_nonzero(values < shift)


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
