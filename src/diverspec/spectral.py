"""Eigendecomposition of the normalized Laplacian and frequency diagnostics.

Global frequencies come from the edge-sum form of the Laplacian quadratic
form; local frequencies restrict that sum to the edges induced by a k-hop
neighborhood while keeping global degrees, so each node's contribution is a
fraction of the global eigenvalue.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, UsageError
from .graph import Graph, SparseOperator, induced_edge_sums, k_hop

HISTOGRAM_BANDS = ("low", "mid", "high")


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenpairs of the normalized Laplacian, ascending by eigenvalue.

    ``eigenvectors[:, n]`` is the unit eigenvector for ``eigenvalues[n]``,
    sign-fixed so its largest-magnitude entry (lowest index on ties) is
    positive.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def num_nodes(self) -> int:
        return int(self.eigenvalues.shape[0])


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip eigenvector signs so the largest-|entry| coordinate is positive."""
    anchor = np.argmax(np.abs(vectors), axis=0)
    signs = np.sign(vectors[anchor, np.arange(vectors.shape[1])])
    signs[signs == 0] = 1.0
    return vectors * signs


def eigendecompose(l_hat: SparseOperator, dense_limit: int = 20000) -> SpectralDecomposition:
    """Full symmetric eigendecomposition of the normalized Laplacian.

    Densifies and calls LAPACK (tridiagonalization + QR), so the operator
    size is capped at ``dense_limit``. Raises :class:`UsageError` for a
    non-symmetric operator or one over the cap.
    """
    if not l_hat.symmetric:
        raise UsageError("eigendecompose requires a symmetric operator")
    n = l_hat.shape[0]
    if n > dense_limit:
        raise UsageError(
            f"operator has {n} nodes, over the dense eigensolver cap {dense_limit}"
        )
    values, vectors = np.linalg.eigh(l_hat.dense())
    return SpectralDecomposition(eigenvalues=values, eigenvectors=_fix_signs(vectors))


def _edge_summands(graph: Graph, vector: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Per-edge terms (u_p/sqrt(d_p) - u_q/sqrt(d_q))^2 using global degrees."""
    deg = graph.degrees.astype(np.float64)
    scaled = np.zeros(graph.num_nodes)
    nonzero = deg > 0
    scaled[nonzero] = vector[nonzero] / np.sqrt(deg[nonzero])
    diff = scaled[edges[:, 0]] - scaled[edges[:, 1]]
    return diff * diff


def global_frequency(graph: Graph, vector: np.ndarray) -> float:
    """Frequency of a signal as the edge sum of squared normalized differences.

    For a unit eigenvector of the normalized Laplacian this equals its
    eigenvalue; for arbitrary unit vectors it is the Rayleigh quotient,
    computed here without forming the Laplacian.
    """
    vector = np.asarray(vector, dtype=np.float64)
    if vector.shape != (graph.num_nodes,):
        raise DataError(f"signal must have shape ({graph.num_nodes},)")
    if graph.num_edges == 0:
        return 0.0
    return float(np.sum(_edge_summands(graph, vector, graph.edges)))


def local_graph_frequency(graph: Graph, vector: np.ndarray, node: int, k: int) -> float:
    """Restriction of the frequency edge sum to a k-hop induced edge set.

    Degrees stay global, so the local value is monotone in ``k`` and never
    exceeds the global frequency. An empty induced edge set gives 0.
    """
    vector = np.asarray(vector, dtype=np.float64)
    if vector.shape != (graph.num_nodes,):
        raise DataError(f"signal must have shape ({graph.num_nodes},)")
    _, induced = k_hop(graph, node, k)
    if induced.shape[0] == 0:
        return 0.0
    return float(np.sum(_edge_summands(graph, vector, induced)))


def fourier(basis: np.ndarray, signals: np.ndarray) -> np.ndarray:
    """Project node signals onto a spectral basis (columns of ``basis``)."""
    return basis.T @ signals


def inverse_fourier(basis: np.ndarray, coefficients: np.ndarray) -> np.ndarray:
    """Reconstruct node signals from spectral coefficients."""
    return basis @ coefficients


def band_eigen_index(num_nodes: int, band: str) -> int:
    """0-based eigenvalue index for a named band of the ascending spectrum.

    ``low`` is the smallest eigenvalue, ``high`` the largest, and ``mid`` the
    ceil(N/2)-th in 1-based counting.
    """
    if band not in HISTOGRAM_BANDS:
        raise UsageError(f"band must be one of {HISTOGRAM_BANDS}, got {band!r}")
    if band == "low":
        return 0
    if band == "high":
        return num_nodes - 1
    return (num_nodes + 1) // 2 - 1


@dataclass(frozen=True)
class FrequencyHistogram:
    """Per-node local frequencies of one eigenvector band.

    Nodes whose k-hop induced edge set is empty are dropped, so ``node_ids``
    may be shorter than the node count. ``eigen_index`` is 1-based to match
    the ascending-spectrum numbering used in exports.
    """

    node_ids: np.ndarray
    values: np.ndarray
    eigen_index: int
    lambda_global: float
    k: int


def frequency_histogram(
    graph: Graph,
    decomposition: SpectralDecomposition,
    band: str,
    k: int = 2,
) -> FrequencyHistogram:
    """Local-frequency histogram for the eigenvector selected by ``band``.

    One blockwise :func:`~diverspec.graph.induced_edge_sums` pass, no per-node
    BFS; equals :func:`local_graph_frequency` up to float summation order.
    """
    index = band_eigen_index(graph.num_nodes, band)
    vector = decomposition.eigenvectors[:, index]
    lam = float(decomposition.eigenvalues[index])

    counts, sums = induced_edge_sums(graph, k, _edge_summands(graph, vector, graph.edges))
    ids = np.flatnonzero(counts)
    return FrequencyHistogram(
        node_ids=ids,
        values=sums[ids],
        eigen_index=index + 1,
        lambda_global=lam,
        k=k,
    )
