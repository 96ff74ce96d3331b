"""Eigendecomposition of the normalized Laplacian and frequency diagnostics.

Global frequencies come from the edge-sum form of the Laplacian quadratic
form; local frequencies restrict that sum to the edges induced by a k-hop
neighborhood while keeping global degrees, so each node's contribution is a
fraction of the global eigenvalue.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .errors import DataError, UsageError
from .graph import Graph, SparseOperator, induced_edge_sums, k_hop

HISTOGRAM_BANDS = ("low", "mid", "high")
# A computed eigenvector is fixed only to about eps * ||L|| / gap, where gap is
# the distance to the nearest other eigenvalue (the spectrum lies in [0, 2]).
# At or below this gap, inverse iteration on the tridiagonal and the full eigh
# may return different vectors of a near-degenerate cluster; a repeated
# eigenvalue (gap ~ 1e-16) makes the pick arbitrary. The band path then
# returns the full eigh columns instead. On the benchmark's Chameleon-shaped
# graphs the band gaps are 6e-5 or more, where the two agree to about 1e-14.
_BAND_GAP = 1e-5


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenpairs of the normalized Laplacian, ascending by eigenvalue.

    ``eigenvectors[:, n]`` is the unit eigenvector for ``eigenvalues[n]``,
    sign-fixed so its largest-magnitude entry (lowest index on ties) is
    positive. ``indices`` is ``None`` when every pair is present; otherwise
    column n holds the pair at ascending position ``indices[n]``.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    indices: tuple[int, ...] | None = None

    @property
    def num_nodes(self) -> int:
        return int(self.eigenvectors.shape[0])

    def pair(self, index: int) -> tuple[float, np.ndarray]:
        """Eigenvalue and eigenvector at 0-based ascending position ``index``."""
        if self.indices is None:
            column = index
        elif index in self.indices:
            column = self.indices.index(index)
        else:
            raise UsageError(f"eigenpair {index} is not in this decomposition")
        return float(self.eigenvalues[column]), self.eigenvectors[:, column]


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip eigenvector signs so the largest-|entry| coordinate is positive."""
    anchor = np.argmax(np.abs(vectors), axis=0)
    signs = np.sign(vectors[anchor, np.arange(vectors.shape[1])])
    signs[signs == 0] = 1.0
    return vectors * signs


def eigendecompose(
    l_hat: SparseOperator,
    dense_limit: int = 20000,
    indices: Iterable[int] | None = None,
) -> SpectralDecomposition:
    """Symmetric eigendecomposition of the normalized Laplacian.

    Densifies the operator, so its size is capped at ``dense_limit``. With
    ``indices=None`` every pair comes from ``np.linalg.eigh`` (LAPACK
    ``syevd``: tridiagonalization, then divide and conquer). Otherwise only
    the pairs at those 0-based ascending positions are computed, by
    :func:`_selected_pairs`; if one of them lies within ``_BAND_GAP`` of a
    neighbouring eigenvalue, the full ``eigh`` columns are returned instead.
    Raises :class:`UsageError` for a non-symmetric operator, one over the
    cap, or an index outside ``[0, N)``.
    """
    if not l_hat.symmetric:
        raise UsageError("eigendecompose requires a symmetric operator")
    n = l_hat.shape[0]
    if n > dense_limit:
        raise UsageError(
            f"operator has {n} nodes, over the dense eigensolver cap {dense_limit}"
        )
    if indices is None:
        values, vectors = np.linalg.eigh(l_hat.dense())
        return SpectralDecomposition(eigenvalues=values, eigenvectors=_fix_signs(vectors))

    indices = tuple(sorted({int(i) for i in indices}))
    if indices and not 0 <= indices[0] <= indices[-1] < n:
        raise UsageError(f"eigenpair indices {indices} outside [0, {n})")
    pairs = _selected_pairs(l_hat.dense(), indices)
    if pairs is None:
        values, vectors = np.linalg.eigh(l_hat.dense())
        pairs = values[list(indices)], vectors[:, list(indices)]
    return SpectralDecomposition(pairs[0], _fix_signs(pairs[1]), indices)


def _selected_pairs(
    matrix: np.ndarray, indices: tuple[int, ...]
) -> tuple[np.ndarray, np.ndarray] | None:
    """Eigenpairs at ``indices`` from one tridiagonal reduction, overwriting ``matrix``.

    ``dsytrd`` reduces the symmetric matrix to T = Q^T A Q in place (the
    transpose is the Fortran-ordered view of the same symmetric array).
    Each index gets bisection and inverse iteration on T together with its
    neighbours, whose eigenvalues give the gap. Only the selected vectors
    are carried back through the Householder reflectors of Q. Returns
    ``None`` when a gap is at or below ``_BAND_GAP``.
    """
    # Imported here: scipy.linalg adds about 6 MB and 0.4 s to every command,
    # and only this path needs it.
    from scipy.linalg import eigh_tridiagonal, lapack

    n = matrix.shape[0]
    if not indices:
        return np.empty(0), np.empty((n, 0))
    lwork, _ = lapack.dsytrd_lwork(n, lower=1)
    packed, diag, off, tau, _ = lapack.dsytrd(
        matrix.T, lower=1, lwork=int(lwork), overwrite_a=1
    )
    values, vectors = np.empty(len(indices)), np.empty((n, len(indices)))
    for column, index in enumerate(indices):
        lo, hi = max(index - 1, 0), min(index + 1, n - 1)
        window, window_vectors = eigh_tridiagonal(diag, off, select="i", select_range=(lo, hi))
        if np.diff(window).min(initial=np.inf) <= _BAND_GAP:
            return None
        values[column], vectors[:, column] = window[index - lo], window_vectors[:, index - lo]
    # Q = H_0 H_1 ... H_{n-2}; H_r = I - tau_r v v^T with v[r + 1] = 1 and
    # v[r + 2:] stored below the subdiagonal in column r.
    packed[np.arange(1, n), np.arange(n - 1)] = 1.0
    for r in range(n - 2, -1, -1):
        v = packed[r + 1 :, r]
        vectors[r + 1 :] -= np.outer(tau[r] * v, v @ vectors[r + 1 :])
    return values, vectors


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


def local_histograms(
    graph: Graph,
    k: int,
    decomposition: SpectralDecomposition | None = None,
    bands: tuple[str, ...] | list[str] = (),
) -> tuple[np.ndarray, np.ndarray, dict[str, FrequencyHistogram]]:
    """Local homophily and every band's local-frequency histogram from one reach sweep.

    One blockwise :func:`~diverspec.graph.induced_edge_sums` pass over an
    (E, 1 + len(HISTOGRAM_BANDS)) value matrix, with no per-node BFS: column 0
    holds the same-label indicators and column 1 + i band i's per-edge terms,
    zeros when that band is not asked for. The matrix's shape and each band's
    column never change, so a band's values do not depend on which other
    bands are asked for. The sweep makes one sparse product per hop and one
    gathered-mask GEMM per edge chunk for all columns together. Returns
    ``(node_ids, homophily, {band: FrequencyHistogram})``; every histogram
    covers ``node_ids``, the nodes with a nonempty k-hop induced edge set.
    The values equal :func:`~diverspec.graph.local_label_homophily` and
    :func:`local_graph_frequency` up to float summation order.
    """
    columns, pairs = np.zeros((graph.num_edges, 1 + len(HISTOGRAM_BANDS))), {}
    columns[:, 0] = graph.labels[graph.edges[:, 0]] == graph.labels[graph.edges[:, 1]]
    for band in bands:
        index, column = band_eigen_index(graph.num_nodes, band), 1 + HISTOGRAM_BANDS.index(band)
        lam, vector = decomposition.pair(index)
        pairs[band] = index, lam, column
        columns[:, column] = _edge_summands(graph, vector, graph.edges)
    counts, sums = induced_edge_sums(graph, k, columns)
    ids = np.flatnonzero(counts)
    histograms = {
        band: FrequencyHistogram(
            node_ids=ids,
            values=sums[ids, column],
            eigen_index=index + 1,
            lambda_global=lam,
            k=k,
        )
        for band, (index, lam, column) in pairs.items()
    }
    return ids, sums[ids, 0] / counts[ids], histograms


def frequency_histogram(
    graph: Graph,
    decomposition: SpectralDecomposition,
    band: str,
    k: int = 2,
) -> FrequencyHistogram:
    """Local-frequency histogram of the ``band`` eigenvector; see :func:`local_histograms`."""
    return local_histograms(graph, k, decomposition, (band,))[2][band]
