"""Eigendecomposition of the normalized Laplacian and frequency diagnostics.

Global frequencies come from the edge-sum form of the Laplacian quadratic
form; local frequencies restrict that sum to the edges induced by a k-hop
neighborhood while keeping global degrees, so each node's contribution is a
fraction of the global eigenvalue.

A few eigenpairs (the diagnose bands) are found by spectrum slicing, not by
a full ``eigh``. The ends of the spectrum come from block Lanczos on the
sparse L-hat. An interior index takes the spectral-transformation Lanczos
method of Ericsson and Ruhe (1980): one dense LDL^T factorization of
L-hat - sigma I counts, by Sylvester's law of inertia, the eigenvalues below
sigma, and block Lanczos on (L-hat - sigma I)^-1 finds those nearest sigma.
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
# At or below this gap, the band path's Ritz vector and the full eigh may
# return different vectors of a near-degenerate cluster; a repeated
# eigenvalue (gap ~ 1e-16) makes the pick arbitrary. The band path then
# returns the full eigh columns instead. On the benchmark's Chameleon-shaped
# graphs the band gaps are 6e-5 or more, where the two agree to about 1e-13.
_BAND_GAP = 1e-5
# Block Lanczos: block width, basis columns before a restart, Ritz vectors kept
# beyond the wanted ones at each wanted end, and how often (in blocks) a run on
# the sparse operator, whose products are cheap, solves its small eigenproblem.
_BLOCK, _MAX_BASIS, _KEEP, _CHECK_EVERY = 2, 40, 6, 4
# L-hat residuals: a returned band vector's, and its neighbours' (which only
# have to place their eigenvalues well inside _BAND_GAP).
_RESIDUAL, _NEIGHBOUR_RESIDUAL = 1e-14, 1e-8
# A new block direction below this fraction of its length before
# orthogonalization is rounding noise and is replaced at random.
_DEFLATE = 1e-12
# Spectrum slicing: an inertia count is that of a matrix within about
# N eps ||L|| of L-hat - sigma I, so it decides no eigenvalue within sqrt(eps)
# of sigma. A shift that is an exact eigenvalue moves by _SINGULAR_STEP.
# A shift is used once at most _MAX_WINDOW eigenvalues lie from it to the
# window of the index and its two neighbours; an index takes at most
# _MAX_SHIFTS factorizations before the full eigh is used instead.
_COUNT_MARGIN, _SINGULAR_STEP = 2.0**-26, 2.0**-20
_MAX_WINDOW, _MAX_SHIFTS = 10, 12


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
    spectrum slicing in :func:`_selected_pairs`, which holds at most one
    dense N x N array and factors it in place. If one of them may lie within
    ``_BAND_GAP`` of a neighbouring eigenvalue, or no shift proves its
    index, the full ``eigh`` columns are returned instead. Raises
    :class:`UsageError` for a non-symmetric operator, one over the cap, or
    an index outside ``[0, N)``.
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
    pairs = _selected_pairs(l_hat, indices)
    if pairs is None:
        values, vectors = np.linalg.eigh(l_hat.dense())
        pairs = values[list(indices)], vectors[:, list(indices)]
    return SpectralDecomposition(pairs[0], _fix_signs(pairs[1]), indices)


def _selected_pairs(
    l_hat: SparseOperator, indices: tuple[int, ...]
) -> tuple[np.ndarray, np.ndarray] | None:
    """Eigenpairs at ``indices`` by spectrum slicing; ``None`` when one is not gapped.

    Indices 0 and N - 1 come from block Lanczos on the sparse operator. An
    interior index is placed by Sylvester's law of inertia: an LDL^T
    factorization of L-hat - sigma I has as many negative pivots as L-hat
    has eigenvalues below sigma. Shift-invert block Lanczos then finds
    every eigenvalue from sigma to the index's two neighbours, so each one's
    index follows from that count. Each pair is computed on its own, from
    the same seeded start, so its bits do not depend on the other indices.
    Returns ``None`` when a requested eigenvalue may lie within
    ``_BAND_GAP`` of a neighbour, or when no shift proves an index.
    """
    n = l_hat.shape[0]
    pairs, factorization = {}, _Factorization(l_hat)
    for index in (i for i in indices if 0 < i < n - 1):
        pairs[index] = _inner_pair(factorization, index, np.random.default_rng(0))
        if pairs[index] is None:
            return None
    # The dense buffer goes before the ends run, so their temporaries do not
    # stack on it (the heap keeps some of them resident).
    del factorization
    for index in (i for i in indices if i in (0, n - 1)):
        pairs[index] = _end_pair(l_hat, index, np.random.default_rng(0))
        if pairs[index] is None:
            return None
    values = np.array([pairs[i][0] for i in indices])
    return values, np.array([pairs[i][1] for i in indices]).reshape(len(indices), n).T


def _end_pair(l_hat: SparseOperator, index: int, rng) -> tuple[float, np.ndarray] | None:
    """Eigenpair 0 or N - 1 from block Lanczos on the sparse L-hat, gapped from its neighbour."""
    n = l_hat.shape[0]
    wanted = min(2, n)
    low, high = (wanted, 0) if index == 0 else (0, wanted)
    tight = 0 if index == 0 else wanted - 1
    ritz = _block_lanczos(l_hat.dot, n, low, high, tight, rng)[0]
    if ritz.shape[1] < n:  # else the Ritz vectors span the whole space and are exact
        ritz = _polish(l_hat, ritz)
    lams, ritz, bounds = _rayleigh(l_hat, ritz)
    pair = slice(0, 2) if index == 0 else slice(-2, None)
    if _gaps(lams[pair], bounds[pair]).min(initial=np.inf) <= _BAND_GAP:
        return None
    column = 0 if index == 0 else -1
    return lams[column], ritz[:, column]


def _polish(l_hat: SparseOperator, ritz: np.ndarray) -> np.ndarray:
    """Rayleigh-Ritz on the span of ``ritz``, with L-hat applied in extended precision.

    In float64 the projected matrix carries rounding of about
    eps ||L|| sqrt(N), enough to tilt a Ritz vector towards a neighbour 1e-3
    away by 1e-12. ``np.longdouble`` (80-bit on x86-64, float64 elsewhere)
    takes that below the float64 rounding of the vectors themselves. Each
    column is applied on its own, to keep the (nnz,) temporaries small.
    """
    from scipy.linalg import eigh

    basis = np.linalg.qr(ritz)[0]
    csr = l_hat.matrix
    weights, starts = csr.data.astype(np.longdouble), csr.indptr[:-1]
    wide = basis.astype(np.longdouble)
    product = np.column_stack(
        [np.add.reduceat(weights * column[csr.indices], starts) for column in wide.T]
    )
    product[np.diff(csr.indptr) == 0] = 0  # reduceat repeats the next entry for an empty row
    return basis @ eigh((wide.T @ product).astype(np.float64), check_finite=False)[1]


def _inner_pair(factorization, index: int, rng) -> tuple[float, np.ndarray] | None:
    """Interior eigenpair ``index`` by spectrum slicing, gapped from both neighbours.

    The first shift is trace(L-hat) / N, the mean eigenvalue. While more
    than ``_MAX_WINDOW`` eigenvalues lie between the shift and the window
    of the index and its neighbours, the next shift interpolates the counts
    of the nearest shifts on either side (or bisects them when the last two
    fell on the same side).
    """
    l_hat = factorization.l_hat
    n = l_hat.shape[0]
    shift = float(l_hat.matrix.diagonal().mean())
    # Eigenvalue counts below each shift tried. The spectrum lies in [0, 2];
    # the counts at its ends only seed the search.
    counts, sides = {0.0: 0, 2.0: n}, []
    for _ in range(_MAX_SHIFTS):
        count, solve = factorization.at(shift)
        if solve is None:  # sigma is an eigenvalue to the last bit
            shift += _SINGULAR_STEP
            continue
        counts[shift] = count
        # Every eigenvalue from sigma to the window index - 1 .. index + 1.
        under, over = max(count - index + 1, 0), max(index + 2 - count, 0)
        if under + over > _MAX_WINDOW:
            lo, lo_count = max((s, c) for s, c in counts.items() if c <= index)
            hi, hi_count = min((s, c) for s, c in counts.items() if c > index)
            sides.append(count > index)
            if sides[-2:] in ([True] * 2, [False] * 2):
                shift = (lo + hi) / 2
            else:
                shift = lo + (index + 0.5 - lo_count) * (hi - lo) / (hi_count - lo_count)
            continue
        # Ascending theta = 1 / (lambda - sigma): the nearest eigenvalue below sigma first.
        tight = count - 1 - index if index < count else under + over - 1 - (index - count)
        ritz, nearest = _block_lanczos(solve, n, under, over, tight, rng, shift)
        if nearest * _COUNT_MARGIN >= 1:
            # An eigenvalue lies within sqrt(eps) of sigma: the count may or may
            # not hold it, and the solves lose the other directions' digits.
            shift += _SINGULAR_STEP
            continue
        # Only the wanted pairs, from sigma to the window; the rest helped converge.
        wanted = np.r_[np.arange(under), np.arange(ritz.shape[1] - over, ritz.shape[1])]
        lams, ritz, bounds = _rayleigh(l_hat, ritz[:, wanted])
        if np.count_nonzero(lams < shift) != under:
            # The Krylov space holds fewer eigenvalues on one side of sigma
            # than the count puts there: a repeated one hides its copies.
            return None
        at = index - (count - under)
        gaps = _gaps(lams, bounds)
        if np.delete(gaps, [at - 1, at]).min(initial=np.inf) > _BAND_GAP:
            # Each eigenvalue from sigma to the window is simple, so none hides
            # from the block Krylov space, and the count indexes them all.
            if min(gaps[at - 1], gaps[at]) <= _BAND_GAP:
                return None
            return lams[at], ritz[:, at]
        # A cluster lies between sigma and the window: count again from the
        # middle of the wider window gap.
        widest = at - 1 + int(gaps[at] > gaps[at - 1])
        if gaps[widest] <= _BAND_GAP:
            return None
        shift = (lams[widest] + lams[widest + 1]) / 2
    return None


def _rayleigh(l_hat: SparseOperator, ritz: np.ndarray):
    """Rayleigh quotients and L-hat residual norms of unit Ritz vectors, all sorted by the former.

    An eigenvalue lies within each residual norm of its Rayleigh quotient.
    """
    product = l_hat.dot(ritz)
    lams = np.einsum("ij,ij->j", ritz, product)
    residuals = np.linalg.norm(product - ritz * lams, axis=0)
    order = np.argsort(lams, kind="stable")
    return lams[order], ritz[:, order], residuals[order]


def _gaps(lams: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Lower bounds on the gaps between ascending eigenvalues, each known to within its bound."""
    return np.diff(lams) - bounds[1:] - bounds[:-1]


class _Factorization:
    """The latest LDL^T factorization of L-hat - sigma I, in one dense buffer made on first use."""

    def __init__(self, l_hat: SparseOperator):
        self.l_hat, self.buffer, self.latest = l_hat, None, (None, 0, None)

    def at(self, shift: float):
        """Count of eigenvalues below ``shift`` and a solver for L-hat - shift I.

        Bunch-Kaufman ``dsytrf`` factors the buffer in place (its transpose is
        the Fortran-ordered view of the same symmetric array), with the
        workspace size ``dsytrf_lwork`` asks for. By Sylvester's law the
        count is that of D's negative eigenvalues. D is block diagonal: a
        2x2 block has one when its determinant is negative, and two when
        that is positive and its diagonal negative. The solver is ``None``
        when a pivot is exactly zero.
        """
        from scipy.linalg import lapack

        if self.latest[0] == shift:
            return self.latest[1:]
        n = self.l_hat.shape[0]
        if self.buffer is None:
            self.buffer = np.empty((n, n))
        self.l_hat.matrix.toarray(out=self.buffer)
        self.buffer.flat[:: n + 1] -= shift
        lwork, _ = lapack.dsytrf_lwork(n, lower=1)
        ldl, pivots, info = lapack.dsytrf(self.buffer.T, lower=1, lwork=int(lwork), overwrite_a=1)
        if info > 0:
            self.latest = shift, 0, None
            return self.latest[1:]
        d, e = np.diagonal(ldl).copy(), np.diagonal(ldl, -1)
        first = np.flatnonzero(pivots < 0)[::2]
        det = d[first] * d[first + 1] - e[first] ** 2
        d[first], d[first + 1] = np.where(det < 0, -1.0, d[first]), np.where(det < 0, 1.0, d[first])
        count = int(np.count_nonzero(d < 0))
        self.latest = shift, count, lambda block: lapack.dsytrs(ldl, pivots, block, lower=1)[0]
        return self.latest[1:]


def _block_lanczos(apply, n: int, low: int, high: int, tight: int, rng, shift=None):
    """Ritz pairs at both ends of a symmetric operator's spectrum, by block Krylov-Schur.

    Returns the unit Ritz vectors of the ``low`` lowest and ``high`` highest
    Ritz values of ``apply`` and of the ``_KEEP`` next ones at each end that
    is asked for, in ascending order of those values, and the largest
    |Ritz value| seen. The run stops once the wanted pair at position
    ``tight`` (counting the ``low`` lowest, then the ``high`` highest) has
    an L-hat residual bound of ``_RESIDUAL``, and every other wanted pair
    one of ``_NEIGHBOUR_RESIDUAL`` or one that keeps it more than
    ``_BAND_GAP`` clear of the rest. With a ``shift`` the
    operator is (L-hat - shift I)^-1, whose Ritz pair with value theta and
    residual r is an L-hat pair with value shift + 1/theta and residual
    below 2 r / |theta| (the spectrum lies in [0, 2]), so the largest
    |theta| is the inverse distance from ``shift`` to the nearest eigenvalue
    seen.

    Blocks are ``_BLOCK`` wide, so an eigenvalue repeated up to that many
    times shows as that many copies. The basis is reorthogonalized in full
    and restarted at ``_MAX_BASIS`` columns, keeping the wanted Ritz vectors
    and ``_KEEP`` more at each end that is asked for.
    """
    # Imported here, as in the other band-path helpers: scipy.linalg adds
    # about 0.035 s and 5 MB of RSS to a command, and only this path needs it.
    from scipy.linalg import eigh

    width = min(_BLOCK, n)
    wanted = lambda size: np.r_[np.arange(low), np.arange(size - high, size)]
    keep_low, keep_high = low + _KEEP * (low > 0), high + _KEEP * (high > 0)
    kept = lambda size: np.unique(
        np.r_[np.arange(min(keep_low, size)), np.arange(max(size - keep_high, 0), size)]
    )
    if n <= _MAX_BASIS + width:
        # A basis of the whole space: Rayleigh-Ritz on it is exact.
        theta, vectors = eigh(apply(np.eye(n)), check_finite=False)
        return vectors[:, kept(n)], np.abs(theta).max()
    basis = np.empty((n, _MAX_BASIS + width))
    basis[:, :width] = np.linalg.qr(rng.standard_normal((n, width)))[0]
    projected = np.zeros((_MAX_BASIS, _MAX_BASIS))
    coupling, size, steps, largest = np.empty((width, 0)), 0, 0, 0.0
    while True:
        known = basis[:, : size + width]
        grown = apply(basis[:, size : size + width])
        scale = np.sqrt(np.einsum("ij,ij->j", grown, grown))
        inner = np.zeros((size + width, width))
        for _ in range(2):
            step = known.T @ grown
            grown -= known @ step
            inner += step
        following, link = np.linalg.qr(grown)
        if (np.abs(np.diagonal(link)) <= _DEFLATE * scale).any():
            # The Krylov space is (nearly) invariant: keep the directions the
            # block still adds and fill the rest at random.
            left, singular, _ = np.linalg.svd(grown, full_matrices=False)
            rank = int(np.count_nonzero(singular > _DEFLATE * scale.max()))
            fresh = rng.standard_normal((n, width - rank))
            for _ in range(2):
                fresh -= known @ (known.T @ fresh)
            following = np.linalg.qr(np.hstack([left[:, :rank], fresh]))[0]
            link = following.T @ grown
        block = slice(size, size + width)
        projected[:size, block], projected[block, :size] = coupling.T, coupling
        projected[block, block] = (inner[block] + inner[block].T) / 2
        size, steps = size + width, steps + 1
        coupling = np.zeros((width, size))
        coupling[:, -width:] = link
        restart = size + width > _MAX_BASIS
        if size >= low + high and (restart or shift is not None or steps % _CHECK_EVERY == 0):
            theta, vectors = eigh(projected[:size, :size], check_finite=False)
            largest = max(largest, np.abs(theta).max())
            ends = wanted(size)
            bounds, lams = np.linalg.norm(coupling @ vectors[:, ends], axis=0), theta[ends]
            if shift is not None:
                bounds, lams = 2 * bounds / np.abs(lams), shift + 1 / lams
            apart = np.abs(lams[:, None] - lams) + np.diag(np.full(len(lams), np.inf))
            settled = (bounds <= _NEIGHBOUR_RESIDUAL) | (apart.min(axis=0) - 2 * bounds > _BAND_GAP)
            settled[tight] = bounds[tight] <= _RESIDUAL
            if settled.all():
                return basis[:, :size] @ vectors[:, kept(size)], largest
        if restart:
            keep = kept(size)
            basis[:, : len(keep)] = basis[:, :size] @ vectors[:, keep]
            size = len(keep)
            projected[:size, :size] = np.diag(theta[keep])
            coupling = coupling @ vectors[:, keep]
        basis[:, size : size + width] = following


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
