"""Undirected graphs with node features/labels and their normalized operators.

The container is deliberately small: a canonical edge array plus dense
feature/label arrays. Everything downstream (spectral analysis, polynomial
filtering, homophily diagnostics) works off this one representation.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import sparse

from .errors import DataError

_REACH_BLOCK = 512  # identity columns the reach sweep holds densely at once
_EDGE_CHUNK = 1024  # canonical edges induced_edge_sums gathers per contraction


@dataclass(frozen=True)
class SparseOperator:
    """CSR matrix plus an explicit symmetry flag.

    Graph operators here (normalized adjacency, normalized Laplacian) are
    symmetric by construction; the flag lets consumers that require symmetry
    (the eigensolver, the adjoint recurrences of the model's backward) check
    it without probing the matrix. Sparse input features are not symmetric.
    """

    matrix: sparse.csr_array
    symmetric: bool = True

    @property
    def shape(self) -> tuple[int, int]:
        return self.matrix.shape

    def dot(self, x: np.ndarray) -> np.ndarray:
        """Multiply a dense vector or matrix by the operator."""
        return self.matrix @ x

    def dense(self) -> np.ndarray:
        return self.matrix.toarray()


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph with node features and integer class labels.

    ``edges`` is canonical: every undirected edge appears exactly once as
    ``(p, q)`` with ``p < q``, rows sorted lexicographically, no self loops.
    Use :func:`build_graph` rather than constructing directly.
    """

    num_nodes: int
    edges: np.ndarray
    features: np.ndarray
    labels: np.ndarray
    num_classes: int

    @property
    def num_edges(self) -> int:
        return int(self.edges.shape[0])

    @property
    def num_features(self) -> int:
        return int(self.features.shape[1])

    @cached_property
    def degrees(self) -> np.ndarray:
        """Per-node degree over the canonical (undirected) edge set."""
        return np.bincount(self.edges.ravel(), minlength=self.num_nodes).astype(np.int64)

    @cached_property
    def adjacency(self) -> sparse.csr_array:
        """Unweighted adjacency with both edge directions materialized."""
        return edge_matrix(self, np.ones(self.num_edges))


def edge_matrix(graph: Graph, values: np.ndarray) -> sparse.csr_array:
    """Symmetric (N, N) matrix with ``values[e]`` at both orientations of edge e."""
    p, q = graph.edges[:, 0], graph.edges[:, 1]
    rows, cols = np.concatenate([p, q]), np.concatenate([q, p])
    data = np.concatenate([values, values])
    return sparse.csr_array((data, (rows, cols)), shape=(graph.num_nodes,) * 2)


def build_graph(
    edge_list: np.ndarray | list,
    num_nodes: int,
    features: np.ndarray,
    labels: np.ndarray,
    num_classes: int,
) -> Graph:
    """Validate and canonicalize raw inputs into a :class:`Graph`.

    The edge list may contain duplicates, both orientations, and self loops;
    duplicates and reversals collapse, self loops are dropped. Raises
    :class:`DataError` for out-of-range endpoints, shape mismatches, or
    labels outside ``[0, num_classes)``.

    The graph's arrays are read-only. A float64 feature array that is
    already read-only and owns its memory, such as the one
    :func:`~diverspec.datasets.load_dataset` parses, is adopted as it is;
    any other feature array is copied, so a caller's array is never
    aliased or frozen.
    """
    if num_nodes <= 0:
        raise DataError(f"graph must have at least one node, got {num_nodes}")
    if num_classes <= 0:
        raise DataError(f"graph must have at least one class, got {num_classes}")

    edges = np.asarray(edge_list, dtype=np.int64)
    if edges.size == 0:
        edges = edges.reshape(0, 2)
    if edges.ndim != 2 or edges.shape[1] != 2:
        raise DataError(f"edge list must be (E, 2), got shape {edges.shape}")
    if edges.size and (edges.min() < 0 or edges.max() >= num_nodes):
        bad = edges[(edges < 0) | (edges >= num_nodes)].flat[0]
        raise DataError(f"edge endpoint {bad} outside [0, {num_nodes})")

    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[0] != num_nodes:
        raise DataError(
            f"features must be ({num_nodes}, f), got shape {features.shape}"
        )
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (num_nodes,):
        raise DataError(f"labels must be ({num_nodes},), got shape {labels.shape}")
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        bad = labels[(labels < 0) | (labels >= num_classes)][0]
        raise DataError(f"label {bad} outside [0, {num_classes})")

    # Canonicalize: orient (min, max), drop self loops, dedupe, sort rows.
    keep = edges[:, 0] != edges[:, 1]
    edges = edges[keep]
    lo = np.minimum(edges[:, 0], edges[:, 1])
    hi = np.maximum(edges[:, 0], edges[:, 1])
    edges = np.unique(np.stack([lo, hi], axis=1), axis=0)

    if features.flags.writeable or not features.flags.owndata:
        features = features.copy()
    labels = labels.copy()
    for arr in (edges, features, labels):
        arr.flags.writeable = False

    return Graph(
        num_nodes=num_nodes,
        edges=edges,
        features=features,
        labels=labels,
        num_classes=num_classes,
    )


def normalized_operators(graph: Graph) -> tuple[SparseOperator, SparseOperator]:
    """Return the symmetric normalized adjacency and Laplacian.

    The adjacency is ``D^{-1/2} A D^{-1/2}`` (rows/columns of isolated nodes
    are zero); the Laplacian is ``I - A_hat``, whose diagonal is 1 for every
    node including isolated ones.
    """
    n = graph.num_nodes
    deg = graph.degrees.astype(np.float64)
    inv_sqrt = np.zeros(n)
    nonzero = deg > 0
    inv_sqrt[nonzero] = 1.0 / np.sqrt(deg[nonzero])

    p, q = graph.edges[:, 0], graph.edges[:, 1]
    a_hat = edge_matrix(graph, inv_sqrt[p] * inv_sqrt[q])

    idx = np.arange(n)
    identity = sparse.csr_array((np.ones(n), (idx, idx)), shape=(n, n))
    l_hat = (identity - a_hat).tocsr()

    return SparseOperator(a_hat, symmetric=True), SparseOperator(l_hat, symmetric=True)


def edge_homophily(graph: Graph) -> float:
    """Fraction of edges whose endpoints share a label.

    Raises :class:`DataError` on an edgeless graph (the ratio is undefined).
    """
    if graph.num_edges == 0:
        raise DataError("edge homophily is undefined on an edgeless graph")
    same = graph.labels[graph.edges[:, 0]] == graph.labels[graph.edges[:, 1]]
    return float(np.mean(same))


def k_hop(graph: Graph, node: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """BFS neighborhood of ``node`` within ``k`` hops plus its induced edges.

    The neighborhood always contains ``node`` itself; ``k = 0`` yields
    ``({node}, no edges)``. Induced edges are rows of the canonical edge
    array with both endpoints inside the neighborhood.
    """
    if not 0 <= node < graph.num_nodes:
        raise DataError(f"node {node} outside [0, {graph.num_nodes})")
    if k < 0:
        raise DataError(f"hop count must be nonnegative, got {k}")

    member = np.zeros(graph.num_nodes, dtype=bool)
    member[node] = True
    if k > 0 and graph.num_edges:
        adj = graph.adjacency
        frontier = member.astype(np.float64)
        for _ in range(k):
            reached = adj @ frontier
            new = (reached > 0) & ~member
            if not new.any():
                break
            member |= new
            frontier = new.astype(np.float64)

    nodes = np.flatnonzero(member)
    if graph.num_edges:
        inside = member[graph.edges[:, 0]] & member[graph.edges[:, 1]]
        induced = graph.edges[inside]
    else:
        induced = graph.edges
    return nodes, induced


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set, else the CPU count.

    It bounds the processes :func:`share` runs (the training grid's cells,
    the reach sweep's blocks) and sizes the RWPE sweep's thread pool; with
    more than one, :func:`~diverspec.spectral.eigendecompose` finds the end
    pairs in a forked child beside the interior ones. No count changes any
    result.
    """
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def can_fork() -> bool:
    """Whether this process may fork a worker safely.

    The ``fork`` start method must exist, this process must not be daemonic
    (a pool worker may not have children), and no other thread may run: a
    fork copies only the calling thread, so a lock another thread holds would
    stay locked in the child. :func:`forks` asks it for every caller of
    :func:`beside`.
    """
    return (
        "fork" in multiprocessing.get_all_start_methods()
        and not multiprocessing.current_process().daemon
        and threading.active_count() == 1
    )


def forks(processes: int) -> int:
    """The children :func:`beside` may fork so that up to ``processes`` processes run.

    One less than ``min(processes, usable_cpus())`` where :func:`can_fork`
    allows it, else 0.
    """
    return min(processes, usable_cpus()) - 1 if processes > 1 and can_fork() else 0


def beside(here: Callable[[], object], job: Callable[[], object], children: int) -> tuple:
    """``(here(), [job(), ...])``: ``here`` runs while ``children`` forked processes run ``job``.

    It is the one place that forks: :func:`share` runs its workers through
    it, and :func:`~diverspec.spectral.eigendecompose` its end-pair child.
    Each child sends back only ``job``'s result or its exception, and the
    results come in fork order. A child's exception, the first in fork order,
    is raised in place of any error of ``here``, and a child that exits
    before sending raises ``RuntimeError`` with its exit code. Every child
    has exited on return and raise; one still running when this process
    raises is terminated. ``children=0`` forks nothing: ``job`` runs once in
    this process first, and its error is raised before ``here`` starts.
    Otherwise the caller has asked :func:`forks` how many it may fork.
    """
    if not children:
        sent = [job()]
        return here(), sent

    def send(sender) -> None:  # a child's whole life
        try:
            outcome = job(), None
        except Exception as exc:
            outcome = None, exc
        sender.send(outcome)

    context = multiprocessing.get_context("fork")
    receivers, processes = [], []
    try:
        for _ in range(children):
            receiver, sender = context.Pipe(duplex=False)
            process = context.Process(target=send, args=(sender,), daemon=True)
            process.start()
            sender.close()  # the child holds the only write end: its exit ends recv
            receivers.append(receiver)
            processes.append(process)
        try:
            done, failure = here(), None
        except Exception as exc:
            done, failure = None, exc
        results = []
        for receiver, process in zip(receivers, processes):
            try:
                result, error = receiver.recv()
            except EOFError:
                process.join()
                raise RuntimeError(
                    f"a forked child exited with code {process.exitcode} before sending its result"
                ) from None
            if error is not None:
                raise error
            results.append(result)
            process.join()
    finally:
        for process in processes:
            if process.is_alive():  # only when this process is raising
                process.terminate()
            process.join()
            process.close()
        for receiver in receivers:
            receiver.close()
    if failure is not None:
        raise failure
    return done, results


def share(task: Callable[[int], object], count: int) -> list:
    """``[task(0), ..., task(count - 1)]``, run by up to ``min(count, usable_cpus())`` processes.

    Every process, this one and the workers :func:`beside` forks (as many as
    :func:`forks` allows), claims the lowest unclaimed index from a shared
    counter until none is left; a worker inherits what this process holds
    and sends back only its results. The results do not depend on the number
    of processes. A failure empties the counter, so every index below the
    first failing one has run when that index's error is raised. In one
    process the tasks run in index order up to the first failure. A worker
    that dies raises ``RuntimeError``; if this process is killed outright,
    each worker stops after its current task.
    """
    processes = 1 + forks(count)
    next_index = multiprocessing.RawValue("i", 0)  # memory that forked workers share
    lock = multiprocessing.get_context("fork").Lock() if processes > 1 else threading.Lock()
    caller = os.getpid()

    def claim() -> int | None:
        if os.getpid() != caller and os.getppid() != caller:
            return None  # the caller was killed: its orphaned workers stop
        with lock:
            index = next_index.value
            next_index.value += 1
        return index if index < count else None

    def run_claimed() -> dict:
        outcomes = {}
        for index in iter(claim, None):
            try:
                outcomes[index] = task(index), None
            except Exception as exc:
                outcomes[index] = None, exc
                with lock:
                    next_index.value = count
        return outcomes

    outcomes, sent = beside(run_claimed, run_claimed, processes - 1)
    for worker_outcomes in sent:
        outcomes.update(worker_outcomes)
    results = []
    for index in range(count):
        result, error = outcomes[index]
        if error is not None:
            raise error
        results.append(result)
    return results


def induced_edge_sums(graph: Graph, k: int, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per node: the number of edges :func:`k_hop` induces, and ``values`` summed over them.

    ``values`` is (E,) or (E, c), one entry or row per canonical edge, and the
    sums come back (N,) or (N, c). Nodes are swept ``_REACH_BLOCK`` at a
    time, each block one task of :func:`share`, so blocks run in up to
    ``min(blocks, usable_cpus())`` processes. A block's dense float32 (N, block)
    reach mask ``inside`` starts as its columns of the hop operator ``A + I``
    (one hop, 0/1 already); up to k - 1 more products with it, each clipped
    back to 0/1 (so exact) and stopped, as in :func:`k_hop`, by one that adds
    no node, give the k-hop mask (k = 0 gives the block's identity columns).
    Edge (p, q) is induced for block node j exactly when ``inside[p, j]``
    and ``inside[q, j]``; that gathered (chunk, block) mask, ``_EDGE_CHUNK``
    canonical edges at a time, meets the (1 + c, E) table ``[1 | values]^T``
    in one GEMM, whose ones row gives the counts. Each block's GEMMs have the
    same shapes whichever process runs it, so the bytes do not depend on the
    process count. Memory is O(N * block + chunk * block) per process; no
    N x N array is formed. Integer sums are exact; the rounding of other sums
    may depend on the shape of ``values``.
    """
    if k < 0:
        raise DataError(f"hop count must be nonnegative, got {k}")
    values = np.asarray(values, dtype=np.float64)
    columns = values[:, None] if values.ndim == 1 else values
    n, num_edges = graph.num_nodes, graph.num_edges
    table = np.ones((1 + columns.shape[1], num_edges))
    table[1:] = columns.T
    hop = (graph.adjacency + sparse.eye_array(n, format="csr")).astype(np.float32)
    p, q = graph.edges[:, 0], graph.edges[:, 1]

    starts = range(0, n, _REACH_BLOCK)

    def block_sums(block: int) -> np.ndarray:
        start = starts[block]
        nodes = slice(start, min(start + _REACH_BLOCK, n))
        if k == 0:
            reach = np.eye(n, nodes.stop - start, -start, dtype=np.float32)
        else:
            reach = hop[:, nodes].toarray()
            reached = nodes.stop - start
            for _ in range(k - 1):
                if reached == (reached := np.count_nonzero(reach)):
                    break  # no node added: every later product gives this mask
                reach = hop @ reach
                np.minimum(reach, 1.0, out=reach)
        inside = reach > 0
        del reach
        sums = np.zeros((table.shape[0], nodes.stop - start))
        for first in range(0, num_edges, _EDGE_CHUNK):
            chunk = slice(first, first + _EDGE_CHUNK)
            both = inside[p[chunk]] & inside[q[chunk]]
            sums += table[:, chunk] @ both.astype(np.float64)
        return sums

    sums = np.hstack(share(block_sums, len(starts)))
    return sums[0].astype(np.int64), np.ascontiguousarray(sums[1:].T).reshape(n, *values.shape[1:])


def local_label_homophily(graph: Graph, node: int, k: int) -> float | None:
    """Same-label fraction over the edges induced by the k-hop neighborhood.

    Returns ``None`` when the induced edge set is empty (the quantity is
    undefined there, e.g. for isolated nodes or ``k = 0``).
    """
    _, induced = k_hop(graph, node, k)
    if induced.shape[0] == 0:
        return None
    same = graph.labels[induced[:, 0]] == graph.labels[induced[:, 1]]
    return float(np.mean(same))
