"""RWPE from the diagonal of Â powers against explicit random-walk powers.

``init_positional`` reads diag((A D^-1)^m) off products of Â with blocks of
identity columns; these tests hold it to dense matrix powers on small graphs
and to sparse matrix powers on graphs that span several blocks, and check
that its pool threads change no byte and never outlive the call.
"""

from __future__ import annotations

import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diverspec import DsfConfig, init_positional, model, normalized_operators, random_graph
from diverspec.model import _RWPE_BLOCK
from tests.test_induced_edges import small_graphs

W = _RWPE_BLOCK
SPAN = 34 * W + 12  # 35 blocks, the last one partial
LONE = 32 * W + 1  # a lone last column, joined to the block before it


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


def dense_walk_oracle(graph, f_p):
    """diag((A D^-1)^m), m = 1..f_p, by dense matrix powers."""
    walk = graph.adjacency.toarray() @ np.linalg.pinv(np.diag(graph.degrees.astype(np.float64)))
    return np.stack([np.diag(np.linalg.matrix_power(walk, m)) for m in range(1, f_p + 1)], axis=1)


def rwpe(graph, f_p):
    return init_positional(normalized_operators(graph)[0], DsfConfig(f_p=f_p))


@settings(max_examples=80, deadline=None)
@given(graph=small_graphs(), data=st.data())
def test_rwpe_matches_dense_walk_powers(graph, data):
    f_p = data.draw(st.integers(1, graph.num_nodes), label="f_p")
    positional = rwpe(graph, f_p)
    assert positional.shape == (graph.num_nodes, f_p)
    np.testing.assert_allclose(positional, dense_walk_oracle(graph, f_p), rtol=0.0, atol=1e-12)
    assert np.all(positional[graph.degrees == 0] == 0.0)


def test_rwpe_matches_sparse_walk_powers_across_blocks():
    graph = random_graph(SPAN, 4.0 / SPAN, seed=11)
    isolated = graph.degrees == 0
    assert isolated.any()
    positional = rwpe(graph, 6)
    np.testing.assert_allclose(positional, sparse_walk_oracle(graph, 6), rtol=0.0, atol=1e-12)
    assert np.all(positional[isolated] == 0.0)
    assert np.all(positional[~isolated, 1] > 0.0)  # every walk can step back


class SweepOperator:
    """``a_hat`` that logs each RWPE block, ``(start, width)``, as its sweep begins.

    A block's first product is the one with its identity columns. The first
    block of each thread waits until ``threads`` threads are inside one, so
    each of them must be, and then sleeps ``delay`` seconds. ``on_block(start)``
    runs as each block begins; it may raise.
    """

    def __init__(self, a_hat, threads=1, delay=0.0, on_block=lambda start: None):
        self.a_hat, self.shape, self.delay, self.on_block = a_hat, a_hat.shape, delay, on_block
        self.barrier = threading.Barrier(threads, timeout=60)
        self.seen, self.blocks, self.lock = set(), [], threading.Lock()

    def dot(self, x):
        start = int(np.argmax(x[:, 0]))
        if np.array_equal(x, np.eye(*x.shape, -start)):
            with self.lock:
                first = threading.get_ident() not in self.seen
                self.seen.add(threading.get_ident())
                self.blocks.append((start, x.shape[1]))
            if first:
                self.barrier.wait()
                time.sleep(self.delay)
            self.on_block(start)
        return self.a_hat.dot(x)


JOINED = {1: [1], 2: [2], W: [W], W + 1: [W + 1], 2 * W + 1: [W, W + 1], 2 * W + 2: [W, W, 2]}


@pytest.mark.parametrize("n", JOINED)
def test_rwpe_joins_a_lone_last_column(monkeypatch, n):
    graph = random_graph(n, min(1.0, 4.0 / n), seed=11)
    f_p = min(n, 6)
    a_hat = normalized_operators(graph)[0]
    monkeypatch.setattr(model, "usable_cpus", lambda: 2)
    operator = SweepOperator(a_hat)
    positional = init_positional(operator, DsfConfig(f_p=f_p))
    assert [width for _, width in sorted(operator.blocks)] == JOINED[n]
    np.testing.assert_allclose(positional, dense_walk_oracle(graph, f_p), rtol=0.0, atol=1e-12)
    monkeypatch.setattr(model, "_RWPE_BLOCK", n)  # one block of every column
    assert np.array_equal(init_positional(a_hat, DsfConfig(f_p=f_p)), positional)


@pytest.mark.parametrize("n", [SPAN, LONE])
def test_rwpe_bytes_do_not_depend_on_the_thread_count_or_block_width(monkeypatch, n):
    graph = random_graph(n, 4.0 / n, seed=11)
    isolated = graph.degrees == 0
    assert isolated.any()
    a_hat = normalized_operators(graph)[0]
    oracle = sparse_walk_oracle(graph, 6)
    runs = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # the threads trade the GIL often
    try:
        # Of these widths only 3 leaves LONE without a lone last column.
        for width in (2, 3, 16, W, 512):
            monkeypatch.setattr(model, "_RWPE_BLOCK", width)
            starts = list(range(0, n, width))
            if n % width == 1:
                starts.pop()
            for cpus in (1, 2, 7):
                monkeypatch.setattr(model, "usable_cpus", lambda cpus=cpus: cpus)
                threads = min(cpus, len(starts))
                operator = SweepOperator(a_hat, threads)
                runs.append(init_positional(operator, DsfConfig(f_p=6)))
                assert len(operator.seen) == threads
                assert sorted(start for start, _ in operator.blocks) == starts
    finally:
        sys.setswitchinterval(interval)
    for positional in runs:
        assert np.array_equal(positional, runs[0])
    np.testing.assert_allclose(runs[0], oracle, rtol=0.0, atol=1e-12)
    assert np.all(runs[0][isolated] == 0.0)


def test_rwpe_threads_are_joined_when_it_returns(monkeypatch):
    graph = random_graph(SPAN, 4.0 / SPAN, seed=11)
    a_hat = normalized_operators(graph)[0]
    monkeypatch.setattr(model, "usable_cpus", lambda: 7)
    before = threading.active_count()
    positional = init_positional(SweepOperator(a_hat, 7, delay=0.3), DsfConfig(f_p=6))
    assert threading.active_count() == before
    np.testing.assert_allclose(positional, sparse_walk_oracle(graph, 6), rtol=0.0, atol=1e-12)


class Failure(Exception):
    pass


def test_rwpe_raises_a_helper_error_after_joining_every_thread(monkeypatch):
    graph = random_graph(SPAN, 4.0 / SPAN, seed=11)

    def on_block(start):
        if start == 2 * W:
            raise Failure(start)

    operator = SweepOperator(normalized_operators(graph)[0], 3, delay=0.3, on_block=on_block)
    monkeypatch.setattr(model, "usable_cpus", lambda: 3)
    before = threading.active_count()
    with pytest.raises(Failure, match=f"^{2 * W}$"):
        init_positional(operator, DsfConfig(f_p=6))
    assert threading.active_count() == before


def test_rwpe_raises_the_lowest_failing_blocks_error(monkeypatch):
    # Block 3 fails first in time, block 1 last; block 1's error is raised.
    graph = random_graph(SPAN, 4.0 / SPAN, seed=11)
    failed = []

    def on_block(start):
        if start in (W, 3 * W):
            time.sleep(0.3 if start == W else 0.0)
            failed.append(start)
            raise Failure(start)

    operator = SweepOperator(normalized_operators(graph)[0], 3, on_block=on_block)
    monkeypatch.setattr(model, "usable_cpus", lambda: 3)
    before = threading.active_count()
    with pytest.raises(Failure, match=f"^{W}$"):
        init_positional(operator, DsfConfig(f_p=6))
    assert failed == [3 * W, W]
    assert threading.active_count() == before


def test_rwpe_passes_on_an_interrupt_and_cancels_the_blocks_not_started(monkeypatch):
    graph = random_graph(SPAN, 4.0 / SPAN, seed=11)

    def on_block(start):
        if start == 0:
            raise KeyboardInterrupt
        time.sleep(0.05)

    operator = SweepOperator(normalized_operators(graph)[0], 2, on_block=on_block)
    monkeypatch.setattr(model, "usable_cpus", lambda: 2)
    before = threading.active_count()
    with pytest.raises(KeyboardInterrupt):
        init_positional(operator, DsfConfig(f_p=6))
    assert len(operator.blocks) < -(-SPAN // W)
    assert threading.active_count() == before
