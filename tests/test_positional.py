"""RWPE from the diagonal of Â powers against explicit random-walk powers.

``init_positional`` reads diag((A D^-1)^m) off products of Â with blocks of
identity columns; these tests hold it to dense matrix powers on small graphs
and to sparse matrix powers on graphs that span several blocks, and check
that its helper threads change no byte and never outlive the call.
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
from diverspec.graph import _RWPE_BLOCK, identity_blocks
from tests.test_induced_edges import small_graphs

SPAN = 34 * _RWPE_BLOCK + 12  # 35 blocks, the last one partial
LONE = 32 * _RWPE_BLOCK + 1  # a lone last column, joined to the block before it


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
    graph = random_graph(SPAN, 4.0 / SPAN, seed=11)
    isolated = graph.degrees == 0
    assert isolated.any()
    positional = rwpe(graph, 6)
    np.testing.assert_allclose(positional, sparse_walk_oracle(graph, 6), rtol=0.0, atol=1e-12)
    assert np.all(positional[isolated] == 0.0)
    assert np.all(positional[~isolated, 1] > 0.0)  # every walk can step back


class MeetingOperator:
    """``a_hat`` whose first product in each thread waits for ``threads`` threads.

    So each of that many threads must be inside a block at once. Every
    thread but the calling one then sleeps ``delay`` seconds, which outlasts
    the caller's share of the sweep, and with ``fail`` set raises ``Failure``.
    """

    class Failure(Exception):
        pass

    def __init__(self, a_hat, threads, delay=0.0, fail=False):
        self.a_hat, self.shape, self.delay, self.fail = a_hat, a_hat.shape, delay, fail
        self.barrier = threading.Barrier(threads, timeout=60)
        self.caller = threading.get_ident()
        self.seen, self.lock = set(), threading.Lock()

    def dot(self, x):
        me = threading.get_ident()
        with self.lock:
            first = me not in self.seen
            self.seen.add(me)
        if first:
            self.barrier.wait()
            if me != self.caller:
                time.sleep(self.delay)
        if self.fail and me != self.caller:
            raise self.Failure(me)
        return self.a_hat.dot(x)


@pytest.mark.parametrize("n", [SPAN, LONE])
def test_rwpe_bytes_do_not_depend_on_the_thread_count_or_block_width(monkeypatch, n):
    graph = random_graph(n, 4.0 / n, seed=11)
    isolated = graph.degrees == 0
    assert isolated.any()
    a_hat = normalized_operators(graph)[0]
    oracle = sparse_walk_oracle(graph, 6)
    runs = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # the threads trade the claim lock often
    try:
        # Of these widths only 3 leaves LONE without a lone last column.
        for width in (2, 3, 16, _RWPE_BLOCK, 512):
            monkeypatch.setattr(model, "_RWPE_BLOCK", width)
            for cpus in (1, 2, 7):
                monkeypatch.setattr(model, "usable_cpus", lambda cpus=cpus: cpus)
                blocks = identity_blocks(n, width=width, join_lone=True)
                threads = min(cpus, len(list(blocks)))
                operator = MeetingOperator(a_hat, threads)
                runs.append(init_positional(operator, DsfConfig(f_p=6)))
                assert len(operator.seen) == threads
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
    positional = init_positional(MeetingOperator(a_hat, 7, delay=0.3), DsfConfig(f_p=6))
    assert threading.active_count() == before
    np.testing.assert_allclose(positional, sparse_walk_oracle(graph, 6), rtol=0.0, atol=1e-12)


def test_rwpe_raises_a_helper_error_after_joining_every_thread(monkeypatch):
    graph = random_graph(SPAN, 4.0 / SPAN, seed=11)
    operator = MeetingOperator(normalized_operators(graph)[0], 3, delay=0.3, fail=True)
    monkeypatch.setattr(model, "usable_cpus", lambda: 3)
    before = threading.active_count()
    with pytest.raises(MeetingOperator.Failure) as raised:
        init_positional(operator, DsfConfig(f_p=6))
    assert threading.active_count() == before
    assert raised.value.args[0] in operator.seen - {operator.caller}
