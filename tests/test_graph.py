"""Graph construction, normalization, homophily, and k-hop neighborhoods."""

from __future__ import annotations

import multiprocessing
import os
import time

import numpy as np
import pytest

from diverspec import (
    build_graph,
    edge_homophily,
    k_hop,
    local_label_homophily,
    normalized_operators,
)
from diverspec.errors import DataError
from diverspec.graph import beside, share
from tests.conftest import counting_forks, set_usable_cpus, toy_graph


def test_build_graph_canonicalizes_edges():
    g = toy_graph([(1, 0), (0, 1), (2, 1), (1, 1)], labels=[0, 0, 1])
    assert g.edges.tolist() == [[0, 1], [1, 2]]
    assert g.degrees.tolist() == [1, 2, 1]


def test_build_graph_rejects_bad_endpoints():
    with pytest.raises(DataError):
        toy_graph([(0, 3)], labels=[0, 1, 1])
    with pytest.raises(DataError):
        toy_graph([(-1, 0)], labels=[0, 1])


def test_build_graph_rejects_bad_labels_and_features():
    with pytest.raises(DataError):
        build_graph([(0, 1)], 2, np.eye(2), np.array([0, 5]), num_classes=2)
    with pytest.raises(DataError):
        build_graph([(0, 1)], 2, np.eye(3), np.array([0, 1]), num_classes=2)


def test_adjacency_is_symmetric(c3):
    dense = c3.adjacency.toarray()
    assert np.array_equal(dense, dense.T)
    assert dense.sum() == 2 * c3.edges.shape[0]


def test_normalized_operators_k2(k2):
    a_hat, l_hat = normalized_operators(k2)
    assert np.allclose(a_hat.dense(), [[0.0, 1.0], [1.0, 0.0]])
    assert np.allclose(l_hat.dense(), [[1.0, -1.0], [-1.0, 1.0]])


def test_normalized_operators_triangle(c3):
    a_hat, _ = normalized_operators(c3)
    off = a_hat.dense()[~np.eye(3, dtype=bool)]
    assert np.allclose(off, 0.5)


def test_normalized_operators_isolated_node():
    g = toy_graph([(0, 1)], labels=[0, 1, 1])
    a_hat, l_hat = normalized_operators(g)
    assert np.allclose(a_hat.dense()[2], 0.0)
    assert np.allclose(l_hat.dense()[2], [0.0, 0.0, 1.0])


def test_edge_homophily_path(p3):
    assert edge_homophily(p3) == 0.5


def test_edge_homophily_uniform_labels():
    g = toy_graph([(0, 1), (1, 2)], labels=[0, 0, 0], num_classes=2)
    assert edge_homophily(g) == 1.0


def test_edge_homophily_requires_edges():
    g = toy_graph([], labels=[0, 1])
    with pytest.raises(DataError):
        edge_homophily(g)


def test_k_hop_path(p3):
    nodes, edges = k_hop(p3, node=0, k=1)
    assert nodes.tolist() == [0, 1]
    assert edges.tolist() == [[0, 1]]
    nodes, edges = k_hop(p3, node=0, k=2)
    assert nodes.tolist() == [0, 1, 2]
    assert edges.tolist() == [[0, 1], [1, 2]]


def test_k_hop_zero_is_center_only(p3):
    nodes, edges = k_hop(p3, node=1, k=0)
    assert nodes.tolist() == [1]
    assert edges.size == 0


def test_k_hop_disconnected():
    g = toy_graph([(0, 1), (2, 3)], labels=[0, 0, 1, 1])
    nodes, _ = k_hop(g, node=0, k=5)
    assert nodes.tolist() == [0, 1]


def test_k_hop_induced_edges_star(star6):
    # 1-hop around a leaf contains the center but not leaf-leaf pairs.
    nodes, edges = k_hop(star6, node=1, k=1)
    assert nodes.tolist() == [0, 1]
    assert edges.tolist() == [[0, 1]]


def test_local_label_homophily_path(p3):
    assert local_label_homophily(p3, node=0, k=1) == 1.0
    assert local_label_homophily(p3, node=2, k=1) == 0.0
    # two hops from any node of the path covers both edges
    for i in range(3):
        assert local_label_homophily(p3, node=i, k=2) == 0.5


def test_local_label_homophily_star_center(star6):
    assert local_label_homophily(star6, node=0, k=1) == 0.0


def test_local_label_homophily_undefined_is_none():
    g = toy_graph([(0, 1)], labels=[0, 1, 1])
    assert local_label_homophily(g, node=2, k=2) is None
    assert local_label_homophily(g, node=0, k=0) is None


def test_graph_is_immutable(p3):
    with pytest.raises(AttributeError):
        p3.num_nodes = 5
    assert not p3.edges.flags.writeable


def _read_only_view(array):
    view = array.view()
    view.flags.writeable = False
    return view


@pytest.mark.parametrize("make_input", [
    lambda a: a,
    _read_only_view,  # frozen view of memory the caller can still write
], ids=["writeable", "read-only-view"])
def test_build_graph_copies_features_it_does_not_own(make_input):
    mine = np.arange(6.0).reshape(3, 2)
    features = make_input(mine)
    g = build_graph([(0, 1)], 3, features, np.array([0, 1, 0]), 2)
    assert mine.flags.writeable
    assert not np.shares_memory(g.features, mine)
    assert not np.shares_memory(g.features, features)
    assert not g.features.flags.writeable
    mine[0, 0] = 99.0
    assert g.features[0, 0] == 0.0


def test_build_graph_adopts_a_read_only_array_it_can_own():
    features = np.arange(6.0).reshape(3, 2).copy()
    features.flags.writeable = False
    g = build_graph([(0, 1)], 3, features, np.array([0, 1, 0]), 2)
    assert g.features is features


def test_beside_returns_the_children_results_in_fork_order(monkeypatch):
    forks = counting_forks(monkeypatch)
    assert beside(lambda: "here", os.getpid, 2) == ("here", forks)
    assert len(forks) == 2
    assert not multiprocessing.active_children()


def test_beside_raises_the_first_childs_error_in_place_of_its_own(monkeypatch):
    forks = counting_forks(monkeypatch)

    def job():
        raise ValueError(f"child {os.getpid()}")

    def here():
        raise KeyError("here")

    with pytest.raises(ValueError) as raised:
        beside(here, job, 2)
    assert str(raised.value) == f"child {forks[0]}"
    assert not multiprocessing.active_children()


@pytest.mark.parametrize("dies", [0, 1])
def test_beside_reports_a_child_that_exits_before_sending(monkeypatch, dies):
    forks = counting_forks(monkeypatch)  # a child's copy lists the children forked before it

    def job():
        if len(forks) == dies:
            os._exit(7)
        return 1

    with pytest.raises(RuntimeError, match="exited with code 7"):
        beside(lambda: 0, job, 2)
    assert len(forks) == 2
    assert not multiprocessing.active_children()


def test_beside_with_no_children_forks_nothing(monkeypatch):
    # job runs once, in this process, before here; its error comes before here starts.
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("beside forked"))
    calls = []

    def here():
        calls.append("here")
        return 3

    def job():
        calls.append("job")
        return 4

    assert beside(here, job, 0) == (3, [4])
    assert calls == ["job", "here"]

    def failing_job():
        raise ValueError("job")

    with pytest.raises(ValueError, match="^job$"):
        beside(lambda: pytest.fail("here ran"), failing_job, 0)
    assert not multiprocessing.active_children()


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_share_returns_every_result_in_index_order(monkeypatch, cpus):
    forks = counting_forks(monkeypatch)
    set_usable_cpus(monkeypatch, cpus)
    assert share(lambda index: (index, index * index), 7) == [(i, i * i) for i in range(7)]
    assert len(forks) == cpus - 1
    assert share(lambda index: index, 1) == [0]  # one task forks nothing
    assert len(forks) == cpus - 1
    assert not multiprocessing.active_children()


def test_share_runs_every_task_once_with_more_processes_than_cpus(monkeypatch, tmp_path):
    # The processes claim from one shared counter; a lost update would run a
    # task twice or skip it.
    set_usable_cpus(monkeypatch, 2 * os.cpu_count() + 2)
    log = tmp_path / "tasks"

    def task(index):
        with log.open("a", encoding="utf-8") as handle:
            handle.write(f"{index}\n")
        return index

    assert share(task, 60) == list(range(60))
    assert sorted(int(line) for line in log.read_text(encoding="utf-8").split()) == list(range(60))
    assert not multiprocessing.active_children()


@pytest.mark.parametrize(
    "cpus, failing, first",
    [(1, {2, 4}, 2), (2, {1, 2, 5}, 1), (2, {6}, 6), (3, {0, 3}, 0), (3, {4, 5}, 4)],
)
def test_share_raises_the_lowest_failing_indexs_error(monkeypatch, tmp_path, cpus, failing, first):
    # Any process may claim a failing index; the lowest one's error wins.
    # Every index below it has run, once; the failure empties the counter,
    # so the 30 tasks of 10 ms do not all run, and one process stops at it.
    set_usable_cpus(monkeypatch, cpus)
    log = tmp_path / "tasks"

    def task(index):
        with log.open("a", encoding="utf-8") as handle:
            handle.write(f"{index}\n")
        if index in failing:
            raise ValueError(f"task {index}")
        time.sleep(0.01)
        return index

    with pytest.raises(ValueError, match=f"^task {first}$"):
        share(task, 30)
    ran = [int(line) for line in log.read_text(encoding="utf-8").split()]
    assert len(ran) == len(set(ran)) < 30 and set(range(first + 1)) <= set(ran)
    if cpus == 1:
        assert ran == list(range(first + 1))
    assert not multiprocessing.active_children()


def test_share_raises_the_lowest_failing_index_not_the_first_in_time(monkeypatch, tmp_path):
    # Task 0 fails only once task 1 has failed in the other process.
    set_usable_cpus(monkeypatch, 2)
    flag = tmp_path / "task1-failed"

    def task(index):
        if index == 1:
            flag.touch()
        else:
            deadline = time.monotonic() + 60
            while not flag.exists() and time.monotonic() < deadline:
                time.sleep(0.01)
        raise ValueError(f"task {index}")

    with pytest.raises(ValueError, match="^task 0$"):
        share(task, 2)
    assert flag.exists()
    assert not multiprocessing.active_children()


def test_share_reports_a_worker_that_dies(monkeypatch):
    set_usable_cpus(monkeypatch, 2)
    caller = os.getpid()

    def task(index):
        if os.getpid() != caller:
            os._exit(7)
        deadline = time.monotonic() + 60
        while multiprocessing.active_children() and time.monotonic() < deadline:
            time.sleep(0.01)  # this process holds task 0 until the worker has died
        return index

    with pytest.raises(RuntimeError, match="exited with code 7"):
        share(task, 4)
    assert not multiprocessing.active_children()
