"""Splits, the early-stopped training loop, and run aggregation."""

from __future__ import annotations

import multiprocessing
import os
import signal
import tempfile
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diverspec import (
    DsfConfig,
    TrainConfig,
    aggregate,
    graph_inputs,
    make_splits,
    run_grid,
    train_once,
    two_block_graph,
)
from diverspec import model, training
from diverspec.errors import ConfigError, DataError, NumericalError, UsageError
from diverspec.autodiff import make_rng
from diverspec.model import accuracy, forward, init_params
from diverspec.datasets import random_graph
from tests.conftest import EQUAL_RWPE_ROWS, counting_forks, toy_graph
from tests.test_induced_edges import small_graphs


def small_config(**overrides) -> DsfConfig:
    base = dict(
        K=3, d=8, f_p=4, eta1=0.3, eta2=0.0, lambda_orth=0.0,
        mode="I", backbone="GPR", pe_init="RWPE", dropout_p=0.1,
    )
    base.update(overrides)
    return DsfConfig(**base)


def test_make_splits_dense_proportions():
    g = random_graph(10, edge_prob=0.3, seed=0)
    (split,) = make_splits(g, "dense", 1, seed=0)
    assert (len(split.train), len(split.val), len(split.test)) == (6, 2, 2)


def test_make_splits_sparse_proportions():
    g = random_graph(200, edge_prob=0.02, seed=1)
    (split,) = make_splits(g, "sparse", 1, seed=0)
    assert (len(split.train), len(split.val), len(split.test)) == (5, 5, 190)


def test_make_splits_partition_is_disjoint_and_exhaustive():
    g = random_graph(53, edge_prob=0.05, seed=2)
    for split in make_splits(g, "dense", 4, seed=3):
        combined = np.concatenate([split.train, split.val, split.test])
        assert np.array_equal(np.sort(combined), np.arange(53))


def test_make_splits_deterministic_and_distinct():
    g = random_graph(40, edge_prob=0.1, seed=3)
    a = make_splits(g, "dense", 3, seed=7)
    b = make_splits(g, "dense", 3, seed=7)
    for x, y in zip(a, b):
        assert np.array_equal(x.train, y.train)
        assert np.array_equal(x.test, y.test)
    assert not np.array_equal(a[0].train, a[1].train)


def test_make_splits_rejects_empty_parts():
    g = toy_graph([(0, 1)], labels=[0, 1])
    with pytest.raises(DataError):
        make_splits(g, "sparse", 1, seed=0)
    with pytest.raises(ConfigError):
        make_splits(g, "nonsense", 1, seed=0)


def test_train_once_is_deterministic():
    g = two_block_graph(10, seed=4)
    split = make_splits(g, "dense", 1, seed=0)[0]
    cfg = small_config()
    tc = TrainConfig(epochs=25, patience=10)
    a = train_once(g, graph_inputs(g, cfg), cfg, tc, split, (11, 0, 0))
    b = train_once(g, graph_inputs(g, cfg), cfg, tc, split, (11, 0, 0))
    assert a.test_acc == b.test_acc
    assert a.best_epoch == b.best_epoch
    assert a.val_history == b.val_history
    for name in a.params:
        assert np.array_equal(a.params[name], b.params[name])


def test_train_once_different_seed_changes_trajectory():
    g = two_block_graph(10, seed=4)
    split = make_splits(g, "dense", 1, seed=0)[0]
    cfg = small_config()
    tc = TrainConfig(epochs=10, patience=10)
    a = train_once(g, graph_inputs(g, cfg), cfg, tc, split, (11, 0, 0))
    b = train_once(g, graph_inputs(g, cfg), cfg, tc, split, (12, 0, 0))
    assert not np.array_equal(a.params["w_in"], b.params["w_in"])


def test_train_once_early_stopping_bounds_epochs():
    g = two_block_graph(10, seed=5)
    split = make_splits(g, "dense", 1, seed=1)[0]
    cfg = small_config()
    tc = TrainConfig(epochs=400, patience=15)
    result = train_once(g, graph_inputs(g, cfg), cfg, tc, split, (0, 0, 0))
    assert result.epochs_run <= result.best_epoch + tc.patience
    assert result.epochs_run <= tc.epochs


def test_train_once_reports_accuracy_at_best_validation_epoch():
    g = two_block_graph(10, seed=6)
    split = make_splits(g, "dense", 1, seed=2)[0]
    cfg = small_config()
    tc = TrainConfig(epochs=60, patience=60)
    result = train_once(g, graph_inputs(g, cfg), cfg, tc, split, (1, 0, 0))
    history = np.array(result.val_history)
    assert result.best_val_acc == history.max()
    assert result.best_epoch == int(np.argmax(history)) + 1  # ties keep the earliest


def test_train_once_frozen_gamma_is_a_constant_predictor():
    g = two_block_graph(12, seed=7)
    split = make_splits(g, "dense", 1, seed=3)[0]
    cfg = small_config(dropout_p=0.0)
    tc = TrainConfig(epochs=30, patience=30)

    def pin_gamma(params):
        params.gamma.data[...] = 0.0
        params.gamma.requires_grad = False

    result = train_once(g, graph_inputs(g, cfg), cfg, tc, split, (2, 0, 0), init_hook=pin_gamma)
    predicted = int(np.argmax(result.params["b_out"]))
    expected = float(np.mean(g.labels[split.test] == predicted))
    assert result.test_acc == expected


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_once_aborts_on_divergence():
    # Huge-but-finite logits survive on their own (the log-sum-exp is shifted,
    # and Adam's overflowed second moment zeroes the step), so force the
    # forward pass itself to overflow: the head then produces +inf/-inf
    # logits whose shifted difference is NaN, and the loop must abort.
    g = two_block_graph(5, seed=11)
    split = make_splits(g, "dense", 1, seed=0)[0]
    cfg = small_config(dropout_p=0.0)
    tc = TrainConfig(epochs=5, patience=5)

    def blow_up(params):
        params.w_in.data[...] = 0.0
        params.b_in.data[...] = 1e160
        params.w_out.data[...] = np.tile([[1e308, -1e308]], (cfg.d, 1))

    with pytest.raises(NumericalError):
        train_once(g, graph_inputs(g, cfg), cfg, tc, split, (0, 0, 0), init_hook=blow_up)


def test_train_once_aborts_on_non_finite_gradient(monkeypatch):
    g = two_block_graph(5, seed=11)
    split = make_splits(g, "dense", 1, seed=0)[0]
    captured = []
    real_backward = training.backward

    def poisoned_backward(loss):
        real_backward(loss)
        captured[0][0].gamma.grad[0, 2] = np.nan

    monkeypatch.setattr(training, "backward", poisoned_backward)
    cfg = small_config()
    with pytest.raises(NumericalError, match="gamma at epoch 1"):
        train_once(
            g, graph_inputs(g, cfg), cfg, TrainConfig(epochs=3, patience=3), split, (0, 0, 0),
            init_hook=lambda params: captured.append((params, params.snapshot())),
        )
    params, initial = captured[0]
    final = params.snapshot()
    assert all(np.array_equal(final[name], initial[name]) for name in initial)  # no Adam step


def test_train_once_tapes_only_the_train_pass(monkeypatch):
    g = two_block_graph(5, seed=11)
    split = make_splits(g, "dense", 1, seed=0)[0]
    tracked = {True: [], False: []}
    real_forward = training.forward

    def spy(*args, train=False, **kwargs):
        result = real_forward(*args, train=train, **kwargs)
        tracked[train].append(result.logits.requires_grad)
        return result

    monkeypatch.setattr(training, "forward", spy)
    cfg = small_config()
    train_once(g, graph_inputs(g, cfg), cfg, TrainConfig(epochs=3, patience=3), split, (0, 0, 0))
    assert tracked == {True: [True] * 3, False: [False] * 3}


@pytest.mark.parametrize("backbone", ["GPR", "Bern", "Jacobi"])
def test_train_once_memory_does_not_grow_with_epochs(backbone):
    g = random_graph(600, 0.01, num_classes=3, num_features=32, seed=3)
    split = make_splits(g, "dense", 1, seed=0)[0]
    cfg = DsfConfig(K=10, d=32, f_p=8, lambda_orth=0.001, backbone=backbone)
    inputs = graph_inputs(g, cfg)
    peaks = []
    for epochs in (1, 4):
        tracemalloc.start()
        try:
            train_once(g, inputs, cfg, TrainConfig(epochs=epochs, patience=epochs), split, (0, 0, 0))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # A tape kept from one epoch into the next (with its gradients) shows as
    # a later epoch peaking above the first: about 1.33x here.
    assert peaks[1] <= 1.15 * peaks[0], peaks


@pytest.mark.parametrize(
    "overrides",
    [{}, {"backbone": "Bern"}, {"ablate_ipe": True}],
    ids=["gpr", "bern", "no-ipe"],
)
def test_train_once_returns_its_best_eval_pass(overrides):
    g = two_block_graph(10, seed=12)
    split = make_splits(g, "dense", 1, seed=7)[0]
    cfg = small_config(**overrides)
    a_hat, features, positional = inputs = graph_inputs(g, cfg)
    result = train_once(g, inputs, cfg, TrainConfig(epochs=15, patience=5), split, (3, 0, 0))
    params = init_params(cfg, g.num_features, g.num_classes, make_rng(99), g.num_nodes)
    for name, value in params.as_dict().items():
        value.data = result.params[name].copy()
    replay = forward(a_hat, features, positional, params, cfg)
    _, _, test_mask = split.masks(g.num_nodes)
    assert result.test_acc == accuracy(replay.logits.data, g.labels, test_mask)
    assert np.array_equal(result.betas, replay.betas)


@pytest.mark.parametrize(
    "overrides, homogeneous, expected",
    [
        ({}, False, (1, 0, 1)),
        ({"pe_init": "LapPE"}, False, (1, 1, 1)),
        ({"ablate_ipe": True}, False, (1, 0, 0)),
        ({}, True, (1, 0, 0)),
        ({"pe_init": "LapPE"}, True, (1, 0, 0)),
    ],
    ids=["rwpe", "lappe", "no-ipe", "baseline-rwpe", "baseline-lappe"],
)
def test_run_grid_builds_graph_inputs_once(monkeypatch, overrides, homogeneous, expected):
    calls = {}

    def counting(name):
        real = getattr(training, name)

        def wrapped(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return real(*args, **kwargs)

        return wrapped

    names = ("normalized_operators", "eigendecompose", "init_positional")
    for name in names:
        monkeypatch.setattr(training, name, counting(name))
    g = two_block_graph(10, seed=13)
    splits = make_splits(g, "dense", 2, seed=8)
    grid = run_grid(
        g, small_config(**overrides), TrainConfig(epochs=3, patience=3), 2, splits, 4,
        homogeneous=homogeneous,
    )
    assert len(grid.cells) == 4
    assert tuple(calls.get(name, 0) for name in names) == expected


@pytest.mark.parametrize("name", sorted(EQUAL_RWPE_ROWS))
def test_equal_positional_rows_train_in_mode_r(name):
    # Every positional column is flat; the orthogonality penalty counts each
    # one as 1 and the gated model trains on.
    n, edges = EQUAL_RWPE_ROWS[name]
    g = toy_graph(edges, [i % 3 for i in range(n)])
    cfg = small_config(mode="R", lambda_orth=0.1, dropout_p=0.0)
    _, _, positional = graph_inputs(g, cfg)
    assert np.ptp(positional, axis=0).max() <= 1e-12
    splits = make_splits(g, "dense", 1, seed=2)
    grid = run_grid(g, cfg, TrainConfig(epochs=4, patience=4), 1, splits, 3)
    assert grid.last_run.epochs_run == 4
    assert {"w_pos", "gate_w", "gate_b"} <= set(grid.last_run.params)


def test_degenerate_mode_r_graph_trains_as_the_baseline():
    # The baseline reads no positions, so on a graph whose positional rows
    # are all equal it builds none and keeps only its five tensors.
    g = toy_graph([(i, (i + 1) % 30) for i in range(30)], [i % 3 for i in range(30)])
    cfg = small_config(mode="R", lambda_orth=0.1, dropout_p=0.0)
    splits = make_splits(g, "dense", 1, seed=2)
    grid = run_grid(g, cfg, TrainConfig(epochs=4, patience=4), 1, splits, 3, homogeneous=True)
    assert grid.last_run.epochs_run == 4
    assert set(grid.last_run.params) == {"w_in", "b_in", "w_out", "b_out", "gamma"}


@settings(max_examples=200, deadline=None)
@given(
    graph=small_graphs(),
    backbone=st.sampled_from(("GPR", "Bern", "Jacobi")),
    mode=st.sampled_from(("R", "I")),
    pe_init=st.sampled_from(("RWPE", "LapPE")),
    lambda_orth=st.sampled_from((0.0, 0.1)),
    dropout_p=st.sampled_from((0.0, 0.5)),
    variant=st.sampled_from(("dsf", "baseline", "no-ipe")),
)
def test_small_graphs_train_every_cell_or_fail_up_front(
    graph, backbone, mode, pe_init, lambda_orth, dropout_p, variant
):
    # Edgeless graphs, isolated nodes and tiny N give flat positional
    # columns and dropped-out ones; none of them may stop a grid mid-way.
    # Cells may train in forked workers, so each call appends a line to a
    # file that every process shares.
    real_train_once = training.train_once

    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        log = Path(tmp) / "calls"
        log.touch()

        def counting(*args, **kwargs):
            with log.open("a", encoding="utf-8") as handle:
                handle.write("call\n")
            return real_train_once(*args, **kwargs)

        patch.setattr(training, "train_once", counting)
        try:
            cfg = DsfConfig(
                K=2, d=4, f_p=2, eta1=0.3, eta2=0.3 if mode == "I" else 0.0,
                lambda_orth=lambda_orth, mode=mode, backbone=backbone, pe_init=pe_init,
                dropout_p=dropout_p, ablate_ipe=variant == "no-ipe",
            )
            splits = make_splits(graph, "dense", 2, seed=1)
            grid = run_grid(
                graph, cfg, TrainConfig(epochs=3, patience=3), 1, splits, 0,
                homogeneous=variant == "baseline",
            )
        except (UsageError, DataError):  # ConfigError is a UsageError
            grid = None
        calls = log.read_text(encoding="utf-8").splitlines()
    if grid is None:
        assert not calls
        return
    assert len(grid.cells) == len(calls) == 2


def test_baseline_and_ablation_together_are_rejected(monkeypatch):
    g = two_block_graph(8, seed=9)
    splits = make_splits(g, "dense", 1, seed=5)
    cfg = small_config(ablate_ipe=True)
    tc = TrainConfig(epochs=3, patience=3)
    monkeypatch.setattr(training, "train_once", lambda *a, **k: pytest.fail("a cell trained"))
    with pytest.raises(ConfigError, match="exclude each other"):
        run_grid(g, cfg, tc, runs=1, splits=splits, base_seed=6, homogeneous=True)
    monkeypatch.undo()
    with pytest.raises(ConfigError, match="exclude each other"):
        train_once(g, graph_inputs(g, cfg), cfg, tc, splits[0], (6, 0, 0), homogeneous=True)


def test_aggregate_closed_forms():
    mean, ci = aggregate([0.8])
    assert (mean, ci) == (0.8, 0.0)
    mean, ci = aggregate([0.8, 0.8, 0.8])
    assert mean == pytest.approx(0.8) and ci == pytest.approx(0.0)
    mean, ci = aggregate([0.7, 0.9])
    assert mean == pytest.approx(0.8)
    assert ci == pytest.approx(1.96 * np.std([0.7, 0.9], ddof=1) / np.sqrt(2))
    assert ci == pytest.approx(0.196, abs=5e-4)


def test_run_grid_covers_runs_times_splits():
    g = two_block_graph(10, seed=8)
    splits = make_splits(g, "dense", 2, seed=4)
    cfg = small_config()
    tc = TrainConfig(epochs=8, patience=8)
    grid = run_grid(g, cfg, tc, runs=3, splits=splits, base_seed=5)
    assert len(grid.cells) == 6
    assert 0.0 <= grid.mean_acc <= 1.0
    assert grid.ci95 >= 0.0
    assert grid.last_run.betas.shape == (20, cfg.K + 1)


def wait_for(condition, timeout: float = 60.0) -> None:
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "timed out"
        time.sleep(0.01)


def test_usable_cpus_follows_the_affinity_set(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 5)
    assert training.usable_cpus() == 1
    monkeypatch.delattr(os, "sched_getaffinity")
    assert training.usable_cpus() == 5


def test_run_grid_results_do_not_depend_on_the_cpu_count(monkeypatch):
    g = two_block_graph(10, seed=8)
    splits = make_splits(g, "dense", 2, seed=4)
    tc = TrainConfig(epochs=10, patience=3)  # early stopping: cells differ in length
    forks = counting_forks(monkeypatch)
    grids = []
    for cpus in (1, 2, 3):
        monkeypatch.setattr(training, "usable_cpus", lambda cpus=cpus: cpus)
        grids.append(run_grid(g, small_config(), tc, runs=3, splits=splits, base_seed=5))
        assert len(forks) == cpus - 1
        assert not multiprocessing.active_children()
        forks.clear()
    serial = grids[0]
    assert len({cell["epochs_run"] for cell in serial.cells}) > 1
    for grid in grids[1:]:
        assert grid.cells == serial.cells
        assert (grid.mean_acc, grid.ci95) == (serial.mean_acc, serial.ci95)
        assert grid.last_run.params.keys() == serial.last_run.params.keys()
        for name, value in serial.last_run.params.items():
            assert np.array_equal(grid.last_run.params[name], value)
        assert np.array_equal(grid.last_run.betas, serial.last_run.betas)
        assert grid.last_run.val_history == serial.last_run.val_history


def test_run_grid_forks_after_a_threaded_rwpe_build(monkeypatch):
    # RWPE runs on helper threads in the calling process; they are all joined
    # before the grid decides whether it may fork.
    g = random_graph(3 * model._RWPE_BLOCK, 0.05, seed=8)
    splits = make_splits(g, "dense", 2, seed=4)
    started = []

    class LoggingThread(threading.Thread):
        def start(self):
            started.append(self.name)
            super().start()

    monkeypatch.setattr(threading, "Thread", LoggingThread)
    monkeypatch.setattr(training, "usable_cpus", lambda: 2)
    monkeypatch.setattr(model, "usable_cpus", lambda: 2)
    forks = counting_forks(monkeypatch)
    grid = run_grid(g, small_config(), TrainConfig(epochs=2, patience=2), 1, splits, 5)
    assert started == ["rwpe"] and len(forks) == 1
    assert len(grid.cells) == 2
    assert not multiprocessing.active_children()


def test_run_grid_brings_back_the_last_run_from_a_worker(monkeypatch, tmp_path):
    g = two_block_graph(10, seed=8)
    splits = make_splits(g, "dense", 2, seed=4)
    tc = TrainConfig(epochs=4, patience=4)
    log = tmp_path / "pids"
    log.touch()
    real_train_once, real_fork = training.train_once, os.fork

    def fork():  # the worker waits until this process has started cell 0
        pid = real_fork()
        while not pid and not log.read_text(encoding="utf-8"):
            time.sleep(0.01)  # no timeout here: a raising caller terminates it
        return pid

    def logging(*args, seed_entropy, **kwargs):
        with log.open("a", encoding="utf-8") as handle:
            handle.write(f"{seed_entropy[1]} {seed_entropy[2]} {os.getpid()}\n")
        if seed_entropy[1:] == (0, 0):  # let the worker claim cell 1
            wait_for(lambda: "\n0 1 " in "\n" + log.read_text(encoding="utf-8"))
        return real_train_once(*args, seed_entropy=seed_entropy, **kwargs)

    monkeypatch.setattr(training, "train_once", logging)
    monkeypatch.setattr(training, "usable_cpus", lambda: 2)
    monkeypatch.setattr(os, "fork", fork)
    grid = run_grid(g, small_config(), tc, 1, splits, 5)
    pids = dict(line.rsplit(" ", 1) for line in log.read_text(encoding="utf-8").splitlines())
    assert pids.keys() == {"0 0", "0 1"}
    assert int(pids["0 0"]) == os.getpid() != int(pids["0 1"])
    assert not multiprocessing.active_children()

    monkeypatch.setattr(training, "usable_cpus", lambda: 1)
    serial = run_grid(g, small_config(), tc, 1, splits, 5).last_run
    assert grid.last_run.params.keys() == serial.params.keys()
    for name, value in serial.params.items():
        assert np.array_equal(grid.last_run.params[name], value)
    assert np.array_equal(grid.last_run.betas, serial.betas)
    assert grid.last_run.val_history == serial.val_history


def test_run_grid_trains_every_cell_once_with_more_processes_than_cpus(monkeypatch, tmp_path):
    # The processes claim cells from one shared counter; a lost update would
    # train a cell twice or skip it.
    g = two_block_graph(10, seed=8)
    splits = make_splits(g, "dense", 2, seed=4)
    log = tmp_path / "cells"
    real_train_once = training.train_once

    def logging(*args, seed_entropy, **kwargs):
        with log.open("a", encoding="utf-8") as handle:
            handle.write(f"{seed_entropy[1]} {seed_entropy[2]}\n")
        return real_train_once(*args, seed_entropy=seed_entropy, **kwargs)

    monkeypatch.setattr(training, "train_once", logging)
    monkeypatch.setattr(training, "usable_cpus", lambda: 2 * os.cpu_count() + 2)
    grid = run_grid(g, small_config(), TrainConfig(epochs=1, patience=1), 12, splits, 5)
    trained = sorted(log.read_text(encoding="utf-8").splitlines())
    assert trained == sorted(f"{r} {s}" for r in range(12) for s in range(2))
    assert [(cell["run"], cell["split"]) for cell in grid.cells] == [
        (r, s) for r in range(12) for s in range(2)
    ]
    assert not multiprocessing.active_children()


def failing_forks(monkeypatch) -> None:
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("run_grid forked"))


def test_run_grid_with_one_cell_forks_nothing(monkeypatch):
    g = two_block_graph(10, seed=8)
    splits = make_splits(g, "dense", 1, seed=4)
    monkeypatch.setattr(training, "usable_cpus", lambda: 8)
    failing_forks(monkeypatch)
    grid = run_grid(g, small_config(), TrainConfig(epochs=3, patience=3), 1, splits, 5)
    assert len(grid.cells) == 1


def test_run_grid_in_a_daemonic_process_trains_serially(monkeypatch):
    # A multiprocessing pool worker is daemonic and may not start children.
    g = two_block_graph(10, seed=8)
    splits = make_splits(g, "dense", 2, seed=4)
    monkeypatch.setattr(training, "usable_cpus", lambda: 2)
    context = multiprocessing.get_context("fork")
    receiver, sender = context.Pipe(duplex=False)

    def daemon():
        failing_forks(monkeypatch)  # in the daemon only: it has already forked
        grid = run_grid(g, small_config(), TrainConfig(epochs=3, patience=3), 1, splits, 5)
        sender.send(len(grid.cells))

    process = context.Process(target=daemon, daemon=True)
    process.start()
    sender.close()
    try:
        assert receiver.poll(60) and receiver.recv() == 2
    finally:
        process.join(60)
        assert not process.is_alive()
        process.close()
        receiver.close()


def test_run_grid_beside_another_thread_trains_serially(monkeypatch):
    # fork copies only the calling thread; a lock another thread holds
    # would stay locked in the worker forever.
    g = two_block_graph(10, seed=8)
    splits = make_splits(g, "dense", 2, seed=4)
    monkeypatch.setattr(training, "usable_cpus", lambda: 2)
    failing_forks(monkeypatch)
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(60,))
    thread.start()
    try:
        grid = run_grid(g, small_config(), TrainConfig(epochs=3, patience=3), 1, splits, 5)
    finally:
        release.set()
        thread.join(60)
    assert len(grid.cells) == 2


def test_run_grid_without_fork_trains_in_one_process(monkeypatch):
    # Where the fork start method does not exist, no fork context is made.
    g = two_block_graph(10, seed=8)
    splits = make_splits(g, "dense", 2, seed=4)
    monkeypatch.setattr(training, "usable_cpus", lambda: 2)
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    monkeypatch.setattr(multiprocessing, "get_context", lambda *a: pytest.fail("got a context"))
    failing_forks(monkeypatch)
    grid = run_grid(g, small_config(), TrainConfig(epochs=3, patience=3), 2, splits, 5)
    assert [(cell["run"], cell["split"]) for cell in grid.cells] == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_run_grid_in_one_process_trains_the_cells_in_order(monkeypatch):
    g = two_block_graph(10, seed=8)
    splits = make_splits(g, "dense", 2, seed=4)
    trained = []
    real_train_once = training.train_once

    def logging(*args, seed_entropy, **kwargs):
        trained.append(seed_entropy[1:])
        return real_train_once(*args, seed_entropy=seed_entropy, **kwargs)

    monkeypatch.setattr(training, "train_once", logging)
    monkeypatch.setattr(training, "usable_cpus", lambda: 1)
    failing_forks(monkeypatch)
    grid = run_grid(g, small_config(), TrainConfig(epochs=3, patience=3), 2, splits, 5)
    assert trained == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert [(cell["run"], cell["split"]) for cell in grid.cells] == trained


def test_run_grid_without_splits_raises_before_forking(monkeypatch):
    g = two_block_graph(10, seed=8)
    monkeypatch.setattr(training, "usable_cpus", lambda: 2)
    failing_forks(monkeypatch)
    with pytest.raises(DataError, match="cannot aggregate zero runs"):
        run_grid(g, small_config(), TrainConfig(epochs=3, patience=3), 2, [], 5)
    assert not multiprocessing.active_children()


@pytest.mark.parametrize(
    "cpus, runs, failing, first",
    [
        (2, 1, {0, 1}, 0), (2, 1, {0}, 0), (2, 1, {1}, 1), (3, 2, {1, 2, 3}, 1), (3, 2, {3}, 3),
        (1, 1, {0, 1}, 0), (1, 1, {0}, 0), (1, 1, {1}, 1), (1, 2, {1, 2, 3}, 1), (1, 2, {3}, 3),
    ],
)
def test_run_grid_raises_the_first_failing_cell(monkeypatch, cpus, runs, failing, first):
    # With 2 CPUs either process may claim a failing cell; the lowest one's
    # error wins. With 1 CPU the cells train in order up to the first failure.
    g = two_block_graph(10, seed=8)
    splits = make_splits(g, "dense", 2, seed=4)
    real_train_once = training.train_once

    def failing_cells(*args, seed_entropy, **kwargs):
        index = 2 * seed_entropy[1] + seed_entropy[2]
        if index in failing:
            raise NumericalError(f"cell {index} diverged")
        return real_train_once(*args, seed_entropy=seed_entropy, **kwargs)

    monkeypatch.setattr(training, "train_once", failing_cells)
    monkeypatch.setattr(training, "usable_cpus", lambda: cpus)
    with pytest.raises(NumericalError, match=f"^cell {first} diverged$"):
        run_grid(g, small_config(), TrainConfig(epochs=3, patience=3), runs, splits, 5)
    assert not multiprocessing.active_children()


def test_a_failing_cell_stops_the_grid(monkeypatch, tmp_path):
    # Cell 0 fails at once. Besides it, the other process's cell and at
    # most one more claimed before the stop may train; the other 7 must not.
    g = two_block_graph(10, seed=8)
    splits = make_splits(g, "dense", 2, seed=4)
    log = tmp_path / "cells"
    real_train_once = training.train_once

    def first_cell_fails(*args, seed_entropy, **kwargs):
        with log.open("a", encoding="utf-8") as handle:
            handle.write(f"{seed_entropy}\n")
        if seed_entropy[1:] == (0, 0):
            raise NumericalError("cell 0 diverged")
        return real_train_once(*args, seed_entropy=seed_entropy, **kwargs)

    monkeypatch.setattr(training, "train_once", first_cell_fails)
    monkeypatch.setattr(training, "usable_cpus", lambda: 2)
    with pytest.raises(NumericalError, match="cell 0 diverged"):
        run_grid(g, small_config(), TrainConfig(epochs=20, patience=20), 5, splits, 5)
    assert len(log.read_text(encoding="utf-8").splitlines()) <= 3
    assert not multiprocessing.active_children()


def test_a_failing_cell_stops_a_one_cpu_grid_at_once(monkeypatch):
    g = two_block_graph(10, seed=8)
    splits = make_splits(g, "dense", 2, seed=4)
    trained = []

    def every_cell_fails(*args, seed_entropy, **kwargs):
        trained.append(seed_entropy[1:])
        raise NumericalError(f"cell {seed_entropy[1:]} diverged")

    monkeypatch.setattr(training, "train_once", every_cell_fails)
    monkeypatch.setattr(training, "usable_cpus", lambda: 1)
    failing_forks(monkeypatch)
    with pytest.raises(NumericalError, match=r"cell \(0, 0\) diverged"):
        run_grid(g, small_config(), TrainConfig(epochs=3, patience=3), 2, splits, 5)
    assert trained == [(0, 0)]


def test_run_grid_reports_a_worker_that_dies(monkeypatch):
    g = two_block_graph(10, seed=8)
    splits = make_splits(g, "dense", 2, seed=4)
    caller = os.getpid()
    real_train_once = training.train_once

    def dying_worker(*args, **kwargs):
        if os.getpid() != caller:
            os._exit(7)
        wait_for(lambda: not multiprocessing.active_children())
        return real_train_once(*args, **kwargs)

    monkeypatch.setattr(training, "train_once", dying_worker)
    monkeypatch.setattr(training, "usable_cpus", lambda: 2)
    with pytest.raises(RuntimeError, match="exited with code 7"):
        run_grid(g, small_config(), TrainConfig(epochs=3, patience=3), 1, splits, 5)
    assert not multiprocessing.active_children()


def test_run_grid_stops_its_workers_when_the_caller_is_interrupted(monkeypatch):
    g = two_block_graph(10, seed=8)
    splits = make_splits(g, "dense", 2, seed=4)
    caller = os.getpid()

    def stuck_worker(*args, **kwargs):
        if os.getpid() != caller:
            time.sleep(60)
        raise KeyboardInterrupt

    monkeypatch.setattr(training, "train_once", stuck_worker)
    monkeypatch.setattr(training, "usable_cpus", lambda: 2)
    start = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        run_grid(g, small_config(), TrainConfig(epochs=3, patience=3), 1, splits, 5)
    assert time.perf_counter() - start < 30
    assert not multiprocessing.active_children()


def running(pid: int) -> bool:
    """Whether ``pid`` is a live process (an unreaped zombie counts as ended)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="utf-8") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not os.path.exists("/proc/self/stat"), reason="needs /proc")
def test_workers_stop_after_their_cell_when_the_caller_is_killed(monkeypatch, tmp_path):
    g = two_block_graph(10, seed=8)
    splits = make_splits(g, "dense", 2, seed=4)
    log = tmp_path / "pids"
    log.touch()
    real_train_once = training.train_once

    def slow_cells(*args, **kwargs):
        with log.open("a", encoding="utf-8") as handle:
            handle.write(f"{os.getpid()}\n")
        time.sleep(0.3)
        return real_train_once(*args, **kwargs)

    def started():
        return log.read_text(encoding="utf-8").split()

    monkeypatch.setattr(training, "train_once", slow_cells)
    monkeypatch.setattr(training, "usable_cpus", lambda: 2)
    context = multiprocessing.get_context("fork")
    caller = context.Process(
        target=run_grid, args=(g, small_config(), TrainConfig(epochs=2, patience=2), 20, splits, 5)
    )
    caller.start()
    wait_for(lambda: len(set(started())) == 2)  # the caller and its worker are training
    os.kill(caller.pid, signal.SIGKILL)
    caller.join()
    cells_at_kill = len(started())
    workers = {int(pid) for pid in started()} - {caller.pid}
    caller.close()
    try:
        wait_for(lambda: not any(running(pid) for pid in workers), timeout=60)
        # A worker may start a cell it claimed just before the kill, no more.
        assert len(started()) <= cells_at_kill + 1
    finally:
        for pid in workers:
            if running(pid):
                os.kill(pid, signal.SIGKILL)


@pytest.mark.parametrize("gamma_init", ["uniform", "random"])
def test_run_grid_trains_a_gpr_grid_under_each_gamma_init(gamma_init):
    g = two_block_graph(10, seed=8)
    splits = make_splits(g, "dense", 2, seed=4)
    cfg = small_config(gamma_init=gamma_init)
    grid = run_grid(g, cfg, TrainConfig(epochs=5, patience=5), 1, splits, 5)
    assert len(grid.cells) == 2 and 0.0 <= grid.mean_acc <= 1.0
    assert grid.last_run.params["gamma"].shape == (1, cfg.K + 1)
    assert np.isfinite(grid.last_run.betas).all()


def test_run_grid_baseline_flag_pins_gates():
    g = two_block_graph(8, seed=9)
    splits = make_splits(g, "dense", 1, seed=5)
    cfg = small_config(dropout_p=0.0)
    tc = TrainConfig(epochs=5, patience=5)
    grid = run_grid(g, cfg, tc, runs=1, splits=splits, base_seed=6, homogeneous=True)
    betas = grid.last_run.betas
    assert np.all(betas == betas[:1, :])  # every node shares the same weight row


def test_uniform_random_predictor_sanity():
    rng = np.random.default_rng(0)
    labels = rng.integers(0, 4, size=20000)
    logits = rng.standard_normal((20000, 4))
    acc = accuracy(logits, labels, np.ones(20000, dtype=bool))
    assert abs(acc - 0.25) < 0.02


def test_masks_never_overlap_in_metrics():
    g = two_block_graph(10, seed=10)
    split = make_splits(g, "dense", 1, seed=6)[0]
    masks = split.masks(g.num_nodes)
    stacked = np.stack(masks).astype(int)
    assert np.all(stacked.sum(axis=0) == 1)
