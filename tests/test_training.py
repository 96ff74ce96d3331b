"""Splits, the early-stopped training loop, and run aggregation."""

from __future__ import annotations

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
from diverspec import training
from diverspec.errors import ConfigError, DataError, NumericalError, UsageError
from diverspec.autodiff import make_rng
from diverspec.model import accuracy, forward, init_params
from diverspec.datasets import random_graph
from tests.conftest import EQUAL_RWPE_ROWS, toy_graph
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


@pytest.mark.parametrize(
    "overrides",
    [{}, {"backbone": "Bern"}, {"ablate_ipe": True}],
    ids=["gpr", "bern", "no-ipe"],
)
def test_train_once_returns_its_best_eval_pass(overrides):
    g = two_block_graph(10, seed=12)
    split = make_splits(g, "dense", 1, seed=7)[0]
    cfg = small_config(**overrides)
    a_hat, positional = inputs = graph_inputs(g, cfg)
    result = train_once(g, inputs, cfg, TrainConfig(epochs=15, patience=5), split, (3, 0, 0))
    params = init_params(cfg, g.num_features, g.num_classes, make_rng(99), g.num_nodes)
    for name, value in params.as_dict().items():
        value.data = result.params[name].copy()
    replay = forward(a_hat, g.features, positional, params, cfg)
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
    _, positional = graph_inputs(g, cfg)
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
    calls = []
    real_train_once = training.train_once

    def counting(*args, **kwargs):
        calls.append(1)
        return real_train_once(*args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
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
