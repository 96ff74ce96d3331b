"""Training harness: splits, early-stopped optimization, run aggregation.

Every source of randomness is derived from integer seeds through
counter-based generators, so a (base_seed, run, split) triple pins an entire
training trajectory: initialization, dropout masks, and the split itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from .autodiff import AdamState, adam_step, backward, make_rng, no_grad, zero_grad
from .domains import check_domains
from .errors import DataError, NumericalError
from .graph import Graph, SparseOperator, normalized_operators
from .model import (
    DsfConfig,
    accuracy,
    direct_table,
    forward,
    init_params,
    init_positional,
    one_hot,
    total_loss,
)
from .parallel import share
from .spectral import eigendecompose

SPLIT_FRACTIONS = {"dense": (0.6, 0.2), "sparse": (0.025, 0.025)}
SPARSE_FEATURE_DENSITY = 0.1  # feature matrices at most this full project through CSR

GraphInputs = tuple[SparseOperator, np.ndarray | SparseOperator, np.ndarray | None]


@dataclass(frozen=True)
class TrainConfig:
    """Optimization hyperparameters (model ones live in DsfConfig)."""

    lr: float = 0.05
    weight_decay: float = 0.0005
    epochs: int = 1000
    patience: int = 100

    def __post_init__(self) -> None:
        check_domains(vars(self))


@dataclass(frozen=True)
class Split:
    """Disjoint train/val/test node index arrays covering all nodes."""

    train: np.ndarray
    val: np.ndarray
    test: np.ndarray

    def masks(self, num_nodes: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        out = []
        for idx in (self.train, self.val, self.test):
            mask = np.zeros(num_nodes, dtype=bool)
            mask[idx] = True
            out.append(mask)
        return tuple(out)


def make_splits(graph: Graph, mode: str, num_splits: int, seed: int) -> list[Split]:
    """Random node splits: 60/20/20 (dense) or 2.5/2.5/95 percent (sparse).

    Each split is an independent permutation keyed by (seed, split index).
    Raises :class:`DataError` when a fraction rounds to an empty train or
    validation set.
    """
    check_domains({"split_mode": mode, "splits": num_splits})
    f_train, f_val = SPLIT_FRACTIONS[mode]
    n = graph.num_nodes
    n_train = round(f_train * n)
    n_val = round(f_val * n)
    if n_train == 0 or n_val == 0 or n_train + n_val >= n:
        raise DataError(
            f"{mode} split of {n} nodes gives {n_train}/{n_val}/{n - n_train - n_val}; "
            "every part must be nonempty"
        )
    splits = []
    for split_idx in range(num_splits):
        perm = make_rng(seed, split_idx).permutation(n)
        splits.append(
            Split(
                train=np.sort(perm[:n_train]),
                val=np.sort(perm[n_train : n_train + n_val]),
                test=np.sort(perm[n_train + n_val :]),
            )
        )
    return splits


@dataclass
class RunResult:
    """One training run: accuracy at the best-validation snapshot.

    ``val_history`` holds the per-epoch validation accuracies that drove
    early stopping; ``params`` is the snapshot the test accuracy was
    computed from; ``betas`` the per-node filter weights it realizes.
    """

    test_acc: float
    best_val_acc: float
    best_epoch: int
    epochs_run: int
    val_history: list[float] = field(default_factory=list)
    params: dict[str, np.ndarray] = field(default_factory=dict)
    betas: np.ndarray | None = None


def graph_inputs(graph: Graph, config: DsfConfig, homogeneous: bool = False) -> GraphInputs:
    """``(a_hat, features, positional)``, the model inputs that depend only on the graph.

    ``features`` is the CSR operator of ``graph.features`` (not flagged
    symmetric) when at most ``SPARSE_FEATURE_DENSITY`` of its entries are
    nonzero, and the dense array otherwise. ``positional`` is ``None`` for
    the baseline and the ablation; the dense eigendecomposition is built
    only for gated LapPE and dropped after use. RWPE's sweep threads are
    all joined before this returns (:func:`~diverspec.model.init_positional`),
    so :func:`run_grid` may still fork.
    Equal positional rows (RWPE on a cycle, complete graph or hypercube) are
    legal: the orthogonality penalty counts each flat column as 1.
    """
    a_hat, l_hat = normalized_operators(graph)
    features = graph.features
    if np.count_nonzero(features) <= SPARSE_FEATURE_DENSITY * features.size:
        features = SparseOperator(sparse.csr_array(features), symmetric=False)
    if direct_table(config, homogeneous):
        return a_hat, features, None
    decomposition = eigendecompose(l_hat) if config.pe_init == "LapPE" else None
    return a_hat, features, init_positional(a_hat, config, decomposition)


def train_once(
    graph: Graph,
    inputs: GraphInputs,
    config: DsfConfig,
    train_config: TrainConfig,
    split: Split,
    seed_entropy: tuple[int, ...],
    homogeneous: bool = False,
) -> RunResult:
    """Train one model on one split with early stopping on validation accuracy.

    ``inputs`` must be ``graph_inputs(graph, config, homogeneous)`` for this
    same graph and variant. The best-so-far parameters are snapshotted in memory
    (ties keep the earlier epoch) together with the logits and beta table of the
    eval pass that selected them; the test accuracy and betas come from that
    pass. The eval pass runs under :func:`~diverspec.autodiff.no_grad`, so it
    records no tape; only the train pass is differentiated, and its backward
    frees the train tape as it sweeps, so no tape outlives its epoch. A
    non-finite loss or gradient aborts with :class:`NumericalError` before the
    optimizer step.
    """
    a_hat, features, positional = inputs
    params = init_params(
        config,
        num_features=graph.num_features,
        num_classes=graph.num_classes,
        rng=make_rng(*seed_entropy, 0),
        num_nodes=graph.num_nodes,
        homogeneous=homogeneous,
    )
    dropout_rng = make_rng(*seed_entropy, 1)
    optimizer = AdamState(lr=train_config.lr, weight_decay=train_config.weight_decay)
    param_dict = params.as_dict()

    targets = one_hot(graph.labels, graph.num_classes)
    train_mask, val_mask, test_mask = split.masks(graph.num_nodes)

    best_val = -np.inf
    best_epoch = 0
    best_snapshot = best_logits = best_betas = None
    val_history: list[float] = []
    epoch = 0

    for epoch in range(1, train_config.epochs + 1):
        # No name holds a pass's result past its use, so no readout of one
        # epoch is still held while the next epoch's tape is built.
        result = forward(
            a_hat, features, positional, params, config,
            train=True, rng=dropout_rng, homogeneous=homogeneous,
        )
        loss = total_loss(result, targets, train_mask, config)
        del result
        if not np.isfinite(loss.data[0, 0]):
            raise NumericalError(f"training diverged at epoch {epoch} (non-finite loss)")
        zero_grad(param_dict)
        backward(loss)
        for name, p in param_dict.items():
            if p.grad is not None and not np.isfinite(p.grad).all():
                raise NumericalError(f"non-finite gradient of {name} at epoch {epoch}")
        adam_step(param_dict, optimizer)

        with no_grad():
            eval_result = forward(
                a_hat, features, positional, params, config,
                train=False, homogeneous=homogeneous,
            )
        logits, betas = eval_result.logits.data, eval_result.betas
        del eval_result
        val_acc = accuracy(logits, graph.labels, val_mask)
        val_history.append(val_acc)
        if val_acc > best_val:
            best_val = val_acc
            best_epoch = epoch
            best_snapshot = params.snapshot()
            best_logits, best_betas = logits, betas
        elif epoch - best_epoch >= train_config.patience:
            break

    return RunResult(
        test_acc=accuracy(best_logits, graph.labels, test_mask),
        best_val_acc=float(best_val),
        best_epoch=best_epoch,
        epochs_run=epoch,
        val_history=val_history,
        params=best_snapshot,
        betas=best_betas,
    )


def aggregate(accuracies: np.ndarray | list[float]) -> tuple[float, float]:
    """Mean and 95% confidence half-width (1.96 * sample std / sqrt(n)).

    A single run has no spread estimate; its half-width is reported as 0.
    """
    accs = np.asarray(accuracies, dtype=np.float64)
    if accs.size == 0:
        raise DataError("cannot aggregate zero runs")
    mean = float(np.mean(accs))
    if accs.size == 1:
        return mean, 0.0
    return mean, float(1.96 * np.std(accs, ddof=1) / np.sqrt(accs.size))


@dataclass
class GridResult:
    """A runs x splits experiment: per-cell records plus the aggregate."""

    mean_acc: float
    ci95: float
    cells: list[dict]
    last_run: RunResult


def run_grid(
    graph: Graph,
    config: DsfConfig,
    train_config: TrainConfig,
    runs: int,
    splits: list[Split],
    base_seed: int,
    homogeneous: bool = False,
) -> GridResult:
    """Train every (run, split) cell with seeds derived from the base seed.

    Cell (r, s) trains under the entropy tuple (base_seed, r, s), so any
    cell can be reproduced in isolation. The graph inputs are built once,
    by :func:`graph_inputs`, and shared by every cell.

    The cells are the tasks of :func:`~diverspec.parallel.share`, whose
    workers :func:`~diverspec.parallel.beside` forks after the graph inputs
    are built, so they inherit them. Each process claims the lowest
    unclaimed cell, in (run, split) order, and holds one cell's tape at a
    time, so total RSS grows by up to that many tapes; workers send back
    their cell records and, if they trained it, the last cell's result.
    Results do not depend on the number of processes. A failing cell stops
    the grid, and the error raised is that of the first failing cell in
    (run, split) order. A worker that dies raises ``RuntimeError``. If this
    process is killed outright, each worker stops after its current cell.
    """
    check_domains({"runs": runs})
    if not splits:
        raise DataError("cannot aggregate zero runs")
    inputs = graph_inputs(graph, config, homogeneous)
    seeds = [
        (base_seed, run_idx, split_idx)
        for run_idx in range(runs)
        for split_idx in range(len(splits))
    ]

    def train_cell(index: int) -> tuple[dict, RunResult | None]:
        seed = seeds[index]
        result = train_once(
            graph, inputs, config, train_config, splits[seed[2]],
            seed_entropy=seed, homogeneous=homogeneous,
        )
        record = {
            "run": seed[1],
            "split": seed[2],
            "seed": list(seed),
            "test_acc": result.test_acc,
            "best_val_acc": result.best_val_acc,
            "best_epoch": result.best_epoch,
            "epochs_run": result.epochs_run,
        }
        return record, result if index == len(seeds) - 1 else None

    cells, last_runs = zip(*share(train_cell, len(seeds)))
    mean, ci = aggregate([cell["test_acc"] for cell in cells])
    return GridResult(mean_acc=mean, ci95=ci, cells=list(cells), last_run=last_runs[-1])

