"""Acceptance gate: one test per release criterion.

Each test prints one line in the ``acceptance criteria`` terminal section
(see ``conftest.pytest_terminal_summary``).  Criteria 7 and 8 need real
dataset files under ``data/``; they skip with an explicit notice when those
are absent.  All tolerances are pinned here, next to the check they govern.
"""

from __future__ import annotations

import json
import time
import zlib
from pathlib import Path

import numpy as np
import pytest

from diverspec import (
    Bernstein,
    DsfConfig,
    Jacobi,
    Monomial,
    basis_eval,
    edge_homophily,
    eigendecompose,
    filter_response,
    forward,
    fourier,
    frequency_histogram,
    global_frequency,
    homogeneous_filter,
    homophily_histogram,
    inverse_fourier,
    load_dataset,
    make_splits,
    normalized_operators,
    random_graph,
    rescale_coefficients,
    run_grid,
    save_dataset,
    two_block_graph,
)
from diverspec.autodiff import Value
from diverspec.cli import main
from diverspec.config import load_config
from diverspec.errors import ConfigError
from diverspec.model import orth_penalty

from tests.conftest import DATA_ROOT, connected_random_graph
from tests.test_model import model_gradcheck

REPO_ROOT = Path(__file__).resolve().parent.parent

BASES = {
    "monomial": lambda order: Monomial(),
    "bernstein": Bernstein,
    "jacobi": lambda order: Jacobi(1.0, 1.0),
}

TINY_CONFIG = """\
backbone = GPR
mode = R
K = 3
d = 8
f_p = 4
eta1 = 0.3
lambda_orth = 0.001
dropout_p = 0.1
lr = 0.05
weight_decay = 0.0005
epochs = 6
patience = 6
"""


def synthetic_run_inputs(tmp_path: Path) -> tuple[Path, Path]:
    """A saved 20-node dataset and a matching small config file."""
    data = tmp_path / "blocks"
    save_dataset(two_block_graph(block_size=10, num_features=4, seed=3), "blocks", data)
    cfg = tmp_path / "tiny.conf"
    cfg.write_text(TINY_CONFIG, encoding="utf-8")
    return data, cfg


def require_datasets(*names: str) -> None:
    missing = [
        name
        for name in names
        if not all((DATA_ROOT / name / f).is_file() for f in ("meta.json", "edges.tsv", "nodes.tsv"))
    ]
    if missing:
        pytest.skip(
            f"datasets not available: {', '.join(missing)}; place meta.json, "
            f"edges.tsv, nodes.tsv under {DATA_ROOT}/<name>/ to enable this check"
        )


def test_criterion_01_spectral_correctness():
    """Eigenpairs, Fourier round trips, and the edge-sum energy identity.

    50 random graphs with N <= 200; every residual must stay below 1e-8.
    The edge-sum identity needs degree >= 1 everywhere, so the graphs carry
    a spanning path.
    """
    rng = np.random.default_rng(20260815)
    for trial in range(50):
        n = int(rng.integers(10, 201))
        g = connected_random_graph(n, edge_prob=0.05, seed=trial)
        _, l_hat = normalized_operators(g)
        dec = eigendecompose(l_hat)

        residual = l_hat.dense() @ dec.eigenvectors - dec.eigenvectors * dec.eigenvalues
        assert np.linalg.norm(residual, axis=0).max() < 1e-8

        x = rng.standard_normal((n, 3))
        round_trip = inverse_fourier(dec.eigenvectors, fourier(dec.eigenvectors, x))
        assert np.abs(round_trip - x).max() < 1e-8

        unit = rng.standard_normal(n)
        unit /= np.linalg.norm(unit)
        rayleigh = float(unit @ (l_hat.dense() @ unit))
        assert abs(global_frequency(g, unit) - rayleigh) < 1e-8


def test_criterion_02_rescaling_oracle():
    """Coefficient rescaling: f(xi * x) == g(x) for 100 random (alpha, xi).

    Order 10, every basis kind, max error on a 64-point grid below 1e-8.
    """
    order = 10
    grid = np.linspace(0.0, 2.0, 64)
    for name, make in BASES.items():
        kind = make(order)
        rng = np.random.default_rng(zlib.crc32(name.encode()))  # same trials in every process
        worst = 0.0
        for _ in range(100):
            alpha = rng.normal(size=order + 1)
            xi = rng.uniform(0.0, 1.0)
            rescaled = rescale_coefficients(alpha, xi, kind)
            direct = filter_response(alpha, kind, xi * grid)
            via_rescale = filter_response(rescaled, kind, grid)
            worst = max(worst, float(np.abs(direct - via_rescale).max()))
        assert worst < 1e-8, f"{name}: max identity error {worst:.3e}"


def test_criterion_03_filter_equivalence():
    """Recurrence filtering equals the spectral route U g(Lambda) U^T X.

    20 random graphs with N <= 100, all three bases, tolerance 1e-6.
    """
    rng = np.random.default_rng(3)
    for trial in range(20):
        n = int(rng.integers(10, 101))
        g = connected_random_graph(n, edge_prob=0.1, seed=100 + trial)
        a_hat, l_hat = normalized_operators(g)
        dec = eigendecompose(l_hat)
        x = rng.standard_normal((n, 3))
        coeffs = rng.standard_normal(6)
        for name, make in BASES.items():
            kind = make(len(coeffs) - 1)
            g_of_lambda = sum(
                c * basis_eval(kind, k, dec.eigenvalues) for k, c in enumerate(coeffs)
            )
            spectral = dec.eigenvectors @ (g_of_lambda[:, None] * (dec.eigenvectors.T @ x))
            recurrence = homogeneous_filter(coeffs, kind, a_hat, x)
            assert np.abs(recurrence - spectral).max() < 1e-6, name


def test_criterion_04_homogeneous_reduction():
    """With every local gate pinned to 1 the model is the plain backbone.

    30-node random graph, GPR / Bern / Jacobi, agreement within 1e-10.
    """
    from tests.test_model import build_model, config

    g = random_graph(30, edge_prob=0.12, seed=4)
    for backbone in ("GPR", "Bern", "Jacobi"):
        cfg = config(K=4, backbone=backbone)
        a_hat, positional, params = build_model(g, cfg, seed=40)
        result = forward(a_hat, g.features, positional, params, cfg, homogeneous=True)

        gamma = params.gamma.data[0]
        if backbone == "Bern":
            gamma = np.maximum(gamma, 0.0)
        h0 = np.maximum(g.features @ params.w_in.data + params.b_in.data, 0.0)
        z = homogeneous_filter(gamma, cfg.basis(), a_hat, h0)
        logits = z @ params.w_out.data + params.b_out.data
        assert np.abs(result.logits.data - logits).max() < 1e-10, backbone


def test_criterion_05_gradient_fidelity():
    """Autodiff vs central differences on the full GPR-R forward pass.

    10 nodes, K=3, d=4, f_p=4; worst elementwise relative error < 1e-4.
    """
    cfg = DsfConfig(
        K=3, d=4, f_p=4, eta1=0.3, lambda_orth=0.05,
        mode="R", backbone="GPR", pe_init="RWPE", dropout_p=0.0,
    )
    worst = model_gradcheck(cfg, seed=5)
    assert worst < 1e-4, f"worst relative gradient error {worst:.3e}"


def test_criterion_06_structural_invariants():
    """Partition of unity, weight signs, edge invariance, mode guards, L_Orth."""
    from tests.test_model import build_model, config

    # Bernstein bases sum to one everywhere on [0, 2].
    grid = np.linspace(0.0, 2.0, 257)
    for order in (2, 5, 10):
        pou = filter_response(np.ones(order + 1), Bernstein(order), grid)
        assert np.abs(pou - 1.0).max() < 1e-12

    # Bern-backbone weights stay nonnegative even under hostile gammas.
    g = two_block_graph(6, seed=5)
    cfg = config(K=5, backbone="Bern")
    a_hat, positional, params = build_model(g, cfg, seed=11)
    k = np.arange(params.gamma.shape[1])
    params.gamma.data[0] = (-1.0) ** k * (k + 0.5)
    assert forward(a_hat, g.features, positional, params, cfg).betas.min() >= 0.0

    # eta1 = 1 makes the positional state independent of the wiring.
    g1 = two_block_graph(5, seed=3)
    g2 = two_block_graph(5, seed=4)
    cfg = config(eta1=1.0)
    a1, positional, params = build_model(g1, cfg, seed=9)
    a2, _, _ = build_model(g2, cfg, seed=9)
    p1 = forward(a1, g1.features, positional, params, cfg).positional
    p2 = forward(a2, g2.features, positional, params, cfg).positional
    assert np.array_equal(p1.data, p2.data)

    # The restricted variant refuses a nonzero eta2.
    with pytest.raises(ConfigError):
        config(mode="R", eta2=0.5)

    # L_Orth vanishes exactly on orthonormal normalized columns ...
    orthonormal = Value(0.5 * np.array([[1, 1], [1, -1], [-1, 1], [-1, -1]], dtype=float))
    assert abs(orth_penalty(orthonormal).data[0, 0]) < 1e-10
    # ... is 2 on the 2x2 identity (centred columns become opposite units) ...
    assert abs(orth_penalty(Value(np.eye(2))).data[0, 0] - 2.0) < 1e-12
    # ... and is bounded away from zero whenever columns align.
    base = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    doubled = np.concatenate([base[:, :1], base[:, :1]], axis=1)
    assert orth_penalty(Value(doubled)).data[0, 0] > 1e-10


def test_criterion_07_diagnostics_reproduction():
    """Edge homophily of the WebKB graphs and histogram spread on Chameleon.

    Cornell 0.296, Texas 0.061, Wisconsin 0.178, each within +/- 0.005;
    Chameleon's local homophily and mid-band frequency histograms must both
    have sample standard deviation above 0.05.
    """
    require_datasets("cornell", "texas", "wisconsin", "chameleon")

    reference = {"cornell": 0.296, "texas": 0.061, "wisconsin": 0.178}
    for name, expected in reference.items():
        graph = load_dataset(DATA_ROOT / name)
        assert abs(edge_homophily(graph) - expected) <= 0.005, name

    chameleon = load_dataset(DATA_ROOT / "chameleon")
    _, homophily_values = homophily_histogram(chameleon, k=2)
    assert np.std(homophily_values, ddof=1) > 0.05

    _, l_hat = normalized_operators(chameleon)
    dec = eigendecompose(l_hat)
    hist = frequency_histogram(chameleon, dec, "mid", k=2)
    assert np.std(hist.values, ddof=1) > 0.05


def test_criterion_08_directional_training():
    """Diverse filtering vs the shared-coefficient baseline on Cornell.

    Committed config, dense splits, 10 runs x 3 splits: the diverse mean
    must not trail the baseline mean by more than 1.0 percentage point and
    must win on at least 2 of the 3 splits.  Budget: 15 minutes.
    """
    require_datasets("cornell")
    graph = load_dataset(DATA_ROOT / "cornell")
    model_cfg, train_cfg = load_config(REPO_ROOT / "configs" / "cornell.conf")
    splits = make_splits(graph, "dense", 3, seed=0)

    started = time.monotonic()
    diverse = run_grid(graph, model_cfg, train_cfg, runs=10, splits=splits, base_seed=0)
    baseline = run_grid(
        graph, model_cfg, train_cfg, runs=10, splits=splits, base_seed=0, homogeneous=True
    )
    elapsed = time.monotonic() - started

    def split_means(cells: list[dict]) -> np.ndarray:
        table = np.zeros(3)
        for split_idx in range(3):
            accs = [c["test_acc"] for c in cells if c["split"] == split_idx]
            table[split_idx] = np.mean(accs)
        return table

    wins = int(np.sum(split_means(diverse.cells) >= split_means(baseline.cells)))
    assert diverse.mean_acc >= baseline.mean_acc - 0.010, (
        f"diverse {diverse.mean_acc:.4f} vs baseline {baseline.mean_acc:.4f}"
    )
    assert wins >= 2, f"diverse wins only {wins} of 3 splits"
    assert elapsed < 900.0, f"took {elapsed:.0f}s, budget is 900s"


def test_criterion_09_ablation_hook(tmp_path):
    """Training without positional refinement runs and writes metrics."""
    data, cfg = synthetic_run_inputs(tmp_path)
    code = main([
        "train", "--data", str(data), "--config", str(cfg), "--out", str(tmp_path / "run"),
        "--runs", "2", "--splits", "2", "--seed", "0", "--no-ipe",
    ])
    assert code == 0
    metrics = json.loads((tmp_path / "run" / "metrics-no-ipe.json").read_text())
    assert metrics["variant"] == "no-ipe"
    assert metrics["config"]["ablate_ipe"] is True
    assert len(metrics["per_run"]) == 4
    assert all(0.0 <= cell["test_acc"] <= 1.0 for cell in metrics["per_run"])


def test_criterion_10_determinism(tmp_path, capsys):
    """Every command repeated with the same seed emits identical bytes."""
    data, cfg = synthetic_run_inputs(tmp_path)
    outputs: list[Path] = []
    for attempt in ("a", "b"):
        root = tmp_path / attempt
        assert main(["diagnose", "--data", str(data), "--out", str(root / "diag")]) == 0
        assert main([
            "train", "--data", str(data), "--config", str(cfg),
            "--out", str(root / "run"), "--runs", "1", "--splits", "2", "--seed", "17",
        ]) == 0
        assert main([
            "analyze", "--run-dir", str(root / "run"), "--clusters", "3",
            "--seed", "17", "--out", str(root / "ana"),
        ]) == 0
        assert main(["prop1-check", "--order", "5", "--trials", "10", "--seed", "17"]) == 0
        outputs.append(root)

    first, second = outputs
    first_files = sorted(p.relative_to(first) for p in first.rglob("*") if p.is_file())
    second_files = sorted(p.relative_to(second) for p in second.rglob("*") if p.is_file())
    assert first_files == second_files and first_files
    for rel in first_files:
        assert (first / rel).read_bytes() == (second / rel).read_bytes(), str(rel)

    stdout = capsys.readouterr().out.splitlines()
    check_lines = [line for line in stdout if line.startswith("prop1-check")]
    assert check_lines[: len(check_lines) // 2] == check_lines[len(check_lines) // 2 :]
