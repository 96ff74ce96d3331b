"""Model configuration, positional encodings, IPE, gating, and the forward pass."""

from __future__ import annotations

import numpy as np
import pytest

from diverspec import (
    DsfConfig,
    apply_basis,
    eigendecompose,
    forward,
    graph_inputs,
    homogeneous_filter,
    init_params,
    init_positional,
    normalized_operators,
    total_loss,
    two_block_graph,
)
from diverspec import autodiff as ad
from diverspec.autodiff import Value, make_rng
from diverspec.errors import ConfigError, DataError
from diverspec.model import (
    ipe_step,
    lgwd_beta,
    node_theta,
    one_hot,
    orth_penalty,
    project_inputs,
)
from tests.conftest import toy_graph


def config(**overrides) -> DsfConfig:
    base = dict(
        K=3, d=4, f_p=4, eta1=0.3, eta2=0.0, lambda_orth=0.0,
        mode="I", backbone="GPR", pe_init="RWPE", dropout_p=0.0,
    )
    base.update(overrides)
    return DsfConfig(**base)


def build_model(graph, cfg, seed=0, homogeneous=False):
    a_hat, positional = graph_inputs(graph, cfg, homogeneous)
    params = init_params(
        cfg,
        num_features=graph.num_features,
        num_classes=graph.num_classes,
        rng=make_rng(seed),
        num_nodes=graph.num_nodes,
        homogeneous=homogeneous,
    )
    return a_hat, positional, params


# --- configuration ---------------------------------------------------------


def test_config_mode_r_pins_eta2():
    with pytest.raises(ConfigError):
        config(mode="R", eta2=0.5, lambda_orth=0.1)
    cfg = config(mode="R", eta2=0.0, lambda_orth=0.1)
    assert cfg.eta2 == 0.0


def test_config_bern_requires_sigmoid_gates():
    with pytest.raises(ConfigError):
        config(backbone="Bern", sigma_p="Tanh")
    assert config(backbone="Bern").sigma_p == "Sigmoid"
    assert config(backbone="GPR").sigma_p == "Tanh"
    assert config(backbone="Jacobi").sigma_p == "Tanh"


def test_config_range_validation():
    with pytest.raises(ConfigError):
        config(eta1=1.5)
    with pytest.raises(ConfigError):
        config(lambda_orth=-0.1)
    with pytest.raises(ConfigError):
        config(K=0)
    with pytest.raises(ConfigError):
        config(backbone="Cheb")
    with pytest.raises(ConfigError):
        config(dropout_p=1.0)


def test_config_with_mode_round_trip():
    cfg = config(mode="I", eta2=0.4, lambda_orth=0.2)
    r_cfg = cfg.with_mode("R")
    assert r_cfg.mode == "R" and r_cfg.eta2 == 0.0
    assert cfg.eta2 == 0.4  # original untouched


# --- positional initialization ----------------------------------------------


def test_rwpe_on_k2(k2):
    cfg = config(f_p=2)
    x_p = init_positional(normalized_operators(k2)[0], cfg)
    assert np.allclose(x_p, [[0.0, 1.0], [0.0, 1.0]])


def test_rwpe_on_edgeless_graph():
    g = toy_graph([], labels=[0, 1, 1])
    x_p = init_positional(normalized_operators(g)[0], config(f_p=3))
    assert np.all(x_p == 0.0)


def test_lappe_on_k2(k2):
    cfg = config(f_p=2, pe_init="LapPE")
    dec = eigendecompose(normalized_operators(k2)[1])
    x_p = init_positional(normalized_operators(k2)[0], cfg, dec)
    s = 1.0 / np.sqrt(2.0)
    assert np.allclose(x_p, [[s, s], [s, -s]])


def test_lappe_skip_first_drops_constant_eigenvector(c3):
    dec = eigendecompose(normalized_operators(c3)[1])
    keep = init_positional(normalized_operators(c3)[0], config(f_p=2, pe_init="LapPE"), dec)
    skip = init_positional(
        normalized_operators(c3)[0], config(f_p=2, pe_init="LapPE", lappe_skip_first=True), dec
    )
    assert np.allclose(keep, dec.eigenvectors[:, :2])
    assert np.allclose(skip, dec.eigenvectors[:, 1:3])


def test_positional_width_cannot_exceed_node_count(k2):
    with pytest.raises(ConfigError):
        init_positional(normalized_operators(k2)[0], config(f_p=3))


# --- projection, IPE, gating -------------------------------------------------


def test_project_inputs_zero_parameters(p3):
    cfg = config(f_p=3)
    params = init_params(cfg, 3, 2, make_rng(0), num_nodes=3)
    params.w_in.data[...] = 0.0
    params.w_pos.data[...] = 0.0
    h0, p0 = project_inputs(p3.features, np.eye(3), params, cfg)
    assert np.all(h0.data == 0.0)
    assert np.all(p0.data == 0.0)


def test_project_inputs_codomains(p3):
    cfg = config(f_p=3)
    params = init_params(cfg, 3, 2, make_rng(1), num_nodes=3)
    h0, p0 = project_inputs(p3.features * 3, np.eye(3) * 3, params, cfg)
    assert h0.data.min() >= 0.0
    assert np.abs(p0.data).max() < 1.0


def test_ipe_step_eta1_one_ignores_graph(k2):
    a_hat, _ = normalized_operators(k2)
    anchor = Value(np.array([[0.2], [-0.4]]))
    p = Value(np.array([[5.0], [-5.0]]))
    out = ipe_step(p, anchor, a_hat, None, eta1=1.0, eta2=0.0)
    assert np.array_equal(out.data, np.tanh(anchor.data))


def test_ipe_step_k2_propagation(k2):
    a_hat, _ = normalized_operators(k2)
    p = Value(np.array([[1.0], [-1.0]]))
    anchor = Value(np.zeros((2, 1)))
    out = ipe_step(p, anchor, a_hat, None, eta1=0.0, eta2=0.0)
    assert np.allclose(out.data, [[np.tanh(-1.0)], [np.tanh(1.0)]])
    assert abs(out.data[0, 0] + 0.7615941559557649) < 1e-15


def test_ipe_step_edgeless_collapses_to_zero():
    g = toy_graph([], labels=[0, 1])
    a_hat, _ = normalized_operators(g)
    p = Value(np.array([[1.0], [2.0]]))
    out = ipe_step(p, Value(np.zeros((2, 1))), a_hat, None, eta1=0.0, eta2=0.0)
    assert np.all(out.data == 0.0)


def test_ipe_step_similarity_term_matches_definition(c3):
    a_hat, _ = normalized_operators(c3)
    rng = np.random.default_rng(0)
    p = rng.standard_normal((3, 2))
    w = rng.standard_normal((2, 2))
    anchor = rng.standard_normal((3, 2))
    eta1, eta2 = 0.25, 0.5
    out = ipe_step(Value(p), Value(anchor), a_hat, Value(w), eta1, eta2)
    sim = 1.0 / (1.0 + np.exp(-(p @ w @ p.T)))
    mix = (1 + eta2) * (a_hat.dense() @ p) - eta2 * (sim @ p)
    assert np.allclose(out.data, np.tanh(eta1 * anchor + (1 - eta1) * mix))


def test_node_theta_zero_parameters_hit_codomain_centers():
    p = Value(np.random.default_rng(0).standard_normal((4, 3)))
    w = Value(np.zeros((3, 1)))
    b = Value(np.zeros((1, 1)))
    assert np.all(node_theta([p], w, b, "Sigmoid").data == 0.5)
    assert np.all(node_theta([p], w, b, "Tanh").data == 0.0)


def test_node_theta_depends_only_on_position_row():
    p = Value(np.array([[1.0, 2.0], [0.5, -1.0], [1.0, 2.0]]))
    rng = np.random.default_rng(1)
    w = Value(rng.standard_normal((2, 1)))
    b = Value(rng.standard_normal((1, 1)))
    theta = node_theta([p], w, b, "Tanh").data
    assert theta[0, 0] == theta[2, 0]
    assert theta[0, 0] != theta[1, 0]


def test_lgwd_beta_zero_gamma_zeroes_order():
    cfg = config(K=2)
    params = init_params(cfg, 3, 2, make_rng(2), num_nodes=4)
    params.gamma.data[0, 1] = 0.0
    thetas = Value(np.full((4, 3), 0.7))
    betas = lgwd_beta(thetas, params, cfg).data
    assert np.all(betas[:, 1] == 0.0)


def test_lgwd_beta_bern_rectifies_negative_gamma():
    cfg = config(K=2, backbone="Bern")
    params = init_params(cfg, 3, 2, make_rng(3), num_nodes=4)
    params.gamma.data[0, 2] = -1.0
    thetas = Value(np.full((4, 3), 0.3))
    betas = lgwd_beta(thetas, params, cfg).data
    assert np.all(betas[:, 2] == 0.0)
    assert np.all(betas[:, 0] >= 0.0)


def test_lgwd_beta_jacobi_cumulative_products():
    cfg = config(K=3, backbone="Jacobi")
    params = init_params(cfg, 3, 2, make_rng(4), num_nodes=2)
    params.gamma.data[0] = (1.0, 2.0, 3.0, 4.0)
    rho = Value(np.tile([0.5, 0.25, 2.0], (2, 1)))
    betas = list(lgwd_beta(rho, params, cfg).data[0])
    assert betas == [1.0, 2.0 * 0.5, 3.0 * 0.5 * 0.25, 4.0 * 0.5 * 0.25 * 2.0]


# --- forward pass -------------------------------------------------------------


def test_forward_zero_gamma_gives_constant_head():
    g = two_block_graph(6, seed=0)
    cfg = config()
    a_hat, positional, params = build_model(g, cfg)
    params.gamma.data[...] = 0.0
    params.b_out.data[...] = np.array([[0.3, -0.2]])
    result = forward(a_hat, g.features, positional, params, cfg)
    assert np.allclose(result.logits.data, np.tile([[0.3, -0.2]], (12, 1)))


@pytest.mark.parametrize("backbone", ["GPR", "Bern", "Jacobi"])
def test_forward_homogeneous_matches_backbone_filter(backbone):
    g = two_block_graph(8, seed=1)
    cfg = config(K=4, backbone=backbone)
    a_hat, positional, params = build_model(g, cfg, seed=5)
    result = forward(a_hat, g.features, positional, params, cfg, homogeneous=True)

    gamma = params.gamma.data[0]
    if backbone == "Bern":
        gamma = np.maximum(gamma, 0.0)
    h0 = np.maximum(g.features @ params.w_in.data + params.b_in.data, 0.0)
    z = homogeneous_filter(gamma, cfg.basis(), a_hat, h0)
    logits = z @ params.w_out.data + params.b_out.data
    assert np.abs(result.logits.data - logits).max() < 1e-10

    assert np.abs(result.betas - gamma[None, :]).max() == 0.0


def test_forward_is_permutation_equivariant():
    g = two_block_graph(5, seed=2)
    cfg = config(K=3)
    a_hat, positional, params = build_model(g, cfg, seed=7)
    base = forward(a_hat, g.features, positional, params, cfg).logits.data

    perm = np.random.default_rng(0).permutation(g.num_nodes)
    edges = perm[g.edges]
    pg = toy_graph(
        [tuple(e) for e in edges],
        labels=list(g.labels[np.argsort(perm)]),
    )
    pa_hat, _ = normalized_operators(pg)
    inv = np.argsort(perm)
    permuted = forward(
        pa_hat, g.features[inv], positional[inv], params, cfg
    ).logits.data
    assert np.abs(permuted - base[inv]).max() < 1e-12


def test_forward_eta1_one_positions_ignore_edges():
    g = two_block_graph(5, seed=3)
    perturbed = two_block_graph(5, seed=4)  # same nodes, different wiring
    cfg = config(eta1=1.0)
    a_hat, positional, params = build_model(g, cfg, seed=9)
    b_hat, _, _ = build_model(perturbed, cfg, seed=9)
    p_orig = forward(a_hat, g.features, positional, params, cfg).positional
    p_pert = forward(b_hat, g.features, positional, params, cfg).positional
    assert np.array_equal(p_orig.data, p_pert.data)


def test_forward_bern_weights_are_nonnegative():
    g = two_block_graph(6, seed=5)
    cfg = config(K=5, backbone="Bern")
    a_hat, positional, params = build_model(g, cfg, seed=11)
    k = np.arange(params.gamma.shape[1])
    params.gamma.data[0] = (-1.0) ** k * (k + 0.5)  # force negatives
    result = forward(a_hat, g.features, positional, params, cfg)
    assert result.betas.min() >= 0.0


def test_forward_theta_ranges_respect_gate_codomain():
    g = two_block_graph(6, seed=6)
    for backbone, lo, hi in (("GPR", -1.0, 1.0), ("Bern", 0.0, 1.0)):
        cfg = config(K=3, backbone=backbone)
        a_hat, positional, params = build_model(g, cfg, seed=13)
        result = forward(a_hat, g.features, positional, params, cfg)
        gamma = params.gamma.data[0]
        if backbone == "Bern":
            gamma = np.maximum(gamma, 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            theta = result.betas / gamma[None, :]
        theta = theta[:, gamma != 0.0]
        assert theta.min() > lo and theta.max() < hi


def test_forward_equal_positional_rows_share_weights():
    g = toy_graph([(0, 1)], labels=[0, 1], features=np.ones((2, 3)))
    for backbone in ("GPR", "Bern", "Jacobi"):
        cfg = config(K=3, f_p=2, backbone=backbone)
        params = init_params(cfg, 3, 2, make_rng(17), num_nodes=2)
        a_hat, _ = normalized_operators(g)
        x_p = np.tile([[0.4, -0.2]], (2, 1))  # identical positional rows
        result = forward(a_hat, g.features, x_p, params, cfg)
        assert np.array_equal(result.betas[0], result.betas[1])


def tape_shapes(value: Value) -> set[tuple[int, int]]:
    seen: set[int] = set()
    shapes: set[tuple[int, int]] = set()
    stack = [value]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        shapes.add(node.data.shape)
        stack.extend(node._parents)
    return shapes


def test_mode_r_never_materializes_pairwise_similarity():
    g = two_block_graph(7, seed=7)  # 14 nodes; all other dims are < 10
    n = g.num_nodes
    cfg_r = config(mode="R", lambda_orth=0.1)
    a_hat, positional, params = build_model(g, cfg_r, seed=19)
    result = forward(a_hat, g.features, positional, params, cfg_r)
    targets = one_hot(g.labels, g.num_classes)
    loss = total_loss(result, targets, np.ones(n, dtype=bool), cfg_r)
    assert (n, n) not in tape_shapes(loss)

    cfg_i = config(mode="I", eta2=0.4)
    a_hat, positional, params = build_model(g, cfg_i, seed=19)
    result = forward(a_hat, g.features, positional, params, cfg_i)
    loss = total_loss(result, targets, np.ones(n, dtype=bool), cfg_i)
    assert (n, n) in tape_shapes(loss)


def test_forward_ablation_reads_free_weight_table():
    g = two_block_graph(6, seed=8)
    cfg = config(ablate_ipe=True)
    a_hat, positional, params = build_model(g, cfg, seed=23)
    assert positional is None
    rng = np.random.default_rng(3)
    params.gamma.data[...] = rng.standard_normal(params.gamma.data.shape)
    result = forward(a_hat, g.features, None, params, cfg)
    assert np.array_equal(result.betas, params.gamma.data)
    assert result.positional is None


@pytest.mark.parametrize(
    "overrides, homogeneous, count",
    [
        ({"mode": "R", "lambda_orth": 0.05}, False, 9),
        ({"eta2": 0.4}, False, 10),
        ({}, False, 9),
        ({"mode": "R", "backbone": "Bern"}, False, 9),
        ({"mode": "R", "backbone": "Jacobi"}, False, 9),
        ({"backbone": "Jacobi", "eta2": 0.4}, False, 10),
        ({"ablate_ipe": True}, False, 5),
        ({"mode": "R", "lambda_orth": 0.05}, True, 5),
        ({"mode": "R", "backbone": "Bern"}, True, 5),
        ({"backbone": "Jacobi", "eta2": 0.4}, True, 5),
    ],
    ids=[
        "gpr-r", "gpr-i", "gpr-i-eta2-0", "bern-r", "jacobi-r", "jacobi-i", "no-ipe",
        "baseline-gpr-r", "baseline-bern-r", "baseline-jacobi-i",
    ],
)
def test_every_parameter_receives_a_gradient(overrides, homogeneous, count):
    g = two_block_graph(6, seed=14)
    cfg = config(dropout_p=0.3, **overrides)
    a_hat, positional, params = build_model(g, cfg, seed=31, homogeneous=homogeneous)
    result = forward(
        a_hat, g.features, positional, params, cfg,
        train=True, rng=make_rng(1), homogeneous=homogeneous,
    )
    targets = one_hot(g.labels, g.num_classes)
    ad.backward(total_loss(result, targets, np.ones(g.num_nodes, dtype=bool), cfg))
    assert [name for name, value in params.as_dict().items() if value.grad is None] == []
    assert len(params.as_dict()) == count


# --- regularizer and loss -----------------------------------------------------


def test_orth_penalty_zero_for_orthonormal_columns():
    p = Value(0.5 * np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]]))
    assert abs(orth_penalty(p).data[0, 0]) < 1e-12


def test_orth_penalty_identity_example():
    assert abs(orth_penalty(Value(np.eye(2))).data[0, 0] - 2.0) < 1e-12


def test_orth_penalty_duplicate_columns():
    base = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    doubled = np.concatenate([base[:, :1], base[:, :1], base[:, 1:], base[:, 1:]], axis=1)
    assert abs(orth_penalty(Value(doubled)).data[0, 0] - 4.0) < 1e-12


def test_orth_penalty_counts_a_flat_column_as_one():
    p = np.ones((4, 2))
    p[:, 1] = np.arange(4)
    assert abs(orth_penalty(Value(p)).data[0, 0] - 1.0) < 1e-12

    # All flat: the penalty is exactly d and sends exactly no gradient.
    flat = Value(np.tile(np.random.default_rng(3).standard_normal(8), (30, 1)), requires_grad=True)
    penalty = orth_penalty(flat)
    assert penalty.data[0, 0] == 8.0
    ad.backward(penalty)
    assert np.array_equal(flat.grad, np.zeros((30, 8)))


def test_total_loss_uniform_logits_closed_form():
    cfg = config()
    logits = Value(np.zeros((10, 5)))
    from diverspec.model import ForwardResult

    result = ForwardResult(logits=logits, positional=None, betas=np.zeros((10, 4)))
    targets = np.eye(5)[np.random.default_rng(0).integers(0, 5, 10)]
    loss = total_loss(result, targets, np.ones(10, dtype=bool), cfg)
    assert abs(loss.data[0, 0] - np.log(5.0)) < 1e-12


def test_total_loss_mode_r_with_zero_weight_equals_task_loss():
    g = two_block_graph(6, seed=10)
    cfg_r = config(mode="R", lambda_orth=0.0)
    a_hat, positional, params = build_model(g, cfg_r, seed=29)
    result = forward(a_hat, g.features, positional, params, cfg_r)
    targets = one_hot(g.labels, g.num_classes)
    mask = np.ones(g.num_nodes, dtype=bool)
    cfg_i = config(mode="I")
    assert (
        total_loss(result, targets, mask, cfg_r).data[0, 0]
        == total_loss(result, targets, mask, cfg_i).data[0, 0]
    )


def test_total_loss_requires_nonempty_mask():
    cfg = config()
    from diverspec.model import ForwardResult

    result = ForwardResult(logits=Value(np.zeros((3, 2))), positional=None, betas=np.zeros((3, 4)))
    with pytest.raises(DataError):
        total_loss(result, np.eye(2)[[0, 1, 0]], np.zeros(3, dtype=bool), cfg)


# --- end-to-end gradient fidelity ---------------------------------------------


def model_gradcheck(cfg: DsfConfig, seed: int = 0, h: float = 1e-5) -> float:
    """Max elementwise relative error between autodiff and central differences."""
    g = two_block_graph(5, num_features=4, seed=seed)
    a_hat, positional, params = build_model(g, cfg, seed=seed)
    targets = one_hot(g.labels, g.num_classes)
    mask = np.zeros(g.num_nodes, dtype=bool)
    mask[::2] = True

    def loss_value() -> float:
        result = forward(a_hat, g.features, positional, params, cfg)
        return total_loss(result, targets, mask, cfg).data[0, 0]

    result = forward(a_hat, g.features, positional, params, cfg)
    loss = total_loss(result, targets, mask, cfg)
    ad.zero_grad(params.as_dict())
    ad.backward(loss)

    worst = 0.0
    for name, value in params.as_dict().items():
        if not value.requires_grad:
            continue
        grad = value.grad if value.grad is not None else np.zeros_like(value.data)
        for flat in range(value.data.size):
            original = value.data.flat[flat]
            value.data.flat[flat] = original + h
            plus = loss_value()
            value.data.flat[flat] = original - h
            minus = loss_value()
            value.data.flat[flat] = original
            numeric = (plus - minus) / (2 * h)
            denom = max(abs(numeric), 1e-7)
            worst = max(worst, abs(grad.flat[flat] - numeric) / denom)
    return worst


def test_gradients_match_finite_differences_across_variants():
    variants = [
        config(mode="R", lambda_orth=0.05),
        config(mode="I", eta2=0.4),
        config(backbone="Bern"),
        config(backbone="Jacobi"),
        config(backbone="Jacobi", jacobi_a=1.5, jacobi_b=-0.5),
        config(ablate_ipe=True),
    ]
    for cfg in variants:
        label = f"{cfg.backbone}-{cfg.mode}{'-ablate' if cfg.ablate_ipe else ''}"
        assert model_gradcheck(cfg) < 1e-4, label
