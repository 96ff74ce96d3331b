"""Node-classification model with node-wise diverse spectral filters.

A shared polynomial backbone (monomial, Bernstein, or Jacobi basis) is
modulated per node: a positional embedding, iteratively refined over the
graph, feeds tiny per-order heads whose outputs gate the shared filter
coefficients. Every node therefore runs its own spectral filter while
parameter count stays within a constant factor of the shared backbone. As in
GPR-GNN and BernNet, the filter propagates after the last linear layer, on
the (N, C) class scores.

Two variants are exposed: mode "I" couples position refinement to a learned
node-similarity correction; mode "R" drops that correction (eta2 is pinned
to zero, so neither the similarity term nor its weight exists) and instead
regularizes positional columns toward orthogonality.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, fields

import numpy as np

from . import autodiff as ad
from .autodiff import Value
from .domains import check_domains
from .errors import ConfigError, UsageError
from .graph import _RWPE_BLOCK, SparseOperator, identity_blocks, usable_cpus
from .polynomials import Bernstein, BasisKind, Jacobi, Monomial
from .spectral import SpectralDecomposition


@dataclass(frozen=True)
class DsfConfig:
    """Model hyperparameters.

    ``sigma_p`` may be left ``None`` to pick the backbone default (Sigmoid
    for Bern, which needs nonnegative gates; Tanh otherwise). Mode "R"
    requires ``eta2 == 0``; the Bern backbone requires Sigmoid gates.
    """

    K: int = 10
    d: int = 64
    f_p: int = 16
    eta1: float = 0.1
    eta2: float = 0.0
    lambda_orth: float = 0.0
    mode: str = "R"
    backbone: str = "GPR"
    pe_init: str = "RWPE"
    dropout_p: float = 0.5
    sigma_p: str | None = None
    gamma_init: str = "ppr"
    ppr_alpha: float = 0.1
    jacobi_a: float = 1.0
    jacobi_b: float = 1.0
    lappe_skip_first: bool = False
    ablate_ipe: bool = False

    def __post_init__(self) -> None:
        if self.sigma_p is None:
            object.__setattr__(self, "sigma_p", "Sigmoid" if self.backbone == "Bern" else "Tanh")
        check_domains(vars(self))
        if self.mode == "R" and self.eta2 != 0.0:
            raise ConfigError(f"mode R pins eta2 to 0, got eta2={self.eta2}")
        if self.backbone == "Bern" and self.sigma_p != "Sigmoid":
            raise ConfigError("the Bern backbone requires Sigmoid gates (nonnegative filters)")
        Jacobi(self.jacobi_a, self.jacobi_b)  # the parameters' one check, on every backbone

    def basis(self) -> BasisKind:
        if self.backbone == "GPR":
            return Monomial()
        if self.backbone == "Bern":
            return Bernstein(self.K)
        return Jacobi(self.jacobi_a, self.jacobi_b)


@dataclass
class DsfParams:
    """All trainable parameters as named autodiff leaves, one tensor per group.

    ``gamma`` is (1, K+1), or (N, K+1) in the no-refinement ablation; the
    baseline and the ablation hold only it and the input/output layers. Gated
    DSF adds ``w_pos``/``b_pos``, ``gate_w`` (d, G) and ``gate_b`` (1, G), one
    gate head per gated order: G = K + 1, or K for Jacobi, whose order 0 has
    no gate. ``w_ipe`` exists only when ``eta2 != 0``.
    """

    w_in: Value
    b_in: Value
    w_out: Value
    b_out: Value
    gamma: Value
    w_pos: Value | None = None
    b_pos: Value | None = None
    w_ipe: Value | None = None
    gate_w: Value | None = None
    gate_b: Value | None = None

    def as_dict(self) -> dict[str, Value]:
        values = ((f.name, getattr(self, f.name)) for f in fields(self))
        return {name: value for name, value in values if value is not None}

    def snapshot(self) -> dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self.as_dict().items()}


def shared_coefficients(config: DsfConfig, rng: np.random.Generator | None = None) -> np.ndarray:
    """Initial values of the shared per-order coefficients gamma.

    GPR follows its published schemes: personalized-PageRank decay
    ``alpha * (1 - alpha)^k`` (tail mass absorbed into the last order),
    uniform ``1 / (K + 1)``, or seeded uniform noise in (-0.5, 0.5). Bern
    starts flat at 0.5 (rectified in the forward pass) and Jacobi at 1.
    """
    count = config.K + 1
    if config.backbone == "Bern":
        return np.full(count, 0.5)
    if config.backbone == "Jacobi":
        return np.ones(count)
    if config.gamma_init == "ppr":
        alpha = config.ppr_alpha
        gamma = alpha * (1.0 - alpha) ** np.arange(count)
        gamma[-1] = (1.0 - alpha) ** config.K
        return gamma
    if config.gamma_init == "uniform":
        return np.full(count, 1.0 / count)
    if rng is None:
        raise UsageError("gamma_init='random' needs a generator")
    return rng.uniform(-0.5, 0.5, size=count)


def direct_table(config: DsfConfig, homogeneous: bool) -> bool:
    """Whether the weight table is ``gamma`` itself: the baseline or the ablation, not both."""
    if homogeneous and config.ablate_ipe:
        raise ConfigError("the baseline and the no-refinement ablation exclude each other")
    return homogeneous or config.ablate_ipe


def init_params(
    config: DsfConfig,
    num_features: int,
    num_classes: int,
    rng: np.random.Generator,
    num_nodes: int | None = None,
    homogeneous: bool = False,
) -> DsfParams:
    """Glorot-uniform weights, zero biases, backbone-specific gammas.

    The baseline (``homogeneous``) and the ablation get no positional or gate
    tensors; ``num_nodes`` is only needed for the ablation's (N, K+1) ``gamma``.
    """

    def mat(rows: int, cols: int) -> Value:
        return Value(ad.glorot_uniform(rows, cols, rng), requires_grad=True)

    def zeros(rows: int, cols: int) -> Value:
        return Value(np.zeros((rows, cols)), requires_grad=True)

    if config.ablate_ipe and num_nodes is None:
        raise UsageError("the no-refinement ablation needs num_nodes for its weight table")
    rows = num_nodes if config.ablate_ipe else 1
    params = DsfParams(
        w_in=mat(num_features, config.d),
        b_in=zeros(1, config.d),
        w_out=mat(config.d, num_classes),
        b_out=zeros(1, num_classes),
        gamma=Value(np.tile(shared_coefficients(config, rng), (rows, 1)), requires_grad=True),
    )
    if direct_table(config, homogeneous):
        return params

    params.w_pos = mat(config.f_p, config.d)
    params.b_pos = zeros(1, config.d)
    if config.eta2 != 0.0:
        params.w_ipe = mat(config.d, config.d)
    gates = config.K if config.backbone == "Jacobi" else config.K + 1
    # Row k of a (G, d) draw is gate k's (d, 1) Glorot column, drawn in order.
    gate_w = ad.glorot_uniform(gates, config.d, rng, fan_in=config.d, fan_out=1).T
    params.gate_w = Value(gate_w, requires_grad=True)
    params.gate_b = zeros(1, gates)
    return params


def init_positional(
    a_hat: SparseOperator,
    config: DsfConfig,
    decomposition: SpectralDecomposition | None = None,
) -> np.ndarray:
    """Raw (N, f_p) positional features before the latent projection.

    ``a_hat`` is the symmetric normalized adjacency from
    :func:`~diverspec.graph.normalized_operators`. LapPE stacks the first
    ``f_p`` sign-fixed Laplacian eigenvectors (optionally skipping the
    constant one); RWPE stacks return probabilities diag((A D^{-1})^m) for
    m = 1..f_p. A similarity transform keeps the diagonal, so these equal
    diag(Â^m), and isolated nodes (zero rows of Â) get exact zero rows.
    With Q_j = Â^j E for a block E of identity columns,
    diag(Â^m) = colsum(Q_floor(m/2) * Q_ceil(m/2)): each block costs
    ceil(f_p / 2) sparse-times-dense products and holds two (N, block)
    arrays, so memory is O(N * block) rather than the N^2 fill-in of
    explicit matrix powers.

    The blocks are ``_RWPE_BLOCK`` columns wide. This thread and up to
    ``usable_cpus() - 1`` helper threads each claim one block at a time and
    write only its rows, and the sparse products and column sums run outside
    the GIL. Each thread holds O(N * _RWPE_BLOCK) floats. A lone last column
    joins the block before it, since numpy sums a single column in another
    order than a wider block's; so every entry is the row-order sum of its
    column, and the bytes do not depend on the thread count or block width.
    Every helper has joined when this returns or raises, and the first
    error of any thread is raised here.
    """
    n = a_hat.shape[0]
    if config.f_p > n:
        raise ConfigError(
            f"positional width f_p={config.f_p} exceeds the node count {n}"
        )
    if config.pe_init == "LapPE":
        if decomposition is None:
            raise UsageError("LapPE needs the Laplacian eigendecomposition")
        start = 1 if config.lappe_skip_first else 0
        if start + config.f_p > n:
            raise ConfigError(
                f"LapPE needs {start + config.f_p} eigenvectors but the graph has {n} nodes"
            )
        return decomposition.eigenvectors[:, start : start + config.f_p].copy()

    positional = np.empty((n, config.f_p))
    blocks = identity_blocks(n, width=_RWPE_BLOCK, join_lone=True)
    lock = threading.Lock()
    failures: list[BaseException] = []

    def claim() -> tuple[slice, np.ndarray] | None:
        with lock:
            return None if failures else next(blocks, None)

    def sweep() -> None:
        try:
            for nodes, low in iter(claim, None):
                high = a_hat.dot(low)  # Q_0 = E and Q_1
                for m in range(1, config.f_p + 1):
                    if m % 2 == 0:
                        low = high  # Q_{m/2} twice
                    elif m > 1:
                        high = a_hat.dot(low)  # Q_{(m-1)/2} and Q_{(m+1)/2}
                    positional[nodes, m - 1] = np.einsum("ij,ij->j", low, high)
        except BaseException as exc:  # raised below; an interrupt stops the helpers too
            with lock:
                failures.append(exc)

    helpers = []
    try:
        for _ in range(min(-(-n // _RWPE_BLOCK), usable_cpus()) - 1):
            helper = threading.Thread(target=sweep, name="rwpe")
            helper.start()
            helpers.append(helper)
        sweep()
    finally:
        for helper in helpers:
            helper.join()
    if failures:
        raise failures[0]
    return positional


def project_inputs(
    features: np.ndarray | SparseOperator,
    positional: np.ndarray | None,
    params: DsfParams,
    config: DsfConfig,
    train: bool = False,
    rng: np.random.Generator | None = None,
) -> tuple[Value, Value | None]:
    """Latent feature and positional embeddings (both dropped out at train).

    Returns ``(h0, p0)``: ReLU-projected features and Tanh-projected
    positions. ``features`` is the dense (N, F) array or, for sparse input,
    its CSR operator from :func:`~diverspec.training.graph_inputs`; the
    projection X W then runs through CSR, and so does its gradient Xᵀ G.
    ``p0`` is ``None`` when ``positional`` is: the baseline and the ablation
    have no positional pipeline.
    """
    if isinstance(features, SparseOperator):
        projected = ad.sparse_dense_matmul(features, params.w_in)
    else:
        projected = ad.matmul(Value(features), params.w_in)
    h0 = ad.relu(ad.add(projected, params.b_in))
    h0 = ad.dropout(h0, config.dropout_p, train, rng)
    if positional is None:
        return h0, None
    p0 = ad.tanh(ad.add(ad.matmul(Value(positional), params.w_pos), params.b_pos))
    p0 = ad.dropout(p0, config.dropout_p, train, rng)
    return h0, p0


def ipe_step(
    p_prev: Value,
    anchor: Value,
    a_hat: SparseOperator,
    w_ipe: Value | None,
    eta1: float,
    eta2: float,
) -> Value:
    """One iterative position-refinement step.

    Blends the anchor embedding with a propagated one:
    ``tanh(eta1 * anchor + (1 - eta1) * ((1 + eta2) A_hat - eta2 * sim) p)``
    where ``sim = sigmoid(P W P^T)``. With ``eta2 = 0`` the similarity
    correction is skipped entirely - no N x N product is ever formed. The
    forward runs all K steps as one
    :func:`~diverspec.autodiff.position_refinement` op; this per-step tape
    is its reference.
    """
    propagated = ad.sparse_dense_matmul(a_hat, p_prev)
    if eta2 != 0.0:
        if w_ipe is None:
            raise UsageError("eta2 != 0 needs the similarity mixing weight")
        sim = ad.sigmoid(ad.matmul(ad.matmul(p_prev, w_ipe), ad.transpose(p_prev)))
        propagated = ad.sub(
            ad.scalar_mul(propagated, 1.0 + eta2),
            ad.scalar_mul(ad.matmul(sim, p_prev), eta2),
        )
    return ad.tanh(
        ad.add(ad.scalar_mul(anchor, eta1), ad.scalar_mul(propagated, 1.0 - eta1))
    )


def node_theta(pre: Value, gate_b: Value, sigma_p: str) -> Value:
    """The (N, G) gate table sigma_p(pre + b) from the gate pre-activations.

    Column k of ``pre`` is P^(first+k) w_k, as
    :func:`~diverspec.autodiff.position_refinement` reads it out of the IPE
    states; Jacobi has ``first = 1``, since its order 0 has no gate.
    """
    pre = ad.add(pre, gate_b)
    return ad.sigmoid(pre) if sigma_p == "Sigmoid" else ad.tanh(pre)


def lgwd_beta(thetas: Value, params: DsfParams, config: DsfConfig) -> Value:
    """The (N, K+1) node-wise filter weights from gates and shared coefficients.

    ``thetas`` is the (N, G) gate table of :func:`node_theta` and ``gamma``
    the shared (1, K+1) row. GPR: beta_k = gamma_k * theta_k. Bern: the same
    with gamma rectified, so Sigmoid gates keep every weight
    nonnegative. Jacobi: beta follows the coefficient-decomposition
    discipline beta_k = gamma_k * prod_{s<=k} rho_s with rho the K gates of
    orders 1..k (order 0 is the bare gamma_0).
    """
    gamma = ad.relu(params.gamma) if config.backbone == "Bern" else params.gamma
    if config.backbone == "Jacobi":
        thetas = ad.prefix_product(thetas)
    return ad.hadamard(gamma, thetas)


@dataclass
class ForwardResult:
    """Outputs of one forward pass.

    ``betas`` is the realized (N, K+1) per-node weight table (plain array,
    for export/analysis); ``positional`` is the final refined embedding
    (``None`` in the baseline and the ablation).
    """

    logits: Value
    positional: Value | None
    betas: np.ndarray


def forward(
    a_hat: SparseOperator,
    features: np.ndarray,
    positional: np.ndarray | None,
    params: DsfParams,
    config: DsfConfig,
    train: bool = False,
    rng: np.random.Generator | None = None,
    homogeneous: bool = False,
) -> ForwardResult:
    """Full model pass: project, refine positions, gate, classify, filter.

    The logits are ``sum_k diag(beta_k) P_k(L_hat) (h0 W_out) + b_out``: the
    node-wise filter runs on the (N, C) class scores, not the (N, d) hidden
    layer, which is the same function in d / C times fewer filter flops.
    ``features`` is the dense array or the CSR operator of
    :func:`project_inputs`.

    The K refinement steps, in either mode, and the gates' matrix-vector
    products are one :func:`~diverspec.autodiff.position_refinement` op. Its
    value holds the (N, G) gate pre-activations next to the final state, and
    two column slices split it: :func:`node_theta` activates the first, and
    the second is the final state. The tape keeps the K+1 states for tanh′
    but never a gradient of all of them.

    The shared-coefficient baseline (``homogeneous=True``) and the ablation
    (``ablate_ipe``) filter with ``gamma`` itself (rectified for Bern) and
    ignore positions, gates and any other tensors in ``params``.
    """
    direct = direct_table(config, homogeneous)
    h0, p0 = project_inputs(features, None if direct else positional, params, config, train, rng)

    if direct:
        table = ad.relu(params.gamma) if config.backbone == "Bern" else params.gamma
        p_final = None
    else:
        first = 1 if config.backbone == "Jacobi" else 0
        refined = ad.position_refinement(
            p0, a_hat, config.eta1, config.K, params.gate_w, first, params.w_ipe, config.eta2
        )
        gates = params.gate_w.shape[1]
        thetas = node_theta(ad.column_slice(refined, 0, gates), params.gate_b, config.sigma_p)
        table = lgwd_beta(thetas, params, config)
        p_final = ad.column_slice(refined, gates, refined.shape[1])

    z = ad.polynomial_filter(table, ad.matmul(h0, params.w_out), config.basis(), a_hat)
    logits = ad.add(z, params.b_out)
    betas = np.broadcast_to(table.data, (features.shape[0], table.shape[1])).copy()
    return ForwardResult(logits=logits, positional=p_final, betas=betas)


def orth_penalty(positional: Value) -> Value:
    """Orthogonality pressure on positional columns.

    Columns are centered and normalized, then the Gram matrix is compared to
    the identity under the squared Frobenius norm: zero exactly when the
    normalized columns are orthonormal. A flat column normalizes to zeros,
    so it adds exactly 1 (its diagonal miss) and sends no gradient.
    """
    normalized = ad.column_normalize(positional)
    gram = ad.matmul(ad.transpose(normalized), normalized)
    eye = Value(np.eye(positional.shape[1]))
    return ad.frobenius_sq(ad.sub(gram, eye))


def total_loss(
    result: ForwardResult,
    targets: np.ndarray,
    mask: np.ndarray,
    config: DsfConfig,
) -> Value:
    """Masked cross-entropy, plus the orthogonality penalty in mode R."""
    loss = ad.softmax_cross_entropy(result.logits, targets, mask)
    if config.mode == "R" and config.lambda_orth > 0.0 and result.positional is not None:
        loss = ad.add(loss, ad.scalar_mul(orth_penalty(result.positional), config.lambda_orth))
    return loss


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    out = np.zeros((labels.shape[0], num_classes))
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out


def accuracy(logits: np.ndarray, labels: np.ndarray, mask: np.ndarray) -> float:
    """Fraction of masked nodes whose argmax logit matches the label."""
    mask = np.asarray(mask, dtype=bool)
    if not mask.any():
        raise UsageError("accuracy mask selects no rows")
    predictions = np.argmax(logits, axis=1)
    return float(np.mean(predictions[mask] == labels[mask]))
