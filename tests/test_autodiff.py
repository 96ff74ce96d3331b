"""Reverse-mode engine: op gradients, backward bookkeeping, and Adam."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from scipy import sparse

from diverspec import (
    Bernstein,
    DsfConfig,
    Jacobi,
    Monomial,
    forward,
    graph_inputs,
    init_params,
    normalized_operators,
    total_loss,
    two_block_graph,
)
from diverspec import autodiff as ad
from diverspec.errors import UsageError
from diverspec.graph import SparseOperator
from diverspec.model import one_hot
from tests.conftest import connected_random_graph, toy_graph


def numeric_grad(build, arrays, index, h=1e-5):
    """Central finite differences of build(...) w.r.t. arrays[index]."""
    out = np.zeros_like(arrays[index])
    for flat in range(arrays[index].size):
        bumped = [a.copy() for a in arrays]
        bumped[index].flat[flat] += h
        plus = build(*[ad.Value(a) for a in bumped]).data[0, 0]
        bumped[index].flat[flat] -= 2 * h
        minus = build(*[ad.Value(a) for a in bumped]).data[0, 0]
        out.flat[flat] = (plus - minus) / (2 * h)
    return out


def check_gradients(build, *arrays, rel_tol=1e-6):
    leaves = [ad.Value(a.copy(), requires_grad=True) for a in arrays]
    loss = build(*leaves)
    assert loss.data.shape == (1, 1)
    ad.backward(loss)
    for i, leaf in enumerate(leaves):
        expected = numeric_grad(build, list(arrays), i)
        scale = np.maximum(np.abs(expected), 1e-7)
        assert np.abs(leaf.grad - expected).max() / scale.max() < rel_tol, (
            f"leaf {i}: analytic {leaf.grad} vs numeric {expected}"
        )


def rng_arrays(*shapes, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal(s) for s in shapes]


def test_add_sub_scalar_mul_gradients():
    a, b = rng_arrays((3, 2), (3, 2))
    check_gradients(
        lambda x, y: ad.frobenius_sq(ad.add(ad.scalar_mul(x, 2.5), ad.sub(y, x))), a, b
    )


def test_hadamard_gradients_with_broadcast():
    a, b, col, s = rng_arrays((4, 3), (4, 3), (4, 1), (1, 1))
    check_gradients(lambda x, y: ad.frobenius_sq(ad.hadamard(x, y)), a, b)
    check_gradients(lambda x, c: ad.frobenius_sq(ad.hadamard(x, c)), a, col)
    check_gradients(lambda x, c: ad.frobenius_sq(ad.hadamard(x, c)), a, s)


def test_hadamard_rejects_incompatible_shapes():
    with pytest.raises(UsageError):
        ad.hadamard(ad.Value(np.ones((2, 3))), ad.Value(np.ones((3, 2))))


def test_matmul_gradients():
    a, b = rng_arrays((3, 4), (4, 2))
    check_gradients(lambda x, y: ad.frobenius_sq(ad.matmul(x, y)), a, b)


def test_matmul_sum_gradient_is_outer_ones():
    a, b = rng_arrays((3, 4), (4, 2), seed=3)
    va, vb = ad.Value(a, requires_grad=True), ad.Value(b, requires_grad=True)
    ones_row = ad.Value(np.ones((1, 3)))
    ones_col = ad.Value(np.ones((2, 1)))
    total = ad.matmul(ad.matmul(ones_row, ad.matmul(va, vb)), ones_col)
    ad.backward(total)
    assert np.allclose(va.grad, np.ones((3, 1)) @ np.ones((1, 2)) @ b.T)
    assert np.allclose(vb.grad, a.T @ np.ones((3, 2)))


def test_sparse_dense_matmul_gradients():
    mat = sparse.csr_array(np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 2.0], [0.0, 2.0, 0.0]]))
    op = SparseOperator(mat)
    (x,) = rng_arrays((3, 2))
    check_gradients(lambda v: ad.frobenius_sq(ad.sparse_dense_matmul(op, v)), x)


@pytest.mark.parametrize(
    "kind", [Monomial(), Bernstein(4), Jacobi(1.5, -0.5)], ids=["gpr", "bern", "jacobi"]
)
def test_polynomial_filter_gradients(kind):
    op, _ = normalized_operators(connected_random_graph(6, 0.3, seed=2))
    table, x, weight = rng_arrays((6, 5), (6, 3), (6, 3), seed=1)
    for rows in (table, table[:1]):  # per-node table, then one row shared by every node
        check_gradients(
            lambda t, v: ad.frobenius_sq(
                ad.hadamard(ad.polynomial_filter(t, v, kind, op), ad.Value(weight))
            ),
            rows,
            x,
        )
    shared = ad.polynomial_filter(ad.Value(table[:1]), ad.Value(x), kind, op).data
    tiled = ad.polynomial_filter(ad.Value(np.tile(table[:1], (6, 1))), ad.Value(x), kind, op).data
    assert np.array_equal(shared, tiled)


def test_polynomial_filter_rejects_row_mismatch():
    op = SparseOperator(sparse.csr_array(np.eye(3)))
    with pytest.raises(UsageError):
        ad.polynomial_filter(ad.Value(np.ones((2, 3))), ad.Value(np.ones((3, 1))), Monomial(), op)


def test_column_dots_values_and_gradients():
    s0, s1, s2, w = rng_arrays((4, 3), (4, 3), (4, 3), (3, 3), seed=5)
    out = ad.column_dots(ad.Value(np.vstack([s0, s1, s2])), ad.Value(w))
    expected = np.stack([s0 @ w[:, 0], s1 @ w[:, 1], s2 @ w[:, 2]], axis=1)
    assert np.abs(out.data - expected).max() < 1e-12
    weight = ad.Value(rng_arrays((4, 3), seed=6)[0])
    check_gradients(
        lambda s, v: ad.frobenius_sq(ad.hadamard(ad.column_dots(s, v), weight)),
        np.vstack([s0, s1, s2]), w,
    )
    with pytest.raises(UsageError):
        ad.column_dots(ad.Value(np.vstack([s0, s1])), ad.Value(w))
    with pytest.raises(UsageError):
        ad.column_dots(ad.Value(np.vstack([s0, s1, s2[:3]])), ad.Value(w))


def _isolated_node_operator() -> SparseOperator:
    # Node 5 has no edge, so its row and column of A_hat are zero.
    edges = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (3, 4)]
    a_hat, _ = normalized_operators(toy_graph(edges, [0, 1, 0, 1, 0, 1]))
    assert a_hat.matrix[[5], :].nnz == 0
    return a_hat


@pytest.mark.parametrize("K", [1, 3])
@pytest.mark.parametrize("eta1", [0.0, 0.3, 1.0])
def test_position_refinement_gradients(K, eta1):
    op = _isolated_node_operator()
    p0, weight = rng_arrays((6, 2), ((K + 1) * 6, 2), seed=K)
    check_gradients(
        lambda p: ad.frobenius_sq(
            ad.hadamard(ad.position_refinement(p, op, eta1, K), ad.Value(weight))
        ),
        p0,
    )


def test_position_refinement_states_follow_the_recurrence():
    op = _isolated_node_operator()
    (p0,) = rng_arrays((6, 3), seed=4)
    states = ad.position_refinement(ad.Value(p0), op, 0.3, 2).data.reshape(3, 6, 3)
    assert np.array_equal(states[0], p0)
    for k in (1, 2):
        assert np.allclose(states[k], np.tanh(0.3 * p0 + 0.7 * (op.dense() @ states[k - 1])))
    assert np.array_equal(states[1:, 5], np.tanh(0.3 * p0[[5, 5]]))  # no neighbours


def test_position_refinement_rejects_an_operator_not_flagged_symmetric():
    op = _isolated_node_operator()
    flagged = SparseOperator(op.matrix, symmetric=False)
    p0 = ad.Value(np.ones((6, 2)), requires_grad=True)
    with pytest.raises(UsageError, match="symmetric"):
        ad.position_refinement(p0, flagged, 0.3, 2)
    with pytest.raises(UsageError):
        ad.position_refinement(ad.Value(np.ones((5, 2))), op, 0.3, 2)


def test_stack_rows_and_row_block_route_gradients_by_block():
    a, b, weight = rng_arrays((2, 3), (4, 3), (3, 3), seed=8)
    check_gradients(
        lambda x, y: ad.frobenius_sq(
            ad.hadamard(ad.row_block(ad.stack_rows([x, y]), 1, 4), ad.Value(weight))
        ),
        a, b,
    )
    stacked = ad.Value(np.vstack([a, b]), requires_grad=True)
    top, tail = ad.row_block(stacked, 0, 2), ad.row_block(stacked, 5, 6)
    ad.backward(ad.add(ad.frobenius_sq(top), ad.frobenius_sq(tail)))
    expected = np.zeros((6, 3))
    expected[:2], expected[5:] = 2 * a, 2 * b[3:]
    assert np.array_equal(stacked.grad, expected)
    for start, stop in ((0, 0), (-1, 2), (4, 7)):
        with pytest.raises(UsageError):
            ad.row_block(stacked, start, stop)
    with pytest.raises(UsageError):
        ad.stack_rows([ad.Value(a), ad.Value(np.ones((2, 2)))])


def test_column_dots_skips_the_blocks_before_first():
    s0, s1, s2, w = rng_arrays((4, 3), (4, 3), (4, 3), (3, 2), seed=9)
    out = ad.column_dots(ad.Value(np.vstack([s0, s1, s2])), ad.Value(w), first=1)
    assert np.array_equal(out.data, np.stack([s1 @ w[:, 0], s2 @ w[:, 1]], axis=1))
    weight = ad.Value(rng_arrays((4, 2), seed=10)[0])
    check_gradients(
        lambda s, v: ad.frobenius_sq(ad.hadamard(ad.column_dots(s, v, first=1), weight)),
        np.vstack([s0, s1, s2]), w,
    )
    # The table does not depend on the memory layout of w.
    fortran = ad.column_dots(ad.Value(np.vstack([s0, s1, s2])), ad.Value(np.asfortranarray(w)), 1)
    assert np.array_equal(fortran.data, out.data)


def test_prefix_product_values_and_gradients_through_an_exact_zero():
    (x,) = rng_arrays((3, 4), seed=7)
    x[1, 2] = 0.0  # a division-based backward loses every gradient through this entry
    out = ad.prefix_product(ad.Value(x))
    assert np.array_equal(out.data[:, 0], np.ones(3))
    assert np.array_equal(out.data[:, 1:], np.cumprod(x, axis=1))
    weight = ad.Value(rng_arrays((3, 5), seed=8)[0])
    check_gradients(lambda v: ad.frobenius_sq(ad.hadamard(ad.prefix_product(v), weight)), x)


def test_activation_gradients():
    (x,) = rng_arrays((3, 3), seed=2)
    x = x + np.sign(x) * 0.2  # keep relu away from its kink
    check_gradients(lambda v: ad.frobenius_sq(ad.sigmoid(v)), x)
    check_gradients(lambda v: ad.frobenius_sq(ad.tanh(v)), x)
    check_gradients(lambda v: ad.frobenius_sq(ad.relu(v)), x)


def test_tanh_gradient_at_zero_is_one():
    v = ad.Value(np.zeros((1, 1)), requires_grad=True)
    ad.backward(ad.tanh(v))
    assert v.grad[0, 0] == 1.0


def test_transpose_and_column_normalize_gradients():
    x, c = rng_arrays((4, 3), (4, 3), seed=4)
    check_gradients(lambda v: ad.frobenius_sq(ad.transpose(v)), x)
    # weight the normalized output so the loss is not the constant d
    weight = ad.Value(c)
    check_gradients(
        lambda v: ad.frobenius_sq(ad.hadamard(ad.column_normalize(v), weight)),
        x,
        rel_tol=1e-5,
    )


def test_column_normalize_output_statistics():
    rng = np.random.default_rng(8)
    out = ad.column_normalize(ad.Value(rng.standard_normal((50, 4)))).data
    assert np.abs(out.mean(axis=0)).max() < 1e-12
    assert np.abs(np.linalg.norm(out, axis=0) - 1.0).max() < 1e-12


def test_column_normalize_maps_flat_columns_to_zero():
    # 30 copies of 0.1 centre to rounding noise (2.8e-17), not to 0, so a
    # norm-based test would blow that noise up to a unit column; a span of
    # 5e-13 is within the flat tolerance.
    shift = ad.Value(np.random.default_rng(9).standard_normal((30, 2)))
    for flat in (np.ones(5), np.full(30, 0.1), 0.1 + 5e-13 * (np.arange(8) % 2)):
        n = flat.size
        v = ad.Value(np.stack([flat, np.arange(n, dtype=np.float64)], axis=1), requires_grad=True)
        out = ad.column_normalize(v)
        assert np.array_equal(out.data[:, 0], np.zeros(n))
        assert abs(np.linalg.norm(out.data[:, 1]) - 1.0) < 1e-12
        # The shift sends a nonzero gradient into both output columns.
        ad.backward(ad.frobenius_sq(ad.add(out, ad.Value(shift.data[:n]))))
        assert np.array_equal(v.grad[:, 0], np.zeros(n))
        assert np.abs(v.grad[:, 1]).max() > 0.0


def test_column_normalize_live_gradients_next_to_flat_columns():
    x, c = rng_arrays((6, 4), (6, 4), seed=12)
    x[:, 0] = 0.1
    x[:, 2] = -3.0
    shift = ad.Value(c)

    def build(v):
        return ad.frobenius_sq(ad.add(ad.column_normalize(v), shift))

    leaf = ad.Value(x.copy(), requires_grad=True)
    ad.backward(build(leaf))
    # Bumping a flat entry makes its column live, so only live columns are
    # compared with finite differences; flat ones get exactly no gradient.
    expected = numeric_grad(build, [x], 0)[:, [1, 3]]
    assert np.abs(leaf.grad[:, [1, 3]] - expected).max() / np.abs(expected).max() < 1e-5
    assert np.array_equal(leaf.grad[:, [0, 2]], np.zeros((6, 2)))


def test_dropout_gradients_with_fixed_mask():
    (x,) = rng_arrays((5, 4), seed=5)

    def build(v):
        return ad.frobenius_sq(ad.dropout(v, 0.4, train=True, rng=ad.make_rng(123)))

    check_gradients(build, x)


def test_dropout_eval_is_identity():
    v = ad.Value(np.arange(6.0).reshape(2, 3))
    out = ad.dropout(v, 0.9, train=False, rng=None)
    assert np.array_equal(out.data, v.data)


def test_dropout_train_scales_surviving_entries():
    v = ad.Value(np.ones((200, 5)))
    out = ad.dropout(v, 0.25, train=True, rng=ad.make_rng(7)).data
    kept = out != 0.0
    assert np.allclose(out[kept], 1.0 / 0.75)
    assert 0.6 < kept.mean() < 0.9  # ~75% keep rate


def test_dropout_probability_validation():
    v = ad.Value(np.ones((2, 2)))
    for bad in (-0.1, 1.0, 1.5):
        with pytest.raises(UsageError):
            ad.dropout(v, bad, train=True, rng=ad.make_rng(0))


def test_softmax_cross_entropy_closed_form():
    logits = ad.Value(np.zeros((1, 2)), requires_grad=True)
    targets = np.array([[1.0, 0.0]])
    loss = ad.softmax_cross_entropy(logits, targets, np.array([True]))
    assert abs(loss.data[0, 0] - np.log(2.0)) < 1e-15


def test_softmax_cross_entropy_gradients_masked():
    rng = np.random.default_rng(6)
    logits = rng.standard_normal((6, 4))
    labels = rng.integers(0, 4, size=6)
    targets = np.eye(4)[labels]
    mask = np.array([True, False, True, True, False, True])

    def build(v):
        return ad.softmax_cross_entropy(v, targets, mask)

    check_gradients(build, logits)
    # masked-out rows receive no gradient
    leaf = ad.Value(logits, requires_grad=True)
    ad.backward(build(leaf))
    assert np.all(leaf.grad[~mask] == 0.0)


def test_softmax_cross_entropy_is_stable_at_large_logits():
    logits = ad.Value(np.array([[1000.0, 0.0]]), requires_grad=True)
    loss = ad.softmax_cross_entropy(logits, np.array([[1.0, 0.0]]), np.array([True]))
    assert np.isfinite(loss.data[0, 0])
    assert abs(loss.data[0, 0]) < 1e-12


def test_frobenius_gradient_example():
    w = ad.Value(np.array([[1.0, 2.0]]), requires_grad=True)
    ad.backward(ad.frobenius_sq(w))
    assert np.array_equal(w.grad, [[2.0, 4.0]])


def test_gradient_accumulates_over_reuse():
    x = ad.Value(np.array([[3.0]]), requires_grad=True)
    y = ad.add(ad.hadamard(x, x), ad.scalar_mul(x, 4.0))  # x^2 + 4x
    ad.backward(y)
    assert x.grad[0, 0] == 2 * 3.0 + 4.0

    # add hands one array to both parents; x's second accumulation must not reach z
    x = ad.Value(np.array([[3.0]]), requires_grad=True)
    z = ad.Value(np.array([[5.0]]), requires_grad=True)
    ad.backward(ad.add(ad.add(x, z), x))
    assert (x.grad[0, 0], z.grad[0, 0]) == (2.0, 1.0)


def test_detached_leaf_gets_no_gradient():
    x = ad.Value(np.ones((2, 2)), requires_grad=True)
    c = ad.Value(np.ones((2, 2)))
    ad.backward(ad.frobenius_sq(ad.hadamard(x, c)))
    assert c.grad is None
    assert x.grad is not None


def test_backward_requires_scalar():
    x = ad.Value(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(UsageError):
        ad.backward(ad.scalar_mul(x, 2.0))


def test_backward_twice_is_an_error():
    x = ad.Value(np.ones((1, 1)), requires_grad=True)
    loss = ad.frobenius_sq(x)
    ad.backward(loss)
    with pytest.raises(UsageError):
        ad.backward(loss)


def test_values_are_two_dimensional():
    assert ad.Value(3.0).data.shape == (1, 1)
    assert ad.Value([[1.0, 2.0]]).data.shape == (1, 2)
    with pytest.raises(UsageError):
        ad.Value(np.ones(3))  # 1-D input is a shape bug, not a row vector


def test_zero_grad_resets_between_steps():
    params = {"w": ad.Value(np.ones((2, 2)), requires_grad=True)}
    ad.backward(ad.frobenius_sq(params["w"]))
    ad.zero_grad(params)
    assert params["w"].grad is None


def test_adam_zero_gradient_keeps_parameter():
    w = ad.Value(np.full((2, 2), 1.5), requires_grad=True)
    w.grad = np.zeros((2, 2))
    state = ad.AdamState(lr=0.1, weight_decay=0.0)
    ad.adam_step({"w": w}, state)
    assert np.array_equal(w.data, np.full((2, 2), 1.5))


def test_adam_single_step_magnitude():
    w = ad.Value(np.zeros((1, 1)), requires_grad=True)
    w.grad = np.ones((1, 1))
    state = ad.AdamState(lr=0.1)
    ad.adam_step({"w": w}, state)
    # bias-corrected m-hat = v-hat = 1, so the step is lr / (1 + eps)
    assert abs(w.data[0, 0] + 0.1) < 1e-8


def test_adam_identical_parameters_move_identically():
    rng = np.random.default_rng(3)
    grad = rng.standard_normal((3, 2))
    a = ad.Value(np.ones((3, 2)), requires_grad=True)
    b = ad.Value(np.ones((3, 2)), requires_grad=True)
    a.grad, b.grad = grad.copy(), grad.copy()
    state = ad.AdamState(lr=0.01, weight_decay=0.05)
    ad.adam_step({"a": a, "b": b}, state)
    assert np.array_equal(a.data, b.data)


def test_adam_skips_parameters_without_gradient():
    w = ad.Value(np.ones((2, 2)), requires_grad=True)
    state = ad.AdamState(lr=0.5)
    ad.adam_step({"w": w}, state)
    assert np.array_equal(w.data, np.ones((2, 2)))


def test_adam_weight_decay_is_additive():
    w = ad.Value(np.full((1, 1), 2.0), requires_grad=True)
    w.grad = np.zeros((1, 1))
    state = ad.AdamState(lr=0.1, weight_decay=0.5)
    ad.adam_step({"w": w}, state)
    # effective gradient is wd * w = 1.0, so the first step is -lr
    assert abs(w.data[0, 0] - 1.9) < 1e-8


def textbook_adam(p, g, m, v, t, lr, wd, beta1=0.9, beta2=0.999, eps=1e-8):
    """The unfolded update, one fresh array per term: the oracle for ``adam_step``."""
    if wd:
        g = g + wd * p
    m = beta1 * m + (1.0 - beta1) * g
    v = beta2 * v + (1.0 - beta2) * (g * g)
    m_hat = m / (1.0 - beta1**t)
    v_hat = v / (1.0 - beta2**t)
    return p - lr * m_hat / (np.sqrt(v_hat) + eps), m, v


def max_relative_difference(a, b):
    return float(np.max(np.abs(a - b) / np.abs(b)))


@pytest.mark.parametrize("wd", [0.0, 5e-4])
def test_adam_matches_the_textbook_update(wd):
    rng = np.random.default_rng(17)
    shape = (40, 7)
    w = ad.Value(rng.standard_normal(shape), requires_grad=True)
    p_ref, m_ref, v_ref = w.data.copy(), np.zeros(shape), np.zeros(shape)
    state = ad.AdamState(lr=0.01, weight_decay=wd)
    worst = 0.0
    for t in range(1, 201):
        w.grad = rng.standard_normal(shape) * rng.uniform(0.01, 10.0)
        p_ref, m_ref, v_ref = textbook_adam(p_ref, w.grad, m_ref, v_ref, t, 0.01, wd)
        ad.adam_step({"w": w}, state)
        m, v = state.moments["w"]
        worst = max(
            worst,
            max_relative_difference(w.data, p_ref),
            max_relative_difference(m, m_ref),
            max_relative_difference(v, v_ref),
        )
        # Restart the oracle from the state each step leaves, so rounding does not compound.
        p_ref, m_ref, v_ref = w.data.copy(), m.copy(), v.copy()
    assert worst <= 1e-13


def test_adam_leaves_the_moments_of_a_parameter_without_gradient():
    rng = np.random.default_rng(5)
    a = ad.Value(rng.standard_normal((3, 4)), requires_grad=True)
    b = ad.Value(rng.standard_normal((3, 4)), requires_grad=True)
    a.grad, b.grad = rng.standard_normal((3, 4)), rng.standard_normal((3, 4))
    state = ad.AdamState(lr=0.1, weight_decay=5e-4)
    ad.adam_step({"a": a, "b": b}, state)
    b_data = b.data.copy()
    b_moments = [x.copy() for x in state.moments["b"]]
    a.grad, b.grad = rng.standard_normal((3, 4)), None
    a_data = a.data.copy()
    ad.adam_step({"a": a, "b": b}, state)
    assert not np.array_equal(a.data, a_data)
    assert np.array_equal(b.data, b_data)
    for kept, now in zip(b_moments, state.moments["b"]):
        assert np.array_equal(kept, now)


@pytest.mark.parametrize("wd", [0.0, 5e-4])
def test_adam_step_allocates_no_parameter_sized_temporaries(wd):
    rng = np.random.default_rng(2)
    w = ad.Value(rng.standard_normal((512, 64)), requires_grad=True)
    w.grad = rng.standard_normal((512, 64))
    state = ad.AdamState(lr=0.01, weight_decay=wd)
    ad.adam_step({"w": w}, state)  # the first step allocates the moments and the scratch buffer
    tracemalloc.start()
    try:
        ad.adam_step({"w": w}, state)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * w.data.nbytes


def test_training_loop_determinism():
    def run():
        rng = ad.make_rng(42, 0)
        w = ad.Value(ad.glorot_uniform(4, 3, rng), requires_grad=True)
        x = ad.Value(ad.make_rng(42, 1).standard_normal((5, 4)))
        state = ad.AdamState(lr=0.05, weight_decay=0.01)
        for _ in range(20):
            loss = ad.frobenius_sq(ad.tanh(ad.matmul(x, w)))
            ad.zero_grad({"w": w})
            ad.backward(loss)
            ad.adam_step({"w": w}, state)
        return w.data.copy()

    assert np.array_equal(run(), run())


def test_glorot_uniform_bounds():
    rng = ad.make_rng(0)
    w = ad.glorot_uniform(30, 40, rng)
    limit = np.sqrt(6.0 / (30 + 40))
    assert w.shape == (30, 40)
    assert np.abs(w).max() <= limit
    assert np.abs(w).max() > 0.8 * limit  # actually fills the range


def test_make_rng_is_deterministic_per_entropy():
    a = ad.make_rng(1, 2, 3).standard_normal(4)
    b = ad.make_rng(1, 2, 3).standard_normal(4)
    c = ad.make_rng(1, 2, 4).standard_normal(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


# --- no_grad ------------------------------------------------------------------


def test_no_grad_ops_return_untracked_values():
    x = ad.Value(np.ones((2, 3)), requires_grad=True)
    w = ad.Value(np.ones((3, 2)), requires_grad=True)
    with ad.no_grad():
        out = ad.tanh(ad.add(ad.matmul(x, w), ad.Value(np.ones((1, 2)))))
        loss = ad.frobenius_sq(out)
    for value in (out, loss):
        assert value.requires_grad is False
        assert value._parents == () and value._backward_fn is None
    assert x.requires_grad and w.requires_grad  # the leaves keep their flag
    assert ad.matmul(x, w).requires_grad  # tracking is back outside the block


def test_no_grad_restores_the_flag_after_nesting_and_exceptions():
    x = ad.Value(np.ones((1, 1)), requires_grad=True)
    with ad.no_grad():
        with ad.no_grad():
            assert not ad.scalar_mul(x, 2.0).requires_grad
        assert not ad.scalar_mul(x, 2.0).requires_grad  # the inner exit keeps it off
    assert ad.scalar_mul(x, 2.0).requires_grad

    with pytest.raises(RuntimeError):
        with ad.no_grad():
            raise RuntimeError("boom")
    assert ad.scalar_mul(x, 2.0).requires_grad


def test_no_grad_eval_pass_copies_no_parameter_and_train_pass_still_tapes():
    g = two_block_graph(6, seed=3)
    cfg = DsfConfig(K=3, d=4, f_p=4, mode="R", lambda_orth=0.05, dropout_p=0.3)
    a_hat, features, positional = graph_inputs(g, cfg)
    params = init_params(cfg, g.num_features, g.num_classes, ad.make_rng(0), num_nodes=g.num_nodes)
    before = {name: (p, p.data) for name, p in params.as_dict().items()}

    with ad.no_grad():
        eval_result = forward(a_hat, features, positional, params, cfg, train=False)
    assert not eval_result.logits.requires_grad and eval_result.logits._parents == ()
    after = params.as_dict()
    assert all(after[name] is p and p.data is data for name, (p, data) in before.items())
    assert all(p.requires_grad and p.grad is None for p in after.values())

    result = forward(a_hat, features, positional, params, cfg, train=True, rng=ad.make_rng(1))
    assert result.logits.requires_grad
    targets = one_hot(g.labels, g.num_classes)
    ad.backward(total_loss(result, targets, np.ones(g.num_nodes, dtype=bool), cfg))
    assert [name for name, p in after.items() if p.grad is None] == []
