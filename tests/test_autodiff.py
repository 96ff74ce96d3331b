"""Reverse-mode engine: op gradients, backward bookkeeping, and Adam."""

from __future__ import annotations

import tracemalloc
from contextlib import nullcontext

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
from tests.conftest import connected_random_graph, frobenius_sq, toy_graph


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


def weighted_sum(y: ad.Value, w: ad.Value) -> ad.Value:
    """1ᵀ (y ⊙ w) 1, whose gradient with respect to y is exactly w."""
    rows, cols = y.shape
    left, right = ad.Value(np.ones((1, rows))), ad.Value(np.ones((cols, 1)))
    return ad.matmul(ad.matmul(left, ad.hadamard(y, w)), right)


def rng_arrays(*shapes, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal(s) for s in shapes]


def test_add_sub_scalar_mul_gradients():
    a, b = rng_arrays((3, 2), (3, 2))
    check_gradients(
        lambda x, y: frobenius_sq(ad.add(ad.scalar_mul(x, 2.5), ad.sub(y, x))), a, b
    )


def test_hadamard_gradients_with_broadcast():
    a, b, col, s = rng_arrays((4, 3), (4, 3), (4, 1), (1, 1))
    check_gradients(lambda x, y: frobenius_sq(ad.hadamard(x, y)), a, b)
    check_gradients(lambda x, c: frobenius_sq(ad.hadamard(x, c)), a, col)
    check_gradients(lambda x, c: frobenius_sq(ad.hadamard(x, c)), a, s)


def test_hadamard_rejects_incompatible_shapes():
    with pytest.raises(UsageError):
        ad.hadamard(ad.Value(np.ones((2, 3))), ad.Value(np.ones((3, 2))))


def test_matmul_gradients():
    a, b = rng_arrays((3, 4), (4, 2))
    check_gradients(lambda x, y: frobenius_sq(ad.matmul(x, y)), a, b)


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
    check_gradients(lambda v: frobenius_sq(ad.sparse_dense_matmul(op, v)), x)


@pytest.mark.parametrize(
    "kind", [Monomial(), Bernstein(4), Jacobi(1.5, -0.5)], ids=["gpr", "bern", "jacobi"]
)
def test_polynomial_filter_gradients(kind):
    op, _ = normalized_operators(connected_random_graph(6, 0.3, seed=2))
    table, x, weight = rng_arrays((6, 5), (6, 3), (6, 3), seed=1)
    for rows in (table, table[:1]):  # per-node table, then one row shared by every node
        check_gradients(
            lambda t, v: frobenius_sq(
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


def _isolated_node_operator() -> SparseOperator:
    # Node 5 has no edge, so its row and column of A_hat are zero.
    edges = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (3, 4)]
    a_hat, _ = normalized_operators(toy_graph(edges, [0, 1, 0, 1, 0, 1]))
    assert a_hat.matrix[[5], :].nnz == 0
    return a_hat


def _reference_states(p0, op, eta1, K):
    """The K + 1 IPE states of mode R, step by step on dense arrays."""
    states = [p0]
    for _ in range(K):
        states.append(np.tanh(eta1 * p0 + (1 - eta1) * (op.dense() @ states[-1])))
    return states


def test_position_refinement_reads_out_each_gate_from_its_state():
    op = _isolated_node_operator()
    p0, w = rng_arrays((6, 3), (3, 3), seed=5)
    out = ad.position_refinement(ad.Value(p0), op, 0.3, 2, ad.Value(w))
    states = _reference_states(p0, op, 0.3, 2)
    expected = np.stack([states[0] @ w[:, 0], states[1] @ w[:, 1], states[2] @ w[:, 2]], axis=1)
    assert out.shape == (6, 3 + 3)
    assert np.abs(out.data[:, :3] - expected).max() < 1e-12
    assert np.abs(out.data[:, 3:] - states[2]).max() < 1e-12
    weight = ad.Value(rng_arrays((6, 6), seed=6)[0])
    check_gradients(
        lambda p, v: frobenius_sq(ad.hadamard(ad.position_refinement(p, op, 0.3, 2, v), weight)),
        p0, w,
    )
    for bad in (w[:, :2], w[:2]):  # one gate per state, each as wide as a state
        with pytest.raises(UsageError):
            ad.position_refinement(ad.Value(p0), op, 0.3, 2, ad.Value(bad))


@pytest.mark.parametrize("K", [0, 1, 3])
@pytest.mark.parametrize("eta1", [0.0, 0.3, 1.0])
def test_position_refinement_gradients(K, eta1):
    op = _isolated_node_operator()
    p0, w_ipe = rng_arrays((6, 2), (2, 2), seed=K)
    for first in range(min(K, 1) + 1):  # Jacobi's order 0 has no gate, and K = 0 leaves none
        gate_w, weight = rng_arrays((2, K + 1 - first), (6, K + 1 - first + 2), seed=10 + first)
        for eta2 in (0.0, 0.4):  # the similarity weight is a leaf only when a step uses it
            fixed = ad.Value(w_ipe) if eta2 else None
            check_gradients(
                lambda p, v, w=fixed: frobenius_sq(ad.hadamard(
                    ad.position_refinement(p, op, eta1, K, v, first, w, eta2), ad.Value(weight)
                )),
                *((p0, gate_w, w_ipe) if eta2 and K else (p0, gate_w)),
            )


def test_position_refinement_states_follow_the_recurrence():
    op = _isolated_node_operator()
    (p0,) = rng_arrays((6, 3), seed=4)
    # State k is the readout's last columns after k steps; the first k steps of
    # a longer refinement run the same float operations.
    readouts = [ad.position_refinement(ad.Value(p0), op, 0.3, k, ad.Value(np.ones((3, k + 1))))
                for k in (0, 1, 2)]
    final = [readout.data[:, k + 1 :] for k, readout in enumerate(readouts)]
    assert np.array_equal(final[0], p0)
    for k in (1, 2):
        assert np.allclose(final[k], np.tanh(0.3 * p0 + 0.7 * (op.dense() @ final[k - 1])))
        assert np.array_equal(final[k][5], np.tanh(0.3 * p0[5]))  # no neighbours


def test_position_refinement_rejects_an_operator_not_flagged_symmetric():
    op = _isolated_node_operator()
    flagged = SparseOperator(op.matrix, symmetric=False)
    p0 = ad.Value(np.ones((6, 2)), requires_grad=True)
    gate_w = ad.Value(np.ones((2, 3)))
    with pytest.raises(UsageError, match="symmetric"):
        ad.position_refinement(p0, flagged, 0.3, 2, gate_w)
    with pytest.raises(UsageError):
        ad.position_refinement(ad.Value(np.ones((5, 2))), op, 0.3, 2, gate_w)
    for first in (-1, 1, 3):  # G = K + 1 - first gates, at least one
        with pytest.raises(UsageError):
            ad.position_refinement(p0, op, 0.3, 2, gate_w, first)
    with pytest.raises(UsageError):
        ad.position_refinement(p0, op, 0.3, 0, ad.Value(np.ones((2, 0))), 1)
    for w_ipe in (None, ad.Value(np.ones((3, 3)))):  # eta2 != 0 needs a (d, d) weight
        with pytest.raises(UsageError):
            ad.position_refinement(p0, op, 0.3, 2, gate_w, 0, w_ipe, 0.4)


def test_position_refinement_keeps_similarity_matrices_only_on_a_tape():
    n, d, K = 400, 3, 5
    op, _ = normalized_operators(connected_random_graph(n, 0.02, seed=2))
    p0, w_ipe, gate_w = rng_arrays((n, d), (d, d), (d, K + 1), seed=12)
    p0, w_ipe = ad.Value(p0, requires_grad=True), ad.Value(w_ipe, requires_grad=True)
    for taped in (False, True):
        tracemalloc.start()
        try:
            with nullcontext() if taped else ad.no_grad():
                refined = ad.position_refinement(p0, op, 0.3, K, ad.Value(gate_w), 0, w_ipe, 0.4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert refined.requires_grad == taped
        assert (peak > K * n * n * 8) == taped, peak  # the K (N, N) matrices S
        del refined


def test_position_refinement_holds_each_state_once():
    # State 0 is p0's own array and state K lives in the readout, so a tape
    # adds only the K - 1 states between; without one, two states roll.
    n, d, K = 400, 16, 10
    op, _ = normalized_operators(connected_random_graph(n, 0.02, seed=2))
    p0, gate_w = rng_arrays((n, d), (d, K + 1), seed=14)
    p0, gate_w = ad.Value(p0, requires_grad=True), ad.Value(gate_w)
    state = n * d * 8
    readouts = []
    for taped in (True, False):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            with nullcontext() if taped else ad.no_grad():
                readouts.append(ad.position_refinement(p0, op, 0.3, K, gate_w))
            held, peak = (m - before for m in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        extra = held - readouts[-1].data.nbytes
        if taped:
            assert (K - 1) * state <= extra < K * state, extra / state
        else:
            assert extra < state / 4 and peak - readouts[-1].data.nbytes < 4 * state, peak
    assert same_bits(readouts[0].data, readouts[1].data)


@pytest.mark.parametrize("first", [0, 1])
def test_position_refinement_backward_holds_no_gradient_of_all_states(first):
    # Each gate adds a rank-1 term to the gradient of one state, so the backward
    # needs no ((K + 1) N, d) buffer: 563 200 bytes at these sizes, and the bound
    # is half of it. The op holds the (N, G + d) readout gradient (86 400 bytes
    # for G = 11) and at most three (N, d) arrays (51 200 bytes each) at once:
    # 244 152 bytes traced for first = 0, 0.43 of the buffer. A backward that
    # fills the buffer through per-state ops on a stacked ((K + 1) N, d) value
    # peaked at 875 052 bytes, 1.55 times it.
    n, d, K = 400, 16, 10
    op, _ = normalized_operators(connected_random_graph(n, 0.02, seed=3))
    p0, gate_w = rng_arrays((n, d), (d, K + 1 - first), seed=13)
    p0, gate_w = ad.Value(p0, requires_grad=True), ad.Value(gate_w, requires_grad=True)
    loss = frobenius_sq(ad.position_refinement(p0, op, 0.3, K, gate_w, first))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        ad.backward(loss)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < (K + 1) * n * d * 8 / 2, peak
    assert p0.grad.shape == (n, d) and gate_w.grad.shape == (d, K + 1 - first)


def test_column_slice_routes_gradients_by_columns():
    (x,) = rng_arrays((4, 6), seed=8)
    fused = ad.Value(x, requires_grad=True)
    left, tail = ad.column_slice(fused, 0, 2), ad.column_slice(fused, 5, 6)
    ad.backward(ad.add(frobenius_sq(left), frobenius_sq(tail)))
    expected = np.zeros((4, 6))
    expected[:, :2], expected[:, 5:] = 2 * x[:, :2], 2 * x[:, 5:]
    assert np.array_equal(fused.grad, expected)
    assert np.shares_memory(left.data, fused.data)  # a view: the tape holds fused anyway
    for start, stop in ((0, 0), (-1, 2), (4, 7)):
        with pytest.raises(UsageError):
            ad.column_slice(fused, start, stop)


def test_position_refinement_skips_the_states_before_first():
    op = _isolated_node_operator()
    p0, w = rng_arrays((6, 3), (3, 2), seed=9)
    out = ad.position_refinement(ad.Value(p0), op, 0.3, 2, ad.Value(w), first=1)
    states = _reference_states(p0, op, 0.3, 2)
    expected = np.stack([states[1] @ w[:, 0], states[2] @ w[:, 1]], axis=1)
    assert out.shape == (6, 2 + 3)
    assert np.abs(out.data[:, :2] - expected).max() < 1e-12
    weight = ad.Value(rng_arrays((6, 5), seed=10)[0])
    check_gradients(
        lambda p, v: frobenius_sq(
            ad.hadamard(ad.position_refinement(p, op, 0.3, 2, v, first=1), weight)
        ),
        p0, w,
    )
    # The readout does not depend on the memory layout of w.
    fortran = ad.position_refinement(ad.Value(p0), op, 0.3, 2, ad.Value(np.asfortranarray(w)), 1)
    assert np.array_equal(fortran.data, out.data)


def test_prefix_product_values_and_gradients_through_an_exact_zero():
    (x,) = rng_arrays((3, 4), seed=7)
    x[1, 2] = 0.0  # a division-based backward loses every gradient through this entry
    out = ad.prefix_product(ad.Value(x))
    assert np.array_equal(out.data[:, 0], np.ones(3))
    assert np.array_equal(out.data[:, 1:], np.cumprod(x, axis=1))
    weight = ad.Value(rng_arrays((3, 5), seed=8)[0])
    check_gradients(lambda v: frobenius_sq(ad.hadamard(ad.prefix_product(v), weight)), x)


def test_activation_gradients():
    (x,) = rng_arrays((3, 3), seed=2)
    x = x + np.sign(x) * 0.2  # keep relu away from its kink
    check_gradients(lambda v: frobenius_sq(ad.sigmoid(v)), x)
    check_gradients(lambda v: frobenius_sq(ad.tanh(v)), x)
    check_gradients(lambda v: frobenius_sq(ad.relu(v)), x)


def test_tanh_gradient_at_zero_is_one():
    v = ad.Value(np.zeros((1, 1)), requires_grad=True)
    ad.backward(ad.tanh(v))
    assert v.grad[0, 0] == 1.0


def test_transpose_and_column_normalize_gradients():
    x, c = rng_arrays((4, 3), (4, 3), seed=4)
    check_gradients(lambda v: frobenius_sq(ad.transpose(v)), x)
    # The Gram matrix: v reaches the loss through its transpose and directly.
    weight = ad.Value(rng_arrays((3, 3), seed=5)[0])
    check_gradients(
        lambda v: frobenius_sq(ad.hadamard(ad.matmul(ad.transpose(v), v), weight)), x
    )
    # The orthogonality penalty normalizes the columns inside its one op.
    check_gradients(ad.orthogonality_penalty, x + c, rel_tol=1e-5)


# --- the fused ops against the op-by-op chains they replace ---------------------


def column_normalize(x: ad.Value) -> ad.Value:
    """Centre each column and scale it to unit norm; flat columns map to zeros.

    The op that the orthogonality penalty chained before it was fused: the
    reference for ``ad.orthogonality_penalty``.
    """
    centered = x.data - x.data.mean(axis=0, keepdims=True)
    norms = np.sqrt(np.sum(centered * centered, axis=0, keepdims=True))
    norms[np.ptp(x.data, axis=0, keepdims=True) <= ad.FLAT_SPAN] = np.inf
    out = centered / norms

    def backward_fn(grad: np.ndarray) -> None:
        if x.requires_grad:
            inner = np.sum(centered * grad, axis=0, keepdims=True)
            g_centered = grad / norms - centered * (inner / norms**3)
            x.accumulate(g_centered - g_centered.mean(axis=0, keepdims=True))

    return ad._make(out, (x,), backward_fn)


def chained_orthogonality_penalty(x: ad.Value) -> ad.Value:
    normalized = column_normalize(x)
    gram = ad.matmul(ad.transpose(normalized), normalized)
    return frobenius_sq(ad.sub(gram, ad.Value(np.eye(x.shape[1]))))


def chained_projection(x, w, b, activation, p, train, rng):
    """``dropout(activation(x W + b))`` one op at a time, dropout as a product with the scaled mask."""
    if isinstance(x, SparseOperator):
        projected = ad.sparse_dense_matmul(x, w)
    else:
        projected = ad.matmul(ad.Value(x), w)
    out = (ad.relu if activation == "relu" else ad.tanh)(ad.add(projected, b))
    if train and p > 0.0:
        out = ad.hadamard(out, ad.Value((rng.random(out.shape) >= p) / (1.0 - p)))
    return out


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()  # tells -0.0 from 0.0


def projection_inputs(seed: int):
    """A (30, 12) input, 70% zeros and with two zero rows, so some x W + b are exactly b."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((30, 12)) * (rng.random((30, 12)) < 0.3)
    x[[4, 17]] = 0.0
    w, b, weight = rng.standard_normal((12, 5)), rng.standard_normal((1, 5)), rng.standard_normal((30, 5))
    b[0, 0] = 0.0  # x W + b = 0 on the zero rows: ReLU's kink
    weight[::7] = -0.0  # signed zeros in the gradient
    return x, w, b, weight


@pytest.mark.parametrize("sparse_x", [False, True], ids=["dense", "csr"])
@pytest.mark.parametrize("activation", ["relu", "tanh"])
@pytest.mark.parametrize("p, train", [(0.0, True), (0.5, True), (0.5, False)],
                         ids=["p0", "train", "eval"])
def test_input_projection_matches_the_op_chain_bit_for_bit(sparse_x, activation, p, train):
    x, w0, b0, weight = projection_inputs(seed=21)
    operand = SparseOperator(sparse.csr_array(x), symmetric=False) if sparse_x else x
    runs = []
    for build in (ad.input_projection, chained_projection):
        w, b = ad.Value(w0.copy(), requires_grad=True), ad.Value(b0.copy(), requires_grad=True)
        out = build(operand, w, b, activation, p, train, ad.make_rng(5))
        ad.backward(weighted_sum(out, ad.Value(weight)))
        runs.append((out.data, w.grad, b.grad))
    (out, g_w, g_b), (chained_out, chained_g_w, chained_g_b) = runs
    assert same_bits(out, chained_out)
    assert same_bits(g_w, chained_g_w) and same_bits(g_b, chained_g_b)
    assert np.abs(g_w).max() > 0.0
    if activation == "relu":
        assert (out == 0.0).any() and (out > 0.0).any()


def test_dropout_gradients_with_fixed_mask():
    x, w, b, _ = projection_inputs(seed=22)
    b += np.where(b < 0.0, -0.5, 0.5)  # every x W + b stays more than h away from ReLU's kink
    assert np.abs(x @ w + b).min() > 1e-3
    for operand in (x, SparseOperator(sparse.csr_array(x), symmetric=False)):
        for activation in ("relu", "tanh"):

            def build(w, b):
                rng = ad.make_rng(123)
                return frobenius_sq(ad.input_projection(operand, w, b, activation, 0.4, True, rng))

            check_gradients(build, w, b)


def test_dropout_eval_is_identity():
    x, w, b, _ = projection_inputs(seed=23)
    for activation, act in (("relu", lambda z: np.where(z > 0, z, 0.0)), ("tanh", np.tanh)):
        for p, train in ((0.9, False), (0.0, True)):
            out = ad.input_projection(x, ad.Value(w), ad.Value(b), activation, p, train, rng=None)
            assert np.array_equal(out.data, act(x @ w + b))


def test_dropout_train_scales_surviving_entries():
    ones = np.ones((200, 1))
    w, b = ad.Value(np.ones((1, 5))), ad.Value(np.zeros((1, 5)))
    for activation, active in (("relu", 1.0), ("tanh", np.tanh(1.0))):
        out = ad.input_projection(ones, w, b, activation, 0.25, True, ad.make_rng(7)).data
        kept = out != 0.0
        assert np.allclose(out[kept], active / 0.75)
        assert 0.6 < kept.mean() < 0.9  # ~75% keep rate


def test_dropout_keeps_a_boolean_mask_on_the_tape():
    eye = np.eye(500)  # x W = W, so the gradient of W is that of x W + b
    for activation, arrays in (("relu", 1), ("tanh", 2)):
        w = ad.Value(np.ones((500, 400)), requires_grad=True)
        b = ad.Value(np.zeros((1, 400)), requires_grad=True)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = ad.input_projection(eye, w, b, activation, 0.5, True, ad.make_rng(3))
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        # The output (8 bytes an entry), for tanh the activation before dropout,
        # and a 1-byte mask; the op-by-op chain held four such arrays and two masks.
        assert held < (arrays + 0.25) * w.data.nbytes, (activation, held)
        ad.backward(frobenius_sq(out))
        slope = 1.0 if activation == "relu" else 1.0 - np.tanh(1.0) ** 2
        expected = 2 * out.data * (out.data != 0) / 0.5 * slope
        assert np.allclose(w.grad, expected, rtol=1e-15, atol=0.0)
        assert np.allclose(b.grad, w.grad.sum(axis=0, keepdims=True), rtol=1e-12, atol=0.0)


def test_dropout_probability_validation():
    w, b = ad.Value(np.ones((2, 2))), ad.Value(np.zeros((1, 2)))
    for bad in (-0.1, 1.0, 1.5):
        with pytest.raises(UsageError):
            ad.input_projection(np.ones((3, 2)), w, b, "relu", bad, True, ad.make_rng(0))
    with pytest.raises(UsageError, match="generator"):
        ad.input_projection(np.ones((3, 2)), w, b, "relu", 0.5, True, None)
    with pytest.raises(UsageError, match="activation"):
        ad.input_projection(np.ones((3, 2)), w, b, "sigmoid", 0.5, False, None)
    for x, bias in ((np.ones((3, 3)), b), (np.ones((3, 2)), ad.Value(np.zeros((1, 3))))):
        with pytest.raises(UsageError):
            ad.input_projection(x, w, bias, "relu", 0.5, False, None)


@pytest.mark.parametrize("flat", [False, True], ids=["live", "flat-column"])
def test_orthogonality_penalty_matches_the_op_chain_bit_for_bit(flat):
    # As the model calls it: on a column slice (a view) of a wider value, weighed by lambda.
    (x,) = rng_arrays((40, 9), seed=24)
    if flat:
        x[:, 5] = 0.1
    runs = []
    for build in (ad.orthogonality_penalty, chained_orthogonality_penalty):
        wide = ad.Value(x.copy(), requires_grad=True)
        penalty = build(ad.column_slice(wide, 3, 9))
        ad.backward(ad.scalar_mul(penalty, 0.37))
        runs.append((penalty.data, wide.grad))
    (value, grad), (chained_value, chained_grad) = runs
    assert same_bits(value, chained_value) and same_bits(grad, chained_grad)
    assert np.array_equal(grad[:, :3], np.zeros((40, 3)))
    assert np.array_equal(grad[:, 5], np.zeros(40)) == flat


def test_column_normalize_output_statistics():
    # The penalty sees only the centred unit columns: shifting and scaling a
    # column leaves it, up to rounding, and it is ||Uᵀ U - I||² for those U.
    rng = np.random.default_rng(8)
    x = rng.standard_normal((50, 4))
    unit = x - x.mean(axis=0)
    unit /= np.linalg.norm(unit, axis=0)
    assert np.abs(unit.mean(axis=0)).max() < 1e-12
    expected = np.sum((unit.T @ unit - np.eye(4)) ** 2)
    moved = x * np.array([3.0, 0.01, -2.0, 1e4]) + np.array([5.0, -1.0, 0.0, 2e3])
    for columns in (x, moved):
        value = ad.orthogonality_penalty(ad.Value(columns)).data[0, 0]
        assert abs(value - expected) < 1e-10 * expected


def test_column_normalize_maps_flat_columns_to_zero():
    # 30 copies of 0.1 centre to rounding noise (2.8e-17), not to 0, so a
    # norm-based test would blow that noise up to a unit column; a span of
    # 5e-13 is within the flat tolerance. A flat column's unit vector is zero:
    # it adds exactly its diagonal miss 1 and gets no gradient.
    rng = np.random.default_rng(9)
    for flat in (np.ones(5), np.full(30, 0.1), 0.1 + 5e-13 * (np.arange(8) % 2)):
        n = flat.size
        live = np.stack([np.arange(n, dtype=np.float64), rng.standard_normal(n)], axis=1)
        v = ad.Value(np.column_stack([flat, live]), requires_grad=True)
        penalty = ad.orthogonality_penalty(v)
        alone = ad.orthogonality_penalty(ad.Value(live)).data[0, 0]
        assert abs(penalty.data[0, 0] - (1.0 + alone)) < 1e-12
        ad.backward(penalty)
        assert np.array_equal(v.grad[:, 0], np.zeros(n))
        assert np.abs(v.grad[:, 1:]).min(axis=0).max() > 0.0


def test_column_normalize_live_gradients_next_to_flat_columns():
    (x,) = rng_arrays((6, 4), seed=12)
    x[:, 0] = 0.1
    x[:, 2] = -3.0
    leaf = ad.Value(x.copy(), requires_grad=True)
    ad.backward(ad.orthogonality_penalty(leaf))
    # Bumping a flat entry makes its column live, so only live columns are
    # compared with finite differences; flat ones get exactly no gradient.
    expected = numeric_grad(ad.orthogonality_penalty, [x], 0)[:, [1, 3]]
    assert np.abs(leaf.grad[:, [1, 3]] - expected).max() / np.abs(expected).max() < 1e-5
    assert np.array_equal(leaf.grad[:, [0, 2]], np.zeros((6, 2)))


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
    # Centred columns a, b with cos(a, b) = 1/2: the penalty is 2 cos² = 1/2,
    # and its gradient is (b - a/2, a - b/2).
    a, b = np.array([1.0, -1.0, 0.0]), np.array([1.0, 0.0, -1.0])
    x = ad.Value(np.stack([a, b], axis=1), requires_grad=True)
    penalty = ad.orthogonality_penalty(x)
    assert abs(penalty.data[0, 0] - 0.5) < 1e-15
    ad.backward(penalty)
    assert np.abs(x.grad - np.stack([b - a / 2, a - b / 2], axis=1)).max() < 1e-15


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


def test_add_and_sub_of_a_value_with_itself():
    g = ad.Value(rng_arrays((3, 2), seed=9)[0])
    for op, expected in ((ad.add, 2.0 * g.data), (ad.sub, np.zeros((3, 2)))):
        x = ad.Value(np.ones((3, 2)), requires_grad=True)
        ad.backward(weighted_sum(op(x, x), g))
        assert np.array_equal(x.grad, expected), op.__name__


@pytest.mark.parametrize("add_first", [True, False])
def test_add_whose_parents_are_both_reused_keeps_both_gradients(add_first):
    # p and q each take a gradient from the add and from the product, in either order.
    def build(x, y):
        p, q = ad.tanh(x), ad.sigmoid(y)
        terms = (frobenius_sq(ad.add(p, q)), frobenius_sq(ad.hadamard(p, q)))
        return ad.add(*terms) if add_first else ad.add(*terms[::-1])

    check_gradients(build, *rng_arrays((3, 2), (3, 2), seed=10))


def test_backward_keeps_a_fresh_gradient_without_copying_it():
    # The leaf adopts the array scalar_mul's backward makes; a copy of it would be a third array.
    x = ad.Value(np.ones((500, 400)), requires_grad=True)
    loss = frobenius_sq(ad.scalar_mul(x, 3.0))
    tracemalloc.start()
    try:
        ad.backward(loss)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * x.data.nbytes, peak  # the output's gradient and the leaf's
    assert np.array_equal(x.grad, np.full((500, 400), 18.0))


def test_detached_leaf_gets_no_gradient():
    x = ad.Value(np.ones((2, 2)), requires_grad=True)
    c = ad.Value(np.ones((2, 2)))
    ad.backward(frobenius_sq(ad.hadamard(x, c)))
    assert c.grad is None
    assert x.grad is not None


def test_backward_requires_scalar():
    x = ad.Value(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(UsageError):
        ad.backward(ad.scalar_mul(x, 2.0))


def test_backward_twice_is_an_error():
    x = ad.Value(np.ones((1, 1)), requires_grad=True)
    loss = frobenius_sq(x)
    ad.backward(loss)
    with pytest.raises(UsageError):
        ad.backward(loss)


def test_backward_through_a_released_subgraph_raises_and_moves_no_gradient():
    x = ad.Value(np.array([[0.3, -1.2]]), requires_grad=True)
    w = ad.Value(np.array([[2.0, 0.5]]), requires_grad=True)
    y = ad.tanh(x)
    ad.backward(frobenius_sq(y))
    first = x.grad.copy()
    # y still holds its value, but not the gradient of the first loss: a
    # second sweep through it would have added that gradient again.
    assert np.array_equal(y.data, np.tanh(x.data)) and y.grad is None
    second = frobenius_sq(ad.hadamard(y, w))
    with pytest.raises(UsageError, match="released"):
        ad.backward(second)
    assert np.array_equal(x.grad, first) and w.grad is None
    x.grad = None
    with pytest.raises(UsageError, match="released"):
        ad.backward(frobenius_sq(y))
    assert x.grad is None


def tape_walk(loss: ad.Value) -> list[ad.Value]:
    """The reverse topological order that ``ad.backward`` sweeps, loss last."""
    topo, seen, stack = [], set(), [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
        elif id(node) not in seen:
            seen.add(id(node))
            stack.append((node, True))
            stack.extend((p, False) for p in node._parents if p.requires_grad and id(p) not in seen)
    return topo


def unreleased_backward(loss: ad.Value) -> None:
    """The same sweep as ``ad.backward`` in the same order, keeping the whole tape."""
    loss.accumulate(np.ones((1, 1)))
    for node in reversed(tape_walk(loss)):
        if node._backward_fn is not None and node.grad is not None:
            node._backward_fn(node.grad)


@pytest.mark.parametrize("backbone", ["GPR", "Bern", "Jacobi"])
def test_backward_releases_the_tape_and_keeps_leaf_gradients(backbone):
    g = two_block_graph(6, seed=3)
    cfg = DsfConfig(K=3, d=4, f_p=4, mode="R", lambda_orth=0.05, dropout_p=0.3, backbone=backbone)
    a_hat, features, positional = graph_inputs(g, cfg)
    targets = one_hot(g.labels, g.num_classes)

    def train_loss():
        params = init_params(cfg, g.num_features, g.num_classes, ad.make_rng(0), num_nodes=g.num_nodes)
        result = forward(a_hat, features, positional, params, cfg, train=True, rng=ad.make_rng(1))
        return params.as_dict(), total_loss(result, targets, np.ones(g.num_nodes, dtype=bool), cfg)

    reference, loss = train_loss()
    unreleased_backward(loss)
    params, loss = train_loss()
    interior = [node for node in tape_walk(loss) if node._backward_fn is not None]
    assert len(interior) > 12
    ad.backward(loss)
    for node in interior:
        assert node.grad is None and node._backward_fn is None and node._parents == ()
    for name, p in params.items():
        assert p.grad is not None and np.array_equal(p.grad, reference[name].grad), name
    with pytest.raises(UsageError):
        ad.backward(loss)


def test_values_are_two_dimensional():
    assert ad.Value(3.0).data.shape == (1, 1)
    assert ad.Value([[1.0, 2.0]]).data.shape == (1, 2)
    with pytest.raises(UsageError):
        ad.Value(np.ones(3))  # 1-D input is a shape bug, not a row vector


def test_zero_grad_resets_between_steps():
    params = {"w": ad.Value(np.ones((2, 2)), requires_grad=True)}
    ad.backward(frobenius_sq(params["w"]))
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
            loss = frobenius_sq(ad.tanh(ad.matmul(x, w)))
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
        loss = frobenius_sq(out)
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
