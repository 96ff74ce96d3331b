"""Polynomial bases, recurrence filtering, and coefficient rescaling."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import eval_jacobi

from diverspec import (
    Bernstein,
    Jacobi,
    Monomial,
    apply_basis,
    basis_eval,
    diverse_filter,
    eigendecompose,
    filter_response,
    homogeneous_filter,
    normalized_operators,
    random_graph,
    rescale_coefficients,
)
from diverspec.errors import UsageError
from diverspec.graph import SparseOperator
from diverspec.polynomials import adjoint_basis, bernstein_map
from tests.conftest import connected_random_graph, toy_graph
from tests.test_induced_edges import small_graphs

GRID = np.linspace(0.0, 2.0, 21)


def test_monomial_values():
    assert basis_eval(Monomial(), 0, 1.7) == 1.0
    assert basis_eval(Monomial(), 1, 0.25) == 0.75
    assert np.allclose(basis_eval(Monomial(), 3, GRID), (1 - GRID) ** 3)


def test_bernstein_values():
    assert basis_eval(Bernstein(2), 1, 1.0) == 0.5
    # K=3, k=0 at lambda=0: 2^-3 * C(3,0) * 2^3 = 1
    assert basis_eval(Bernstein(3), 0, 0.0) == 1.0
    with pytest.raises(UsageError):
        basis_eval(Bernstein(2), 3, 1.0)


def test_bernstein_partition_of_unity():
    for order in (2, 5, 10):
        total = sum(basis_eval(Bernstein(order), k, GRID) for k in range(order + 1))
        assert np.abs(total - 1.0).max() < 1e-12


def test_jacobi_legendre_special_case():
    assert abs(basis_eval(Jacobi(0.0, 0.0), 2, 0.0) - 1.0) < 1e-15  # P_2(1) = 1
    x = 1 - GRID
    expected = 1.5 * x**2 - 0.5
    assert np.abs(basis_eval(Jacobi(0.0, 0.0), 2, GRID) - expected).max() < 1e-14


@pytest.mark.parametrize("ab", [(0.0, 0.0), (1.0, 1.0), (0.5, 0.5), (1.0, 0.5)])
def test_jacobi_recurrence_matches_reference(ab):
    a, b = ab
    x = 1 - GRID
    for k in range(6):
        ours = basis_eval(Jacobi(a, b), k, GRID)
        assert np.abs(ours - eval_jacobi(k, a, b, x)).max() < 1e-12


def test_jacobi_parameter_validation():
    with pytest.raises(UsageError):
        Jacobi(-1.0, 0.0)
    with pytest.raises(UsageError):
        Jacobi(0.0, -1.5)


def test_apply_basis_order_zero_is_identity(c3):
    x = np.arange(6, dtype=float).reshape(3, 2)
    a_hat, _ = normalized_operators(c3)
    for kind in (Monomial(), Bernstein(0), Jacobi(1.0, 1.0)):
        terms = apply_basis(kind, 0, a_hat, x)
        assert np.array_equal(terms[0], x)


def test_apply_basis_monomial_k2(k2):
    a_hat, _ = normalized_operators(k2)
    terms = apply_basis(Monomial(), 1, a_hat, np.array([[1.0], [0.0]]))
    assert np.allclose(terms[1], [[0.0], [1.0]])


def test_apply_basis_edgeless_graph():
    g = toy_graph([], labels=[0, 1, 0])
    a_hat, _ = normalized_operators(g)
    x = np.ones((3, 2))
    terms = apply_basis(Monomial(), 3, a_hat, x)
    assert np.array_equal(terms[0], x)
    for term in terms[1:]:
        assert np.all(term == 0.0)


def test_apply_basis_shape_mismatch(c3):
    a_hat, _ = normalized_operators(c3)
    with pytest.raises(UsageError):
        apply_basis(Monomial(), 2, a_hat, np.ones((4, 2)))


@pytest.mark.parametrize(
    "kind", [Monomial(), Bernstein(5), Jacobi(1.5, -0.5)], ids=["gpr", "bern", "jacobi"]
)
def test_adjoint_basis_matches_dense_oracle(kind):
    rng = np.random.default_rng(12)
    g = connected_random_graph(25, edge_prob=0.15, seed=6)
    a_hat, l_hat = normalized_operators(g)
    dec = eigendecompose(l_hat)
    ys = rng.standard_normal((6, g.num_nodes, 3))
    # Dense P_k(L_hat) = U diag(P_k(lambda)) U^T from the closed-form basis.
    dense = [
        dec.eigenvectors @ (basis_eval(kind, k, dec.eigenvalues)[:, None] * dec.eigenvectors.T)
        for k in range(6)
    ]
    expected = sum(p_k @ y for p_k, y in zip(dense, ys))
    assert np.abs(adjoint_basis(kind, 5, a_hat, ys) - expected).max() < 1e-10
    # Adjoint identity: sum_k <P_k x, Y_k> = <x, adjoint_basis(Y)>.
    x = rng.standard_normal((g.num_nodes, 3))
    lhs = sum(np.sum(t * y) for t, y in zip(apply_basis(kind, 5, a_hat, x), ys))
    assert abs(lhs - np.sum(x * adjoint_basis(kind, 5, a_hat, ys))) < 1e-10


@settings(max_examples=60, deadline=None)
@given(graph=small_graphs(), order=st.integers(0, 5), seed=st.integers(0, 2**32 - 1))
def test_bases_match_dense_oracle_on_small_graphs(graph, order, seed):
    # N = 1, edgeless graphs and isolated nodes (whose L_hat row is the unit
    # row), against P_k(L_hat) = U diag(P_k(lambda)) U^T.
    rng = np.random.default_rng(seed)
    a_hat, l_hat = normalized_operators(graph)
    dec = eigendecompose(l_hat)
    x = rng.standard_normal((graph.num_nodes, 2))
    ys = rng.standard_normal((order + 1, graph.num_nodes, 2))
    for kind in (Monomial(), Bernstein(order), Jacobi(1.5, -0.5)):
        dense = [
            dec.eigenvectors @ (basis_eval(kind, k, dec.eigenvalues)[:, None] * dec.eigenvectors.T)
            for k in range(order + 1)
        ]
        for term, p_k in zip(apply_basis(kind, order, a_hat, x), dense, strict=True):
            assert np.abs(term - p_k @ x).max() < 1e-10, kind
        expected = sum(p_k.T @ y for p_k, y in zip(dense, ys))
        assert np.abs(adjoint_basis(kind, order, a_hat, ys) - expected).max() < 1e-10, kind


def test_adjoint_basis_rejects_asymmetric_operator(c3):
    a_hat, _ = normalized_operators(c3)
    skewed = SparseOperator(a_hat.matrix, symmetric=False)
    with pytest.raises(UsageError):
        adjoint_basis(Monomial(), 2, skewed, np.ones((3, 3, 1)))


def test_adjoint_basis_shape_mismatch(c3):
    a_hat, _ = normalized_operators(c3)
    with pytest.raises(UsageError):
        adjoint_basis(Monomial(), 2, a_hat, np.ones((2, 3, 1)))


def test_bernstein_map_entries():
    # Order 2: P_0 = (I + A)^2 / 4, P_1 = (I - A^2) / 2, P_2 = (I - A)^2 / 4.
    expected = [[0.25, 0.5, 0.25], [0.5, 0.0, -0.5], [0.25, -0.5, 0.25]]
    assert np.array_equal(bernstein_map(2), expected)


def spectral_route(kind, coeffs, graph, x):
    _, l_hat = normalized_operators(graph)
    dec = eigendecompose(l_hat)
    g_of_lambda = sum(
        c * basis_eval(kind, k, dec.eigenvalues) for k, c in enumerate(coeffs)
    )
    return dec.eigenvectors @ (g_of_lambda[:, None] * (dec.eigenvectors.T @ x))


@pytest.mark.parametrize(
    "kind", [Monomial(), Bernstein(5), Jacobi(1.0, 1.0)], ids=["gpr", "bern", "jacobi"]
)
def test_recurrence_matches_spectral_route(kind):
    rng = np.random.default_rng(42)
    for seed in range(4):
        g = connected_random_graph(30 + 10 * seed, edge_prob=0.1, seed=seed)
        x = rng.standard_normal((g.num_nodes, 3))
        coeffs = rng.standard_normal(6)
        a_hat, _ = normalized_operators(g)
        ours = homogeneous_filter(coeffs, kind, a_hat, x)
        assert np.abs(ours - spectral_route(kind, coeffs, g, x)).max() < 1e-10


def test_homogeneous_filter_basis_vector_coefficients(k2):
    a_hat, _ = normalized_operators(k2)
    x = np.array([[1.0], [0.0]])
    assert np.array_equal(homogeneous_filter(np.array([1.0]), Monomial(), a_hat, x), x)
    z = homogeneous_filter(np.array([0.0, 1.0]), Monomial(), a_hat, x)
    assert np.allclose(z, [[0.0], [1.0]])


def test_homogeneous_filter_rejects_per_node_weights(c3):
    a_hat, _ = normalized_operators(c3)
    with pytest.raises(UsageError):
        homogeneous_filter(np.ones((3, 2)), Monomial(), a_hat, np.ones((3, 1)))


def test_diverse_filter_reduces_to_homogeneous(c3):
    a_hat, _ = normalized_operators(c3)
    rng = np.random.default_rng(1)
    x = rng.standard_normal((3, 2))
    alpha = rng.standard_normal(4)
    table = np.tile(alpha, (3, 1))
    z_diverse = diverse_filter(table, Monomial(), a_hat, x)
    z_homog = homogeneous_filter(alpha, Monomial(), a_hat, x)
    assert np.array_equal(z_diverse, z_homog)  # bitwise: same accumulation order


def test_diverse_filter_zero_weights(c3):
    a_hat, _ = normalized_operators(c3)
    z = diverse_filter(np.zeros((3, 3)), Bernstein(2), a_hat, np.ones((3, 2)))
    assert np.all(z == 0.0)


def test_diverse_filter_row_mixing(k2):
    a_hat, _ = normalized_operators(k2)
    x = np.array([[2.0], [3.0]])
    table = np.array([[1.0, 0.0], [0.0, 1.0]])  # row 0 keeps X, row 1 takes A X
    z = diverse_filter(table, Monomial(), a_hat, x)
    assert np.allclose(z, [[2.0], [2.0]])


def test_diverse_filter_row_count_mismatch(c3):
    a_hat, _ = normalized_operators(c3)
    with pytest.raises(UsageError):
        diverse_filter(np.ones((4, 2)), Monomial(), a_hat, np.ones((3, 1)))


def test_rescale_identity_ratio_is_exact():
    rng = np.random.default_rng(5)
    for kind in (Monomial(), Bernstein(6), Jacobi(1.0, 1.0)):
        alpha = rng.standard_normal(7)
        assert np.array_equal(rescale_coefficients(alpha, 1.0, kind), alpha)


def test_rescale_affine_function():
    # f(lambda) = 1 + lambda is (2, -1) in the (1-lambda)^k basis; shrinking
    # the argument by 0.5 gives 1 + 0.5*lambda, i.e. (1.5, -0.5).
    beta = rescale_coefficients(np.array([2.0, -1.0]), 0.5, Monomial())
    assert np.allclose(beta, [1.5, -0.5], atol=1e-12)


@pytest.mark.parametrize(
    "kind", [Monomial(), Bernstein(4), Jacobi(1.0, 1.0)], ids=["gpr", "bern", "jacobi"]
)
def test_rescale_satisfies_identity_on_grid(kind):
    rng = np.random.default_rng(9)
    grid = np.linspace(0.0, 2.0, 64)
    for _ in range(20):
        alpha = rng.standard_normal(5)
        ratio = rng.uniform(0.0, 1.0)
        beta = rescale_coefficients(alpha, ratio, kind)
        f_scaled = sum(a * basis_eval(kind, k, ratio * grid) for k, a in enumerate(alpha))
        g_val = sum(b * basis_eval(kind, k, grid) for k, b in enumerate(beta))
        assert np.abs(f_scaled - g_val).max() < 1e-8


def test_rescale_input_validation():
    with pytest.raises(UsageError):
        rescale_coefficients(np.ones((2, 2)), 0.5, Monomial())
    with pytest.raises(UsageError):
        rescale_coefficients(np.ones(3), -0.1, Monomial())


def test_filter_response_basics():
    grid = np.linspace(0.0, 2.0, 101)
    assert np.all(filter_response(np.zeros(4), Monomial(), grid) == 0.0)
    assert np.allclose(filter_response(np.array([1.0, 0.0, 0.0]), Monomial(), grid), 1.0)
    ones = np.ones(6)
    assert np.abs(filter_response(ones, Bernstein(5), grid) - 1.0).max() < 1e-12
