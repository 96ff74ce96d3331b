"""Polynomial filter bases over the normalized-Laplacian spectrum [0, 2].

Three bases are supported: monomials in ``1 - lambda`` (powers of the
normalized adjacency), Bernstein polynomials of a fixed order, and Jacobi
polynomials evaluated at ``x = 1 - lambda``. Filters are applied with sparse
matrix-vector recurrences only; no eigendecomposition is ever required to
run a filter.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb

import numpy as np

from .errors import UsageError
from .graph import SparseOperator


@dataclass(frozen=True)
class Monomial:
    """Basis P_k(lambda) = (1 - lambda)^k: order-k adjacency powers."""


@dataclass(frozen=True)
class Bernstein:
    """Degree-``order`` Bernstein basis rescaled to [0, 2].

    P_k(lambda) = 2^{-order} * C(order, k) * (2 - lambda)^{order-k} * lambda^k.
    """

    order: int

    def __post_init__(self) -> None:
        if self.order < 0:
            raise UsageError(f"Bernstein order must be nonnegative, got {self.order}")


@dataclass(frozen=True)
class Jacobi:
    """Jacobi polynomials P_k^{(a, b)} evaluated at x = 1 - lambda."""

    a: float = 1.0
    b: float = 1.0

    def __post_init__(self) -> None:
        if not (-1 < self.a < np.inf and -1 < self.b < np.inf):  # NaN fails too
            raise UsageError(
                f"Jacobi parameters must be finite and exceed -1, got a={self.a}, b={self.b}"
            )


BasisKind = Monomial | Bernstein | Jacobi


def jacobi_step_coefficients(k: int, a: float, b: float) -> tuple[float, float, float]:
    """Three-term recurrence weights (cx, c0, c2) for Jacobi order ``k >= 2``.

    P_k(x) = (cx * x + c0) * P_{k-1}(x) - c2 * P_{k-2}(x).
    """
    # e = a + b + 2 summed as (1 + a) + (1 + b): both terms are positive, and
    # exact for a, b near -1, so the k = 2 divisors stay nonzero even with a
    # and b an ulp above -1.
    e = (1 + a) + (1 + b)
    s = 2 * k - 2 + e
    den = 2 * k * (k - 2 + e) * (2 * k - 4 + e)
    cx = (s - 1) * s * (2 * k - 4 + e) / den
    c0 = (s - 1) * (a * a - b * b) / den
    c2 = 2 * (k + a - 1) * (k + b - 1) * s / den
    return cx, c0, c2


def basis_eval(kind: BasisKind, k: int, lam: np.ndarray | float) -> np.ndarray | float:
    """Evaluate the k-th basis polynomial at spectrum points ``lam``."""
    if k < 0:
        raise UsageError(f"basis index must be nonnegative, got {k}")
    lam_arr = np.asarray(lam, dtype=np.float64)

    if isinstance(kind, Monomial):
        out = (1.0 - lam_arr) ** k
    elif isinstance(kind, Bernstein):
        if k > kind.order:
            raise UsageError(f"Bernstein index {k} exceeds basis order {kind.order}")
        weight = comb(kind.order, k) / float(2**kind.order)
        out = weight * (2.0 - lam_arr) ** (kind.order - k) * lam_arr**k
    else:
        x = 1.0 - lam_arr
        out, prev = np.ones_like(x), np.zeros_like(x)
        for cx, c0, c2 in recurrence_table(kind, k):
            out, prev = (cx * x + c0) * out - c2 * prev, out

    if np.isscalar(lam) or np.asarray(lam).ndim == 0:
        return float(out)
    return out


def _check_order(kind: BasisKind, order: int) -> None:
    if order < 0:
        raise UsageError(f"filter order must be nonnegative, got {order}")
    if isinstance(kind, Bernstein) and kind.order != order:
        raise UsageError(
            f"Bernstein basis order {kind.order} does not match filter order {order}"
        )


def recurrence_table(kind: BasisKind, order: int) -> np.ndarray:
    """Rows (cx_k, c0_k, c2_k), k = 1..order, of the basis recurrence.

    Q_0 = X and Q_k = (cx_k A_hat + c0_k) Q_{k-1} - c2_k Q_{k-2}. Monomial
    and Bernstein run the power recurrence (1, 0, 0); Bernstein then maps
    the powers onto its basis with :func:`bernstein_map`.
    """
    table = np.tile([1.0, 0.0, 0.0], (order, 1))
    if isinstance(kind, Jacobi) and order >= 1:
        table[0, :2] = ((1 + kind.a) + (1 + kind.b)) / 2.0, (kind.a - kind.b) / 2.0
        for k in range(2, order + 1):
            table[k - 1] = jacobi_step_coefficients(k, kind.a, kind.b)
    return table


@lru_cache(maxsize=None)
def bernstein_map(order: int) -> np.ndarray:
    """(order+1, order+1) map M with P_k(L_hat) = sum_j M[k, j] A_hat^j.

    Expands 2^{-order} C(order, k) (I + A_hat)^{order-k} (I - A_hat)^k; each
    entry is an exact integer divided by 2^order. The result is read-only.
    """
    out = np.zeros((order + 1, order + 1))
    for k in range(order + 1):
        for j in range(order + 1):
            count = sum(comb(order - k, i) * comb(k, j - i) * (-1) ** (j - i) for i in range(j + 1))
            out[k, j] = comb(order, k) * count / 2**order
    out.flags.writeable = False
    return out


def _step(a_hat: SparseOperator, row: np.ndarray, x: np.ndarray, x_prev: np.ndarray) -> np.ndarray:
    """(cx A_hat + c0) x - c2 x_prev for a table row, skipping no-op terms."""
    cx, c0, c2 = row
    out = a_hat.dot(x)
    if cx != 1.0:
        out = cx * out
    if c0 != 0.0:
        out = out + c0 * x
    if c2 != 0.0:
        out = out - c2 * x_prev
    return out


def apply_basis(
    kind: BasisKind, order: int, a_hat: SparseOperator, signals: np.ndarray
) -> list[np.ndarray]:
    """All basis images P_k(L_hat) @ signals for k = 0..order.

    Runs the three-term recurrence of :func:`recurrence_table`: ``order``
    sparse matvecs against the normalized adjacency for every basis (L_hat =
    I - A_hat is never formed). Each output matches the shape of ``signals``.
    """
    _check_order(kind, order)
    x = np.asarray(signals, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] != a_hat.shape[0]:
        raise UsageError(
            f"signals must be ({a_hat.shape[0]}, d), got shape {x.shape}"
        )
    terms = [x]
    for k, row in enumerate(recurrence_table(kind, order), start=1):
        terms.append(_step(a_hat, row, terms[k - 1], terms[k - 2]))  # c2_1 = 0: no Q_{-1}
    if isinstance(kind, Bernstein):
        return list(np.tensordot(bernstein_map(order), np.stack(terms), axes=1))
    return terms


def adjoint_basis(
    kind: BasisKind, order: int, a_hat: SparseOperator, signals: np.ndarray
) -> np.ndarray:
    """sum_k P_k(L_hat) @ signals[k], the adjoint of :func:`apply_basis`.

    ``signals`` is (order+1, N, d). Clenshaw summation over the same
    recurrence table takes ``order`` matvecs and stores no basis image. Each
    P_k(L_hat) is its own transpose only because A_hat is symmetric, so an
    operator not flagged symmetric is rejected.
    """
    _check_order(kind, order)
    if not a_hat.symmetric:
        raise UsageError("adjoint_basis needs a symmetric operator")
    ys = np.asarray(signals, dtype=np.float64)
    if ys.ndim != 3 or ys.shape[:2] != (order + 1, a_hat.shape[0]):
        raise UsageError(
            f"signals must be ({order + 1}, {a_hat.shape[0]}, d), got shape {ys.shape}"
        )
    if isinstance(kind, Bernstein):
        ys = np.tensordot(bernstein_map(order).T, ys, axes=1)
    # Clenshaw: b_k = Y_k + (cx_{k+1} A_hat + c0_{k+1}) b_{k+1} - c2_{k+2} b_{k+2},
    # so row k takes the c2 of row k + 1; c2_1 = 0 rolls into the last row.
    table = recurrence_table(kind, order)
    table[:, 2] = np.roll(table[:, 2], -1)
    acc = acc_next = ys[order]
    for k in range(order - 1, -1, -1):
        acc, acc_next = ys[k] + _step(a_hat, table[k], acc, acc_next), acc
    return acc


def combine_terms(weights: np.ndarray, terms: list[np.ndarray]) -> np.ndarray:
    """sum_k weights[k] * terms[k], accumulated in order k = 0..K."""
    out = weights[0] * terms[0]
    for weight, term in zip(weights[1:], terms[1:]):
        out = out + weight * term
    return out


def homogeneous_filter(
    coefficients: np.ndarray, kind: BasisKind, a_hat: SparseOperator, signals: np.ndarray
) -> np.ndarray:
    """Filter with one shared coefficient per order: sum_k c_k P_k(L) X."""
    coefficients = np.asarray(coefficients, dtype=np.float64)
    if coefficients.ndim != 1:
        raise UsageError(
            "shared coefficients must be 1-D; use diverse_filter for a "
            f"per-node table (got shape {coefficients.shape})"
        )
    return combine_terms(coefficients, apply_basis(kind, len(coefficients) - 1, a_hat, signals))


def diverse_filter(
    weights: np.ndarray, kind: BasisKind, a_hat: SparseOperator, signals: np.ndarray
) -> np.ndarray:
    """Filter with node-specific coefficients.

    ``weights`` is (N, order + 1); row i holds node i's coefficients, so the
    output row is sum_k weights[i, k] * (P_k(L) X)[i].
    """
    weights = np.asarray(weights, dtype=np.float64)
    if weights.ndim != 2 or weights.shape[0] != a_hat.shape[0]:
        raise UsageError(
            f"weights must be ({a_hat.shape[0]}, order + 1), got {weights.shape}"
        )
    terms = apply_basis(kind, weights.shape[1] - 1, a_hat, signals)
    return combine_terms(weights.T[:, :, None], terms)


def chebyshev_nodes(count: int, lo: float, hi: float) -> np.ndarray:
    """``count`` Chebyshev points of the first kind mapped onto [lo, hi]."""
    j = np.arange(count)
    base = np.cos((2 * j + 1) * np.pi / (2 * count))
    return (lo + hi) / 2.0 + (hi - lo) / 2.0 * base


def rescale_coefficients(
    coefficients: np.ndarray, ratio: float, kind: BasisKind
) -> np.ndarray:
    """Coefficients of g with g(x) = f(ratio * x) in the same basis.

    g is a polynomial of the degree of f, so its values at the order + 1
    Chebyshev nodes of [0, 2] fix it: those values are f sampled at the
    scaled nodes, and one solve against the basis matrix at the nodes
    returns g's coefficients. No power basis is formed. Exact for
    polynomials up to rounding; ``ratio == 1`` returns an exact copy.
    """
    coefficients = np.asarray(coefficients, dtype=np.float64)
    if coefficients.ndim != 1 or coefficients.size == 0:
        raise UsageError("coefficients must be a nonempty 1-D array")
    if not np.all(np.isfinite(coefficients)):
        raise UsageError("coefficients must be finite")
    if not np.isfinite(ratio) or ratio < 0:
        raise UsageError(f"rescaling ratio must be finite and nonnegative, got {ratio}")
    order = coefficients.size - 1
    _check_order(kind, order)
    if ratio == 1.0:
        return coefficients.copy()

    nodes = chebyshev_nodes(order + 1, 0.0, 2.0)
    basis_matrix = np.stack(
        [np.atleast_1d(basis_eval(kind, k, nodes)) for k in range(order + 1)], axis=1
    )
    return np.linalg.solve(basis_matrix, filter_response(coefficients, kind, ratio * nodes))


def filter_response(
    coefficients: np.ndarray, kind: BasisKind, grid: np.ndarray
) -> np.ndarray:
    """Scalar response g(lambda) = sum_k c_k P_k(lambda) on a spectrum grid."""
    coefficients = np.asarray(coefficients, dtype=np.float64)
    _check_order(kind, coefficients.size - 1)
    grid = np.asarray(grid, dtype=np.float64)
    out = np.zeros_like(grid)
    for k, c in enumerate(coefficients):
        out = out + c * np.atleast_1d(basis_eval(kind, k, grid))
    return out
