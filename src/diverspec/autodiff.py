"""Reverse-mode automatic differentiation over dense float64 matrices.

Every tracked quantity is a :class:`Value` wrapping a 2-D array. Operations
build a DAG; :func:`backward` replays it once in reverse topological order,
accumulating gradients into the leaves. The op set is exactly what the
filter model needs - dense linear algebra, ``column_dots`` and
``prefix_product`` for the gate table, one fused ``polynomial_filter`` (the
:mod:`.polynomials` recurrence forward, its adjoint backward), a few
elementwise nonlinearities, masked cross-entropy, and a column-normalization
used by the orthogonality penalty. Gradients never flow into sparse graph operators.

Randomness (initialization, dropout masks) always comes from explicitly
passed generators built on a counter-based Philox stream, so every run is
reproducible from integer seeds alone.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit

from .errors import DataError, UsageError
from .graph import SparseOperator
from .polynomials import BasisKind, adjoint_basis, apply_basis, combine_terms


def make_rng(*entropy: int) -> np.random.Generator:
    """Philox generator keyed by a tuple of nonnegative integers.

    The counter-based stream makes derived seeds cheap and collision-free:
    ``make_rng(base, run, split)`` and ``make_rng(base, run, split + 1)``
    are independent.
    """
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(list(entropy))))


class Value:
    """Node in the autodiff graph: data, accumulated gradient, provenance."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn", "_backward_done")

    def __init__(
        self,
        data: np.ndarray | float | list,
        requires_grad: bool = False,
        _parents: tuple["Value", ...] = (),
        _backward_fn: Callable[[np.ndarray], None] | None = None,
    ) -> None:
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim == 0:
            arr = arr.reshape(1, 1)
        if arr.ndim != 2:
            raise UsageError(f"values must be 2-D matrices, got shape {arr.shape}")
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents = _parents
        self._backward_fn = _backward_fn
        self._backward_done = False

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

    def accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = grad.copy()  # ops such as ``add`` hand one array to several parents
        else:
            self.grad += grad

    def __repr__(self) -> str:
        return f"Value(shape={self.shape}, requires_grad={self.requires_grad})"


def _tracked(*parents: Value) -> bool:
    return any(p.requires_grad for p in parents)


def _make(data: np.ndarray, parents: tuple[Value, ...], backward_fn) -> Value:
    if _tracked(*parents):
        return Value(data, requires_grad=True, _parents=parents, _backward_fn=backward_fn)
    return Value(data)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """Sum a broadcast gradient back down to the original operand shape."""
    out = grad
    if shape[0] == 1 and grad.shape[0] != 1:
        out = out.sum(axis=0, keepdims=True)
    if shape[1] == 1 and grad.shape[1] != 1:
        out = out.sum(axis=1, keepdims=True)
    return out


def _check_broadcastable(a: Value, b: Value, op: str) -> None:
    for da, db in zip(a.shape, b.shape):
        if da != db and da != 1 and db != 1:
            raise UsageError(f"{op}: incompatible shapes {a.shape} and {b.shape}")


def add(a: Value, b: Value) -> Value:
    _check_broadcastable(a, b, "add")

    def backward_fn(grad: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate(_unbroadcast(grad, a.shape))
        if b.requires_grad:
            b.accumulate(_unbroadcast(grad, b.shape))

    return _make(a.data + b.data, (a, b), backward_fn)


def sub(a: Value, b: Value) -> Value:
    _check_broadcastable(a, b, "sub")

    def backward_fn(grad: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate(_unbroadcast(grad, a.shape))
        if b.requires_grad:
            b.accumulate(-_unbroadcast(grad, b.shape))

    return _make(a.data - b.data, (a, b), backward_fn)


def scalar_mul(a: Value, c: float) -> Value:
    c = float(c)

    def backward_fn(grad: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate(c * grad)

    return _make(c * a.data, (a,), backward_fn)


def hadamard(a: Value, b: Value) -> Value:
    """Elementwise product; either operand may broadcast."""
    _check_broadcastable(a, b, "hadamard")

    def backward_fn(grad: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate(_unbroadcast(grad * b.data, a.shape))
        if b.requires_grad:
            b.accumulate(_unbroadcast(grad * a.data, b.shape))

    return _make(a.data * b.data, (a, b), backward_fn)


def matmul(a: Value, b: Value) -> Value:
    if a.shape[1] != b.shape[0]:
        raise UsageError(f"matmul: inner dimensions {a.shape} x {b.shape} do not match")

    def backward_fn(grad: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate(grad @ b.data.T)
        if b.requires_grad:
            b.accumulate(a.data.T @ grad)

    return _make(a.data @ b.data, (a, b), backward_fn)


def sparse_dense_matmul(op: SparseOperator, x: Value) -> Value:
    """Left-multiply by a fixed sparse operator; no gradient reaches ``op``."""
    if op.shape[1] != x.shape[0]:
        raise UsageError(f"sparse matmul: shapes {op.shape} x {x.shape} do not match")

    def backward_fn(grad: np.ndarray) -> None:
        if x.requires_grad:
            x.accumulate(op.matrix.T @ grad)

    return _make(op.matrix @ x.data, (x,), backward_fn)


def polynomial_filter(table: Value, x: Value, kind: BasisKind, op: SparseOperator) -> Value:
    """Node-wise filter sum_k diag(table[:, k]) P_k(L_hat) x for an (N, K+1) or (1, K+1) table.

    The forward runs :func:`apply_basis`; the gradient w.r.t. ``x`` runs
    :func:`adjoint_basis`, which needs a symmetric ``op``. No gradient reaches ``op``.
    """
    if table.shape[0] not in (1, x.shape[0]):
        raise UsageError(f"polynomial_filter: table {table.shape} must have 1 or {x.shape[0]} rows")
    order = table.shape[1] - 1
    terms = apply_basis(kind, order, op, x.data)
    columns = table.data.T[:, :, None]

    def backward_fn(grad: np.ndarray) -> None:
        if table.requires_grad:
            per_node = np.stack([(grad * t).sum(axis=1) for t in terms], axis=1)
            table.accumulate(_unbroadcast(per_node, table.shape))
        if x.requires_grad:
            x.accumulate(adjoint_basis(kind, order, op, columns * grad))

    return _make(combine_terms(columns, terms), (table, x), backward_fn)


def column_dots(states: Sequence[Value], w: Value) -> Value:
    """The (N, G) table whose column k is ``states[k] @ w[:, k]`` for G states."""
    shapes = {s.shape for s in states}
    if len(states) != w.shape[1] or shapes != {(states[0].shape[0], w.shape[0])}:
        raise UsageError(f"column_dots: states {sorted(shapes)} do not pair with w {w.shape}")

    def backward_fn(grad: np.ndarray) -> None:
        if w.requires_grad:
            w.accumulate(np.stack([s.data.T @ grad[:, k] for k, s in enumerate(states)], axis=1))
        for k, s in enumerate(states):
            if s.requires_grad:
                s.accumulate(np.outer(grad[:, k], w.data[:, k]))

    out = np.stack([s.data @ w.data[:, k] for k, s in enumerate(states)], axis=1)
    return _make(out, (*states, w), backward_fn)


def prefix_product(x: Value) -> Value:
    """(N, K+1) running products ``prod_{s<k} x[:, s]`` of an (N, K) value's columns.

    Column 0 is the empty product 1. The backward never divides: an entry may be 0.
    """
    out = np.ones((x.shape[0], x.shape[1] + 1))
    np.cumprod(x.data, axis=1, out=out[:, 1:])

    def backward_fn(grad: np.ndarray) -> None:
        if x.requires_grad:
            # suffix[:, s] = sum_{k>s} grad[:, k] * prod_{s<j<k} x[:, j]
            suffix = np.empty_like(x.data)
            suffix[:, -1] = grad[:, -1]
            for s in range(x.shape[1] - 2, -1, -1):
                suffix[:, s] = grad[:, s + 1] + x.data[:, s + 1] * suffix[:, s + 1]
            x.accumulate(out[:, :-1] * suffix)

    return _make(out, (x,), backward_fn)


def sigmoid(x: Value) -> Value:
    out = expit(x.data)

    def backward_fn(grad: np.ndarray) -> None:
        if x.requires_grad:
            x.accumulate(grad * out * (1.0 - out))

    return _make(out, (x,), backward_fn)


def tanh(x: Value) -> Value:
    out = np.tanh(x.data)

    def backward_fn(grad: np.ndarray) -> None:
        if x.requires_grad:
            x.accumulate(grad * (1.0 - out * out))

    return _make(out, (x,), backward_fn)


def relu(x: Value) -> Value:
    mask = x.data > 0

    def backward_fn(grad: np.ndarray) -> None:
        if x.requires_grad:
            x.accumulate(grad * mask)

    return _make(np.where(mask, x.data, 0.0), (x,), backward_fn)


def transpose(x: Value) -> Value:
    def backward_fn(grad: np.ndarray) -> None:
        if x.requires_grad:
            x.accumulate(grad.T)

    return _make(x.data.T.copy(), (x,), backward_fn)


def dropout(x: Value, p: float, train: bool, rng: np.random.Generator | None) -> Value:
    """Inverted dropout: identity at eval time, mask / (1 - p) at train time."""
    if not 0.0 <= p < 1.0:
        raise UsageError(f"dropout probability must lie in [0, 1), got {p}")
    if not train or p == 0.0:
        return x
    if rng is None:
        raise UsageError("train-time dropout needs an explicit generator")
    mask = (rng.random(x.shape) >= p) / (1.0 - p)

    def backward_fn(grad: np.ndarray) -> None:
        if x.requires_grad:
            x.accumulate(grad * mask)

    return _make(x.data * mask, (x,), backward_fn)


def frobenius_sq(x: Value) -> Value:
    """Squared Frobenius norm as a 1x1 value."""

    def backward_fn(grad: np.ndarray) -> None:
        if x.requires_grad:
            x.accumulate(2.0 * grad[0, 0] * x.data)

    return _make(np.array([[np.sum(x.data * x.data)]]), (x,), backward_fn)


FLAT_SPAN = 1e-12


def column_normalize(x: Value) -> Value:
    """Center each column to zero mean and rescale it to unit l2 norm.

    A flat column (its values span at most ``FLAT_SPAN``) has no direction:
    it maps to zeros and receives no gradient, as ``c / max(||c||, eps)``
    maps a zero vector. Its centered values are rounding noise, not zero,
    so flatness is read from the span, not from the norm.
    """
    centered = x.data - x.data.mean(axis=0, keepdims=True)
    norms = np.sqrt(np.sum(centered * centered, axis=0, keepdims=True))
    # An infinite norm zeroes a flat column's output and gradient below.
    norms[np.ptp(x.data, axis=0, keepdims=True) <= FLAT_SPAN] = np.inf
    out = centered / norms

    def backward_fn(grad: np.ndarray) -> None:
        if x.requires_grad:
            # d/dx of c/||c|| composed with the centering projection.
            inner = np.sum(centered * grad, axis=0, keepdims=True)
            g_centered = grad / norms - centered * (inner / norms**3)
            x.accumulate(g_centered - g_centered.mean(axis=0, keepdims=True))

    return _make(out, (x,), backward_fn)


def softmax_cross_entropy(logits: Value, targets: np.ndarray, mask: np.ndarray) -> Value:
    """Mean cross-entropy between row softmaxes and one-hot targets on a mask.

    ``targets`` is (N, C) one-hot and ``mask`` a boolean (N,) selector; the
    mean runs over masked rows only. An empty mask raises
    :class:`DataError`.
    """
    targets = np.asarray(targets, dtype=np.float64)
    mask = np.asarray(mask, dtype=bool)
    if targets.shape != logits.shape:
        raise UsageError(f"targets {targets.shape} must match logits {logits.shape}")
    if mask.shape != (logits.shape[0],):
        raise UsageError(f"mask must be ({logits.shape[0]},), got {mask.shape}")
    count = int(mask.sum())
    if count == 0:
        raise DataError("cross-entropy mask selects no rows")

    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    loss = -np.sum(targets[mask] * log_probs[mask]) / count

    def backward_fn(grad: np.ndarray) -> None:
        if logits.requires_grad:
            probs = np.exp(log_probs)
            g = (probs - targets) * mask[:, None] / count
            logits.accumulate(grad[0, 0] * g)

    return _make(np.array([[loss]]), (logits,), backward_fn)


def backward(loss: Value) -> None:
    """Accumulate d(loss)/d(leaf) into every tracked leaf's ``grad``.

    ``loss`` must be 1x1. Each graph node is visited exactly once; running
    backward twice from the same node without rebuilding the graph is an
    error (gradients would silently double).
    """
    if loss.shape != (1, 1):
        raise UsageError(f"backward requires a 1x1 loss, got shape {loss.shape}")
    if loss._backward_done:
        raise UsageError("backward was already called on this loss; rebuild the graph")
    loss._backward_done = True
    if not loss.requires_grad:
        return

    topo: list[Value] = []
    seen: set[int] = set()
    stack: list[tuple[Value, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if parent.requires_grad and id(parent) not in seen:
                stack.append((parent, False))

    loss.accumulate(np.ones((1, 1)))
    for node in reversed(topo):
        if node._backward_fn is not None and node.grad is not None:
            node._backward_fn(node.grad)


def zero_grad(params: dict[str, Value]) -> None:
    for p in params.values():
        p.grad = None


def glorot_uniform(
    rows: int, cols: int, rng: np.random.Generator, fan_in: int | None = None, fan_out: int | None = None
) -> np.ndarray:
    """Uniform(-limit, limit) with limit = sqrt(6 / (fan_in + fan_out))."""
    fan_in = rows if fan_in is None else fan_in
    fan_out = cols if fan_out is None else fan_out
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(rows, cols))


@dataclass
class AdamState:
    """Adam hyperparameters plus per-parameter moment buffers."""

    lr: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.0
    step: int = 0
    moments: dict[str, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)


def adam_step(params: dict[str, Value], state: AdamState) -> None:
    """One in-place Adam update with bias correction over every parameter with a grad.

    Weight decay is the additive-L2 convention: decay * param joins the
    gradient before the moment updates. Parameters whose grad is ``None``
    (untouched by the current graph) are skipped.
    """
    state.step += 1
    t = state.step
    for name, p in params.items():
        if p.grad is None:
            continue
        g = p.grad
        if state.weight_decay:
            g = g + state.weight_decay * p.data
        if name not in state.moments:
            state.moments[name] = (np.zeros_like(p.data), np.zeros_like(p.data))
        m, v = state.moments[name]
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * (g * g)
        m_hat = m / (1.0 - state.beta1**t)
        v_hat = v / (1.0 - state.beta2**t)
        p.data -= state.lr * m_hat / (np.sqrt(v_hat) + state.eps)
