"""Reverse-mode automatic differentiation over dense float64 matrices.

Every tracked quantity is a :class:`Value` wrapping a 2-D array. Operations
build a DAG; :func:`backward` replays it once in reverse topological order,
accumulating gradients into the leaves. The op set is exactly what the
filter model needs - dense linear algebra, a sparse-times-dense product (the
graph operator), one fused ``input_projection`` (``dropout(act(x W + b))``
for constant dense or CSR inputs x), one fused ``position_refinement`` (the K
IPE steps of either mode, with or without the similarity term, read out as
the gate pre-activations next to the last state; their adjoint recurrence
backward), ``column_slice`` to split that readout, ``prefix_product`` for the
gate table, one fused ``polynomial_filter`` (the :mod:`.polynomials`
recurrence forward, its adjoint backward), a few elementwise
nonlinearities, masked cross-entropy, and one fused
``orthogonality_penalty``. Gradients never flow into sparse operators. A
fused op keeps on the tape only what its backward reads.
Inside :func:`no_grad` no op records its parents, so a pass whose gradient
nobody reads (the per-epoch evaluation) builds no tape. :func:`backward`
frees the tape it sweeps, node by node, so a graph is differentiated once.

Randomness (initialization, dropout masks) always comes from explicitly
passed generators built on a counter-based Philox stream, so every run is
reproducible from integer seeds alone.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator
from contextlib import contextmanager
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

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn", "_released")

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
        self._released = False

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

    def accumulate(self, grad: np.ndarray) -> None:
        """Add ``grad`` in; the first is adopted, not copied, so no one else may hold it."""
        if self.grad is None:
            self.grad = grad
        else:
            self.grad += grad

    def __repr__(self) -> str:
        return f"Value(shape={self.shape}, requires_grad={self.requires_grad})"


_grad_enabled = True


@contextmanager
def no_grad() -> Iterator[None]:
    """Inside the block every op returns an untracked value: no tape is built.

    Leaves keep their ``requires_grad`` and their arrays (nothing is copied);
    the previous setting comes back on exit, also after an exception. The
    setting is one module flag, so it holds for every caller in the process.
    """
    global _grad_enabled
    previous, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = previous


def _tracked(*parents: Value) -> bool:
    return any(p.requires_grad for p in parents)


def _make(data: np.ndarray, parents: tuple[Value, ...], backward_fn) -> Value:
    if _grad_enabled and _tracked(*parents):
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
            a.accumulate(_unbroadcast(grad, a.shape).copy())
        if b.requires_grad:
            b.accumulate(_unbroadcast(grad, b.shape).copy())

    return _make(a.data + b.data, (a, b), backward_fn)


def sub(a: Value, b: Value) -> Value:
    _check_broadcastable(a, b, "sub")

    def backward_fn(grad: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate(_unbroadcast(grad, a.shape).copy())
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


def input_projection(
    x: np.ndarray | SparseOperator, w: Value, b: Value, activation: str,
    p: float, train: bool, rng: np.random.Generator | None,
) -> Value:
    """``dropout(activation(x W + b))`` for a constant dense or CSR ``x``, as one op.

    ``activation`` is "relu" or "tanh". Dropout is inverted: the identity at eval
    time or at p = 0, otherwise the output times mask / (1 - p), the mask drawn
    from ``rng``. The float operations are those of the op-by-op chain. The tape
    keeps the output, the boolean mask and, for tanh, the activation before
    dropout, whose slope 1 - t² the backward needs. ReLU's slope is read back from
    the output, which is positive exactly where x W + b is. The backward gives
    ``b`` the column sums of the gradient of x W + b and ``w`` xᵀ times it, through
    CSR for a sparse ``x``; no gradient reaches ``x``.
    """
    if activation not in ("relu", "tanh"):
        raise UsageError(f"input_projection: activation must be relu or tanh, got {activation!r}")
    if not 0.0 <= p < 1.0:
        raise UsageError(f"dropout probability must lie in [0, 1), got {p}")
    matrix = x.matrix if isinstance(x, SparseOperator) else np.asarray(x, dtype=np.float64)
    if matrix.shape[1] != w.shape[0] or b.shape != (1, w.shape[1]):
        raise UsageError(f"input_projection: shapes {matrix.shape} x {w.shape} + {b.shape}")
    drop = train and p > 0.0
    if drop and rng is None:
        raise UsageError("train-time dropout needs an explicit generator")
    out = matrix @ w.data
    out += b.data
    smooth = activation == "tanh"
    if smooth:
        active = np.tanh(out, out=out)
    else:  # where(out > 0, out, 0): fmax maps NaN to 0, and + 0.0 turns -0.0 into 0.0
        np.fmax(out, 0.0, out=out)
        out += 0.0
    if drop:
        keep = rng.random(out.shape) >= p
        if smooth:
            out = active * (keep / (1.0 - p))
        else:
            out *= keep / (1.0 - p)

    def backward_fn(grad: np.ndarray) -> None:
        if drop:
            grad *= keep / (1.0 - p)
        if smooth:
            slope = active * active
            grad *= np.subtract(1.0, slope, out=slope)
        else:
            grad *= out > 0
        if b.requires_grad:
            b.accumulate(grad.sum(axis=0, keepdims=True))
        if w.requires_grad:
            w.accumulate(matrix.T @ grad)

    return _make(out, (w, b), backward_fn)


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


def position_refinement(
    p0: Value, op: SparseOperator, eta1: float, K: int, gate_w: Value, first: int = 0,
    w_ipe: Value | None = None, eta2: float = 0.0,
) -> Value:
    """The gate readout of the K+1 IPE states next to state K, as one (N, G + d) value.

    State 0 is ``p0`` and state k is ``tanh(eta1 p0 + (1 - eta1) m)``, with the mix
    ``m = (1 + eta2) A_hat p - eta2 S p`` for p = p_{k-1} and S = sigmoid(p W pᵀ),
    W = ``w_ipe``: the float operations of K ``ipe_step`` calls. Column j < G is state
    ``first + j`` times ``gate_w[:, j]`` for a (d, G) ``gate_w``, G = K + 1 - ``first``;
    the last d columns are state K. With ``eta2 = 0`` no N x N array is formed;
    otherwise a tracked op keeps the K matrices S. A tracked op holds each state
    once: state 0 is ``p0``'s own array and state K the readout's last d columns.
    An untracked one keeps only the state it forms and the one before. The
    backward runs the adjoint recurrence from k = K down to 1 with ``op`` itself,
    which needs a symmetric ``op``.
    It forms the gradient of state k as it reaches it, from the rank-1 term
    outer(g[:, j], gate_w[:, j]) of gate j = k - first (plus the readout's gradient
    at k = K), so no gradient of all K+1 states is ever held; ``gate_w`` gets
    stateᵀ g[:, j]. For the gradient g of a step's mix, its similarity term adds
    -eta2 Sᵀ g + G p Wᵀ + Gᵀ p W to the gradient of p and pᵀ G p to that of W,
    where G = -eta2 (g pᵀ) ⊙ S ⊙ (1 - S) is that of p W pᵀ.
    """
    n, d = p0.shape
    gates = K + 1 - first
    if not op.symmetric:
        raise UsageError("position_refinement needs a symmetric operator")
    shapes_ok = 0 <= first <= K and op.shape == (n, n) and gate_w.shape == (d, gates)
    if not shapes_ok or (eta2 and (w_ipe is None or w_ipe.shape != (d, d))):
        raise UsageError(f"position_refinement: K={K} steps of {op.shape} on {p0.shape}, "
                         f"gates {gate_w.shape} from order {first}, eta2={eta2}")
    eta1, eta2 = float(eta1), float(eta2)
    parents = (p0, gate_w, w_ipe) if eta2 else (p0, gate_w)
    keep = _grad_enabled and _tracked(*parents)
    w = gate_w.data
    out = np.empty((n, gates + d))
    p = p0.data
    # State 0 is p0's own array and state K is kept in the readout; a tape keeps
    # the states between in one block. Without one, p and pre roll through the steps.
    inner = np.empty((max(K - 1, 0) if keep else 0, n, d))
    anchor = eta1 * p
    sims = []
    if first == 0:
        out[:, 0] = p @ w[:, 0]
    for k in range(1, K + 1):
        pre = op.matrix @ p
        if eta2:
            sim = expit(p @ w_ipe.data @ p.T)
            pre *= 1.0 + eta2
            pre -= eta2 * (sim @ p)
            if keep:
                sims.append(sim)
        pre *= 1.0 - eta1
        pre += anchor
        p = np.tanh(pre, out=inner[k - 1] if k <= len(inner) else pre)
        if k >= first:
            out[:, k - first] = p @ w[:, k - first]
    out[:, gates:] = p
    states = [p0.data, *inner, out[:, gates:]] if K else [p0.data]

    def backward_fn(grad: np.ndarray) -> None:
        g_gate = grad[:, :gates]
        if gate_w.requires_grad:
            # A strided state K can round its product otherwise than a contiguous one.
            columns = [np.ascontiguousarray(states[first + j]).T @ g_gate[:, j]
                       for j in range(gates)]
            gate_w.accumulate(np.stack(columns, axis=1))

        def own(k: int) -> np.ndarray:  # from state k's gate, and at k = K from the readout
            j = k - first  # (N, 1) @ (1, d) forms np.outer's products without its ufunc buffers
            g = g_gate[:, j, None] @ w[None, :, j] if k >= first else np.zeros((n, d))
            return g + grad[:, gates:] if k == K else g

        g = own(K)  # the gradient of state k, from its gate and from state k + 1
        g_anchor = own(0) if K else g
        for k in range(K, 0, -1):
            if k == K:  # a ufunc would buffer the strided state K
                slope = np.array(states[k])
                slope *= slope
            else:
                slope = states[k] * states[k]
            g *= np.subtract(1.0, slope, out=slope)  # tanh′ = 1 - state²
            del slope  # three (N, d) arrays at a time: g_anchor, g and one more
            g_anchor += eta1 * g
            g *= 1.0 - eta1  # the gradient of the mix
            carry = op.matrix @ g
            if eta2:
                p, sim, w_sim = states[k - 1], sims[k - 1], w_ipe.data
                g_sp = -eta2 * g  # the gradient of S p
                carry *= 1.0 + eta2
                carry += sim.T @ g_sp
                g_logits = (g_sp @ p.T) * sim * (1.0 - sim)
                g_logits_p = g_logits @ p
                carry += g_logits_p @ w_sim.T + g_logits.T @ (p @ w_sim)
                if w_ipe.requires_grad:
                    w_ipe.accumulate(p.T @ g_logits_p)
            g = carry
            if k > 1:
                g += own(k - 1)
        if K:
            g_anchor += g
        if p0.requires_grad:
            p0.accumulate(g_anchor)

    return _make(out, parents, backward_fn)


def column_slice(x: Value, start: int, stop: int) -> Value:
    """Columns ``start:stop`` of ``x`` as a view: keeping it keeps all of ``x``'s array."""
    if not 0 <= start < stop <= x.shape[1]:
        raise UsageError(f"column_slice: columns {start}:{stop} of {x.shape}")

    def backward_fn(grad: np.ndarray) -> None:
        if x.requires_grad:
            full = np.zeros_like(x.data)
            full[:, start:stop] = grad
            x.accumulate(full)

    return _make(x.data[:, start:stop], (x,), backward_fn)


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
            x.accumulate(grad.T.copy())

    return _make(x.data.T.copy(), (x,), backward_fn)


FLAT_SPAN = 1e-12


def orthogonality_penalty(x: Value) -> Value:
    """||Uᵀ U - I||² (squared Frobenius norm) as a 1x1 value, U = ``x``'s unit columns.

    Each column of U is that of ``x`` centred to zero mean and scaled to unit l2
    norm. A flat column (its values span at most ``FLAT_SPAN``) has no direction: it
    maps to zeros, as ``c / max(||c||, eps)`` maps a zero vector, so it adds
    exactly 1 (its diagonal miss) and receives no gradient. Its centred values
    are rounding noise, not zero, so flatness is read from the span, not from
    the norm. The tape keeps the column means and norms and the (d, d)
    Uᵀ U - I; the backward forms the centred columns and U again from ``x``'s
    array, which the tape holds anyway, by the same subtraction and division.
    """
    mean = x.data.mean(axis=0, keepdims=True)
    unit = x.data - mean
    norms = np.sqrt(np.sum(unit * unit, axis=0, keepdims=True))
    # An infinite norm zeroes a flat column's unit vector and gradient below.
    norms[np.ptp(x.data, axis=0, keepdims=True) <= FLAT_SPAN] = np.inf
    unit /= norms
    miss = unit.T.copy() @ unit  # a product's rounding follows its operands' layout
    miss -= np.eye(x.shape[1])
    del unit

    def backward_fn(grad: np.ndarray) -> None:
        if not x.requires_grad:
            return
        g_miss = 2.0 * grad[0, 0] * miss
        unit = x.data - mean
        unit /= norms
        g_rows = g_miss @ unit.T  # the gradient of Uᵀ, then that of U itself
        rows = unit.T.copy()
        del unit
        g = rows.T @ g_miss
        del rows
        g += g_rows.T
        del g_rows
        # Through c / ||c||, then through the centring projection.
        centred = x.data - mean
        inner = np.sum(centred * g, axis=0, keepdims=True)
        g /= norms
        g -= centred * (inner / norms**3)
        del centred
        g -= g.mean(axis=0, keepdims=True)
        x.accumulate(g)

    return _make(np.array([[np.sum(miss * miss)]]), (x,), backward_fn)


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
    """Accumulate d(loss)/d(leaf) into every tracked leaf's ``grad``, freeing the tape.

    ``loss`` must be 1x1. Each graph node is visited exactly once, in reverse
    topological order. Once a node's backward has run (or was skipped, its
    grad being ``None``), the sweep releases it: its ``grad``, closure and
    parents are dropped, so the memory of the tape is reused by the gradients
    formed later in the same sweep. Its ``data`` stays readable. Leaves keep
    their grads. A later backward whose graph reaches a released node, such
    as a second call on the same loss, raises :class:`UsageError` before any
    gradient moves (the old intermediate gradients would have doubled them).
    """
    if loss.shape != (1, 1):
        raise UsageError(f"backward requires a 1x1 loss, got shape {loss.shape}")
    if loss._released:
        raise UsageError("backward was already called on this loss; rebuild the graph")
    loss._released = True
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
            if parent._released:
                raise UsageError("backward reached a node that an earlier backward released")
            if parent.requires_grad and id(parent) not in seen:
                stack.append((parent, False))

    loss.accumulate(np.ones((1, 1)))
    for node in reversed(topo):
        if node._backward_fn is None:
            continue  # a leaf keeps its grad
        if node.grad is not None:
            node._backward_fn(node.grad)
        node.grad, node._backward_fn, node._parents, node._released = None, None, (), True


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
    """Adam hyperparameters, per-parameter moment buffers and one scratch buffer each."""

    lr: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.0
    step: int = 0
    moments: dict[str, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)
    scratch: dict[str, np.ndarray] = field(default_factory=dict)


def _decayed_grad(p: Value, decay: float, out: np.ndarray) -> np.ndarray:
    """grad + decay * param in ``out``, or the grad itself when there is no decay.

    Formed afresh for each moment, so one buffer serves both moment updates.
    """
    if not decay:
        return p.grad
    np.multiply(p.data, decay, out=out)
    out += p.grad
    return out


def adam_step(params: dict[str, Value], state: AdamState) -> None:
    """One in-place Adam update with bias correction over every parameter with a grad.

    Weight decay is the additive-L2 convention: g = grad + decay * param joins
    the moment updates m = beta1 m + (1 - beta1) g and v = beta2 v + (1 - beta2) g^2.
    The two bias corrections fold into two scalars per step,
    step = lr / (1 - beta1^t) and scale = 1 / sqrt(1 - beta2^t), so that

        param -= step * m / (sqrt(v) * scale + eps),

    which is lr * m_hat / (sqrt(v_hat) + eps) up to rounding. Every term is
    computed in place in one scratch buffer per parameter, kept across steps,
    so a step after the first allocates nothing of parameter size. Parameters
    whose grad is ``None`` (untouched by the current graph) are skipped.
    """
    state.step += 1
    t = state.step
    beta1, beta2, decay = state.beta1, state.beta2, state.weight_decay
    step = state.lr / (1.0 - beta1**t)
    scale = 1.0 / math.sqrt(1.0 - beta2**t)
    for name, p in params.items():
        if p.grad is None:
            continue
        if name not in state.moments:
            state.moments[name] = (np.zeros_like(p.data), np.zeros_like(p.data))
            state.scratch[name] = np.empty_like(p.data)
        m, v = state.moments[name]
        buf = state.scratch[name]
        m *= beta1
        m += np.multiply(_decayed_grad(p, decay, buf), 1.0 - beta1, out=buf)
        g = _decayed_grad(p, decay, buf)
        np.multiply(g, g, out=buf)
        buf *= 1.0 - beta2
        v *= beta2
        v += buf
        np.sqrt(v, out=buf)
        buf *= scale
        buf += state.eps
        np.divide(m, buf, out=buf)
        buf *= step
        p.data -= buf
