"""Reverse-mode automatic differentiation over float64 numpy arrays.

Composing the ops below builds an implicit tape of ``Node``s; ``backprop``
seeds the output gradient and pushes it through the tape in reverse
topological order, accumulating ``.grad`` on the nodes it reaches. Given the
leaves whose gradients are wanted (``wrt``), it prunes the tape: a push into
an input runs only when that input lies on a path to a wanted leaf, so no
gradient is computed for constants such as observations and targets, or for
networks held fixed in a phase. Pruning skips whole pushes and never
reorders the ones that run, so the wanted gradients are bit-identical to an
unpruned pass. The op set covers MLP chains (affine, relu, tanh) and the
scalar losses the agents build on top of them; it is not a general graph
framework.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "Node",
    "lift",
    "affine",
    "add",
    "sub",
    "neg",
    "mul",
    "scale",
    "add_const",
    "relu",
    "tanh",
    "tanh_head",
    "exp",
    "log",
    "clip",
    "square",
    "minimum",
    "log_one_minus_tanh_sq",
    "concat_cols",
    "slice_cols",
    "sum_all",
    "mean_all",
    "sum_rows",
    "backprop",
]

# Keeps tanh heads strictly inside (-1, 1); float64 tanh rounds to exactly
# +/-1.0 for |x| >~ 19.
TANH_HEAD_BOUND = 1.0 - 1e-12


class Node:
    """One value in the computation graph.

    ``wanted`` is set by ``backprop``: whether a gradient must flow into this
    node. Push functions skip inputs that are not wanted.
    """

    __slots__ = ("value", "grad", "parents", "_push", "wanted")

    def __init__(self, value, parents=(), push=None) -> None:
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = None
        self.parents = parents
        self._push = push
        self.wanted = True

    def __repr__(self) -> str:
        return f"Node(shape={self.value.shape})"


def lift(value) -> Node:
    """Wrap an array as a leaf node."""
    return Node(value)


def _acc(node: Node, g: np.ndarray) -> None:
    node.grad = g if node.grad is None else node.grad + g


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``g`` down to ``shape`` (reverses numpy broadcasting)."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def affine(x: Node, w: Node, b: Node) -> Node:
    """x @ w + b, the bias broadcast over rows; one node per layer."""
    value = x.value @ w.value
    value += b.value

    def push(g):
        if x.wanted:
            _acc(x, g @ w.value.T)
        if w.wanted:
            _acc(w, x.value.T @ g)
        if b.wanted:
            _acc(b, _unbroadcast(g, b.value.shape))

    return Node(value, (x, w, b), push)


def add(a: Node, b: Node) -> Node:
    value = a.value + b.value

    def push(g):
        if a.wanted:
            _acc(a, _unbroadcast(g, a.value.shape))
        if b.wanted:
            _acc(b, _unbroadcast(g, b.value.shape))

    return Node(value, (a, b), push)


def sub(a: Node, b: Node) -> Node:
    value = a.value - b.value

    def push(g):
        if a.wanted:
            _acc(a, _unbroadcast(g, a.value.shape))
        if b.wanted:
            _acc(b, _unbroadcast(-g, b.value.shape))

    return Node(value, (a, b), push)


def neg(a: Node) -> Node:
    def push(g):
        if a.wanted:
            _acc(a, -g)

    return Node(-a.value, (a,), push)


def mul(a: Node, b: Node) -> Node:
    value = a.value * b.value

    def push(g):
        if a.wanted:
            _acc(a, _unbroadcast(g * b.value, a.value.shape))
        if b.wanted:
            _acc(b, _unbroadcast(g * a.value, b.value.shape))

    return Node(value, (a, b), push)


def scale(a: Node, c: float) -> Node:
    c = float(c)

    def push(g):
        if a.wanted:
            _acc(a, g * c)

    return Node(a.value * c, (a,), push)


def add_const(a: Node, c: float) -> Node:
    c = float(c)

    def push(g):
        if a.wanted:
            _acc(a, g)

    return Node(a.value + c, (a,), push)


def relu(a: Node) -> Node:
    """where(a > 0, a, +0.0), computed as fmax(a, 0) + 0.0.

    fmax maps NaN to 0 and adding +0.0 turns -0.0 into +0.0, so every entry
    equals the where() form bit for bit, at a fraction of its cost.
    """
    mask = a.value > 0.0
    value = np.fmax(a.value, 0.0)
    value += 0.0

    def push(g):
        if a.wanted:
            _acc(a, g * mask)

    return Node(value, (a,), push)


def tanh(a: Node) -> Node:
    t = np.tanh(a.value)

    def push(g):
        if a.wanted:
            _acc(a, g * (1.0 - t * t))

    return Node(t, (a,), push)


def tanh_head(a: Node) -> Node:
    """tanh clamped to +/-TANH_HEAD_BOUND so outputs stay strictly in (-1, 1)."""
    t = np.tanh(a.value)
    clamped = np.clip(t, -TANH_HEAD_BOUND, TANH_HEAD_BOUND)

    def push(g):
        if a.wanted:
            _acc(a, g * (1.0 - t * t))

    return Node(clamped, (a,), push)


def exp(a: Node) -> Node:
    e = np.exp(a.value)

    def push(g):
        if a.wanted:
            _acc(a, g * e)

    return Node(e, (a,), push)


def log(a: Node) -> Node:
    def push(g):
        if a.wanted:
            _acc(a, g / a.value)

    return Node(np.log(a.value), (a,), push)


def clip(a: Node, lo: float, hi: float) -> Node:
    mask = (a.value >= lo) & (a.value <= hi)

    def push(g):
        if a.wanted:
            _acc(a, g * mask)

    return Node(np.clip(a.value, lo, hi), (a,), push)


def square(a: Node) -> Node:
    def push(g):
        if a.wanted:
            _acc(a, g * (2.0 * a.value))

    return Node(a.value * a.value, (a,), push)


def minimum(a: Node, b: Node) -> Node:
    """Elementwise min; gradient follows the smaller input (ties go to ``a``)."""
    take_a = a.value <= b.value

    def push(g):
        if a.wanted:
            _acc(a, _unbroadcast(g * take_a, a.value.shape))
        if b.wanted:
            _acc(b, _unbroadcast(g * ~take_a, b.value.shape))

    return Node(np.where(take_a, a.value, b.value), (a, b), push)


def log_one_minus_tanh_sq(a: Node) -> Node:
    """log(1 - tanh(a)^2) computed as 2*(ln2 - a - softplus(-2a)); d/da = -2*tanh(a)."""
    u = a.value
    value = 2.0 * (math.log(2.0) - u - np.logaddexp(0.0, -2.0 * u))
    t = np.tanh(u)

    def push(g):
        if a.wanted:
            _acc(a, g * (-2.0 * t))

    return Node(value, (a,), push)


def concat_cols(a: Node, b: Node) -> Node:
    na = a.value.shape[1]

    def push(g):
        if a.wanted:
            _acc(a, g[:, :na])
        if b.wanted:
            _acc(b, g[:, na:])

    return Node(np.concatenate([a.value, b.value], axis=1), (a, b), push)


def slice_cols(a: Node, start: int, stop: int) -> Node:
    def push(g):
        if a.wanted:
            full = np.zeros_like(a.value)
            full[:, start:stop] = g
            _acc(a, full)

    return Node(a.value[:, start:stop].copy(), (a,), push)


def sum_all(a: Node) -> Node:
    shape = a.value.shape

    def push(g):
        if a.wanted:
            _acc(a, np.broadcast_to(g, shape).astype(np.float64))

    return Node(a.value.sum(), (a,), push)


def mean_all(a: Node) -> Node:
    n = a.value.size
    shape = a.value.shape

    def push(g):
        if a.wanted:
            _acc(a, np.broadcast_to(g / n, shape).astype(np.float64))

    return Node(a.value.mean(), (a,), push)


def sum_rows(a: Node) -> Node:
    """Sum over axis 1, keeping the column dimension: [B, D] -> [B, 1]."""
    cols = a.value.shape[1]

    def push(g):
        if a.wanted:
            _acc(a, np.repeat(g, cols, axis=1))

    return Node(a.value.sum(axis=1, keepdims=True), (a,), push)


def _topo_order(root: Node) -> list[Node]:
    order: list[Node] = []
    seen: set[int] = set()
    stack: list[tuple[Node, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node.parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    return order


def backprop(root: Node, upstream, wrt=None) -> None:
    """Accumulate gradients of ``root`` (weighted by ``upstream``) on the tape.

    ``upstream`` must match the root's shape; for scalar losses pass 1.0.
    With ``wrt`` (the nodes whose gradients are wanted), pushes run only
    along paths from the root to one of them; without it, into every node.
    Unreached or unwanted nodes keep ``grad`` = None (treat as zero).
    """
    g0 = np.asarray(upstream, dtype=np.float64)
    if g0.shape != root.value.shape:
        raise ValueError(
            f"upstream gradient shape {g0.shape} does not match output {root.value.shape}"
        )
    order = _topo_order(root)
    if wrt is None:
        for node in order:
            node.grad = None
            node.wanted = True
    else:
        targets = {id(node) for node in wrt}
        # Parents come before children in ``order``.
        for node in order:
            node.grad = None
            node.wanted = id(node) in targets or any(p.wanted for p in node.parents)
    root.grad = g0.copy()
    for node in reversed(order):
        if node._push is not None and node.grad is not None:
            node._push(node.grad)
