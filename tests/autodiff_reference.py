"""The tape autodiff and the three loss graphs it ran: the gradient oracle.

The gradient phases in ``crashrl.agents.updates`` run a recorded MLP forward
(``mlp_graph``) and a hand-written chain rule (``autodiff.backprop``). They
must equal what this tape computes, bit for bit: the same operations on the
same arrays in the same order. ``critic_update`` and ``actor_update`` below are
the gradient phases as the tape ran them, and ``tests/test_tape_oracle.py``
compares them with the package's phases.

Composing the ops builds an implicit tape of ``Node``s; ``backprop`` seeds the
output gradient and pushes it through the tape in reverse topological order,
accumulating ``.grad`` on the nodes it reaches. Given the leaves whose
gradients are wanted (``wrt``), it prunes the tape: a push into an input runs
only when that input lies on a path to a wanted leaf. Pruning skips whole
pushes and never reorders the ones that run. Every op computes in its inputs'
dtype (numpy promotion, Python scalars weak).
"""

from __future__ import annotations

import math
from functools import reduce

import numpy as np

from crashrl.agents.agent import LOG_STD_MAX, LOG_STD_MIN
from crashrl.agents.replay import ACTION_DIM
from crashrl.agents.targets import LOG_TWO_PI, compute_targets
from crashrl.numkit import DTYPE, adam_step, soft_update


class Node:
    """One value in the computation graph.

    ``wanted`` is set by ``backprop``: whether a gradient must flow into this
    node. Push functions skip inputs that are not wanted.
    """

    __slots__ = ("value", "grad", "parents", "_push", "wanted")

    def __init__(self, value, parents=(), push=None) -> None:
        self.value = np.asarray(value)
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
    """tanh clamped to +/- the largest value below 1 in its dtype, so outputs
    stay strictly in (-1, 1)."""
    t = np.tanh(a.value)
    bound = np.nextafter(t.dtype.type(1), t.dtype.type(0))
    clamped = np.clip(t, -bound, bound)

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
            _acc(a, np.broadcast_to(g, shape).astype(g.dtype))

    return Node(a.value.sum(), (a,), push)


def mean_all(a: Node) -> Node:
    n = a.value.size
    shape = a.value.shape

    def push(g):
        if a.wanted:
            _acc(a, np.broadcast_to(g / n, shape).astype(g.dtype))

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

    ``upstream`` must match the root's shape; for scalar losses pass 1.0. It
    is cast to the root's dtype.
    With ``wrt`` (the nodes whose gradients are wanted), pushes run only
    along paths from the root to one of them; without it, into every node.
    Unreached or unwanted nodes keep ``grad`` = None (treat as zero).
    """
    g0 = np.asarray(upstream, dtype=root.value.dtype)
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


# ------------------------------------------------------------------ MLP graphs


def mlp_graph(nodes, x: Node) -> Node:
    """The forward graph of one network on its lifted (W, b) leaves."""
    h = x
    for i, (w, b) in enumerate(nodes):
        h = affine(h, w, b)
        if i < len(nodes) - 1:
            h = relu(h)
    return h


def lift_params(net) -> list[tuple[Node, Node]]:
    """One graph leaf per layer's weight and bias of a one-network ``Net``
    (such as ``agent.critics[i]``), viewing the parameters (no copy)."""
    assert len(net) == 1, "the tape lifts one network"
    return [(lift(w[0]), lift(b[0, 0])) for w, b in net.layers]


def param_leaves(nodes) -> list[Node]:
    """The lifted parameters' leaves in the network's layout order."""
    return [leaf for pair in nodes for leaf in pair]


def flat_grads(nodes) -> np.ndarray:
    """Gradients of lifted parameters as one flat vector, in the network's layout.

    Leaves the last backprop did not reach contribute zeros.
    """
    return np.concatenate(
        [
            np.zeros(node.value.size, node.value.dtype)
            if node.grad is None
            else node.grad.reshape(-1)
            for node in param_leaves(nodes)
        ]
    )


# ------------------------------------------------------------------ loss graphs


def _squash01_node(t: Node) -> Node:
    return scale(add_const(t, 1.0), 0.5)


def deterministic_head(out: Node) -> Node:
    """A deterministic actor's action from its network output."""
    return _squash01_node(tanh_head(out))


def critic_loss(agent, batch, targets):
    """Graph for the summed critic losses, plus the nu-weighted coupling.

    Returns the loss node, each critic's parameter leaves, each critic's MSE
    node, and the coupling term's value (0.0 when it is off).
    """
    cfg = agent.cfg
    s = lift(batch.s)
    a = lift(batch.action)
    x = concat_cols(s, a)
    y = lift(targets)

    critic_nodes = [lift_params(net) for net in agent.critics]
    q = [mlp_graph(nodes, x) for nodes in critic_nodes]
    mse = [mean_all(square(sub(qi, y))) for qi in q]

    loss = reduce(add, mse)
    reg_value = 0.0
    if cfg.coupled_critics and cfg.nu > 0.0:
        reg = mean_all(square(sub(q[0], q[1])))
        reg_value = float(reg.value)
        loss = add(loss, scale(reg, cfg.nu))
    return loss, critic_nodes, mse, reg_value


def det_actor_loss(agent, batch, j: int):
    """Graph for -mean Q_j(s, pi_j(s)) and actor j's parameter leaves."""
    s = lift(batch.s)
    actor_nodes = lift_params(agent.actors[j])
    action = deterministic_head(mlp_graph(actor_nodes, s))
    critic_nodes = lift_params(agent.critics[j])
    q = mlp_graph(critic_nodes, concat_cols(s, action))
    return neg(mean_all(q)), actor_nodes


def sac_actor_loss(agent, batch):
    """Graph for mean(alpha * log pi - min_i Q_i) and the actor's parameter leaves."""
    cfg = agent.cfg
    s = lift(batch.s)
    actor_nodes = lift_params(agent.actors[0])
    out = mlp_graph(actor_nodes, s)
    mean = slice_cols(out, 0, ACTION_DIM)
    log_std = clip(slice_cols(out, ACTION_DIM, 2 * ACTION_DIM), LOG_STD_MIN, LOG_STD_MAX)
    eps = agent.rng.standard_normal((len(batch), ACTION_DIM)).astype(DTYPE)
    u = add(mean, mul(exp(log_std), lift(eps)))
    action = _squash01_node(tanh(u))
    # log pi with u = mean + std*eps: the normal term reduces to a constant in
    # eps minus log_std; the tanh correction still depends on u.
    const = -0.5 * eps * eps - 0.5 * LOG_TWO_PI
    per_dim = sub(sub(lift(const), log_std), log_one_minus_tanh_sq(u))
    logp = sum_rows(per_dim)

    critic_nodes = [lift_params(net) for net in agent.critics]
    x = concat_cols(s, action)
    q_min = reduce(minimum, [mlp_graph(nodes, x) for nodes in critic_nodes])
    loss = mean_all(sub(scale(logp, cfg.sac_alpha), q_min))
    return loss, actor_nodes


# ------------------------------------------------------------------ gradient phases


def critic_update(agent, batch) -> dict[str, float]:
    """The critic phase as the tape ran it."""
    cfg = agent.cfg
    targets = compute_targets(batch, agent)
    loss, critic_nodes, mse, reg_value = critic_loss(agent, batch, targets)
    backprop(loss, 1.0, [leaf for nodes in critic_nodes for leaf in param_leaves(nodes)])
    # Adam is elementwise: one step of the critics' stack steps each critic.
    grads = np.stack([flat_grads(nodes) for nodes in critic_nodes])
    adam_step(agent.critics, grads, agent.critic_adam)
    losses: dict[str, float] = {}
    for i in range(len(critic_nodes)):
        losses[f"critic_{i}"] = float(mse[i].value) + cfg.nu * reg_value
    if cfg.coupled_critics:
        losses["critic_reg"] = reg_value
    agent.update_count += 1
    return losses


def actor_update(agent, batch) -> dict[str, float]:
    """The delayed actor phase and target sync as the tape ran them."""
    cfg = agent.cfg
    if agent.update_count % cfg.actor_delay != 0:
        return {}
    losses: dict[str, float] = {}
    grads = []
    # Actor j's loss reads actor j and critic j only, so every actor's
    # gradient is taken before the actors' stack takes its one Adam step.
    for j in range(cfg.n_actors):
        if cfg.stochastic:
            loss, actor_nodes = sac_actor_loss(agent, batch)
        else:
            loss, actor_nodes = det_actor_loss(agent, batch, j)
        backprop(loss, 1.0, param_leaves(actor_nodes))
        grads.append(flat_grads(actor_nodes))
        losses[f"actor_{j}"] = float(loss.value)
    adam_step(agent.actors, np.stack(grads), agent.actor_adam)
    if agent.target_actors is not None:
        soft_update(agent.target_actors, agent.actors, cfg.tau)
    soft_update(agent.target_critics, agent.critics, cfg.tau)
    return losses


def update(agent, batch) -> dict[str, float]:
    """One full gradient phase on the tape: critics, then (possibly delayed) actors."""
    losses = critic_update(agent, batch)
    losses.update(actor_update(agent, batch))
    return losses
