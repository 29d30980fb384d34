"""Finite-difference verification of the loss heads and the tape's ops.

gradient_check covers the plain MLP chain; these tests cover the loss heads
the gradient phases write out by hand on top of it (concat, slice, clip,
exp, mul, minimum, tanh-square correction, row sums): the critic loss with
DARC's coupling, the deterministic actor's -mean Q and SAC's tanh-Gaussian
head. The heads follow their inputs' dtype, so each check runs them in
float64 on a cast copy of the agent's float32 networks (``as_float64``),
with float64 tolerances. The first tests check the ops of the tape in
``autodiff_reference``, the oracle the heads are compared with bit for bit.
"""

import numpy as np

import autodiff_reference as ad
from crashrl.agents import Agent, AgentConfig, Batch
from crashrl.agents.updates import _critic_grads, _det_actor_grad, _sac_actor_grad
from crashrl.numkit import Net, mlp_apply

H = 1e-6


def fd(fn, array, idx, h=H):
    flat = array.reshape(-1)
    old = flat[idx]
    flat[idx] = old + h
    up = fn()
    flat[idx] = old - h
    down = fn()
    flat[idx] = old
    return (up - down) / (2.0 * h)


def rel_err(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-6)


def as_float64(agent):
    """Swap every role stack of ``agent`` for a float64 copy; returns the agent."""
    for kind in ("actors", "critics", "target_actors", "target_critics"):
        nets = getattr(agent, kind)
        if nets is not None:
            setattr(agent, kind, Net(nets.spec, nets.flat.astype(np.float64)))
    return agent


def tensors(net):
    """Each weight and bias of ``net``, in layout order."""
    return [t for layer in net.layers for t in layer]


def test_diamond_graph_accumulates_shared_leaf():
    x = ad.lift(np.array([[2.0, -3.0]]))
    y = ad.add(ad.mul(x, x), x)  # x^2 + x, d/dx = 2x + 1
    ad.backprop(y, np.ones((1, 2)))
    assert np.allclose(x.grad, np.array([[5.0, -5.0]]))


def test_minimum_routes_gradient_to_smaller_side():
    a = ad.lift(np.array([[1.0, 4.0]]))
    b = ad.lift(np.array([[2.0, 3.0]]))
    out = ad.minimum(a, b)
    ad.backprop(out, np.array([[10.0, 20.0]]))
    assert np.array_equal(a.grad, np.array([[10.0, 0.0]]))
    assert np.array_equal(b.grad, np.array([[0.0, 20.0]]))


def test_clip_blocks_gradient_outside_range():
    x = ad.lift(np.array([[-2.0, 0.5, 3.0]]))
    out = ad.clip(x, -1.0, 1.0)
    ad.backprop(out, np.ones((1, 3)))
    assert np.array_equal(x.grad, np.array([[0.0, 1.0, 0.0]]))


def test_log_one_minus_tanh_sq_matches_fd():
    vals = np.array([[-3.0, -0.7, 0.0, 1.3, 4.0]])
    x = ad.lift(vals.copy())
    out = ad.sum_all(ad.log_one_minus_tanh_sq(x))
    ad.backprop(out, 1.0)

    def value():
        return float(np.sum(np.log(1.0 - np.tanh(vals) ** 2)))

    for idx in range(vals.size):
        numeric = fd(value, vals, idx)
        assert rel_err(x.grad.reshape(-1)[idx], numeric) < 1e-6


def test_sac_actor_loss_gradients_match_finite_differences():
    cfg = AgentConfig(algo="sac", hidden_dims=(8,), batch_size=4)
    agent = as_float64(Agent(cfg, obs_dim=3, seed=5))
    rng = np.random.default_rng(0)
    batch = Batch(
        rng.uniform(0, 1, (4, 3)), rng.uniform(0, 1, (4, 3)),
        rng.uniform(0, 1, (4, 1)), rng.uniform(0, 1, (4, 3)),
        np.zeros((4, 1)),
    )
    state = agent.rng.bit_generator.state
    _, grad = _sac_actor_grad(agent, batch)
    grads = Net(agent.actors[0].spec, grad)

    def loss_value():
        agent.rng.bit_generator.state = state
        (loss,), _ = _sac_actor_grad(agent, batch)
        return loss

    agent.rng.bit_generator.state = state
    checked = 0
    for k, (tensor, grad) in enumerate(zip(tensors(agent.actors[0]), tensors(grads))):
        flat_grad = grad.reshape(-1)
        for idx in range(0, tensor.size, max(1, tensor.size // 5)):
            numeric = fd(loss_value, tensor, idx)
            assert rel_err(flat_grad[idx], numeric) < 1e-4, (k, idx)
            checked += 1
    assert checked >= 15


def test_det_actor_loss_gradients_match_finite_differences():
    cfg = AgentConfig(algo="td3", hidden_dims=(8,), batch_size=4)
    agent = as_float64(Agent(cfg, obs_dim=3, seed=6))
    rng = np.random.default_rng(1)
    batch = Batch(
        rng.uniform(0, 1, (4, 3)), rng.uniform(0, 1, (4, 3)),
        rng.uniform(0, 1, (4, 1)), rng.uniform(0, 1, (4, 3)),
        np.zeros((4, 1)),
    )
    _, grad = _det_actor_grad(agent, batch)
    grads = Net(agent.actors[0].spec, grad)

    def loss_value():
        a = 0.5 * (np.tanh(mlp_apply(agent.actors[0], batch.s)[0]) + 1.0)
        q = mlp_apply(agent.critics[0], np.concatenate([batch.s, a], axis=1))[0]
        return float(-q.mean())

    for k, (tensor, grad) in enumerate(zip(tensors(agent.actors[0]), tensors(grads))):
        flat_grad = grad.reshape(-1)
        for idx in range(0, tensor.size, max(1, tensor.size // 5)):
            numeric = fd(loss_value, tensor, idx)
            assert rel_err(flat_grad[idx], numeric) < 1e-4, (k, idx)


def test_darc_critic_loss_gradients_match_finite_differences():
    """The combined critic loss (two MSE terms plus the nu coupling)."""
    cfg = AgentConfig(algo="darc", hidden_dims=(8,), nu=0.3, batch_size=4)
    agent = as_float64(Agent(cfg, obs_dim=3, seed=7))
    rng = np.random.default_rng(2)
    batch = Batch(
        rng.uniform(0, 1, (4, 3)), rng.uniform(0, 1, (4, 3)),
        rng.uniform(0, 1, (4, 1)), rng.uniform(0, 1, (4, 3)),
        np.zeros((4, 1)),
    )
    targets = rng.uniform(0, 1, (4, 1))

    grads, _, _ = _critic_grads(agent, batch, targets)
    grads = Net(agent.critics.spec, grads)

    def loss_value():
        xv = np.concatenate([batch.s, batch.action], axis=1)
        q0 = mlp_apply(agent.critics[0], xv)
        q1 = mlp_apply(agent.critics[1], xv)
        return float(
            ((q0 - targets) ** 2).mean()
            + ((q1 - targets) ** 2).mean()
            + cfg.nu * ((q0 - q1) ** 2).mean()
        )

    for ci in range(2):
        pairs = zip(tensors(agent.critics[ci]), tensors(grads[ci]))
        for k, (tensor, grad) in enumerate(pairs):
            flat_grad = grad.reshape(-1)
            for idx in range(0, tensor.size, max(1, tensor.size // 4)):
                numeric = fd(loss_value, tensor, idx)
                assert rel_err(flat_grad[idx], numeric) < 1e-4, (ci, k, idx)
