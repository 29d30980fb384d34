"""Flat parameter vectors, in-place Adam/Polyak, and the oracle's pruned backprop.

Adam and the Polyak sync work on each network's flat vector; these tests pin
them to a per-tensor reference bit for bit. ``TestPrunedBackprop`` checks the
tape in ``autodiff_reference``, the oracle the gradient phases are compared
with (``test_tape_oracle``): its pruned gradients equal unpruned ones bit for
bit, so the oracle's pruning cannot hide a gradient.
"""

import numpy as np
import pytest

import autodiff_reference as ad
from crashrl.agents import Agent, AgentConfig, Batch, critic_update
from crashrl.numkit import MlpSpec, Net, adam_step, init_adam, init_params, soft_update
from crashrl.numkit.optim import BETA1, BETA2, EPS


def random_batch(rng, n, obs_dim):
    return Batch(
        rng.uniform(0, 1, (n, obs_dim)), rng.uniform(0, 1, (n, 3)),
        rng.uniform(0, 1, (n, 1)), rng.uniform(0, 1, (n, obs_dim)),
        (rng.uniform(0, 1, (n, 1)) < 0.2).astype(float),
    )


def leaves(root):
    """Every leaf node of the graph under ``root``."""
    found, stack, seen = [], [root], set()
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if not node.parents:
            found.append(node)
        stack.extend(node.parents)
    return found


def assert_pruning_is_exact(loss, wanted):
    """Unpruned and pruned passes agree bitwise on the wanted leaves."""
    ad.backprop(loss, 1.0)
    full = [leaf.grad.copy() for leaf in wanted]
    ad.backprop(loss, 1.0, wanted)
    for leaf, grad in zip(wanted, full):
        assert np.array_equal(leaf.grad, grad)
        assert np.array_equal(np.signbit(leaf.grad), np.signbit(grad))
    wanted_ids = {id(leaf) for leaf in wanted}
    others = [leaf for leaf in leaves(loss) if id(leaf) not in wanted_ids]
    assert others, "the graph has leaves outside the wanted set"
    assert all(leaf.grad is None for leaf in others)


class TestPrunedBackprop:
    @pytest.mark.parametrize("algo", ["ddpg", "td3", "sac", "darc"])
    def test_critic_loss_graph(self, algo):
        agent = Agent(AgentConfig(algo=algo, hidden_dims=(16, 8), nu=0.3), obs_dim=5, seed=1)
        rng = np.random.default_rng(2)
        batch = random_batch(rng, 32, 5)
        loss, critic_nodes, _, _ = ad.critic_loss(agent, batch, rng.uniform(0, 1, (32, 1)))
        wanted = [leaf for nodes in critic_nodes for leaf in ad.param_leaves(nodes)]
        assert_pruning_is_exact(loss, wanted)

    @pytest.mark.parametrize("algo,j", [("td3", 0), ("darc", 0), ("darc", 1)])
    def test_det_actor_loss_graph(self, algo, j):
        agent = Agent(AgentConfig(algo=algo, hidden_dims=(16, 8)), obs_dim=5, seed=3)
        batch = random_batch(np.random.default_rng(4), 32, 5)
        loss, actor_nodes = ad.det_actor_loss(agent, batch, j)
        assert_pruning_is_exact(loss, ad.param_leaves(actor_nodes))

    def test_sac_actor_loss_graph(self):
        agent = Agent(AgentConfig(algo="sac", hidden_dims=(16, 8)), obs_dim=5, seed=5)
        batch = random_batch(np.random.default_rng(6), 32, 5)
        loss, actor_nodes = ad.sac_actor_loss(agent, batch)
        assert_pruning_is_exact(loss, ad.param_leaves(actor_nodes))

    def test_wanted_interior_node_stops_the_push(self):
        x = ad.lift(np.array([[1.0, 2.0]]))
        h = ad.tanh(x)
        out = ad.sum_all(ad.square(h))
        ad.backprop(out, 1.0, [h])
        assert np.array_equal(h.grad, 2.0 * h.value)
        assert x.grad is None

    def test_relu_matches_where_bit_for_bit(self):
        special = [-0.0, 0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324, 1e308, -1e308]
        values = np.concatenate([special, np.random.default_rng(0).standard_normal(50)])
        out = ad.relu(ad.lift(values.reshape(6, 10))).value.reshape(-1)
        want = np.where(values > 0.0, values, 0.0)
        assert np.array_equal(out.view(np.int64), want.view(np.int64))

    def test_flat_grads_fills_unreached_leaves_with_zeros(self):
        spec = MlpSpec(3, (4,), 2)
        nodes = ad.lift_params(init_params(spec, seed=0))
        b0 = nodes[0][1]
        out = ad.sum_all(ad.add(ad.lift(np.ones((1, 4))), b0))
        ad.backprop(out, 1.0, [b0])
        flat = ad.flat_grads(nodes)
        assert flat.shape == (3 * 4 + 4 + 4 * 2 + 2,)
        assert np.array_equal(flat[12:16], np.ones(4))
        assert np.count_nonzero(flat) == 4


# ------------------------------------------------------------ per-tensor reference


def reference_adam(params, grads, m, v, t, alpha, beta1, beta2, eps):
    """The textbook update, one tensor at a time, returning fresh arrays."""
    out_p, out_m, out_v = [], [], []
    for theta, g, m_old, v_old in zip(params, grads, m, v):
        m_new = beta1 * m_old + (1.0 - beta1) * g
        v_new = beta2 * v_old + (1.0 - beta2) * (g * g)
        m_hat = m_new / (1.0 - beta1**t)
        v_hat = v_new / (1.0 - beta2**t)
        out_p.append(theta - alpha * m_hat / (np.sqrt(v_hat) + eps))
        out_m.append(m_new)
        out_v.append(v_new)
    return out_p, out_m, out_v


def tensors(spec, flat):
    """Copies of each weight and bias in ``flat``, in layout order."""
    return [t.copy() for layer in spec.layers(flat) for t in layer]


class TestFlatUpdatesMatchPerTensorReference:
    def test_adam_bitwise_over_many_steps(self):
        spec = MlpSpec(7, (16, 9), 3)
        net = init_params(spec, seed=11)
        state = init_adam(net, alpha=1e-2)
        rng = np.random.default_rng(12)
        ref_p = tensors(spec, net.flat)
        ref_m = [np.zeros_like(a) for a in ref_p]
        ref_v = [np.zeros_like(a) for a in ref_p]
        for step in range(1, 26):
            scale = 10.0 ** rng.integers(-8, 4)
            grads = (rng.standard_normal(net.flat.shape) * scale).astype(np.float32)
            if step % 5 == 0:
                (_, b0), (w1, _), _ = spec.layers(grads)
                w1[:] = 0.0  # exact zeros and signed zeros
                b0[:] = -0.0
            ref_p, ref_m, ref_v = reference_adam(
                ref_p, tensors(spec, grads), ref_m, ref_v, step,
                state.alpha, BETA1, BETA2, EPS,
            )
            out, state = adam_step(net, grads, state)
            assert out is net and state.t == step
            for flat, want in ((net.flat, ref_p), (state.m, ref_m), (state.v, ref_v)):
                for got, expected in zip(tensors(spec, flat), want, strict=True):
                    assert np.array_equal(got, expected)
                    assert np.array_equal(np.signbit(got), np.signbit(expected))

    def test_soft_update_bitwise(self):
        spec = MlpSpec(6, (10,), 2)
        target = init_params(spec, seed=1)
        online = init_params(spec, seed=2)
        rng = np.random.default_rng(3)
        for tau in (0.005, 0.5, 1.0, 0.0, float(rng.uniform())):
            online.flat[:] = rng.standard_normal(online.flat.size)
            want = [
                tau * o + (1.0 - tau) * t
                for o, t in zip(tensors(spec, online.flat), tensors(spec, target.flat))
            ]
            assert soft_update(target, online, tau) is target
            for got, expected in zip(tensors(spec, target.flat), want, strict=True):
                assert np.array_equal(got, expected)

    def test_layer_views_share_the_flat_vector(self):
        net = Net(MlpSpec(1, (), 2), np.array([[1.0, 2.0, 3.0, 4.0]], np.float32))
        (w, b), = net.layers
        w[0, 0, 1] = -5.0
        assert net.flat[0, 1] == -5.0
        net.flat[0, 2] = 9.0
        assert b[0, 0, 0] == 9.0
        twin = net.copy()
        twin.flat[0, 0] = 0.0
        assert net.flat[0, 0] == 1.0 and twin.spec is net.spec
        assert twin.layers[0][0][0, 0, 0] == 0.0

    def test_shape_mismatch_rejected(self):
        net = init_params(MlpSpec(3, (), 2), seed=0)
        state = init_adam(net, alpha=3e-4)
        with pytest.raises(ValueError, match="shapes must match"):
            adam_step(net, np.zeros(7, np.float32), state)
        other = init_params(MlpSpec(1, (), 4), seed=0)  # eight values, as many as net's
        with pytest.raises(ValueError, match="must share one spec"):
            soft_update(net, other, 0.5)


class TestNonFiniteUpdatesAreNamed:
    def _agent(self):
        return Agent(AgentConfig(algo="darc", hidden_dims=(8,)), obs_dim=4, seed=0)

    def _good_steps(self, agent, steps):
        net, state = agent.critics, agent.critic_adam
        for _ in range(steps):
            adam_step(net, np.full(net.flat.shape, 0.1, np.float32), state)

    def test_nan_gradient(self):
        agent = self._agent()
        self._good_steps(agent, 2)
        grads = np.zeros(agent.critics.flat.shape, np.float32)
        grads[1, 5] = np.nan
        with pytest.raises(ValueError, match=r"critic_1: Adam update 3 "):
            adam_step(agent.critics, grads, agent.critic_adam)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_gradient_whose_square_overflows(self):
        agent = self._agent()
        grads = np.zeros(agent.actors.flat.shape, np.float32)
        grads[0, -1] = 1e20  # finite in float32, but g*g overflows the second moment
        with pytest.raises(ValueError, match=r"actor_0: Adam update 1 "):
            adam_step(agent.actors, grads, agent.actor_adam)

    def test_non_finite_parameter(self):
        agent = self._agent()
        agent.critics[0].layers[0][0][0, 0, 0] = np.inf
        with pytest.raises(ValueError, match=r"critic_0: Adam update 1 "):
            adam_step(agent.critics, np.zeros(agent.critics.flat.shape, np.float32),
                      agent.critic_adam)

    def test_gradient_of_another_dtype_is_rejected(self):
        agent = self._agent()
        net, state = agent.critics, agent.critic_adam
        before = net.flat.copy()
        with pytest.raises(ValueError, match=r"^critic: gradient dtype float64 does not "
                                             r"match parameter dtype float32$"):
            adam_step(net, np.zeros(net.flat.shape), state)
        assert state.t == 0 and np.array_equal(net.flat, before)

    def test_nan_reward_surfaces_from_the_critic_phase(self):
        agent = self._agent()
        batch = random_batch(np.random.default_rng(0), 8, 4)
        batch.r[3, 0] = np.nan
        critic_update(agent, random_batch(np.random.default_rng(1), 8, 4))
        with pytest.raises(ValueError, match=r"critic_0: Adam update 2 "):
            critic_update(agent, batch)
