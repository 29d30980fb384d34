"""Flat parameter vectors, in-place Adam/Polyak, and pruned backprop.

The gradient phases backpropagate only into the parameters they update, and
Adam and the Polyak sync work on each network's flat vector. These tests pin
both to the plain definitions: pruned gradients equal unpruned ones bit for
bit, and the flat updates equal a per-tensor reference bit for bit.
"""

import numpy as np
import pytest

from crashrl.agents import Agent, AgentConfig, Batch, critic_update
from crashrl.agents.updates import _critic_loss, _det_actor_loss, _sac_actor_loss
from crashrl.numkit import (
    MlpSpec,
    ParamSet,
    Tensor,
    adam_step,
    encode_params,
    flat_grads,
    format_float,
    init_adam,
    init_params,
    soft_update,
)
from crashrl.numkit import autodiff as ad


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
        loss, critic_nodes, _, _ = _critic_loss(agent, batch, rng.uniform(0, 1, (32, 1)))
        wanted = [leaf for nodes in critic_nodes for leaf in nodes.values()]
        assert_pruning_is_exact(loss, wanted)

    @pytest.mark.parametrize("algo,pair", [("td3", (0, 0)), ("darc", (1, 1)), ("darc", (0, 1))])
    def test_det_actor_loss_graph(self, algo, pair):
        agent = Agent(AgentConfig(algo=algo, hidden_dims=(16, 8)), obs_dim=5, seed=3)
        batch = random_batch(np.random.default_rng(4), 32, 5)
        loss, actor_nodes = _det_actor_loss(agent, batch, *pair)
        assert_pruning_is_exact(loss, list(actor_nodes.values()))

    def test_sac_actor_loss_graph(self):
        agent = Agent(AgentConfig(algo="sac", hidden_dims=(16, 8)), obs_dim=5, seed=5)
        batch = random_batch(np.random.default_rng(6), 32, 5)
        loss, actor_nodes = _sac_actor_loss(agent, batch)
        assert_pruning_is_exact(loss, list(actor_nodes.values()))

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
        nodes = {name: ad.lift(t.array) for name, t in init_params(spec, seed=0)}
        out = ad.sum_all(ad.add(ad.lift(np.ones((1, 4))), nodes["b0"]))
        ad.backprop(out, 1.0, [nodes["b0"]])
        flat = flat_grads(nodes)
        assert flat.shape == (3 * 4 + 4 + 4 * 2 + 2,)
        assert np.array_equal(flat[12:16], np.ones(4))
        assert np.count_nonzero(flat) == 4


# ------------------------------------------------------------ per-tensor reference


def reference_adam(params, grads, m, v, t, alpha, beta1, beta2, eps):
    """The textbook update, one tensor at a time, returning fresh arrays."""
    out_p, out_m, out_v = {}, {}, {}
    for name, theta in params.items():
        g = grads[name]
        m_new = beta1 * m[name] + (1.0 - beta1) * g
        v_new = beta2 * v[name] + (1.0 - beta2) * (g * g)
        m_hat = m_new / (1.0 - beta1**t)
        v_hat = v_new / (1.0 - beta2**t)
        out_p[name] = theta - alpha * m_hat / (np.sqrt(v_hat) + eps)
        out_m[name], out_v[name] = m_new, v_new
    return out_p, out_m, out_v


def as_dict(params):
    return {name: t.array.copy() for name, t in params}


class TestFlatUpdatesMatchPerTensorReference:
    def test_adam_bitwise_over_many_steps(self):
        spec = MlpSpec(7, (16, 9), 3)
        params = init_params(spec, seed=11)
        state = init_adam(params, alpha=1e-2)
        rng = np.random.default_rng(12)
        ref_p = as_dict(params)
        ref_m = {n: np.zeros_like(a) for n, a in ref_p.items()}
        ref_v = {n: np.zeros_like(a) for n, a in ref_p.items()}
        for step in range(1, 26):
            scale = 10.0 ** rng.integers(-8, 4)
            grads = params.like(rng.standard_normal(params.flat.size) * scale)
            if step % 5 == 0:
                grads["w1"].array[:] = 0.0  # exact zeros and signed zeros
                grads["b0"].array[:] = -0.0
            ref_p, ref_m, ref_v = reference_adam(
                ref_p, as_dict(grads), ref_m, ref_v, step,
                state.alpha, state.beta1, state.beta2, state.eps,
            )
            # alternate the two gradient forms adam_step accepts
            g = grads if step % 2 else grads.flat
            out, state = adam_step(params, g, state)
            assert out is params and state.t == step
            for name, _ in params:
                for got, want in (
                    (params[name].array, ref_p[name]),
                    (state.m[name].array, ref_m[name]),
                    (state.v[name].array, ref_v[name]),
                ):
                    assert np.array_equal(got, want)
                    assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_soft_update_bitwise(self):
        spec = MlpSpec(6, (10,), 2)
        target = init_params(spec, seed=1)
        online = init_params(spec, seed=2)
        rng = np.random.default_rng(3)
        for tau in (0.005, 0.5, 1.0, 0.0, float(rng.uniform())):
            online.flat[:] = rng.standard_normal(online.flat.size)
            want = {
                name: tau * online[name].array + (1.0 - tau) * t.array
                for name, t in target
            }
            assert soft_update(target, online, tau) is target
            for name, t in target:
                assert np.array_equal(t.array, want[name])

    def test_named_tensors_view_the_flat_vector(self):
        params = ParamSet([("w", Tensor([[1.0, 2.0]])), ("b", Tensor([3.0]))])
        assert np.array_equal(params.flat, [1.0, 2.0, 3.0])
        params["w"].array[0, 1] = -5.0
        assert params.flat[1] == -5.0
        params.flat[2] = 9.0
        assert params["b"].array[0] == 9.0
        twin = params.copy()
        twin.flat[0] = 0.0
        assert params.flat[0] == 1.0 and not twin.equal(params)
        assert params.layout == (("w", (1, 2)), ("b", (1,)))

    def test_checkpoint_text_formats_each_entry_with_format_float(self):
        awkward = [0.1, -0.0, 0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308,
                   1e16, 123456789012345678.0, -1.5, 1.0 / 3.0]
        params = ParamSet([("w", Tensor(np.array(awkward[:8]).reshape(2, 4))),
                           ("b", Tensor(awkward[8:]))])
        w_line, b_line = encode_params(params).splitlines()[1:]
        assert w_line == "w 2 2 4 " + " ".join(format_float(v) for v in awkward[:8])
        assert b_line == "b 1 2 " + " ".join(format_float(v) for v in awkward[8:])

    def test_shape_mismatch_rejected(self):
        params = ParamSet([("w", Tensor([1.0, 2.0]))])
        state = init_adam(params)
        with pytest.raises(ValueError, match="shapes must match"):
            adam_step(params, np.zeros(3), state)
        other = ParamSet([("v", Tensor([1.0, 2.0]))])
        with pytest.raises(ValueError, match="shapes must match"):
            adam_step(params, other, state)
        with pytest.raises(ValueError, match="shapes must match"):
            soft_update(params, other, 0.5)


class TestNonFiniteUpdatesAreNamed:
    def _agent(self):
        return Agent(AgentConfig(algo="darc", hidden_dims=(8,)), obs_dim=4, seed=0)

    def _good_steps(self, agent, index, steps):
        params, state = agent.critics[index], agent.critic_adam[index]
        for _ in range(steps):
            adam_step(params, np.full(params.flat.size, 0.1), state)

    def test_nan_gradient(self):
        agent = self._agent()
        self._good_steps(agent, 1, 2)
        params = agent.critics[1]
        grads = np.zeros(params.flat.size)
        grads[5] = np.nan
        with pytest.raises(ValueError, match=r"critic_1: Adam update 3 "):
            adam_step(params, grads, agent.critic_adam[1])

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_gradient_whose_square_overflows(self):
        agent = self._agent()
        params = agent.actors[0]
        grads = np.zeros(params.flat.size)
        grads[-1] = 1e200  # finite, but g*g overflows the second moment
        with pytest.raises(ValueError, match=r"actor_0: Adam update 1 "):
            adam_step(params, grads, agent.actor_adam[0])

    def test_non_finite_parameter(self):
        agent = self._agent()
        agent.critics[0]["w0"].array[0, 0] = np.inf
        with pytest.raises(ValueError, match=r"critic_0: Adam update 1 "):
            adam_step(agent.critics[0], np.zeros(agent.critics[0].flat.size),
                      agent.critic_adam[0])

    def test_nan_reward_surfaces_from_the_critic_phase(self):
        agent = self._agent()
        batch = random_batch(np.random.default_rng(0), 8, 4)
        batch.r[3, 0] = np.nan
        critic_update(agent, random_batch(np.random.default_rng(1), 8, 4))
        with pytest.raises(ValueError, match=r"critic_0: Adam update 2 "):
            critic_update(agent, batch)
