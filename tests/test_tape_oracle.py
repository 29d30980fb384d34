"""The gradient phases equal the tape they replaced, bit for bit.

``crashrl.agents.updates`` runs each loss head by hand on plain arrays
(``mlp_graph`` plus ``autodiff.backprop``). ``tests/autodiff_reference.py``
keeps the tape autodiff and the three loss graphs it ran. Two agents built
from the same seed take the same batches, one through each path; after
every update their parameters, target networks, Adam moments and step
counts, losses and RNG state must agree exactly (NaN payloads and the sign
of zero included). The cases cover every algorithm at a small scale and at
the default scale (64x64 networks, batch 256), and a saturated variant whose
tanh heads clamp and whose SAC log-std leaves its clip range.
"""

import numpy as np
import pytest

import autodiff_reference as tape
from crashrl.agents import ALGOS, Agent, AgentConfig, Batch
from crashrl.agents import updates
from crashrl.agents.agent import deterministic_head
from crashrl.env import EnvConfig
from crashrl.numkit import MlpSpec, Net, init_params, mlp_graph
from crashrl.numkit import autodiff as ad

UPDATES = 26


def random_batch(rng, n, obs_dim):
    return Batch(
        rng.uniform(0, 1, (n, obs_dim)), rng.uniform(0, 1, (n, 3)),
        rng.uniform(-1, 1, (n, 1)), rng.uniform(0, 1, (n, obs_dim)),
        (rng.uniform(0, 1, (n, 1)) < 0.2).astype(float),
    )


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return (
        a.dtype == b.dtype
        and a.shape == b.shape
        and np.array_equal(a.reshape(-1).view(np.uint8), b.reshape(-1).view(np.uint8))
    )


CHAINS = [((), "identity"), ((8,), "tanh"), ((16, 8), "identity"), ((16, 8, 4), "tanh")]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize(
    "hidden,head,bias",
    [pytest.param(*chain, 0.0, id=f"hidden{i}-{chain[1]}") for i, chain in enumerate(CHAINS)]
    + [pytest.param((16, 8, 4), "tanh", -0.0, id="negative-zero-biases")],
)
def test_backprop_matches_the_tape_on_mlp_chains(hidden, head, bias, dtype):
    """A "tanh" head is the deterministic actor's, on top of the network."""
    spec = MlpSpec(5, hidden, 3)
    net = init_params(spec, seed=3)
    net = Net(spec, net.flat.astype(dtype) * 3.0)  # some tanh entries clamp
    rng = np.random.default_rng(4)
    x = rng.standard_normal((9, 5)).astype(dtype)
    x[2] = 0.0  # exact-zero pre-activations in the first hidden layer
    if np.signbit(bias):
        # A -0.0 bias keeps a -0.0 product sum -0.0, and relu must map it to
        # +0.0. An all-zero row sums to +0.0 in BLAS; products of subnormals
        # with small negative weights underflow to -0.0.
        for _, b in net.layers:
            b[:] = bias
        net.layers[0][0][..., 0] = -0.25
        x[3] = np.finfo(dtype).smallest_subnormal
    upstream = rng.standard_normal((9, 3)).astype(dtype)

    out, record = mlp_graph(net, x)
    nodes, x_node = tape.lift_params(net), tape.lift(x)
    root = tape.mlp_graph(nodes, x_node)
    g = upstream[None]  # the stack of one network's output axis
    if head == "tanh":  # as the actor phase applies it: squash01, then tanh
        t, out = deterministic_head(out)
        g = (g * 0.5) * (1.0 - t * t)
        root = tape.deterministic_head(root)
    flat, dx = ad.backprop(record, g, inputs=True)
    tape.backprop(root, upstream, [*tape.param_leaves(nodes), x_node])
    assert same_bits(out[0], root.value)
    assert same_bits(flat[0], tape.flat_grads(nodes))
    assert same_bits(dx[0], x_node.grad)
    assert same_bits(ad.backprop(record, g)[0], flat)
    for h in record.inputs[1:]:  # relu outputs, as the tape's where(a > 0, a, +0.0)
        assert not np.signbit(h).any()


def test_backprop_forms_only_the_requested_gradients():
    spec = MlpSpec(4, (6,), 2)
    net = init_params(spec, seed=0)
    _, record = mlp_graph(net, np.ones((3, 4), np.float32))
    up = np.ones((1, 3, 2), np.float32)
    flat, dx = ad.backprop(record, up)
    assert flat.shape == net.flat.shape and flat.dtype == np.float32 and dx is None
    flat, dx = ad.backprop(record, up, params=False, inputs=True)
    assert flat is None and dx.shape == (1, 3, 4) and dx.dtype == np.float32
    with pytest.raises(ValueError, match=r"upstream gradient shape \(3, 1\) does not match"):
        ad.backprop(record, np.ones((3, 1)))


def agent_arrays(agent):
    """Every array of an agent's state, by name: each role's stack and Adam moments."""
    arrays = {}
    for kind in ("actors", "critics", "target_actors", "target_critics"):
        if getattr(agent, kind) is not None:
            arrays[kind] = getattr(agent, kind).flat
    for kind in ("actor_adam", "critic_adam"):
        arrays[f"{kind}.m"] = getattr(agent, kind).m
        arrays[f"{kind}.v"] = getattr(agent, kind).v
    return arrays


def assert_same_state(agent, ref, step):
    got, want = agent_arrays(agent), agent_arrays(ref)
    assert got.keys() == want.keys()
    for name in got:
        assert same_bits(got[name], want[name]), (step, name)
    assert (agent.actor_adam.t, agent.critic_adam.t) == (ref.actor_adam.t, ref.critic_adam.t), step
    assert agent.update_count == ref.update_count, step
    assert agent.rng.bit_generator.state == ref.rng.bit_generator.state, step


def saturate(agent):
    """Scale every actor's output layer so tanh heads clamp and log-std clips.

    A SAC actor's first log-std column also sits far below its clip range on
    every row, so that column's gradient is a column of signed zeros.
    """
    for net in (agent.actors, agent.target_actors):
        if net is None:
            continue
        w, b = net.layers[-1]
        w *= 400.0
        if agent.cfg.stochastic:
            b[..., 3] = -1e4


CASES = [
    pytest.param(dict(hidden_dims=(16, 8), batch_size=32), 7, False, id="small"),
    pytest.param(dict(batch_size=256), EnvConfig().obs_dim, False, id="default"),
    pytest.param(dict(hidden_dims=(16, 8), batch_size=32), 7, True, id="saturated"),
]


@pytest.mark.parametrize("algo", ALGOS)
@pytest.mark.parametrize("kwargs,obs_dim,saturated", CASES)
def test_updates_match_the_tape_bit_for_bit(algo, kwargs, obs_dim, saturated):
    cfg = AgentConfig(algo=algo, nu=0.3, **kwargs)
    agent, ref = Agent(cfg, obs_dim, seed=11), Agent(cfg, obs_dim, seed=11)
    if saturated:
        saturate(agent)
        saturate(ref)
    rng = np.random.default_rng(12)
    actor_phases = 0
    for step in range(UPDATES):
        batch = random_batch(rng, cfg.batch_size, obs_dim)
        losses = updates.update(agent, batch)
        want = tape.update(ref, batch)
        assert losses.keys() == want.keys(), step
        for name in losses:
            assert same_bits(losses[name], want[name]), (step, name)
        assert_same_state(agent, ref, step)
        actor_phases += any(name.startswith("actor") for name in losses)
    assert actor_phases == UPDATES // cfg.actor_delay


def tape_actor_grad(agent, batch, j):
    if agent.cfg.stochastic:
        loss, nodes = tape.sac_actor_loss(agent, batch)
    else:
        loss, nodes = tape.det_actor_loss(agent, batch, j)
    tape.backprop(loss, 1.0, tape.param_leaves(nodes))
    return float(loss.value), tape.flat_grads(nodes)


@pytest.mark.parametrize("algo", ALGOS)
@pytest.mark.parametrize("saturated", [False, True])
def test_loss_gradients_match_the_tape_bit_for_bit(algo, saturated):
    """Each loss head's gradients before Adam, which would absorb a signed zero."""
    cfg = AgentConfig(algo=algo, hidden_dims=(16, 8), nu=0.3)
    agent = Agent(cfg, 7, seed=11)
    if saturated:
        saturate(agent)
    rng = np.random.default_rng(13)
    batch = random_batch(rng, 32, 7)
    targets = rng.uniform(-1, 1, (32, 1)).astype(np.float32)

    grads, mse, reg = updates._critic_grads(agent, batch, targets)
    loss, nodes, mse_nodes, want_reg = tape.critic_loss(agent, batch, targets)
    tape.backprop(loss, 1.0, [leaf for n in nodes for leaf in tape.param_leaves(n)])
    assert reg == want_reg and mse == [float(m.value) for m in mse_nodes]
    for got, n in zip(grads, nodes):
        assert same_bits(got, tape.flat_grads(n))

    state = agent.rng.bit_generator.state
    if cfg.stochastic:
        values, grads = updates._sac_actor_grad(agent, batch)
    else:
        values, grads = updates._det_actor_grad(agent, batch)
    for j in range(cfg.n_actors):
        agent.rng.bit_generator.state = state
        want = tape_actor_grad(agent, batch, j)
        assert values[j] == want[0] and same_bits(grads[j], want[1]), j


def test_saturated_case_reaches_the_clamps():
    """The saturated SAC actor drives log-std out of [LOG_STD_MIN, LOG_STD_MAX]
    and the deterministic tanh heads to their clamp."""
    obs_dim = 7
    rng = np.random.default_rng(12)
    s = random_batch(rng, 32, obs_dim).s
    sac = Agent(AgentConfig(algo="sac", hidden_dims=(16, 8)), obs_dim, seed=11)
    saturate(sac)
    out = updates.mlp_graph(sac.actors, s)[0][0]
    log_std = out[:, 3:]
    assert (log_std > 2.0).any() and (log_std[:, 1:] < -20.0).any()
    assert (log_std[:, 0] < -20.0).all()
    td3 = Agent(AgentConfig(algo="td3", hidden_dims=(16, 8)), obs_dim, seed=11)
    saturate(td3)
    t, _ = deterministic_head(updates.mlp_graph(td3.actors[0], s)[0])
    assert (np.abs(t) == 1.0).any()
