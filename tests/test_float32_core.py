"""The network core runs in one dtype, float32, from replay to Adam.

A float64 value that slips into a gradient phase (float64 noise added to a
float32 action, say) would promote every later product to float64 without
an error. These tests run real environment steps and gradient phases for
each algorithm at small scale and check the dtype of every array the core
holds or computes: parameters, Adam moments, the replay arrays, the sampled
batch, the bootstrap targets, every network input and output, and every
parameter gradient. Episodes, the environment, the actions handed back to it
and the replay buffer's two reward channels stay float64; ``gradient_check`` runs in float64 on a cast copy.
"""

import numpy as np
import pytest

from crashrl.agents import ALGOS, Agent, AgentConfig, ReplayBuffer, compute_targets, train_step
from crashrl.agents import agent as agent_module
from crashrl.agents import targets as targets_module
from crashrl.agents import updates as updates_module
from crashrl.env import AccidentEnv, EnvConfig, generate_episode
from crashrl.numkit import MlpSpec, Net
from crashrl.numkit import autodiff as ad
from crashrl.numkit import mlp as mlp_module
from finite_difference import gradient_check
from target_values import target_values

F32 = np.dtype(np.float32)
F64 = np.dtype(np.float64)


def _recorder(monkeypatch, module, name, record):
    """Wrap ``module.name`` so every call's arrays go through ``record``."""
    real = getattr(module, name)

    def wrapped(*args, **kwargs):
        out = real(*args, **kwargs)
        record(name, args, out)
        return out

    monkeypatch.setattr(module, name, wrapped)


def _arrays(values):
    """The float arrays among ``values``, looking into tuples, networks and
    forward records."""
    for value in values:
        if isinstance(value, np.ndarray):
            yield value
        elif isinstance(value, Net):
            yield value.flat
        elif isinstance(value, ad.MlpRecord):
            yield from _arrays([value.net, *value.inputs])
        elif isinstance(value, tuple):
            yield from _arrays(value)


@pytest.mark.parametrize("algo", ALGOS)
def test_training_keeps_every_core_array_float32(algo, monkeypatch):
    seen = []  # (where, dtype) of every array entering or leaving the core

    def record(name, args, out):
        seen.extend((name, a.dtype) for a in _arrays([*args, out]))

    for module, name in (
        (agent_module, "mlp_apply"),
        (agent_module, "deterministic_head"),
        (targets_module, "mlp_apply"),
        (updates_module, "mlp_graph"),
        (updates_module, "deterministic_head"),
        (updates_module, "adam_step"),
        (updates_module, "soft_update"),
        (ad, "backprop"),
    ):
        _recorder(monkeypatch, module, name, record)
    grads = []  # every parameter gradient backprop returns
    _recorder(
        monkeypatch, ad, "backprop",
        lambda n, a, out: grads.extend(g for g in out[:1] if g is not None),
    )

    env_cfg = EnvConfig(grid_h=8, grid_w=8, pool_h=4, pool_w=4, stack=2, episode_len=12)
    cfg = AgentConfig(
        algo=algo, hidden_dims=(8, 8), batch_size=4, warmup_steps=4, buffer_capacity=32
    )
    agent = Agent(cfg, env_cfg.obs_dim, seed=0)
    buffer = ReplayBuffer(cfg.buffer_capacity, env_cfg.obs_dim, seed=1)
    env = AccidentEnv([generate_episode(env_cfg, 3)], env_cfg)
    env.reset()
    for _ in range(8):  # four gradient phases, two of them with an actor phase
        log = train_step(agent, env, buffer)
    assert log.losses and agent.update_count == 4

    batch = buffer.sample(cfg.batch_size, (1.0, 1.0))
    q_values, v_next = target_values(batch, agent)
    y = compute_targets(batch, agent)
    checked = {
        "params": [
            p.flat
            for p in (agent.actors, agent.critics, agent.target_actors, agent.target_critics)
            if p is not None
        ],
        "adam": [a for s in (agent.actor_adam, agent.critic_adam) for a in (s.m, s.v)],
        "replay": [buffer._s, buffer._a, buffer._s2, buffer._d],
        "batch": [batch.s, batch.action, batch.r, batch.s_next, batch.done],
        "targets": [y, v_next, q_values],
        "gradients": grads,
    }
    for where, arrays in checked.items():
        assert arrays and {a.dtype for a in arrays} == {F32}, where
    # 4 critic phases and 2 (TD3, DARC) or 4 actor phases, one gradient per
    # role stack each, with one row per network
    actor_phases = 4 // cfg.actor_delay
    assert len(grads) == 4 + actor_phases
    assert sum(len(g) for g in grads) == 4 * cfg.n_critics + actor_phases * cfg.n_actors
    assert seen and {dtype for _, dtype in seen} == {F32}, sorted(
        {(where, str(dtype)) for where, dtype in seen if dtype != F32}
    )
    # The environment side stays float64, the buffer's reward channels too.
    assert buffer._r_a.dtype == buffer._r_f.dtype == F64
    assert agent.action_array(env.observation, mode="train").dtype == F64
    assert agent.action_array(env.observation, mode="eval").dtype == F64


def test_gradient_check_computes_in_float64(monkeypatch):
    seen = []
    record = lambda name, args, out: seen.extend(  # noqa: E731
        (name, a.dtype) for a in _arrays([*args, out])
    )
    for name in ("mlp_apply", "mlp_graph"):
        _recorder(monkeypatch, mlp_module, name, record)
    _recorder(monkeypatch, ad, "backprop", record)
    _recorder(monkeypatch, agent_module, "deterministic_head", record)
    spec = MlpSpec(4, (8, 8), 3)
    assert gradient_check(spec, "tanh", seed=0, probes=10) < 1e-4
    names = {name for name, _ in seen}
    assert names == {"mlp_apply", "mlp_graph", "backprop", "deterministic_head"}
    assert {dtype for _, dtype in seen} == {F64}
