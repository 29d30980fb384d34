"""Gradient phases: critic regression, delayed actor ascent, target tracking.

Every algorithm runs the same phases with the settings its ``AgentConfig``
derives (see ``agents.config``). Critic losses are mean-squared TD errors
against ``compute_targets``; with coupled critics (DARC) each critic's loss
adds nu * mean((Q1 - Q2)^2), pulling the two critics together. The actor
phase runs once every ``actor_delay`` critic phases: actor j ascends critic
j, or, for a stochastic (SAC) actor, min_i Q_i - alpha * log pi with the
reparameterization trick. After every actor phase all targets are Polyak-
updated with rate tau.

Each phase backpropagates only into the parameters it updates (the critics'
in the critic phase, the actor's in the actor phase): no gradient is formed
for observations, targets, or the critics an actor ascends. Adam and the
Polyak sync then update each network's flat parameter vector in place.
Every value and gradient is float32, as the batch and the parameters are.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from ..env.mdp import DualAction
from ..numkit import DTYPE, adam_step, flat_grads, lift_params, mlp_graph, soft_update
from ..numkit import autodiff as ad
from .agent import LOG_STD_MAX, LOG_STD_MIN, Agent
from .replay import ACTION_DIM, Batch, ReplayBuffer, Transition
from .targets import LOG_TWO_PI, compute_targets


def _squash01_node(t: ad.Node) -> ad.Node:
    return ad.scale(ad.add_const(t, 1.0), 0.5)


def _critic_loss(agent: Agent, batch: Batch, targets: np.ndarray):
    """Graph for the summed critic losses, plus the nu-weighted coupling.

    Returns the loss node, each critic's parameter leaves, each critic's MSE
    node, and the coupling term's value (0.0 when it is off).
    """
    cfg = agent.cfg
    s = ad.lift(batch.s)
    a = ad.lift(batch.action)
    x = ad.concat_cols(s, a)
    y = ad.lift(targets)

    critic_nodes = [lift_params(p) for p in agent.critics]
    q = [mlp_graph(nodes, agent.critic_spec, x) for nodes in critic_nodes]
    mse = [ad.mean_all(ad.square(ad.sub(qi, y))) for qi in q]

    loss = reduce(ad.add, mse)
    reg_value = 0.0
    if cfg.coupled_critics and cfg.nu > 0.0:
        reg = ad.mean_all(ad.square(ad.sub(q[0], q[1])))
        reg_value = float(reg.value)
        loss = ad.add(loss, ad.scale(reg, cfg.nu))
    return loss, critic_nodes, mse, reg_value


def critic_update(agent: Agent, batch: Batch) -> dict[str, float]:
    """One Adam step per critic against the TD target; returns scalar losses."""
    cfg = agent.cfg
    targets = compute_targets(batch, agent).y
    loss, critic_nodes, mse, reg_value = _critic_loss(agent, batch, targets)
    ad.backprop(loss, 1.0, [leaf for nodes in critic_nodes for leaf in nodes.values()])

    losses: dict[str, float] = {}
    for i, nodes in enumerate(critic_nodes):
        adam_step(agent.critics[i], flat_grads(nodes), agent.critic_adam[i])
        losses[f"critic_{i}"] = float(mse[i].value) + cfg.nu * reg_value
    if cfg.coupled_critics:
        losses["critic_reg"] = reg_value
    agent.update_count += 1
    return losses


def _det_actor_loss(agent: Agent, batch: Batch, actor_idx: int, critic_idx: int):
    """Graph for -mean Q_critic(s, pi_actor(s)) and the actor's parameter leaves."""
    s = ad.lift(batch.s)
    actor_nodes = lift_params(agent.actors[actor_idx])
    action = _squash01_node(mlp_graph(actor_nodes, agent.actor_spec, s))
    critic_nodes = lift_params(agent.critics[critic_idx])
    q = mlp_graph(critic_nodes, agent.critic_spec, ad.concat_cols(s, action))
    return ad.neg(ad.mean_all(q)), actor_nodes


def _sac_actor_loss(agent: Agent, batch: Batch):
    cfg = agent.cfg
    s = ad.lift(batch.s)
    actor_nodes = lift_params(agent.actors[0])
    out = mlp_graph(actor_nodes, agent.actor_spec, s)
    mean = ad.slice_cols(out, 0, ACTION_DIM)
    log_std = ad.clip(ad.slice_cols(out, ACTION_DIM, 2 * ACTION_DIM), LOG_STD_MIN, LOG_STD_MAX)
    eps = agent.rng.standard_normal((len(batch), ACTION_DIM)).astype(DTYPE)
    u = ad.add(mean, ad.mul(ad.exp(log_std), ad.lift(eps)))
    action = _squash01_node(ad.tanh(u))
    # log pi with u = mean + std*eps: the normal term reduces to a constant in
    # eps minus log_std; the tanh correction still depends on u.
    const = -0.5 * eps * eps - 0.5 * LOG_TWO_PI
    per_dim = ad.sub(ad.sub(ad.lift(const), log_std), ad.log_one_minus_tanh_sq(u))
    logp = ad.sum_rows(per_dim)

    critic_nodes = [lift_params(p) for p in agent.critics]
    x = ad.concat_cols(s, action)
    q_min = reduce(
        ad.minimum, [mlp_graph(nodes, agent.critic_spec, x) for nodes in critic_nodes]
    )
    loss = ad.mean_all(ad.sub(ad.scale(logp, cfg.sac_alpha), q_min))
    return loss, actor_nodes


def _sync_targets(agent: Agent) -> None:
    tau = agent.cfg.tau
    for target, online in zip(agent.target_actors, agent.actors):
        soft_update(target, online, tau)
    for target, online in zip(agent.target_critics, agent.critics):
        soft_update(target, online, tau)


def actor_update(agent: Agent, batch: Batch) -> dict[str, float]:
    """Delayed policy improvement plus target tracking.

    Runs only when the update counter is divisible by the config's
    actor_delay; off-delay calls are no-ops that leave every parameter
    untouched.
    """
    cfg = agent.cfg
    if agent.update_count % cfg.actor_delay != 0:
        return {}

    losses: dict[str, float] = {}
    for j in range(cfg.n_actors):
        if cfg.stochastic:
            loss, actor_nodes = _sac_actor_loss(agent, batch)
        else:
            loss, actor_nodes = _det_actor_loss(agent, batch, j, j)
        ad.backprop(loss, 1.0, list(actor_nodes.values()))
        adam_step(agent.actors[j], flat_grads(actor_nodes), agent.actor_adam[j])
        losses[f"actor_{j}"] = float(loss.value)
    _sync_targets(agent)
    return losses


def update(agent: Agent, batch: Batch) -> dict[str, float]:
    """One full gradient phase: critics, then (possibly delayed) actors."""
    losses = critic_update(agent, batch)
    losses.update(actor_update(agent, batch))
    return losses


@dataclass(frozen=True)
class StepLog:
    """Per-step record for logging: environment rewards and update losses."""

    r_A: float
    r_F: float
    done: bool
    losses: dict[str, float] = field(default_factory=dict)

    @property
    def reward(self) -> float:
        return self.r_A + self.r_F


def train_step(agent: Agent, env, buffer: ReplayBuffer) -> StepLog:
    """One environment interaction plus, after warmup, one gradient phase.

    During the first warmup_steps interactions actions are uniform random
    and no parameters change.
    """
    cfg = agent.cfg
    s = env.observation.features.copy()
    if agent.total_env_steps < cfg.warmup_steps:
        action_arr = agent.rng.uniform(0.0, 1.0, ACTION_DIM)
    else:
        action_arr = agent.action_array(s, mode="train")
    result = env.step(DualAction.from_array(action_arr))
    combined = (
        cfg.reward_weight_accident * result.r_A
        + cfg.reward_weight_fixation * result.r_F
    )
    buffer.push(
        Transition(s, action_arr, combined, result.next_obs.features, result.done)
    )
    agent.total_env_steps += 1
    losses: dict[str, float] = {}
    if agent.total_env_steps > cfg.warmup_steps and len(buffer) >= cfg.batch_size:
        losses = update(agent, buffer.sample(cfg.batch_size))
    return StepLog(result.r_A, result.r_F, result.done, losses)
