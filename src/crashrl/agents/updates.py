"""Gradient phases: critic regression, delayed actor ascent, target tracking.

Every algorithm runs the same phases with the settings its ``AgentConfig``
derives (see ``agents.config``). Critic losses are mean-squared TD errors
against ``compute_targets``; with coupled critics (DARC) each critic's loss
adds nu * mean((Q1 - Q2)^2), pulling the two critics together. The actor
phase runs once every ``actor_delay`` critic phases: actor j ascends critic
j, or, for a stochastic (SAC) actor, min_i Q_i - alpha * log pi with the
reparameterization trick. After every actor phase all targets are Polyak-
updated with rate tau.

Each phase runs each role's stack forward in one pass with ``mlp_graph``
(acting and targets run its output alone, ``mlp_apply``), writes out the
gradient of its loss with respect to the stack's output by hand, and hands
it to ``autodiff.backprop`` for the chain rule through every network of the
stack at once. The actor phases run the heads acting and the targets use
(``agent.deterministic_head`` and ``agent.sample_policy``);
``_action_grad`` holds both heads' derivative. Only the parameters a phase
updates get a gradient (the critics' in the critic phase, the actors' in
the actor phase); the actor phase also forms the critics' input gradient,
for the action block alone: the 3 trailing input columns, from W_0's 3
action rows (not all 259 columns of [s, a] at default scale). One Adam step
per role and one Polyak sync per target role then update the stacks' flat
parameters in place.
Every value and gradient is float32, as the batch and the parameters are.
Each loss head runs the operations of its loss graph in the graph's order,
per network (each mean divides by one network's count), and a gradient
reaching a value along two paths is the sum of the two, so the gradients
are bit-identical to a reverse-mode tape over each network's graph
(``tests/autodiff_reference.py`` keeps that tape as the oracle).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..numkit import adam_step, mlp_graph, soft_update
from ..numkit import autodiff as ad
from .agent import (
    LOG_STD_MAX,
    LOG_STD_MIN,
    Agent,
    deterministic_head,
    sample_policy,
    squash01,
    state_action,
)
from .replay import ACTION_DIM, Batch, ReplayBuffer
from .targets import LOG_TWO_PI, compute_targets, tanh_correction


def _mean_grad(values: np.ndarray, scale=1.0):
    """d(scale * mean(v)) / d(v) for one network's values v, the last two axes
    of ``values``: one entry, scale / (B * out) in their dtype."""
    return values.dtype.type(scale) / (values.shape[-2] * values.shape[-1])


def _critic_grads(agent: Agent, batch: Batch, targets: np.ndarray):
    """The critics' gradient of the summed critic losses plus the nu-weighted
    coupling.

    The loss is sum_i mean((Q_i - y)^2) + nu * mean((Q_0 - Q_1)^2). Returns
    the critics' [K, n_values] gradient, each critic's MSE, and the coupling
    term's value (0.0 when it is off).
    """
    cfg = agent.cfg
    q, record = mlp_graph(agent.critics, state_action(batch.s, batch.action))
    d = q - targets
    mse = (d * d).mean(axis=(-2, -1)).tolist()
    upstream = _mean_grad(d) * (2.0 * d)
    reg_value = 0.0
    if cfg.coupled_critics and cfg.nu > 0.0:
        c = q[0] - q[1]
        reg_value = float((c * c).mean())
        g = _mean_grad(c, cfg.nu) * (2.0 * c)
        upstream[0] += g
        upstream[1] -= g
    return ad.backprop(record, upstream)[0], mse, reg_value


def critic_update(agent: Agent, batch: Batch) -> dict[str, float]:
    """One Adam step of the critics against the TD target; returns scalar losses."""
    cfg = agent.cfg
    targets = compute_targets(batch, agent)
    grads, mse, reg_value = _critic_grads(agent, batch, targets)
    adam_step(agent.critics, grads, agent.critic_adam)
    losses = {f"critic_{i}": m + cfg.nu * reg_value for i, m in enumerate(mse)}
    if cfg.coupled_critics:
        losses["critic_reg"] = reg_value
    agent.update_count += 1
    return losses


def _action_grad(g_x, t) -> np.ndarray:
    """d/du of Q(s, squash01(tanh(u))) given the critics' input gradient g_x
    of the action block and t = tanh(u): the chain rule of both actor heads
    (the deterministic head's clamp passes it)."""
    return g_x * 0.5 * (1.0 - t * t)


def _det_actor_grad(agent: Agent, batch: Batch):
    """-mean Q_j(s, pi_j(s)) for every actor j, which ascends critic j: the
    values and the actors' [K, n_values] gradient."""
    out, actor_record = mlp_graph(agent.actors, batch.s)
    t, action = deterministic_head(out)
    critics = agent.critics
    if len(critics) > len(agent.actors):  # TD3: its one actor ascends critic 0
        critics = critics[: len(agent.actors)]
    q, critic_record = mlp_graph(critics, state_action(batch.s, action))
    g_q = np.full(q.shape, _mean_grad(q, -1.0), q.dtype)
    g_x = ad.backprop(critic_record, g_q, params=False, inputs=ACTION_DIM)[1]
    g_u = _action_grad(g_x, t)
    return (-q.mean(axis=(-2, -1))).tolist(), ad.backprop(actor_record, g_u)[0]


def _sac_actor_grad(agent: Agent, batch: Batch):
    """mean(alpha * log pi(a|s) - min_i Q_i(s, a)) for a = squash(tanh(u)),
    u = mean + std * eps: its value and the actor's [1, n_values] gradient."""
    cfg = agent.cfg
    out, actor_record = mlp_graph(agent.actors, batch.s)
    out = out[0]
    log_std_raw = out[:, ACTION_DIM:]
    inside = (log_std_raw >= LOG_STD_MIN) & (log_std_raw <= LOG_STD_MAX)  # the clip's gradient
    _, log_std, std, eps, u = sample_policy(out, agent.rng)
    t = np.tanh(u)
    # log pi with u = mean + std*eps: the normal term reduces to a constant in
    # eps minus log_std; the tanh correction has derivative -2*tanh(u).
    const = -0.5 * eps * eps - 0.5 * LOG_TWO_PI
    logp = ((const - log_std) - tanh_correction(u)).sum(axis=1, keepdims=True)

    # Both critics value the one action; the loss takes their min.
    q, critic_record = mlp_graph(agent.critics, state_action(batch.s, squash01(t)))
    take_0 = q[0] <= q[1]
    q_min = np.where(take_0, q[0], q[1])
    loss = float((logp * cfg.sac_alpha - q_min).mean())

    g = _mean_grad(q_min)  # d loss / d(alpha * logp - q_min), per row
    g_logp = g * cfg.sac_alpha  # per entry of (const - log_std) - correction
    g_q = np.stack([-g * take_0, -g * ~take_0])
    g_x = ad.backprop(critic_record, g_q, params=False, inputs=ACTION_DIM)[1]
    g_a = _action_grad(g_x[0] + g_x[1], t)
    # u reaches the loss through the action and the tanh correction; log_std
    # through the normal term and std.
    g_u = g_a + (-g_logp) * (-2.0 * t)
    g_log_std = -g_logp + (g_u * eps) * std
    g_out = np.concatenate([g_u, g_log_std * inside], axis=1)
    g_out += 0.0  # the two column slices' zero padding turns -0.0 into +0.0
    return [loss], ad.backprop(actor_record, g_out[None])[0]


def _sync_targets(agent: Agent) -> None:
    tau = agent.cfg.tau
    if agent.target_actors is not None:
        soft_update(agent.target_actors, agent.actors, tau)
    soft_update(agent.target_critics, agent.critics, tau)


def actor_update(agent: Agent, batch: Batch) -> dict[str, float]:
    """Delayed policy improvement plus target tracking.

    Runs only when the update counter is divisible by the config's
    actor_delay; off-delay calls are no-ops that leave every parameter
    untouched.
    """
    cfg = agent.cfg
    if agent.update_count % cfg.actor_delay != 0:
        return {}

    if cfg.stochastic:
        values, grads = _sac_actor_grad(agent, batch)
    else:
        values, grads = _det_actor_grad(agent, batch)
    adam_step(agent.actors, grads, agent.actor_adam)
    _sync_targets(agent)
    return {f"actor_{j}": value for j, value in enumerate(values)}


def update(agent: Agent, batch: Batch) -> dict[str, float]:
    """One full gradient phase: critics, then (possibly delayed) actors."""
    losses = critic_update(agent, batch)
    losses.update(actor_update(agent, batch))
    return losses


@dataclass(frozen=True)
class StepLog:
    """Per-step record for logging: the environment's rewards and the update losses."""

    r_A: float
    r_F: float
    done: bool
    losses: dict[str, float] = field(default_factory=dict)


def _warmup_actions(agent: Agent, n: int) -> np.ndarray:
    """n uniform random actions, one per row: the same draws as n calls for one row."""
    return agent.rng.uniform(0.0, 1.0, (n, ACTION_DIM))


def train_step(agent: Agent, env, buffer: ReplayBuffer) -> StepLog:
    """One environment interaction plus, after warmup, one gradient phase.

    ``env`` steps a group of one episode. During the first warmup_steps
    interactions actions are uniform random and no parameters change;
    ``warmup_group`` steps whole warmup episodes together with the same
    outcome.
    """
    cfg = agent.cfg
    s = env.observation
    if agent.total_env_steps < cfg.warmup_steps:
        actions = _warmup_actions(agent, 1)
    else:
        actions = agent.action_array(s, mode="train")
    result = env.step(actions)
    r_a, r_f = result.r_A.item(0), result.r_F.item(0)
    buffer.push(s[0], actions[0], r_a, r_f, result.next_obs[0], result.done)
    agent.total_env_steps += 1
    losses: dict[str, float] = {}
    if agent.total_env_steps > cfg.warmup_steps and len(buffer) >= cfg.batch_size:
        weights = (cfg.reward_weight_accident, cfg.reward_weight_fixation)
        losses = update(agent, buffer.sample(cfg.batch_size, weights))
    return StepLog(r_a, r_f, result.done, losses)


def warmup_group(agent: Agent, env, buffer: ReplayBuffer) -> None:
    """Step a freshly reset lockstep group of K episodes of T frames, all
    inside the warmup, as K episodes of ``train_step`` one after another.

    The K * (T - 1) actions come from one draw, episode-major, and each
    step's K transitions go to the ring slots the episodes would fill one
    after another, so the buffer, ``agent.rng`` and ``total_env_steps`` end
    as they would. The caller keeps K * (T - 1) within the warmup and the
    buffer's capacity.
    """
    k, steps = len(env.episodes), env.episodes[0].length - 1
    actions = _warmup_actions(agent, k * steps).reshape(k, steps, ACTION_DIM)
    rows = np.arange(k) * steps
    while not env.done:
        t, s, step_actions = env.t, env.observation, actions[:, env.t]
        result = env.step(step_actions)
        buffer.write(
            rows + t, s, step_actions, result.r_A, result.r_F, result.next_obs, result.done
        )
    buffer.commit(k * steps)
    agent.total_env_steps += k * steps
