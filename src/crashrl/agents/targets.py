"""Bootstrap targets: one rule for all four algorithms.

Targets are pure numpy (no tape): y = r + gamma * (1 - done) * V(s'), with

  V(s') = max_j min_i Q'_i(s', a_j)   (minus alpha * log pi(a_j|s') for SAC)

over the config's target critics i and candidate next actions j. For a
deterministic agent a_j is target actor j's action, plus clipped Gaussian
noise when the config smooths; a stochastic (SAC) agent has one candidate,
a reparameterized sample from its online policy. With one critic the min is
that critic's value (DDPG), with one actor the max is that actor's (DDPG,
TD3, SAC), and DARC takes both. One smoothing-noise draw per batch serves
every actor, so the candidates compete on equal footing and, with
bit-identical actors, DARC's target equals TD3's exactly. The candidates
come from one pass of the target-actor stack, and every target critic
values every candidate in one pass over [candidate, critic]. That pass
takes the critics' input as two blocks (``numkit.mlp_graph``): each target
critic forms s' @ W_s once and adds a_j @ W_a per candidate, so the state
product, 256 of the first layer's 259 input rows at default scale, is not
repeated per candidate. The sum is [s', a_j] @ W_0's, rounded in another
order, and the same for every algorithm, so the C4 reduction stays exact.
The min and the max are ``np.minimum``/``np.maximum`` reductions over those
two axes, each network's values compared in index order. Targets are
float32 like the batch; noise is drawn in float64 and cast.
"""

from __future__ import annotations

import math

import numpy as np

from ..numkit import DTYPE, mlp_apply
from .agent import Agent, sample_policy, squash01
from .replay import ACTION_DIM, Batch

LOG_TWO_PI = math.log(2.0 * math.pi)


def tanh_correction(u: np.ndarray) -> np.ndarray:
    """The tanh change-of-variables term log(1 - tanh(u)^2), entrywise.

    Evaluated as 2*(ln 2 - u - softplus(-2u)), which is exact and never
    underflows; its derivative is -2*tanh(u).
    """
    return 2.0 * (math.log(2.0) - u - np.logaddexp(0.0, -2.0 * u))


def tanh_gaussian_logprob(
    mean: np.ndarray, log_std: np.ndarray, u: np.ndarray
) -> np.ndarray:
    """log-density of tanh(u) for u ~ N(mean, exp(log_std)^2), summed per row."""
    z = (u - mean) / np.exp(log_std)
    normal = -0.5 * z * z - log_std - 0.5 * LOG_TWO_PI
    return (normal - tanh_correction(u)).sum(axis=1, keepdims=True)


def _smoothing_noise(agent: Agent, n: int) -> np.ndarray:
    cfg = agent.cfg
    noise = agent.rng.normal(0.0, cfg.target_noise, size=(n, ACTION_DIM))
    return np.clip(noise.astype(DTYPE), -cfg.noise_clip, cfg.noise_clip)


def _next_actions(batch: Batch, agent: Agent) -> tuple[np.ndarray, np.ndarray | None]:
    """The candidate next actions a_j, [J, n, 3], and the one stochastic
    candidate's log-density [n, 1] (None if deterministic)."""
    cfg = agent.cfg
    if cfg.stochastic:
        out = mlp_apply(agent.actors, batch.s_next)[0]
        mean, log_std, _, _, u = sample_policy(out, agent.rng)
        return squash01(np.tanh(u))[None], tanh_gaussian_logprob(mean, log_std, u)
    noise = _smoothing_noise(agent, len(batch)) if cfg.smoothing else None
    actions = agent.deterministic_candidates(agent.target_actors, batch.s_next)
    if noise is not None:
        actions = np.clip(actions + noise, 0.0, 1.0)
    return actions, None


def compute_targets(batch: Batch, agent: Agent) -> np.ndarray:
    """y = r + gamma * (1 - done) * max_j min_i Q'_i(s', a_j), for any algorithm."""
    cfg = agent.cfg
    a_next, logp = _next_actions(batch, agent)
    q = mlp_apply(agent.target_critics, (batch.s_next, a_next[:, None]))
    v = np.minimum.reduce(q, axis=1)
    if logp is not None:
        v = v - cfg.sac_alpha * logp
    return batch.r + cfg.gamma * (1.0 - batch.done) * np.maximum.reduce(v, axis=0)
