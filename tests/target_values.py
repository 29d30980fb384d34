"""The target-critic values behind a bootstrap target, for tests.

``compute_targets`` returns only y. ``target_values`` rebuilds what y is
made of: it draws the candidate next actions with ``targets._next_actions``
from a saved copy of ``agent.rng``'s state, restores that state (so the
next ``compute_targets`` call draws the same candidates), and evaluates
every target critic on every candidate.
"""

import numpy as np

from crashrl.agents import targets
from crashrl.numkit import mlp_apply


def target_values(batch, agent):
    """``(q_values, v_next)`` behind the next ``compute_targets(batch, agent)``.

    ``q_values[n, n_candidates, n_critics]`` holds Q'_i(s', a_j) before any
    entropy term; ``v_next[n, 1]`` is max_j (min_i Q'_i(s', a_j) - alpha *
    log pi(a_j|s')), the log term only for a stochastic (SAC) agent.
    """
    state = agent.rng.bit_generator.state
    candidates, logp = targets._next_actions(batch, agent)
    agent.rng.bit_generator.state = state
    # Each target critic on its own (a one-network view) on each candidate.
    q_values = np.stack(
        [
            np.concatenate(
                [mlp_apply(net, np.concatenate([batch.s_next, a], axis=1))[0]
                 for net in agent.target_critics],
                axis=1,
            )
            for a in candidates
        ],
        axis=1,
    )
    v = q_values.min(axis=2)
    if logp is not None:
        v = v - agent.cfg.sac_alpha * logp
    return q_values, v.max(axis=1, keepdims=True)


def bootstrap(batch, agent, v_next):
    """r + gamma * (1 - done) * v_next, the target ``compute_targets`` must equal bit for bit."""
    return batch.r + agent.cfg.gamma * (1.0 - batch.done) * v_next
