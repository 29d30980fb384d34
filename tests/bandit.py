"""One-step quadratic bandit used as a convergence diagnostic for the agents.

A single fixed observation, a single step per episode, and reward
1 - (a - optimum)^2 on the accident-score component only. The optimal eval
action is a = optimum, which makes convergence trivially checkable.
"""

from __future__ import annotations

import numpy as np

from crashrl.env.mdp import StepResult, check_actions


class QuadraticBandit:
    """Drop-in environment with AccidentEnv's surface for a group of one."""

    def __init__(self, optimum: float = 0.7, obs_dim: int = 1) -> None:
        if not 0.0 <= optimum <= 1.0:
            raise ValueError(f"optimum must be in [0, 1], got {optimum}")
        self.optimum = optimum
        self.obs_dim = obs_dim
        self._obs: np.ndarray | None = None
        self._done = False

    def reset(self) -> np.ndarray:
        self._obs = np.zeros((1, self.obs_dim))
        self._done = False
        return self._obs

    @property
    def observation(self) -> np.ndarray:
        if self._obs is None:
            raise RuntimeError("environment must be reset before use")
        return self._obs

    @property
    def done(self) -> bool:
        return self._done

    def step(self, actions) -> StepResult:
        if self._obs is None or self._done:
            raise RuntimeError("reset the bandit before stepping")
        a = check_actions(actions, 1)[0, 0].item()
        reward = 1.0 - (a - self.optimum) ** 2
        self._done = True
        return StepResult(np.zeros((1, self.obs_dim)), np.array([reward]), np.zeros(1), True)
