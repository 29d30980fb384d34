"""The accident-anticipation MDP, stepped over a lockstep group of episodes.

A group is one or more episodes with the same grid shape and length; training
steps a run of whole warmup episodes as one group and every other episode as
a group of one, evaluation one group per (grid shape, length). Each
step takes one dual action per episode, a row (accident score, fixation x,
fixation y), pays the two rewards for the current frame, then builds the
next observation from the next frame: foveate at the chosen fixation ->
blend with the raw field -> block-mean pool -> append to the frame stack
(oldest first). The chain is ``attention_features``, run once per step on
frame t + 1 of every episode in the group.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import EnvConfig
from .rewards import reward_accident, reward_fixation
from .saliency import IMAGE_CENTER, attention_features, normalize_fields


@dataclass(frozen=True)
class StepResult:
    """``next_obs[N, obs_dim]``, the per-episode rewards ``r_A[N]`` and ``r_F[N]``."""

    next_obs: np.ndarray
    r_A: np.ndarray
    r_F: np.ndarray
    done: bool


def check_actions(actions, n: int) -> np.ndarray:
    """``actions`` as float64 ``[n, 3]``; the first row out of [0, 1] (or NaN) raises."""
    actions = np.asarray(actions, dtype=np.float64)
    if actions.shape != (n, 3):
        raise ValueError(
            f"actions must have shape [{n}, 3], got {list(actions.shape)}"
        )
    # Python floats, row by row like the rewards after it: for a group of one
    # this costs a sixth of a vectorized check's numpy calls. NaN fails every
    # comparison.
    for a, px, py in actions.tolist():
        if not 0.0 <= a <= 1.0:
            raise ValueError(f"accident score must be in [0, 1], got {a}")
        if not (0.0 <= px <= 1.0 and 0.0 <= py <= 1.0):
            raise ValueError(f"fixation must lie in [0, 1]^2, got {(px, py)}")
    return actions


class AccidentEnv:
    """Single-owner environment stepping N episodes of one shape and length
    together, each of which has passed ``check_steppable``."""

    def __init__(self, episodes, cfg: EnvConfig) -> None:
        episodes = tuple(episodes)
        if not episodes:
            raise ValueError("an environment needs at least one episode")
        shapes = {(episode.grid_shape, episode.length) for episode in episodes}
        if len(shapes) > 1:
            raise ValueError(
                "a lockstep group needs one grid shape and one length, got "
                f"{sorted(shapes)}"
            )
        self.episodes = episodes
        self.cfg = cfg
        self._tracks = [episode.fixation_track.tolist() for episode in episodes]
        self._last_t = episodes[0].length - 1
        self.t: int | None = None
        self._obs: np.ndarray | None = None

    def _frame(self, t: int) -> np.ndarray:
        """Frame t of every episode, normalized, as [N, H, W] (episodes stay read-only)."""
        return normalize_fields(np.array([episode.saliency[t] for episode in self.episodes]))

    def reset(self) -> np.ndarray:
        n = len(self.episodes)
        fixations = np.tile(IMAGE_CENTER, (n, 1))
        first = attention_features(self._frame(0), fixations, self.cfg)
        self.t = 0
        self._obs = np.tile(first, self.cfg.stack)
        return self._obs

    @property
    def observation(self) -> np.ndarray:
        if self._obs is None:
            raise RuntimeError("environment must be reset before use")
        return self._obs

    @property
    def done(self) -> bool:
        if self.t is None:
            raise RuntimeError("environment must be reset before use")
        return self.t >= self._last_t

    def step(self, actions) -> StepResult:
        """Pay frame t's rewards for ``actions[N, 3]``, then observe frame t + 1.

        The rewards run on Python floats: numpy's ``np.exp`` differs from
        libm ``math.exp`` in the last bit on some inputs.
        """
        if self.t is None:
            raise RuntimeError("environment must be reset before stepping")
        if self.done:
            raise RuntimeError("episode is done; reset before stepping again")
        actions = check_actions(actions, len(self.episodes))
        t, cfg = self.t, self.cfg
        r_a, r_f = [], []
        for episode, track, (a, px, py) in zip(self.episodes, self._tracks, actions.tolist()):
            r_a.append(reward_accident(a, cfg.a_0, episode.y, t, episode.t_a))
            r_f.append(
                reward_fixation(
                    (px, py), track[t], t, episode.t_a, cfg.eta, cfg.fixation_window
                )
            )
        self.t = t + 1
        features = attention_features(self._frame(t + 1), actions[:, 1:], cfg)
        self._obs = np.concatenate([self._obs[:, features.shape[1] :], features], axis=1)
        return StepResult(self._obs, np.array(r_a), np.array(r_f), self.done)
