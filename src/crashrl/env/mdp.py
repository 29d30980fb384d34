"""The accident-anticipation MDP over one episode.

Each step consumes a dual action (accident score, fixation point), pays the
two rewards for the current frame, then builds the next observation from the
next frame: foveate at the chosen fixation -> blend with the raw field ->
block-mean pool -> append to the frame stack (oldest first). The chain is
``attention_features``, the same kernel the lockstep evaluation rollout
runs over many episodes at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import EnvConfig
from .episode import Episode
from .rewards import reward_accident, reward_fixation
from .saliency import attention_features, normalize_fields

IMAGE_CENTER = (0.5, 0.5)


@dataclass(frozen=True)
class DualAction:
    """Concatenated action: accident score plus predicted fixation point."""

    a: float
    p_hat: tuple[float, float]

    def __post_init__(self):
        if not 0.0 <= self.a <= 1.0:
            raise ValueError(f"accident score must be in [0, 1], got {self.a}")
        px, py = self.p_hat
        if not (0.0 <= px <= 1.0 and 0.0 <= py <= 1.0):
            raise ValueError(f"fixation must lie in [0, 1]^2, got {self.p_hat}")
        object.__setattr__(self, "p_hat", (float(px), float(py)))

    @classmethod
    def from_array(cls, arr) -> "DualAction":
        arr = np.asarray(arr, dtype=np.float64).reshape(-1)
        if arr.size != 3:
            raise ValueError(f"dual action needs 3 components, got {arr.size}")
        return cls(float(arr[0]), (float(arr[1]), float(arr[2])))


@dataclass(frozen=True)
class Observation:
    """Pooled attention features stacked over the last ``stack`` frames."""

    features: np.ndarray
    frame_index: int

    def __post_init__(self):
        feats = np.ascontiguousarray(self.features, dtype=np.float64)
        if feats.ndim != 1:
            raise ValueError("observation features must be a flat vector")
        object.__setattr__(self, "features", feats)


@dataclass(frozen=True)
class StepResult:
    next_obs: Observation
    r_A: float
    r_F: float
    done: bool


def check_steppable(episode: Episode, cfg: EnvConfig) -> None:
    """Raise ValueError unless cfg's pooling fits the episode and it has a step."""
    h, w = episode.grid_shape
    if h % cfg.pool_h or w % cfg.pool_w:
        raise ValueError(
            f"pool dims ({cfg.pool_h}x{cfg.pool_w}) must divide the episode "
            f"grid ({h}x{w})"
        )
    if episode.length < 2:
        raise ValueError("episode must have at least 2 frames to step")


class AccidentEnv:
    """Single-owner, sequentially stepped environment over one episode."""

    def __init__(self, episode: Episode, cfg: EnvConfig) -> None:
        check_steppable(episode, cfg)
        self.episode = episode
        self.cfg = cfg
        # Normalize a copy once; files may carry unnormalized fields, and the
        # episode's saliency is read-only (it may be shared through a cache).
        self._frames = normalize_fields(episode.saliency.copy())
        self._cursor: int | None = None
        self._stack: list[np.ndarray] | None = None
        self._obs: Observation | None = None

    def _features(self, frame_index: int, fixation: tuple[float, float]) -> np.ndarray:
        raw = self._frames[frame_index : frame_index + 1]
        return attention_features(raw, np.array([fixation]), self.cfg)[0]

    def reset(self) -> Observation:
        first = self._features(0, IMAGE_CENTER)
        self._stack = [first.copy() for _ in range(self.cfg.stack)]
        self._cursor = 0
        self._obs = Observation(np.concatenate(self._stack), 0)
        return self._obs

    @property
    def observation(self) -> Observation:
        if self._obs is None:
            raise RuntimeError("environment must be reset before use")
        return self._obs

    @property
    def done(self) -> bool:
        if self._cursor is None:
            raise RuntimeError("environment must be reset before use")
        return self._cursor >= self.episode.length - 1

    def step(self, action: DualAction) -> StepResult:
        if self._cursor is None:
            raise RuntimeError("environment must be reset before stepping")
        if self.done:
            raise RuntimeError("episode is done; reset before stepping again")
        t = self._cursor
        ep = self.episode
        r_a = reward_accident(action.a, self.cfg.a_0, ep.y, t, ep.t_a)
        r_f = reward_fixation(
            action.p_hat,
            tuple(ep.fixation_track[t]),
            t,
            ep.t_a,
            self.cfg.eta,
            self.cfg.fixation_window,
        )
        self._cursor = t + 1
        feats = self._features(self._cursor, action.p_hat)
        self._stack = self._stack[1:] + [feats]
        self._obs = Observation(np.concatenate(self._stack), self._cursor)
        return StepResult(self._obs, r_a, r_f, self.done)
