"""Environment configuration for the accident-anticipation MDP."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields

FIXATION_WINDOWS = ("after_accident", "before_accident")


@dataclass(frozen=True)
class EnvConfig:
    """Knobs for episode generation, the attention pipeline, and rewards.

    fixation_window selects when the fixation reward (and fixation MSE) is
    active: "after_accident" follows the printed indicator t > t_a;
    "before_accident" uses t <= t_a instead.
    """

    a_0: float = 0.5
    eta: float = 0.08
    rho: float = 0.5
    sigma_f: float = 0.15
    stack: int = 4
    grid_h: int = 16
    grid_w: int = 16
    pool_h: int = 8
    pool_w: int = 8
    episode_len: int = 100
    accident_prob: float = 0.5
    t_a_frac_lo: float = 0.6
    t_a_frac_hi: float = 0.9
    fps: float = 10.0
    fixation_window: str = "after_accident"

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "float" and not abs(value) <= sys.float_info.max:  # NaN fails too
                raise ValueError(f"{f.name} must be a finite number, got {value!r}")
        if not 0.0 < self.a_0 < 1.0:
            raise ValueError(f"a_0 must be in (0, 1), got {self.a_0}")
        if self.eta <= 0.0:
            raise ValueError(f"eta must be > 0, got {self.eta}")
        if not 0.0 <= self.rho <= 1.0:
            raise ValueError(f"rho must be in [0, 1], got {self.rho}")
        if self.sigma_f <= 0.0:
            raise ValueError(f"sigma_f must be > 0, got {self.sigma_f}")
        if self.stack < 1:
            raise ValueError(f"stack must be >= 1, got {self.stack}")
        if min(self.grid_h, self.grid_w, self.pool_h, self.pool_w) < 1:
            raise ValueError("grid and pool dimensions must be >= 1")
        if self.grid_h % self.pool_h or self.grid_w % self.pool_w:
            raise ValueError(
                f"pool dims ({self.pool_h}x{self.pool_w}) must divide "
                f"grid dims ({self.grid_h}x{self.grid_w})"
            )
        if self.episode_len < 2:
            raise ValueError(f"episode_len must be >= 2, got {self.episode_len}")
        if not 0.0 <= self.accident_prob <= 1.0:
            raise ValueError(f"accident_prob must be in [0, 1], got {self.accident_prob}")
        if not 0.0 < self.t_a_frac_lo < self.t_a_frac_hi < 1.0:
            raise ValueError("t_a range must satisfy 0 < lo < hi < 1")
        if self.fps <= 0.0:
            raise ValueError(f"fps must be > 0, got {self.fps}")
        if self.fixation_window not in FIXATION_WINDOWS:
            raise ValueError(
                f"fixation_window must be one of {FIXATION_WINDOWS}, "
                f"got {self.fixation_window!r}"
            )

    @property
    def t_a_bounds(self) -> tuple[int, int]:
        """The first and last frame a generated accident may take: ceil(lo * T)
        and floor(hi * T), kept off the first and the last frame."""
        t_len = self.episode_len
        return (
            max(1, math.ceil(self.t_a_frac_lo * t_len)),
            min(t_len - 1, math.floor(self.t_a_frac_hi * t_len)),
        )

    @property
    def obs_dim(self) -> int:
        """Length of one observation: pooled grid stacked over the last frames."""
        return self.stack * self.pool_h * self.pool_w


def check_generatable(cfg: EnvConfig, error=ValueError) -> None:
    """Raise ``error`` unless ``cfg`` can generate episodes: with accidents
    (accident_prob > 0) the t_a range must hold a frame.

    A rule of generation only, so ``EnvConfig`` does not check it: episode
    files bring their own frames. The commands that generate episodes check
    it before they write anything.
    """
    lo, hi = cfg.t_a_bounds
    if lo > hi and cfg.accident_prob > 0.0:
        raise error(
            f"env: t_a range is empty: t_a_frac_lo {cfg.t_a_frac_lo} and t_a_frac_hi "
            f"{cfg.t_a_frac_hi} of episode_len {cfg.episode_len} give frames {lo} "
            f"to {hi}, and accident_prob {cfg.accident_prob} needs one"
        )
