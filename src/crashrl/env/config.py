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
    "before_accident" uses t <= t_a instead. ``check_generatable`` checks
    the settings that shape generated episodes only.
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


def check_steppable(where: str, shape, cfg: EnvConfig, error) -> None:
    """Raise ``error``, its message led by ``where``, unless ``AccidentEnv``
    can step episodes of ``shape`` [T, H, W]: the pool divides H x W, T >= 2."""
    length, h, w = shape
    if h % cfg.pool_h or w % cfg.pool_w:
        pool = f"pool dims ({cfg.pool_h}x{cfg.pool_w})"
        raise error(f"{where}: {pool} must divide the episode grid ({h}x{w})")
    if length < 2:
        raise error(f"{where}: must have at least 2 frames to step, got {length}")


def check_generatable(cfg: EnvConfig, error=ValueError) -> None:
    """Raise ``error`` unless ``cfg`` can generate episodes: the generated
    shape passes ``check_steppable`` and, with accidents (accident_prob > 0),
    the t_a range holds a frame.

    Rules of generation only, so ``EnvConfig`` does not check them: episode
    files bring their own grid and frames (``load_episodes`` checks those).
    The commands that generate episodes check these before any write.
    """
    check_steppable("env", (cfg.episode_len, cfg.grid_h, cfg.grid_w), cfg, error)
    lo, hi = cfg.t_a_bounds
    if lo > hi and cfg.accident_prob > 0.0:
        raise error(
            f"env: t_a range is empty: t_a_frac_lo {cfg.t_a_frac_lo} and t_a_frac_hi "
            f"{cfg.t_a_frac_hi} of episode_len {cfg.episode_len} give frames {lo} "
            f"to {hi}, and accident_prob {cfg.accident_prob} needs one"
        )
