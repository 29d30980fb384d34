"""Agent hyperparameters, and the one place the four algorithms differ.

All four share one bootstrap rule, V = max_j min_i Q'_i(s', a_j), and one
actor rule (actor j ascends critic j). The read-only properties below are
the settings of that rule; every other module reads them and never the
algorithm name:

  algo  n_actors  n_critics  smoothing  actor_delay   stochastic  coupled_critics
  ddpg  1         1          no         1             no          no
  td3   1         2          yes        policy_delay  no          no
  sac   1         2          no         1             yes         no
  darc  2         2          yes        policy_delay  no          yes

They are properties, not fields, so the config hash, config.json and
checkpoint headers do not see them.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, fields

ALGOS = ("ddpg", "td3", "sac", "darc")


@dataclass(frozen=True)
class AgentConfig:
    algo: str = "darc"
    gamma: float = 0.99
    tau: float = 0.005
    nu: float = 0.005
    policy_delay: int = 2
    exploration_noise: float = 0.1
    target_noise: float = 0.2
    noise_clip: float = 0.5
    sac_alpha: float = 0.2
    batch_size: int = 256
    warmup_steps: int = 1000
    buffer_capacity: int = 100_000
    hidden_dims: tuple[int, ...] = (64, 64)
    actor_lr: float = 3e-4
    critic_lr: float = 3e-4
    reward_weight_accident: float = 1.0
    reward_weight_fixation: float = 1.0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "float" and not abs(value) <= sys.float_info.max:  # NaN fails too
                raise ValueError(f"{f.name} must be a finite number, got {value!r}")
        if self.algo not in ALGOS:
            raise ValueError(f"algo must be one of {ALGOS}, got {self.algo!r}")
        if not 0.0 < self.gamma < 1.0:
            raise ValueError(f"gamma must be in (0, 1), got {self.gamma}")
        if not 0.0 < self.tau <= 1.0:
            raise ValueError(f"tau must be in (0, 1], got {self.tau}")
        if self.nu < 0.0:
            raise ValueError(f"nu must be >= 0, got {self.nu}")
        for name in ("policy_delay", "batch_size", "buffer_capacity"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.batch_size > self.buffer_capacity:
            raise ValueError(
                f"batch_size {self.batch_size} exceeds buffer_capacity "
                f"{self.buffer_capacity}: the buffer could never hold a batch"
            )
        if self.warmup_steps < 0:
            raise ValueError(f"warmup_steps must be >= 0, got {self.warmup_steps}")
        for name in ("exploration_noise", "target_noise", "noise_clip"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.sac_alpha < 0.0:
            raise ValueError(f"sac_alpha must be >= 0, got {self.sac_alpha}")
        for name in ("actor_lr", "critic_lr"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")
        for name in ("reward_weight_accident", "reward_weight_fixation"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        object.__setattr__(self, "hidden_dims", tuple(int(d) for d in self.hidden_dims))
        if any(d < 1 for d in self.hidden_dims):
            raise ValueError(f"hidden_dims must be >= 1, got {list(self.hidden_dims)}")

    @property
    def n_actors(self) -> int:
        """Actors (and, unless stochastic, target actors) the agent carries."""
        return 2 if self.algo == "darc" else 1

    @property
    def n_critics(self) -> int:
        """Critics; the bootstrap takes the min over their targets."""
        return 1 if self.algo == "ddpg" else 2

    @property
    def smoothing(self) -> bool:
        """Whether target actions get clipped Gaussian noise (one draw per batch)."""
        return self.algo in ("td3", "darc")

    @property
    def actor_delay(self) -> int:
        """Gradient phases per actor phase."""
        return self.policy_delay if self.algo in ("td3", "darc") else 1

    @property
    def stochastic(self) -> bool:
        """Tanh-Gaussian actor with an entropy term (SAC); no target actor."""
        return self.algo == "sac"

    @property
    def coupled_critics(self) -> bool:
        """Whether the critic loss adds nu * mean((Q1 - Q2)^2) (DARC)."""
        return self.algo == "darc"
