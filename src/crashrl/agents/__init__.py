"""Off-policy continuous-control agents: DDPG, TD3, SAC, and DARC."""

from .agent import (
    CHECKPOINT_TAG,
    LOG_STD_MAX,
    LOG_STD_MIN,
    Agent,
    config_hash,
    squash01,
)
from .config import ALGOS, AgentConfig
from .replay import ACTION_DIM, Batch, ReplayBuffer
from .targets import compute_targets, tanh_gaussian_logprob
from .updates import StepLog, actor_update, critic_update, train_step, update, warmup_group

__all__ = [
    "ACTION_DIM",
    "ALGOS",
    "Agent",
    "AgentConfig",
    "Batch",
    "CHECKPOINT_TAG",
    "LOG_STD_MAX",
    "LOG_STD_MIN",
    "ReplayBuffer",
    "StepLog",
    "actor_update",
    "compute_targets",
    "config_hash",
    "critic_update",
    "squash01",
    "tanh_gaussian_logprob",
    "train_step",
    "update",
    "warmup_group",
]
