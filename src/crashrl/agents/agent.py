"""Agent state: networks, targets, optimizers, action selection, checkpoints.

All four algorithms share one actor/critic topology: actors map observation
features to the 3-component dual action (accident score, fixation x, y),
critics map [features, action] to a scalar value. Deterministic actors end
in a tanh head that is affinely mapped to [0, 1] per component; the SAC
actor emits a mean and log-std per component and squashes samples the same
way. DARC carries two actors and acts with whichever one the online critics
value higher.

Checkpoint format (version tag ``ACP1``), UTF-8 text:

    ACP1 <algo> <config_hash> <env_steps> <update_count> <obs_dim> <n_sections>
    SECTION <name>
    <NKP1 parameter record>          (one per section, see numkit.tensor)

The config hash fingerprints the agent hyperparameters; shape compatibility,
not hash equality, is what loading enforces. Optimizer state and RNG state
are not persisted: checkpoints serve evaluation, not training resumption.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict

import numpy as np

from ..env.mdp import DualAction, Observation
from ..numkit import (
    AdamState,
    MlpSpec,
    ParamSet,
    decode_params,
    encode_params,
    init_adam,
    init_params,
    mlp_apply,
)
from .config import AgentConfig
from .replay import ACTION_DIM

CHECKPOINT_TAG = "ACP1"
LOG_STD_MIN = -20.0
LOG_STD_MAX = 2.0


def squash01(t: np.ndarray) -> np.ndarray:
    """Map tanh output (-1, 1) affinely onto (0, 1)."""
    return 0.5 * (t + 1.0)


def config_hash(cfg: AgentConfig) -> str:
    payload = json.dumps(asdict(cfg), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _parse_int(path, lineno: int, field: str, token: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ValueError(
            f"{path}: line {lineno}: {field} must be an integer, got {token!r}"
        ) from None


class Agent:
    """One algorithm's actors, critics, targets, and optimizer state."""

    def __init__(self, cfg: AgentConfig, obs_dim: int, seed: int) -> None:
        if obs_dim < 1:
            raise ValueError(f"obs_dim must be >= 1, got {obs_dim}")
        self.cfg = cfg
        self.obs_dim = obs_dim
        actor_out = 2 * ACTION_DIM if cfg.algo == "sac" else ACTION_DIM
        actor_act = "identity" if cfg.algo == "sac" else "tanh"
        self.actor_spec = MlpSpec(obs_dim, cfg.hidden_dims, actor_out, "relu", actor_act)
        self.critic_spec = MlpSpec(obs_dim + ACTION_DIM, cfg.hidden_dims, 1)

        # Fixed spawn layout (actor0, actor1, critic0, critic1, noise) keeps
        # same-seed agents of different algorithms on identical noise streams.
        children = np.random.SeedSequence(seed).spawn(5)
        child_seed = [int(c.generate_state(1)[0]) for c in children]

        self.n_actors = 2 if cfg.algo == "darc" else 1
        self.n_critics = 1 if cfg.algo == "ddpg" else 2
        self.actors = [
            init_params(self.actor_spec, child_seed[j]) for j in range(self.n_actors)
        ]
        self.critics = [
            init_params(self.critic_spec, child_seed[2 + i]) for i in range(self.n_critics)
        ]
        # SAC bootstraps next actions from the online policy; no actor target.
        self.target_actors = (
            [p.copy() for p in self.actors] if cfg.algo != "sac" else []
        )
        self.target_critics = [p.copy() for p in self.critics]
        self.actor_adam: list[AdamState] = [
            init_adam(p, alpha=cfg.actor_lr, name=f"actor_{j}")
            for j, p in enumerate(self.actors)
        ]
        self.critic_adam: list[AdamState] = [
            init_adam(p, alpha=cfg.critic_lr, name=f"critic_{i}")
            for i, p in enumerate(self.critics)
        ]
        self.rng = np.random.default_rng(child_seed[4])
        self.total_env_steps = 0
        self.update_count = 0

    # ------------------------------------------------------------------ acting

    def _deterministic_candidates(self, s: np.ndarray) -> list[np.ndarray]:
        return [
            squash01(mlp_apply(actor, self.actor_spec, s)) for actor in self.actors
        ]

    def _critic_value(self, s: np.ndarray, a: np.ndarray) -> float:
        x = np.concatenate([s, a], axis=1)
        values = [
            mlp_apply(critic, self.critic_spec, x) for critic in self.critics
        ]
        return float(np.mean(values))

    def action_array(self, features: np.ndarray, mode: str = "eval") -> np.ndarray:
        """Raw 3-float action for one observation's feature vector."""
        if mode not in ("train", "eval"):
            raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
        s = np.asarray(features, dtype=np.float64).reshape(1, -1)
        if s.shape[1] != self.obs_dim:
            raise ValueError(
                f"expected {self.obs_dim} features, got {s.shape[1]}"
            )
        if self.cfg.algo == "sac":
            out = mlp_apply(self.actors[0], self.actor_spec, s)
            mean = out[:, :ACTION_DIM]
            if mode == "train":
                log_std = np.clip(out[:, ACTION_DIM:], LOG_STD_MIN, LOG_STD_MAX)
                eps = self.rng.standard_normal(ACTION_DIM)
                u = mean + np.exp(log_std) * eps
            else:
                u = mean
            return squash01(np.tanh(u)).reshape(-1)

        candidates = self._deterministic_candidates(s)
        if len(candidates) == 1:
            action = candidates[0]
        else:
            # DARC: act with whichever actor the online critics value higher.
            values = [self._critic_value(s, cand) for cand in candidates]
            action = candidates[0] if values[0] >= values[1] else candidates[1]
        action = action.reshape(-1)
        if mode == "train":
            noise = self.rng.normal(0.0, self.cfg.exploration_noise, ACTION_DIM)
            action = np.clip(action + noise, 0.0, 1.0)
        return action

    def select_action(self, obs, mode: str = "eval") -> DualAction:
        features = obs.features if isinstance(obs, Observation) else obs
        return DualAction.from_array(self.action_array(features, mode))

    # ------------------------------------------------------------ checkpointing

    def _sections(self) -> list[tuple[str, ParamSet]]:
        sections = []
        for j, params in enumerate(self.actors):
            sections.append((f"actor_{j}", params))
        for i, params in enumerate(self.critics):
            sections.append((f"critic_{i}", params))
        for j, params in enumerate(self.target_actors):
            sections.append((f"target_actor_{j}", params))
        for i, params in enumerate(self.target_critics):
            sections.append((f"target_critic_{i}", params))
        return sections

    def save(self, path) -> None:
        sections = self._sections()
        lines = [
            f"{CHECKPOINT_TAG} {self.cfg.algo} {config_hash(self.cfg)} "
            f"{self.total_env_steps} {self.update_count} {self.obs_dim} {len(sections)}"
        ]
        for name, params in sections:
            lines.append(f"SECTION {name}")
            lines.append(encode_params(params).rstrip("\n"))
        with open(path, "w", encoding="utf-8", newline="\n") as f:
            f.write("\n".join(lines) + "\n")

    @classmethod
    def load(cls, path, cfg: AgentConfig) -> "Agent":
        """Rebuild an agent from a checkpoint; cfg must match algo and shapes."""
        with open(path, "r", encoding="utf-8") as f:
            lines = f.read().splitlines()
        if not lines:
            raise ValueError(f"{path}: empty checkpoint")
        header = lines[0].split()
        if len(header) != 7 or header[0] != CHECKPOINT_TAG:
            raise ValueError(f"{path}: line 1: malformed {CHECKPOINT_TAG} header")
        algo, _hash = header[1], header[2]
        env_steps, update_count, obs_dim, n_sections = (
            _parse_int(path, 1, field, token)
            for field, token in zip(
                ("env_steps", "update_count", "obs_dim", "n_sections"), header[3:7]
            )
        )
        if algo != cfg.algo:
            raise ValueError(
                f"{path}: checkpoint algo {algo!r} does not match configured {cfg.algo!r}"
            )
        if obs_dim < 1:
            raise ValueError(f"{path}: line 1: obs_dim must be >= 1, got {obs_dim}")
        agent = cls(cfg, obs_dim, seed=0)
        expected = dict(agent._sections())
        if n_sections != len(expected):
            raise ValueError(
                f"{path}: expected {len(expected)} sections, header declares {n_sections}"
            )
        # Split remaining lines into sections.
        loaded: dict[str, ParamSet] = {}
        i = 1
        while i < len(lines):
            if not lines[i].startswith("SECTION "):
                raise ValueError(f"{path}: line {i + 1}: expected SECTION marker")
            marker = lines[i].split(maxsplit=1)
            if len(marker) != 2:
                raise ValueError(f"{path}: line {i + 1}: SECTION marker without a name")
            name = marker[1]
            if name not in expected:
                raise ValueError(f"{path}: line {i + 1}: unknown section {name!r}")
            header_line = lines[i + 1].split() if i + 1 < len(lines) else []
            if len(header_line) != 2 or header_line[0] != "NKP1":
                raise ValueError(
                    f"{path}: line {i + 2}: expected an NKP1 parameter record"
                )
            count = _parse_int(path, i + 2, "NKP1 tensor count", header_line[1])
            if count < 0:
                raise ValueError(f"{path}: line {i + 2}: negative NKP1 tensor count {count}")
            block = "\n".join(lines[i + 1 : i + 2 + count])
            try:
                loaded[name] = decode_params(block, offset=i + 1)
            except ValueError as exc:
                raise ValueError(f"{path}: section {name}: {exc}") from exc
            i += 2 + count
        missing = sorted(set(expected) - set(loaded))
        if missing:
            raise ValueError(f"{path}: missing sections {missing}")
        for name, params in loaded.items():
            target = expected[name]
            if not target.same_shapes(params):
                raise ValueError(
                    f"{path}: section {name}: expected shapes "
                    f"{[(n, list(t.shape)) for n, t in target]}, got "
                    f"{[(n, list(t.shape)) for n, t in params]}"
                )
        agent.actors = [loaded[f"actor_{j}"] for j in range(agent.n_actors)]
        agent.critics = [loaded[f"critic_{i}"] for i in range(agent.n_critics)]
        agent.target_actors = [
            loaded[f"target_actor_{j}"] for j in range(len(agent.target_actors))
        ]
        agent.target_critics = [
            loaded[f"target_critic_{i}"] for i in range(agent.n_critics)
        ]
        agent.total_env_steps = env_steps
        agent.update_count = update_count
        return agent
