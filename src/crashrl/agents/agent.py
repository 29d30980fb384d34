"""Agent state: networks, targets, optimizers, action selection, checkpoints.

All four algorithms share one actor/critic topology: actors map observation
features to the 3-component dual action (accident score, fixation x, y),
critics map [features, action] to a scalar value. Deterministic actors end
in a tanh head that is affinely mapped to [0, 1] per component; a stochastic
(SAC) actor emits a mean and log-std per component and squashes samples the
same way. The network counts come from the config (``n_actors``,
``n_critics``); with two actors (DARC) each row acts with whichever actor
the online critics value higher. The networks compute in float32: features
are cast on the way in and actions back to float64 on the way out.

Checkpoint format (version tag ``ACP2``), ASCII text:

    ACP2 <algo> <config_hash> <env_steps> <update_count> <obs_dim> <n_sections>
    SECTION <name>
    <NKP2 parameter record>          (one per section, see numkit.tensor)

The loader checks each line as it reads it: a non-ASCII byte or a ``_`` in a
number (which Python's ``int`` and ``float`` would accept) raises, naming the
line; a float64-era ``ACP1`` file fails at line 1. The config hash
fingerprints the agent hyperparameters; shape compatibility, not hash
equality, is what loading enforces, and the loaded networks are the agent's
networks (nothing is initialized and then replaced). Optimizer state and
RNG state are not persisted: checkpoints serve evaluation, not training
resumption.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict

import numpy as np

from ..atomic import atomic_write
from ..env.mdp import DualAction, Observation
from ..numkit import (
    DTYPE,
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

CHECKPOINT_TAG = "ACP2"
FLOAT64_CHECKPOINT_TAG = "ACP1"
LOG_STD_MIN = -20.0
LOG_STD_MAX = 2.0


def squash01(t: np.ndarray) -> np.ndarray:
    """Map tanh output (-1, 1) affinely onto (0, 1)."""
    return 0.5 * (t + 1.0)


def config_hash(cfg: AgentConfig) -> str:
    payload = json.dumps(asdict(cfg), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _ascii_lines(f):
    """The lines of the binary file ``f`` as text, each checked as it is read."""
    lineno = 0
    for raw in f:  # not enumerate: its reused result tuple would keep raw alive
        lineno += 1
        if not raw.isascii():
            byte = next(b for b in raw if b > 0x7F)
            raise ValueError(f"line {lineno}: non-ASCII byte 0x{byte:02x}")
        line = raw.decode("ascii")
        del raw  # hold one copy of a long tensor line while it is parsed
        yield line


def _parse_int(lineno: int, field: str, token: str) -> int:
    if "_" in token:
        raise ValueError(f"line {lineno}: '_' is not allowed in a number")
    try:
        return int(token)
    except ValueError:
        raise ValueError(f"line {lineno}: {field} must be an integer, got {token!r}") from None


def _child_seeds(seed: int) -> list[int]:
    """Fixed spawn layout (actor0, actor1, critic0, critic1, noise): same-seed
    agents of different algorithms draw identical noise streams."""
    return [int(c.generate_state(1)[0]) for c in np.random.SeedSequence(seed).spawn(5)]


class Agent:
    """One algorithm's actors, critics, targets, and optimizer state."""

    def __init__(self, cfg: AgentConfig, obs_dim: int, seed: int) -> None:
        self._set_specs(cfg, obs_dim)
        child_seed = _child_seeds(seed)
        actors = [init_params(self.actor_spec, child_seed[j]) for j in range(cfg.n_actors)]
        critics = [
            init_params(self.critic_spec, child_seed[2 + i]) for i in range(cfg.n_critics)
        ]
        # A stochastic actor bootstraps from the online policy; no actor target.
        target_actors = [] if cfg.stochastic else [p.copy() for p in actors]
        self._set_networks(
            actors, critics, target_actors, [p.copy() for p in critics], child_seed[4]
        )

    def _set_specs(self, cfg: AgentConfig, obs_dim: int) -> None:
        if obs_dim < 1:
            raise ValueError(f"obs_dim must be >= 1, got {obs_dim}")
        self.cfg = cfg
        self.obs_dim = obs_dim
        actor_out = 2 * ACTION_DIM if cfg.stochastic else ACTION_DIM
        actor_act = "identity" if cfg.stochastic else "tanh"
        self.actor_spec = MlpSpec(obs_dim, cfg.hidden_dims, actor_out, "relu", actor_act)
        self.critic_spec = MlpSpec(obs_dim + ACTION_DIM, cfg.hidden_dims, 1)

    def _set_networks(self, actors, critics, target_actors, target_critics, noise_seed) -> None:
        """Take the networks as they are; Adam starts from zero moments."""
        cfg = self.cfg
        self.actors = actors
        self.critics = critics
        self.target_actors = target_actors
        self.target_critics = target_critics
        self.actor_adam: list[AdamState] = [
            init_adam(p, alpha=cfg.actor_lr, name=f"actor_{j}")
            for j, p in enumerate(self.actors)
        ]
        self.critic_adam: list[AdamState] = [
            init_adam(p, alpha=cfg.critic_lr, name=f"critic_{i}")
            for i, p in enumerate(self.critics)
        ]
        self.rng = np.random.default_rng(noise_seed)
        self.total_env_steps = 0
        self.update_count = 0

    # ------------------------------------------------------------------ acting

    def _deterministic_candidates(self, s: np.ndarray) -> list[np.ndarray]:
        return [
            squash01(mlp_apply(actor, self.actor_spec, s)) for actor in self.actors
        ]

    def _critic_value(self, s: np.ndarray, a: np.ndarray) -> np.ndarray:
        """Mean online critic value of each row's (s, a), shaped [N, 1]."""
        x = np.concatenate([s, a], axis=1)
        values = [
            mlp_apply(critic, self.critic_spec, x) for critic in self.critics
        ]
        return np.mean(values, axis=0)

    def action_array(self, features: np.ndarray, mode: str = "eval") -> np.ndarray:
        """Raw float64 actions: [obs_dim] features give [3], [N, obs_dim] give [N, 3].

        The networks and the exploration noise run in float32 (the noise is
        drawn in float64 and cast). A batch of one gives the bits of the 1-D
        call; a larger batch goes through BLAS gemm instead of gemv, so its
        rows can differ from per-row calls in the last bit.
        """
        if mode not in ("train", "eval"):
            raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
        features = np.asarray(features, dtype=DTYPE)
        if features.ndim not in (1, 2) or features.shape[-1] != self.obs_dim:
            raise ValueError(
                f"expected {self.obs_dim} features (shape [{self.obs_dim}] or "
                f"[N, {self.obs_dim}]), got shape {list(features.shape)}"
            )
        s = features.reshape(-1, self.obs_dim)
        n = s.shape[0]
        if self.cfg.stochastic:
            out = mlp_apply(self.actors[0], self.actor_spec, s)
            mean = out[:, :ACTION_DIM]
            if mode == "train":
                log_std = np.clip(out[:, ACTION_DIM:], LOG_STD_MIN, LOG_STD_MAX)
                eps = self.rng.standard_normal((n, ACTION_DIM)).astype(DTYPE)
                u = mean + np.exp(log_std) * eps
            else:
                u = mean
            action = squash01(np.tanh(u))
        else:
            candidates = self._deterministic_candidates(s)
            if len(candidates) == 1:
                action = candidates[0]
            else:
                # Two actors: each row acts with the one the online critics value higher.
                values = [self._critic_value(s, cand) for cand in candidates]
                action = np.where(values[0] >= values[1], candidates[0], candidates[1])
            if mode == "train":
                noise = self.rng.normal(0.0, self.cfg.exploration_noise, (n, ACTION_DIM))
                action = np.clip(action + noise.astype(DTYPE), 0.0, 1.0)
        action = action.astype(np.float64)
        return action.reshape(-1) if features.ndim == 1 else action

    def select_action(self, obs, mode: str = "eval") -> DualAction:
        features = obs.features if isinstance(obs, Observation) else obs
        return DualAction.from_array(self.action_array(features, mode))

    # ------------------------------------------------------------ checkpointing

    def _network_lists(self) -> tuple[tuple[str, int, MlpSpec], ...]:
        """(kind, count, spec) of each network list, in checkpoint order.

        Kind ``k``'s networks are the attribute ``k + "s"``, and network j of
        it is the section ``k_j``.
        """
        cfg = self.cfg
        n_target_actors = 0 if cfg.stochastic else cfg.n_actors
        return (
            ("actor", cfg.n_actors, self.actor_spec),
            ("critic", cfg.n_critics, self.critic_spec),
            ("target_actor", n_target_actors, self.actor_spec),
            ("target_critic", cfg.n_critics, self.critic_spec),
        )

    def _sections(self) -> list[tuple[str, ParamSet]]:
        return [
            (f"{kind}_{k}", params)
            for kind, _, _ in self._network_lists()
            for k, params in enumerate(getattr(self, f"{kind}s"))
        ]

    def save(self, path) -> None:
        """Write the checkpoint section by section, never whole in memory."""
        sections = self._sections()
        with atomic_write(path, "w", encoding="utf-8", newline="\n") as f:
            f.write(
                f"{CHECKPOINT_TAG} {self.cfg.algo} {config_hash(self.cfg)} "
                f"{self.total_env_steps} {self.update_count} {self.obs_dim} {len(sections)}\n"
            )
            for name, params in sections:
                f.write(f"SECTION {name}\n")
                f.write(encode_params(params))

    @classmethod
    def load(cls, path, cfg: AgentConfig) -> "Agent":
        """Rebuild an agent from a checkpoint; cfg must match algo and shapes.

        Reads the file one line at a time: the NKP2 parser takes each
        section's lines straight from the open file. Errors name the path.
        """
        try:
            with open(path, "rb") as f:
                return cls._from_lines(_ascii_lines(f), cfg)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc

    @classmethod
    def _from_lines(cls, f, cfg: AgentConfig) -> "Agent":
        header = next(f, "").split()
        if not header:
            raise ValueError("empty checkpoint")
        if header[0] == FLOAT64_CHECKPOINT_TAG:
            raise ValueError(
                f"line 1: {FLOAT64_CHECKPOINT_TAG} is the float64 checkpoint format; "
                f"this reader reads {CHECKPOINT_TAG} (float32)"
            )
        if len(header) != 7 or header[0] != CHECKPOINT_TAG:
            raise ValueError(f"line 1: malformed {CHECKPOINT_TAG} header")
        algo, _hash = header[1], header[2]
        env_steps, update_count, obs_dim, n_sections = (
            _parse_int(1, field, token)
            for field, token in zip(
                ("env_steps", "update_count", "obs_dim", "n_sections"), header[3:7]
            )
        )
        if algo != cfg.algo:
            raise ValueError(
                f"checkpoint algo {algo!r} does not match configured {cfg.algo!r}"
            )
        if obs_dim < 1:
            raise ValueError(f"line 1: obs_dim must be >= 1, got {obs_dim}")
        agent = cls.__new__(cls)
        agent._set_specs(cfg, obs_dim)
        expected = {
            f"{kind}_{k}": tuple(spec.param_shapes())
            for kind, count, spec in agent._network_lists()
            for k in range(count)
        }
        if n_sections != len(expected):
            raise ValueError(
                f"expected {len(expected)} sections, header declares {n_sections}"
            )
        loaded: dict[str, ParamSet] = {}
        lineno = 2
        for line in f:
            marker = line.rstrip("\n")
            if not marker.startswith("SECTION "):
                raise ValueError(f"line {lineno}: expected SECTION marker")
            fields = marker.split(maxsplit=1)
            if len(fields) != 2:
                raise ValueError(f"line {lineno}: SECTION marker without a name")
            name = fields[1]
            if name not in expected:
                raise ValueError(f"line {lineno}: unknown section {name!r}")
            if name in loaded:
                raise ValueError(f"line {lineno}: duplicate section {name!r}")
            loaded[name] = decode_params(f, offset=lineno)
            lineno += 2 + len(loaded[name])
        missing = sorted(set(expected) - set(loaded))
        if missing:
            raise ValueError(f"missing sections {missing}")
        for name, params in loaded.items():
            if params.layout != expected[name]:
                raise ValueError(
                    f"section {name}: expected shapes "
                    f"{[(n, list(shape)) for n, shape in expected[name]]}, got "
                    f"{[(n, list(t.shape)) for n, t in params]}"
                )
        agent._set_networks(
            *(
                [loaded[f"{kind}_{k}"] for k in range(count)]
                for kind, count, _ in agent._network_lists()
            ),
            noise_seed=_child_seeds(0)[4],
        )
        agent.total_env_steps = env_steps
        agent.update_count = update_count
        return agent
