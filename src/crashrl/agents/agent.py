"""Agent state: networks, targets, optimizers, action selection, checkpoints.

All four algorithms share one actor/critic topology: actors map observation
features to the 3-component dual action (accident score, fixation x, y),
critics map [features, action] to a scalar value. The networks are numkit
MLPs with linear outputs; both actor heads are written here. A deterministic
actor's ``deterministic_head`` is a clamped tanh mapped affinely onto [0, 1];
a SAC actor emits a mean and log-std per component and squashes samples the
same way. The agent keeps one ``Net`` stack per role: ``actors``,
``critics``, ``target_actors`` (None for a stochastic agent) and
``target_critics``, with as many networks as the config's ``n_actors`` and
``n_critics``, and one Adam state per online role. Each role runs as one
batched pass. With two actors (DARC) each row acts with whichever actor the
online critics value higher. The networks compute in float32: features are
cast on the way in and actions back to float64 on the way out.

Checkpoint format (version tag ``ACP3``), on the record framing of
``crashrl.records``: one ASCII header line, then little-endian float32:

    ACP3 <algo> <config_hash> <env_steps> <update_count> <obs_dim> <hidden,dims> <n_values> <crc32>\n
    every role's Net.flat rows, in _network_lists() order    (4*n_values bytes)

``hidden,dims`` is ``-`` for a network without hidden layers. The loader
takes each network's value count and layout from its ``MlpSpec``: the
algorithm, the hidden widths and the value count must match the config, or
line 1 names both sides; a non-finite value names its network. Each role
loads as one ``[K, n_values]`` copy, which is the agent's ``Net`` (nothing is
initialized and then replaced). The config hash fingerprints the agent hyperparameters but
is not enforced.
The retired ``ACP1`` (float64 text) and ``ACP2`` (float32 text) files fail
at line 1, naming their tag. Optimizer state and RNG state are not
persisted: checkpoints serve evaluation, not training resumption.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict
import numpy as np

from ..numkit import DTYPE, AdamState, MlpSpec, Net, init_adam, init_params, mlp_apply
from ..records import read_record, write_record
from .config import AgentConfig
from .replay import ACTION_DIM

CHECKPOINT_TAG = "ACP3"
HEADER = (
    f"{CHECKPOINT_TAG} <algo> <config_hash> <env_steps> <update_count> <obs_dim> "
    "<hidden,dims> <n_values> <crc32>"
)
RETIRED_TAGS = {
    "ACP1": f"ACP1 is the float64 checkpoint format; this reader reads {CHECKPOINT_TAG}",
    "ACP2": f"ACP2 is the retired text checkpoint format; this reader reads {CHECKPOINT_TAG}",
}
PAYLOAD_DTYPE = np.dtype("<f4")
LOG_STD_MIN = -20.0
LOG_STD_MAX = 2.0


def squash01(t: np.ndarray) -> np.ndarray:
    """Map tanh output (-1, 1) affinely onto (0, 1)."""
    return 0.5 * (t + 1.0)


def deterministic_head(out: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(t, action): t = tanh(out), action = squash01(t clamped to +/- the float below 1).

    In float32 the clamp keeps a saturated action off 0 only: squash01 maps
    the clamped bottom to exactly 2^-25, but rounds the clamped top up to
    exactly 1.0.
    """
    t = np.tanh(out)
    bound = np.nextafter(t.dtype.type(1), t.dtype.type(0))
    return t, squash01(np.clip(t, -bound, bound))


def sample_policy(out: np.ndarray, rng: np.random.Generator):
    """A reparameterized draw from the policy whose actor output is ``out``.

    Returns (mean, log_std, std, eps, u): log_std clipped to [LOG_STD_MIN,
    LOG_STD_MAX], eps drawn in float64 and cast, and u = mean + std * eps.
    """
    mean = out[:, :ACTION_DIM]
    log_std = np.clip(out[:, ACTION_DIM:], LOG_STD_MIN, LOG_STD_MAX)
    eps = rng.standard_normal((out.shape[0], ACTION_DIM)).astype(DTYPE)
    std = np.exp(log_std)
    return mean, log_std, std, eps, mean + std * eps


def state_action(s: np.ndarray, a: np.ndarray) -> np.ndarray:
    """The critics' input [s, a] in a's dtype: s [N, obs_dim] joined to each
    of a [..., N, 3]."""
    n = s.shape[-1]
    x = np.empty((*a.shape[:-1], n + a.shape[-1]), a.dtype)
    x[..., :n] = s
    x[..., n:] = a
    return x


def config_hash(cfg: AgentConfig) -> str:
    payload = json.dumps(asdict(cfg), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _widths_field(hidden_dims) -> str:
    """The header's ``hidden,dims`` field: ``64,64``, or ``-`` for none."""
    return ",".join(str(d) for d in hidden_dims) or "-"


def _child_seeds(seed: int) -> list[int]:
    """Fixed spawn layout (actor0, actor1, critic0, critic1, noise): same-seed
    agents of different algorithms draw identical noise streams."""
    return [int(c.generate_state(1)[0]) for c in np.random.SeedSequence(seed).spawn(5)]


def _role(spec: MlpSpec, seeds) -> Net:
    """A stack whose network k is ``init_params(spec, seeds[k])``."""
    return Net(spec, np.concatenate([init_params(spec, seed).flat for seed in seeds]))


class Agent:
    """One algorithm's actor, critic and target stacks, and optimizer state."""

    def __init__(self, cfg: AgentConfig, obs_dim: int, seed: int) -> None:
        self._set_specs(cfg, obs_dim)
        child_seed = _child_seeds(seed)
        actors = _role(self.actor_spec, child_seed[: cfg.n_actors])
        critics = _role(self.critic_spec, child_seed[2 : 2 + cfg.n_critics])
        # A stochastic actor bootstraps from the online policy; no actor target.
        target_actors = None if cfg.stochastic else actors.copy()
        self._set_networks(actors, critics, target_actors, critics.copy(), child_seed[4])

    def _set_specs(self, cfg: AgentConfig, obs_dim: int) -> None:
        self.cfg = cfg
        self.obs_dim = obs_dim
        actor_out = 2 * ACTION_DIM if cfg.stochastic else ACTION_DIM
        self.actor_spec = MlpSpec(obs_dim, cfg.hidden_dims, actor_out)
        self.critic_spec = MlpSpec(obs_dim + ACTION_DIM, cfg.hidden_dims, 1)

    def _set_networks(self, actors, critics, target_actors, target_critics, noise_seed) -> None:
        """Take the stacks as they are; Adam starts from zero moments."""
        cfg = self.cfg
        self.actors: Net = actors
        self.critics: Net = critics
        self.target_actors: Net | None = target_actors
        self.target_critics: Net = target_critics
        self.actor_adam: AdamState = init_adam(actors, alpha=cfg.actor_lr, name="actor")
        self.critic_adam: AdamState = init_adam(critics, alpha=cfg.critic_lr, name="critic")
        self.rng = np.random.default_rng(noise_seed)
        self.total_env_steps = 0
        self.update_count = 0

    # ------------------------------------------------------------------ acting

    def deterministic_candidates(self, actors: Net, s: np.ndarray) -> np.ndarray:
        """Each deterministic actor's action for the rows of ``s``, in [0, 1]:
        [K, N, 3] for a stack of K actors."""
        return deterministic_head(mlp_apply(actors, s))[1]

    def _critic_value(self, s: np.ndarray, a: np.ndarray) -> np.ndarray:
        """Mean online critic value of (s, a_j) for each candidate a_j of
        a [J, N, 3], shaped [J, N, 1]: one pass of the critics over [J, K]."""
        q = mlp_apply(self.critics, state_action(s, a)[:, None])
        return np.add.reduce(q, axis=1) / q.shape[1]

    def action_array(self, features: np.ndarray, mode: str = "eval") -> np.ndarray:
        """Raw float64 actions: [obs_dim] features give [3], [N, obs_dim] give [N, 3].

        The networks and the exploration noise run in float32 (the noise is
        drawn in float64 and cast). A batch of one gives the bits of the 1-D
        call; a larger batch goes through BLAS gemm instead of gemv, so its
        rows can differ from per-row calls in the last bit. Features of more
        than two axes fail here; the actors' ``mlp_graph`` checks the width.
        """
        if mode not in ("train", "eval"):
            raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
        features = np.asarray(features, dtype=DTYPE)
        if features.ndim > 2:
            raise ValueError(
                f"input must have shape [batch, {self.obs_dim}], got {list(features.shape)}"
            )
        s = features[None] if features.ndim == 1 else features
        if self.cfg.stochastic:
            out = mlp_apply(self.actors, s)[0]
            u = sample_policy(out, self.rng)[-1] if mode == "train" else out[:, :ACTION_DIM]
            action = squash01(np.tanh(u))
        else:
            candidates = self.deterministic_candidates(self.actors, s)
            if len(candidates) == 1:
                action = candidates[0]
            else:
                # Two actors: each row acts with the one the online critics value higher.
                values = self._critic_value(s, candidates)
                action = np.where(values[0] >= values[1], candidates[0], candidates[1])
            if mode == "train":
                noise = self.rng.normal(0.0, self.cfg.exploration_noise, action.shape)
                action = np.clip(action + noise.astype(DTYPE), 0.0, 1.0)
        action = action.astype(np.float64)
        return action.reshape(-1) if features.ndim == 1 else action

    # ------------------------------------------------------------ checkpointing

    def _network_lists(self) -> tuple[tuple[str, int, MlpSpec], ...]:
        """(kind, count, spec) of each network list, in checkpoint order.

        Kind ``k``'s stack is the attribute ``k + "s"`` (None for a count of
        0), and its network j is named ``k_j`` in errors.
        """
        cfg = self.cfg
        n_target_actors = 0 if cfg.stochastic else cfg.n_actors
        return (
            ("actor", cfg.n_actors, self.actor_spec),
            ("critic", cfg.n_critics, self.critic_spec),
            ("target_actor", n_target_actors, self.actor_spec),
            ("target_critic", cfg.n_critics, self.critic_spec),
        )

    def save(self, path) -> None:
        """Write the ACP3 checkpoint: one header line, then every network's values."""
        flats = [
            np.asarray(getattr(self, f"{kind}s").flat, dtype=PAYLOAD_DTYPE)
            for kind, count, _ in self._network_lists()
            if count
        ]
        fields = (
            CHECKPOINT_TAG, self.cfg.algo, config_hash(self.cfg), self.total_env_steps,
            self.update_count, self.obs_dim, _widths_field(self.cfg.hidden_dims),
            sum(flat.size for flat in flats),
        )
        write_record(path, fields, flats)

    @classmethod
    def load(cls, path, cfg: AgentConfig) -> "Agent":
        """Rebuild an agent from an ACP3 checkpoint; cfg must match algo and widths.

        Errors name the path: header errors as ``path: line 1: ...``, then the
        payload's length or CRC, then the network with a non-finite value.
        """
        record = read_record(path, HEADER, (str, str, int, int, int, str, int), RETIRED_TAGS)
        algo, _hash, env_steps, update_count, obs_dim, widths, n_values = record.fields
        if algo != cfg.algo:
            raise record.fail(
                f"checkpoint algo {algo!r} does not match configured {cfg.algo!r}"
            )
        configured = _widths_field(cfg.hidden_dims)
        if widths != configured:
            raise record.fail(
                f"checkpoint hidden widths {widths} do not match configured {configured}"
            )
        if obs_dim < 1:
            raise record.fail(f"obs_dim must be >= 1, got {obs_dim}")
        if env_steps < 0 or update_count < 0:
            raise record.fail(
                f"env_steps and update_count must be >= 0, got {env_steps} and {update_count}"
            )
        agent = cls.__new__(cls)
        agent._set_specs(cfg, obs_dim)
        lists = agent._network_lists()
        expected = sum(count * spec.n_values for _, count, spec in lists)
        if n_values != expected:
            raise record.fail(
                f"header declares {n_values} values, the config and obs_dim give {expected}"
            )
        payload = record.payload(PAYLOAD_DTYPE.itemsize * n_values, "4*n_values")
        roles = []
        offset = 0
        for kind, count, spec in lists:
            if not count:
                roles.append(None)
                continue
            # Each role gets its own aligned, writable float32 copy.
            flat = np.frombuffer(payload, PAYLOAD_DTYPE, count * spec.n_values, offset)
            flat = flat.reshape(count, spec.n_values).astype(DTYPE)
            finite = np.isfinite(flat).all(axis=1)
            if not finite.all():
                raise ValueError(
                    f"{path}: network {kind}_{int(np.argmin(finite))}: "
                    "values must be finite (no NaN/Inf)"
                )
            roles.append(Net(spec, flat))
            offset += flat.nbytes
        agent._set_networks(*roles, noise_seed=_child_seeds(0)[4])
        agent.total_env_steps = env_steps
        agent.update_count = update_count
        return agent
