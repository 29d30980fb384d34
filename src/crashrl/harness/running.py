"""Training and evaluation orchestration, dataset generation, trace export.

Seed derivation (fixed so independent reruns agree): for a run seed s, the
environment stream uses s, the agent s + 1000, the replay buffer s + 2000.
Episode seeds: evaluation episode j uses s * 10^9 + j, training episode i
uses s * 10^9 + 10^6 + i. With a dataset directory, episodes are the sorted
*.ade files: the last eval_episodes of them form the held-out set, the rest
cycle as training episodes.

Per-seed output layout under <out>/<algo>/seed_<s>/:
  checkpoint.txt, metrics.json, roc.csv, pr.csv, curve.csv, traces/*.csv
plus <out>/<algo>/run.json summarizing the whole run for `compare`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import os
from dataclasses import dataclass

import numpy as np

from ..agents import Agent, ReplayBuffer, train_step
from ..env import (
    AccidentEnv,
    DualAction,
    Episode,
    blob_onset,
    generate_episode,
    load_episode_file,
    write_episode_file,
)
from ..env.rewards import accident_weight, reward_accident, reward_fixation
from ..metrics import (
    FrameRecord,
    MetricsReport,
    compile_report,
    report_as_dict,
    write_report,
)
from .config import ConfigError, RunConfig, write_config_snapshot

AGENT_SEED_OFFSET = 1000
BUFFER_SEED_OFFSET = 2000
EVAL_SEED_BASE = 10**9
TRAIN_SEED_OFFSET = 10**6
CURVE_EVERY_EPOCHS = 5


@dataclass(frozen=True)
class SeedResult:
    """Artifacts of one (algo, seed) training run."""

    seed: int
    report: MetricsReport
    curve: tuple[tuple[int, float], ...]  # (epoch, mean eval return)
    checkpoint_path: str
    out_dir: str


@dataclass(frozen=True)
class RunArtifacts:
    """Everything one algorithm's run produced, for comparison and reload."""

    algo: str
    config: RunConfig
    results: tuple[SeedResult, ...]
    eval_fingerprint: str
    out_dir: str


class _EpisodeSource:
    """Deterministic episode streams, generated or file-backed."""

    def __init__(self, cfg: RunConfig, run_seed: int) -> None:
        self.cfg = cfg
        self.run_seed = run_seed
        self._train_files: list[str] = []
        self._eval_files: list[str] = []
        if cfg.data_dir is not None:
            files = sorted(
                os.path.join(cfg.data_dir, name)
                for name in os.listdir(cfg.data_dir)
                if name.endswith(".ade")
            )
            if len(files) < cfg.eval_episodes + 1:
                raise ConfigError(
                    f"data: directory {cfg.data_dir} holds {len(files)} episodes; "
                    f"need at least eval_episodes + 1 = {cfg.eval_episodes + 1}"
                )
            self._eval_files = files[-cfg.eval_episodes :]
            self._train_files = files[: -cfg.eval_episodes]

    def eval_set(self) -> list[Episode]:
        if self._eval_files:
            return [load_episode_file(path) for path in self._eval_files]
        base = self.run_seed * EVAL_SEED_BASE
        return [
            generate_episode(self.cfg.env, base + j)
            for j in range(self.cfg.eval_episodes)
        ]

    def training_episode(self, index: int) -> Episode:
        if self._train_files:
            return load_episode_file(self._train_files[index % len(self._train_files)])
        seed = self.run_seed * EVAL_SEED_BASE + TRAIN_SEED_OFFSET + index
        return generate_episode(self.cfg.env, seed)


def eval_fingerprint(episodes) -> str:
    """Identity of a held-out set: episode ids, lengths, labels, accident frames."""
    digest = hashlib.sha256()
    for ep in episodes:
        digest.update(
            f"{ep.episode_id}|{ep.length}|{ep.y}|{ep.t_a}|{ep.fps}\n".encode()
        )
    return digest.hexdigest()[:16]


def rollout_records(policy, episode: Episode, cfg: RunConfig):
    """Noise-free rollout producing one FrameRecord per step.

    ``policy`` maps (observation, episode) -> DualAction; agents ignore the
    episode argument, scripted oracles use it.
    """
    env = AccidentEnv(episode, cfg.env)
    obs = env.reset()
    records = []
    while not env.done:
        action = policy(obs, episode)
        t = obs.frame_index
        records.append(
            FrameRecord(
                episode_id=episode.episode_id,
                t=t,
                score=float(action.a),
                y=episode.y,
                t_a=episode.t_a,
                p_hat=action.p_hat,
                p=tuple(episode.fixation_track[t]),
                fps=episode.fps,
            )
        )
        result = env.step(action)
        obs = result.next_obs
    return records


def collect_records(policy, episodes, cfg: RunConfig):
    records = []
    for episode in episodes:
        records.extend(rollout_records(policy, episode, cfg))
    return records


def agent_policy(agent: Agent):
    return lambda obs, _episode: agent.select_action(obs, mode="eval")


class ScriptedOnsetAgent:
    """Oracle: full alarm from the risk-blob onset, perfect fixation."""

    def __call__(self, obs, episode: Episode) -> DualAction:
        t = obs.frame_index
        if episode.y == 1 and t >= blob_onset(episode.t_a):
            score = 1.0
        else:
            score = 0.0
        return DualAction(score, tuple(episode.fixation_track[t]))


class ConstantScoreAgent:
    """Emits one fixed accident score and a center fixation everywhere."""

    def __init__(self, score: float) -> None:
        self.score = score

    def __call__(self, obs, episode: Episode) -> DualAction:
        return DualAction(self.score, (0.5, 0.5))


def _mean_return(records, cfg: RunConfig) -> float:
    """Mean over episodes of the weighted return w_A * r_A + w_F * r_F.

    ``records`` are consecutive per episode, as ``collect_records`` emits
    them. Rewards are recomputed exactly as ``AccidentEnv.step`` computes
    them and summed in step order.
    """
    env_cfg = cfg.env
    w_a = cfg.agent.reward_weight_accident
    w_f = cfg.agent.reward_weight_fixation
    totals = []
    for _episode_id, episode_records in itertools.groupby(records, lambda r: r.episode_id):
        total = 0.0
        for rec in episode_records:
            r_a = reward_accident(rec.score, env_cfg.a_0, rec.y, rec.t, rec.t_a)
            r_f = reward_fixation(
                rec.p_hat, rec.p, rec.t, rec.t_a, env_cfg.eta, env_cfg.fixation_window
            )
            total += w_a * r_a + w_f * r_f
        totals.append(total)
    return float(np.mean(totals))


def export_traces(records, out_dir, env_cfg) -> list[str]:
    """Per-episode CSVs of scores, rewards, and fixations, one row per frame."""
    os.makedirs(out_dir, exist_ok=True)
    episodes: dict[str, list] = {}
    for rec in records:
        episodes.setdefault(rec.episode_id, []).append(rec)
    paths = []
    for episode_id in sorted(episodes):
        trace = sorted(episodes[episode_id], key=lambda r: r.t)
        first = trace[0]
        path = os.path.join(out_dir, f"trace_{episode_id}.csv")
        with open(path, "w", encoding="utf-8", newline="\n") as f:
            t_a_note = first.t_a if first.t_a is not None else "none"
            f.write(f"# episode={episode_id} y={first.y} t_a={t_a_note} fps={first.fps!r}\n")
            f.write("t,score,w_t,r_A,r_F,p_hat_x,p_hat_y,p_x,p_y\n")
            for rec in trace:
                w = accident_weight(rec.t, rec.t_a) if rec.t_a is not None else 1.0
                r_a = reward_accident(rec.score, env_cfg.a_0, rec.y, rec.t, rec.t_a)
                r_f = reward_fixation(
                    rec.p_hat, rec.p, rec.t, rec.t_a, env_cfg.eta, env_cfg.fixation_window
                )
                f.write(
                    f"{rec.t},{rec.score!r},{w!r},{r_a!r},{r_f!r},"
                    f"{rec.p_hat[0]!r},{rec.p_hat[1]!r},{rec.p[0]!r},{rec.p[1]!r}\n"
                )
        paths.append(path)
    return paths


def _require_both_classes(eval_set, seed: int) -> None:
    """The report needs a positive and a negative held-out episode; check first."""
    labels = {ep.y for ep in eval_set}
    missing = [name for y, name in ((1, "positive"), (0, "negative")) if y not in labels]
    if missing:
        raise ConfigError(
            f"seed {seed}: the held-out set of {len(eval_set)} episodes has no "
            f"{' or '.join(missing)} episode; AUC and recall need both classes"
        )


def _write_curve(curve, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("epoch,mean_eval_reward\n")
        for epoch, value in curve:
            f.write(f"{epoch},{value!r}\n")


def run_training(cfg: RunConfig) -> RunArtifacts:
    """Train cfg.algo for every seed; returns (and writes) all artifacts."""
    algo_dir = os.path.join(cfg.out_dir, cfg.algo)
    os.makedirs(algo_dir, exist_ok=True)
    write_config_snapshot(cfg, cfg.out_dir)

    results = []
    seed_fingerprints = []
    for seed in cfg.seeds:
        source = _EpisodeSource(cfg, seed)
        eval_set = source.eval_set()
        _require_both_classes(eval_set, seed)
        seed_fingerprints.append(eval_fingerprint(eval_set))
        obs_dim = cfg.env.obs_dim
        agent = Agent(cfg.agent, obs_dim, seed + AGENT_SEED_OFFSET)
        buffer = ReplayBuffer(cfg.agent.buffer_capacity, seed + BUFFER_SEED_OFFSET)

        curve = []
        episode_index = 0
        for epoch in range(1, cfg.epochs + 1):
            for _ in range(cfg.episodes_per_epoch):
                episode = source.training_episode(episode_index)
                episode_index += 1
                env = AccidentEnv(episode, cfg.env)
                env.reset()
                while not env.done:
                    train_step(agent, env, buffer)
            if epoch % CURVE_EVERY_EPOCHS == 0 or epoch == cfg.epochs:
                # The last epoch always lands here; its records feed the report.
                records = collect_records(agent_policy(agent), eval_set, cfg)
                curve.append((epoch, _mean_return(records, cfg)))

        seed_dir = os.path.join(algo_dir, f"seed_{seed}")
        os.makedirs(seed_dir, exist_ok=True)
        checkpoint_path = os.path.join(seed_dir, "checkpoint.txt")
        agent.save(checkpoint_path)

        report = compile_report(
            records, cfg.env.a_0, window=cfg.env.fixation_window
        )
        write_report(report, seed_dir)
        _write_curve(curve, os.path.join(seed_dir, "curve.csv"))
        export_traces(records, os.path.join(seed_dir, "traces"), cfg.env)
        results.append(SeedResult(seed, report, tuple(curve), checkpoint_path, seed_dir))

    # One fingerprint for the whole run: the per-seed held-out sets in order.
    combined = hashlib.sha256("|".join(seed_fingerprints).encode()).hexdigest()[:16]
    artifacts = RunArtifacts(cfg.algo, cfg, tuple(results), combined, algo_dir)
    _write_run_summary(artifacts)
    return artifacts


def _write_run_summary(artifacts: RunArtifacts) -> None:
    payload = {
        "algo": artifacts.algo,
        "eval_fingerprint": artifacts.eval_fingerprint,
        "seeds": [r.seed for r in artifacts.results],
        "per_seed": {
            str(r.seed): {
                "metrics": report_as_dict(r.report),
                "curve": [[epoch, value] for epoch, value in r.curve],
                # relative to this file, so identical configs yield identical bytes
                "checkpoint": os.path.relpath(r.checkpoint_path, artifacts.out_dir),
            }
            for r in artifacts.results
        },
    }
    path = os.path.join(artifacts.out_dir, "run.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(payload, f, sort_keys=True, indent=2)
        f.write("\n")


def run_eval(checkpoint_path, episodes, cfg: RunConfig):
    """Roll a checkpointed agent (noise-free) over an episode set.

    Returns (MetricsReport, frame records). The checkpoint's observation
    width must match what cfg.env produces.
    """
    agent = Agent.load(checkpoint_path, cfg.agent)
    expected = cfg.env.obs_dim
    if agent.obs_dim != expected:
        raise ValueError(
            f"checkpoint observation width {agent.obs_dim} does not match the "
            f"configured environment's {expected}"
        )
    records = collect_records(agent_policy(agent), episodes, cfg)
    report = compile_report(records, cfg.env.a_0, window=cfg.env.fixation_window)
    return report, records


def gen_dataset(cfg: RunConfig, count: int, out_dir, seed_base: int | None = None):
    """Write ``count`` episode files plus a manifest.csv into out_dir."""
    if count < 1:
        raise ConfigError(f"count: must be >= 1, got {count}")
    if seed_base is None:
        seed_base = cfg.seeds[0]
    os.makedirs(out_dir, exist_ok=True)
    rows = []
    width = max(5, len(str(seed_base + count - 1)))
    for i in range(count):
        seed = seed_base + i
        episode = generate_episode(cfg.env, seed)
        episode = dataclasses.replace(episode, episode_id=f"episode_{seed:0{width}d}")
        filename = f"{episode.episode_id}.ade"
        write_episode_file(episode, os.path.join(out_dir, filename))
        rows.append(
            (
                episode.episode_id,
                filename,
                episode.y,
                episode.t_a if episode.t_a is not None else -1,
                episode.length,
            )
        )
    manifest = os.path.join(out_dir, "manifest.csv")
    with open(manifest, "w", encoding="utf-8", newline="\n") as f:
        f.write("id,file,y,t_a,frames\n")
        for row in rows:
            f.write(",".join(str(v) for v in row) + "\n")
    return manifest
