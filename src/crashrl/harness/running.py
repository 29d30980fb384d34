"""Training and evaluation orchestration, dataset generation, trace export.

Each CLI command is one call here: ``gen_dataset`` (gen-data),
``run_training`` (train) and ``run_eval`` (eval) take the resolved
``RunConfig``, choose the command's episodes and seed, check them, and write
every artifact into ``cfg.out_dir`` (through ``crashrl.atomic``).

Every rollout steps ``AccidentEnv``. Training steps each run of
consecutive episodes that lies wholly inside the warmup (one epoch, one grid
shape and length, at most ``buffer_capacity`` steps) as one lockstep group
(``warmup_group``: the warmup's actions do not depend on the observations),
and every other episode as a group of one (``train_step``); both leave the
bytes of one episode at a time. ``collect_records`` (curve points, the final
report and ``run_eval``) steps one env per lockstep group of held-out
episodes. The eval records hold the rewards it pays, for the curve's mean
return and the traces. Every ``--data`` file is parsed whole and passes
``env.config.check_steppable`` (``load_episodes``), a run that generates
its episodes passes ``check_generatable``, and each held-out set (and
``run_eval``'s) passes ``metrics.require_reportable``, before the agent is
built or the checkpoint read (and, for the first seed, before anything is
written); a file, a set or a checkpoint that fails is a ConfigError (exit 1).

Seed derivation (fixed so independent reruns agree): for a run seed s, the
environment stream uses s, the agent s + 1000, the replay buffer s + 2000.
Episode seeds: evaluation episode j uses s * 10^9 + j, training episode i
uses s * 10^9 + 10^6 + i. With a dataset directory, episodes are the sorted
*.ade files: the last eval_episodes of them form the held-out set, the rest
cycle as training episodes. Each file is parsed once per command, before
the first seed, and the parsed episode is shared by every seed (see
``_EpisodeSource``).

Per-seed output layout under <out>/<algo>/seed_<s>/:
  checkpoint.txt, metrics.json, roc.csv, pr.csv, curve.csv, traces/*.csv
plus <out>/<algo>/run.json summarizing the whole run for `compare`.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass

import numpy as np

from ..agents import Agent, ReplayBuffer, train_step, warmup_group
from ..atomic import atomic_write, write_csv, write_json
from ..env import (
    IMAGE_CENTER,
    AccidentEnv,
    Episode,
    EpisodeFormatError,
    accident_weight,
    blob_onset,
    fixation_window_active,
    generate_episode,
    load_episode_file,
    write_episode_file,
)
from ..env.config import check_generatable, check_steppable
from ..metrics import (
    NO_ACCIDENT,
    EvalRecords,
    MetricsReport,
    compile_report,
    report_as_dict,
    require_reportable,
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


@dataclass(frozen=True)
class RunArtifacts:
    """Everything one algorithm's run produced; ``run.json`` records it for
    ``crashrl compare``."""

    algo: str
    results: tuple[SeedResult, ...]
    eval_fingerprint: str
    out_dir: str


def load_episodes(cfg: RunConfig) -> list[Episode]:
    """The sorted *.ade regular files in ``cfg.data_dir``, each parsed whole
    and steppable, in that order; the first file that fails is a ConfigError."""
    if not os.path.isdir(cfg.data_dir):
        raise ConfigError(f"data: no such directory {cfg.data_dir}")
    paths = (os.path.join(cfg.data_dir, name) for name in os.listdir(cfg.data_dir))
    episodes = []
    for path in sorted(path for path in paths if path.endswith(".ade") and os.path.isfile(path)):
        try:
            # Looked up in this module at call time, so wrappers see every parse.
            episode = load_episode_file(path)
        except EpisodeFormatError as exc:
            raise ConfigError(str(exc)) from exc
        check_steppable(f"episode {path!r}", episode.saliency.shape, cfg.env, ConfigError)
        episodes.append(episode)
    return episodes


class _EpisodeSource:
    """Deterministic episode streams, generated or file-backed.

    One source serves every seed of a ``run_training`` call. With a data
    directory every file is parsed when the source is built, and each seed
    gets the same read-only episodes: the last eval_episodes held out, the
    rest cycled for training. Without one, building the source checks that
    cfg.env can generate episodes (``check_generatable``).
    """

    def __init__(self, cfg: RunConfig) -> None:
        self.cfg = cfg
        self._eval_episodes: list[Episode] = []
        self._train_episodes: list[Episode] = []
        if cfg.data_dir is None:
            check_generatable(cfg.env, ConfigError)
        else:
            episodes = load_episodes(cfg)
            if len(episodes) < cfg.eval_episodes + 1:
                raise ConfigError(
                    f"data: directory {cfg.data_dir} holds {len(episodes)} episodes; "
                    f"need at least eval_episodes + 1 = {cfg.eval_episodes + 1}"
                )
            self._eval_episodes = episodes[-cfg.eval_episodes :]
            self._train_episodes = episodes[: -cfg.eval_episodes]

    def eval_set(self, run_seed: int) -> list[Episode]:
        if self._eval_episodes:
            return list(self._eval_episodes)
        base = run_seed * EVAL_SEED_BASE
        return [
            generate_episode(self.cfg.env, base + j)
            for j in range(self.cfg.eval_episodes)
        ]

    def training_episode(self, run_seed: int, index: int) -> Episode:
        if self._train_episodes:
            return self._train_episodes[index % len(self._train_episodes)]
        seed = run_seed * EVAL_SEED_BASE + TRAIN_SEED_OFFSET + index
        return generate_episode(self.cfg.env, seed)


def eval_fingerprint(episodes) -> str:
    """Identity of a held-out set: episode ids, lengths, labels, accident frames."""
    digest = hashlib.sha256()
    for ep in episodes:
        digest.update(
            f"{ep.episode_id}|{ep.length}|{ep.y}|{ep.t_a}|{ep.fps}\n".encode()
        )
    return digest.hexdigest()[:16]


def collect_records(policy, episodes, cfg: RunConfig) -> EvalRecords:
    """Noise-free rollout of every episode, one record row per step.

    Episodes that share a grid shape and a length form one lockstep group,
    stepped by one ``AccidentEnv``. At each step t the group takes one
    batched action, ``policy(features[N, obs_dim], t, group) -> actions[N, 3]``
    (columns: accident score, fixation x, fixation y); the env's rewards for
    it go into the records beside it. The records hold the episodes in input
    order, each with frames 0 .. T - 2. Agents ignore ``t`` and the
    episodes; scripted oracles read them.
    """
    episodes = list(episodes)
    groups: dict[tuple, list[int]] = {}
    for i, episode in enumerate(episodes):
        groups.setdefault((episode.grid_shape, episode.length), []).append(i)
    frames = np.array([episode.length - 1 for episode in episodes], dtype=np.int64)
    starts = np.cumsum(frames) - frames
    episode_index = np.repeat(np.arange(len(episodes)), frames)
    n = int(frames.sum())
    actions, r_a, r_f = np.empty((n, 3)), np.empty(n), np.empty(n)
    for members in groups.values():
        group = [episodes[i] for i in members]
        rows = starts[members]
        env = AccidentEnv(group, cfg.env)
        obs = env.reset()
        while not env.done:
            step_actions = policy(obs, env.t, group)
            frame_rows = rows + env.t
            result = env.step(step_actions)
            actions[frame_rows] = step_actions
            r_a[frame_rows] = result.r_A
            r_f[frame_rows] = result.r_F
            obs = result.next_obs
    return EvalRecords(
        episode_ids=tuple(episode.episode_id for episode in episodes),
        y=[episode.y for episode in episodes],
        t_a=[NO_ACCIDENT if episode.t_a is None else episode.t_a for episode in episodes],
        fps=[episode.fps for episode in episodes],
        episode=episode_index,
        t=np.arange(n) - starts[episode_index],
        score=actions[:, 0],
        p_hat=actions[:, 1:],
        p=np.concatenate([np.empty((0, 2))] + [ep.fixation_track[:-1] for ep in episodes]),
        r_A=r_a,
        r_F=r_f,
    )


def agent_policy(agent: Agent):
    return lambda features, _t, _episodes: agent.action_array(features, mode="eval")


class ScriptedOnsetAgent:
    """Oracle: full alarm from the risk-blob onset, perfect fixation."""

    def __call__(self, features, t: int, episodes) -> np.ndarray:
        return np.array(
            [
                (
                    1.0 if episode.y == 1 and t >= blob_onset(episode.t_a) else 0.0,
                    *episode.fixation_track[t],
                )
                for episode in episodes
            ]
        )


class ConstantScoreAgent:
    """Emits one fixed accident score and a center fixation everywhere."""

    def __init__(self, score: float) -> None:
        self.score = score

    def __call__(self, features, t: int, episodes) -> np.ndarray:
        return np.tile((self.score, *IMAGE_CENTER), (len(episodes), 1))


def _mean_return(records: EvalRecords, cfg: RunConfig) -> float:
    """Mean over episodes of the return w_A * r_A + w_F * r_F, summed in step order."""
    w_a = cfg.agent.reward_weight_accident
    w_f = cfg.agent.reward_weight_fixation
    totals = [0.0] * len(records.episode_ids)
    for e, r_a, r_f in zip(records.episode.tolist(), records.r_A.tolist(), records.r_F.tolist()):
        totals[e] += w_a * r_a + w_f * r_f
    return float(np.mean(totals))


def export_traces(records: EvalRecords, out_dir) -> list[str]:
    """Per-episode CSVs of scores, rewards, and fixations, one row per frame."""
    columns = (
        records.t.tolist(), records.score.tolist(), records.r_A.tolist(), records.r_F.tolist(),
        *records.p_hat.T.tolist(), *records.p.T.tolist(),
    )
    ids = records.episode_ids
    bounds = np.searchsorted(records.episode, np.arange(len(ids) + 1)).tolist()
    paths = []
    for e in sorted(range(len(ids)), key=ids.__getitem__):
        t_a = records.t_a[e].item()
        path = os.path.join(out_dir, f"trace_{ids[e]}.csv")
        with atomic_write(path) as f:
            t_a_note = "none" if t_a == NO_ACCIDENT else t_a
            f.write(
                f"# episode={ids[e]} y={records.y[e].item()} t_a={t_a_note} "
                f"fps={records.fps[e].item()!r}\n"
            )
            f.write("t,score,w_t,r_A,r_F,p_hat_x,p_hat_y,p_x,p_y\n")
            rows = zip(*(column[bounds[e] : bounds[e + 1]] for column in columns))
            for t, score, r_a, r_f, p_hat_x, p_hat_y, p_x, p_y in rows:
                w = 1.0 if t_a == NO_ACCIDENT else accident_weight(t, t_a)
                f.write(
                    f"{t},{score!r},{w!r},{r_a!r},{r_f!r},"
                    f"{p_hat_x!r},{p_hat_y!r},{p_x!r},{p_y!r}\n"
                )
        paths.append(path)
    return paths


def _require_reportable(eval_set, window: str, where: str) -> None:
    """``require_reportable`` on an episode set before its rollout, whose
    records hold frames 0..T-2 of each episode; a failure is a ConfigError.

    ``where`` names the set in the error, e.g. "seed 3: the held-out set".
    """
    in_window = (
        fixation_window_active(t, ep.t_a, window)
        for ep in eval_set
        for t in range(ep.length - 1)
    )
    try:
        require_reportable([ep.y for ep in eval_set], in_window, window, where)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _one_seed(cfg: RunConfig, use: str) -> int:
    """The run seed of a command that uses one; more than one is a ConfigError."""
    if len(cfg.seeds) > 1:
        raise ConfigError(f"seeds: {use} uses one seed, got {list(cfg.seeds)}")
    return cfg.seeds[0]


def _training_groups(episodes, warmup_left: int, capacity: int):
    """One epoch's training episodes, in order, as (group, in_warmup) pairs.

    Each run of consecutive episodes that lies wholly inside the
    ``warmup_left`` steps still to go, shares one grid shape and length and
    fits in ``capacity`` steps forms one group with ``in_warmup`` set; every
    other episode is a group of one without it. An episode read ahead to
    close a group is used, not read again.
    """
    group: list[Episode] = []
    for episode in episodes:
        steps = episode.length - 1
        if group and (
            (episode.grid_shape, episode.length) != (group[0].grid_shape, group[0].length)
            or (len(group) + 1) * steps > capacity
            or steps > warmup_left
        ):
            yield group, True
            group = []
        if steps <= min(warmup_left, capacity):
            group.append(episode)
        else:
            yield [episode], False
        warmup_left -= steps
    if group:
        yield group, True


def run_training(cfg: RunConfig) -> RunArtifacts:
    """Train cfg.algo for every seed; returns (and writes) all artifacts."""
    source = _EpisodeSource(cfg)  # checks the data directory before anything is written
    algo_dir = os.path.join(cfg.out_dir, cfg.algo)

    results = []
    seed_fingerprints = []
    for seed in cfg.seeds:
        eval_set = source.eval_set(seed)
        _require_reportable(eval_set, cfg.env.fixation_window, f"seed {seed}: the held-out set")
        if not seed_fingerprints:  # the first seed's set passed: start writing
            write_config_snapshot(cfg, cfg.out_dir)
        seed_fingerprints.append(eval_fingerprint(eval_set))
        obs_dim = cfg.env.obs_dim
        agent = Agent(cfg.agent, obs_dim, seed + AGENT_SEED_OFFSET)
        buffer = ReplayBuffer(cfg.agent.buffer_capacity, obs_dim, seed + BUFFER_SEED_OFFSET)

        curve = []
        for epoch in range(1, cfg.epochs + 1):
            first = (epoch - 1) * cfg.episodes_per_epoch
            episodes = (
                source.training_episode(seed, i)
                for i in range(first, first + cfg.episodes_per_epoch)
            )
            warmup_left = cfg.agent.warmup_steps - agent.total_env_steps
            groups = _training_groups(episodes, warmup_left, cfg.agent.buffer_capacity)
            for group, in_warmup in groups:
                env = AccidentEnv(group, cfg.env)
                env.reset()
                if in_warmup:
                    warmup_group(agent, env, buffer)
                else:
                    while not env.done:
                        train_step(agent, env, buffer)
            if epoch % CURVE_EVERY_EPOCHS == 0 or epoch == cfg.epochs:
                # The last epoch always lands here; its records feed the report.
                records = collect_records(agent_policy(agent), eval_set, cfg)
                curve.append((epoch, _mean_return(records, cfg)))

        seed_dir = os.path.join(algo_dir, f"seed_{seed}")
        checkpoint_path = os.path.join(seed_dir, "checkpoint.txt")
        agent.save(checkpoint_path)

        report = compile_report(records, cfg.env.a_0, cfg.env.fixation_window)
        write_report(report, seed_dir)
        write_csv(os.path.join(seed_dir, "curve.csv"), ("epoch", "mean_eval_reward"), curve)
        export_traces(records, os.path.join(seed_dir, "traces"))
        results.append(SeedResult(seed, report, tuple(curve), checkpoint_path))

    # One fingerprint for the whole run: the per-seed held-out sets in order.
    combined = hashlib.sha256("|".join(seed_fingerprints).encode()).hexdigest()[:16]
    artifacts = RunArtifacts(cfg.algo, tuple(results), combined, algo_dir)
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
    write_json(os.path.join(artifacts.out_dir, "run.json"), payload)


def run_eval(checkpoint_path, cfg: RunConfig):
    """Roll a checkpointed agent (noise-free) over ``crashrl eval``'s set
    and write config.json, the report and traces/ into cfg.out_dir.

    The set is every *.ade file of cfg.data_dir, else the held-out set that
    training generates for the run's one seed. Checked in this order, before
    anything is written, each failure a ConfigError: without a data
    directory, cfg.env can generate episodes; the checkpoint file exists;
    with a data directory, it exists and holds an episode file, each
    passing ``load_episodes``, else there is one seed; the set holds both
    classes and a frame inside the fixation window (before the checkpoint is
    read); ``Agent.load`` accepts the checkpoint and its observation width
    matches what cfg.env produces. Returns (MetricsReport, EvalRecords).
    """
    source = _EpisodeSource(cfg) if cfg.data_dir is None else None
    if not os.path.isfile(checkpoint_path):
        raise ConfigError(f"checkpoint: no such file {checkpoint_path}")
    if source is None:
        episodes = load_episodes(cfg)
        if not episodes:
            raise ConfigError(f"data: no .ade episodes under {cfg.data_dir}")
    else:
        episodes = source.eval_set(_one_seed(cfg, "eval without --data"))
    _require_reportable(episodes, cfg.env.fixation_window, "eval: the episode set")
    try:
        agent = Agent.load(checkpoint_path, cfg.agent)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    expected = cfg.env.obs_dim
    if agent.obs_dim != expected:
        raise ConfigError(
            f"{checkpoint_path}: checkpoint observation width {agent.obs_dim} does not "
            f"match the configured environment's {expected}"
        )
    records = collect_records(agent_policy(agent), episodes, cfg)
    report = compile_report(records, cfg.env.a_0, cfg.env.fixation_window)
    write_config_snapshot(cfg, cfg.out_dir)
    write_report(report, cfg.out_dir)
    export_traces(records, os.path.join(cfg.out_dir, "traces"))
    return report, records


def gen_dataset(cfg: RunConfig, count: int) -> str:
    """Write episode files for seeds s .. s + count - 1 (s the run's one
    seed), manifest.csv and config.json into cfg.out_dir; returns the
    manifest's path. The env settings, the seed and the count are checked
    before any write."""
    check_generatable(cfg.env, ConfigError)
    seed_base = _one_seed(cfg, "gen-data")
    if count < 1:
        raise ConfigError(f"count: must be >= 1, got {count}")
    rows = []
    width = max(5, len(str(seed_base + count - 1)))
    for i in range(count):
        seed = seed_base + i
        episode = generate_episode(cfg.env, seed)
        # The file stem is the episode id (the loader reads it from there).
        episode_id = f"episode_{seed:0{width}d}"
        filename = f"{episode_id}.ade"
        write_episode_file(episode, os.path.join(cfg.out_dir, filename))
        t_a = episode.t_a if episode.t_a is not None else -1
        rows.append((episode_id, filename, episode.y, t_a, episode.length))
    manifest = os.path.join(cfg.out_dir, "manifest.csv")
    write_csv(manifest, ("id", "file", "y", "t_a", "frames"), rows)
    write_config_snapshot(cfg, cfg.out_dir)
    return manifest
