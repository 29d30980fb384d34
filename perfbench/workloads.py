"""Workload plans, set-up, the timed rounds and the output checks.

Every round runs the same three steps, through ``crashrl.cli.main``:

1. ``crashrl gen-data`` writes ``gen_count`` episode files;
2. ``crashrl train`` runs one seed for each of ddpg, td3, sac and darc;
3. ``crashrl eval --data`` runs once per algorithm over the held-out files,
   ``eval_repeats`` times.

Each run must report every end-to-end metric, so every workload runs every
step; the workload's plan sizes the steps so that the step it is named
after takes most of the round (see README.md).
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import shutil
import statistics
import time
from dataclasses import dataclass

import numpy as np

import crashrl.cli as cli_mod
import crashrl.harness.running as running_mod
from crashrl.agents import ALGOS, Agent
from crashrl.env import generate_episode, load_episode_file
from crashrl.harness import build_run_config, load_config_file
from crashrl.harness.running import AGENT_SEED_OFFSET, EVAL_SEED_BASE

HELDOUT = 16  # held-out episodes; one class alone then has odds 2 * 2**-16
SETUP_REPEATS = 3
MIN_ROUNDS = 2  # the byte-identity checks compare a round with the first one
SMOKE_FLAGS = (
    "--episode-length", "20", "--grid", "8", "--pool", "4", "--stack", "2",
    "--hidden", "32,32", "--batch-size", "64",
)


@dataclass(frozen=True)
class Plan:
    gen_count: int  # episodes written by gen-data per round
    train_episodes: int  # training episodes per train seed
    # Train seeds cycle the gen-data files (--data) with the warmup above the
    # schedule, so no step runs a gradient phase. Otherwise they generate
    # their episodes and the warmup equals the batch size.
    collect_from_files: bool
    eval_repeats: int  # eval passes over all four algorithms per round


PLANS = {
    # 6 episodes of 99 steps with warmup 256: 338 of 594 steps run a gradient phase.
    "train": Plan(16, 6, False, 1),
    # 2 episodes stay inside the warmup: the train seeds run no gradient phase.
    "eval": Plan(8, 2, False, 2),
    # 8 training files cycled over 24 episodes: the cycle wraps three times.
    "ingest": Plan(HELDOUT + 8, 24, True, 1),
}


class SetupError(Exception):
    """The workload's inputs cannot run; raised before anything is timed."""


PROBE_RUNS = 5  # probe runs right before and right after each timed call
PROBE_GAP = 0.04  # s between probe runs inside a call
PROBE_REF = 0.002  # s: the probe's time on a quiet host (2-core x86-64 VM)
_PROBE_X = np.random.default_rng(0).standard_normal((256, 64))
_PROBE_W = np.random.default_rng(1).standard_normal((64, 64)) / 8.0


def host_probe() -> float:
    """Seconds for a fixed mix of small matmuls and interpreter work.

    The probe never changes with the program, so its time tracks host speed.
    It is the same kind of work as crashrl's: numpy calls on small arrays
    driven from Python.
    """
    start = time.perf_counter()
    h = _PROBE_X
    for _ in range(20):
        h = np.tanh(h @ _PROBE_W)
        total = 0.0
        for i in range(100):
            total += i
    return time.perf_counter() - start


@contextlib.contextmanager
def _probing(times: list[float]):
    """Run the probe inside crashrl's harness, at most every PROBE_GAP seconds.

    The probe runs at a boundary (a new AccidentEnv, an env step of training,
    an episode file written) once PROBE_GAP has passed since the last probe,
    so the samples spread evenly over the call. The wrappers sit at the
    module attributes run_training, rollout_records and gen_dataset look up;
    they add the probe's times to ``times`` and then call the original, so
    the program's behaviour is unchanged.
    """
    saved = {
        name: getattr(running_mod, name)
        for name in ("AccidentEnv", "train_step", "write_episode_file")
    }
    last = [time.perf_counter()]

    def probed(fn):
        def call(*args, **kwargs):
            if time.perf_counter() - last[0] >= PROBE_GAP:
                times.append(host_probe())
                last[0] = time.perf_counter()
            return fn(*args, **kwargs)
        return call

    try:
        for name, fn in saved.items():
            setattr(running_mod, name, probed(fn))
        yield
    finally:
        for name, fn in saved.items():
            setattr(running_mod, name, fn)


def _digest(path) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def check_heldout_classes(labels, seed: int, where: str) -> None:
    """Fail fast when a held-out set lacks either class.

    crashrl's own run_training only notices this after training the whole
    seed, when compile_report raises (recall requires a positive episode).
    """
    missing = [name for y, name in ((1, "positive"), (0, "negative")) if y not in labels]
    if missing:
        raise SetupError(
            f"workload seed {seed}: held-out set {where} has no "
            f"{' or '.join(missing)} episode; crashrl would train the whole "
            f"seed and then fail in compile_report"
        )


class Workload:
    """One workload at one seed: its inputs, rounds, checks and samples."""

    def __init__(self, name: str, seed: int, work_dir: str, smoke: bool) -> None:
        self.plan = PLANS[name]
        self.seed = seed
        self.work = work_dir
        self.scale = list(SMOKE_FLAGS) if smoke else []
        self.cfg = None  # resolved by the CLI in set-up
        # The last HELDOUT gen-data files are the held-out set written in set-up.
        self.heldout_base = 100_000 + 1000 * seed + 500
        self.gen_base = self.heldout_base + HELDOUT - self.plan.gen_count
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.reference: dict[str, object] = {}
        self.times: dict[str, list[float]] = {}  # host-scaled seconds per call
        self.raw_times: dict[str, list[float]] = {}  # wall seconds, probes excluded
        self.tracing = False  # set by the caller for traced rounds
        self.probe_medians: list[float] = []
        self.dataset_bytes: list[float] = []

    def _path(self, *parts) -> str:
        return os.path.join(self.work, *parts)

    # ----------------------------------------------------------------- set-up

    def timed_setup(self) -> float:
        """Run set-up once; returns its host-scaled seconds (see ``_cli``)."""
        probes = [host_probe() for _ in range(PROBE_RUNS)]
        start = time.perf_counter()
        self.setup()
        elapsed = time.perf_counter() - start
        probes += [host_probe() for _ in range(PROBE_RUNS)]
        self.raw_times.setdefault("setup", []).append(elapsed)
        return elapsed * PROBE_REF / statistics.median(probes)

    def setup(self) -> None:
        """Held-out files, class checks and one untrained checkpoint per algorithm."""
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        held = self._path("heldout")
        argv = ["gen-data", "--count", str(HELDOUT), "--seed", str(self.heldout_base)]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli_mod.main(argv + ["--out", held] + self.scale)
        if code != 0:
            raise SetupError(f"gen-data for the held-out set: exit {code}: {err.getvalue()}")
        self.cfg = build_run_config(load_config_file(os.path.join(held, "config.json")))
        self.steps_per_episode = self.cfg.env.episode_len - 1
        with open(os.path.join(held, "manifest.csv"), encoding="utf-8") as f:
            labels = {int(row["y"]) for row in csv.DictReader(f)}
        check_heldout_classes(labels, self.seed, f"files {held}")
        if not self.plan.collect_from_files:
            base = self.seed * EVAL_SEED_BASE
            labels = {generate_episode(self.cfg.env, base + j).y for j in range(HELDOUT)}
            check_heldout_classes(labels, self.seed, f"generated from run seed {self.seed}")
        for algo in ALGOS:
            agent_cfg = self._config(algo).agent
            Agent(agent_cfg, self.cfg.env.obs_dim, self.seed + AGENT_SEED_OFFSET).save(
                self._path(f"{algo}.ckpt")
            )

    def _config(self, algo: str):
        return build_run_config(
            load_config_file(self._path("heldout", "config.json")),
            {"algo": algo, "agent": {"algo": algo}},
        )

    # ------------------------------------------------------------------ steps

    def _cli(self, key: str, argv: list[str]) -> bool:
        """Time one CLI call; a nonzero exit counts as a failed operation.

        The wall time is also scaled to the reference host speed: times
        PROBE_REF over the median probe time around and during the call.
        Untraced calls also probe inside the call (see ``_probing``) and do
        not count the probe's time; traced calls probe only before and
        after, so that no probe time lands inside a span.
        """
        err = io.StringIO()
        probes = [host_probe() for _ in range(PROBE_RUNS)]
        inside: list[float] = []
        sampling = contextlib.nullcontext() if self.tracing else _probing(inside)
        start = time.perf_counter()
        with sampling, contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli_mod.main(argv)
        elapsed = time.perf_counter() - start - sum(inside)
        probes += inside + [host_probe() for _ in range(PROBE_RUNS)]
        probe = statistics.median(probes)
        self.probe_medians.append(probe)
        self.raw_times.setdefault(key, []).append(elapsed)
        self.times.setdefault(key, []).append(elapsed * PROBE_REF / probe)
        if code != 0:
            self._fail(f"crashrl {' '.join(argv)}: exit {code}: {err.getvalue().strip()}")
        return code == 0

    def _fail(self, message: str) -> None:
        self.failed += 1
        self.failures.append(message)

    def round(self, first: bool) -> None:
        gen_dir = self._path("gen")
        self._gen(gen_dir, first)
        for algo in ALGOS:
            self._train(algo, gen_dir, first)
        for _ in range(self.plan.eval_repeats):
            for algo in ALGOS:
                self._eval(algo)
        shutil.rmtree(gen_dir, ignore_errors=True)

    def _gen(self, out: str, first: bool) -> None:
        shutil.rmtree(out, ignore_errors=True)
        n = self.plan.gen_count
        argv = ["gen-data", "--count", str(n), "--seed", str(self.gen_base), "--out", out]
        self.attempted += n
        if not self._cli("gen", argv + self.scale):
            self.failed += n - 1
            return
        files = sorted(f for f in os.listdir(out) if f.endswith(".ade"))
        with open(os.path.join(out, "manifest.csv"), encoding="utf-8") as f:
            rows = list(csv.DictReader(f))
        unlisted = set(files) ^ {row["file"] for row in rows}
        for name in sorted(unlisted):
            self._fail(f"gen-data: {name} is not both written and listed in the manifest")
        if len(files) != n:
            self._fail(f"gen-data wrote {len(files)} episode files, expected {n}")
        for i, row in enumerate(rows):
            if row["file"] in unlisted:
                continue
            path = os.path.join(out, row["file"])
            digest = _digest(path)
            if first:
                self.reference[f"gen:{row['file']}"] = digest
                problem = self._episode_mismatch(path, self.gen_base + i)
            elif digest != self.reference.get(f"gen:{row['file']}"):
                problem = "bytes differ from the first round"
            else:
                problem = None
            if problem:
                self._fail(f"gen-data: {row['file']}: {problem}")
        self.dataset_bytes.append(
            sum(os.path.getsize(os.path.join(out, f)) for f in files) / n
        )

    def _episode_mismatch(self, path, seed: int) -> str | None:
        try:
            loaded = load_episode_file(path)
        except ValueError as exc:
            return f"does not load: {exc}"
        made = generate_episode(self.cfg.env, seed)
        same = (
            loaded.y == made.y
            and loaded.t_a == made.t_a
            and loaded.fps == made.fps
            and loaded.length == made.length
            and all(np.array_equal(a.grid, b.grid) for a, b in zip(loaded.frames, made.frames))
            and np.array_equal(loaded.fixation_track, made.fixation_track)
        )
        return None if same else f"does not load back equal to episode seed {seed}"

    def _train(self, algo: str, gen_dir: str, first: bool) -> None:
        out = self._path("train")
        shutil.rmtree(out, ignore_errors=True)
        files = self.plan.collect_from_files
        warmup = 10**9 if files else self.cfg.agent.batch_size
        argv = [
            "train", "--algo", algo, "--seed", str(self.seed), "--epochs", "1",
            "--episodes-per-epoch", str(self.plan.train_episodes),
            "--eval-episodes", str(HELDOUT), "--warmup", str(warmup), "--out", out,
        ]
        if files:
            argv += ["--data", gen_dir]
        self.attempted += 1
        if self._cli(f"train.{algo}", argv + self.scale):
            try:
                self._check_train(algo, os.path.join(out, algo, f"seed_{self.seed}"), first)
            except (OSError, ValueError, KeyError) as exc:
                self._fail(f"train {algo}: unreadable output: {exc!r}")
        shutil.rmtree(out, ignore_errors=True)

    def _check_train(self, algo: str, seed_dir: str, first: bool) -> None:
        names = ("metrics.json", "curve.csv", "checkpoint.txt")
        digests = tuple(_digest(os.path.join(seed_dir, n)) for n in names)
        if self.reference.setdefault(f"train:{algo}", digests) != digests:
            self._fail(f"train {algo}: metrics/curve/checkpoint bytes differ between rounds")
            return
        if first:
            problem = self._report_problem(os.path.join(seed_dir, "metrics.json"))
            if problem is None:
                cfg = self._config(algo)
                try:
                    agent = Agent.load(os.path.join(seed_dir, "checkpoint.txt"), cfg.agent)
                    if agent.obs_dim != cfg.env.obs_dim:
                        problem = f"checkpoint obs_dim {agent.obs_dim}"
                except Exception as exc:  # noqa: BLE001 - any load error is a failed seed
                    problem = f"checkpoint does not reload: {exc!r}"
            if problem:
                self._fail(f"train {algo}: {problem}")

    def _eval(self, algo: str) -> None:
        out = self._path("eval")
        shutil.rmtree(out, ignore_errors=True)
        argv = [
            "eval", "--algo", algo, "--seed", str(self.seed), "--data",
            self._path("heldout"), "--checkpoint", self._path(f"{algo}.ckpt"), "--out", out,
        ]
        self.attempted += 1
        if self._cli(f"eval.{algo}", argv + self.scale):
            try:
                self._check_eval(algo, out)
            except (OSError, ValueError, KeyError) as exc:
                self._fail(f"eval {algo}: unreadable output: {exc!r}")
        shutil.rmtree(out, ignore_errors=True)

    def _check_eval(self, algo: str, out: str) -> None:
        traces = os.path.join(out, "traces")
        rows = 0
        for name in os.listdir(traces):
            with open(os.path.join(traces, name), encoding="utf-8") as f:
                rows += sum(1 for line in f if not line.startswith("#")) - 1
        expected = HELDOUT * self.steps_per_episode
        metrics_path = os.path.join(out, "metrics.json")
        problem = self._report_problem(metrics_path)
        if rows != expected:
            problem = f"{rows} frame records, expected {expected}"
        elif problem is None:
            digest = _digest(metrics_path)
            if self.reference.setdefault(f"eval:{algo}", digest) != digest:
                problem = "report differs between repetitions"
        if problem:
            self._fail(f"eval {algo}: {problem}")

    @staticmethod
    def _report_problem(path) -> str | None:
        with open(path, encoding="utf-8") as f:
            m = json.load(f)
        if not all(math.isfinite(v) for v in m.values()):
            return f"non-finite metric in {m}"
        unit = ("auc", "ap", "recall_at_a0", "safe_detect_fraction_2s")
        if any(not 0.0 <= m[k] <= 1.0 for k in unit):
            return f"metric outside [0, 1] in {m}"
        if m["mtta_seconds"] < 0.0 or m["fixation_mse"] < 0.0:
            return f"negative mtta or fixation MSE in {m}"
        if m["tp"] + m["fp"] + m["tn"] + m["fn"] != HELDOUT:
            return f"detection counts do not cover {HELDOUT} episodes"
        return None

    # ---------------------------------------------------------------- metrics

    def samples(self) -> dict[str, list[float]]:
        """Per-metric samples (rates per call or per group of calls)."""
        train_steps = self.plan.train_episodes * self.steps_per_episode
        frames = len(ALGOS) * HELDOUT * self.steps_per_episode
        out = {
            "gen_episodes_per_s": [self.plan.gen_count / t for t in self.times["gen"]],
            "dataset_bytes_per_episode": self.dataset_bytes,
        }
        per_round = zip(*(self.times[f"train.{a}"] for a in ALGOS))
        out["collect_steps_per_s"] = [len(ALGOS) * train_steps / sum(ts) for ts in per_round]
        for algo in ALGOS:
            out[f"train_steps_per_s.{algo}"] = [
                train_steps / t for t in self.times[f"train.{algo}"]
            ]
        per_pass = zip(*(self.times[f"eval.{a}"] for a in ALGOS))
        out["eval_frames_per_s"] = [frames / sum(ts) for ts in per_pass]
        return out

    def call_medians(self) -> dict[str, float]:
        """Median wall seconds per call type, unscaled."""
        return {key: statistics.median(v) for key, v in self.raw_times.items()}
