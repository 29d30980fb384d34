"""In-memory span tracing of crashrl's public functions, for the traced run.

Each public function is wrapped at the module attribute its caller looks up
(``from .x import f`` binds ``f`` in the caller's namespace, so the wrapper
goes there, not on the defining module). Methods are wrapped on their class.
Wrapping happens only inside ``Tracer.installed()``; leaving the block puts
every original back, so untraced rounds run the unmodified program.

A span is ``[name, start, end, parent_index]``; spans stay in memory and are
written out once, after the run.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import time

import numpy as np

import crashrl.agents.agent as agent_mod
import crashrl.agents.targets as targets_mod
import crashrl.agents.updates as updates_mod
import crashrl.cli as cli_mod
import crashrl.harness.running as running_mod
import crashrl.numkit.autodiff as autodiff_mod
from crashrl.agents import ALGOS, Agent, ReplayBuffer
from crashrl.env import AccidentEnv

MODULES = ("numkit", "agents", "env", "metrics", "harness", "cli")

SHARED_SPANS = (
    "numkit.mlp_apply",
    "numkit.mlp_graph",
    "numkit.backprop",
    "numkit.adam_step",
    "numkit.soft_update",
    "agents.train_step",
    "agents.replay_push",
    "agents.replay_sample",
    "agents.save",
    "agents.load",
    "env.env_init",
    "env.reset",
    "env.step",
    "env.generate_episode",
    "env.write_episode_file",
    "env.load_episode_file",
    "metrics.compile_report",
    "metrics.write_report",
    "harness.run_training",
    "harness.collect_records",
    "harness.export_traces",
    "harness.gen_dataset",
    "cli.main",
)
ALGO_SPANS = ("action_array", "compute_targets", "critic_update", "actor_update")
SPAN_NAMES = SHARED_SPANS + tuple(
    f"agents.{span}.{algo}" for span in ALGO_SPANS for algo in ALGOS
)

# (span, owner, attribute). Functions imported into several modules are
# wrapped in each importer; one span name covers them all.
_FUNCTION_SITES = (
    ("numkit.mlp_apply", agent_mod, "mlp_apply"),
    ("numkit.mlp_apply", targets_mod, "mlp_apply"),
    ("numkit.mlp_graph", updates_mod, "mlp_graph"),
    ("numkit.backprop", autodiff_mod, "backprop"),
    ("numkit.adam_step", updates_mod, "adam_step"),
    ("numkit.soft_update", updates_mod, "soft_update"),
    ("agents.train_step", running_mod, "train_step"),
    ("env.generate_episode", running_mod, "generate_episode"),
    ("env.generate_episode", cli_mod, "generate_episode"),
    ("env.write_episode_file", running_mod, "write_episode_file"),
    ("env.load_episode_file", running_mod, "load_episode_file"),
    ("env.load_episode_file", cli_mod, "load_episode_file"),
    ("metrics.compile_report", running_mod, "compile_report"),
    ("metrics.write_report", running_mod, "write_report"),
    ("metrics.write_report", cli_mod, "write_report"),
    ("harness.run_training", cli_mod, "run_training"),
    ("harness.collect_records", running_mod, "collect_records"),
    ("harness.export_traces", running_mod, "export_traces"),
    ("harness.export_traces", cli_mod, "export_traces"),
    ("harness.gen_dataset", cli_mod, "gen_dataset"),
    ("cli.main", cli_mod, "main"),
)
_METHOD_SITES = (
    ("agents.replay_push", ReplayBuffer, "push"),
    ("agents.replay_sample", ReplayBuffer, "sample"),
    ("agents.save", Agent, "save"),
    ("env.env_init", AccidentEnv, "__init__"),
    ("env.reset", AccidentEnv, "reset"),
    ("env.step", AccidentEnv, "step"),
)
# Per-algorithm spans: the index of the Agent among the positional arguments.
_ALGO_SITES = (
    ("agents.action_array", Agent, "action_array", 0),
    ("agents.compute_targets", updates_mod, "compute_targets", 1),
    ("agents.critic_update", updates_mod, "critic_update", 0),
    ("agents.actor_update", updates_mod, "actor_update", 0),
)


def tail_index(n: int) -> int:
    """Index, in sorted order, of the highest sample with 10 samples beyond it.

    With 20 or fewer samples that sample is not above the median, so the
    maximum is used instead.
    """
    return n - 11 if n > 20 else n - 1


class Tracer:
    """Span recorder plus the counters measured at the same boundaries."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.ade1_bytes_written = 0
        self.ade1_bytes_read = 0
        self.actor_calls = 0
        self.actor_effective = 0

    def _wrap(self, fn, name_of):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = name_of(args)
            parent = self._stack[-1] if self._stack else -1
            index = len(self.spans)
            span = [name, time.perf_counter(), 0.0, parent]
            self.spans.append(span)
            self._stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()

        return wrapper

    def _counted(self, name, fn):
        """Wrappers that also count ADE1 bytes and effective actor phases."""
        if name == "env.write_episode_file":
            def counted(episode, path):
                fn(episode, path)
                self.ade1_bytes_written += os.path.getsize(path)
            return counted
        if name == "env.load_episode_file":
            def counted(path):
                self.ade1_bytes_read += os.path.getsize(path)
                return fn(path)
            return counted
        if name == "agents.actor_update":
            def counted(agent, batch):
                losses = fn(agent, batch)
                self.actor_calls += 1
                self.actor_effective += bool(losses)
                return losses
            return counted
        return fn

    @contextlib.contextmanager
    def installed(self):
        saved = []

        def patch(owner, attr, wrapper):
            saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, wrapper)

        try:
            for name, owner, attr in _FUNCTION_SITES + _METHOD_SITES:
                fn = self._counted(name, getattr(owner, attr))
                patch(owner, attr, self._wrap(fn, lambda _args, n=name: n))
            for name, owner, attr, pos in _ALGO_SITES:
                fn = self._counted(name, getattr(owner, attr))
                patch(owner, attr, self._wrap(
                    fn, lambda args, n=name, p=pos: f"{n}.{args[p].cfg.algo}"
                ))
            load = Agent.__dict__["load"].__func__
            patch(Agent, "load", classmethod(self._wrap(load, lambda _a: "agents.load")))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # ---------------------------------------------------------------- results

    def durations(self) -> dict[str, np.ndarray]:
        """Seconds per call, per span name."""
        out: dict[str, list[float]] = {}
        for name, start, end, _parent in self.spans:
            out.setdefault(name, []).append(end - start)
        return {name: np.array(v) for name, v in out.items()}

    def self_seconds(self) -> dict[str, float]:
        """Total self time per span name: duration minus direct children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {}
        for (name, start, end, _parent), covered in zip(self.spans, child):
            out[name] = out.get(name, 0.0) + (end - start) - covered
        return out

    def layer_metrics(self, rounds: int, overhead_frac: float) -> dict[str, tuple[float, str]]:
        """Every per-layer metric as (value, unit), per traced round."""
        durations = self.durations()
        metrics: dict[str, tuple[float, str]] = {}
        for name in SPAN_NAMES:
            d = np.sort(durations.get(name, np.empty(0)))
            calls = d.size
            metrics[f"{name}.calls"] = (calls / rounds, "count")
            p50 = float(np.median(d)) * 1e6 if calls else 0.0
            tail = float(d[tail_index(calls)]) * 1e6 if calls else 0.0
            metrics[f"{name}.p50_us"] = (p50, "us")
            metrics[f"{name}.tail_us"] = (tail, "us")
        self_s = self.self_seconds()
        for module in MODULES:
            busy = sum(v for n, v in self_s.items() if n.split(".")[0] == module)
            metrics[f"{module}.self_s"] = (busy / rounds, "s")
        metrics["env.ade1_bytes_written"] = (self.ade1_bytes_written / rounds, "B")
        metrics["env.ade1_bytes_read"] = (self.ade1_bytes_read / rounds, "B")
        effective = self.actor_effective / self.actor_calls if self.actor_calls else 0.0
        metrics["agents.actor_update.effective_frac"] = (effective, "frac")
        metrics["trace.overhead_frac"] = (overhead_frac, "frac")
        return metrics

    def table(self, metrics: dict[str, tuple[float, str]]) -> str:
        """Per-module table: busy (self) time, then calls/p50/tail per span."""
        lines = [f"{'span':<34}{'calls':>10}{'p50_us':>12}{'tail_us':>12}"]
        for module in MODULES:
            lines.append(f"{module} self_s={metrics[f'{module}.self_s'][0]:.4f}")
            for name in SPAN_NAMES:
                if name.split(".")[0] != module:
                    continue
                calls = metrics[f"{name}.calls"][0]
                lines.append(
                    f"  {name:<32}{calls:>10g}"
                    f"{metrics[f'{name}.p50_us'][0]:>12.1f}"
                    f"{metrics[f'{name}.tail_us'][0]:>12.1f}"
                )
        lines.append(
            f"trace.overhead_frac={metrics['trace.overhead_frac'][0]:.4f} "
            f"agents.actor_update.effective_frac="
            f"{metrics['agents.actor_update.effective_frac'][0]:.4f} "
            f"ade1 written/read per round={metrics['env.ade1_bytes_written'][0]:.0f}/"
            f"{metrics['env.ade1_bytes_read'][0]:.0f} B"
        )
        return "\n".join(lines)

    def write_spans(self, path) -> None:
        """One JSON line per span: name, start and end (s), parent index."""
        with open(path, "w", encoding="utf-8") as f:
            for name, start, end, parent in self.spans:
                f.write(json.dumps([name, start, end, parent]) + "\n")
