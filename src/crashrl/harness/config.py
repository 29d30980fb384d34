"""Run configuration: defaults, JSON config files, and flag overrides.

Precedence is flags > file > defaults. Config files are JSON objects whose
top-level keys mirror RunConfig fields, with nested "env" and "agent"
objects mirroring EnvConfig and AgentConfig. Unknown keys anywhere are
rejected by name, and so is a value of the wrong type: an int setting takes
no float or bool, a float setting no bool. ``EnvConfig`` and ``AgentConfig``
reject a non-finite float setting themselves.
"""

from __future__ import annotations

import dataclasses
import json
import numbers
import os
import sys
from dataclasses import dataclass

from ..atomic import write_json
from ..agents.config import AgentConfig
from ..env.config import EnvConfig


class ConfigError(ValueError):
    """Invalid, unknown, or out-of-range configuration input."""


@dataclass(frozen=True)
class RunConfig:
    """One batch experiment: algorithm, seeds, schedule, env and agent knobs."""

    algo: str = "darc"
    seeds: tuple[int, ...] = (0,)
    epochs: int = 30
    episodes_per_epoch: int = 40
    eval_episodes: int = 100
    env: EnvConfig = dataclasses.field(default_factory=EnvConfig)
    agent: AgentConfig = dataclasses.field(default_factory=AgentConfig)
    data_dir: str | None = None
    out_dir: str = "runs"

    def __post_init__(self):
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))
        if not self.seeds:
            raise ConfigError("seeds: must be nonempty")
        if any(s < 0 for s in self.seeds):
            raise ConfigError(f"seeds: must be >= 0, got {list(self.seeds)}")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError(f"seeds: must be distinct, got {list(self.seeds)}")
        if self.epochs < 1:
            raise ConfigError(f"epochs: must be >= 1, got {self.epochs}")
        if self.episodes_per_epoch < 1:
            raise ConfigError(
                f"episodes_per_epoch: must be >= 1, got {self.episodes_per_epoch}"
            )
        if self.eval_episodes < 1:
            raise ConfigError(f"eval_episodes: must be >= 1, got {self.eval_episodes}")
        if self.agent.algo != self.algo:
            raise ConfigError(
                f"algo: run-level {self.algo!r} conflicts with agent.algo "
                f"{self.agent.algo!r}"
            )


def _field_names(cls) -> set[str]:
    return {f.name for f in dataclasses.fields(cls)}


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_finite_number(value) -> bool:
    """An int or float within float range (exact for ints): no bool, NaN or infinity."""
    return (_is_int(value) or isinstance(value, float)) and abs(value) <= sys.float_info.max


# Field annotation -> (what it takes, check); every annotation is listed, so a
# new kind of setting cannot go unchecked. A bool is an int to Python, and a
# float int setting truncates or fails mid-run, so neither passes as an int.
_KINDS = {
    "int": ("an int", _is_int),
    "float": ("a number", lambda v: _is_int(v) or isinstance(v, float)),
    "str": ("a string", lambda v: isinstance(v, str)),
    "str | None": ("a string or null", lambda v: v is None or isinstance(v, str)),
    "tuple[int, ...]": (
        "a list of ints",
        lambda v: isinstance(v, (list, tuple)) and all(map(_is_int, v)),
    ),
    "EnvConfig": ("an object", lambda v: isinstance(v, EnvConfig)),
    "AgentConfig": ("an object", lambda v: isinstance(v, AgentConfig)),
}


def _build_section(cls, values: dict, section: str):
    unknown = sorted(set(values) - _field_names(cls))
    if unknown:
        raise ConfigError(f"{section}: unknown keys {unknown}")
    for f in dataclasses.fields(cls):
        kind, fits = _KINDS[f.type]
        if f.name in values and not fits(values[f.name]):
            raise ConfigError(
                f"{section}: {f.name} must be {kind}, got {values[f.name]!r}"
            )
    try:
        return cls(**values)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{section}: {exc}") from exc


def load_config_file(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as f:
            data = json.load(f)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid UTF-8: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return data


def build_run_config(
    file_values: dict | None = None, overrides: dict | None = None
) -> RunConfig:
    """Merge defaults, a parsed config file, and flag overrides (highest wins).

    Both inputs use the same nested layout: top-level RunConfig keys plus
    "env" and "agent" objects.
    """
    merged: dict = {}
    for source in (file_values or {}), (overrides or {}):
        for key, value in source.items():
            if key in ("env", "agent"):
                if not isinstance(value, dict):
                    raise ConfigError(f"{key}: expected an object of settings")
                section = dict(merged.get(key, {}))
                section.update(value)
                merged[key] = section
            else:
                merged[key] = value

    unknown = sorted(set(merged) - _field_names(RunConfig))
    if unknown:
        raise ConfigError(f"unknown configuration keys {unknown}")

    env_values = merged.pop("env", {})
    agent_values = dict(merged.pop("agent", {}))
    # The run-level algorithm drives the agent unless the agent section
    # explicitly (and consistently) names one too.
    algo = merged.get("algo", RunConfig.algo)
    agent_values.setdefault("algo", algo)

    env_cfg = _build_section(EnvConfig, env_values, "env")
    agent_cfg = _build_section(AgentConfig, agent_values, "agent")
    return _build_section(
        RunConfig, {**merged, "env": env_cfg, "agent": agent_cfg}, "run"
    )


def write_config_snapshot(cfg: RunConfig, out_dir) -> None:
    """Echo the fully resolved configuration into out_dir/config.json."""
    write_json(os.path.join(out_dir, "config.json"), dataclasses.asdict(cfg))
