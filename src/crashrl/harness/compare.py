"""Cross-algorithm comparison tables over matching evaluation sets."""

from __future__ import annotations

import json
import os
import statistics
from dataclasses import dataclass

from ..atomic import write_csv
from ..metrics import LOWER_IS_BETTER, METRIC_NAMES
from .config import ConfigError, is_finite_number


@dataclass(frozen=True)
class RunSummary:
    """The slice of a run that comparison needs."""

    algo: str
    eval_fingerprint: str
    metrics_by_seed: dict[str, dict]


@dataclass(frozen=True)
class ComparisonCell:
    median: float
    min: float
    max: float


@dataclass(frozen=True)
class ComparisonTable:
    """Rows = metrics (``METRIC_NAMES``), columns = algorithms (sorted by name)."""

    algos: tuple[str, ...]
    rows: tuple[str, ...]
    cells: dict[tuple[str, str], ComparisonCell]  # (row, algo) -> cell
    best: dict[str, tuple[str, ...]]  # row -> algos tied for best


def load_run_summary(path) -> RunSummary:
    """Read a run.json written by run_training (path may be its directory).

    Invalid JSON, a missing key, an empty or non-object ``per_seed``, a
    metric that is not a finite number and an ``algo`` or ``eval_fingerprint``
    that is not a string raise ConfigError naming the path (and the seed and
    key).
    """
    if os.path.isdir(path):
        path = os.path.join(path, "run.json")
    with open(path, "r", encoding="utf-8") as f:
        try:
            data = json.load(f)
        except ValueError as exc:
            raise ConfigError(f"runs: {path} is not valid JSON: {exc}") from exc

    def field(mapping, key, where=""):
        if not isinstance(mapping, dict) or key not in mapping:
            raise ConfigError(f"runs: {path}: {where}no {key!r} key")
        return mapping[key]

    def text(key):
        value = field(data, key)
        if not isinstance(value, str):
            raise ConfigError(f"runs: {path}: {key!r} must be a string, got {value!r}")
        return value

    per_seed = field(data, "per_seed")
    if not isinstance(per_seed, dict) or not per_seed:
        raise ConfigError(f"runs: {path}: 'per_seed' must be a non-empty object of seeds")
    metrics_by_seed = {}
    for seed, entry in per_seed.items():
        metrics_by_seed[seed] = metrics = field(entry, "metrics", f"seed {seed}: ")
        for key in METRIC_NAMES:
            value = field(metrics, key, f"seed {seed}: ")
            if not is_finite_number(value):
                raise ConfigError(
                    f"runs: {path}: seed {seed}: {key!r} must be a finite number, "
                    f"got {value!r}"
                )
    return RunSummary(text("algo"), text("eval_fingerprint"), metrics_by_seed)


def compare_table(runs: list[RunSummary]) -> ComparisonTable:
    """Median-over-seeds comparison; best per row flagged (the minimum for
    ``LOWER_IS_BETTER`` metrics, else the maximum)."""
    summaries = list(runs)
    if len(summaries) < 2:
        raise ConfigError("comparison requires at least two algorithms")
    names = [s.algo for s in summaries]
    if len(set(names)) != len(names):
        raise ConfigError(f"duplicate algorithm names in comparison: {sorted(names)}")
    fingerprints = {s.eval_fingerprint for s in summaries}
    if len(fingerprints) != 1:
        raise ConfigError(
            "runs evaluate different episode sets; fingerprints: "
            + ", ".join(f"{s.algo}={s.eval_fingerprint}" for s in summaries)
        )
    summaries.sort(key=lambda s: s.algo)

    cells: dict[tuple[str, str], ComparisonCell] = {}
    best: dict[str, tuple[str, ...]] = {}
    for key in METRIC_NAMES:
        medians = {}
        for summary in summaries:
            values = [m[key] for m in summary.metrics_by_seed.values()]
            cell = ComparisonCell(statistics.median(values), min(values), max(values))
            cells[(key, summary.algo)] = cell
            medians[summary.algo] = cell.median
        target = (min if key in LOWER_IS_BETTER else max)(medians.values())
        best[key] = tuple(algo for algo in sorted(medians) if medians[algo] == target)
    return ComparisonTable(tuple(s.algo for s in summaries), METRIC_NAMES, cells, best)


def write_comparison_csv(table: ComparisonTable, path) -> None:
    header = ["metric"]
    for algo in table.algos:
        header.extend([f"{algo}_median", f"{algo}_min", f"{algo}_max"])
    header.append("best")
    rows = []
    for row in table.rows:
        parts = [row]
        for algo in table.algos:
            cell = table.cells[(row, algo)]
            parts.extend([cell.median, cell.min, cell.max])
        parts.append(";".join(table.best[row]))
        rows.append(tuple(parts))
    write_csv(path, header, rows)
