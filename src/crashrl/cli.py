"""Command-line entry point.

Subcommands: gen-data, train, eval, compare. Flags override config-file
values, which override defaults. Exit codes: 0 success, 1 usage or
configuration error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import ctypes
import os
import sys

from .agents import ALGOS
from .env import generate_episode, load_episode_file
from .harness import (
    ConfigError,
    build_run_config,
    compare_table,
    episode_files,
    export_traces,
    gen_dataset,
    load_config_file,
    load_run_summary,
    run_eval,
    run_training,
    write_comparison_csv,
    write_config_snapshot,
)
from .harness.running import EVAL_SEED_BASE
from .metrics import write_report


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); the contract wants 1
        raise UsageError(message)


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file (flags override it)")
    p.add_argument("--out", help="output directory")
    p.add_argument("--data", help="episode-file directory (*.ade)")
    p.add_argument("--algo", choices=ALGOS)
    p.add_argument("--seed", type=int, help="single seed (shorthand for --seeds)")
    p.add_argument("--seeds", help="comma-separated seed list, e.g. 0,1,2")
    p.add_argument("--epochs", type=int)
    p.add_argument("--episodes-per-epoch", type=int)
    p.add_argument("--eval-episodes", type=int)
    p.add_argument("--episode-length", type=int, help="frames per generated episode")
    p.add_argument("--grid", type=int, help="saliency grid side (square)")
    p.add_argument("--pool", type=int, help="pooled grid side (square)")
    p.add_argument("--stack", type=int, help="observation frame-stack depth")
    p.add_argument("--a0", type=float, help="accident-score threshold")
    p.add_argument("--eta", type=float, help="fixation-reward coefficient")
    p.add_argument("--rho", type=float, help="top-down/bottom-up blend ratio")
    p.add_argument("--sigma-f", type=float, help="foveal Gaussian width")
    p.add_argument("--fixation-window", choices=("after_accident", "before_accident"))
    p.add_argument("--nu", type=float, help="DARC critic-regularization weight")
    p.add_argument("--gamma", type=float)
    p.add_argument("--tau", type=float)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--warmup", type=int, help="uniform-random warmup steps")
    p.add_argument("--hidden", help="comma-separated hidden widths, e.g. 64,64")
    p.add_argument("--lr", type=float, help="actor and critic learning rate")


def _parse_seeds(args) -> tuple[int, ...] | None:
    if args.seeds is not None:
        try:
            return tuple(int(tok) for tok in args.seeds.split(",") if tok.strip())
        except ValueError as exc:
            raise UsageError(f"--seeds: {exc}") from exc
    if args.seed is not None:
        return (args.seed,)
    return None


def _overrides(args) -> dict:
    top: dict = {}
    env: dict = {}
    agent: dict = {}
    seeds = _parse_seeds(args)
    if seeds is not None:
        top["seeds"] = seeds
    for flag, key in (
        ("algo", "algo"),
        ("epochs", "epochs"),
        ("episodes_per_epoch", "episodes_per_epoch"),
        ("eval_episodes", "eval_episodes"),
        ("data", "data_dir"),
        ("out", "out_dir"),
    ):
        value = getattr(args, flag, None)
        if value is not None:
            top[key] = value
    for flag, key in (
        ("a0", "a_0"),
        ("eta", "eta"),
        ("rho", "rho"),
        ("sigma_f", "sigma_f"),
        ("fixation_window", "fixation_window"),
        ("episode_length", "episode_len"),
        ("stack", "stack"),
    ):
        value = getattr(args, flag, None)
        if value is not None:
            env[key] = value
    if getattr(args, "grid", None) is not None:
        env["grid_h"] = env["grid_w"] = args.grid
    if getattr(args, "pool", None) is not None:
        env["pool_h"] = env["pool_w"] = args.pool
    for flag, key in (
        ("nu", "nu"),
        ("gamma", "gamma"),
        ("tau", "tau"),
        ("batch_size", "batch_size"),
        ("warmup", "warmup_steps"),
    ):
        value = getattr(args, flag, None)
        if value is not None:
            agent[key] = value
    if getattr(args, "hidden", None) is not None:
        try:
            agent["hidden_dims"] = tuple(
                int(tok) for tok in args.hidden.split(",") if tok.strip()
            )
        except ValueError as exc:
            raise UsageError(f"--hidden: {exc}") from exc
    if getattr(args, "lr", None) is not None:
        agent["actor_lr"] = agent["critic_lr"] = args.lr
    if env:
        top["env"] = env
    if agent:
        top["agent"] = agent
    return top


def _resolve_config(args):
    file_values = load_config_file(args.config) if args.config else None
    return build_run_config(file_values, _overrides(args))


def _cmd_gen_data(args) -> int:
    cfg = _resolve_config(args)
    out = args.out or cfg.out_dir
    manifest = gen_dataset(cfg, args.count, out, seed_base=cfg.seeds[0])
    write_config_snapshot(cfg, out)
    print(f"wrote {args.count} episodes and {manifest}")
    return 0


def _cmd_train(args) -> int:
    cfg = _resolve_config(args)
    artifacts = run_training(cfg)
    for result in artifacts.results:
        print(
            f"{artifacts.algo} seed {result.seed}: "
            f"mtta={result.report.mtta_seconds:.4f}s "
            f"auc={result.report.auc:.5f} ap={result.report.ap:.5f} "
            f"recall={result.report.recall_at_a0:.4f} "
            f"fixation_mse={result.report.fixation_mse:.6f}"
        )
    print(f"artifacts under {artifacts.out_dir}")
    return 0


def _cmd_eval(args) -> int:
    cfg = _resolve_config(args)
    if not os.path.exists(args.checkpoint):
        raise ConfigError(f"checkpoint: no such file {args.checkpoint}")
    if args.data:
        files = episode_files(args.data)
        if not files:
            raise ConfigError(f"data: no .ade episodes under {args.data}")
        episodes = [load_episode_file(p) for p in files]
    else:
        base = cfg.seeds[0] * EVAL_SEED_BASE
        episodes = [
            generate_episode(cfg.env, base + j) for j in range(cfg.eval_episodes)
        ]
    report, records = run_eval(args.checkpoint, episodes, cfg)
    out = args.out or cfg.out_dir
    os.makedirs(out, exist_ok=True)
    write_config_snapshot(cfg, out)
    write_report(report, out)
    export_traces(records, os.path.join(out, "traces"))
    print(
        f"eval: mtta={report.mtta_seconds:.4f}s auc={report.auc:.5f} "
        f"ap={report.ap:.5f} recall={report.recall_at_a0:.4f} "
        f"fixation_mse={report.fixation_mse:.6f}"
    )
    return 0


def _cmd_compare(args) -> int:
    summaries = []
    for path in args.runs:
        try:
            summaries.append(load_run_summary(path))
        except OSError as exc:
            raise ConfigError(f"runs: cannot read {path}: {exc}") from exc
    table = compare_table(summaries)
    out = args.out or "."
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, "comparison.csv")
    write_comparison_csv(table, path)
    print(f"wrote {path}")
    for row in table.rows:
        best = ";".join(table.best[row])
        cells = "  ".join(
            f"{algo}={table.cells[(row, algo)].median:.5f}" for algo in table.algos
        )
        print(f"{row:>16}: {cells}  best={best}")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="crashrl", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen-data", help="generate synthetic episode files")
    _add_common_flags(p_gen)
    p_gen.add_argument("--count", type=int, required=True, help="episodes to write")
    p_gen.set_defaults(func=_cmd_gen_data)

    p_train = sub.add_parser("train", help="train one algorithm over seeds")
    _add_common_flags(p_train)
    p_train.set_defaults(func=_cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint on an episode set")
    _add_common_flags(p_eval)
    p_eval.add_argument("--checkpoint", required=True, help="agent checkpoint path")
    p_eval.set_defaults(func=_cmd_eval)

    p_cmp = sub.add_parser("compare", help="tabulate runs against each other")
    p_cmp.add_argument("--runs", nargs="+", required=True, help="run.json paths or dirs")
    p_cmp.add_argument("--out", help="output directory")
    p_cmp.set_defaults(func=_cmd_compare)
    return parser


def _keep_freed_heap() -> None:
    """Keep the gradient phases' freed numpy temporaries in glibc's heap.

    With glibc's default thresholds these arrays (up to about 0.5 MiB) go
    back to the OS and are page-faulted in again every step, about a third
    of a lone default-scale train seed's wall time. Without glibc: a no-op.
    """
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return
    mallopt(-3, 4 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 8 << 20)  # M_TRIM_THRESHOLD


def main(argv=None) -> int:
    _keep_freed_heap()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (UsageError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # argparse -h/--help
        return int(exc.code or 0)
    except Exception as exc:  # noqa: BLE001 - runtime failures map to exit 2
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
