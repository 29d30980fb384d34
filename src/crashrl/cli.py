"""Command-line entry point.

Subcommands: gen-data, train, eval, compare. Flags override config-file
values, which override defaults. Exit codes: 0 success, 1 usage or
configuration error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import os
import sys

from .agents import ALGOS
from .env.config import FIXATION_WINDOWS
from .harness import (
    ConfigError,
    build_run_config,
    compare_table,
    gen_dataset,
    load_config_file,
    load_run_summary,
    run_eval,
    run_training,
    write_comparison_csv,
)

# Not called here: perfbench/tracing.py wraps these names in this module too.
from .env import generate_episode, load_episode_file  # noqa: F401
from .harness import export_traces  # noqa: F401
from .metrics import write_report  # noqa: F401


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); the contract wants 1
        raise UsageError(message)


def _int_list(text: str) -> tuple[int, ...]:
    """A comma-separated int list: --seeds 0,1,2 or --hidden 64,64."""
    try:
        return tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _one_seed(text: str) -> tuple[int, ...]:
    """--seed N, the one-seed list (N,)."""
    try:
        return (int(text),)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


# The one list of run flags shared by gen-data, train and eval: flag, type or
# choices, the RunConfig field(s) it sets ("env."/"agent." name a section),
# help. Later rows win, so --seeds beats --seed.
_FLAGS = (
    ("--config", str, (), "JSON config file (flags override it)"),
    ("--out", str, ("out_dir",), "output directory"),
    ("--data", str, ("data_dir",), "episode-file directory (*.ade)"),
    ("--algo", ALGOS, ("algo",), None),
    ("--seed", _one_seed, ("seeds",), "single seed (shorthand for --seeds)"),
    ("--seeds", _int_list, ("seeds",), "comma-separated seed list, e.g. 0,1,2"),
    ("--epochs", int, ("epochs",), None),
    ("--episodes-per-epoch", int, ("episodes_per_epoch",), None),
    ("--eval-episodes", int, ("eval_episodes",), None),
    ("--episode-length", int, ("env.episode_len",), "frames per generated episode"),
    ("--grid", int, ("env.grid_h", "env.grid_w"), "saliency grid side (square)"),
    ("--pool", int, ("env.pool_h", "env.pool_w"), "pooled grid side (square)"),
    ("--stack", int, ("env.stack",), "observation frame-stack depth"),
    ("--a0", float, ("env.a_0",), "accident-score threshold"),
    ("--eta", float, ("env.eta",), "fixation-reward coefficient"),
    ("--rho", float, ("env.rho",), "top-down/bottom-up blend ratio"),
    ("--sigma-f", float, ("env.sigma_f",), "foveal Gaussian width"),
    ("--fixation-window", FIXATION_WINDOWS, ("env.fixation_window",), None),
    ("--nu", float, ("agent.nu",), "DARC critic-regularization weight"),
    ("--gamma", float, ("agent.gamma",), None),
    ("--tau", float, ("agent.tau",), None),
    ("--batch-size", int, ("agent.batch_size",), None),
    ("--warmup", int, ("agent.warmup_steps",), "uniform-random warmup steps"),
    ("--hidden", _int_list, ("agent.hidden_dims",), "comma-separated hidden widths, e.g. 64,64"),
    ("--lr", float, ("agent.actor_lr", "agent.critic_lr"), "actor and critic learning rate"),
)


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    for flag, kind, _, help_text in _FLAGS:
        if isinstance(kind, tuple):
            p.add_argument(flag, choices=kind, help=help_text)
        else:
            p.add_argument(flag, type=kind, help=help_text)


def _overrides(args) -> dict:
    """The run flags given, in build_run_config's nested layout."""
    top: dict = {}
    for flag, _, fields, _ in _FLAGS:
        value = getattr(args, flag[2:].replace("-", "_"))
        if value is None:
            continue
        for name in fields:
            section, _, key = name.rpartition(".")
            (top.setdefault(section, {}) if section else top)[key] = value
    return top


def _resolve_config(args):
    file_values = load_config_file(args.config) if args.config else None
    return build_run_config(file_values, _overrides(args))


def _metrics_line(report) -> str:
    return (
        f"mtta={report.mtta_seconds:.4f}s auc={report.auc:.5f} ap={report.ap:.5f} "
        f"recall={report.recall_at_a0:.4f} fixation_mse={report.fixation_mse:.6f}"
    )


def _cmd_gen_data(args) -> int:
    manifest = gen_dataset(_resolve_config(args), args.count)
    print(f"wrote {args.count} episodes and {manifest}")
    return 0


def _cmd_train(args) -> int:
    cfg = _resolve_config(args)
    artifacts = run_training(cfg)
    for result in artifacts.results:
        print(f"{artifacts.algo} seed {result.seed}: {_metrics_line(result.report)}")
    print(f"artifacts under {artifacts.out_dir}")
    return 0


def _cmd_eval(args) -> int:
    report, _ = run_eval(args.checkpoint, _resolve_config(args))
    print(f"eval: {_metrics_line(report)}")
    return 0


def _cmd_compare(args) -> int:
    summaries = []
    for path in args.runs:
        try:
            summaries.append(load_run_summary(path))
        except OSError as exc:
            raise ConfigError(f"runs: cannot read {path}: {exc}") from exc
    table = compare_table(summaries)
    path = os.path.join(args.out or ".", "comparison.csv")
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
    # The run flags are added once and copied into each command that takes them.
    run_flags = argparse.ArgumentParser(add_help=False)
    _add_run_flags(run_flags)

    p_gen = sub.add_parser(
        "gen-data", help="generate synthetic episode files", parents=[run_flags]
    )
    p_gen.add_argument("--count", type=int, required=True, help="episodes to write")
    p_gen.set_defaults(func=_cmd_gen_data)

    p_train = sub.add_parser("train", help="train one algorithm over seeds", parents=[run_flags])
    p_train.set_defaults(func=_cmd_train)

    p_eval = sub.add_parser(
        "eval", help="evaluate a checkpoint on an episode set", parents=[run_flags]
    )
    p_eval.add_argument("--checkpoint", required=True, help="agent checkpoint path")
    p_eval.set_defaults(func=_cmd_eval)

    p_cmp = sub.add_parser("compare", help="tabulate runs against each other")
    p_cmp.add_argument("--runs", nargs="+", required=True, help="run.json paths or dirs")
    p_cmp.add_argument("--out", help="output directory")
    p_cmp.set_defaults(func=_cmd_compare)
    return parser


@functools.cache
def _keep_freed_heap() -> None:
    """Keep the gradient phases' freed numpy temporaries in glibc's heap.

    With glibc's default thresholds these arrays (up to about 0.5 MiB) go
    back to the OS and are page-faulted in again every step, about a third
    of a lone default-scale train seed's wall time. Without glibc: a no-op.
    The thresholds hold for the process, so only the first call sets them.
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
