"""crashrl benchmark: run one workload at one seed and print its metrics.

    python3 perfbench/run.py --workload {train,eval,ingest} --seed N \
        --seconds S --trace {0,1} [--smoke]

Run from the repository root. The program is imported from ./src, so a
checkout without it fails with exit code 2. The last stdout line is one JSON
object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones of BENCHMARK.json, measured untraced; with
--trace 1 they are the per-layer ones, from traced rounds that alternate with
untraced rounds (their difference is trace.overhead_frac). --smoke shrinks
the environment and networks so that every workload finishes in seconds.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads: layer timings must not depend on
# how many idle cores the host happens to have.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
OUT = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("train", "eval", "ingest")


def _import_program():
    """Import crashrl from this checkout's src/ and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "crashrl", "__init__.py")):
        sys.exit(f"perfbench: no crashrl package under {SRC}")
    sys.path.insert(0, SRC)
    import crashrl

    if os.path.dirname(os.path.dirname(os.path.abspath(crashrl.__file__))) != SRC:
        sys.exit(f"perfbench: crashrl imported from {crashrl.__file__}, not {SRC}")


def _environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "seed": seed,
    }


def _rounds(wl, seconds: float, min_rounds: int, tracer=None):
    """Run rounds until the next one would end after ``seconds``.

    With a tracer, untraced and traced rounds alternate. At least
    ``min_rounds`` rounds run. Returns the call times and the round count,
    each keyed by whether the round was traced.
    """
    times = {False: {}, True: {}}
    done = {False: 0, True: 0}
    start = time.perf_counter()
    last = 0.0
    while True:
        n = done[False] + done[True]
        elapsed = time.perf_counter() - start
        if n >= min_rounds and elapsed + last > seconds:
            break
        traced = tracer is not None and n % 2 == 1
        wl.times = times[traced]
        wl.tracing = traced
        begin = time.perf_counter()
        if traced:
            with tracer.installed():
                wl.round(first=False)
        else:
            wl.round(first=n == 0)
        last = time.perf_counter() - begin
        done[traced] += 1
    return times, done


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="crashrl benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true", help="small env and networks")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    _import_program()
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from tracing import Tracer
    from workloads import MIN_ROUNDS, SETUP_REPEATS, SetupError, Workload

    work = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    wl = Workload(args.workload, args.seed, work, args.smoke)
    try:
        setup_times = [wl.timed_setup() for _ in range(SETUP_REPEATS)]
        tracer = Tracer() if args.trace else None
        times, done = _rounds(wl, args.seconds, MIN_ROUNDS, tracer)
    except SetupError as exc:
        print(f"perfbench: set-up failed: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)

    info = _environment(args.seed)
    info.update(workload=args.workload, trace=args.trace, smoke=args.smoke,
                rounds=done, failures=wl.failures[:20])
    if args.trace:
        untraced = {k: statistics.median(v) for k, v in times[False].items()}
        traced = {k: statistics.median(v) for k, v in times[True].items()}
        overhead = sum(traced.values()) / sum(untraced[k] for k in traced) - 1.0
        metrics = tracer.layer_metrics(done[True], overhead)
        info["samples"] = {"spans_per_traced_round": len(tracer.spans) // done[True]}
        print(tracer.table(metrics))
        os.makedirs(OUT, exist_ok=True)
        tracer.write_spans(os.path.join(OUT, f"spans-{args.workload}-{args.seed}.jsonl"))
    else:
        wl.times = times[False]
        samples = wl.samples()
        samples["setup_s"] = setup_times
        info["samples"] = {k: len(v) for k, v in samples.items()}
        info["call_seconds"] = wl.call_medians()
        info["sample_values"] = samples
        info["probe_median_s"] = statistics.median(wl.probe_medians)
        metrics = {k: (statistics.median(v), _unit(k)) for k, v in samples.items()}
        metrics["peak_rss_mib"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"
        )
        metrics["ok_frac"] = (1.0 - wl.failed / wl.attempted, "frac")
        info["samples"].update(peak_rss_mib=1, ok_frac=wl.attempted)
    for line in wl.failures[:20]:
        print(f"perfbench: failed: {line}", file=sys.stderr)
    result = {
        "correct": wl.failed == 0,
        "attempted": wl.attempted,
        "failed": wl.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
    }
    os.makedirs(OUT, exist_ok=True)
    name = f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w", encoding="utf-8") as f:
        json.dump({"info": info, **result}, f, indent=2, sort_keys=True)
    info.pop("sample_values", None)
    print("info " + json.dumps(info, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


def _unit(metric: str) -> str:
    if metric == "setup_s":
        return "s"
    if metric == "dataset_bytes_per_episode":
        return "B"
    return "1/s"


if __name__ == "__main__":
    sys.exit(main())
