"""Tests of the benchmark itself, at smoke size: python3 -m pytest -q perfbench"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

from crashrl.agents import Agent  # noqa: E402
from crashrl.env import EnvConfig, generate_episode  # noqa: E402
from crashrl.harness.running import EVAL_SEED_BASE  # noqa: E402
from tracing import _ALGO_SITES, _FUNCTION_SITES, _METHOD_SITES, Tracer, tail_index  # noqa: E402
from workloads import SetupError, check_heldout_classes  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
    SPEC = json.load(f)


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    for m in result["metrics"].values():
        assert set(m) == {"value", "unit"} and math.isfinite(m["value"])
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_checkout_without_the_program_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "train", "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert "metrics" not in proc.stdout


def test_heldout_check_names_the_seed_of_a_one_class_set():
    # With eval_episodes=2, run seed 0 holds out two negative episodes:
    # crashrl's run_training trains the whole seed before compile_report fails.
    labels = {generate_episode(EnvConfig(), 0 * EVAL_SEED_BASE + j).y for j in range(2)}
    assert labels == {0}
    with pytest.raises(SetupError, match="workload seed 0: .*no positive"):
        check_heldout_classes(labels, 0, "generated from run seed 0")
    check_heldout_classes({0, 1}, 0, "both classes")


def test_tail_is_the_sample_with_ten_beyond_it():
    assert tail_index(100) == 89
    assert tail_index(21) == 10
    assert tail_index(20) == 19
    assert tail_index(5) == 4


def test_tracer_restores_every_wrapped_attribute():
    sites = [(o, a) for _, o, a in _FUNCTION_SITES + _METHOD_SITES]
    sites += [(o, a) for _, o, a, _ in _ALGO_SITES] + [(Agent, "load")]
    before = [o.__dict__[a] for o, a in sites]
    tracer = Tracer()
    with tracer.installed():
        assert all(o.__dict__[a] is not b for (o, a), b in zip(sites, before))
    assert all(o.__dict__[a] is b for (o, a), b in zip(sites, before))
