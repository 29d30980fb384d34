"""Golden digests of the eval artifacts: metrics.json, roc.csv, pr.csv, the
per-episode traces and the curve's mean return.

The policy draws its actions from ``np.random.default_rng`` and makes no BLAS
call, so no gemm or ``np.exp`` bits reach the records: the pinned digests
change only when the rollout, the metrics or the artifact formats change.
"""

import hashlib

import numpy as np

from crashrl.env import EnvConfig, generate_episode
from crashrl.harness import RunConfig, collect_records, export_traces
from crashrl.harness.running import _mean_return
from crashrl.metrics import compile_report, write_report

# Recorded with the per-frame FrameRecord implementation these columns replaced.
REPORT_SHA256 = {
    "metrics.json": "8a41a476e73e730020387aa092a1a2878562e9018d4fef4ceff89e902dc75a15",
    "roc.csv": "50b3ef01a8a9ff54fe283f0f9d32452d7189d3602ee06e4449fb81aee9de39ee",
    "pr.csv": "25dc2108013038ddf0cc720539c6d23da1fc57184dc4f667acb8aabfbf43befd",
}
TRACE_SHA256 = {
    "trace_gen900.csv": "76ca1f91b88db5eba259e6cef2a1f7c8064a248d0318da7e41cd983e5e6c1080",
    "trace_gen901.csv": "dff9e64400a8e49bd5635f60b26624c853c27081bf799de68b6a6ebeebeeab8a",
    "trace_gen902.csv": "388b27f062c4789bf4be2dda30d7e984a138c0787d4585860918fcf36216ce69",
    "trace_gen903.csv": "1afeb9dab92a07926a494898929e2caac28cc3025b77a8316db9b996f36869a5",
    "trace_gen904.csv": "beb4326a005ffb82bbc315eb39301bd1de75946fbb1696d3805600cf6a507461",
    "trace_gen905.csv": "689b837e9a1f7d8dd1cedb80f3af78bd74790da8f1a1ab733686c09fec9a293c",
    "trace_gen906.csv": "d9da4b063d44c3da5a219b136c7c495d7b366c9dd64e10431491d56119b36ea4",
    "trace_gen907.csv": "1c3be774326a2ea2857013f1a39b60cef4f0f5fc28548fefad43bea7c8571a48",
    "trace_gen908.csv": "3a11da83a1bdf044a5cbb6d1ec631cd4db333e878a10c33f6e26961ff092b52a",
    "trace_gen909.csv": "85898c54d31508acf13b738e8eaefa2a2f2878a0ab6d76759eb59546ba14cc54",
    "trace_gen910.csv": "ec78475775b629a45fa1fda7f4a9ee42236f97450968cc8cfd1d720f3a64d84a",
    "trace_gen911.csv": "d29cbe83556ac9649ed45bda21534ca37250f88abf7d8a3f30e32c3ddfb7dee6",
}
MEAN_RETURN_REPR = "6.59308619725288"


class RandomPolicy:
    """Actions from a seeded generator; scores rounded to two places for ties."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)

    def __call__(self, features, t, episodes):
        actions = self.rng.random((len(episodes), 3))
        actions[:, 0] = np.round(actions[:, 0], 2)
        return actions


def golden_episodes():
    """Both classes and two lengths, interleaved, on one grid."""
    long_env = EnvConfig(grid_h=8, grid_w=8, pool_h=4, pool_w=4, stack=2,
                         episode_len=24, t_a_frac_hi=0.75)
    short_env = EnvConfig(grid_h=8, grid_w=8, pool_h=4, pool_w=4, stack=2,
                          episode_len=15, t_a_frac_hi=0.75)
    episodes = [
        generate_episode(long_env if j % 3 else short_env, 900 + j) for j in range(12)
    ]
    assert {ep.y for ep in episodes} == {0, 1}
    return long_env, episodes


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_eval_artifacts_match_golden_digests(tmp_path):
    env, episodes = golden_episodes()
    cfg = RunConfig(seeds=(0,), env=env, eval_episodes=len(episodes))
    records = collect_records(RandomPolicy(5), episodes, cfg)
    report = compile_report(records, env.a_0, window=env.fixation_window)
    write_report(report, tmp_path)
    paths = export_traces(records, tmp_path / "traces")
    assert len(paths) == len(episodes)
    got_report = {name: sha256(tmp_path / name) for name in REPORT_SHA256}
    got_traces = {
        path.name: sha256(path) for path in sorted((tmp_path / "traces").iterdir())
    }
    got_return = repr(_mean_return(records, cfg))
    assert got_report == REPORT_SHA256
    assert got_traces == TRACE_SHA256
    assert got_return == MEAN_RETURN_REPR
