"""Warmup episodes stepped in lockstep give the bytes of one episode at a time.

``run_training`` steps each run of consecutive training episodes that lies
wholly inside the warmup (one epoch, one grid shape and length, within the
buffer's capacity) as one ``AccidentEnv`` group through ``warmup_group``.
The reference replaces the grouping with one episode at a time through
``train_step``, as every episode stepped before groups existed. Both runs
must leave the same replay buffer (every column, the head and the size), the
same ``agent.rng`` state and ``total_env_steps``, and byte-identical
artifacts.
"""

import dataclasses
import json
from pathlib import Path

import pytest

import crashrl.harness.running as running_mod
from crashrl.agents import ALGOS, Agent, AgentConfig, ReplayBuffer
from crashrl.env import EnvConfig, generate_episode, write_episode_file
from crashrl.harness import RunConfig, run_training

ENV = EnvConfig(
    grid_h=8, grid_w=8, pool_h=4, pool_w=4, stack=2, episode_len=14, t_a_frac_hi=0.75
)
STEPS = ENV.episode_len - 1
BUFFER_COLUMNS = ("_s", "_a", "_r_a", "_r_f", "_s2", "_d")


def _cfg(tmp_path, algo, *, warmup, capacity=2000, epochs=1, per_epoch=5, data_dir=None):
    agent = AgentConfig(
        algo=algo, hidden_dims=(8, 8), batch_size=8, warmup_steps=warmup,
        buffer_capacity=capacity, reward_weight_accident=0.5,
    )
    return RunConfig(
        algo=algo, seeds=(0, 1), epochs=epochs, episodes_per_epoch=per_epoch,
        eval_episodes=4, env=ENV, agent=agent, out_dir=str(tmp_path),
        data_dir=None if data_dir is None else str(data_dir),
    )


def _one_at_a_time(episodes, _warmup_left, _capacity):
    """Every episode a group of one, stepped by ``train_step``."""
    return (([episode], False) for episode in episodes)


def _run(cfg, monkeypatch, reference: bool):
    """run_training; returns its files, agents, buffers and warmup group sizes."""
    agents, buffers, sizes = [], [], []

    def make_agent(*args):
        agents.append(Agent(*args))
        return agents[-1]

    def make_buffer(*args):
        buffers.append(ReplayBuffer(*args))
        return buffers[-1]

    def grouped(agent, env, buffer):
        sizes.append(len(env.episodes))
        warmup_group(agent, env, buffer)

    warmup_group = running_mod.warmup_group
    with monkeypatch.context() as patch:
        patch.setattr(running_mod, "Agent", make_agent)
        patch.setattr(running_mod, "ReplayBuffer", make_buffer)
        patch.setattr(running_mod, "warmup_group", grouped)
        if reference:
            patch.setattr(running_mod, "_training_groups", _one_at_a_time)
        run_training(cfg)
    return _files(cfg.out_dir), agents, buffers, sizes


def _files(out_dir):
    """Every file under out_dir by relative path; config.json without its out_dir."""
    files = {}
    for path in sorted(Path(out_dir).rglob("*")):
        if path.is_file():
            data = path.read_bytes()
            if path.name == "config.json":
                snapshot = json.loads(data)
                snapshot.pop("out_dir")
                data = json.dumps(snapshot, sort_keys=True).encode()
            files[str(path.relative_to(out_dir))] = data
    return files


def assert_grouped_matches_reference(tmp_path, monkeypatch, cfg):
    """Runs cfg grouped and one episode at a time; returns the warmup group sizes."""
    files, agents, buffers, sizes = _run(
        dataclasses.replace(cfg, out_dir=str(tmp_path / "grouped")), monkeypatch, False
    )
    ref_files, ref_agents, ref_buffers, ref_sizes = _run(
        dataclasses.replace(cfg, out_dir=str(tmp_path / "reference")), monkeypatch, True
    )
    assert ref_sizes == []
    assert files.keys() == ref_files.keys()
    for name, data in files.items():
        assert data == ref_files[name], f"{name} differs"
    assert len(agents) == len(ref_agents) == len(cfg.seeds)
    for agent, ref in zip(agents, ref_agents):
        assert agent.total_env_steps == ref.total_env_steps
        assert agent.rng.bit_generator.state == ref.rng.bit_generator.state
    for buffer, ref in zip(buffers, ref_buffers):
        assert (len(buffer), buffer._head) == (len(ref), ref._head)
        for column in BUFFER_COLUMNS:
            got, expected = getattr(buffer, column), getattr(ref, column)
            assert got.dtype == expected.dtype
            assert got[: len(ref)].tobytes() == expected[: len(ref)].tobytes(), column
    return sizes


@pytest.mark.parametrize("algo", ALGOS)
class TestWarmupLockstep:
    def test_whole_warmup_episodes_then_one_straddling(self, tmp_path, monkeypatch, algo):
        # Three whole episodes (39 steps), then one across the end of the warmup.
        cfg = _cfg(tmp_path, algo, warmup=3 * STEPS + 5)
        sizes = assert_grouped_matches_reference(tmp_path, monkeypatch, cfg)
        assert sizes == [3, 3]  # one group per seed

    def test_no_warmup(self, tmp_path, monkeypatch, algo):
        cfg = _cfg(tmp_path, algo, warmup=0)
        assert assert_grouped_matches_reference(tmp_path, monkeypatch, cfg) == []

    def test_warmup_over_several_epochs(self, tmp_path, monkeypatch, algo):
        # Nine whole episodes over epochs 1-5; the tenth straddles; curve
        # points at epochs 5 and 6.
        cfg = _cfg(tmp_path, algo, warmup=9 * STEPS + 3, epochs=6, per_epoch=2)
        sizes = assert_grouped_matches_reference(tmp_path, monkeypatch, cfg)
        assert sizes == [2, 2, 2, 2, 1] * 2

    def test_capacity_below_a_group_wraps_the_ring(self, tmp_path, monkeypatch, algo):
        # Two episodes (26 steps) fit in 30 slots; 104 steps wrap the ring.
        cfg = _cfg(tmp_path, algo, warmup=7 * STEPS + 9, capacity=30, per_epoch=8)
        sizes = assert_grouped_matches_reference(tmp_path, monkeypatch, cfg)
        assert sizes == [2, 2, 2, 1] * 2

    def test_data_groups_split_where_length_or_grid_changes(self, tmp_path, monkeypatch, algo):
        data = tmp_path / "data"
        data.mkdir()
        shapes = [(8, 14)] * 3 + [(8, 10)] * 2 + [(16, 10)] * 2 + [(8, 14)]
        for i, (grid, length) in enumerate(shapes):
            env = dataclasses.replace(ENV, grid_h=grid, grid_w=grid, episode_len=length)
            write_episode_file(generate_episode(env, 50 + i), data / f"a_{i}.ade")
        for j, accident_prob in enumerate((1.0, 0.0, 1.0, 0.0)):  # both classes held out
            env = dataclasses.replace(ENV, accident_prob=accident_prob)
            write_episode_file(generate_episode(env, 90 + j), data / f"e_{j}.ade")
        # Epoch 1 (88 steps) lies inside the warmup; epoch 2's first episode straddles it.
        cfg = _cfg(tmp_path, algo, warmup=95, epochs=2, per_epoch=8, data_dir=data)
        sizes = assert_grouped_matches_reference(tmp_path, monkeypatch, cfg)
        assert sizes == [3, 2, 2, 1] * 2

