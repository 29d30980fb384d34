"""Each ``--data`` file is parsed once per command, and its episode is shared."""

import builtins
import collections
import dataclasses
import shutil

import pytest

import crashrl.harness.running as running_mod
import crashrl.records as records_mod
from crashrl.agents import Agent, AgentConfig
from crashrl.env import EnvConfig
from crashrl.harness import RunConfig, gen_dataset, run_eval, run_training

ENV = EnvConfig(
    grid_h=8, grid_w=8, pool_h=4, pool_w=4, stack=2, episode_len=14, t_a_frac_hi=0.75
)
EVAL_EPISODES = 4


def _cfg(data_dir, out_dir, epochs, seeds=(0, 1)):
    agent = AgentConfig(
        algo="darc", hidden_dims=(8, 8), batch_size=8, warmup_steps=20,
        buffer_capacity=2000,
    )
    return RunConfig(
        algo="darc", seeds=seeds, epochs=epochs, episodes_per_epoch=2,
        eval_episodes=EVAL_EPISODES, env=ENV, agent=agent, out_dir=str(out_dir),
        data_dir=str(data_dir),
    )


def _pool(tmp_path):
    """Six generated episode files: two for training, four held out (both classes)."""
    pool = tmp_path / "pool"
    cfg = dataclasses.replace(_cfg(pool, tmp_path, 1, seeds=(0,)), out_dir=str(pool))
    gen_dataset(cfg, 2 + EVAL_EPISODES)
    files = sorted(pool.glob("*.ade"))
    labels = {line.split(",")[2] for line in (pool / "manifest.csv").read_text().splitlines()[3:]}
    assert labels == {"0", "1"}, "the held-out files must hold both classes"
    return files[:2], files[2:]


def _dataset(directory, train_files, eval_files):
    """``a_<i>.ade`` training copies sort before the ``e_<j>.ade`` held-out copies."""
    directory.mkdir()
    for i, src in enumerate(train_files):
        shutil.copy(src, directory / f"a_{i}.ade")
    for j, src in enumerate(eval_files):
        shutil.copy(src, directory / f"e_{j}.ade")
    return directory


@pytest.mark.parametrize("command", ["train", "eval"])
def test_each_file_parsed_once_per_run(tmp_path, monkeypatch, command):
    train, held = _pool(tmp_path)
    data = _dataset(tmp_path / "data", train, held)
    cfg = _cfg(data, tmp_path / "out", epochs=3)
    checkpoint = tmp_path / "ck.txt"
    Agent(cfg.agent, ENV.obs_dim, seed=0).save(checkpoint)
    calls, opened = collections.Counter(), collections.Counter()
    original = running_mod.load_episode_file

    def counted(path):
        calls[path] += 1
        return original(path)

    def counted_open(path, *args, **kwargs):
        opened[str(path)] += 1
        return builtins.open(path, *args, **kwargs)

    monkeypatch.setattr(running_mod, "load_episode_file", counted)
    monkeypatch.setattr(records_mod, "open", counted_open, raising=False)
    if command == "train":
        # 2 seeds x 3 epochs x 2 episodes: the 2 training files cycle 3 times per seed.
        run_training(cfg)
    else:
        run_eval(str(checkpoint), cfg)  # every file, held out or not
    files = dict.fromkeys(sorted(str(p) for p in data.glob("*.ade")), 1)
    assert calls == files
    # No other pass (e.g. of header lines alone) opens an episode file.
    assert {path: n for path, n in opened.items() if path.endswith(".ade")} == files


def test_wrapped_cycle_matches_distinct_copies(tmp_path):
    """Training on 2 files cycled 3 times writes the same bytes as training on
    6 distinct copies: no shared episode changes while it is stepped."""
    train, held = _pool(tmp_path)
    wrapped = _dataset(tmp_path / "wrapped", train, held)
    copied = _dataset(tmp_path / "copied", [train[i % 2] for i in range(6)], held)
    run_training(_cfg(wrapped, tmp_path / "out_wrapped", epochs=3))
    run_training(_cfg(copied, tmp_path / "out_copied", epochs=3))
    for seed in (0, 1):
        a = tmp_path / "out_wrapped" / "darc" / f"seed_{seed}"
        b = tmp_path / "out_copied" / "darc" / f"seed_{seed}"
        names = sorted(str(p.relative_to(a)) for p in a.rglob("*") if p.is_file())
        assert "checkpoint.txt" in names and any(n.startswith("traces") for n in names)
        assert names == sorted(str(p.relative_to(b)) for p in b.rglob("*") if p.is_file())
        for name in names:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_parsed_episode_is_shared_and_read_only(tmp_path):
    train, held = _pool(tmp_path)
    data = _dataset(tmp_path / "data", train, held)
    source = running_mod._EpisodeSource(_cfg(data, tmp_path / "out", epochs=1))
    first = source.training_episode(0, 0)
    assert source.training_episode(1, 2) is first  # shared across seeds and cycles
    with pytest.raises(ValueError, match="read-only"):
        first.saliency[0, 0, 0] = 0.5
    with pytest.raises(ValueError, match="read-only"):
        first.fixation_track[0, 0] = 0.5
