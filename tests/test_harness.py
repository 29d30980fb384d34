"""Harness: config precedence, datasets, training runs, eval, comparison, CLI."""

import dataclasses
import json
import os

import numpy as np
import pytest

from crashrl.agents import Agent, AgentConfig, ReplayBuffer, train_step
from crashrl.cli import main as cli_main
from crashrl.env import AccidentEnv, EnvConfig, generate_episode
from crashrl.harness import (
    ConfigError,
    ConstantScoreAgent,
    RunConfig,
    ScriptedOnsetAgent,
    build_run_config,
    collect_records,
    compare_table,
    gen_dataset,
    load_run_summary,
    run_eval,
    run_training,
    write_comparison_csv,
)
from crashrl.harness.compare import TABLE_ROWS
from crashrl.harness.running import _mean_return
from crashrl.metrics import compile_report
from record_rows import frame_rows, padded_report


def tiny_cfg(out_dir, algo="td3", seeds=(0,), **kw):
    # t_a_frac_hi=0.75 keeps a nonempty post-accident window at this length
    env = EnvConfig(
        grid_h=8, grid_w=8, pool_h=4, pool_w=4, stack=2, episode_len=14,
        t_a_frac_hi=0.75,
    )
    agent = AgentConfig(
        algo=algo, hidden_dims=(8, 8), batch_size=8, warmup_steps=40,
        buffer_capacity=2000,
    )
    defaults = dict(
        algo=algo, seeds=seeds, epochs=2, episodes_per_epoch=2, eval_episodes=4,
        env=env, agent=agent, out_dir=str(out_dir),
    )
    defaults.update(kw)
    return RunConfig(**defaults)


class TestBuildRunConfig:
    def test_defaults(self):
        cfg = build_run_config()
        assert cfg.algo == "darc"
        assert cfg.epochs == 30
        assert cfg.episodes_per_epoch == 40
        assert cfg.eval_episodes == 100
        assert cfg.env.a_0 == 0.5
        assert cfg.agent.gamma == 0.99

    def test_flags_override_file(self):
        file_values = {"algo": "td3", "seeds": [1, 2], "agent": {"gamma": 0.9}}
        overrides = {"algo": "darc", "seeds": (7,)}
        cfg = build_run_config(file_values, overrides)
        assert cfg.algo == "darc"
        assert cfg.seeds == (7,)
        assert cfg.agent.gamma == 0.9  # file value survives where not overridden

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown configuration keys"):
            build_run_config({"algos": "td3"})

    def test_unknown_section_key_rejected(self):
        with pytest.raises(ConfigError, match="env"):
            build_run_config({"env": {"sigma": 0.3}})

    def test_invalid_gamma_names_key_and_range(self):
        with pytest.raises(ConfigError, match="gamma.*\\(0, 1\\)"):
            build_run_config({"agent": {"gamma": 1.5}})

    def test_agent_algo_conflict_rejected(self):
        with pytest.raises(ConfigError, match="algo"):
            build_run_config({"algo": "td3", "agent": {"algo": "sac"}})


class TestGenDataset:
    def test_count_and_manifest(self, tmp_path):
        cfg = tiny_cfg(tmp_path)
        manifest = gen_dataset(cfg, 10, tmp_path / "data")
        files = sorted(p.name for p in (tmp_path / "data").glob("*.ade"))
        assert len(files) == 10
        lines = open(manifest).read().splitlines()
        assert lines[0] == "id,file,y,t_a,frames"
        assert len(lines) == 11

    def test_regeneration_byte_identical(self, tmp_path):
        cfg = tiny_cfg(tmp_path)
        gen_dataset(cfg, 4, tmp_path / "a")
        gen_dataset(cfg, 4, tmp_path / "b")
        for name in os.listdir(tmp_path / "a"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_label_ratio_tracks_accident_probability(self, tmp_path):
        cfg = tiny_cfg(tmp_path)
        manifest = gen_dataset(cfg, 200, tmp_path / "data")
        rows = open(manifest).read().splitlines()[1:]
        ratio = sum(int(r.split(",")[2]) for r in rows) / len(rows)
        assert abs(ratio - cfg.env.accident_prob) <= 0.10


class TestRunTraining:
    def test_artifact_tree_and_curve_cadence(self, tmp_path):
        cfg = tiny_cfg(tmp_path, epochs=7)
        artifacts = run_training(cfg)
        assert (tmp_path / "config.json").exists()
        seed_dir = tmp_path / "td3" / "seed_0"
        for name in ("checkpoint.txt", "metrics.json", "roc.csv", "pr.csv", "curve.csv"):
            assert (seed_dir / name).exists(), name
        assert (tmp_path / "td3" / "run.json").exists()
        epochs = [e for e, _ in artifacts.results[0].curve]
        assert epochs == [5, 7]  # every 5 epochs plus the final epoch

    def test_thirty_epoch_cadence_counts_six_points(self, tmp_path):
        cfg = tiny_cfg(tmp_path, epochs=30, episodes_per_epoch=1)
        artifacts = run_training(cfg)
        epochs = [e for e, _ in artifacts.results[0].curve]
        assert epochs == [5, 10, 15, 20, 25, 30]

    def test_two_seeds_two_reports(self, tmp_path):
        cfg = tiny_cfg(tmp_path, seeds=(0, 1))
        artifacts = run_training(cfg)
        assert len(artifacts.results) == 2
        assert (tmp_path / "td3" / "seed_0").is_dir()
        assert (tmp_path / "td3" / "seed_1").is_dir()

    def test_identical_configs_give_byte_identical_metrics(self, tmp_path):
        run_training(tiny_cfg(tmp_path / "r1"))
        run_training(tiny_cfg(tmp_path / "r2"))
        for name in ("metrics.json", "curve.csv", "roc.csv", "checkpoint.txt"):
            a = (tmp_path / "r1" / "td3" / "seed_0" / name).read_bytes()
            b = (tmp_path / "r2" / "td3" / "seed_0" / name).read_bytes()
            assert a == b, name

    def test_training_from_episode_files(self, tmp_path):
        cfg = tiny_cfg(tmp_path / "out")
        gen_dataset(cfg, 12, tmp_path / "data")
        cfg2 = dataclasses.replace(cfg, data_dir=str(tmp_path / "data"))
        artifacts = run_training(cfg2)
        assert len(artifacts.results) == 1

    def test_too_few_episode_files_rejected(self, tmp_path):
        cfg = tiny_cfg(tmp_path / "out")
        gen_dataset(cfg, 3, tmp_path / "data")
        cfg2 = dataclasses.replace(cfg, data_dir=str(tmp_path / "data"))
        with pytest.raises(ConfigError, match="eval_episodes"):
            run_training(cfg2)


class TestRunEval:
    def test_fresh_agent_yields_wellformed_report(self, tmp_path):
        cfg = tiny_cfg(tmp_path)
        agent = Agent(cfg.agent, cfg.env.obs_dim, seed=0)
        path = tmp_path / "ck.txt"
        agent.save(path)
        episodes = [generate_episode(cfg.env, j) for j in range(4)]
        report, records = run_eval(path, episodes, cfg)
        assert 0.0 <= report.auc <= 1.0
        assert 0.0 <= report.recall_at_a0 <= 1.0
        assert len(records) == sum(ep.length - 1 for ep in episodes)

    def test_eval_twice_identical(self, tmp_path):
        cfg = tiny_cfg(tmp_path)
        artifacts = run_training(cfg)
        episodes = [generate_episode(cfg.env, j) for j in range(4)]
        ck = artifacts.results[0].checkpoint_path
        r1, _ = run_eval(ck, episodes, cfg)
        r2, _ = run_eval(ck, episodes, cfg)
        assert r1 == r2

    def test_dim_mismatch_names_expected_and_actual(self, tmp_path):
        cfg = tiny_cfg(tmp_path)
        agent = Agent(cfg.agent, obs_dim=10, seed=0)  # wrong width
        path = tmp_path / "ck.txt"
        agent.save(path)
        # Both classes: a one-class set is rejected before the checkpoint is read.
        episodes = [generate_episode(cfg.env, j) for j in range(4)]
        with pytest.raises(ValueError, match="10.*32|32.*10"):
            run_eval(path, episodes, cfg)

    def test_oracle_agent_hits_recall_one_and_zero_mse(self, tmp_path):
        cfg = tiny_cfg(tmp_path, eval_episodes=6)
        positives = []
        seed = 0
        while len(positives) < 6:
            ep = generate_episode(cfg.env, seed)
            if ep.y == 1:
                positives.append(ep)
            seed += 1
        records = collect_records(ScriptedOnsetAgent(), positives, cfg)
        report = padded_report(frame_rows(records), cfg.env.a_0, cfg.env.fixation_window)
        assert report.recall_at_a0 == 1.0
        assert report.fixation_mse == 0.0
        assert report.mtta_seconds > 0.0
        silent = collect_records(ConstantScoreAgent(0.0), positives, cfg)
        report0 = padded_report(frame_rows(silent), cfg.env.a_0, cfg.env.fixation_window)
        assert report0.recall_at_a0 == 0.0
        assert report0.mtta_seconds == 0.0


class TestTracesAndComparison:
    def test_trace_files_match_records(self, tmp_path):
        from crashrl.harness import export_traces

        cfg = tiny_cfg(tmp_path)
        episodes = [generate_episode(cfg.env, j) for j in range(3)]
        records = collect_records(ScriptedOnsetAgent(), episodes, cfg)
        paths = export_traces(records, tmp_path / "traces")
        assert len(paths) == 3
        for ep in episodes:
            path = tmp_path / "traces" / f"trace_{ep.episode_id}.csv"
            lines = path.read_text().splitlines()
            assert lines[0].startswith("# episode=")
            if ep.y == 1:
                assert f"t_a={ep.t_a}" in lines[0]
            assert lines[1] == "t,score,w_t,r_A,r_F,p_hat_x,p_hat_y,p_x,p_y"
            rows = lines[2:]
            assert len(rows) == ep.length - 1
            ep_records = [r for r in frame_rows(records) if r.episode_id == ep.episode_id]
            for row, rec in zip(rows, sorted(ep_records, key=lambda r: r.t)):
                assert float(row.split(",")[1]) == rec.score

    def test_every_trace_field_parses_as_a_float(self, tmp_path):
        from crashrl.harness import export_traces

        cfg = tiny_cfg(tmp_path)
        episodes = [generate_episode(cfg.env, j) for j in range(3)]
        records = collect_records(ScriptedOnsetAgent(), episodes, cfg)
        export_traces(records, tmp_path / "traces")
        for ep in episodes:
            path = tmp_path / "traces" / f"trace_{ep.episode_id}.csv"
            for t, line in enumerate(path.read_text().splitlines()[2:]):
                row = [float(field) for field in line.split(",")]
                assert len(row) == 9
                assert row[0] == t
                assert row[7:] == ep.fixation_track[t].tolist()

    def test_duplicate_artifacts_tie_on_every_row(self, tmp_path):
        cfg = tiny_cfg(tmp_path)
        s1 = load_run_summary(run_training(cfg).out_dir)
        s2 = dataclasses.replace(s1, algo="zz_clone")
        table = compare_table([s1, s2])
        assert table.algos == ("td3", "zz_clone")
        for row in table.rows:
            assert table.cells[(row, "td3")] == table.cells[(row, "zz_clone")]
            assert table.best[row] == ("td3", "zz_clone")

    def test_fixation_mse_best_is_minimum(self, tmp_path):
        cfg = tiny_cfg(tmp_path)
        s1 = load_run_summary(run_training(cfg).out_dir)
        worse = {
            seed: {**metrics, "fixation_mse": metrics["fixation_mse"] + 1.0}
            for seed, metrics in s1.metrics_by_seed.items()
        }
        s2 = dataclasses.replace(s1, algo="worse", metrics_by_seed=worse)
        table = compare_table([s1, s2])
        assert table.best[("fixationMSE")] == ("td3",)

    def test_table_rows_mirror_comparison_metrics(self, tmp_path):
        cfg = tiny_cfg(tmp_path)
        s1 = load_run_summary(run_training(cfg).out_dir)
        s2 = dataclasses.replace(s1, algo="other")
        table = compare_table([s1, s2])
        assert table.rows[:5] == ("mTTA", "AUC", "AP", "recall", "fixationMSE")
        assert "safe2s_fraction" in table.rows

    def test_mismatched_eval_sets_rejected(self, tmp_path):
        cfg = tiny_cfg(tmp_path)
        s1 = load_run_summary(run_training(cfg).out_dir)
        s2 = dataclasses.replace(s1, algo="other", eval_fingerprint="deadbeef")
        with pytest.raises(ValueError, match="fingerprints"):
            compare_table([s1, s2])

    def test_permutation_invariance(self, tmp_path):
        cfg = tiny_cfg(tmp_path)
        s1 = load_run_summary(run_training(cfg).out_dir)
        s2 = dataclasses.replace(s1, algo="aaa")
        assert compare_table([s1, s2]) == compare_table([s2, s1])

    def test_comparison_csv_round_trip(self, tmp_path):
        cfg = tiny_cfg(tmp_path)
        s1 = load_run_summary(run_training(cfg).out_dir)
        s2 = dataclasses.replace(s1, algo="other")
        table = compare_table([s1, s2])
        path = tmp_path / "comparison.csv"
        write_comparison_csv(table, path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("metric,other_median")
        assert len(lines) == 1 + len(table.rows)


@pytest.mark.parametrize("w_a,w_f", [(0.1, 1.0), (0.0, 1.0)])
class TestRewardWeights:
    """w_A * r_A + w_F * r_F is the reward the buffer stores and the curve sums."""

    def _cfg(self, tmp_path, w_a, w_f):
        cfg = tiny_cfg(tmp_path)
        agent = dataclasses.replace(
            cfg.agent, reward_weight_accident=w_a, reward_weight_fixation=w_f
        )
        return dataclasses.replace(cfg, agent=agent)

    def test_buffer_stores_the_weighted_reward(self, tmp_path, w_a, w_f):
        cfg = self._cfg(tmp_path, w_a, w_f)
        agent = Agent(cfg.agent, cfg.env.obs_dim, seed=0)
        buffer = ReplayBuffer(cfg.agent.buffer_capacity, seed=1)
        logs = []
        for seed in range(4):
            env = AccidentEnv([generate_episode(cfg.env, seed)], cfg.env)
            env.reset()
            while not env.done:
                logs.append(train_step(agent, env, buffer))
        assert any(log.r_A > 0.0 for log in logs) and any(log.r_F > 0.0 for log in logs)
        assert any(log.losses for log in logs)  # steps past the warmup as well
        expected = [np.float32(w_a * log.r_A + w_f * log.r_F) for log in logs]
        assert buffer._r[: len(logs)].tolist() == expected

    def test_curve_return_uses_the_weights(self, tmp_path, w_a, w_f):
        cfg = self._cfg(tmp_path, w_a, w_f)
        episodes = [generate_episode(cfg.env, j) for j in range(4)]
        records = collect_records(ConstantScoreAgent(0.1), episodes, cfg)
        rows = frame_rows(records)
        assert any(row.r_A > 0.0 for row in rows) and any(row.r_F > 0.0 for row in rows)
        totals = dict.fromkeys(records.episode_ids, 0.0)
        for row in rows:  # in step order
            totals[row.episode_id] += w_a * row.r_A + w_f * row.r_F
        assert _mean_return(records, cfg) == float(np.mean(list(totals.values())))


class TestCli:
    def _train_flags(self, out, algo="td3"):
        return [
            "train", "--algo", algo, "--seed", "0", "--epochs", "1",
            "--episodes-per-epoch", "1", "--eval-episodes", "4",
            "--episode-length", "24", "--grid", "8", "--pool", "4",
            "--stack", "2", "--hidden", "8,8", "--batch-size", "8",
            "--warmup", "40", "--out", str(out),
        ]

    def test_gen_data_train_eval_compare_pipeline(self, tmp_path, capsys):
        out = tmp_path / "runs"
        assert cli_main(self._train_flags(out, "td3")) == 0
        assert cli_main(self._train_flags(out, "ddpg")) == 0
        assert (out / "td3" / "run.json").exists()

        code = cli_main(
            [
                "eval", "--checkpoint", str(out / "td3" / "seed_0" / "checkpoint.txt"),
                "--seed", "0", "--eval-episodes", "4", "--episode-length", "24",
                "--grid", "8", "--pool", "4", "--stack", "2", "--hidden", "8,8",
                "--algo", "td3", "--out", str(tmp_path / "eval_out"),
            ]
        )
        assert code == 0
        assert (tmp_path / "eval_out" / "metrics.json").exists()

        # file-backed eval over a generated dataset
        code = cli_main(
            [
                "gen-data", "--count", "5", "--episode-length", "24",
                "--grid", "8", "--pool", "4", "--out", str(tmp_path / "data"),
            ]
        )
        assert code == 0
        code = cli_main(
            [
                "eval", "--checkpoint", str(out / "td3" / "seed_0" / "checkpoint.txt"),
                "--data", str(tmp_path / "data"), "--grid", "8", "--pool", "4",
                "--stack", "2", "--hidden", "8,8", "--algo", "td3",
                "--out", str(tmp_path / "eval_files"),
            ]
        )
        assert code == 0
        traces = list((tmp_path / "eval_files" / "traces").glob("trace_*.csv"))
        assert len(traces) == 5

        code = cli_main(
            [
                "compare", "--runs", str(out / "td3"), str(out / "ddpg"),
                "--out", str(tmp_path / "cmp"),
            ]
        )
        assert code == 0
        text = (tmp_path / "cmp" / "comparison.csv").read_text()
        assert text.startswith("metric,")
        assert "mTTA" in text and "safe2s_fraction" in text

    def test_gen_data_cli(self, tmp_path):
        code = cli_main(
            [
                "gen-data", "--count", "3", "--episode-length", "24",
                "--grid", "8", "--pool", "4", "--out", str(tmp_path / "data"),
            ]
        )
        assert code == 0
        assert len(list((tmp_path / "data").glob("*.ade"))) == 3
        assert (tmp_path / "data" / "manifest.csv").exists()

    def test_bad_gamma_exits_one_naming_key(self, tmp_path, capsys):
        code = cli_main(self._train_flags(tmp_path) + ["--gamma", "1.5"])
        assert code == 1
        err = capsys.readouterr().err
        assert "gamma" in err and "(0, 1)" in err

    def test_unknown_flag_exits_one(self, tmp_path, capsys):
        code = cli_main(["train", "--fromage", "brie"])
        assert code == 1

    def test_main_sets_glibc_heap_thresholds_when_available(self, monkeypatch, capsys):
        import ctypes

        calls = []

        class FakeLibc:
            def mallopt(self, param, value):
                calls.append((param, value))

        monkeypatch.setattr(ctypes, "CDLL", lambda name: FakeLibc())
        assert cli_main(["train", "--fromage", "brie"]) == 1
        assert calls == [(-3, 4 << 20), (-1, 8 << 20)]

        def no_libc(name):
            raise OSError(f"{name}: cannot open shared object file")

        monkeypatch.setattr(ctypes, "CDLL", no_libc)
        assert cli_main(["train", "--fromage", "brie"]) == 1

    def test_config_file_plus_flag_precedence(self, tmp_path):
        config = {
            "algo": "ddpg",
            "seeds": [0],
            "epochs": 1,
            "episodes_per_epoch": 1,
            "eval_episodes": 4,
            "out_dir": str(tmp_path / "runs"),
            "env": {"grid_h": 8, "grid_w": 8, "pool_h": 4, "pool_w": 4,
                    "stack": 2, "episode_len": 24},
            "agent": {"hidden_dims": [8, 8], "batch_size": 8, "warmup_steps": 40},
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        code = cli_main(["train", "--config", str(cfg_path), "--algo", "td3"])
        assert code == 0
        # flag overrode the file's algo
        assert (tmp_path / "runs" / "td3" / "run.json").exists()
        snapshot = json.loads((tmp_path / "runs" / "config.json").read_text())
        assert snapshot["algo"] == "td3"
        assert snapshot["env"]["episode_len"] == 24

    def test_one_class_held_out_set_exits_one_before_training(self, tmp_path, capsys):
        # Run seed 0 with two held-out episodes draws two negatives.
        out = tmp_path / "runs"
        code = cli_main(self._train_flags(out) + ["--eval-episodes", "2"])
        assert code == 1
        err = capsys.readouterr().err
        assert "seed 0" in err and "no positive episode" in err
        assert not (out / "td3" / "seed_0").exists()

    def _eval_flags(self, tmp_path, checkpoint):
        return [
            "eval", "--algo", "td3", "--seed", "0", "--episode-length", "24",
            "--grid", "8", "--pool", "4", "--stack", "2", "--hidden", "8,8",
            "--checkpoint", str(checkpoint), "--out", str(tmp_path / "eval_out"),
        ]

    def test_eval_one_class_set_exits_one_before_reading_the_checkpoint(
        self, tmp_path, capsys, monkeypatch
    ):
        path = tmp_path / "ck.txt"
        Agent(AgentConfig(algo="td3", hidden_dims=(8, 8)), obs_dim=32, seed=0).save(path)

        def no_load(*args, **kwargs):
            raise AssertionError("the checkpoint must not be read")

        monkeypatch.setattr(Agent, "load", no_load)
        # Run seed 0's first eval episode is a negative.
        code = cli_main(self._eval_flags(tmp_path, path) + ["--eval-episodes", "1"])
        assert code == 1
        err = capsys.readouterr().err
        assert "eval: the episode set of 1 episodes" in err
        assert "no positive episode" in err
        assert not (tmp_path / "eval_out").exists()

    def test_eval_missing_checkpoint_exits_one_before_reading_episodes(
        self, tmp_path, capsys, monkeypatch
    ):
        import crashrl.cli as cli_mod

        def no_episodes(*args, **kwargs):
            raise AssertionError("episodes must not be read or generated")

        monkeypatch.setattr(cli_mod, "generate_episode", no_episodes)
        monkeypatch.setattr(cli_mod, "load_episode_file", no_episodes)
        missing = tmp_path / "missing.txt"
        for extra in ([], ["--data", str(tmp_path / "no_such_dir")]):
            code = cli_main(self._eval_flags(tmp_path, missing) + extra)
            assert code == 1
            assert f"checkpoint: no such file {missing}" in capsys.readouterr().err

    def test_eval_checkpoint_that_is_a_directory_exits_one(self, tmp_path, capsys):
        directory = tmp_path / "ck"
        directory.mkdir()
        assert cli_main(self._eval_flags(tmp_path, directory)) == 1
        assert f"checkpoint: no such file {directory}" in capsys.readouterr().err
        assert not (tmp_path / "eval_out").exists()

    def test_train_data_skips_a_directory_named_like_an_episode_file(self, tmp_path):
        data = tmp_path / "data"
        gen = ["gen-data", "--count", "5", "--seed", "100", "--episode-length", "24",
               "--grid", "8", "--pool", "4", "--stack", "2", "--out", str(data)]
        assert cli_main(gen) == 0
        (data / "x.ade").mkdir()
        out = tmp_path / "runs"
        assert cli_main(self._train_flags(out) + ["--data", str(data)]) == 0
        traces = sorted(p.name for p in (out / "td3" / "seed_0" / "traces").iterdir())
        assert traces == [f"trace_episode_{s:05d}.csv" for s in range(101, 105)]

    @pytest.mark.parametrize(
        "env,rule",
        [
            ({"accident_prob": 0.0},
             "has no positive episode; AUC and recall need both classes"),
            ({"accident_prob": 1.0},
             "has no negative episode; AUC and recall need both classes"),
            # 5 frames: t_a is 3 or 4 and frames 0-3 are recorded.
            ({"episode_len": 5}, "has no recorded frame inside the after_accident "
                                 "fixation window; fixation MSE needs one"),
        ],
        ids=["no-positive", "no-negative", "no-frame-in-window"],
    )
    def test_compile_report_train_and_eval_state_one_rule(self, tmp_path, capsys, env, rule):
        config = {"env": {"grid_h": 8, "grid_w": 8, "pool_h": 4, "pool_w": 4, "stack": 2,
                          "episode_len": 24, **env}}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        cfg = build_run_config(config)
        # Run seed 0's held-out set, which train and eval below both use.
        episodes = [generate_episode(cfg.env, j) for j in range(4)]
        records = collect_records(ConstantScoreAgent(0.0), episodes, cfg)
        with pytest.raises(ValueError) as caught:
            compile_report(records, cfg.env.a_0, cfg.env.fixation_window)
        assert str(caught.value) == f"the record set of 4 episodes {rule}"

        common = ["--config", str(cfg_path), "--algo", "td3", "--seed", "0",
                  "--eval-episodes", "4", "--hidden", "8,8"]
        out = tmp_path / "runs"
        train = ["train", *common, "--epochs", "1", "--episodes-per-epoch", "1",
                 "--batch-size", "8", "--warmup", "40", "--out", str(out)]
        assert cli_main(train) == 1
        assert capsys.readouterr().err == (
            f"error: seed 0: the held-out set of 4 episodes {rule}\n"
        )
        # Only the config snapshot, written before the first seed's check.
        assert [p.name for p in out.rglob("*") if p.is_file()] == ["config.json"]

        checkpoint = tmp_path / "ck.txt"
        Agent(AgentConfig(algo="td3", hidden_dims=(8, 8)), obs_dim=32, seed=0).save(checkpoint)
        eval_out = tmp_path / "eval_out"
        evaluate = ["eval", *common, "--checkpoint", str(checkpoint), "--out", str(eval_out)]
        assert cli_main(evaluate) == 1
        assert capsys.readouterr().err == f"error: eval: the episode set of 4 episodes {rule}\n"
        assert not eval_out.exists()

    def test_missing_data_directory_exits_one_for_train_and_eval(self, tmp_path, capsys):
        checkpoint = tmp_path / "ck.txt"
        Agent(AgentConfig(algo="td3", hidden_dims=(8, 8)), obs_dim=32, seed=0).save(checkpoint)
        missing = tmp_path / "no_such_dir"
        for argv in (
            self._train_flags(tmp_path / "runs"),
            self._eval_flags(tmp_path, checkpoint),
        ):
            code = cli_main(argv + ["--data", str(missing)])
            assert code == 1
            assert f"data: no such directory {missing}" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists() and not (tmp_path / "eval_out").exists()

    def test_eval_reads_the_config_files_data_dir_and_data_beats_it(self, tmp_path):
        checkpoint = tmp_path / "ck.txt"
        Agent(AgentConfig(algo="td3", hidden_dims=(8, 8)), obs_dim=32, seed=0).save(checkpoint)
        gen = ["gen-data", "--episode-length", "24", "--grid", "8", "--pool", "4", "--stack", "2"]
        for name, count, seed in (("file_data", 5, 100), ("flag_data", 6, 200)):
            argv = gen + ["--count", str(count), "--seed", str(seed)]
            assert cli_main(argv + ["--out", str(tmp_path / name)]) == 0
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"data_dir": str(tmp_path / "file_data")}))
        eval_flags = self._eval_flags(tmp_path, checkpoint) + ["--config", str(cfg_path)]

        def evaluated(out, extra=()):
            assert cli_main(eval_flags + ["--out", str(out), *extra]) == 0
            snapshot = json.loads((out / "config.json").read_text())
            return snapshot["data_dir"], sorted(p.name for p in (out / "traces").iterdir())

        data_dir, traces = evaluated(tmp_path / "from_file")
        assert data_dir == str(tmp_path / "file_data")
        assert traces == [f"trace_episode_{s:05d}.csv" for s in range(100, 105)]
        flag = ["--data", str(tmp_path / "flag_data")]
        data_dir, traces = evaluated(tmp_path / "from_flag", flag)
        assert data_dir == str(tmp_path / "flag_data")
        assert traces == [f"trace_episode_{s:05d}.csv" for s in range(200, 206)]

    def test_no_frame_in_the_fixation_window_exits_one_before_training(
        self, tmp_path, capsys
    ):
        # 5 frames: t_a is 3 or 4 and frames 0-3 are recorded, so no recorded
        # frame comes after the accident.
        out = tmp_path / "runs"
        code = cli_main(self._train_flags(out) + ["--episode-length", "5"])
        assert code == 1
        err = capsys.readouterr().err
        assert "seed 0: the held-out set of 4 episodes" in err
        assert "no recorded frame inside the after_accident fixation window" in err
        assert not (out / "td3" / "seed_0").exists()

    def test_five_frames_train_and_eval_with_the_pre_accident_window(self, tmp_path):
        out = tmp_path / "runs"
        short = ["--episode-length", "5", "--fixation-window", "before_accident"]
        assert cli_main(self._train_flags(out) + short) == 0
        checkpoint = out / "td3" / "seed_0" / "checkpoint.txt"
        assert cli_main(self._eval_flags(tmp_path, checkpoint) + short) == 0
        assert (tmp_path / "eval_out" / "metrics.json").exists()

    def test_eval_no_frame_in_the_fixation_window_exits_one_before_reading_the_checkpoint(
        self, tmp_path, capsys, monkeypatch
    ):
        path = tmp_path / "ck.txt"
        Agent(AgentConfig(algo="td3", hidden_dims=(8, 8)), obs_dim=32, seed=0).save(path)

        def no_load(*args, **kwargs):
            raise AssertionError("the checkpoint must not be read")

        monkeypatch.setattr(Agent, "load", no_load)
        code = cli_main(self._eval_flags(tmp_path, path) + ["--episode-length", "5"])
        assert code == 1
        err = capsys.readouterr().err
        assert "eval: the episode set of " in err
        assert "no recorded frame inside the after_accident fixation window" in err
        assert not (tmp_path / "eval_out").exists()

    @staticmethod
    def _write_run_json(path, algo, drop=None, drop_metric=None, fingerprint="f" * 16):
        metrics = {key: 0.5 for _, key, _ in TABLE_ROWS}
        metrics.pop(drop_metric, None)
        data = {"algo": algo, "eval_fingerprint": fingerprint,
                "per_seed": {"0": {"metrics": dict(metrics, mtta_seconds=1.0)},
                             "1": {"metrics": metrics}}}
        data.pop(drop, None)
        path.write_text(json.dumps(data))

    @pytest.mark.parametrize(
        "bad,message",
        [
            ({"drop": "eval_fingerprint"}, "runs: {path}: no 'eval_fingerprint' key"),
            ({"drop_metric": "mtta_seconds"}, "runs: {path}: seed 1: no 'mtta_seconds' key"),
            (None, "runs: {path} is not valid JSON: Expecting value: line 1 column 1"),
            ("alone", "comparison requires at least two algorithms"),
            ({"algo": "ddpg"}, "duplicate algorithm names in comparison: ['ddpg', 'ddpg']"),
            (
                {"fingerprint": "e" * 16},
                "runs evaluate different episode sets; fingerprints: "
                f"ddpg={'f' * 16}, td3={'e' * 16}",
            ),
        ],
        ids=[
            "no-fingerprint", "no-seed-metric", "not-json", "one-run",
            "duplicate-algo", "other-fingerprint",
        ],
    )
    def test_compare_names_the_file_and_key_of_a_bad_run(self, tmp_path, capsys, bad, message):
        good, path = tmp_path / "good.json", tmp_path / "bad.json"
        self._write_run_json(good, "ddpg")
        runs = [str(good), str(path)]
        if bad is None:
            path.write_text("metric,td3\n")
        elif bad == "alone":
            runs = [str(good)]
        else:
            self._write_run_json(path, **{"algo": "td3", **bad})
        code = cli_main(["compare", "--runs", *runs, "--out", str(tmp_path / "c")])
        assert code == 1
        assert message.format(path=path) in capsys.readouterr().err
        assert not (tmp_path / "c").exists()

    def test_unknown_config_file_key_exits_one(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"episodes": 3}))
        code = cli_main(["train", "--config", str(cfg_path)])
        assert code == 1
        assert "unknown" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "bad,message",
        [
            ({"epochs": 1.5}, "run: epochs must be an int, got 1.5"),
            ({"env": {"grid_h": 8.0}}, "env: grid_h must be an int, got 8.0"),
            ({"seeds": [0.9]}, "run: seeds must be a list of ints, got [0.9]"),
            (
                {"agent": {"hidden_dims": [8.7]}},
                "agent: hidden_dims must be a list of ints, got [8.7]",
            ),
            ({"agent": {"batch_size": True}}, "agent: batch_size must be an int, got True"),
            ({"agent": {"gamma": True}}, "agent: gamma must be a number, got True"),
        ],
        ids=["float-epochs", "float-grid", "float-seed", "float-width", "bool-int", "bool-float"],
    )
    def test_config_value_of_the_wrong_type_exits_one_before_writing(
        self, tmp_path, capsys, bad, message
    ):
        out = tmp_path / "runs"
        config = {
            "algo": "td3", "epochs": 1, "episodes_per_epoch": 1, "eval_episodes": 4,
            "out_dir": str(out),
            "env": {"grid_h": 8, "grid_w": 8, "pool_h": 4, "pool_w": 4, "stack": 2,
                    "episode_len": 24},
            "agent": {"hidden_dims": [8, 8], "batch_size": 8, "warmup_steps": 40},
        }
        for key, value in bad.items():
            config[key] = {**config[key], **value} if isinstance(value, dict) else value
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        assert cli_main(["train", "--config", str(cfg_path)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--hidden", "8,0"], "hidden_dims must be >= 1, got [8, 0]"),
            (["--seeds", "3,3"], "seeds: must be distinct, got [3, 3]"),
        ],
        ids=["zero-width", "repeated-seed"],
    )
    def test_bad_width_or_repeated_seed_exits_one_before_writing(
        self, tmp_path, capsys, flags, message
    ):
        out = tmp_path / "runs"
        assert cli_main(self._train_flags(out) + flags) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()


_FLAG_SAMPLES = {
    # flag: (token, the value it gives each of its RunConfig fields)
    "--out": ("o", "o"),
    "--data": ("d", "d"),
    "--algo": ("td3", "td3"),
    "--seed": ("5", (5,)),
    "--seeds": ("1,2", (1, 2)),
    "--epochs": ("3", 3),
    "--episodes-per-epoch": ("7", 7),
    "--eval-episodes": ("9", 9),
    "--episode-length": ("50", 50),
    "--grid": ("32", 32),
    "--pool": ("4", 4),
    "--stack": ("3", 3),
    "--a0": ("0.25", 0.25),
    "--eta": ("0.5", 0.5),
    "--rho": ("0.75", 0.75),
    "--sigma-f": ("0.3", 0.3),
    "--fixation-window": ("before_accident", "before_accident"),
    "--nu": ("0.01", 0.01),
    "--gamma": ("0.9", 0.9),
    "--tau": ("0.02", 0.02),
    "--batch-size": ("32", 32),
    "--warmup": ("10", 10),
    "--hidden": ("32,16", (32, 16)),
    "--lr": ("0.001", 0.001),
}


class TestFlagTable:
    """cli._FLAGS is the one list of run flags: each row reaches its fields."""

    @staticmethod
    def _resolve(command, flags):
        import crashrl.cli as cli_mod

        extra = {"gen-data": ["--count", "1"], "eval": ["--checkpoint", "ck"]}
        args = cli_mod.build_parser().parse_args([command, *flags, *extra.get(command, [])])
        return cli_mod._resolve_config(args)

    @pytest.mark.parametrize("command", ["train", "eval", "gen-data"])
    def test_every_row_reaches_its_fields(self, tmp_path, command):
        from crashrl.cli import _FLAGS

        defaults = self._resolve(command, [])
        assert set(_FLAG_SAMPLES) == {flag for flag, _, fields, _ in _FLAGS if fields}
        for flag, _, fields, _ in _FLAGS:
            if not fields:
                continue
            token, value = _FLAG_SAMPLES[flag]
            cfg = self._resolve(command, [flag, token])
            for name in fields:
                section, _, key = name.rpartition(".")
                assert getattr(getattr(cfg, section) if section else cfg, key) == value
                assert getattr(getattr(defaults, section) if section else defaults, key) != value
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"epochs": 4}))
        assert self._resolve(command, ["--config", str(cfg_path)]).epochs == 4
        # --seeds beats --seed in either order
        assert self._resolve(command, ["--seed", "5", "--seeds", "1,2"]).seeds == (1, 2)
        assert self._resolve(command, ["--seeds", "1,2", "--seed", "5"]).seeds == (1, 2)

    @pytest.mark.parametrize("command", ["train", "eval", "gen-data"])
    def test_choices_come_from_the_config_modules(self, command):
        from crashrl.agents import ALGOS
        from crashrl.cli import _FLAGS, build_parser
        from crashrl.env.config import FIXATION_WINDOWS

        kinds = {flag: kind for flag, kind, _, _ in _FLAGS}
        assert kinds["--algo"] is ALGOS
        assert kinds["--fixation-window"] is FIXATION_WINDOWS
        sub = build_parser()._subparsers._group_actions[0].choices[command]
        actions = sub._option_string_actions
        assert tuple(actions["--algo"].choices) == ALGOS
        assert tuple(actions["--fixation-window"].choices) == FIXATION_WINDOWS

    @pytest.mark.parametrize("flag", ["--seeds", "--hidden"])
    def test_bad_list_token_exits_one(self, tmp_path, capsys, flag):
        from crashrl.cli import _FLAGS, _int_list

        assert {f for f, kind, _, _ in _FLAGS if kind is _int_list} == {"--seeds", "--hidden"}
        out = tmp_path / "runs"
        assert cli_main(["train", flag, "8,x", "--out", str(out)]) == 1
        assert f"argument {flag}: invalid literal for int()" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("algo", ["ddpg", "td3", "sac", "darc"])
def test_full_pipeline_smoke_per_algorithm(tmp_path, algo):
    """Every algorithm trains, checkpoints, and re-evaluates through the harness."""
    cfg = tiny_cfg(tmp_path, algo=algo)
    artifacts = run_training(cfg)
    result = artifacts.results[0]
    assert 0.0 <= result.report.auc <= 1.0
    episodes = [generate_episode(cfg.env, j) for j in range(4)]
    report, records = run_eval(result.checkpoint_path, episodes, cfg)
    assert len(records) == sum(ep.length - 1 for ep in episodes)
    assert 0.0 <= report.recall_at_a0 <= 1.0
