"""Harness: config precedence, datasets, training runs, eval, comparison, CLI."""

import dataclasses
import json
import os

import pytest

from crashrl.agents import AgentConfig
from crashrl.cli import main as cli_main
from crashrl.env import EnvConfig, generate_episode
from crashrl.harness import (
    ConfigError,
    ConstantScoreAgent,
    RunConfig,
    ScriptedOnsetAgent,
    build_run_config,
    collect_records,
    compare_table,
    gen_dataset,
    run_eval,
    run_training,
    summarize,
    write_comparison_csv,
)
from crashrl.metrics import fixation_mse, mtta, recall_at_threshold


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
        from crashrl.agents import Agent

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
        from crashrl.agents import Agent

        cfg = tiny_cfg(tmp_path)
        agent = Agent(cfg.agent, obs_dim=10, seed=0)  # wrong width
        path = tmp_path / "ck.txt"
        agent.save(path)
        episodes = [generate_episode(cfg.env, j) for j in range(2)]
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
        recall, _ = recall_at_threshold(records, cfg.env.a_0)
        assert recall == 1.0
        assert fixation_mse(records, cfg.env.fixation_window) == 0.0
        assert mtta(records, cfg.env.a_0) > 0.0
        silent = collect_records(ConstantScoreAgent(0.0), positives, cfg)
        recall0, _ = recall_at_threshold(silent, cfg.env.a_0)
        assert recall0 == 0.0
        assert mtta(silent, cfg.env.a_0) == 0.0


class TestTracesAndComparison:
    def test_trace_files_match_records(self, tmp_path):
        from crashrl.harness import export_traces

        cfg = tiny_cfg(tmp_path)
        episodes = [generate_episode(cfg.env, j) for j in range(3)]
        records = collect_records(ScriptedOnsetAgent(), episodes, cfg)
        paths = export_traces(records, tmp_path / "traces", cfg.env)
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
            ep_records = [r for r in records if r.episode_id == ep.episode_id]
            for row, rec in zip(rows, sorted(ep_records, key=lambda r: r.t)):
                assert float(row.split(",")[1]) == rec.score

    def test_duplicate_artifacts_tie_on_every_row(self, tmp_path):
        cfg = tiny_cfg(tmp_path)
        artifacts = run_training(cfg)
        s1 = summarize(artifacts)
        s2 = dataclasses.replace(s1, algo="zz_clone")
        table = compare_table([s1, s2])
        assert table.algos == ("td3", "zz_clone")
        for row in table.rows:
            assert table.cells[(row, "td3")] == table.cells[(row, "zz_clone")]
            assert table.best[row] == ("td3", "zz_clone")

    def test_fixation_mse_best_is_minimum(self, tmp_path):
        cfg = tiny_cfg(tmp_path)
        s1 = summarize(run_training(cfg))
        worse = {
            seed: {**metrics, "fixation_mse": metrics["fixation_mse"] + 1.0}
            for seed, metrics in s1.metrics_by_seed.items()
        }
        s2 = dataclasses.replace(s1, algo="worse", metrics_by_seed=worse)
        table = compare_table([s1, s2])
        assert table.best[("fixationMSE")] == ("td3",)

    def test_table_rows_mirror_comparison_metrics(self, tmp_path):
        cfg = tiny_cfg(tmp_path)
        s1 = summarize(run_training(cfg))
        s2 = dataclasses.replace(s1, algo="other")
        table = compare_table([s1, s2])
        assert table.rows[:5] == ("mTTA", "AUC", "AP", "recall", "fixationMSE")
        assert "safe2s_fraction" in table.rows

    def test_mismatched_eval_sets_rejected(self, tmp_path):
        cfg = tiny_cfg(tmp_path)
        s1 = summarize(run_training(cfg))
        s2 = dataclasses.replace(s1, algo="other", eval_fingerprint="deadbeef")
        with pytest.raises(ValueError, match="fingerprints"):
            compare_table([s1, s2])

    def test_permutation_invariance(self, tmp_path):
        cfg = tiny_cfg(tmp_path)
        s1 = summarize(run_training(cfg))
        s2 = dataclasses.replace(s1, algo="aaa")
        assert compare_table([s1, s2]) == compare_table([s2, s1])

    def test_comparison_csv_round_trip(self, tmp_path):
        cfg = tiny_cfg(tmp_path)
        s1 = summarize(run_training(cfg))
        s2 = dataclasses.replace(s1, algo="other")
        table = compare_table([s1, s2])
        path = tmp_path / "comparison.csv"
        write_comparison_csv(table, path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("metric,other_median")
        assert len(lines) == 1 + len(table.rows)


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

    def test_unknown_config_file_key_exits_one(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"episodes": 3}))
        code = cli_main(["train", "--config", str(cfg_path)])
        assert code == 1
        assert "unknown" in capsys.readouterr().err


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
