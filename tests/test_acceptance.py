"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete. Criterion 6 is a stochastic trend check that its own
definition flags advisory: when unmet it reports via xfail (investigation,
not rejection) instead of a hard failure.
"""

import dataclasses
import math
import time

import mpmath as mp
import numpy as np
import pytest

from crashrl.agents import (
    Agent,
    AgentConfig,
    Batch,
    ReplayBuffer,
    compute_targets,
    train_step,
)
from crashrl.env import (
    EnvConfig,
    accident_weight,
    blob_onset,
    generate_episode,
    load_episode_file,
    reward_accident,
    reward_fixation,
    write_episode_file,
)
from crashrl.harness import (
    ConstantScoreAgent,
    RunConfig,
    ScriptedOnsetAgent,
    collect_records,
    compare_table,
    load_run_summary,
    run_training,
)
from crashrl.metrics import compile_report
from crashrl.numkit import MlpSpec
from bandit import QuadraticBandit
from finite_difference import gradient_check
from record_rows import Row, frame_rows, padded_report, records_from_rows
from target_values import bootstrap, target_values

pytestmark = pytest.mark.acceptance

mp.mp.dps = 60


def report(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {criterion}: {status} ({detail})")


# --------------------------------------------------------------- criterion 1


def mp_accident_weight(t, t_a):
    m = max(0, t_a - t)
    return (mp.e**m - 1) / (mp.e**t_a - 1)


def test_c1_reward_exactness():
    """Rewards match arbitrary-precision evaluation to 1e-12; runtime < 1 s."""
    start = time.monotonic()
    rng = np.random.default_rng(2024)
    worst = 0.0
    cases = []
    for _ in range(1000):
        t_a = int(rng.integers(1, 151))
        t = int(rng.integers(0, t_a + 21))
        a = float(rng.random())
        a_0 = float(rng.uniform(0.05, 0.95))
        y = int(rng.random() < 0.5)
        eta = float(rng.uniform(0.01, 0.5))
        p_hat = (float(rng.random()), float(rng.random()))
        p = (float(rng.random()), float(rng.random()))
        cases.append((t, t_a, a, a_0, y, eta, p_hat, p))
    # boundary cases
    cases += [
        (0, 40, 0.9, 0.5, 1, 0.08, (0.5, 0.5), (0.5, 0.5)),
        (40, 40, 0.9, 0.5, 1, 0.08, (0.5, 0.5), (0.5, 0.5)),
        (3, 40, 0.9, 0.5, 0, 0.08, (0.2, 0.8), (0.9, 0.1)),
        (41, 40, 0.9, 0.5, 1, 0.08, (0.3, 0.7), (0.3, 0.7)),
    ]
    for t, t_a, a, a_0, y, eta, p_hat, p in cases:
        w_exact = mp_accident_weight(t, t_a)
        worst = max(worst, abs(accident_weight(t, t_a) - float(w_exact)))

        predicted = a > a_0
        if y == 1:
            r_a_exact = w_exact if predicted else mp.mpf(0)
        else:
            r_a_exact = mp.mpf(0) if predicted else mp.mpf(1)
        t_a_arg = t_a if y == 1 else None
        worst = max(
            worst, abs(reward_accident(a, a_0, y, t, t_a_arg) - float(r_a_exact))
        )

        d2 = (mp.mpf(p_hat[0]) - mp.mpf(p[0])) ** 2 + (mp.mpf(p_hat[1]) - mp.mpf(p[1])) ** 2
        r_f_exact = mp.e ** (-d2 / mp.mpf(eta)) if t > t_a else mp.mpf(0)
        worst = max(
            worst, abs(reward_fixation(p_hat, p, t, t_a, eta, "after_accident") - float(r_f_exact))
        )
    elapsed = time.monotonic() - start
    ok = worst < 1e-12 and elapsed < 1.0
    report("1 reward-exactness", ok, f"max|err|={worst:.2e}, {elapsed:.2f}s")
    assert worst < 1e-12
    assert elapsed < 1.0


# --------------------------------------------------------------- criterion 2


def auc_pair_oracle(pos, neg):
    wins = float((pos[:, None] > neg[None, :]).sum(dtype=np.int64))
    ties = float((pos[:, None] == neg[None, :]).sum(dtype=np.int64))
    return (wins + 0.5 * ties) / (float(pos.size) * float(neg.size))


def ap_count_oracle(scores, labels):
    contributions = []
    for s, l in zip(scores, labels):
        if l != 1:
            continue
        n_ge = int(np.sum(scores >= s))
        tp_ge = int(np.sum((scores >= s) & (labels == 1)))
        contributions.append(tp_ge / n_ge)
    return math.fsum(contributions) / int(labels.sum())


def records_from_scores(pos_scores, neg_scores):
    records = [
        Row(f"p{i}", 0, float(s), 1, 1, (0.5, 0.5), (0.5, 0.5), 10.0)
        for i, s in enumerate(pos_scores)
    ]
    records += [
        Row(f"n{i}", 0, float(s), 0, None, (0.5, 0.5), (0.5, 0.5), 10.0)
        for i, s in enumerate(neg_scores)
    ]
    return records_from_rows(records)


def test_c2_metric_exactness():
    """compile_report's AUC/AP equal brute-force oracles exactly on 500 sets;
    its recall/mTTA match a trace-scan oracle; runtime < 30 s."""
    start = time.monotonic()
    rng = np.random.default_rng(7)
    for trial in range(500):
        n = int(rng.integers(2, 201))
        scores = rng.random(n)
        if trial % 2 == 0:
            scores = np.round(scores, 1)  # force ties
        labels = (rng.random(n) < rng.uniform(0.2, 0.8)).astype(int)
        if labels.sum() == 0:
            labels[int(rng.integers(0, n))] = 1
        if labels.sum() == n:
            labels[int(rng.integers(0, n))] = 0
        pos, neg = scores[labels == 1], scores[labels == 0]
        # One-frame episodes have no frame after their accident.
        got = compile_report(records_from_scores(pos, neg), 0.5, window="before_accident")
        assert got.auc == auc_pair_oracle(pos, neg)
        assert got.ap == ap_count_oracle(scores, labels)

    # recall / mtta against a literal trace scan
    for trial in range(100):
        records = []
        tp = fn = 0
        ttas = []
        n_eps = int(rng.integers(2, 12))
        made_positive = False
        for e in range(n_eps):
            y = int(rng.random() < 0.6) if (e < n_eps - 1 or made_positive) else 1
            made_positive = made_positive or y == 1
            length = int(rng.integers(4, 30))
            t_a = int(rng.integers(1, length)) if y else None
            fps = float(rng.choice([10.0, 25.0]))
            trace_scores = np.round(rng.random(length), 2)
            records += [
                Row(f"e{e}", t, float(s), y, t_a, (0.5, 0.5), (0.5, 0.5), fps)
                for t, s in enumerate(trace_scores)
            ]
            if y == 1:
                first = next((t for t, s in enumerate(trace_scores) if s > 0.5), None)
                if first is not None and first < t_a:
                    tp += 1
                    ttas.append((t_a - first) / fps)
                else:
                    fn += 1
                    ttas.append(0.0)
        got = padded_report(records, 0.5)
        assert got.recall_at_a0 == tp / (tp + fn)
        assert got.mtta_seconds == math.fsum(ttas) / len(ttas)
    elapsed = time.monotonic() - start
    report("2 metric-exactness", elapsed < 30.0, f"500+100 sets exact, {elapsed:.1f}s")
    assert elapsed < 30.0


# --------------------------------------------------------------- criterion 3


def test_c3_gradient_correctness():
    """gradient_check < 1e-4 over 20 random specs, each with no head or the
    deterministic actor's tanh head on top; runtime < 10 s."""
    start = time.monotonic()
    rng = np.random.default_rng(99)
    worst = 0.0
    for trial in range(20):
        widths = tuple(int(w) for w in rng.choice([4, 8, 16], size=rng.integers(1, 3)))
        spec = MlpSpec(int(rng.integers(2, 6)), widths, int(rng.integers(1, 4)))
        head = str(rng.choice(["identity", "tanh"]))
        worst = max(worst, gradient_check(spec, head, seed=trial, probes=25))
    elapsed = time.monotonic() - start
    ok = worst < 1e-4 and elapsed < 10.0
    report("3 gradient-correctness", ok, f"max rel err={worst:.2e}, {elapsed:.1f}s")
    assert worst < 1e-4
    assert elapsed < 10.0


# --------------------------------------------------------------- criterion 4


def test_c4_darc_td3_reduction():
    """Bit-identical actors + nu=0: DARC targets == TD3 targets bitwise on
    100 random batches; max-of-min bracketing on every element; runtime < 10 s."""
    start = time.monotonic()
    obs_dim, batch_size = 6, 32
    td3 = Agent(AgentConfig(algo="td3", nu=0.0, hidden_dims=(16, 16)), obs_dim, seed=42)
    darc = Agent(AgentConfig(algo="darc", nu=0.0, hidden_dims=(16, 16)), obs_dim, seed=42)
    darc.actors.flat[1] = darc.actors.flat[0]
    darc.target_actors.flat[1] = darc.target_actors.flat[0]
    rng = np.random.default_rng(11)
    for _ in range(100):
        batch = Batch(
            rng.uniform(0, 1, (batch_size, obs_dim)),
            rng.uniform(0, 1, (batch_size, 3)),
            rng.uniform(0, 1, (batch_size, 1)),
            rng.uniform(0, 1, (batch_size, obs_dim)),
            (rng.random((batch_size, 1)) < 0.1).astype(float),
        )
        y_td3 = compute_targets(batch, td3)
        q_values, v_next = target_values(batch, darc)
        y_darc = compute_targets(batch, darc)
        assert np.array_equal(y_td3, y_darc), "targets diverged"
        assert np.array_equal(y_darc, bootstrap(batch, darc, v_next)), "not max-of-min"
        v = v_next.reshape(-1)
        q_min = q_values.min(axis=(1, 2))
        q_max = q_values.max(axis=(1, 2))
        assert np.all(q_min <= v) and np.all(v <= q_max), "bracketing violated"
    elapsed = time.monotonic() - start
    report("4 algorithm-reduction", elapsed < 10.0, f"100 batches bitwise, {elapsed:.1f}s")
    assert elapsed < 10.0


# --------------------------------------------------------------- criterion 5


def _bandit_converges(algo, seed, max_steps=5000, check_every=250):
    cfg = AgentConfig(
        algo=algo, hidden_dims=(32, 32), batch_size=64, warmup_steps=500,
        actor_lr=1e-3, critic_lr=1e-3,
    )
    agent = Agent(cfg, obs_dim=1, seed=seed)
    buf = ReplayBuffer(10_000, obs_dim=1, seed=seed + 1)
    env = QuadraticBandit(optimum=0.7)
    env.reset()
    probe = np.zeros(1)
    for step in range(1, max_steps + 1):
        if env.done:
            env.reset()
        train_step(agent, env, buf)
        if step > cfg.warmup_steps and step % check_every == 0:
            if abs(agent.action_array(probe, "eval")[0] - 0.7) < 0.05:
                return True
    return abs(agent.action_array(probe, "eval")[0] - 0.7) < 0.05


@pytest.mark.slow
def test_c5_bandit_convergence():
    """ddpg/td3/darc each reach |a - 0.7| < 0.05 within 5000 steps for >= 4
    of 5 seeds; runtime < 5 min."""
    start = time.monotonic()
    outcomes = {}
    for algo in ("ddpg", "td3", "darc"):
        wins = sum(_bandit_converges(algo, seed) for seed in range(5))
        outcomes[algo] = wins
    elapsed = time.monotonic() - start
    detail = ", ".join(f"{a}={w}/5" for a, w in outcomes.items()) + f", {elapsed:.0f}s"
    ok = all(w >= 4 for w in outcomes.values()) and elapsed < 300.0
    report("5 bandit-convergence", ok, detail)
    for algo, wins in outcomes.items():
        assert wins >= 4, f"{algo} converged only {wins}/5 seeds"
    assert elapsed < 300.0


# --------------------------------------------------------------- criterion 6


def _desk_scale_cfg(algo, out_dir):
    env = EnvConfig(
        grid_h=8, grid_w=8, pool_h=4, pool_w=4, stack=2,
        episode_len=20, t_a_frac_lo=0.6, t_a_frac_hi=0.75,
    )
    agent = AgentConfig(
        algo=algo, hidden_dims=(32, 32), batch_size=64, warmup_steps=400,
        actor_lr=1e-3, critic_lr=1e-3,
    )
    return RunConfig(
        algo=algo, seeds=(0, 1, 2, 3, 4), epochs=30, episodes_per_epoch=6,
        eval_episodes=20, env=env, agent=agent, out_dir=str(out_dir),
    )


@pytest.mark.slow
def test_c6_ordering_trend(tmp_path):
    """Advisory learning-curve ordering: DARC's median final eval reward >= TD3's and
    DDPG's, and DARC's median mTTA >= best baseline's median - 0.1 s, over
    5 seeds x 30 epochs at desk scale; runtime < 15 min. Failure reports as
    xfail (the criterion mandates investigation, not rejection)."""
    import statistics

    start = time.monotonic()
    finals, mttas = {}, {}
    for algo in ("ddpg", "td3", "darc"):
        artifacts = run_training(_desk_scale_cfg(algo, tmp_path / algo))
        finals[algo] = statistics.median(r.curve[-1][1] for r in artifacts.results)
        mttas[algo] = statistics.median(r.report.mtta_seconds for r in artifacts.results)
    elapsed = time.monotonic() - start
    reward_ok = finals["darc"] >= finals["td3"] and finals["darc"] >= finals["ddpg"]
    best_baseline = max(mttas["td3"], mttas["ddpg"])
    mtta_ok = mttas["darc"] >= best_baseline - 0.1
    detail = (
        f"median reward darc={finals['darc']:.3f} td3={finals['td3']:.3f} "
        f"ddpg={finals['ddpg']:.3f}; median mtta darc={mttas['darc']:.3f} "
        f"best-baseline={best_baseline:.3f}; {elapsed:.0f}s"
    )
    report("6 ordering-trend (advisory)", reward_ok and mtta_ok, detail)
    assert elapsed < 900.0
    if not (reward_ok and mtta_ok):
        pytest.xfail(
            "advisory trend not met at desk scale — investigate; " + detail
        )


# ----------------------------------------------------------- criteria 7 & 9


def _oracle_setup():
    cfg = RunConfig(
        algo="td3", seeds=(0,), epochs=1, episodes_per_epoch=1, eval_episodes=1,
        env=EnvConfig(accident_prob=1.0), agent=AgentConfig(algo="td3"),
        out_dir="unused",
    )
    episodes = [generate_episode(cfg.env, 5000 + j) for j in range(100)]
    assert all(ep.y == 1 for ep in episodes)
    return cfg, episodes


def _positives_report(records, cfg):
    """The report of a set of positives, padded with one negative one-frame
    episode for the AUC; the after_accident window never opens on it."""
    assert cfg.env.fixation_window == "after_accident"
    return padded_report(frame_rows(records), cfg.env.a_0, cfg.env.fixation_window)


def test_c7_oracle_agent_sanity():
    """Scripted onset agent: recall 1.0, fixation MSE 0, mTTA > 0 on 100
    positives; constant-zero agent: recall 0, mTTA 0; runtime < 30 s."""
    start = time.monotonic()
    cfg, episodes = _oracle_setup()
    records = collect_records(ScriptedOnsetAgent(), episodes, cfg)
    oracle = _positives_report(records, cfg)
    recall, mse, mean_tta = oracle.recall_at_a0, oracle.fixation_mse, oracle.mtta_seconds

    silent = _positives_report(collect_records(ConstantScoreAgent(0.0), episodes, cfg), cfg)
    recall0, mtta0 = silent.recall_at_a0, silent.mtta_seconds
    elapsed = time.monotonic() - start
    ok = (
        recall == 1.0 and mse == 0.0 and mean_tta > 0.0
        and recall0 == 0.0 and mtta0 == 0.0 and elapsed < 30.0
    )
    report(
        "7 oracle-agent-sanity", ok,
        f"recall={recall}, mse={mse}, mtta={mean_tta:.2f}s; "
        f"silent recall={recall0}, mtta={mtta0}; {elapsed:.1f}s",
    )
    assert recall == 1.0
    assert mse == 0.0
    assert mean_tta > 0.0
    assert recall0 == 0.0
    assert mtta0 == 0.0
    assert elapsed < 30.0


def test_c9_safety_margin_report(tmp_path):
    """Per-algorithm fraction of detected positives with TTA >= 2 s appears in
    the comparison output; the oracle agent scores fraction 1.0 when blob
    onset precedes t_a by >= 2 s of frames."""
    cfg, episodes = _oracle_setup()
    # every generated positive has onset exactly 2.0 s before t_a at 10 fps
    assert all((ep.t_a - blob_onset(ep.t_a)) / ep.fps >= 2.0 for ep in episodes)
    records = collect_records(ScriptedOnsetAgent(), episodes, cfg)
    fraction = _positives_report(records, cfg).safe_detect_fraction_2s

    # the comparison table carries the fraction row for every algorithm
    tiny_env = EnvConfig(
        grid_h=8, grid_w=8, pool_h=4, pool_w=4, stack=2, episode_len=24
    )
    tiny_agent = AgentConfig(
        algo="td3", hidden_dims=(8, 8), batch_size=8, warmup_steps=40,
        buffer_capacity=1000,
    )
    run_cfg = RunConfig(
        algo="td3", seeds=(0,), epochs=1, episodes_per_epoch=1, eval_episodes=4,
        env=tiny_env, agent=tiny_agent, out_dir=str(tmp_path),
    )
    summary = load_run_summary(run_training(run_cfg).out_dir)
    clone = dataclasses.replace(summary, algo="other")
    table = compare_table([summary, clone])
    has_row = "safe_detect_fraction_2s" in table.rows
    cells_present = all(
        ("safe_detect_fraction_2s", algo) in table.cells for algo in table.algos
    )
    ok = fraction == 1.0 and has_row and cells_present
    report(
        "9 safety-margin", ok,
        f"oracle fraction={fraction}, comparison row present={has_row}",
    )
    assert fraction == 1.0
    assert has_row and cells_present


# --------------------------------------------------------------- criterion 8


def test_c8_determinism_and_round_trips(tmp_path):
    """Same (config, seed) -> byte-identical metrics.json; episode and
    checkpoint round trips lossless; runtime < 2 min."""
    start = time.monotonic()
    env = EnvConfig(grid_h=8, grid_w=8, pool_h=4, pool_w=4, stack=2, episode_len=24)
    agent_cfg = AgentConfig(
        algo="darc", hidden_dims=(8, 8), batch_size=8, warmup_steps=60,
        buffer_capacity=1000,
    )

    def run(out):
        cfg = RunConfig(
            algo="darc", seeds=(0,), epochs=2, episodes_per_epoch=2,
            eval_episodes=4, env=env, agent=agent_cfg, out_dir=str(out),
        )
        return run_training(cfg)

    run(tmp_path / "r1")
    run(tmp_path / "r2")
    identical = True
    for name in ("metrics.json", "curve.csv", "roc.csv", "pr.csv", "checkpoint.txt"):
        a = (tmp_path / "r1" / "darc" / "seed_0" / name).read_bytes()
        b = (tmp_path / "r2" / "darc" / "seed_0" / name).read_bytes()
        identical = identical and a == b
        assert a == b, f"{name} differs between identical runs"

    # episode file round trip
    episode = generate_episode(EnvConfig(episode_len=30), seed=77)
    p1 = tmp_path / "ep.ade"
    write_episode_file(episode, p1)
    loaded = load_episode_file(p1)
    p2 = tmp_path / "ep2.ade"
    write_episode_file(loaded, p2)
    episode_ok = p1.read_bytes() == p2.read_bytes()
    assert episode_ok

    # checkpoint round trip
    agent = Agent(agent_cfg, EnvConfig().obs_dim, seed=4)
    c1 = tmp_path / "ck.txt"
    agent.save(c1)
    reloaded = Agent.load(c1, agent_cfg)
    c2 = tmp_path / "ck2.txt"
    reloaded.save(c2)
    checkpoint_ok = c1.read_bytes() == c2.read_bytes()
    assert checkpoint_ok

    elapsed = time.monotonic() - start
    ok = identical and episode_ok and checkpoint_ok and elapsed < 120.0
    report(
        "8 determinism-round-trips", ok,
        f"artifacts byte-identical, round trips lossless, {elapsed:.1f}s",
    )
    assert elapsed < 120.0
