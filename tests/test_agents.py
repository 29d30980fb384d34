"""Agents: replay, action selection, targets, updates, training loop."""

import math

import numpy as np
import pytest

from crashrl.agents import (
    Agent,
    AgentConfig,
    Batch,
    ReplayBuffer,
    Transition,
    actor_update,
    critic_update,
    darc_target,
    ddpg_target,
    sac_target,
    tanh_gaussian_logprob,
    td3_target,
    train_step,
    update,
)
from crashrl.env import DualAction, QuadraticBandit
from crashrl.numkit import mlp_apply


def small_cfg(algo, **kw):
    defaults = dict(
        algo=algo,
        hidden_dims=(16, 16),
        batch_size=8,
        warmup_steps=4,
        buffer_capacity=500,
    )
    defaults.update(kw)
    return AgentConfig(**defaults)


def random_batch(rng, n, obs_dim, done_rate=0.1):
    return Batch(
        rng.uniform(0, 1, (n, obs_dim)),
        rng.uniform(0, 1, (n, 3)),
        rng.uniform(0, 1, (n, 1)),
        rng.uniform(0, 1, (n, obs_dim)),
        (rng.random((n, 1)) < done_rate).astype(float),
    )


class TestReplayBuffer:
    def _tr(self, i, done=False):
        return Transition(np.full(4, float(i)), np.full(3, 0.5), float(i), np.zeros(4), done)

    def test_fifo_eviction(self):
        buf = ReplayBuffer(capacity=2, seed=0)
        for i in range(3):
            buf.push(self._tr(i))
        assert len(buf) == 2
        batch = buf.sample(2)
        assert 0.0 not in batch.s[:, 0]

    def test_sample_size(self):
        buf = ReplayBuffer(capacity=10, seed=0)
        for i in range(5):
            buf.push(self._tr(i))
        assert len(buf.sample(3)) == 3

    def test_seeded_sampling_reproducible(self):
        def run():
            buf = ReplayBuffer(capacity=10, seed=42)
            for i in range(6):
                buf.push(self._tr(i))
            return [buf.sample(4).s[:, 0].tolist() for _ in range(3)]

        assert run() == run()

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            ReplayBuffer(capacity=4, seed=0).sample(1)

    def test_oversample_rejected(self):
        buf = ReplayBuffer(capacity=4, seed=0)
        buf.push(self._tr(0))
        with pytest.raises(ValueError):
            buf.sample(2)


class TestActionSelection:
    def test_eval_deterministic(self):
        for algo in ("ddpg", "td3", "sac", "darc"):
            agent = Agent(small_cfg(algo), obs_dim=6, seed=3)
            s = np.random.default_rng(0).uniform(0, 1, 6)
            a1 = agent.select_action(s, mode="eval")
            a2 = agent.select_action(s, mode="eval")
            assert a1 == a2

    def test_bounds_under_arbitrary_parameters(self):
        for algo in ("td3", "sac", "darc"):
            agent = Agent(small_cfg(algo), obs_dim=4, seed=1)
            for params in agent.actors:
                for _, tensor in params:
                    tensor.array[:] = 1e8  # saturate everything
            for mode in ("train", "eval"):
                action = agent.select_action(np.ones(4), mode=mode)
                assert 0.0 <= action.a <= 1.0
                assert 0.0 <= action.p_hat[0] <= 1.0 and 0.0 <= action.p_hat[1] <= 1.0

    def test_darc_identical_actors_match_single_actor_output(self):
        agent = Agent(small_cfg("darc"), obs_dim=5, seed=7)
        agent.actors[1] = agent.actors[0].copy()
        s = np.random.default_rng(2).uniform(0, 1, 5)
        expected = (
            0.5 * (mlp_apply(agent.actors[0], agent.actor_spec, s.reshape(1, -1)) + 1.0)
        ).reshape(-1)
        got = agent.action_array(s, mode="eval")
        assert np.array_equal(got, expected)

    def test_darc_prefers_higher_valued_candidate(self):
        agent = Agent(small_cfg("darc", hidden_dims=()), obs_dim=2, seed=0)
        # actor 0 -> accident score 0.9, actor 1 -> 0.1 (others 0.5)
        for j, sign in ((0, 1.0), (1, -1.0)):
            agent.actors[j]["w0"].array[:] = 0.0
            agent.actors[j]["b0"].array[:] = [sign * math.atanh(0.8), 0.0, 0.0]
        # critics value the accident-score coordinate negatively -> prefer 0.1
        for critic in agent.critics:
            critic["w0"].array[:] = 0.0
            critic["w0"].array[2, 0] = -1.0
            critic["b0"].array[:] = 0.0
        action = agent.select_action(np.zeros(2), mode="eval")
        assert action.a == pytest.approx(0.1, abs=1e-12)
        # flip the preference
        for critic in agent.critics:
            critic["w0"].array[2, 0] = +1.0
        action = agent.select_action(np.zeros(2), mode="eval")
        assert action.a == pytest.approx(0.9, abs=1e-12)


class TestTanhGaussianLogprob:
    def test_frozen_reference_point(self):
        logp = tanh_gaussian_logprob(np.zeros((1, 1)), np.zeros((1, 1)), np.zeros((1, 1)))
        assert logp[0, 0] == pytest.approx(-0.9189385332046728, abs=1e-12)

    def test_matches_naive_formula(self):
        rng = np.random.default_rng(3)
        mean = rng.normal(size=(10, 3))
        log_std = rng.uniform(-2, 1, size=(10, 3))
        u = mean + np.exp(log_std) * rng.normal(size=(10, 3))
        got = tanh_gaussian_logprob(mean, log_std, u)
        z = (u - mean) / np.exp(log_std)
        naive = (
            -0.5 * z**2 - log_std - 0.5 * np.log(2 * np.pi) - np.log(1.0 - np.tanh(u) ** 2)
        ).sum(axis=1, keepdims=True)
        assert np.allclose(got, naive, atol=1e-10)


class TestTargets:
    def test_done_cuts_bootstrap_for_every_algo(self):
        rng = np.random.default_rng(1)
        for algo, fn in (
            ("ddpg", ddpg_target),
            ("td3", td3_target),
            ("darc", darc_target),
            ("sac", sac_target),
        ):
            agent = Agent(small_cfg(algo), obs_dim=4, seed=2)
            batch = random_batch(rng, 16, 4, done_rate=1.0)
            y = fn(batch, agent)
            y = y.y if hasattr(y, "y") else y
            assert np.array_equal(y, batch.r)

    def test_near_zero_gamma_returns_reward(self):
        agent = Agent(small_cfg("td3", gamma=1e-300), obs_dim=4, seed=2)
        batch = random_batch(np.random.default_rng(2), 8, 4, done_rate=0.0)
        assert np.allclose(td3_target(batch, agent), batch.r, atol=1e-12)

    def test_td3_with_equal_critics_matches_ddpg_without_smoothing(self):
        td3 = Agent(small_cfg("td3", target_noise=0.0), obs_dim=5, seed=9)
        ddpg = Agent(small_cfg("ddpg", target_noise=0.0), obs_dim=5, seed=9)
        td3.critics[1] = td3.critics[0].copy()
        td3.target_critics[1] = td3.target_critics[0].copy()
        batch = random_batch(np.random.default_rng(4), 12, 5)
        assert np.array_equal(td3_target(batch, td3), ddpg_target(batch, ddpg))

    def test_td3_min_never_exceeds_either_critic(self):
        agent = Agent(small_cfg("td3", target_noise=0.0), obs_dim=4, seed=5)
        batch = random_batch(np.random.default_rng(5), 32, 4, done_rate=0.0)
        y = td3_target(batch, agent)
        a_next = 0.5 * (
            mlp_apply(agent.target_actors[0], agent.actor_spec, batch.s_next) + 1.0
        )
        x = np.concatenate([batch.s_next, a_next], axis=1)
        q1 = mlp_apply(agent.target_critics[0], agent.critic_spec, x)
        q2 = mlp_apply(agent.target_critics[1], agent.critic_spec, x)
        v = (y - batch.r) / agent.cfg.gamma
        assert np.all(v <= q1 + 1e-12) and np.all(v <= q2 + 1e-12)

    def test_darc_enumeration_hand_case(self):
        cfg = small_cfg("darc", hidden_dims=(), target_noise=0.0, gamma=0.5)
        agent = Agent(cfg, obs_dim=2, seed=0)
        # constant candidate actions: a0 component 0.9 (actor 0) and 0.1 (actor 1)
        for j, sign in ((0, 1.0), (1, -1.0)):
            agent.target_actors[j]["w0"].array[:] = 0.0
            agent.target_actors[j]["b0"].array[:] = [sign * math.atanh(0.8), 0.0, 0.0]
        # linear critics over the accident-score input (index 2 of [s0,s1,a0,a1,a2]):
        # Q1: 0.9 -> 1.0, 0.1 -> 0.7; Q2: 0.9 -> 0.8, 0.1 -> 0.9
        for i, (slope, intercept) in enumerate(((0.375, 0.6625), (-0.125, 0.9125))):
            agent.target_critics[i]["w0"].array[:] = 0.0
            agent.target_critics[i]["w0"].array[2, 0] = slope
            agent.target_critics[i]["b0"].array[:] = intercept
        batch = Batch(
            np.zeros((1, 2)), np.full((1, 3), 0.5), np.zeros((1, 1)),
            np.zeros((1, 2)), np.zeros((1, 1)),
        )
        parts = darc_target(batch, agent, with_components=True)
        assert parts.q_values[0, 0] == pytest.approx([1.0, 0.8], abs=1e-12)
        assert parts.q_values[0, 1] == pytest.approx([0.7, 0.9], abs=1e-12)
        # exhaustive enumeration: max over actors of min over critics
        expected_v = max(min(parts.q_values[0, 0]), min(parts.q_values[0, 1]))
        assert parts.v_next[0, 0] == expected_v
        assert parts.v_next[0, 0] == pytest.approx(0.8, abs=1e-12)
        assert parts.y[0, 0] == pytest.approx(0.5 * 0.8, abs=1e-12)

    def test_darc_reduces_bitwise_to_td3_with_identical_actors(self):
        td3 = Agent(small_cfg("td3", nu=0.0), obs_dim=6, seed=42)
        darc = Agent(small_cfg("darc", nu=0.0), obs_dim=6, seed=42)
        darc.actors[1] = darc.actors[0].copy()
        darc.target_actors[1] = darc.target_actors[0].copy()
        assert darc.target_critics[0].equal(td3.target_critics[0])
        rng = np.random.default_rng(7)
        for _ in range(10):
            batch = random_batch(rng, 16, 6)
            assert np.array_equal(td3_target(batch, td3), darc_target(batch, darc))

    def test_darc_bracketing_and_dominance_over_td3(self):
        darc = Agent(small_cfg("darc"), obs_dim=5, seed=11)
        td3 = Agent(small_cfg("td3"), obs_dim=5, seed=11)
        rng = np.random.default_rng(8)
        for _ in range(10):
            batch = random_batch(rng, 24, 5, done_rate=0.0)
            parts = darc_target(batch, darc, with_components=True)
            v = parts.v_next.reshape(-1)
            qmin = parts.q_values.min(axis=(1, 2))
            qmax = parts.q_values.max(axis=(1, 2))
            assert np.all(qmin <= v) and np.all(v <= qmax)
            # max over a superset of candidates dominates the actor-0 value
            v_td3_like = parts.q_values[:, 0, :].min(axis=1)
            assert np.all(v >= v_td3_like)

    def test_sac_alpha_zero_drops_entropy_bonus(self):
        cfg = small_cfg("sac", sac_alpha=0.0)
        agent = Agent(cfg, obs_dim=4, seed=13)
        batch = random_batch(np.random.default_rng(9), 8, 4, done_rate=0.0)
        state_before = agent.rng.bit_generator.state
        y = sac_target(batch, agent)
        # replay the same draw: with alpha=0 the target is the plain min-critic value
        agent.rng.bit_generator.state = state_before
        out = mlp_apply(agent.actors[0], agent.actor_spec, batch.s_next)
        mean, log_std = out[:, :3], np.clip(out[:, 3:], -20.0, 2.0)
        eps = agent.rng.standard_normal((8, 3))
        a_next = 0.5 * (np.tanh(mean + np.exp(log_std) * eps) + 1.0)
        x = np.concatenate([batch.s_next, a_next], axis=1)
        q = np.minimum(
            mlp_apply(agent.target_critics[0], agent.critic_spec, x),
            mlp_apply(agent.target_critics[1], agent.critic_spec, x),
        )
        assert np.allclose(y, batch.r + cfg.gamma * q, atol=1e-12)


def constant_critic(agent, index, value):
    for name, tensor in agent.critics[index]:
        tensor.array[:] = 0.0
    agent.critics[index][f"b{len(agent.cfg.hidden_dims)}"].array[:] = value


class TestCriticUpdate:
    def _one_sample_batch(self, obs_dim):
        return Batch(
            np.zeros((1, obs_dim)), np.full((1, 3), 0.5), np.zeros((1, 1)),
            np.zeros((1, obs_dim)), np.ones((1, 1)),
        )

    def test_hand_set_scalar_losses(self):
        cfg = small_cfg("darc", hidden_dims=(), nu=0.5)
        agent = Agent(cfg, obs_dim=2, seed=0)
        constant_critic(agent, 0, 1.0)
        constant_critic(agent, 1, 0.0)
        # r=0, done=1 -> target 0 exactly
        losses = critic_update(agent, self._one_sample_batch(2))
        assert losses["critic_0"] == pytest.approx(1.5, abs=1e-12)
        assert losses["critic_1"] == pytest.approx(0.5, abs=1e-12)
        assert losses["critic_reg"] == pytest.approx(1.0, abs=1e-12)

    def test_nu_zero_equals_plain_td_mse(self):
        cfg = small_cfg("darc", hidden_dims=(), nu=0.0)
        agent = Agent(cfg, obs_dim=2, seed=0)
        constant_critic(agent, 0, 1.0)
        constant_critic(agent, 1, 0.0)
        losses = critic_update(agent, self._one_sample_batch(2))
        assert losses["critic_0"] == 1.0
        assert losses["critic_1"] == 0.0
        assert losses["critic_reg"] == 0.0

    def test_identical_critics_zero_regularization(self):
        cfg = small_cfg("darc", nu=0.7)
        agent = Agent(cfg, obs_dim=3, seed=4)
        agent.critics[1] = agent.critics[0].copy()
        losses = critic_update(agent, random_batch(np.random.default_rng(0), 6, 3))
        assert losses["critic_reg"] == 0.0

    def test_darc_update_with_nu_zero_matches_td3_bitwise(self):
        td3 = Agent(small_cfg("td3", nu=0.0), obs_dim=4, seed=21)
        darc = Agent(small_cfg("darc", nu=0.0), obs_dim=4, seed=21)
        darc.actors[1] = darc.actors[0].copy()
        darc.target_actors[1] = darc.target_actors[0].copy()
        batch = random_batch(np.random.default_rng(3), 8, 4)
        critic_update(td3, batch)
        critic_update(darc, batch)
        for i in range(2):
            assert darc.critics[i].equal(td3.critics[i])


class TestActorUpdate:
    def test_off_delay_step_is_a_noop(self):
        cfg = small_cfg("td3", policy_delay=2)
        agent = Agent(cfg, obs_dim=4, seed=6)
        batch = random_batch(np.random.default_rng(1), 8, 4)
        critic_update(agent, batch)  # update_count -> 1 (off-delay)
        before = agent.actors[0].copy()
        target_before = agent.target_actors[0].copy()
        losses = actor_update(agent, batch)
        assert losses == {}
        assert agent.actors[0].equal(before)
        assert agent.target_actors[0].equal(target_before)
        assert agent.update_count == 1

    def test_constant_critic_leaves_actor_unchanged(self):
        cfg = small_cfg("ddpg")
        agent = Agent(cfg, obs_dim=3, seed=7)
        constant_critic(agent, 0, 2.5)
        before = agent.actors[0].copy()
        batch = random_batch(np.random.default_rng(2), 8, 3)
        losses = actor_update(agent, batch)
        assert losses["actor_0"] == pytest.approx(-2.5)
        assert agent.actors[0].equal(before)

    def test_polyak_formula_spot_checked_after_update(self):
        for algo in ("ddpg", "td3", "sac", "darc"):
            cfg = small_cfg(algo, policy_delay=1)
            agent = Agent(cfg, obs_dim=4, seed=8)
            old_targets = [p.copy() for p in agent.target_critics]
            batch = random_batch(np.random.default_rng(3), 8, 4)
            update(agent, batch)
            tau = cfg.tau
            for i, old in enumerate(old_targets):
                expected = tau * agent.critics[i]["w0"].array + (1 - tau) * old["w0"].array
                assert np.allclose(agent.target_critics[i]["w0"].array, expected, atol=1e-15)

    def test_darc_trains_each_actor_against_its_own_critic(self):
        cfg = small_cfg("darc", policy_delay=1)
        agent = Agent(cfg, obs_dim=3, seed=9)
        batch = random_batch(np.random.default_rng(4), 8, 3)
        before = [p.copy() for p in agent.actors]
        losses = update(agent, batch)
        assert "actor_0" in losses and "actor_1" in losses
        assert not agent.actors[0].equal(before[0])
        assert not agent.actors[1].equal(before[1])


class TestTrainStep:
    def _run(self, algo="td3", steps=30, seed=0):
        cfg = small_cfg(algo, warmup_steps=10, batch_size=4)
        agent = Agent(cfg, obs_dim=1, seed=seed)
        buf = ReplayBuffer(100, seed=seed + 1)
        env = QuadraticBandit()
        env.reset()
        logs = []
        for _ in range(steps):
            if env.done:
                env.reset()
            logs.append(train_step(agent, env, buf))
        return agent, logs

    def test_no_parameter_changes_during_warmup(self):
        cfg = small_cfg("td3", warmup_steps=10, batch_size=4)
        agent = Agent(cfg, obs_dim=1, seed=0)
        snapshot = [p.copy() for p in agent.actors + agent.critics]
        buf = ReplayBuffer(100, seed=1)
        env = QuadraticBandit()
        env.reset()
        for _ in range(10):
            if env.done:
                env.reset()
            log = train_step(agent, env, buf)
            assert log.losses == {}
        for current, saved in zip(agent.actors + agent.critics, snapshot):
            assert current.equal(saved)
        assert agent.total_env_steps == 10

    def test_rewards_pass_through_from_env(self):
        _, logs = self._run(steps=5)
        for log in logs:
            assert 0.0 <= log.r_A <= 1.0
            assert log.r_F == 0.0
            assert log.reward == log.r_A + log.r_F

    def test_updates_start_after_warmup(self):
        _, logs = self._run(steps=30)
        assert all(not log.losses for log in logs[:10])
        assert any(log.losses for log in logs[10:])

    def test_end_to_end_determinism(self):
        agent_a, logs_a = self._run("darc", steps=40, seed=5)
        agent_b, logs_b = self._run("darc", steps=40, seed=5)
        assert [(l.r_A, l.r_F, l.losses) for l in logs_a] == [
            (l.r_A, l.r_F, l.losses) for l in logs_b
        ]
        for p, q in zip(agent_a.actors, agent_b.actors):
            assert p.equal(q)


class TestAgentCheckpoint:
    def test_round_trip_all_algos(self, tmp_path):
        for algo in ("ddpg", "td3", "sac", "darc"):
            cfg = small_cfg(algo)
            agent = Agent(cfg, obs_dim=5, seed=3)
            agent.total_env_steps = 123
            agent.update_count = 45
            path = tmp_path / f"{algo}.txt"
            agent.save(path)
            loaded = Agent.load(path, cfg)
            assert loaded.total_env_steps == 123 and loaded.update_count == 45
            for a, b in zip(agent.actors, loaded.actors):
                assert a.equal(b)
            for a, b in zip(agent.target_critics, loaded.target_critics):
                assert a.equal(b)

    def test_algo_mismatch_rejected(self, tmp_path):
        agent = Agent(small_cfg("td3"), obs_dim=4, seed=0)
        path = tmp_path / "ck.txt"
        agent.save(path)
        with pytest.raises(ValueError, match="algo"):
            Agent.load(path, small_cfg("darc"))

    def test_shape_mismatch_names_expected_and_actual(self, tmp_path):
        agent = Agent(small_cfg("td3", hidden_dims=(16, 16)), obs_dim=4, seed=0)
        path = tmp_path / "ck.txt"
        agent.save(path)
        with pytest.raises(ValueError, match="expected shapes"):
            Agent.load(path, small_cfg("td3", hidden_dims=(8, 8)))

    def test_save_is_deterministic(self, tmp_path):
        agent = Agent(small_cfg("darc"), obs_dim=4, seed=9)
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        agent.save(p1)
        agent.save(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def _corrupted(self, tmp_path, edit):
        path = tmp_path / "ck.txt"
        Agent(small_cfg("td3"), obs_dim=4, seed=0).save(path)
        lines = path.read_text().splitlines()
        edit(lines)
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_nameless_section_marker_names_path_and_line(self, tmp_path):
        def edit(lines):
            lines[1] = "SECTION "

        path = self._corrupted(tmp_path, edit)
        with pytest.raises(ValueError, match=r"ck\.txt: line 2: SECTION marker without a name"):
            Agent.load(path, small_cfg("td3"))

    def test_non_integer_header_field_names_path_and_line(self, tmp_path):
        def edit(lines):
            fields = lines[0].split()
            fields[5] = "4.0"  # obs_dim
            lines[0] = " ".join(fields)

        path = self._corrupted(tmp_path, edit)
        with pytest.raises(ValueError, match=r"ck\.txt: line 1: obs_dim must be an integer"):
            Agent.load(path, small_cfg("td3"))

    def test_non_integer_tensor_count_names_path_and_line(self, tmp_path):
        def edit(lines):
            lines[2] = "NKP1 six"

        path = self._corrupted(tmp_path, edit)
        message = r"ck\.txt: line 3: NKP1 tensor count must be an integer"
        with pytest.raises(ValueError, match=message):
            Agent.load(path, small_cfg("td3"))


@pytest.mark.slow
def test_darc_critic_gap_shrinks_with_regularization():
    """nu=0.005 pulls the two critics together on the bandit task (4 of 5 seeds).

    Paired design: both settings of one seed share the replay stream and the
    smoothing-noise draws (targets stay frozen without actor updates), so the
    only difference between the runs is the regularization term. The gap is
    the plateau-averaged mean |Q1 - Q2| over an action lattice.
    """
    import itertools

    lattice = np.array(list(itertools.product(np.linspace(0, 1, 5), repeat=3)))
    probe = np.concatenate([np.zeros((len(lattice), 1)), lattice], axis=1)

    def plateau_gap(nu, seed, updates=3000):
        cfg = AgentConfig(
            algo="darc", hidden_dims=(32, 32), batch_size=64,
            actor_lr=3e-4, critic_lr=3e-4, nu=nu,
        )
        agent = Agent(cfg, obs_dim=1, seed=seed)
        buf = ReplayBuffer(5000, seed=seed + 1)
        env = QuadraticBandit()
        env.reset()
        rng = np.random.default_rng(seed + 2)
        for _ in range(600):
            if env.done:
                env.reset()
            s = env.observation.features.copy()
            arr = rng.uniform(0, 1, 3)
            res = env.step(DualAction.from_array(arr))
            buf.push(Transition(s, arr, res.r_A, res.next_obs.features, res.done))
        gaps = []
        for u in range(updates):
            critic_update(agent, buf.sample(cfg.batch_size))
            if u >= updates - 500 and u % 50 == 0:
                q1 = mlp_apply(agent.critics[0], agent.critic_spec, probe)
                q2 = mlp_apply(agent.critics[1], agent.critic_spec, probe)
                gaps.append(np.mean(np.abs(q1 - q2)))
        return float(np.mean(gaps))

    wins = sum(plateau_gap(0.005, seed) < plateau_gap(0.0, seed) for seed in range(5))
    assert wins >= 4


class TestErrorSurfaces:
    def test_step_and_observation_require_reset(self):
        from crashrl.env import AccidentEnv, EnvConfig, generate_episode

        cfg = EnvConfig()
        env = AccidentEnv(generate_episode(cfg, 1), cfg)
        with pytest.raises(RuntimeError, match="reset"):
            env.step(DualAction(0.5, (0.5, 0.5)))
        with pytest.raises(RuntimeError, match="reset"):
            env.observation

    def test_agent_rejects_wrong_feature_width_and_mode(self):
        agent = Agent(small_cfg("td3", hidden_dims=(8,)), obs_dim=4, seed=0)
        with pytest.raises(ValueError, match="expected 4 features"):
            agent.action_array(np.zeros(5))
        with pytest.raises(ValueError, match="mode"):
            agent.action_array(np.zeros(4), mode="explore")

    def test_buffer_rejects_width_change(self):
        buf = ReplayBuffer(8, seed=0)
        buf.push(Transition(np.zeros(4), np.full(3, 0.5), 0.0, np.zeros(4), False))
        with pytest.raises(ValueError, match="feature length"):
            buf.push(Transition(np.zeros(5), np.full(3, 0.5), 0.0, np.zeros(5), False))

    def test_transition_rejects_out_of_bound_actions(self):
        with pytest.raises(ValueError, match="\\[0, 1\\]"):
            Transition(np.zeros(4), np.array([0.5, 1.5, 0.5]), 0.0, np.zeros(4), False)

    def test_algorithm_specific_targets_reject_other_agents(self):
        td3 = Agent(small_cfg("td3"), obs_dim=4, seed=0)
        batch = random_batch(np.random.default_rng(0), 4, 4)
        with pytest.raises(ValueError, match="darc"):
            darc_target(batch, td3)
        with pytest.raises(ValueError, match="sac"):
            sac_target(batch, td3)
