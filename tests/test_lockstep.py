"""Lockstep evaluation: the batched attention kernel, batched action
selection, and collect_records against AccidentEnv groups of one."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from crashrl.agents import Agent, AgentConfig
from crashrl.agents.agent import deterministic_head
from crashrl.env import (
    AccidentEnv,
    EnvConfig,
    SaliencyField,
    attention_features,
    generate_episode,
    normalize_fields,
)
from crashrl.env.config import check_steppable
from crashrl.harness import (
    ConstantScoreAgent,
    RunConfig,
    ScriptedOnsetAgent,
    agent_policy,
    collect_records,
)
from crashrl.numkit import mlp_apply
from record_rows import Row, frame_rows, records_from_rows
from saliency_reference import combine_attention, foveate, normalize_field, pool_features

ALGOS = ("ddpg", "td3", "sac", "darc")


def reference_features(raw, fixation, cfg):
    """The per-field chain the kernel replaces."""
    field = SaliencyField(raw)
    fov, degenerate = foveate(field, fixation, cfg.sigma_f)
    combined = combine_attention(field, fov, cfg.rho)
    return pool_features(combined, (cfg.pool_h, cfg.pool_w)), degenerate


def assert_rows_match_reference(raw, fixations, cfg):
    got = attention_features(raw, fixations, cfg)
    assert got.shape == (raw.shape[0], cfg.pool_h * cfg.pool_w)
    degenerate = []
    for i in range(raw.shape[0]):
        expected, flag = reference_features(raw[i], tuple(fixations[i]), cfg)
        assert got[i].tobytes() == expected.tobytes(), f"row {i} differs"
        degenerate.append(flag)
    return degenerate


def random_fields(rng, n, h, w):
    raw = rng.random((n, h, w)) ** 3
    return normalize_fields(raw)


class TestAttentionKernel:
    @pytest.mark.parametrize(
        "h,w,pool_h,pool_w",
        [
            (16, 16, 8, 8),
            (8, 8, 4, 4),
            (16, 16, 16, 16),
            (16, 16, 1, 1),
            (12, 12, 4, 4),
            (16, 16, 8, 4),  # 2 x 4 blocks
            (16, 16, 4, 8),  # 4 x 2 blocks
            (14, 14, 7, 2),  # 7-wide blocks, the widest summed by slices
            (16, 16, 8, 2),  # 8-wide blocks: np.add.reduce
            (16, 2, 8, 1),  # a pool one block wide: np.add.reduce
            (12, 16, 6, 8),  # a non-square grid
        ],
    )
    @pytest.mark.parametrize("n", [1, 3, 4, 16, 17, 24, 40, 100])
    def test_rows_match_per_field_chain_bitwise(self, h, w, pool_h, pool_w, n):
        cfg = EnvConfig(grid_h=h, grid_w=w, pool_h=pool_h, pool_w=pool_w)
        rng = np.random.default_rng(1000 * h + n)
        raw = random_fields(rng, n, h, w)
        fixations = rng.random((n, 2))
        fixations[0] = (0.0, 1.0)  # a corner
        assert_rows_match_reference(raw, fixations, cfg)

    def test_all_zero_field_and_underflowing_corner_rows(self):
        # sigma_f = 1e-3 at a corner: every Gaussian weight underflows to 0.
        cfg = EnvConfig(grid_h=16, grid_w=16, pool_h=8, pool_w=8, sigma_f=1e-3)
        rng = np.random.default_rng(5)
        raw = random_fields(rng, 4, 16, 16)
        raw[2] = 0.0
        # Row 1 fixates exactly on a cell center, so one weight stays 1.
        fixations = np.array([[0.0, 0.0], [17 / 32, 17 / 32], [0.3, 0.7], [1.0, 1.0]])
        degenerate = assert_rows_match_reference(raw, fixations, cfg)
        assert degenerate == [True, False, True, True]

    @pytest.mark.parametrize("pool_w", [8, 2])
    def test_a_block_of_negative_zeros_pools_to_positive_zero(self, pool_w):
        cfg = EnvConfig(grid_h=16, grid_w=16, pool_h=8, pool_w=pool_w)
        rng = np.random.default_rng(9)
        raw = random_fields(rng, 3, 16, 16)
        raw[1, :2, : 16 // pool_w] = -0.0  # row 1's first block
        fixations = rng.random((3, 2))
        assert_rows_match_reference(raw, fixations, cfg)
        assert not np.signbit(attention_features(raw, fixations, cfg)).any()

    def test_normalize_fields_matches_normalize_field(self):
        rng = np.random.default_rng(2)
        grids = rng.random((5, 6, 10)) * 3.0
        grids[3] = 0.0
        expected = [normalize_field(SaliencyField(g)).grid for g in grids]
        got = normalize_fields(grids.copy())
        for i in range(5):
            assert got[i].tobytes() == expected[i].tobytes()

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_normalize_fields_matches_normalize_field_on_mixed_batches(self, data):
        h, w = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 5))
        entries = {
            "zero": st.just(0.0),
            "signed_zero": st.sampled_from([0.0, -0.0]),
            "subnormal": st.floats(0.0, 2.2e-308, allow_subnormal=True),
            "ordinary": st.floats(0.0, 1e6),
        }
        kinds = data.draw(st.lists(st.sampled_from(sorted(entries)), min_size=1, max_size=6))
        grids = np.stack([data.draw(arrays(np.float64, (h, w), elements=entries[k])) for k in kinds])
        expected = [normalize_field(SaliencyField(g)).grid for g in grids]
        got = normalize_fields(grids)
        assert got is grids
        for i, kind in enumerate(kinds):
            assert got[i].tobytes() == expected[i].tobytes(), f"{kind} field {i} differs"

    def test_env_features_use_the_kernel(self):
        cfg = EnvConfig(grid_h=8, grid_w=8, pool_h=4, pool_w=4, stack=2, episode_len=12)
        episode = generate_episode(cfg, 3)
        env = AccidentEnv([episode], cfg)
        obs = env.reset()
        frames = [normalize_field(f).grid for f in episode.frames[:2]]
        first, _ = reference_features(frames[0], (0.5, 0.5), cfg)
        assert obs.shape == (1, cfg.obs_dim)
        assert obs[0].tobytes() == np.concatenate([first, first]).tobytes()
        nxt = env.step([(0.2, 0.9, 0.1)]).next_obs
        second, _ = reference_features(frames[1], (0.9, 0.1), cfg)
        assert nxt[0].tobytes() == np.concatenate([first, second]).tobytes()


class TestWholeEpisodes:
    @pytest.mark.parametrize("n", [1, 16, 24])
    def test_every_observation_row_matches_the_per_field_chain(self, n):
        """A default-scale group of n under a seeded action stream, some fixations
        on the unit square's edges: every row of every observation holds the
        per-field chain's features of its own frames and fixations."""
        cfg = EnvConfig()
        episodes = [generate_episode(cfg, 700 + i) for i in range(n)]
        env = AccidentEnv(episodes, cfg)
        rng = np.random.default_rng(n)

        def features(i, t, fixation):
            frame = normalize_field(SaliencyField(episodes[i].saliency[t])).grid
            return reference_features(frame, fixation, cfg)[0]

        stacks = [[features(i, 0, (0.5, 0.5))] * cfg.stack for i in range(n)]
        obs = env.reset()
        while True:
            for i in range(n):
                assert obs[i].tobytes() == np.concatenate(stacks[i]).tobytes(), (
                    f"episode {i}, frame {env.t}"
                )
            if env.done:
                break
            actions = rng.uniform(0.0, 1.0, (n, 3))
            edge = rng.random((n, 2)) < 0.1
            actions[:, 1:][edge] = rng.integers(0, 2, edge.sum())
            t = env.t
            obs = env.step(actions).next_obs
            for i in range(n):
                stacks[i] = stacks[i][1:] + [features(i, t + 1, tuple(actions[i, 1:]))]
        assert env.t == cfg.episode_len - 1


class FeatureEcho:
    """Actions from the observation by elementwise arithmetic only (no BLAS),
    so a wrong observation bit changes the fixation that follows."""

    def __init__(self):
        self.batch_sizes = []

    def __call__(self, features, t, episodes):
        assert features.shape[0] == len(episodes)
        self.batch_sizes.append(len(episodes))
        score = np.minimum(features[:, -1] * features.shape[1], 1.0)
        fx = (features[:, 0] * 1e4) % 1.0
        fy = (features[:, -2] * 1e4) % 1.0
        return np.stack([score, fx, fy], axis=1)


def sequential_records(policy, episodes, cfg):
    """One AccidentEnv group of one per episode, one batch-1 policy call per step."""
    rows = []
    for episode in episodes:
        env = AccidentEnv([episode], cfg.env)
        obs = env.reset()
        while not env.done:
            t = env.t
            actions = np.asarray(policy(obs, t, [episode]), dtype=np.float64)
            result = env.step(actions)
            a, px, py = actions[0].tolist()
            rows.append(
                Row(
                    episode.episode_id, t, a, episode.y, episode.t_a, (px, py),
                    tuple(episode.fixation_track[t].tolist()), episode.fps,
                    result.r_A.item(), result.r_F.item(),
                )
            )
            obs = result.next_obs
    return records_from_rows(rows)


def small_run_cfg(**env_kw):
    env = dict(grid_h=8, grid_w=8, pool_h=4, pool_w=4, stack=3, episode_len=16)
    env.update(env_kw)
    return RunConfig(seeds=(0,), env=EnvConfig(**env), eval_episodes=6)


def mixed_episodes():
    """Two grid shapes and two lengths, interleaved so groups are not contiguous."""
    shapes = [(8, 10), (16, 14), (8, 14), (16, 10), (8, 10), (16, 14), (8, 10)]
    episodes = []
    for seed, (grid, length) in enumerate(shapes):
        env = EnvConfig(grid_h=grid, grid_w=grid, pool_h=4, pool_w=4, episode_len=length)
        episodes.append(generate_episode(env, 40 + seed))
    return episodes


class TestCollectRecords:
    @pytest.mark.parametrize(
        "policy", [ScriptedOnsetAgent(), ConstantScoreAgent(0.3), FeatureEcho()],
        ids=["scripted", "constant", "feature_echo"],
    )
    def test_matches_sequential_env_bitwise(self, policy):
        cfg = small_run_cfg()
        episodes = [generate_episode(cfg.env, seed) for seed in range(6)]
        got = frame_rows(collect_records(policy, episodes, cfg))
        expected = frame_rows(sequential_records(policy, episodes, cfg))
        assert got == expected
        assert [repr(r) for r in got] == [repr(r) for r in expected]

    def test_mixed_lengths_and_grids_come_back_in_input_order(self):
        cfg = small_run_cfg()
        episodes = mixed_episodes()
        policy = FeatureEcho()
        records = frame_rows(collect_records(policy, episodes, cfg))
        assert len(records) == sum(ep.length - 1 for ep in episodes)
        expected_keys = [
            (ep.episode_id, t) for ep in episodes for t in range(ep.length - 1)
        ]
        assert [(r.episode_id, r.t) for r in records] == expected_keys
        # One batched call per step per (grid, length) group: groups of 3, 2, 1, 1.
        assert policy.batch_sizes == [3] * 9 + [2] * 13 + [1] * 13 + [1] * 9
        assert records == frame_rows(sequential_records(FeatureEcho(), episodes, cfg))

    @pytest.mark.parametrize(
        "bad,message",
        [
            ((1.5, 0.5, 0.5), "accident score"),
            ((np.nan, 0.5, 0.5), "accident score"),
            ((0.5, -0.1, 0.5), "fixation"),
            ((0.5, 0.5, np.nan), "fixation"),
        ],
    )
    def test_out_of_range_or_nan_actions_are_rejected(self, bad, message):
        cfg = small_run_cfg()
        episodes = [generate_episode(cfg.env, seed) for seed in range(3)]

        def policy(features, t, group):
            actions = np.full((len(group), 3), 0.5)
            if t == 4:
                actions[1] = bad
            return actions

        with pytest.raises(ValueError, match=message):
            collect_records(policy, episodes, cfg)

    def test_wrong_action_shape_is_rejected(self):
        cfg = small_run_cfg()
        episodes = [generate_episode(cfg.env, seed) for seed in range(2)]
        with pytest.raises(ValueError, match=r"shape \[2, 3\]"):
            collect_records(lambda f, t, g: np.full((len(g), 4), 0.5), episodes, cfg)

    @pytest.mark.parametrize(
        "other", [dict(grid_h=16, grid_w=16), dict(episode_len=12)], ids=["grid", "length"]
    )
    def test_env_group_of_mixed_shape_or_length_is_rejected(self, other):
        cfg = small_run_cfg()
        episodes = [generate_episode(cfg.env, 0), generate_episode(cfg.env, 1)]
        episodes.append(generate_episode(small_run_cfg(**other).env, 2))
        with pytest.raises(ValueError, match="one grid shape and one length"):
            AccidentEnv(episodes, cfg.env)
        AccidentEnv(episodes[:2], cfg.env)  # the matching pair is one group

    def test_unsteppable_episode_is_rejected(self):
        cfg = small_run_cfg(pool_h=3, pool_w=3, grid_h=9, grid_w=9)
        episode = generate_episode(EnvConfig(grid_h=8, grid_w=8, pool_h=4, pool_w=4), 0)
        with pytest.raises(ValueError, match="must divide"):
            check_steppable("episode", episode.saliency.shape, cfg.env, ValueError)


def small_agent(algo, obs_dim, seed=11):
    cfg = AgentConfig(algo=algo, hidden_dims=(64, 64), batch_size=8, warmup_steps=4)
    return Agent(cfg, obs_dim, seed)


class TestBatchedActionArray:
    OBS = 256

    def _states(self, n, seed=0):
        return np.random.default_rng(seed).uniform(0.0, 2.0 / self.OBS, (n, self.OBS))

    @pytest.mark.parametrize("algo", ALGOS)
    @pytest.mark.parametrize("n", [2, 5, 16])
    def test_batch_matches_per_row_calls_within_two_ulp(self, algo, n):
        agent = small_agent(algo, self.OBS)
        s = self._states(n)
        batched = agent.action_array(s, mode="eval")
        assert batched.shape == (n, 3)
        per_row = np.stack([agent.action_array(row, mode="eval") for row in s])
        np.testing.assert_array_max_ulp(batched, per_row, maxulp=2)

    @pytest.mark.parametrize("algo", ALGOS)
    def test_train_mode_batch_draws_the_per_row_noise(self, algo):
        s = self._states(6, seed=3)
        a, b = small_agent(algo, self.OBS), small_agent(algo, self.OBS)
        batched = a.action_array(s, mode="train")
        per_row = np.stack([b.action_array(row, mode="train") for row in s])
        np.testing.assert_array_max_ulp(batched, per_row, maxulp=2)

    def test_darc_picks_the_same_actor_per_row(self):
        agent = small_agent("darc", self.OBS, seed=5)
        s = self._states(64, seed=1)
        batched = agent.action_array(s, mode="eval")
        chosen = []
        for row, got in zip(s, batched):
            candidates = [
                deterministic_head(mlp_apply(actor, row[None]))[1][0, 0]
                for actor in agent.actors
            ]
            single = agent.action_array(row, mode="eval")
            expected = next(j for j, c in enumerate(candidates) if np.array_equal(c, single))
            nearest = int(np.argmin([np.max(np.abs(got - c)) for c in candidates]))
            assert nearest == expected
            chosen.append(expected)
        assert set(chosen) == {0, 1}, "the fixed seed should exercise both actors"

    @pytest.mark.parametrize("algo", ALGOS)
    @pytest.mark.parametrize("mode", ["eval", "train"])
    def test_batch_of_one_equals_one_dimensional_call_bitwise(self, algo, mode):
        s = self._states(1, seed=9)
        a, b = small_agent(algo, self.OBS), small_agent(algo, self.OBS)
        one = a.action_array(s, mode=mode)
        flat = b.action_array(s[0], mode=mode)
        assert one.shape == (1, 3) and flat.shape == (3,)
        assert one[0].tobytes() == flat.tobytes()

    @pytest.mark.parametrize("shape", [(7,), (2, 7), (2, 1, 8), (1, 2, 8)])
    def test_wrong_width_or_rank_names_the_expected_width(self, shape):
        agent = small_agent("td3", 8)
        with pytest.raises(ValueError, match=r"input must have shape \[batch, 8\]"):
            agent.action_array(np.zeros(shape))

    def test_agent_policy_is_one_batched_call_per_step(self):
        cfg = small_run_cfg()
        agent = small_agent("darc", cfg.env.obs_dim)
        calls = []
        real = agent.action_array

        def counting(features, mode="eval"):
            calls.append(features.shape)
            return real(features, mode)

        agent.action_array = counting
        episodes = [generate_episode(cfg.env, seed) for seed in range(5)]
        records = collect_records(agent_policy(agent), episodes, cfg)
        assert len(records) == 5 * (cfg.env.episode_len - 1)
        assert calls == [(5, cfg.env.obs_dim)] * (cfg.env.episode_len - 1)
