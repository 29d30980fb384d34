"""Environment: saliency pipeline, rewards, episode generation, MDP, file I/O."""

import hashlib
import math
import re
import struct
import zlib
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from crashrl.env import (
    AccidentEnv,
    BLOB_SIGMA,
    EnvConfig,
    Episode,
    EpisodeFormatError,
    SaliencyField,
    accident_weight,
    blob_onset,
    cell_centers,
    fixation_window_active,
    generate_episode,
    load_episode_file,
    reward_accident,
    reward_fixation,
    write_episode_file,
)
from crashrl.env.config import check_generatable, check_steppable
from crashrl.records import format_float
from saliency_reference import combine_attention, foveate, normalize_field, pool_features


def split_ade2(raw: bytes) -> tuple[list[str], np.ndarray]:
    """An episode file's header fields and a writable copy of its payload values."""
    header, payload = raw.split(b"\n", 1)
    return header.decode("ascii").split(), np.frombuffer(payload, "<f8").copy()


def join_ade2(fields: list[str], values: np.ndarray) -> bytes:
    """An episode file with these header fields and values, its CRC recomputed."""
    payload = np.asarray(values, "<f8").tobytes()
    header = " ".join([*fields[:7], f"{zlib.crc32(payload):08x}"])
    return header.encode("ascii") + b"\n" + payload


def uniform_field(h=16, w=16):
    return SaliencyField(np.full((h, w), 1.0 / (h * w)))


class TestFoveate:
    def test_center_fixation_on_uniform_field_is_rotation_symmetric(self):
        out, degenerate = foveate(uniform_field(), (0.5, 0.5), 0.15)
        assert not degenerate
        assert np.allclose(out.grid, np.rot90(out.grid))
        assert abs(float(out.grid.sum()) - 1.0) <= 1e-9

    def test_huge_sigma_returns_input(self):
        field = normalize_field(
            SaliencyField(np.random.default_rng(0).random((16, 16)))
        )
        out, _ = foveate(field, (0.3, 0.8), 1e6)
        assert np.max(np.abs(out.grid - field.grid)) < 1e-6

    def test_one_hot_field_stays_one_hot(self):
        grid = np.zeros((8, 8))
        grid[2, 5] = 1.0
        out, _ = foveate(SaliencyField(grid), (0.9, 0.1), 0.2)
        assert out.grid[2, 5] == pytest.approx(1.0)
        assert out.grid.sum() == pytest.approx(1.0)

    def test_underflow_returns_uniform_with_flag(self):
        grid = np.zeros((8, 8))
        grid[0, 0] = 1.0
        out, degenerate = foveate(SaliencyField(grid), (1.0, 1.0), 1e-3)
        assert degenerate
        assert np.allclose(out.grid, 1.0 / 64.0)


class TestCombineAttention:
    def setup_method(self):
        rng = np.random.default_rng(5)
        self.a = normalize_field(SaliencyField(rng.random((16, 16))))
        self.b = normalize_field(SaliencyField(rng.random((16, 16))))

    def test_rho_zero_is_bottom_up(self):
        out = combine_attention(self.a, self.b, 0.0)
        assert np.allclose(out.grid, self.a.grid)

    def test_rho_one_is_top_down(self):
        out = combine_attention(self.a, self.b, 1.0)
        assert np.allclose(out.grid, self.b.grid)

    def test_blend_stays_normalized(self):
        out = combine_attention(self.a, self.b, 0.5)
        assert abs(out.grid.sum() - 1.0) <= 1e-9

    def test_idempotent_on_equal_inputs(self):
        for rho in (0.0, 0.25, 0.9):
            out = combine_attention(self.a, self.a, rho)
            assert np.allclose(out.grid, self.a.grid, atol=1e-15)

    def test_bad_rho_rejected(self):
        with pytest.raises(ValueError):
            combine_attention(self.a, self.b, 1.2)


class TestPooling:
    def test_uniform_field_pools_uniform(self):
        out = pool_features(uniform_field(), (8, 8))
        assert np.allclose(out, out[0])

    def test_one_hot_pooling_hand_value(self):
        grid = np.zeros((16, 16))
        grid[3, 5] = 1.0
        out = pool_features(SaliencyField(grid), (8, 8))
        nonzero = out[out > 0]
        assert nonzero.size == 1
        assert nonzero[0] == pytest.approx(0.25)  # mean over the 2x2 block

    def test_mass_consistency(self):
        field = normalize_field(SaliencyField(np.random.default_rng(2).random((16, 16))))
        pooled = pool_features(field, (4, 4))
        # block mean * block size recovers total mass
        assert pooled.sum() * (16 * 16) / (4 * 4) == pytest.approx(field.grid.sum())

    def test_indivisible_dims_rejected(self):
        with pytest.raises(ValueError):
            pool_features(uniform_field(16, 16), (5, 8))


class TestAccidentWeight:
    def test_t_zero_gives_one(self):
        for t_a in (1, 5, 50, 400):
            assert accident_weight(0, t_a) == 1.0

    def test_zero_at_and_after_accident(self):
        assert accident_weight(5, 5) == 0.0
        assert accident_weight(9, 5) == 0.0

    def test_frozen_oracle_value(self):
        # mpmath: (e - 1)/(e^2 - 1)
        assert accident_weight(1, 2) == pytest.approx(0.2689414213699951, abs=1e-15)

    def test_monotone_nonincreasing_and_bounded(self):
        for t_a in (3, 17, 80):
            values = [accident_weight(t, t_a) for t in range(0, t_a + 5)]
            assert all(0.0 <= v <= 1.0 for v in values)
            assert all(a >= b for a, b in zip(values, values[1:]))

    def test_large_t_a_does_not_overflow(self):
        w = accident_weight(10, 5000)
        assert 0.0 < w < 1.0 and math.isfinite(w)


class TestRewardAccident:
    def test_early_true_alarm_full_reward(self):
        assert reward_accident(0.8, 0.5, 1, 0, 40) == 1.0

    def test_alarm_at_accident_time_earns_nothing(self):
        assert reward_accident(0.8, 0.5, 1, 40, 40) == 0.0

    def test_false_alarm_earns_nothing(self):
        assert reward_accident(0.8, 0.5, 0, 3, None) == 0.0

    def test_correct_rejection_earns_one_every_frame(self):
        for t in (0, 10, 99):
            assert reward_accident(0.2, 0.5, 0, t, None) == 1.0

    def test_missed_positive_earns_nothing(self):
        assert reward_accident(0.2, 0.5, 1, 3, 40) == 0.0


class TestRewardFixation:
    def test_exact_hit_after_accident(self):
        assert reward_fixation((0.3, 0.3), (0.3, 0.3), 50, 40, 0.08, "after_accident") == 1.0

    def test_inactive_before_accident(self):
        assert reward_fixation((0.3, 0.3), (0.3, 0.3), 40, 40, 0.08, "after_accident") == 0.0
        assert reward_fixation((0.1, 0.1), (0.9, 0.9), 10, 40, 0.08, "after_accident") == 0.0

    def test_frozen_oracle_value_at_eta_distance(self):
        eta = 0.08
        d = math.sqrt(eta)
        r = reward_fixation((0.5, 0.5), (0.5 + d, 0.5), 50, 40, eta, "after_accident")
        assert r == pytest.approx(0.36787944117144233, abs=1e-15)

    def test_squares_the_distance_exactly(self):
        # glibc's pow(dx, 2.0) is one ulp above the exact square here, and the
        # ulp survives into r_F at eta = 0.5; dx * dx is correctly rounded.
        p_hat, p, eta = (0.8951476257501378, 0.5), (0.21476951109943876, 0.5), 0.5
        dx = p_hat[0] - p[0]
        square = float(Fraction(dx) ** 2)  # the exact square, rounded once
        assert square == 0.4629143788956398
        assert reward_fixation(p_hat, p, 50, 40, eta, "after_accident") == math.exp(-square / eta)

    def test_before_accident_window_flips_indicator(self):
        r_pre = reward_fixation((0.3, 0.3), (0.3, 0.3), 10, 40, 0.08, "before_accident")
        r_post = reward_fixation((0.3, 0.3), (0.3, 0.3), 50, 40, 0.08, "before_accident")
        assert r_pre == 1.0 and r_post == 0.0

    def test_negative_episode_window_rule(self):
        assert not fixation_window_active(10, None, "after_accident")
        assert fixation_window_active(10, None, "before_accident")


class TestGenerateEpisode:
    def test_deterministic_per_seed(self):
        cfg = EnvConfig()
        a = generate_episode(cfg, 4)
        b = generate_episode(cfg, 4)
        assert a.y == b.y and a.t_a == b.t_a
        assert np.array_equal(a.fixation_track, b.fixation_track)
        assert all(np.array_equal(x.grid, y.grid) for x, y in zip(a.frames, b.frames))

    def _episode_with_label(self, cfg, label, start=0):
        for seed in range(start, start + 200):
            ep = generate_episode(cfg, seed)
            if ep.y == label:
                return ep
        raise AssertionError(f"no episode with label {label} found")

    def test_three_frame_positives_all_crash_at_frame_two(self):
        """ceil(0.6 * 3) = 2 and floor(0.9 * 3) = 2: frame 2 is the one accident frame."""
        cfg = EnvConfig(episode_len=3)
        assert cfg.t_a_bounds == (2, 2)
        positives = [ep for ep in (generate_episode(cfg, s) for s in range(40)) if ep.y]
        assert positives and all(ep.t_a == 2 for ep in positives)

    def test_negative_episode_has_no_blob_and_is_stationary(self):
        cfg = EnvConfig()
        ep = self._episode_with_label(cfg, 0)
        assert ep.t_a is None
        early = np.mean([f.grid for f in ep.frames[:10]], axis=0)
        late = np.mean([f.grid for f in ep.frames[-10:]], axis=0)
        assert np.max(np.abs(early - late)) < 0.02

    def test_positive_episode_blob_mass_strictly_increases(self):
        cfg = EnvConfig()
        for start in (0, 200, 400):
            ep = self._episode_with_label(cfg, 1, start)
            onset = blob_onset(ep.t_a)
            # locate the blob from the final ramp frame's argmax
            peak = np.unravel_index(np.argmax(ep.frames[ep.t_a].grid), ep.grid_shape)
            xs, ys = cell_centers(*ep.grid_shape)
            cx, cy = xs[peak], ys[peak]
            disc = (xs - cx) ** 2 + (ys - cy) ** 2 <= (3.0 * BLOB_SIGMA) ** 2
            masses = [float(ep.frames[t].grid[disc].sum()) for t in range(onset, ep.t_a + 1)]
            assert all(a < b for a, b in zip(masses, masses[1:]))

    def test_positive_fixation_drifts_to_blob(self):
        cfg = EnvConfig()
        ep = self._episode_with_label(cfg, 1)
        peak = np.unravel_index(np.argmax(ep.frames[ep.t_a].grid), ep.grid_shape)
        xs, ys = cell_centers(*ep.grid_shape)
        blob = np.array([xs[peak], ys[peak]])
        start_dist = np.linalg.norm(ep.fixation_track[0] - blob)
        end_dist = np.linalg.norm(ep.fixation_track[ep.t_a] - blob)
        assert end_dist < start_dist
        assert end_dist < 0.1


def step_one(env, a, px, py):
    """Step a group of one with the dual action (a, (px, py))."""
    return env.step(np.array([[a, px, py]]))


class TestEnvRolloutMdp:
    def setup_method(self):
        self.cfg = EnvConfig()

    def test_reset_shape_and_determinism(self):
        ep = generate_episode(self.cfg, 1)
        env = AccidentEnv([ep], self.cfg)
        obs1 = env.reset()
        obs2 = AccidentEnv([ep], self.cfg).reset()
        assert obs1.shape == (1, self.cfg.obs_dim)
        assert np.array_equal(obs1, obs2)
        assert env.t == 0

    def test_step_advances_frame_index(self):
        ep = generate_episode(self.cfg, 1)
        env = AccidentEnv([ep], self.cfg)
        env.reset()
        result = step_one(env, 0.5, 0.5, 0.5)
        assert env.t == 1
        assert result.next_obs is env.observation

    def test_full_rollout_has_length_minus_one_steps(self):
        ep = generate_episode(self.cfg, 2)
        env = AccidentEnv([ep], self.cfg)
        env.reset()
        steps = 0
        while not env.done:
            result = step_one(env, 0.0, 0.5, 0.5)
            steps += 1
        assert steps == ep.length - 1
        assert result.done
        with pytest.raises(RuntimeError):
            step_one(env, 0.0, 0.5, 0.5)

    def _positive_episode(self):
        for seed in range(100):
            ep = generate_episode(self.cfg, seed)
            if ep.y == 1:
                return ep
        raise AssertionError("no positive episode")

    def test_constant_alarm_traces_the_weight_schedule(self):
        ep = self._positive_episode()
        env = AccidentEnv([ep], self.cfg)
        env.reset()
        t = 0
        while not env.done:
            result = step_one(env, 1.0, 0.5, 0.5)
            expected = accident_weight(t, ep.t_a) if t < ep.t_a else 0.0
            assert result.r_A.shape == (1,)
            assert result.r_A[0] == pytest.approx(expected, abs=1e-15)
            t += 1

    def test_perfect_fixation_earns_full_post_accident_reward(self):
        ep = self._positive_episode()
        env = AccidentEnv([ep], self.cfg)
        env.reset()
        while not env.done:
            t = env.t
            result = step_one(env, 0.0, *ep.fixation_track[t])
            if t > ep.t_a:
                assert result.r_F[0] == 1.0
            else:
                assert result.r_F[0] == 0.0

    def test_rollout_determinism(self):
        ep = generate_episode(self.cfg, 3)
        actions = np.random.default_rng(0).uniform(0, 1, (ep.length - 1, 3))

        def run():
            env = AccidentEnv([ep], self.cfg)
            env.reset()
            return [env.step(act[None]) for act in actions]

        first, second = run(), run()
        for r1, r2 in zip(first, second):
            assert r1.r_A == r2.r_A and r1.r_F == r2.r_F
            assert np.array_equal(r1.next_obs, r2.next_obs)

    def test_observation_entries_within_unit_interval(self):
        ep = generate_episode(self.cfg, 6)
        env = AccidentEnv([ep], self.cfg)
        obs = env.reset()
        rng = np.random.default_rng(8)
        while not env.done:
            assert np.all(obs >= 0.0) and np.all(obs <= 1.0)
            obs = env.step(rng.uniform(0, 1, (1, 3))).next_obs

    def test_each_step_returns_a_new_observation(self):
        ep = generate_episode(self.cfg, 4)
        env = AccidentEnv([ep], self.cfg)
        before = env.reset()
        kept = before.copy()
        after = step_one(env, 0.5, 0.2, 0.8).next_obs
        assert after is not before
        assert np.array_equal(before, kept)

    @pytest.mark.parametrize(
        "bad,message",
        [
            ((1.5, 0.5, 0.5), r"accident score must be in \[0, 1\], got 1.5"),
            ((-0.5, 0.5, 0.5), r"accident score must be in \[0, 1\], got -0.5"),
            ((np.nan, 0.5, 0.5), r"accident score must be in \[0, 1\], got nan"),
            ((0.5, -0.1, 0.5), r"fixation must lie in \[0, 1\]\^2, got \(-0.1, 0.5\)"),
            ((0.5, 0.5, 1.2), r"fixation must lie in \[0, 1\]\^2, got \(0.5, 1.2\)"),
            ((0.5, 0.5, np.nan), r"fixation must lie in \[0, 1\]\^2, got \(0.5, nan\)"),
            ((0.5, np.nan, 0.5), r"fixation must lie in \[0, 1\]\^2, got \(nan, 0.5\)"),
            ((np.nan, np.nan, 0.5), r"accident score must be in \[0, 1\], got nan"),
        ],
    )
    def test_step_rejects_out_of_range_or_nan_actions(self, bad, message):
        episodes = [generate_episode(self.cfg, seed) for seed in range(3)]
        env = AccidentEnv(episodes, self.cfg)
        env.reset()
        actions = np.full((3, 3), 0.5)
        actions[1] = bad
        with pytest.raises(ValueError, match=message):
            env.step(actions)
        assert env.t == 0, "a rejected step must not advance the group"

    @pytest.mark.parametrize(
        "first,later,message",
        [
            ((0.5, 1.5, 0.5), (2.0, 0.5, 0.5), r"fixation must lie .*, got \(1.5, 0.5\)$"),
            ((np.nan, 0.5, 0.5), (0.5, 0.5, -1.0), r"accident score .*, got nan$"),
            ((-0.5, 0.5, 0.5), (-2.0, 0.5, 0.5), r"accident score .*, got -0.5$"),
        ],
    )
    def test_step_names_the_first_bad_row(self, first, later, message):
        env = AccidentEnv([generate_episode(self.cfg, seed) for seed in range(4)], self.cfg)
        env.reset()
        actions = np.full((4, 3), 0.5)
        actions[1], actions[3] = first, later
        with pytest.raises(ValueError, match=message):
            env.step(actions)

    @pytest.mark.parametrize("shape", [(3,), (1, 3), (2, 4), (2, 3, 1)])
    def test_step_rejects_actions_of_another_shape(self, shape):
        env = AccidentEnv([generate_episode(self.cfg, s) for s in range(2)], self.cfg)
        env.reset()
        with pytest.raises(ValueError, match=r"shape \[2, 3\]"):
            env.step(np.full(shape, 0.5))


class TestEpisodeFile:
    def test_round_trip_lossless(self, tmp_path):
        cfg = EnvConfig(episode_len=30)
        ep = generate_episode(cfg, 9)
        path = tmp_path / "ep.ade"
        write_episode_file(ep, path)
        loaded = load_episode_file(path)
        assert loaded.y == ep.y and loaded.t_a == ep.t_a and loaded.fps == ep.fps
        assert np.array_equal(loaded.fixation_track, ep.fixation_track)
        for a, b in zip(loaded.frames, ep.frames):
            assert np.array_equal(a.grid, b.grid)

    def test_rewrite_is_byte_identical(self, tmp_path):
        cfg = EnvConfig(episode_len=20)
        ep = generate_episode(cfg, 10)
        p1, p2 = tmp_path / "a.ade", tmp_path / "b.ade"
        write_episode_file(ep, p1)
        write_episode_file(load_episode_file(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_out_of_range_fixation_names_frame(self, tmp_path):
        cfg = EnvConfig(episode_len=10)
        path = tmp_path / "ep.ade"
        write_episode_file(generate_episode(cfg, 11), path)
        fields, values = split_ade2(path.read_bytes())
        values[cfg.episode_len * 16 * 16 + 2 * 3] = 1.5  # p_x of frame 3
        path.write_bytes(join_ade2(fields, values))
        with pytest.raises(EpisodeFormatError) as info:
            load_episode_file(path)
        message = str(info.value)
        assert message.startswith(f"{path}: frame 3: fixation (1.5, ")
        assert message.endswith(") outside [0, 1]^2")

    def test_truncated_final_record_rejected(self, tmp_path):
        path = tmp_path / "ep.ade"
        write_episode_file(generate_episode(EnvConfig(episode_len=10), 12), path)
        path.write_bytes(path.read_bytes()[:-20])
        with pytest.raises(EpisodeFormatError) as info:
            load_episode_file(path)
        assert str(info.value) == (
            f"{path}: payload is {8 * 10 * 258 - 20} bytes, expected {8 * 10 * 258} "
            f"(8*T*(H*W+2); truncated or extended file)"
        )

    def test_missing_frames_rejected(self, tmp_path):
        """A header that counts 10 frames over the payload of 8 frames."""
        path = tmp_path / "ep.ade"
        write_episode_file(generate_episode(EnvConfig(episode_len=8), 13), path)
        header, payload = path.read_bytes().split(b"\n", 1)
        header = header.replace(b"ADE2 16 16 8 ", b"ADE2 16 16 10 ", 1)
        path.write_bytes(header + b"\n" + payload)
        with pytest.raises(EpisodeFormatError) as info:
            load_episode_file(path)
        assert str(info.value) == (
            f"{path}: payload is {8 * 8 * 258} bytes, expected {8 * 10 * 258} "
            f"(8*T*(H*W+2); truncated or extended file)"
        )

    def test_extended_file_rejected(self, tmp_path):
        path = tmp_path / "ep.ade"
        write_episode_file(generate_episode(EnvConfig(episode_len=10), 12), path)
        path.write_bytes(path.read_bytes() + struct.pack("<d", 0.5))
        with pytest.raises(EpisodeFormatError) as info:
            load_episode_file(path)
        assert str(info.value) == (
            f"{path}: payload is {8 * 10 * 258 + 8} bytes, expected {8 * 10 * 258} "
            f"(8*T*(H*W+2); truncated or extended file)"
        )

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "ep.ade"
        path.write_text("XYZ1 16 16 10 10 0 -1 00000000\n")
        with pytest.raises(EpisodeFormatError) as info:
            load_episode_file(path)
        assert str(info.value) == (
            f"{path}: line 1: expected 'ADE2 <H> <W> <T> <fps> <y> <t_a|-1> <crc32>'"
        )

    def test_text_format_file_names_its_tag(self, tmp_path):
        path = tmp_path / "ep.ade"
        path.write_text("ADE1 1 1 1 10 0 -1\nF 0 1 0.5 0.5\n")
        with pytest.raises(EpisodeFormatError) as info:
            load_episode_file(path)
        assert str(info.value) == (
            f"{path}: line 1: ADE1 is the retired text episode format; this reader reads "
            f"ADE2 (regenerate the files with `crashrl gen-data`)"
        )

    def _with_header(self, tmp_path, fps, y, t_a):
        """A generated 10-frame episode file whose header carries fps, y and t_a."""
        path = tmp_path / "e3.ade"
        write_episode_file(generate_episode(EnvConfig(episode_len=10), 14), path)
        header, payload = path.read_bytes().split(b"\n", 1)
        fields = header.decode("ascii").split()
        fields[4:7] = [fps, y, t_a]
        path.write_bytes(" ".join(fields).encode("ascii") + b"\n" + payload)
        return path

    @pytest.mark.parametrize("y", ["0", "1"])
    def test_accident_frame_below_minus_one_rejected(self, tmp_path, y):
        path = self._with_header(tmp_path, "10", y, "-7")
        message = r"e3\.ade: line 1: t_a must be -1 \(no accident\) or a frame index, got -7"
        with pytest.raises(EpisodeFormatError, match=message):
            load_episode_file(path)

    @pytest.mark.parametrize(
        "fps, y, t_a, message",
        [
            ("10", "2", "-1", "label must be 0 or 1, got 2"),
            ("10", "1", "10", "positive episode requires 0 < t_a < 10, got 10"),
            ("10", "1", "-1", "positive episode requires 0 < t_a < 10, got None"),
            ("10", "0", "4", "negative episode must not carry an accident frame"),
            ("0", "0", "-1", "fps must be finite and > 0, got 0.0"),
            ("nan", "0", "-1", "fps must be finite and > 0, got nan"),
            ("ten", "0", "-1", "malformed header: could not convert string to float: 'ten'"),
        ],
    )
    def test_header_field_errors_name_line_one(self, tmp_path, fps, y, t_a, message):
        path = self._with_header(tmp_path, fps, y, t_a)
        with pytest.raises(EpisodeFormatError) as info:
            load_episode_file(path)
        assert str(info.value) == f"{path}: line 1: {message}"

    def test_header_rule_is_reported_before_a_truncated_payload(self, tmp_path):
        path = self._with_header(tmp_path, "10", "2", "-1")
        path.write_bytes(path.read_bytes()[:-20])
        with pytest.raises(EpisodeFormatError) as info:
            load_episode_file(path)
        assert str(info.value) == f"{path}: line 1: label must be 0 or 1, got 2"

    def test_layout_is_header_line_then_little_endian_float64(self, tmp_path):
        # 0.1 + 0.2 is 0.30000000000000004, 5e-324 the smallest subnormal.
        values = [0.0, 5e-324, 1.0, 0.1 + 0.2]
        saliency = np.array([values, values[::-1]]).reshape(2, 2, 2)
        track = np.array([[0.5, 5e-324], [0.1 + 0.2, 1.0]])
        path = tmp_path / "ep.ade"
        write_episode_file(Episode(saliency, 0, None, track, 10.0), path)
        payload = struct.pack("<12d", *values, *values[::-1], 0.5, 5e-324, 0.1 + 0.2, 1.0)
        header = f"ADE2 2 2 2 {format_float(10.0)} 0 -1 {zlib.crc32(payload):08x}\n"
        assert path.read_bytes() == header.encode("ascii") + payload

    @pytest.mark.parametrize(
        "seed, digest",
        [
            (0, "6ba7e74dddf4f96057a5c20f4aa83b687b6c137cc755d4f1d5d4e87ad365188f"),
            (2, "622ddc6b002422c22b53a2d633044286171db8dd0b0ef27669c147c22db38560"),
        ],
    )
    def test_default_config_file_bytes_are_pinned(self, tmp_path, seed, digest):
        """A negative (seed 0) and a positive (seed 2) default-scale episode file."""
        path = tmp_path / "ep.ade"
        write_episode_file(generate_episode(EnvConfig(), seed), path)
        raw = path.read_bytes()
        assert len(raw) == 206_432
        assert hashlib.sha256(raw).hexdigest() == digest

    def test_changed_payload_byte_fails_the_crc(self, tmp_path):
        path = tmp_path / "ep.ade"
        write_episode_file(generate_episode(EnvConfig(episode_len=10), 18), path)
        raw = bytearray(path.read_bytes())
        want = raw[: raw.index(b"\n")].split()[-1].decode("ascii")
        raw[-100] ^= 0x01  # one bit of a fixation value; the value stays in range
        path.write_bytes(bytes(raw))
        got = zlib.crc32(raw[raw.index(b"\n") + 1 :])
        with pytest.raises(EpisodeFormatError) as info:
            load_episode_file(path)
        assert str(info.value) == (
            f"{path}: payload CRC-32 is {got:08x}, the header says {want}"
        )

    def _edited_header(self, tmp_path, edit):
        """A generated 10-frame 16x16 file with ``edit`` applied to its header line."""
        path = tmp_path / "ep.ade"
        write_episode_file(generate_episode(EnvConfig(episode_len=10), 15), path)
        header, payload = path.read_bytes().split(b"\n", 1)
        path.write_bytes(edit(header) + b"\n" + payload)
        return path

    @pytest.mark.parametrize(
        "lineno, edit, message",
        [
            (1, lambda line: line[:12] + b"\xff" + line[12:], "non-ASCII byte 0xff"),
            # int() reads "1_6" as 16 (and float() reads "1_0" as 10.0).
            (1, lambda line: line.replace(b"ADE2 16 ", b"ADE2 1_6 ", 1),
             "'_' is not allowed in a number"),
            # int() reads Arabic-Indic digits: H = "١٦" would load as 16.
            (1, lambda line: line.replace(b"ADE2 16 ", "ADE2 ١٦ ".encode(), 1),
             "non-ASCII byte 0xd9"),
        ],
    )
    def test_non_ascii_and_underscore_rejected_with_line(self, tmp_path, lineno, edit, message):
        """Only the header is text; a payload byte change fails the CRC instead."""
        path = self._edited_header(tmp_path, edit)
        with pytest.raises(EpisodeFormatError) as info:
            load_episode_file(path)
        assert str(info.value) == f"{path}: line {lineno}: {message}"

    def test_eval_cli_names_the_file_of_a_bad_byte(self, tmp_path, capsys):
        from crashrl.agents import Agent, AgentConfig
        from crashrl.cli import main as cli_main

        data = tmp_path / "data"
        data.mkdir()
        path = data / "ep.ade"
        write_episode_file(generate_episode(EnvConfig(episode_len=10), 15), path)
        raw = bytearray(path.read_bytes())
        raw[-500] ^= 0xFF
        path.write_bytes(bytes(raw))
        checkpoint = tmp_path / "ck.txt"
        Agent(AgentConfig(algo="td3", hidden_dims=(8, 8)), obs_dim=256, seed=0).save(checkpoint)
        code = cli_main([
            "eval", "--algo", "td3", "--hidden", "8,8", "--data", str(data),
            "--checkpoint", str(checkpoint), "--out", str(tmp_path / "out"),
        ])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {path}: payload CRC-32 is ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "header, cell, value, where, message",
        [
            ({5: "2"}, None, None, "line 1", "label must be 0 or 1, got 2"),
            ({5: "1", 6: "0"}, None, None, "line 1",
             "positive episode requires 0 < t_a < 10, got 0"),
            ({4: "inf"}, None, None, "line 1", "fps must be finite and > 0, got inf"),
            ({}, 3 * 256 + 5, math.nan, "frame 3", "saliency values must be finite and >= 0"),
            ({}, 10 * 256 + 2 * 3, 1.5, "frame 3", "fixation (1.5, {py}) outside [0, 1]^2"),
        ],
        ids=["label-2", "t_a-0", "fps-inf", "nan-saliency", "fixation-1.5"],
    )
    def test_eval_cli_rejects_bad_values_at_the_loader(
        self, tmp_path, capsys, header, cell, value, where, message
    ):
        """The rewards and the eval records trust what the loader lets through."""
        from crashrl.agents import Agent, AgentConfig
        from crashrl.cli import main as cli_main

        data = tmp_path / "data"
        data.mkdir()
        path = data / "ep.ade"
        write_episode_file(generate_episode(EnvConfig(episode_len=10), 4), path)
        fields, values = split_ade2(path.read_bytes())
        assert fields[5:7] == ["0", "-1"]  # a negative 10-frame 16x16 episode
        for index, text in header.items():
            fields[index] = text
        if cell is not None:
            values[cell] = value
        path.write_bytes(join_ade2(fields, values))
        checkpoint = tmp_path / "ck.txt"
        Agent(AgentConfig(algo="td3", hidden_dims=(8, 8)), obs_dim=256, seed=0).save(checkpoint)
        code = cli_main([
            "eval", "--algo", "td3", "--hidden", "8,8", "--data", str(data),
            "--checkpoint", str(checkpoint), "--out", str(tmp_path / "out"),
        ])
        message = message.format(py=values[10 * 256 + 2 * 3 + 1])
        # Every --data file is parsed whole before the checkpoint is read (exit 1).
        assert code == 1
        assert capsys.readouterr().err == f"error: {path}: {where}: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_episode_arrays_are_read_only(self, tmp_path):
        path = tmp_path / "ep.ade"
        generated = generate_episode(EnvConfig(episode_len=10), 16)
        write_episode_file(generated, path)
        for episode in (generated, load_episode_file(path)):
            with pytest.raises(ValueError, match="read-only"):
                episode.saliency[0, 0, 0] = 1.0
            with pytest.raises(ValueError, match="read-only"):
                episode.fixation_track[0, 0] = 0.0
            with pytest.raises(ValueError, match="read-only"):
                episode.frames[0].grid[0, 0] = 1.0
        saliency, track = np.full((2, 4, 4), 1 / 16.0), np.full((2, 2), 0.5)
        Episode(saliency, 0, None, track, 10.0)
        assert saliency.flags.writeable and track.flags.writeable  # caller's arrays untouched

    def test_frames_are_views_of_the_saliency_array(self):
        ep = generate_episode(EnvConfig(episode_len=10), 17)
        assert ep.saliency.shape == (10, 16, 16) and ep.saliency.flags.c_contiguous
        assert len(ep.frames) == ep.length
        for t, field in enumerate(ep.frames):
            assert field.frame_index == t and np.shares_memory(field.grid, ep.saliency)
            assert field.grid.tobytes() == ep.saliency[t].tobytes()


class TestEnvConfigValidation:
    def test_defaults_valid(self):
        cfg = EnvConfig()
        assert cfg.obs_dim == 4 * 8 * 8

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            EnvConfig(a_0=0.0)
        with pytest.raises(ValueError):
            EnvConfig(rho=-0.1)
        with pytest.raises(ValueError):
            check_generatable(EnvConfig(pool_h=5))
        with pytest.raises(ValueError):
            EnvConfig(fixation_window="sometimes")

    def test_empty_t_a_range_needs_no_accidents(self):
        with pytest.raises(ValueError, match="t_a range is empty"):
            check_generatable(EnvConfig(episode_len=2))
        cfg = EnvConfig(episode_len=2, accident_prob=0.0)
        check_generatable(cfg)
        assert all(generate_episode(cfg, seed).y == 0 for seed in range(5))


def test_episode_invariants_enforced():
    """The rewards, the eval records and their metrics trust these checks."""
    saliency = np.full((5, 4, 4), 1 / 16.0)
    track = np.full((5, 2), 0.5)
    with pytest.raises(ValueError, match="0 < t_a < 5, got None"):
        Episode(saliency, 1, None, track, 10.0)  # positive needs t_a
    with pytest.raises(ValueError, match="0 < t_a < 5, got 0"):
        Episode(saliency, 1, 0, track, 10.0)  # accident_weight needs t_a > 0
    with pytest.raises(ValueError, match="0 < t_a < 5, got 5"):
        Episode(saliency, 1, 5, track, 10.0)  # t_a must be < length
    with pytest.raises(ValueError, match="must not carry"):
        Episode(saliency, 0, 2, track, 10.0)  # negative must not carry t_a
    with pytest.raises(ValueError, match="label must be 0 or 1, got 2"):
        Episode(saliency, 2, None, track, 10.0)
    for fps in (0.0, -10.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="fps must be finite and > 0"):
            Episode(saliency, 0, None, track, fps)
    outside = track.copy()
    outside[3] = (1.5, 0.2)
    with pytest.raises(ValueError, match=r"^frame 3: fixation \(1\.5, 0\.2\) outside"):
        Episode(saliency, 0, None, outside, 10.0)  # reward_fixation's p
    bad = saliency.copy()
    bad[4, 0, 0] = -1.0
    bad[2, 1, 3] = math.nan
    with pytest.raises(ValueError, match=r"^frame 2: saliency values must be finite and >= 0$"):
        Episode(bad, 0, None, outside, 10.0)  # the first bad frame, whatever its fault


class TestRewardBoundProperties:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @given(
        a=st.floats(0.0, 1.0),
        a_0=st.floats(0.01, 0.99),
        y=st.integers(0, 1),
        t=st.integers(0, 120),
        t_a=st.integers(1, 100),
    )
    @settings(max_examples=300, deadline=None)
    def test_accident_reward_bounded_by_weight(self, a, a_0, y, t, t_a):
        r = reward_accident(a, a_0, y, t, t_a if y else None)
        w = accident_weight(t, t_a) if y else 1.0
        assert 0.0 <= r <= w

    @given(
        px=st.floats(0.0, 1.0), py=st.floats(0.0, 1.0),
        qx=st.floats(0.0, 1.0), qy=st.floats(0.0, 1.0),
        t=st.integers(0, 60), t_a=st.integers(1, 50),
        eta=st.floats(0.001, 1.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_fixation_reward_in_unit_interval(self, px, py, qx, qy, t, t_a, eta):
        r = reward_fixation((px, py), (qx, qy), t, t_a, eta, "after_accident")
        assert 0.0 <= r <= 1.0

    @given(seed=st.integers(0, 10_000), fx=st.floats(0.0, 1.0), fy=st.floats(0.0, 1.0))
    @settings(max_examples=100, deadline=None)
    def test_pipeline_preserves_normalization(self, seed, fx, fy):
        rng = np.random.default_rng(seed)
        field = normalize_field(SaliencyField(rng.random((8, 8))))
        fov, _ = foveate(field, (fx, fy), 0.15)
        assert abs(fov.grid.sum() - 1.0) <= 1e-9
        combined = combine_attention(field, fov, 0.5)
        assert abs(combined.grid.sum() - 1.0) <= 1e-9


def test_env_requires_multi_frame_episode():
    episode = Episode(
        np.full((1, 8, 8), 1 / 64.0), 0, None, np.full((1, 2), 0.5), 10.0, episode_id="one"
    )
    cfg = EnvConfig(grid_h=8, grid_w=8, pool_h=4, pool_w=4)
    with pytest.raises(ValueError, match="^episode 'one': must have at least 2 frames"):
        check_steppable("episode 'one'", episode.saliency.shape, cfg, ValueError)


def test_loader_error_discipline_under_mutation(tmp_path):
    """Payload values set out of range (with the CRC recomputed, so the range
    checks are reached), deleted bytes and truncation either load a valid
    episode or raise EpisodeFormatError; no other exception type escapes."""
    cfg = EnvConfig(grid_h=4, grid_w=4, episode_len=6, pool_h=2, pool_w=2,
                    t_a_frac_lo=0.5, t_a_frac_hi=0.7)
    path = tmp_path / "ep.ade"
    write_episode_file(generate_episode(cfg, 42), path)
    pristine = path.read_bytes()
    fields, values = split_ade2(pristine)
    rng = np.random.default_rng(0)
    replacements = [np.nan, np.inf, -1.0, 1.5, -0.25]
    outcomes = {"ok": 0, "rejected": 0}
    for _ in range(120):
        mode = rng.integers(0, 3)
        if mode == 0:
            i = int(rng.integers(0, len(pristine)))
            raw = pristine[:i] + pristine[i + 1 :]
        elif mode == 1:
            corrupt = values.copy()
            corrupt[int(rng.integers(0, corrupt.size))] = rng.choice(replacements)
            raw = join_ade2(fields, corrupt)
        else:
            raw = pristine[: int(rng.integers(1, len(pristine)))]
        path.write_bytes(raw)
        try:
            episode = load_episode_file(path)
        except EpisodeFormatError:
            outcomes["rejected"] += 1
        else:
            outcomes["ok"] += 1
            assert episode.length == len(episode.frames)
    assert outcomes["rejected"] > 60  # most corruptions must be caught


FUZZ_CFG = EnvConfig(grid_h=4, grid_w=4, episode_len=6, pool_h=2, pool_w=2,
                     t_a_frac_lo=0.5, t_a_frac_hi=0.7)


class TestLoaderFuzz:
    @staticmethod
    def _mutate(draw, raw: bytes) -> bytes:
        """One byte-level mutation: insert, delete, replace, truncate, duplicate a line."""
        kind = draw(st.sampled_from(["insert", "delete", "replace", "truncate", "duplicate"]))
        if kind == "duplicate":
            lines = raw.splitlines(keepends=True) or [b""]
            i = draw(st.integers(0, len(lines) - 1))
            return b"".join(lines[: i + 1] + lines[i:])
        pos = draw(st.integers(0, max(len(raw) - 1, 0)))
        if kind == "truncate":
            return raw[:pos]
        if kind == "delete":
            return raw[:pos] + raw[pos + 1 :]
        byte = bytes([draw(st.integers(0, 255))])
        if kind == "insert":
            return raw[:pos] + byte + raw[pos:]
        return raw[:pos] + byte + raw[pos + 1 :]

    @given(data=st.data())
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_mutated_file_loads_or_names_path_and_line(self, tmp_path, data):
        path = tmp_path / "ep.ade"
        write_episode_file(generate_episode(FUZZ_CFG, 42), path)
        pristine = raw = path.read_bytes()
        for _ in range(data.draw(st.integers(1, 3))):
            raw = self._mutate(data.draw, raw)
        path.write_bytes(raw)
        payload_only = raw != pristine and raw.startswith(pristine[: pristine.index(b"\n") + 1])
        try:
            episode = load_episode_file(path)
        except EpisodeFormatError as exc:
            message = str(exc)
            assert message.startswith(f"{path}: ")
            rest = message[len(f"{path}: "):]
            payload_error = re.fullmatch(
                r"payload is \d+ bytes, expected \d+ \(8\*T\*\(H\*W\+2\); "
                r"truncated or extended file\)"
                r"|payload CRC-32 is [0-9a-f]{8}, the header says \S+",
                rest,
            )
            assert (
                payload_error
                or re.match(r"(line 1|frame \d+): ", rest)
                or rest == "empty file"
            ), message
            assert payload_error or not payload_only, message
        else:
            assert not payload_only, "a changed payload loaded"
            assert episode.saliency.shape == (episode.length, *episode.grid_shape)

    @given(data=st.data())
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_mutated_checkpoint_loads_or_names_path_and_line(self, tmp_path, data):
        from crashrl.agents import Agent, AgentConfig

        cfg = AgentConfig(algo="td3", hidden_dims=(3,))
        path = tmp_path / "ck.txt"
        Agent(cfg, obs_dim=2, seed=5).save(path)
        pristine = raw = path.read_bytes()
        for _ in range(data.draw(st.integers(1, 3))):
            raw = self._mutate(data.draw, raw)
        path.write_bytes(raw)
        payload_only = raw != pristine and raw.startswith(pristine[: pristine.index(b"\n") + 1])
        try:
            agent = Agent.load(path, cfg)
        except ValueError as exc:
            message = str(exc)
            assert message.startswith(f"{path}: ")
            rest = message[len(f"{path}: "):]
            payload_error = re.fullmatch(
                r"payload is \d+ bytes, expected \d+ \(4\*n_values; truncated or extended file\)"
                r"|payload CRC-32 is [0-9a-f]{8}, the header says \S+"
                r"|network \w+_\d: values must be finite \(no NaN/Inf\)",
                rest,
            )
            assert payload_error or rest.startswith("line 1: ") or rest == "empty file", message
            assert payload_error or not payload_only, message
        else:
            assert not payload_only, "a changed payload loaded"
            assert agent.obs_dim == 2
            assert all(np.isfinite(p.flat).all() for p in (agent.actors, agent.target_critics))

    @given(
        saliency=arrays(
            np.float64,
            st.tuples(st.integers(1, 4), st.integers(1, 3), st.integers(1, 3)),
            elements=st.floats(0.0, 1e300, allow_subnormal=True)
            | st.sampled_from([0.0, 5e-324, 2.2250738585072014e-308, 2.225073858507201e-308]),
        ),
        fps=st.floats(5e-324, 1e300),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_round_trip_is_bit_identical(self, tmp_path, saliency, fps, data):
        track = data.draw(arrays(
            np.float64, (saliency.shape[0], 2),
            elements=st.floats(0.0, 1.0, allow_subnormal=True) | st.sampled_from([0.0, 5e-324]),
        ))
        path = tmp_path / "ep.ade"
        write_episode_file(Episode(saliency, 0, None, track, fps), path)
        loaded = load_episode_file(path)
        assert loaded.saliency.tobytes() == saliency.tobytes()
        assert loaded.fixation_track.tobytes() == track.tobytes()
        assert np.float64(loaded.fps).tobytes() == np.float64(fps).tobytes()
