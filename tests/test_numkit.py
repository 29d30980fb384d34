"""numkit: tensors, autodiff, MLP forward/backward, Adam, soft updates."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crashrl.numkit import (
    MlpSpec,
    ParamSet,
    Tensor,
    adam_step,
    backward,
    decode_params,
    encode_params,
    gradient_check,
    init_adam,
    init_params,
    mlp_apply,
    mlp_forward,
    read_params,
    soft_update,
    write_params,
)


def test_tensor_rejects_nonfinite():
    with pytest.raises(ValueError):
        Tensor([1.0, np.nan])
    with pytest.raises(ValueError):
        Tensor([np.inf])


def test_tensor_flat_view_is_row_major():
    t = Tensor([[1.0, 2.0], [3.0, 4.0]])
    assert t.shape == (2, 2)
    assert list(t.data) == [1.0, 2.0, 3.0, 4.0]


def test_paramset_rejects_duplicates_and_bad_names():
    with pytest.raises(ValueError):
        ParamSet([("w", Tensor([1.0])), ("w", Tensor([2.0]))])
    with pytest.raises(ValueError):
        ParamSet([("bad name", Tensor([1.0]))])


class TestInitParams:
    def test_deterministic_for_fixed_seed(self):
        spec = MlpSpec(3, (8, 4), 2)
        a = init_params(spec, seed=11)
        b = init_params(spec, seed=11)
        assert a.equal(b)

    def test_first_weight_shape_forced_by_input_dim(self):
        spec = MlpSpec(3, (5,), 2)
        params = init_params(spec, seed=0)
        assert params["w0"].shape == (3, 5)
        assert params["b0"].shape == (5,)

    def test_different_seeds_differ(self):
        spec = MlpSpec(3, (8,), 2)
        a = init_params(spec, seed=1)
        b = init_params(spec, seed=2)
        assert not a.equal(b)

    def test_bound_and_zero_biases(self):
        spec = MlpSpec(16, (8,), 2)
        params = init_params(spec, seed=5)
        assert np.all(np.abs(params["w0"].array) <= 1.0 / 4.0)
        assert np.all(params["b0"].array == 0.0)


class TestMlpForward:
    def test_zero_params_identity_head_gives_zero(self):
        spec = MlpSpec(4, (6,), 3)
        params = init_params(spec, seed=0).zeros_like()
        y, _ = mlp_forward(params, spec, np.random.default_rng(0).normal(size=(5, 4)))
        assert np.all(y.array == 0.0)

    def test_tanh_head_strictly_inside_open_interval(self):
        spec = MlpSpec(2, (4,), 3, output_activation="tanh")
        params = init_params(spec, seed=0)
        # blow up the output layer to saturate tanh
        params["w1"].array[:] = 1e6
        params["b1"].array[:] = 1e6
        y = mlp_apply(params, spec, np.ones((4, 2)))
        assert np.all(y < 1.0) and np.all(y > -1.0)

    def test_single_affine_layer_hand_value(self):
        spec = MlpSpec(1, (), 1)
        params = ParamSet([("w0", Tensor([[2.0]])), ("b0", Tensor([1.0]))])
        y, _ = mlp_forward(params, spec, [[3.0]])
        assert y.array[0, 0] == 7.0

    def test_shape_mismatch_rejected_with_diagnostic(self):
        spec = MlpSpec(4, (6,), 3)
        params = init_params(spec, seed=0)
        with pytest.raises(ValueError, match="batch, 4"):
            mlp_forward(params, spec, np.zeros((2, 5)))

    def test_forward_matches_apply(self):
        spec = MlpSpec(5, (7, 3), 2, output_activation="tanh")
        params = init_params(spec, seed=9)
        x = np.random.default_rng(1).normal(size=(6, 5))
        y, _ = mlp_forward(params, spec, x)
        assert np.array_equal(y.array, mlp_apply(params, spec, x))


class TestBackward:
    def test_constant_output_gives_zero_parameter_gradient(self):
        spec = MlpSpec(3, (4,), 2)
        params = init_params(spec, seed=2)
        # dead first layer: zero weights/bias, relu output 0 -> w0 grad zero
        params["w0"].array[:] = 0.0
        x = np.random.default_rng(0).normal(size=(2, 3))
        _, tape = mlp_forward(params, spec, x)
        param_grads, _ = backward(tape, np.ones((2, 2)))
        assert np.all(param_grads["w0"].array == 0.0)

    def test_doubling_upstream_doubles_gradients(self):
        spec = MlpSpec(3, (4,), 2)
        params = init_params(spec, seed=3)
        x = np.random.default_rng(4).normal(size=(2, 3))
        up = np.random.default_rng(5).normal(size=(2, 2))
        _, tape1 = mlp_forward(params, spec, x)
        p1, x1 = backward(tape1, up)
        _, tape2 = mlp_forward(params, spec, x)
        p2, x2 = backward(tape2, 2.0 * up)
        for name, _ in p1:
            assert np.allclose(2.0 * p1[name].array, p2[name].array)
        assert np.allclose(2.0 * x1.array, x2.array)

    def test_input_gradient_of_affine_map(self):
        spec = MlpSpec(1, (), 1)
        params = ParamSet([("w0", Tensor([[2.0]])), ("b0", Tensor([1.0]))])
        _, tape = mlp_forward(params, spec, [[3.0]])
        param_grads, input_grad = backward(tape, [[1.0]])
        assert input_grad.array[0, 0] == 2.0
        assert param_grads["w0"].array[0, 0] == 3.0
        assert param_grads["b0"].array[0] == 1.0


class TestGradientCheck:
    def test_random_two_layer_net(self):
        spec = MlpSpec(4, (8, 8), 3, output_activation="tanh")
        assert gradient_check(spec, seed=0, probes=60) < 1e-4

    def test_linear_net_near_machine_precision(self):
        spec = MlpSpec(3, (), 2)
        assert gradient_check(spec, seed=1, probes=11) < 1e-9

    def test_twenty_random_specs(self):
        rng = np.random.default_rng(123)
        for trial in range(20):
            widths = tuple(rng.choice([4, 8, 16], size=rng.integers(1, 3)))
            spec = MlpSpec(
                int(rng.integers(2, 6)),
                widths,
                int(rng.integers(1, 4)),
                output_activation=str(rng.choice(["identity", "tanh"])),
            )
            assert gradient_check(spec, seed=trial, probes=25) < 1e-4


class TestAdam:
    def test_zero_gradient_leaves_params_fixed(self):
        params = ParamSet([("w", Tensor([[1.0, -2.0]]))])
        before = params.copy()
        state = init_adam(params)
        updated, new_state = adam_step(params, params.zeros_like(), state)
        assert updated.equal(before)
        assert new_state.t == 1

    def test_first_step_magnitude(self):
        params = ParamSet([("w", Tensor([0.0]))])
        grads = ParamSet([("w", Tensor([1.0]))])
        state = init_adam(params, alpha=0.001)
        updated, _ = adam_step(params, grads, state)
        # bias-corrected m_hat = v_hat = 1 on step one
        assert updated["w"].array[0] == pytest.approx(-0.00099999999, abs=1e-15)

    def test_two_zero_grad_steps_keep_moments_zero(self):
        params = ParamSet([("w", Tensor([3.0]))])
        before = params.copy()
        state = init_adam(params)
        zero = params.zeros_like()
        p1, s1 = adam_step(params, zero, state)
        p2, s2 = adam_step(p1, zero, s1)
        assert np.all(s2.m["w"].array == 0.0)
        assert np.all(s2.v["w"].array == 0.0)
        assert p2.equal(before)
        assert s2.t == 2


class TestSoftUpdate:
    def test_tau_one_copies_online(self):
        target = ParamSet([("w", Tensor([0.0, 1.0]))])
        online = ParamSet([("w", Tensor([2.0, -3.0]))])
        assert soft_update(target, online, 1.0).equal(online)

    def test_tau_zero_keeps_target(self):
        target = ParamSet([("w", Tensor([0.0, 1.0]))])
        online = ParamSet([("w", Tensor([2.0, -3.0]))])
        before = target.copy()
        assert soft_update(target, online, 0.0).equal(before)

    def test_small_tau_value(self):
        target = ParamSet([("w", Tensor([0.0]))])
        online = ParamSet([("w", Tensor([1.0]))])
        out = soft_update(target, online, 0.005)
        assert out["w"].array[0] == pytest.approx(0.005, abs=1e-18)

    def test_tau_out_of_range_rejected(self):
        target = ParamSet([("w", Tensor([0.0]))])
        with pytest.raises(ValueError):
            soft_update(target, target, 1.5)

    @given(
        tau=st.floats(0.0, 1.0),
        t0=st.floats(-10, 10),
        on=st.floats(-10, 10),
    )
    @settings(max_examples=200, deadline=None)
    def test_contraction_toward_online(self, tau, t0, on):
        target = ParamSet([("w", Tensor([t0]))])
        online = ParamSet([("w", Tensor([on]))])
        out = soft_update(target, online, tau)
        lhs = abs(out["w"].array[0] - on)
        rhs = (1.0 - tau) * abs(t0 - on)
        assert lhs <= rhs + 1e-12


class TestCheckpointFormat:
    def test_round_trip_bit_exact(self, tmp_path):
        spec = MlpSpec(3, (5,), 2, output_activation="tanh")
        params = init_params(spec, seed=77)
        path = tmp_path / "params.txt"
        write_params(params, path)
        loaded = read_params(path)
        assert loaded.equal(params)
        # byte-identical re-encode
        assert encode_params(loaded) == encode_params(params)

    def test_awkward_floats_survive(self, tmp_path):
        params = ParamSet([("w", Tensor([0.1, 1e-300, 1.7976931348623157e308, -0.0]))])
        text = encode_params(params)
        assert decode_params(text).equal(params)

    def test_truncated_record_rejected(self, tmp_path):
        params = ParamSet([("w", Tensor([[1.0, 2.0]]))])
        text = encode_params(params)
        broken = "\n".join(text.splitlines()[:-1]) + "\n" if text.count("\n") > 1 else "NKP1 1\n"
        with pytest.raises(ValueError):
            decode_params(broken)

    def test_value_count_mismatch_named(self):
        with pytest.raises(ValueError, match="expects 2 values"):
            decode_params("NKP1 1\nw 1 2 0.5")


def test_exported_ops_are_deterministic():
    spec = MlpSpec(4, (6, 6), 2, output_activation="tanh")
    params = init_params(spec, seed=13)
    x = np.random.default_rng(21).normal(size=(3, 4))
    y1, tape1 = mlp_forward(params, spec, x)
    y2, tape2 = mlp_forward(params, spec, x)
    assert np.array_equal(y1.array, y2.array)
    up = np.ones((3, 2))
    (g1, x1), (g2, x2) = backward(tape1, up), backward(tape2, up)
    for name, _ in g1:
        assert np.array_equal(g1[name].array, g2[name].array)
    assert np.array_equal(x1.array, x2.array)
