"""numkit: the parameter layout, MLP forward and backward passes, Adam, soft updates."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crashrl.numkit import (
    MlpSpec,
    Net,
    adam_step,
    init_adam,
    init_params,
    mlp_apply,
    mlp_graph,
    soft_update,
)
from crashrl.agents.agent import deterministic_head
from crashrl.numkit import autodiff as ad
from finite_difference import gradient_check

LINE = MlpSpec(1, (), 1)  # y = w * x + b: the flat array is [[w, b]]


def line(w, b):
    return Net(LINE, np.array([[w, b]], np.float32))


def backprop_mlp(net, x, upstream):
    """Gradients of sum(mlp(x) * upstream) along the gradient phases' path,
    for a one-network ``net`` and its [B, out] ``upstream``.

    Returns (parameter gradients as a Net, input gradient [B, n]).
    """
    _, record = mlp_graph(net, x)
    grads, input_grad = ad.backprop(record, np.asarray(upstream)[None], inputs=True)
    return Net(net.spec, grads), input_grad[0]


def test_tensor_flat_view_is_row_major():
    """Each layer's weight, row-major, then its bias, layer after layer."""
    spec = MlpSpec(2, (2,), 1)
    net = Net(spec, np.arange(1.0, 1.0 + spec.n_values, dtype=np.float32)[None])
    (w0, b0), (w1, b1) = net.layers
    assert isinstance(w0, np.ndarray) and w0.dtype == np.float32
    assert w0.tolist() == [[[1.0, 2.0], [3.0, 4.0]]] and b0.tolist() == [[[5.0, 6.0]]]
    assert w1.tolist() == [[[7.0], [8.0]]] and b1.tolist() == [[[9.0]]]
    assert all(np.shares_memory(t, net.flat) for t in (w0, b0, w1, b1))


@pytest.mark.parametrize("shape", [(29,), (1, 28), (2, 30), (0, 29), (29, 1)])
def test_net_rejects_a_flat_vector_of_another_size(shape):
    with pytest.raises(ValueError, match=r"is not \[K >= 1, 29\]"):
        Net(MlpSpec(3, (4, 2), 1), np.zeros(shape, np.float32))


def test_net_rejects_a_flat_array_that_is_not_c_contiguous():
    with pytest.raises(ValueError, match="C-contiguous"):
        Net(MlpSpec(3, (4, 2), 1), np.zeros((29, 2), np.float32).T)


class TestInitParams:
    def test_deterministic_for_fixed_seed(self):
        spec = MlpSpec(3, (8, 4), 2)
        a = init_params(spec, seed=11)
        b = init_params(spec, seed=11)
        assert np.array_equal(a.flat, b.flat)

    def test_first_weight_shape_forced_by_input_dim(self):
        spec = MlpSpec(3, (5,), 2)
        w, b = init_params(spec, seed=0).layers[0]
        assert w.shape == (1, 3, 5)
        assert b.shape == (1, 1, 5)

    def test_different_seeds_differ(self):
        spec = MlpSpec(3, (8,), 2)
        a = init_params(spec, seed=1)
        b = init_params(spec, seed=2)
        assert not np.array_equal(a.flat, b.flat)

    def test_bound_and_zero_biases(self):
        spec = MlpSpec(16, (8,), 2)
        w, b = init_params(spec, seed=5).layers[0]
        assert np.all(np.abs(w) <= 1.0 / 4.0)
        assert np.all(b == 0.0)


class TestMlpForward:
    def test_zero_params_identity_head_gives_zero(self):
        spec = MlpSpec(4, (6,), 3)
        net = Net(spec, np.zeros((1, spec.n_values), np.float32))
        y = mlp_apply(net, np.random.default_rng(0).normal(size=(5, 4)))
        assert np.all(y == 0.0)

    def test_deterministic_head_clamps_a_saturated_tanh(self):
        """Saturated, tanh rounds to +/-1.0 and the head clamps it inside
        (-1, 1): the action stays above 0. At the top, squash01's float32
        rounding of 1 + (1 - 2^-24) still gives 1.0."""
        spec = MlpSpec(2, (4,), 3)
        net = init_params(spec, seed=0)
        # blow up the output layer to saturate tanh, one column negative
        w, b = net.layers[1]
        w[:] = 1e6
        b[:] = 1e6
        w[..., 1] = b[..., 1] = -1e6
        t, action = deterministic_head(mlp_apply(net, np.ones((4, 2)))[0])
        assert np.all(np.abs(t) == 1.0)
        assert np.all(action[:, 1] == 2.0**-25) and np.all(action[:, [0, 2]] == 1.0)

    def test_single_affine_layer_hand_value(self):
        y = mlp_apply(line(2.0, 1.0), [[3.0]])
        assert y.shape == (1, 1, 1) and y[0, 0, 0] == 7.0

    def test_shape_mismatch_rejected_with_diagnostic(self):
        spec = MlpSpec(4, (6,), 3)
        net = init_params(spec, seed=0)
        with pytest.raises(ValueError, match="batch, 4"):
            mlp_apply(net, np.zeros((2, 5)))

    def test_forward_matches_apply(self):
        spec = MlpSpec(5, (7, 3), 2)
        net = init_params(spec, seed=9)
        x = np.random.default_rng(1).normal(size=(6, 5))
        # Both cast x to the parameters' float32.
        y, _ = mlp_graph(net, x)
        assert np.array_equal(y, mlp_apply(net, x))


class TestBackward:
    def test_constant_output_gives_zero_parameter_gradient(self):
        spec = MlpSpec(3, (4,), 2)
        net = init_params(spec, seed=2)
        # dead first layer: zero weights/bias, relu output 0 -> w0 grad zero
        net.layers[0][0][:] = 0.0
        x = np.random.default_rng(0).normal(size=(2, 3))
        param_grads, _ = backprop_mlp(net, x, np.ones((2, 2)))
        assert np.all(param_grads.layers[0][0] == 0.0)

    def test_doubling_upstream_doubles_gradients(self):
        spec = MlpSpec(3, (4,), 2)
        net = init_params(spec, seed=3)
        x = np.random.default_rng(4).normal(size=(2, 3))
        up = np.random.default_rng(5).normal(size=(2, 2))
        p1, x1 = backprop_mlp(net, x, up)
        p2, x2 = backprop_mlp(net, x, 2.0 * up)
        assert np.allclose(2.0 * p1.flat, p2.flat)
        assert np.allclose(2.0 * x1, x2)

    def test_input_gradient_of_affine_map(self):
        param_grads, input_grad = backprop_mlp(line(2.0, 1.0), [[3.0]], [[1.0]])
        assert input_grad[0, 0] == 2.0
        assert param_grads.flat.tolist() == [[3.0, 1.0]]


class TestGradientCheck:
    def test_random_two_layer_net(self):
        spec = MlpSpec(4, (8, 8), 3)
        assert gradient_check(spec, "tanh", seed=0, probes=60) < 1e-4

    def test_linear_net_near_machine_precision(self):
        spec = MlpSpec(3, (), 2)
        assert gradient_check(spec, "identity", seed=1, probes=11) < 1e-9

    def test_twenty_random_specs(self):
        rng = np.random.default_rng(123)
        for trial in range(20):
            widths = tuple(rng.choice([4, 8, 16], size=rng.integers(1, 3)))
            spec = MlpSpec(int(rng.integers(2, 6)), widths, int(rng.integers(1, 4)))
            head = str(rng.choice(["identity", "tanh"]))
            assert gradient_check(spec, head, seed=trial, probes=25) < 1e-4


class TestAdam:
    def test_zero_gradient_leaves_params_fixed(self):
        net = line(1.0, -2.0)
        before = net.flat.copy()
        state = init_adam(net, alpha=3e-4)
        updated, new_state = adam_step(net, np.zeros_like(net.flat), state)
        assert updated is net and np.array_equal(net.flat, before)
        assert new_state.t == 1

    def test_first_step_magnitude(self):
        net = line(0.0, 0.0)
        state = init_adam(net, alpha=0.001)
        updated, _ = adam_step(net, np.array([[1.0, 0.0]], np.float32), state)
        # bias-corrected m_hat = v_hat = 1 on step one
        assert updated.flat[0, 0] == pytest.approx(-0.00099999999, abs=1e-15)
        assert updated.flat[0, 1] == 0.0

    def test_two_zero_grad_steps_keep_moments_zero(self):
        net = line(3.0, 3.0)
        before = net.flat.copy()
        state = init_adam(net, alpha=3e-4)
        zero = np.zeros_like(net.flat)
        p1, s1 = adam_step(net, zero, state)
        p2, s2 = adam_step(p1, zero, s1)
        assert np.all(s2.m == 0.0)
        assert np.all(s2.v == 0.0)
        assert np.array_equal(p2.flat, before)
        assert s2.t == 2


class TestSoftUpdate:
    def test_tau_one_copies_online(self):
        target, online = line(0.0, 1.0), line(2.0, -3.0)
        assert np.array_equal(soft_update(target, online, 1.0).flat, online.flat)

    def test_tau_zero_keeps_target(self):
        target, online = line(0.0, 1.0), line(2.0, -3.0)
        before = target.flat.copy()
        assert np.array_equal(soft_update(target, online, 0.0).flat, before)

    def test_small_tau_value(self):
        out = soft_update(line(0.0, 0.0), line(1.0, 1.0), 0.005)
        assert out.flat[0, 0] == pytest.approx(0.005, abs=1e-18)

    @given(
        tau=st.floats(0.0, 1.0),
        t0=st.floats(-10, 10),
        on=st.floats(-10, 10),
    )
    @settings(max_examples=200, deadline=None)
    def test_contraction_toward_online(self, tau, t0, on):
        target, online = line(t0, 0.0), line(on, 0.0)
        # the stored float32 values, and float32 rounding (a few ulps of 10)
        t0, on = float(target.flat[0, 0]), float(online.flat[0, 0])
        out = soft_update(target, online, tau)
        lhs = abs(float(out.flat[0, 0]) - on)
        rhs = (1.0 - tau) * abs(t0 - on)
        assert lhs <= rhs + 4 * np.spacing(np.float32(10.0))


def test_exported_ops_are_deterministic():
    spec = MlpSpec(4, (6, 6), 2)
    net = init_params(spec, seed=13)
    x = np.random.default_rng(21).normal(size=(3, 4))
    assert np.array_equal(mlp_apply(net, x), mlp_apply(net, x))
    up = np.ones((3, 2))
    (g1, x1), (g2, x2) = backprop_mlp(net, x, up), backprop_mlp(net, x, up)
    assert np.array_equal(g1.flat, g2.flat)
    assert np.array_equal(x1, x2)
