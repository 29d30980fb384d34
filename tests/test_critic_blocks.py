"""The two block forms restate the concatenated-input math, up to float32 rounding.

``compute_targets`` gives the target critics their input as two blocks, the
next states s' shared by every candidate and each candidate's action a_j,
and forms s' @ W_s + a_j @ W_a where the concatenated form computes
[s', a_j] @ W_0. The actor phase asks ``backprop`` for the critics' input
gradient of the action block alone, g @ W_a^T, where the full gradient's
last 3 columns are the same dot products. Both sums run in another order,
so the bits can differ. Each test bounds the difference by the classical
worst case of float32 dot products, fixed before any run: two values of one
sum of n products, rounded in any two orders, lie within
2 * gamma_n * sum_i |x_i * w_i| of each other, gamma_n = n*u / (1 - n*u),
u = eps32 / 2. Through the layers above the first, the bound grows as the
differences pass each layer's |W| (relu never widens them) plus that
layer's own two roundings. Taking W_a one row off, in either form, fails
every case.

Cases: the desk-scale (C6) and default critic shapes, K = 1 and 2 critics,
J = 1 and 2 candidates.
"""

import numpy as np
import pytest

from crashrl.numkit import MlpSpec, Net, init_params, mlp_graph
from crashrl.numkit import autodiff as ad

ACTION = 3
SHAPES = {
    # (critic spec, batch)
    "c6": (MlpSpec(32 + ACTION, (32, 32), 1), 64),
    "default": (MlpSpec(256 + ACTION, (64, 64), 1), 256),
}
U32 = np.finfo(np.float32).eps / 2  # float32's unit roundoff


def gamma(n):
    return n * U32 / (1.0 - n * U32)


def critics(spec, k):
    return Net(spec, np.concatenate([init_params(spec, seed=30 + j).flat for j in range(k)]))


def blocks(rng, spec, batch, j):
    """Next states [B, n_s] and J candidate actions [J, 1, B, 3], in [0, 1]
    as the replay buffer's features and the actors' actions are."""
    s = rng.uniform(0.0, 1.0, (batch, spec.input_dim - ACTION)).astype(np.float32)
    a = rng.uniform(0.0, 1.0, (j, 1, batch, ACTION)).astype(np.float32)
    return s, a


def concatenated(s, a):
    return np.concatenate([np.broadcast_to(s, (*a.shape[:-1], s.shape[-1])), a], axis=-1)


def forward_bound(net, cat_record, block_record):
    """Entrywise bound on |block output - concatenated output| (float64).

    Layer 0 sums n + 1 terms (the bias included) in two orders. Each layer
    above takes inputs h and h' that differ by at most the bound below it,
    so its outputs differ by at most that bound through |W| plus one
    rounding of each side: gamma_{m+1} * ((|h| + |h'|) @ |W| + 2 |b|).
    """
    w0, b0 = (np.abs(v.astype(np.float64)) for v in net.layers[0])
    x = np.abs(cat_record.inputs[0].astype(np.float64))
    bound = 2.0 * gamma(w0.shape[-2] + 1) * (x @ w0 + b0)
    for i in range(1, len(net.layers)):
        w, b = (np.abs(v.astype(np.float64)) for v in net.layers[i])
        h = np.abs(cat_record.inputs[i].astype(np.float64))
        h_block = np.abs(block_record.inputs[i].astype(np.float64))
        bound = bound @ w + gamma(w.shape[-2] + 1) * ((h + h_block) @ w + 2.0 * b)
    return bound


def layer0_output_grad(net, record, upstream):
    """The gradient reaching layer 0's output: backprop's chain rule down to it."""
    g = upstream
    for i in reversed(range(1, len(net.layers))):
        g = g @ net.layers[i][0].swapaxes(-1, -2)
        g *= record.inputs[i] > 0
    return g


CASES = [
    pytest.param(shape, k, j, id=f"{shape}-K{k}-J{j}")
    for shape in SHAPES
    for k in (1, 2)
    for j in (1, 2)
]


@pytest.mark.parametrize("shape,k,j", CASES)
def test_block_input_values_equal_the_concatenated_input_values(shape, k, j):
    spec, batch = SHAPES[shape]
    net = critics(spec, k)
    s, a = blocks(np.random.default_rng(k * 10 + j), spec, batch, j)
    q_block, block_record = mlp_graph(net, (s, a))
    q_cat, cat_record = mlp_graph(net, concatenated(s, a))
    assert q_block.shape == q_cat.shape == (j, k, batch, 1)
    bound = forward_bound(net, cat_record, block_record)
    diff = np.abs(q_block.astype(np.float64) - q_cat)
    assert np.all(diff <= bound)


@pytest.mark.parametrize("shape,k,j", CASES)
def test_action_block_input_gradient_equals_the_full_gradients_last_columns(shape, k, j):
    spec, batch = SHAPES[shape]
    rng = np.random.default_rng(k * 10 + j + 5)
    net = critics(spec, k)
    q, record = mlp_graph(net, concatenated(*blocks(rng, spec, batch, j)))
    upstream = rng.standard_normal(q.shape).astype(np.float32)
    g = layer0_output_grad(net, record, upstream)
    full = ad.backprop(record, upstream, params=False, inputs=True)[1]
    assert full.tobytes() == (g @ net.layers[0][0].swapaxes(-1, -2)).tobytes()
    action = ad.backprop(record, upstream, params=False, inputs=ACTION)[1]
    assert action.shape == (j, k, batch, ACTION)
    # Both are the dot products of g with W_0's 3 action rows.
    w_a = np.abs(net.layers[0][0][:, -ACTION:].astype(np.float64))
    bound = 2.0 * gamma(w_a.shape[-1]) * (np.abs(g.astype(np.float64)) @ w_a.swapaxes(-1, -2))
    diff = np.abs(action.astype(np.float64) - full[..., -ACTION:])
    assert np.all(diff <= bound)


def test_every_column_by_count_is_the_whole_input_gradient_bit_for_bit():
    spec, batch = SHAPES["c6"]
    rng = np.random.default_rng(2)
    net = critics(spec, 2)
    q, record = mlp_graph(net, concatenated(*blocks(rng, spec, batch, 1)))
    upstream = rng.standard_normal(q.shape).astype(np.float32)
    full = ad.backprop(record, upstream, params=False, inputs=True)[1]
    counted = ad.backprop(record, upstream, params=False, inputs=spec.input_dim)[1]
    assert full.tobytes() == counted.tobytes()


def test_bad_blocks_and_column_counts_are_rejected():
    spec, batch = SHAPES["c6"]
    net = critics(spec, 2)
    s, a = blocks(np.random.default_rng(3), spec, batch, 2)
    with pytest.raises(ValueError, match="blocks must be"):
        mlp_graph(net, (s[:-1], a))  # batches differ
    with pytest.raises(ValueError, match="blocks must be"):
        mlp_graph(net, (concatenated(s, a), a))  # no room left for the trailing block
    with pytest.raises(ValueError, match=r"input must have shape \[batch, 4\]"):
        mlp_graph(net, (s[:, 1:], a))  # the trailing block is one column short
    q, record = mlp_graph(net, (s, a))
    with pytest.raises(ValueError, match="not two blocks"):
        ad.backprop(record, np.ones_like(q), params=False, inputs=ACTION)
    q, record = mlp_graph(net, concatenated(s, a))
    for count in (-1, spec.input_dim + 1):
        with pytest.raises(ValueError, match="inputs must name"):
            ad.backprop(record, np.ones_like(q), params=False, inputs=count)
