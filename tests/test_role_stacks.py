"""A stack of K networks computes what K separate networks compute, bit for bit.

``numkit`` runs every role of an agent (its actors, its critics, their
targets) as one ``Net`` stack: one batched forward pass, one chain rule, one
Adam step and one Polyak sync. Each network's slice must keep the bits it
has on its own, NaN payloads and the sign of zero included: the forward and
backward passes are compared with a per-network pass on 2-D arrays
(``reference_forward``, ``reference_backprop``), Adam and the Polyak sync
with one-network stacks. The cases cover K = 1, 2 and 3, a shared input,
per-network inputs and the ``[candidates, 1, B, n]`` inputs the targets and
DARC's acting use, at batch 1, 16 and 256, in the desk-scale (C6) and the
default shapes.
"""

import numpy as np
import pytest

from crashrl.numkit import MlpSpec, Net, adam_step, init_adam, init_params, mlp_graph
from crashrl.numkit import autodiff as ad
from crashrl.numkit import soft_update

SHAPES = {
    # a critic's spec: [features, action] in, one value out
    "c6": MlpSpec(32 + 3, (32, 32), 1),
    "default": MlpSpec(256 + 3, (64, 64), 1),
}
CANDIDATES = 2
NAN = np.array([0x7FC01234], np.uint32).view(np.float32)[0]  # a NaN with a payload


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def stack(spec, k):
    """K networks of ``spec``, with signed zeros among the weights and -0.0 biases."""
    flat = np.concatenate([init_params(spec, seed=10 + j).flat for j in range(k)])
    net = Net(spec, flat)
    for w, b in net.layers:
        w[:, 0, :] = -0.0
        b[..., ::2] = -0.0
    return net


def awkward(rng, shape):
    """Standard normal float32 values with exact and signed zeros, subnormals
    and NaN payloads sprinkled in."""
    x = rng.standard_normal(shape).astype(np.float32)
    flat = x.reshape(-1)
    picks = rng.permutation(flat.size)[: max(4, flat.size // 50)]
    specials = np.array([0.0, -0.0, NAN, np.float32(1e-45)], np.float32)
    flat[picks] = specials[np.arange(picks.size) % 4]
    return x


def alone(net, k):
    """Network k of ``net`` as its own one-network Net, with its own memory."""
    return Net(net.spec, net.flat[k : k + 1].copy())


def layers_2d(spec, flat):
    """One network's (W [fan_in, fan_out], b [fan_out]) views of its flat vector."""
    return [(w[0], b[0, 0]) for w, b in spec.layers(flat[None])]


def reference_forward(spec, flat, x):
    """One network's forward pass on 2-D arrays: its output and each layer's input."""
    layers = layers_2d(spec, flat)
    h, inputs = x, []
    for i, (w, b) in enumerate(layers):
        inputs.append(h)
        h = h @ w
        h += b
        if i < len(layers) - 1:
            np.fmax(h, 0.0, out=h)
    return h, inputs


def reference_backprop(spec, flat, inputs, g):
    """One network's chain rule on 2-D arrays: its flat gradient and dx."""
    layers = layers_2d(spec, flat)
    grads = np.empty_like(flat)
    for i, (dw, db) in reversed(list(enumerate(layers_2d(spec, grads)))):
        np.matmul(inputs[i].T, g, out=dw)
        np.sum(g, axis=0, out=db)
        g_in = g @ layers[i][0].T
        if i > 0:
            g = g_in * (inputs[i] > 0)
    return grads, g_in


def inputs(kind, rng, k, batch, n):
    """The stack's input and network j's input, for each input kind."""
    if kind == "shared":
        x = awkward(rng, (batch, n))
        return x, lambda j: x
    if kind == "per-network":
        x = awkward(rng, (k, batch, n))
        return x, lambda j: x[j]
    x = awkward(rng, (CANDIDATES, 1, batch, n))  # every network values every candidate
    return x, lambda j, c=None: x[c, 0]


CASES = [
    pytest.param(shape, k, kind, batch, id=f"{shape}-K{k}-{kind}-B{batch}")
    for shape in SHAPES
    for k in (1, 2, 3)
    for kind in ("shared", "per-network", "candidates")
    for batch in (1, 16, 256)
]


@pytest.mark.parametrize("shape,k,kind,batch", CASES)
def test_stack_forward_and_backward_equal_separate_networks(shape, k, kind, batch):
    spec = SHAPES[shape]
    rng = np.random.default_rng(batch * 10 + k)
    net = stack(spec, k)
    x, x_of = inputs(kind, rng, k, batch, spec.input_dim)
    out, record = mlp_graph(net, x)
    upstream = awkward(rng, out.shape)
    with_params = kind != "candidates"  # a parameter gradient needs one batch per network
    if not with_params:
        with pytest.raises(ValueError, match="parameter gradients need"):
            ad.backprop(record, upstream)
    flat, dx = ad.backprop(record, upstream, params=with_params, inputs=True)

    slices = [(None, j) for j in range(k)]
    if kind == "candidates":
        slices = [(c, j) for c in range(CANDIDATES) for j in range(k)]
    for c, j in slices:
        where = (j,) if c is None else (c, j)
        x_j = x_of(j) if c is None else x_of(j, c)
        out_j, inputs_j = reference_forward(spec, net.flat[j], x_j)
        assert same_bits(out[where], out_j), where
        flat_j, dx_j = reference_backprop(spec, net.flat[j], inputs_j, upstream[where])
        assert same_bits(dx[where], dx_j), where
        if with_params:
            assert same_bits(flat[j], flat_j), where
        # the one-network stack takes the same path as every stack
        out_1, record_1 = mlp_graph(alone(net, j), x_j)
        assert same_bits(out_1[0], out_j), where
        if with_params:
            assert same_bits(ad.backprop(record_1, upstream[where][None])[0][0], flat_j)


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("k", [1, 2, 3])
def test_stack_adam_and_polyak_equal_separate_networks(shape, k):
    spec = SHAPES[shape]
    rng = np.random.default_rng(k)
    net, target = stack(spec, k), stack(spec, k)
    target.flat[...] = awkward(rng, target.flat.shape)
    target.flat[np.isnan(target.flat)] = -0.0  # a target is finite
    nets = [alone(net, j) for j in range(k)]
    targets = [alone(target, j) for j in range(k)]
    state = init_adam(net, alpha=1e-3, name="critic")
    states = [init_adam(one, alpha=1e-3, name=f"critic_{j}") for j, one in enumerate(nets)]
    for _ in range(4):
        grads = awkward(rng, net.flat.shape)
        grads[np.isnan(grads)] = -0.0  # Adam would stop on a NaN gradient
        adam_step(net, grads, state)
        soft_update(target, net, 0.005)
        for j in range(k):
            adam_step(nets[j], grads[j : j + 1].copy(), states[j])
            soft_update(targets[j], nets[j], 0.005)
    for j in range(k):
        assert same_bits(net.flat[j], nets[j].flat[0])
        assert same_bits(state.m[j], states[j].m[0])
        assert same_bits(state.v[j], states[j].v[0])
        assert same_bits(target.flat[j], targets[j].flat[0])
    assert state.t == states[0].t == 4


def test_non_finite_adam_row_names_its_network():
    spec = SHAPES["c6"]
    net = stack(spec, 3)
    state = init_adam(net, alpha=3e-4, name="critic")
    grads = np.zeros(net.flat.shape, np.float32)
    grads[1, 7] = NAN
    with pytest.raises(ValueError, match=r"^critic_1: Adam update 1 left a parameter"):
        adam_step(net, grads, state)


def test_rows_are_views_and_slices_share_memory():
    net = stack(SHAPES["c6"], 3)
    assert len(net) == 3 and [len(one) for one in net] == [1, 1, 1]
    row, pair = net[2], net[:2]
    assert np.shares_memory(row.flat, net.flat) and np.shares_memory(pair.flat, net.flat)
    row.layers[0][0][0, 1, 0] = 5.0
    assert net.layers[0][0][2, 1, 0] == 5.0
    assert len(pair) == 2 and same_bits(pair.flat, net.flat[:2])
    with pytest.raises(IndexError):
        net[3]


def test_input_must_broadcast_against_the_stack():
    net = stack(SHAPES["c6"], 2)
    message = r"input must have shape \[batch, 35\] or \[\.\.\., 2 or 1, batch, 35\]"
    with pytest.raises(ValueError, match=message):
        mlp_graph(net, np.zeros((3, 4, 35), np.float32))
    with pytest.raises(ValueError, match=r"input must have shape \[batch, 35\]"):
        mlp_graph(net, np.zeros(35, np.float32))
