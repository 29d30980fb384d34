"""MLP specification, initialization and the forward pass.

Networks are plain chains: affine -> relu per hidden layer, then an affine
output head with identity or tanh activation. Parameters are named
``w0, b0, w1, b1, ...`` with weight shape [fan_in, fan_out], stored in that
order in one flat vector (see ``ParamSet``). ``mlp_graph`` is the one
forward pass: it returns the output with a record of what
``autodiff.backprop`` needs to push a loss gradient back into one flat
vector with the parameters' layout, ready for ``adam_step``. ``mlp_apply``,
for acting and for targets, is ``mlp_graph`` without the record. Every
value and gradient has the parameters' dtype: float32 for the networks
``init_params`` makes, float64 for a cast copy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .tensor import ParamSet

OUTPUT_ACTIVATIONS = ("identity", "tanh")


@dataclass(frozen=True)
class MlpSpec:
    """Architecture of one fully connected network: relu hidden layers."""

    input_dim: int
    hidden_dims: tuple[int, ...]
    output_dim: int
    output_activation: str = "identity"

    def __post_init__(self):
        object.__setattr__(self, "hidden_dims", tuple(int(d) for d in self.hidden_dims))
        dims = (self.input_dim, *self.hidden_dims, self.output_dim)
        if any(int(d) < 1 for d in dims):
            raise ValueError(f"all dimensions must be >= 1, got {dims}")
        if self.output_activation not in OUTPUT_ACTIVATIONS:
            raise ValueError(f"unknown output activation {self.output_activation!r}")

    @property
    def layer_dims(self) -> tuple[int, ...]:
        return (self.input_dim, *self.hidden_dims, self.output_dim)

    def param_shapes(self) -> list[tuple[str, tuple[int, ...]]]:
        dims = self.layer_dims
        shapes: list[tuple[str, tuple[int, ...]]] = []
        for i in range(len(dims) - 1):
            shapes.append((f"w{i}", (dims[i], dims[i + 1])))
            shapes.append((f"b{i}", (dims[i + 1],)))
        return shapes


def init_params(spec: MlpSpec, seed: int) -> ParamSet:
    """Uniform weights in [-1/sqrt(fan_in), 1/sqrt(fan_in)], zero biases.

    The draws are float64, rounded once to the parameters' float32.
    """
    rng = np.random.default_rng(seed)
    items = []
    for name, shape in spec.param_shapes():
        if name.startswith("w"):
            bound = 1.0 / np.sqrt(shape[0])
            items.append((name, rng.uniform(-bound, bound, size=shape)))
        else:
            items.append((name, np.zeros(shape)))
    return ParamSet(items)


def tanh_head_bound(dtype) -> np.floating:
    """The largest value below 1 in ``dtype``, which tanh heads are clamped to.

    tanh rounds to exactly +/-1.0 for |x| >~ 9 in float32 (>~ 19 in float64);
    the clamp keeps heads strictly inside (-1, 1).
    """
    scalar = np.dtype(dtype).type
    return np.nextafter(scalar(1), scalar(0))


def mlp_graph(
    params: ParamSet, spec: MlpSpec, x: np.ndarray
) -> tuple[np.ndarray, ad.MlpRecord]:
    """The forward pass: the network's output and its ``MlpRecord``.

    ``x`` is cast to the parameters' dtype, so the pass runs in it. Each
    layer's matmul output is a fresh array, so the bias, relu and tanh act
    on it in place. relu is fmax(a, 0), which maps NaN and -0.0 to +0.0, so
    every entry equals where(a > 0, a, +0.0) bit for bit. (A pre-activation
    is -0.0 only under a -0.0 bias: x @ W + (+0.0) rounds -0.0 to +0.0.)
    The record keeps each layer's input and a tanh head's unclamped tanh.
    """
    h = np.asarray(x, dtype=params["w0"].dtype)
    if h.ndim != 2 or h.shape[1] != spec.input_dim:
        raise ValueError(f"input must have shape [batch, {spec.input_dim}], got {list(h.shape)}")
    inputs = []
    n_layers = len(spec.hidden_dims) + 1
    for i in range(n_layers):
        inputs.append(h)
        h = h @ params[f"w{i}"]
        h += params[f"b{i}"]
        if i < n_layers - 1:
            np.fmax(h, 0.0, out=h)
    tanh = None
    if spec.output_activation == "tanh":
        tanh = np.tanh(h, out=h)
        bound = tanh_head_bound(h.dtype)
        h = np.clip(tanh, -bound, bound)
    return h, ad.MlpRecord(params, inputs, tanh)


def mlp_apply(params: ParamSet, spec: MlpSpec, x: np.ndarray) -> np.ndarray:
    """``mlp_graph``'s output alone, for action selection and targets."""
    return mlp_graph(params, spec, x)[0]

