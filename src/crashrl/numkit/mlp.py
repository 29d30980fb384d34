"""MLP specification, initialization, forward/backward, and gradient checks.

Networks are plain chains: affine -> relu per hidden layer, then an affine
output head with identity or tanh activation. Parameters are named
``w0, b0, w1, b1, ...`` with weight shape [fan_in, fan_out], stored in that
order in one flat vector (see ``ParamSet``). ``lift_params`` makes a graph
leaf of each named view; ``flat_grads`` gathers the leaves' gradients back
into one vector with the same layout, ready for ``adam_step``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import autodiff as ad
from .tensor import ParamSet, Tensor

HIDDEN_ACTIVATIONS = ("relu",)
OUTPUT_ACTIVATIONS = ("identity", "tanh")


@dataclass(frozen=True)
class MlpSpec:
    """Architecture of one fully connected network."""

    input_dim: int
    hidden_dims: tuple[int, ...]
    output_dim: int
    hidden_activation: str = "relu"
    output_activation: str = "identity"

    def __post_init__(self):
        object.__setattr__(self, "hidden_dims", tuple(int(d) for d in self.hidden_dims))
        dims = (self.input_dim, *self.hidden_dims, self.output_dim)
        if any(int(d) < 1 for d in dims):
            raise ValueError(f"all dimensions must be >= 1, got {dims}")
        if self.hidden_activation not in HIDDEN_ACTIVATIONS:
            raise ValueError(f"unknown hidden activation {self.hidden_activation!r}")
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
    """Uniform weights in [-1/sqrt(fan_in), 1/sqrt(fan_in)], zero biases."""
    rng = np.random.default_rng(seed)
    items = []
    for name, shape in spec.param_shapes():
        if name.startswith("w"):
            bound = 1.0 / np.sqrt(shape[0])
            items.append((name, Tensor(rng.uniform(-bound, bound, size=shape))))
        else:
            items.append((name, Tensor.zeros(shape)))
    return ParamSet(items)


def _check_input(spec: MlpSpec, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != spec.input_dim:
        raise ValueError(
            f"input must have shape [batch, {spec.input_dim}], got {list(x.shape)}"
        )
    return x


def mlp_graph(params: Mapping[str, ad.Node], spec: MlpSpec, x: ad.Node) -> ad.Node:
    """Build the forward graph on existing nodes (shared-parameter use)."""
    h = x
    n_layers = len(spec.hidden_dims) + 1
    for i in range(n_layers):
        h = ad.affine(h, params[f"w{i}"], params[f"b{i}"])
        if i < n_layers - 1:
            h = ad.relu(h)
    if spec.output_activation == "tanh":
        h = ad.tanh_head(h)
    return h


def lift_params(params: ParamSet) -> dict[str, ad.Node]:
    """One graph leaf per named tensor, viewing the parameters (no copy)."""
    return {name: ad.lift(tensor.array) for name, tensor in params}


def flat_grads(nodes: Mapping[str, ad.Node]) -> np.ndarray:
    """Gradients of lifted parameters as one flat vector, in ParamSet order.

    Leaves the last backprop did not reach contribute zeros.
    """
    return np.concatenate(
        [
            np.zeros(node.value.size) if node.grad is None else node.grad.reshape(-1)
            for node in nodes.values()
        ]
    )


@dataclass
class Tape:
    """Computation record from one forward pass, sufficient for backward."""

    output: ad.Node
    input: ad.Node
    params: dict[str, ad.Node]
    spec: MlpSpec


def mlp_forward(params: ParamSet, spec: MlpSpec, x) -> tuple[Tensor, Tape]:
    arr = _check_input(spec, x.array if isinstance(x, Tensor) else x)
    x_node = ad.lift(arr)
    param_nodes = lift_params(params)
    out = mlp_graph(param_nodes, spec, x_node)
    return Tensor(out.value), Tape(out, x_node, param_nodes, spec)


def mlp_apply(params: ParamSet, spec: MlpSpec, x: np.ndarray) -> np.ndarray:
    """Tape-free forward pass for action selection and target computation.

    Each layer's matmul output is a fresh array, so the bias, relu and head
    act on it in place.
    """
    h = _check_input(spec, x)
    n_layers = len(spec.hidden_dims) + 1
    for i in range(n_layers):
        h = h @ params[f"w{i}"].array
        h += params[f"b{i}"].array
        if i < n_layers - 1:
            np.maximum(h, 0.0, out=h)
    if spec.output_activation == "tanh":
        np.tanh(h, out=h)
        np.clip(h, -ad.TANH_HEAD_BOUND, ad.TANH_HEAD_BOUND, out=h)
    return h


def backward(tape: Tape, upstream) -> tuple[ParamSet, Tensor]:
    """Gradients of sum(output * upstream): (per parameter, for the input)."""
    arr = upstream.array if isinstance(upstream, Tensor) else np.asarray(upstream)
    ad.backprop(tape.output, arr)
    x_grad = tape.input.grad
    if x_grad is None:
        x_grad = np.zeros_like(tape.input.value)
    grads = ParamSet.view(tape.spec.param_shapes(), flat_grads(tape.params))
    return grads, Tensor(x_grad)


# Central-difference step and the kink-exclusion margin for relu nets.
FD_STEP = 1e-5
RELU_KINK_MARGIN = 1e-3


def _hidden_preacts(params: ParamSet, spec: MlpSpec, x: np.ndarray) -> np.ndarray:
    h = x
    preacts = []
    for i in range(len(spec.hidden_dims)):
        z = h @ params[f"w{i}"].array + params[f"b{i}"].array
        preacts.append(z.reshape(-1))
        h = np.maximum(z, 0.0)
    return np.concatenate(preacts) if preacts else np.empty(0)


def gradient_check(spec: MlpSpec, seed: int, probes: int) -> float:
    """Max relative error of analytic gradients vs central finite differences.

    Probes a deterministic random subset of parameter and input coordinates
    of the scalar loss sum(c * mlp(x)). Inputs are resampled until every relu
    pre-activation sits at least RELU_KINK_MARGIN from its kink, so the
    difference quotient never straddles a nondifferentiable point.
    """
    if probes < 1:
        raise ValueError("probes must be >= 1")
    rng = np.random.default_rng(seed)
    params = init_params(spec, seed)
    batch = 3
    x = rng.standard_normal((batch, spec.input_dim))
    if spec.hidden_dims:
        for _ in range(200):
            pre = _hidden_preacts(params, spec, x)
            if pre.size == 0 or np.min(np.abs(pre)) > RELU_KINK_MARGIN:
                break
            x = rng.standard_normal((batch, spec.input_dim))
        else:
            raise RuntimeError("could not find an input away from relu kinks")
    weighting = rng.standard_normal((batch, spec.output_dim))

    _, tape = mlp_forward(params, spec, x)
    param_grads, input_grad = backward(tape, weighting)

    def loss(p: ParamSet, xv: np.ndarray) -> float:
        return float(np.sum(mlp_apply(p, spec, xv) * weighting))

    # Enumerate (kind, name, flat_index) coordinates, then probe a shuffled subset.
    coords: list[tuple[str, str, int]] = []
    for name, tensor in params:
        coords.extend(("param", name, i) for i in range(tensor.data.size))
    coords.extend(("input", "", i) for i in range(x.size))
    picked = [coords[i] for i in rng.permutation(len(coords))[: min(probes, len(coords))]]

    max_rel = 0.0
    for kind, name, idx in picked:
        if kind == "param":
            analytic = param_grads[name].data[idx]

            def perturbed(sign: float) -> float:
                p2 = params.copy()
                p2[name].data[idx] += sign * FD_STEP
                return loss(p2, x)

        else:
            analytic = input_grad.data[idx]

            def perturbed(sign: float) -> float:
                x2 = x.copy()
                x2.reshape(-1)[idx] += sign * FD_STEP
                return loss(params, x2)

        numeric = (perturbed(+1.0) - perturbed(-1.0)) / (2.0 * FD_STEP)
        rel = abs(numeric - analytic) / max(abs(numeric), abs(analytic), 1e-6)
        max_rel = max(max_rel, rel)
    return max_rel
