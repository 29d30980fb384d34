"""MLP specification, parameter layout, initialization and the forward pass.

Networks are plain chains: affine -> relu per hidden layer, then a linear
affine output; ``agents`` writes the actors' heads on top. ``MlpSpec`` owns
the one parameter layout: layer i's weight W_i [fan_in, fan_out] then its
bias b_i, for i = 0, 1, ..., each row-major, in one flat vector. A ``Net``
is a stack of K >= 1 networks of one spec: a C-contiguous ``flat[K,
n_values]`` whose row k is network k's flat vector, with per-layer views
W_i [K, fan_in, fan_out] and b_i [K, 1, fan_out]. A single network is a
stack with K = 1, so there is one forward and one backward path.
``mlp_graph`` is that forward pass: it runs all K networks in one batched
matmul per layer and returns the output with a record of what
``autodiff.backprop`` needs to push a loss gradient back into a
``[K, n_values]`` gradient with the networks' layout, ready for
``adam_step``. ``mlp_apply``, for acting and for targets, is ``mlp_graph``
without the record. numpy's matmul runs each [B, fan_in] @ [fan_in,
fan_out] slice of a stack through the BLAS routine a lone network's 2-D
matmul would take, so every network's values have the bits they have on
their own. Every value and gradient has the parameters' dtype: float32
(``DTYPE``) for the networks ``init_params`` makes, float64 for a cast copy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad

# The one dtype of network parameters, optimizer moments, replay and
# gradient phases.
DTYPE = np.float32


@dataclass(frozen=True)
class MlpSpec:
    """Architecture of one fully connected network: relu hidden layers, linear output."""

    input_dim: int
    hidden_dims: tuple[int, ...]
    output_dim: int

    def __post_init__(self):
        object.__setattr__(self, "hidden_dims", tuple(int(d) for d in self.hidden_dims))
        dims = (self.input_dim, *self.hidden_dims, self.output_dim)
        if any(int(d) < 1 for d in dims):
            raise ValueError(f"all dimensions must be >= 1, got {dims}")

    @property
    def layer_dims(self) -> tuple[int, ...]:
        return (self.input_dim, *self.hidden_dims, self.output_dim)

    @property
    def n_values(self) -> int:
        """Parameter count (a Python int: a huge input_dim cannot overflow)."""
        dims = self.layer_dims
        return sum((fan_in + 1) * fan_out for fan_in, fan_out in zip(dims, dims[1:]))

    def layers(self, flat: np.ndarray) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """Each layer's (W, b) as views into a C-contiguous ``flat[K, n_values]``
        (no copy), in layout order: W [K, fan_in, fan_out] and b [K, 1, fan_out]."""
        dims = self.layer_dims
        k = flat.shape[0]
        views = []
        start = 0
        for fan_in, fan_out in zip(dims, dims[1:]):
            mid = start + fan_in * fan_out
            end = mid + fan_out
            views.append((
                flat[:, start:mid].reshape(k, fan_in, fan_out),
                flat[:, mid:end].reshape(k, 1, fan_out),
            ))
            start = end
        return tuple(views)


class Net:
    """K networks of one spec: their ``flat[K, n_values]`` and (W, b) views into it.

    Writing ``net.layers[i][0][...] = ...`` writes the flat array, on which
    Adam and the Polyak sync run in place. ``net[k]`` is network k and
    ``net[a:b]`` networks a to b - 1, as Nets that share the memory;
    iterating yields each network in turn. ``flat`` keeps its dtype:
    float32, or float64 for the cast copies that gradient checks run in.
    """

    __slots__ = ("spec", "flat", "layers")

    def __init__(self, spec: MlpSpec, flat: np.ndarray) -> None:
        flat = np.asarray(flat)
        if flat.ndim != 2 or flat.shape[0] < 1 or flat.shape[1] != spec.n_values:
            raise ValueError(
                f"flat array of shape {list(flat.shape)} is not [K >= 1, {spec.n_values}]"
            )
        if not flat.flags.c_contiguous:
            raise ValueError("flat array must be C-contiguous")
        self.spec = spec
        self.flat = flat
        self.layers = spec.layers(flat)

    def __len__(self) -> int:
        return self.flat.shape[0]

    def __getitem__(self, k) -> "Net":
        rows = self.flat[k]
        return Net(self.spec, rows if isinstance(k, slice) else rows[None])

    def copy(self) -> "Net":
        return Net(self.spec, self.flat.copy())


def init_params(spec: MlpSpec, seed: int) -> Net:
    """One network (K = 1): uniform weights in [-1/sqrt(fan_in), 1/sqrt(fan_in)],
    zero biases.

    The draws are float64, one weight matrix after another, rounded once to
    the parameters' float32.
    """
    rng = np.random.default_rng(seed)
    flat = np.zeros((1, spec.n_values))
    for w, _ in spec.layers(flat):
        bound = 1.0 / np.sqrt(w.shape[-2])
        w[...] = rng.uniform(-bound, bound, size=w.shape)
    return Net(spec, flat.astype(DTYPE))


def mlp_graph(net: Net, x) -> tuple[np.ndarray, ad.MlpRecord]:
    """The forward pass of all K networks: their output and its ``MlpRecord``.

    ``x`` is either one input ``[B, n]`` that every network reads, or
    per-network inputs ``[..., K or 1, B, n]`` whose leading axes broadcast
    against the stack, such as ``[candidates, 1, B, n]``. The output is
    ``[..., K, B, out]``. ``x`` may also be the first layer's input as two
    blocks ``(s, a)``: a state batch ``s`` ``[B, n_s]`` that every network
    and candidate reads, and trailing columns ``a`` ``[..., K or 1, B, n -
    n_s]`` as above. The first layer then forms s @ W_s once per network and
    adds a @ W_a per candidate, W_s and W_a being the row blocks of W_0 (the
    same sum as [s, a] @ W_0, rounded in another order); such a record
    gives no gradient. ``x`` is cast to the parameters' dtype, so the pass
    runs in it. Each layer's matmul output is a fresh array, so the bias and
    relu act on it in place. relu is fmax(a, 0), which maps NaN and -0.0 to
    +0.0, so every entry equals where(a > 0, a, +0.0) bit for bit. (A
    pre-activation is -0.0 only under a -0.0 bias: x @ W + (+0.0) rounds
    -0.0 to +0.0.) The record keeps each layer's input.
    """
    spec = net.spec
    blocks = isinstance(x, tuple)
    if blocks:
        s, h = (np.asarray(block, dtype=net.flat.dtype) for block in x)
        n_s = s.shape[-1]
        if s.ndim != 2 or not 0 < n_s < spec.input_dim or h.shape[-2:-1] != s.shape[:1]:
            raise ValueError(
                f"blocks must be a state batch [batch, n_s] with 0 < n_s < {spec.input_dim} "
                f"and trailing columns of the same batch, got {list(s.shape)} and "
                f"{list(h.shape)}"
            )
        _check_input(net, h, spec.input_dim - n_s)
    else:
        h = np.asarray(x, dtype=net.flat.dtype)
        _check_input(net, h, spec.input_dim)
    inputs = []
    last = len(net.layers) - 1
    for i, (w, b) in enumerate(net.layers):
        if i == 0 and blocks:
            inputs.append((s, h))
            h = h @ w[:, n_s:]
            h += s @ w[:, :n_s]
        else:
            inputs.append(h)
            h = h @ w
        h += b
        if i < last:
            np.fmax(h, 0.0, out=h)
    return h, ad.MlpRecord(net, inputs)


def _check_input(net: Net, h: np.ndarray, width: int) -> None:
    if h.ndim < 2 or h.shape[-1] != width or (h.ndim > 2 and h.shape[-3] not in (1, len(net))):
        raise ValueError(
            f"input must have shape [batch, {width}] or "
            f"[..., {len(net)} or 1, batch, {width}], got {list(h.shape)}"
        )


def mlp_apply(net: Net, x: np.ndarray) -> np.ndarray:
    """``mlp_graph``'s output alone, for action selection and targets."""
    return mlp_graph(net, x)[0]
