"""Reverse-mode gradients of MLP chains, from a recorded forward pass.

``mlp_graph`` (``numkit.mlp``) runs a stack's forward pass and returns its
output with an ``MlpRecord`` of each layer's input. ``backprop`` takes that
record and the gradient of a loss with respect to the output
(``upstream``, ``[..., K, B, out]``) and applies the chain rule layer by
layer, from the head down, for all K networks at once: dW = x^T @ g as one
batched matmul and db = g summed over the batch axis, then g @ W^T times
the relu mask of the layer below. That mask is read off the next layer's
recorded input, a relu output, which is > 0 exactly where its
pre-activation is. It forms g @ W^T only where a lower layer or a
requested input gradient needs it. The parameter gradient comes out as one
``[K, n_values]`` array in the networks' ``MlpSpec`` layout, ready for
``adam_step``. Each network's slice runs the operations, and the BLAS
routine, that network would run on its own, so its gradient has the same
bits. The action and loss heads on top of the networks are written out in
``agents``.

Every step computes in the parameters' dtype: float32 in the gradient
phases, float64 for the finite-difference checks that run on a cast copy.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

import numpy as np

if TYPE_CHECKING:
    from .mlp import Net

__all__ = ["MlpRecord", "backprop"]


class MlpRecord(NamedTuple):
    """What ``backprop`` needs from one forward pass of one stack.

    ``inputs[i]`` is layer i's input (for i > 0, hidden layer i - 1's relu
    output). ``net`` is the stack, whose parameters must not change before
    the backward pass. A tuple, not a dataclass: it is built on every
    forward pass, batch-1 acting included.
    """

    net: Net
    inputs: list[np.ndarray]


def backprop(
    record: MlpRecord, upstream, params: bool = True, inputs: bool = False
) -> tuple[np.ndarray | None, np.ndarray | None]:
    """Gradients of sum(output * upstream) through the recorded stack.

    ``upstream`` must have the output's shape; it is cast to the parameters'
    dtype. Returns ``(flat, dx)``: the parameter gradient as a
    ``[K, n_values]`` array in the networks' layout (None unless
    ``params``), and the gradient with respect to the input, one per
    network, ``[..., K, B, n]`` (None unless ``inputs``). A parameter
    gradient needs at most one batch per network: an output ``[K, B, out]``.
    """
    net = record.net
    x = record.inputs[0]
    g = np.asarray(upstream, dtype=net.flat.dtype)
    lead = (*x.shape[:-3], len(net))  # mlp_graph took x.shape[-3] in (1, K)
    out_shape = (*lead, x.shape[-2], net.spec.output_dim)
    if g.shape != out_shape:
        raise ValueError(
            f"upstream gradient shape {g.shape} does not match output {out_shape}"
        )
    if params and len(lead) > 1:
        raise ValueError(f"parameter gradients need an output [K, B, out], got {out_shape}")
    flat = np.empty_like(net.flat) if params else None
    grads = net.spec.layers(flat) if params else None
    dx = None
    for i in reversed(range(len(net.layers))):
        w_t = net.layers[i][0].swapaxes(-1, -2)
        if params:
            dw, db = grads[i]
            np.matmul(record.inputs[i].swapaxes(-1, -2), g, out=dw)
            np.add.reduce(g, axis=-2, keepdims=True, out=db)
        if i > 0:
            g = g @ w_t
            g *= record.inputs[i] > 0
        elif inputs:
            dx = g @ w_t
    return flat, dx
