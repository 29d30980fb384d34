"""Minimal dense float32 math: relu MLPs with one recorded forward pass and
its chain rule, Adam, Polyak updates.

Each ``Net`` is a stack of K >= 1 networks of one ``MlpSpec``, which owns
the parameter layout: one C-contiguous float32 array (``Net.flat``,
``[K, n_values]``, dtype ``DTYPE``) with per-layer (W, b) views. A single
network is a stack with K = 1. ``mlp_graph`` is the forward pass of the
whole stack, batched, and ``mlp_apply`` its output alone;
``autodiff.backprop`` returns a ``[K, n_values]`` gradient in the same
layout, the one form ``adam_step`` takes. Adam and Polyak updates run in
place on the flat array. The forward and backward passes follow the
parameters' dtype, so they also run in float64 on a cast copy. Parameters
have no disk format here; checkpoints (``agents.agent``) write the flat
arrays on the ``crashrl.records`` framing.
"""

from . import autodiff
from .mlp import DTYPE, MlpSpec, Net, init_params, mlp_apply, mlp_graph
from .optim import AdamState, adam_step, init_adam, soft_update

__all__ = [
    "autodiff",
    "AdamState",
    "DTYPE",
    "MlpSpec",
    "Net",
    "adam_step",
    "init_adam",
    "init_params",
    "mlp_apply",
    "mlp_graph",
    "soft_update",
]
