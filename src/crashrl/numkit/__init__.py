"""Minimal dense float32 math: relu MLPs with one recorded forward pass and
its chain rule, Adam, Polyak updates.

Each network's parameters live in one flat float32 vector (``ParamSet.flat``,
dtype ``DTYPE``) with named ndarray views; Adam and Polyak updates run in
place on it, and ``autodiff.backprop`` returns a gradient in the same
layout, the one form ``adam_step`` takes. ``mlp_graph`` is the forward pass
and ``mlp_apply`` its output alone. The forward and backward passes follow
the parameters' dtype, so they also run in float64 on a cast copy.
Parameters have no disk format here; checkpoints (``agents.agent``) write
the flat vectors on the ``crashrl.records`` framing.
"""

from . import autodiff
from .mlp import MlpSpec, init_params, mlp_apply, mlp_graph
from .optim import AdamState, adam_step, init_adam, soft_update
from .tensor import DTYPE, ParamSet

__all__ = [
    "autodiff",
    "AdamState",
    "DTYPE",
    "MlpSpec",
    "ParamSet",
    "adam_step",
    "init_adam",
    "init_params",
    "mlp_apply",
    "mlp_graph",
    "soft_update",
]
