"""Minimal dense float32 math: relu MLPs with one recorded forward pass and
its chain rule, Adam, Polyak updates.

Each network is a ``Net``: its ``MlpSpec``, which owns the parameter
layout, and one flat float32 vector (``Net.flat``, dtype ``DTYPE``) with
per-layer (W, b) views. Adam and Polyak updates run in place on the flat
vector, and ``autodiff.backprop`` returns a gradient in the same layout,
the one form ``adam_step`` takes. ``mlp_graph`` is the forward pass and
``mlp_apply`` its output alone. The forward and backward passes follow the
parameters' dtype, so they also run in float64 on a cast copy. Parameters
have no disk format here; checkpoints (``agents.agent``) write the flat
vectors on the ``crashrl.records`` framing.
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
