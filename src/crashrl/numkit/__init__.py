"""Minimal dense-tensor math: reverse-mode autodiff, MLPs, Adam, Polyak updates.

Each network's parameters live in one flat float64 vector (``ParamSet.flat``)
with named tensor views; Adam and Polyak updates run in place on it, and
backprop can be pruned to the leaves whose gradients are wanted.
"""

from . import autodiff
from .mlp import (
    FD_STEP,
    MlpSpec,
    RELU_KINK_MARGIN,
    Tape,
    backward,
    flat_grads,
    gradient_check,
    init_params,
    lift_params,
    mlp_apply,
    mlp_forward,
    mlp_graph,
)
from .optim import AdamState, adam_step, init_adam, soft_update
from .tensor import (
    FORMAT_TAG,
    ParamSet,
    Tensor,
    decode_params,
    encode_params,
    format_float,
    read_params,
    write_params,
)

__all__ = [
    "autodiff",
    "AdamState",
    "FD_STEP",
    "FORMAT_TAG",
    "MlpSpec",
    "ParamSet",
    "RELU_KINK_MARGIN",
    "Tape",
    "Tensor",
    "adam_step",
    "backward",
    "decode_params",
    "encode_params",
    "flat_grads",
    "format_float",
    "gradient_check",
    "init_adam",
    "init_params",
    "lift_params",
    "mlp_apply",
    "mlp_forward",
    "mlp_graph",
    "read_params",
    "soft_update",
    "write_params",
]
