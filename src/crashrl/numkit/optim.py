"""Adam optimization and Polyak target-network tracking.

Both work in place on a network's flat float32 parameter vector
(``ParamSet.flat``) with a few whole-vector numpy operations; the moments
have the parameters' dtype. Each keeps the operation order of
the textbook per-tensor formulas, so every entry is bit-identical to them.
Adam's moment decays and epsilon are the textbook defaults (``BETA1``,
``BETA2``, ``EPS``); only the step size is set per network. ``AgentConfig``
checks the step sizes and tau.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import ParamSet

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


@dataclass
class AdamState:
    """First/second-moment estimates and the step size for one ParamSet.

    ``name`` labels the network in errors; ``t`` counts its updates.
    """

    m: ParamSet
    v: ParamSet
    t: int
    alpha: float
    name: str = "params"


def init_adam(params: ParamSet, alpha: float = 3e-4, name: str = "params") -> AdamState:
    return AdamState(params.zeros_like(), params.zeros_like(), 0, alpha, name)


def adam_step(params: ParamSet, grads, state: AdamState) -> tuple[ParamSet, AdamState]:
    """One bias-corrected Adam update, in place; returns params and state.

    ``grads`` is a flat vector in the parameters' layout and dtype, as
    ``autodiff.backprop`` returns it; a gradient of another dtype raises
    ValueError naming the network (the in-place updates would otherwise
    cast it silently).
    Raises ValueError naming the network and the update index when the
    update leaves a parameter or a second moment non-finite (which any
    non-finite gradient, or one whose square overflows, does).
    """
    if grads.shape != params.flat.shape or not params.same_shapes(state.m):
        raise ValueError("parameter, gradient, and state shapes must match")
    if grads.dtype != params.flat.dtype:
        raise ValueError(
            f"{state.name}: gradient dtype {grads.dtype} does not match "
            f"parameter dtype {params.flat.dtype}"
        )
    t = state.t + 1
    b1, b2 = BETA1, BETA2
    m, v, theta = state.m.flat, state.v.flat, params.flat
    # m = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*(g*g)
    m *= b1
    m += (1.0 - b1) * grads
    v *= b2
    v += (1.0 - b2) * (grads * grads)
    # theta -= alpha * m_hat / (sqrt(v_hat) + eps)
    step = m / (1.0 - b1**t)
    step *= state.alpha
    denom = v / (1.0 - b2**t)
    np.sqrt(denom, out=denom)
    denom += EPS
    step /= denom
    theta -= step
    state.t = t
    if not (np.isfinite(theta).all() and np.isfinite(v).all()):
        raise ValueError(
            f"{state.name}: Adam update {t} left a parameter or second moment "
            f"non-finite (NaN/Inf gradient or overflow)"
        )
    return params, state


def soft_update(target: ParamSet, online: ParamSet, tau: float) -> ParamSet:
    """Polyak tracking in place: target = tau * online + (1 - tau) * target.

    Targets only mix in online parameters that ``adam_step`` has checked, so
    no finite check runs here.
    """
    if not target.same_shapes(online):
        raise ValueError("target and online parameter shapes must match")
    flat = target.flat
    flat *= 1.0 - tau
    flat += tau * online.flat
    return target
