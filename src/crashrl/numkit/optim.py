"""Adam optimization and Polyak target-network tracking.

Both work in place on a stack's ``[K, n_values]`` float32 parameters
(``Net.flat``) with a few whole-array numpy operations, all elementwise, so
a stack of K networks steps as K separate networks would; Adam's moments
are ``[K, n_values]`` arrays of the parameters' dtype. Each keeps the
operation order of the textbook per-tensor formulas, so every entry is
bit-identical to them. Adam's moment decays and epsilon are the textbook
defaults (``BETA1``, ``BETA2``, ``EPS``); only the step size is set per
stack. ``AgentConfig`` checks the step sizes and tau.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mlp import Net

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


@dataclass
class AdamState:
    """First/second-moment estimates and the step size for one stack.

    ``m`` and ``v`` are ``[K, n_values]`` in the networks' layout; ``name``
    labels the stack in errors, and ``name_k`` its network k; ``t`` counts
    the stack's updates, which all its networks take together.
    """

    m: np.ndarray
    v: np.ndarray
    t: int
    alpha: float
    name: str = "params"


def init_adam(net: Net, alpha: float, name: str = "params") -> AdamState:
    return AdamState(np.zeros_like(net.flat), np.zeros_like(net.flat), 0, alpha, name)


def adam_step(net: Net, grads, state: AdamState) -> tuple[Net, AdamState]:
    """One bias-corrected Adam update of every network in the stack, in place;
    returns the net and state.

    ``grads`` is ``[K, n_values]`` in the networks' layout and dtype, as
    ``autodiff.backprop`` returns it; a gradient of another dtype raises
    ValueError naming the stack (the in-place updates would otherwise cast
    it silently).
    Raises ValueError naming the first network (``name_k``) and the update
    index when the update leaves one of its parameters or second moments
    non-finite (which any non-finite gradient, or one whose square
    overflows, does).
    """
    theta = net.flat
    if grads.shape != theta.shape or state.m.shape != theta.shape:
        raise ValueError("parameter, gradient, and state shapes must match")
    if grads.dtype != theta.dtype:
        raise ValueError(
            f"{state.name}: gradient dtype {grads.dtype} does not match "
            f"parameter dtype {theta.dtype}"
        )
    t = state.t + 1
    b1, b2 = BETA1, BETA2
    m, v = state.m, state.v
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
        finite = np.isfinite(theta).all(axis=1) & np.isfinite(v).all(axis=1)
        raise ValueError(
            f"{state.name}_{int(np.argmin(finite))}: Adam update {t} left a parameter "
            f"or second moment non-finite (NaN/Inf gradient or overflow)"
        )
    return net, state


def soft_update(target: Net, online: Net, tau: float) -> Net:
    """Polyak tracking in place: target = tau * online + (1 - tau) * target,
    network k of the target stack tracking network k of the online one.

    Targets only mix in online parameters that ``adam_step`` has checked, so
    no finite check runs here.
    """
    if target.spec != online.spec or len(target) != len(online):
        raise ValueError("target and online networks must share one spec and count")
    flat = target.flat
    flat *= 1.0 - tau
    flat += tau * online.flat
    return target
