"""Finite-difference check of the MLP gradients, for C3 and the numkit tests.

``gradient_check`` compares ``autodiff.backprop`` on ``mlp_graph``'s record
with central finite differences of ``mlp_apply``, in float64 on a cast copy
of ``init_params``' float32 networks, optionally through the deterministic
actor's head (``agents.agent.deterministic_head``) on top.
"""

from __future__ import annotations

import numpy as np

# Through the modules, so a test that wraps their functions sees every call.
from crashrl.agents import agent
from crashrl.numkit import MlpSpec, Net, init_params, mlp
from crashrl.numkit import autodiff as ad

# Central-difference step and the kink-exclusion margin for relu nets.
FD_STEP = 1e-5
RELU_KINK_MARGIN = 1e-3


def gradient_check(spec: MlpSpec, head: str, seed: int, probes: int) -> float:
    """Max relative error of analytic gradients vs central finite differences.

    Probes a deterministic random subset of parameter and input coordinates
    of the scalar loss sum(c * head(mlp(x))), where ``head`` "identity" is
    none and "tanh" is the deterministic actor's action head. Inputs are
    resampled until every relu pre-activation sits at least RELU_KINK_MARGIN
    from its kink, so the difference quotient never straddles a
    nondifferentiable point. The check runs in float64, on a cast copy of
    the float32 initial parameters, through the same functions as the
    gradient phases.
    """
    if probes < 1:
        raise ValueError("probes must be >= 1")
    if head not in ("identity", "tanh"):
        raise ValueError(f"unknown head {head!r}")
    rng = np.random.default_rng(seed)
    initial = init_params(spec, seed)
    net = Net(spec, initial.flat.astype(np.float64))
    batch = 3
    x = rng.standard_normal((batch, spec.input_dim))
    if spec.hidden_dims:
        # Layer i's pre-activations are the output of the net cut after it,
        # whose parameters lead the flat vector.
        cuts = [
            MlpSpec(spec.input_dim, spec.hidden_dims[:i], width)
            for i, width in enumerate(spec.hidden_dims)
        ]
        cuts = [Net(cut, net.flat[:, : cut.n_values]) for cut in cuts]
        for _ in range(200):
            preacts = [mlp.mlp_apply(cut, x) for cut in cuts]
            if min(np.min(np.abs(z)) for z in preacts) > RELU_KINK_MARGIN:
                break
            x = rng.standard_normal((batch, spec.input_dim))
        else:
            raise RuntimeError("could not find an input away from relu kinks")
    weighting = rng.standard_normal((batch, spec.output_dim))

    # Analytic gradients along the path the gradient phases run.
    out, record = mlp.mlp_graph(net, x)
    upstream = weighting[None]  # the one network's slice of the output
    if head == "tanh":  # as the actor phase: squash01's 0.5, then tanh's derivative
        t, _ = agent.deterministic_head(out)
        upstream = (upstream * 0.5) * (1.0 - t * t)
    param_grads, input_grads = ad.backprop(record, upstream, inputs=True)
    analytic = np.concatenate([param_grads[0], input_grads.reshape(-1)])

    def loss(p: Net, xv: np.ndarray) -> float:
        out = mlp.mlp_apply(p, xv)
        if head == "tanh":
            out = agent.deterministic_head(out)[1]
        return float(np.sum(out * weighting))

    # Probe a shuffled subset of the coordinates: parameters first, then inputs.
    n_params = net.flat.size
    picked = rng.permutation(n_params + x.size)[: min(probes, n_params + x.size)]

    max_rel = 0.0
    for idx in picked:
        if idx < n_params:

            def perturbed(sign: float) -> float:
                p2 = net.copy()
                p2.flat[0, idx] += sign * FD_STEP
                return loss(p2, x)

        else:

            def perturbed(sign: float) -> float:
                x2 = x.copy()
                x2.reshape(-1)[idx - n_params] += sign * FD_STEP
                return loss(net, x2)

        numeric = (perturbed(+1.0) - perturbed(-1.0)) / (2.0 * FD_STEP)
        rel = abs(numeric - analytic[idx]) / max(abs(numeric), abs(analytic[idx]), 1e-6)
        max_rel = max(max_rel, rel)
    return max_rel
