"""The per-field attention chain: the oracle for the batched kernels.

``attention_features`` and ``normalize_fields`` run this chain over [N, H, W]
stacks; each row of theirs must equal the chain's result on that field alone,
bit for bit. The chain works on one ``SaliencyField`` at a time, with the
same numpy operations in the same order.
"""

import numpy as np

from crashrl.env import SaliencyField, cell_centers


def normalize_field(field: SaliencyField) -> SaliencyField:
    """Scale entries to sum to 1; an all-zero field becomes uniform."""
    total = float(field.grid.sum())
    if total <= 0.0:
        h, w = field.shape
        return SaliencyField(np.full((h, w), 1.0 / (h * w)), field.frame_index)
    return SaliencyField(field.grid / total, field.frame_index)


def foveate(
    field: SaliencyField, fixation: tuple[float, float], sigma_f: float
) -> tuple[SaliencyField, bool]:
    """Weight a normalized field by a Gaussian acuity falloff at ``fixation``.

    Returns the renormalized field and a degeneracy flag: True when the
    weighted field underflowed to all zeros (the output is then uniform).
    """
    if sigma_f <= 0.0:
        raise ValueError(f"sigma_f must be > 0, got {sigma_f}")
    fx, fy = float(fixation[0]), float(fixation[1])
    h, w = field.shape
    xs, ys = cell_centers(h, w)
    gauss = np.exp(-((xs - fx) ** 2 + (ys - fy) ** 2) / (2.0 * sigma_f**2))
    weighted = field.grid * gauss
    total = float(weighted.sum())
    if total <= 0.0:
        return SaliencyField(np.full((h, w), 1.0 / (h * w)), field.frame_index), True
    return SaliencyField(weighted / total, field.frame_index), False


def combine_attention(
    bottom_up: SaliencyField, top_down: SaliencyField, rho: float
) -> SaliencyField:
    """Convex blend rho * top_down + (1 - rho) * bottom_up, renormalized."""
    if not 0.0 <= rho <= 1.0:
        raise ValueError(f"rho must be in [0, 1], got {rho}")
    if bottom_up.shape != top_down.shape:
        raise ValueError(
            f"field shapes differ: {bottom_up.shape} vs {top_down.shape}"
        )
    blended = rho * top_down.grid + (1.0 - rho) * bottom_up.grid
    return normalize_field(SaliencyField(blended, bottom_up.frame_index))


def pool_features(field: SaliencyField, out_dims: tuple[int, int]) -> np.ndarray:
    """Block-mean pooling of an H x W field down to out_dims, flattened row-major."""
    h, w = field.shape
    oh, ow = int(out_dims[0]), int(out_dims[1])
    if oh < 1 or ow < 1 or h % oh or w % ow:
        raise ValueError(
            f"pool dims ({oh}x{ow}) must divide field dims ({h}x{w})"
        )
    bh, bw = h // oh, w // ow
    pooled = field.grid.reshape(oh, bh, ow, bw).mean(axis=(1, 3))
    return pooled.reshape(-1)
