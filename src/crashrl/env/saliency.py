"""Saliency fields and the foveal attention pipeline.

Grid geometry: a field is an H x W array indexed [row, col]; cell (i, j)
covers the normalized image patch centered at x = (j + 0.5)/W,
y = (i + 0.5)/H, with (x, y) in [0, 1]^2 and y growing downward.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .config import EnvConfig

NORMALIZATION_TOL = 1e-9


@dataclass(frozen=True)
class SaliencyField:
    """Nonnegative per-cell saliency for one video frame."""

    grid: np.ndarray
    frame_index: int = 0

    def __post_init__(self):
        grid = np.ascontiguousarray(self.grid, dtype=np.float64)
        if grid.ndim != 2:
            raise ValueError(f"saliency grid must be 2-D, got shape {list(grid.shape)}")
        if not np.all(np.isfinite(grid)):
            raise ValueError("saliency grid entries must be finite")
        if np.any(grid < 0.0):
            raise ValueError("saliency grid entries must be >= 0")
        object.__setattr__(self, "grid", grid)

    @property
    def shape(self) -> tuple[int, int]:
        return self.grid.shape

    def is_normalized(self) -> bool:
        return abs(float(self.grid.sum()) - 1.0) <= NORMALIZATION_TOL


def cell_centers(h: int, w: int) -> tuple[np.ndarray, np.ndarray]:
    """(x, y) coordinates of every cell center, each shaped [h, w]."""
    xs = (np.arange(w) + 0.5) / w
    ys = (np.arange(h) + 0.5) / h
    return np.broadcast_to(xs, (h, w)), np.broadcast_to(ys[:, None], (h, w))


@functools.lru_cache(maxsize=None)
def _center_axes(h: int, w: int) -> tuple[np.ndarray, np.ndarray]:
    """Cell-center x as a [1, w] row and y as an [h, 1] column (read-only)."""
    xs, ys = cell_centers(h, w)
    return xs[:1], ys[:, :1]


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


def normalize_fields(grids: np.ndarray) -> np.ndarray:
    """``normalize_field`` on each [H, W] slice of an [N, H, W] stack, in place.

    Rows that sum to zero become uniform. Each row gets the bits
    ``normalize_field`` gives it: the row sum is the same pairwise sum.
    """
    n, h, w = grids.shape
    totals = grids.reshape(n, -1).sum(axis=1)
    empty = totals <= 0.0
    totals[empty] = 1.0
    grids /= totals[:, None, None]
    grids[empty] = 1.0 / (h * w)
    return grids


def attention_features(raw: np.ndarray, fixations: np.ndarray, cfg: EnvConfig) -> np.ndarray:
    """Foveate -> blend -> normalize -> pool for N fields at once.

    ``raw`` holds N normalized [H, W] fields and ``fixations`` one (x, y)
    point per field. Row i of the [N, pool_h * pool_w] result equals
    ``pool_features(combine_attention(raw[i], foveate(raw[i], fixations[i])))``
    bit for bit; a row whose foveated field underflows turns uniform as in
    ``foveate``.
    """
    n, h, w = raw.shape
    oh, ow = cfg.pool_h, cfg.pool_w
    if h % oh or w % ow:
        raise ValueError(f"pool dims ({oh}x{ow}) must divide field dims ({h}x{w})")
    if fixations.shape != (n, 2):
        raise ValueError(f"fixations must have shape [{n}, 2], got {list(fixations.shape)}")
    xs, ys = _center_axes(h, w)
    fx = fixations[:, 0, None, None]
    fy = fixations[:, 1, None, None]
    # Same operations, in the same order, as foveate's Gaussian.
    fov = (xs - fx) ** 2 + (ys - fy) ** 2
    np.negative(fov, out=fov)
    fov /= 2.0 * cfg.sigma_f**2
    np.exp(fov, out=fov)
    fov *= raw
    normalize_fields(fov)
    fov *= cfg.rho
    fov += (1.0 - cfg.rho) * raw
    normalize_fields(fov)
    return fov.reshape(n, oh, h // oh, ow, w // ow).mean(axis=(2, 4)).reshape(n, -1)
