"""Saliency fields and the foveal attention pipeline.

Grid geometry: a field is an H x W array indexed [row, col]; cell (i, j)
covers the normalized image patch centered at x = (j + 0.5)/W,
y = (i + 0.5)/H, with (x, y) in [0, 1]^2 and y growing downward.

``config.check_steppable`` and ``mdp.check_actions`` check the pool and
the fixations that ``attention_features`` takes.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .config import EnvConfig

IMAGE_CENTER = (0.5, 0.5)  # (x, y) where the env's and the generated gaze start


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


def normalize_fields(grids: np.ndarray) -> np.ndarray:
    """Scale each [H, W] slice of an [N, H, W] stack to sum to 1, in place.

    Rows that sum to zero become uniform.
    """
    n, h, w = grids.shape
    totals = np.add.reduce(grids.reshape(n, -1), axis=1)
    empty = totals <= 0.0
    # Most stacks hold no empty field: skip both mask writes for them.
    has_empty = np.count_nonzero(empty)
    if has_empty:
        totals[empty] = 1.0
    grids /= totals[:, None, None]
    if has_empty:
        grids[empty] = 1.0 / (h * w)
    return grids


def attention_features(raw: np.ndarray, fixations: np.ndarray, cfg: EnvConfig) -> np.ndarray:
    """Foveate -> blend -> normalize -> pool for N fields at once.

    ``raw`` holds N normalized [H, W] fields and ``fixations`` one (x, y)
    point per field. Each field is weighted by a Gaussian acuity falloff
    exp(-d^2 / (2 sigma_f^2)) around its fixation and renormalized (a field
    whose weights all underflow turns uniform), blended as
    rho * foveated + (1 - rho) * raw, renormalized, and block-mean pooled to
    [pool_h, pool_w], flattened row-major into row i of the result. The
    tests hold a per-field version of this chain as its bit-for-bit oracle.

    Each block sum is formed in the order numpy's ``add.reduce`` over the
    block axes uses: every block row summed left to right, then the row sums
    added top to bottom (``(x00 + x01) + (x10 + x11)`` for a 2 x 2 block),
    as whole-stack slice adds, which cost a fraction of numpy's two-axis
    reduction over axes a few cells long. Blocks 8 or more cells wide, and
    pools one block wide, keep ``np.add.reduce``: there numpy sums pairwise
    (along each block row, or over a whole block that is contiguous in
    memory), so no slice order reproduces its bits.
    """
    n, h, w = raw.shape
    oh, ow = cfg.pool_h, cfg.pool_w
    xs, ys = _center_axes(h, w)
    fx = fixations[:, 0, None, None]
    fy = fixations[:, 1, None, None]
    # The order of these operations fixes the bits the oracle must match. The
    # oracle negates the squared distance and then divides; dividing by the
    # negated denominator gives the same bits, as IEEE division is
    # sign-symmetric.
    fov = (xs - fx) ** 2 + (ys - fy) ** 2
    fov /= -(2.0 * cfg.sigma_f**2)
    np.exp(fov, out=fov)
    fov *= raw
    normalize_fields(fov)
    fov *= cfg.rho
    fov += (1.0 - cfg.rho) * raw
    normalize_fields(fov)
    # The block mean as np.mean forms it (sum, then divide by the count), without
    # its per-call Python overhead; the sums keep np.add.reduce's order (above).
    bh, bw = h // oh, w // ow
    blocks = fov.reshape(n, oh, bh, ow, bw)
    if bw >= 8 or ow == 1:
        pooled = np.add.reduce(blocks, axis=(2, 4))
    else:
        rows = blocks[..., 0]
        for j in range(1, bw):
            rows = rows + blocks[..., j]
        pooled = rows[:, :, 0]
        for i in range(1, bh):
            pooled = pooled + rows[:, :, i]
        # numpy's sums start from +0.0, so a block of -0.0 cells sums to +0.0.
        pooled += 0.0
    pooled /= bh * bw
    return pooled.reshape(n, -1)
