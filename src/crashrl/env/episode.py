"""Synthetic dashcam episodes and their on-disk format.

Episode file format (version tag ``ADE1``), UTF-8 text, one record per line:

    ADE1 <H> <W> <T> <fps> <y> <t_a|-1>
    F <t> <H*W saliency floats, row-major> <p_x> <p_y>      (lines 2 .. T+1)

Floats carry 17 significant digits so write -> load round-trips bit-exactly.

The generator composes each frame from a per-episode smooth background, small
iid temporal noise, and (for positive episodes) a Gaussian risk blob whose
intensity ramps linearly from 0 at frame t_a - BLOB_RAMP_FRAMES to full gain
at t_a. The ground-truth fixation starts at the image center and either
drifts toward the blob (positives) or wanders (negatives).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from ..numkit.tensor import format_float as _format_float
from .config import EnvConfig
from .saliency import SaliencyField, cell_centers, normalize_field

FORMAT_TAG = "ADE1"

# Generator constants (fixed, documented; not config fields).
BLOB_RAMP_FRAMES = 20
BLOB_SIGMA = 0.1
BLOB_GAIN = 2.0
BG_COMPONENTS = 3
BG_FLOOR = 0.25
BG_TEMPORAL_NOISE = 0.2
FIX_DRIFT_RATE = 0.15
FIX_NOISE_POS = 0.005
FIX_NOISE_NEG = 0.01


@dataclass(frozen=True)
class Episode:
    """One dashcam scenario: saliency frames, label, accident time, gaze track."""

    frames: tuple[SaliencyField, ...]
    y: int
    t_a: int | None
    fixation_track: np.ndarray
    fps: float
    episode_id: str = ""

    def __post_init__(self):
        frames = tuple(self.frames)
        if not frames:
            raise ValueError("episode must contain at least one frame")
        shape = frames[0].shape
        if any(f.shape != shape for f in frames):
            raise ValueError("all frames must share one grid shape")
        if self.y not in (0, 1):
            raise ValueError(f"label must be 0 or 1, got {self.y}")
        if self.y == 1:
            if self.t_a is None or not 0 < self.t_a < len(frames):
                raise ValueError(
                    f"positive episode requires 0 < t_a < {len(frames)}, got {self.t_a}"
                )
        elif self.t_a is not None:
            raise ValueError("negative episode must not carry an accident frame")
        track = np.ascontiguousarray(self.fixation_track, dtype=np.float64)
        if track.shape != (len(frames), 2):
            raise ValueError(
                f"fixation track must have shape [{len(frames)}, 2], got {list(track.shape)}"
            )
        if np.any(track < 0.0) or np.any(track > 1.0):
            bad = int(np.argwhere((track < 0.0) | (track > 1.0))[0][0])
            raise ValueError(f"fixation point outside [0, 1]^2 at frame {bad}")
        object.__setattr__(self, "frames", frames)
        object.__setattr__(self, "fixation_track", track)
        if not (np.isfinite(self.fps) and self.fps > 0.0):
            raise ValueError(f"fps must be finite and > 0, got {self.fps}")

    @property
    def length(self) -> int:
        return len(self.frames)

    @property
    def grid_shape(self) -> tuple[int, int]:
        return self.frames[0].shape


def blob_onset(t_a: int) -> int:
    """First frame at which the risk blob starts ramping."""
    return max(0, t_a - BLOB_RAMP_FRAMES)


def generate_episode(cfg: EnvConfig, seed: int) -> Episode:
    """Deterministic synthetic episode for one seed."""
    rng = np.random.default_rng(seed)
    h, w, t_len = cfg.grid_h, cfg.grid_w, cfg.episode_len
    xs, ys = cell_centers(h, w)

    y = 1 if rng.random() < cfg.accident_prob else 0
    t_a = None
    blob_center = None
    if y == 1:
        lo = max(1, int(np.ceil(cfg.t_a_frac_lo * t_len)))
        hi = min(t_len - 1, int(np.floor(cfg.t_a_frac_hi * t_len)))
        if lo > hi:
            raise ValueError("t_a range is empty for this episode length")
        t_a = int(rng.integers(lo, hi + 1))
        blob_center = rng.uniform(0.2, 0.8, size=2)

    # Per-episode smooth background layout, normalized to unit mass.
    centers = rng.uniform(0.0, 1.0, size=(BG_COMPONENTS, 2))
    widths = rng.uniform(0.15, 0.35, size=BG_COMPONENTS)
    weights = rng.uniform(0.5, 1.0, size=BG_COMPONENTS)
    background = np.full((h, w), BG_FLOOR)
    for (cx, cy), sigma, weight in zip(centers, widths, weights):
        background += weight * np.exp(
            -((xs - cx) ** 2 + (ys - cy) ** 2) / (2.0 * sigma**2)
        )
    background /= background.sum()

    blob_kernel = None
    if y == 1:
        kernel = np.exp(
            -((xs - blob_center[0]) ** 2 + (ys - blob_center[1]) ** 2)
            / (2.0 * BLOB_SIGMA**2)
        )
        blob_kernel = kernel / kernel.sum() * BLOB_GAIN

    # Ground-truth fixation track.
    track = np.empty((t_len, 2))
    track[0] = (0.5, 0.5)
    if y == 1:
        steps = rng.normal(0.0, FIX_NOISE_POS, size=(t_len - 1, 2))
        for t in range(1, t_len):
            pull = FIX_DRIFT_RATE * (blob_center - track[t - 1])
            track[t] = np.clip(track[t - 1] + pull + steps[t - 1], 0.0, 1.0)
    else:
        steps = rng.normal(0.0, FIX_NOISE_NEG, size=(t_len - 1, 2))
        for t in range(1, t_len):
            track[t] = np.clip(track[t - 1] + steps[t - 1], 0.0, 1.0)

    frames = []
    for t in range(t_len):
        noise = 1.0 + BG_TEMPORAL_NOISE * (rng.random((h, w)) - 0.5)
        field = background * noise
        if y == 1 and t >= blob_onset(t_a):
            ramp = min(1.0, (t - blob_onset(t_a)) / float(t_a - blob_onset(t_a)))
            field = field + ramp * blob_kernel
        frames.append(normalize_field(SaliencyField(field, t)))

    return Episode(tuple(frames), y, t_a, track, cfg.fps, episode_id=f"gen{seed}")


def write_episode_file(episode: Episode, path) -> None:
    h, w = episode.grid_shape
    lines = [
        f"{FORMAT_TAG} {h} {w} {episode.length} {_format_float(episode.fps)} "
        f"{episode.y} {episode.t_a if episode.t_a is not None else -1}"
    ]
    for t, frame in enumerate(episode.frames):
        values = " ".join(_format_float(v) for v in frame.grid.reshape(-1))
        px, py = episode.fixation_track[t]
        lines.append(f"F {t} {values} {_format_float(px)} {_format_float(py)}")
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("\n".join(lines) + "\n")


class EpisodeFormatError(ValueError):
    """Raised for malformed, truncated, or out-of-range episode files."""


def load_episode_file(path) -> Episode:
    """Parse and validate an ADE1 file; no partial episode survives an error."""
    with open(path, "r", encoding="utf-8") as f:
        lines = f.read().splitlines()
    if not lines:
        raise EpisodeFormatError(f"{path}: empty file")
    header = lines[0].split()
    if len(header) != 7 or header[0] != FORMAT_TAG:
        raise EpisodeFormatError(
            f"{path}: line 1: expected '{FORMAT_TAG} <H> <W> <T> <fps> <y> <t_a|-1>'"
        )
    try:
        h, w, t_len = int(header[1]), int(header[2]), int(header[3])
        fps = float(header[4])
        y = int(header[5])
        t_a_raw = int(header[6])
    except ValueError as exc:
        raise EpisodeFormatError(f"{path}: line 1: malformed header: {exc}") from exc
    if h < 1 or w < 1 or t_len < 1:
        raise EpisodeFormatError(f"{path}: line 1: nonpositive dimensions")
    if t_a_raw < -1:
        raise EpisodeFormatError(
            f"{path}: line 1: t_a must be -1 (no accident) or a frame index, got {t_a_raw}"
        )
    if len(lines) != t_len + 1:
        raise EpisodeFormatError(
            f"{path}: expected {t_len} frame records, found {len(lines) - 1}"
        )

    frames = []
    track = np.empty((t_len, 2))
    expected_tokens = 2 + h * w + 2
    for t in range(t_len):
        lineno = t + 2
        tokens = lines[t + 1].split()
        if len(tokens) != expected_tokens:
            raise EpisodeFormatError(
                f"{path}: line {lineno}: expected {expected_tokens} tokens, "
                f"got {len(tokens)} (truncated or malformed record)"
            )
        if tokens[0] != "F":
            raise EpisodeFormatError(f"{path}: line {lineno}: expected frame record 'F'")
        try:
            frame_t = int(tokens[1])
            values = np.array([float(tok) for tok in tokens[2 : 2 + h * w]])
            px, py = float(tokens[-2]), float(tokens[-1])
        except ValueError as exc:
            raise EpisodeFormatError(
                f"{path}: line {lineno}: malformed frame record: {exc}"
            ) from exc
        if frame_t != t:
            raise EpisodeFormatError(
                f"{path}: line {lineno}: frame index {frame_t}, expected {t}"
            )
        if not np.all(np.isfinite(values)) or np.any(values < 0.0):
            raise EpisodeFormatError(
                f"{path}: line {lineno}: saliency values must be finite and >= 0 (frame {t})"
            )
        if not (0.0 <= px <= 1.0 and 0.0 <= py <= 1.0):
            raise EpisodeFormatError(
                f"{path}: line {lineno}: fixation ({px}, {py}) outside [0, 1]^2 (frame {t})"
            )
        frames.append(SaliencyField(values.reshape(h, w), t))
        track[t] = (px, py)

    t_a = None if t_a_raw == -1 else t_a_raw
    # The frame records are checked above; what Episode rejects is a header field.
    try:
        return Episode(
            tuple(frames),
            y,
            t_a,
            track,
            fps,
            episode_id=_stem(path),
        )
    except ValueError as exc:
        raise EpisodeFormatError(f"{path}: line 1: {exc}") from exc


def _stem(path) -> str:
    return os.path.splitext(os.path.basename(str(path)))[0]
