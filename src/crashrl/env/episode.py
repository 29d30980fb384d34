"""Synthetic dashcam episodes and their on-disk format.

An ``Episode`` holds its saliency as one read-only float64 array
``saliency[T, H, W]`` and its gaze as a read-only ``fixation_track[T, 2]``,
so parsed episodes can be shared without copies.

Episode file format (version tag ``ADE2``, on the record framing of
``crashrl.records``): one ASCII header line, then a binary payload of
little-endian float64 values:

    ADE2 <H> <W> <T> <fps> <y> <t_a|-1> <crc32>\n
    saliency[T, H, W] row-major, then fixation_track[T, 2]   (8*T*(H*W+2) bytes)

``fps`` carries 17 significant digits and ``crc32`` is ``zlib.crc32`` of the
payload as 8 lowercase hex digits, so write -> load round-trips bit-exactly
and a changed payload byte never loads. Line 1 is checked whole before the
payload, and its errors name ``line 1``: a non-ASCII byte, a ``_`` (which
Python's ``int`` and ``float`` would accept as digit grouping), the CRC
field's form, the dimensions, ``t_a`` and ``check_labels``. Payload errors
then give its length, its CRC or the ``frame t`` whose values are out of
range. A file of the retired ``ADE1`` text format fails at line 1, naming
its tag.

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

from ..records import format_float, read_record, write_record
from .config import EnvConfig
from .saliency import IMAGE_CENTER, SaliencyField, cell_centers, normalize_fields

FORMAT_TAG = "ADE2"
HEADER = f"{FORMAT_TAG} <H> <W> <T> <fps> <y> <t_a|-1> <crc32>"
HEADER_TYPES = (int, int, int, float, int, int)
RETIRED_TAGS = {
    "ADE1": f"ADE1 is the retired text episode format; this reader reads {FORMAT_TAG} "
    "(regenerate the files with `crashrl gen-data`)",
}
PAYLOAD_DTYPE = np.dtype("<f8")

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


def check_labels(y, t_a, length: int, fps, error) -> None:
    """The label, accident-frame and fps rules; a broken one raises ``error(message)``."""
    if y not in (0, 1):
        raise error(f"label must be 0 or 1, got {y}")
    if y == 1:
        if t_a is None or not 0 < t_a < length:
            raise error(f"positive episode requires 0 < t_a < {length}, got {t_a}")
    elif t_a is not None:
        raise error("negative episode must not carry an accident frame")
    if not (np.isfinite(fps) and fps > 0.0):
        raise error(f"fps must be finite and > 0, got {fps}")


@dataclass(frozen=True)
class Episode:
    """One dashcam scenario: saliency frames, label, accident time, gaze track.

    ``saliency`` is a C-contiguous float64 ``[T, H, W]`` array, finite and
    >= 0; ``fixation_track`` is ``[T, 2]`` in [0, 1]^2; an error names the
    first ``frame t`` that breaks either. Both are stored as read-only
    views, so code that needs to normalize a frame copies it first.
    """

    saliency: np.ndarray
    y: int
    t_a: int | None
    fixation_track: np.ndarray
    fps: float
    episode_id: str = ""

    def __post_init__(self):
        saliency = np.ascontiguousarray(self.saliency, dtype=np.float64)
        if saliency.ndim != 3:
            raise ValueError(
                f"saliency must have shape [T, H, W], got {list(saliency.shape)}"
            )
        t_len = saliency.shape[0]
        if t_len == 0:
            raise ValueError("episode must contain at least one frame")
        check_labels(self.y, self.t_a, t_len, self.fps, ValueError)
        track = np.ascontiguousarray(self.fixation_track, dtype=np.float64)
        if track.shape != (t_len, 2):
            raise ValueError(
                f"fixation track must have shape [{t_len}, 2], got {list(track.shape)}"
            )
        saliency_ok = (np.isfinite(saliency) & (saliency >= 0.0)).all(axis=(1, 2))
        frame_ok = saliency_ok & ((track >= 0.0) & (track <= 1.0)).all(axis=1)
        if not frame_ok.all():
            t = int(np.argmin(frame_ok))
            if not saliency_ok[t]:
                raise ValueError(f"frame {t}: saliency values must be finite and >= 0")
            px, py = track[t].tolist()
            raise ValueError(f"frame {t}: fixation ({px}, {py}) outside [0, 1]^2")
        # Read-only views: the caller's arrays keep their own flags.
        for name, array in (("saliency", saliency), ("fixation_track", track)):
            view = array.view()
            view.flags.writeable = False
            object.__setattr__(self, name, view)

    @property
    def length(self) -> int:
        return self.saliency.shape[0]

    @property
    def grid_shape(self) -> tuple[int, int]:
        return self.saliency.shape[1:]

    @property
    def frames(self) -> tuple[SaliencyField, ...]:
        """Per-frame ``SaliencyField`` views of ``saliency`` (read-only)."""
        return tuple(SaliencyField(grid, t) for t, grid in enumerate(self.saliency))


def blob_onset(t_a: int) -> int:
    """First frame at which the risk blob starts ramping."""
    return max(0, t_a - BLOB_RAMP_FRAMES)


def generate_episode(cfg: EnvConfig, seed: int) -> Episode:
    """Deterministic synthetic episode for one seed.

    Each frame is normalized to unit mass with ``normalize_fields``.
    """
    rng = np.random.default_rng(seed)
    h, w, t_len = cfg.grid_h, cfg.grid_w, cfg.episode_len
    xs, ys = cell_centers(h, w)

    y = 1 if rng.random() < cfg.accident_prob else 0
    t_a = None
    blob_center = None
    if y == 1:
        lo, hi = cfg.t_a_bounds
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
        bx, by = blob_center.tolist()

    # Ground-truth fixation track, stepped on Python floats.
    noise = FIX_NOISE_POS if y == 1 else FIX_NOISE_NEG
    steps = rng.normal(0.0, noise, size=(t_len - 1, 2)).tolist()
    fx, fy = IMAGE_CENTER
    points = [(fx, fy)]
    for sx, sy in steps:
        if y == 1:  # drift toward the blob
            fx += FIX_DRIFT_RATE * (bx - fx)
            fy += FIX_DRIFT_RATE * (by - fy)
        fx = min(max(fx + sx, 0.0), 1.0)
        fy = min(max(fy + sy, 0.0), 1.0)
        points.append((fx, fy))
    track = np.array(points)

    # Background times iid noise, 1 + BG_TEMPORAL_NOISE * (u - 0.5), for every
    # frame at once (one draw of T frames gives the stream of T per-frame
    # draws), plus the ramped blob.
    saliency = rng.random((t_len, h, w))
    saliency -= 0.5
    saliency *= BG_TEMPORAL_NOISE
    saliency += 1.0
    saliency *= background
    if y == 1:
        onset = blob_onset(t_a)
        ramp = [min(1.0, (t - onset) / float(t_a - onset)) for t in range(onset, t_len)]
        saliency[onset:] += np.array(ramp)[:, None, None] * blob_kernel
    normalize_fields(saliency)

    return Episode(saliency, y, t_a, track, cfg.fps, episode_id=f"gen{seed}")


def write_episode_file(episode: Episode, path) -> None:
    h, w = episode.grid_shape
    t_a = episode.t_a if episode.t_a is not None else -1
    fields = (FORMAT_TAG, h, w, episode.length, format_float(episode.fps), episode.y, t_a)
    write_record(
        path,
        fields,
        [np.asarray(a, dtype=PAYLOAD_DTYPE) for a in (episode.saliency, episode.fixation_track)],
    )


class EpisodeFormatError(ValueError):
    """Raised for malformed, truncated, or out-of-range episode files."""


def load_episode_file(path) -> Episode:
    """Read and validate an ADE2 file; no partial episode survives an error.

    One ``read`` takes the whole file (``records.read_record``). Line 1 is
    checked first, then the payload's length, then its CRC-32; ``Episode``
    then names the first frame whose saliency or fixation is out of range.
    """
    record = read_record(path, HEADER, HEADER_TYPES, RETIRED_TAGS, EpisodeFormatError)
    h, w, t_len, fps, y, t_a = record.fields
    if h < 1 or w < 1 or t_len < 1:
        raise record.fail("nonpositive dimensions")
    if t_a < -1:
        raise record.fail(f"t_a must be -1 (no accident) or a frame index, got {t_a}")
    t_a = None if t_a == -1 else t_a
    check_labels(y, t_a, t_len, fps, record.fail)
    cells = h * w
    payload = record.payload(PAYLOAD_DTYPE.itemsize * t_len * (cells + 2), "8*T*(H*W+2)")
    # The payload starts at an arbitrary offset; astype copies it out aligned.
    values = np.frombuffer(payload, dtype=PAYLOAD_DTYPE).astype(np.float64)
    saliency = values[: t_len * cells].reshape(t_len, h, w)
    track = values[t_len * cells :].reshape(t_len, 2)
    try:
        return Episode(saliency, y, t_a, track, fps, episode_id=_stem(path))
    except ValueError as exc:  # line 1 passed, so a frame is out of range
        raise EpisodeFormatError(f"{path}: {exc}") from exc


def _stem(path) -> str:
    return os.path.splitext(os.path.basename(str(path)))[0]
