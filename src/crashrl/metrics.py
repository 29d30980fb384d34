"""Evaluation of accident anticipation and fixation prediction.

AUC and AP pool frames across episodes (each frame is one sample carrying its
episode's label). Recall and mTTA are episode-level: a positive episode is
detected only by a crossing strictly before its accident frame, and a late
or absent alarm contributes TTA = 0.

Tie handling is pinned so independent implementations agree exactly: tied
pairs add 0.5 each to the AUC pair count, and AP processes tied scores as
one block using the precision at the block end, accumulating per-positive
contributions with exact (fsum) summation.

``compile_report`` is the one entry point: it reads the columns of one
``EvalRecords`` batch, ranks the scores once for AUC, AP, ROC and PR, and
finds each episode's first threshold crossing once for recall, mTTA and the
safe-detection fraction. Its ``MetricsReport`` holds every number crashrl
writes.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .atomic import atomic_write
from .env.rewards import fixation_window_active


NO_ACCIDENT = -1  # the t_a entry of an episode without an accident


@dataclass(frozen=True, eq=False)
class EvalRecords:
    """The evaluated frames of a set of episodes, as columns.

    Per episode e: ``episode_ids[e]``, label ``y[e]``, accident frame
    ``t_a[e]`` (``NO_ACCIDENT`` for a negative episode) and ``fps[e]``. Per
    frame i: its episode index ``episode[i]``, frame ``t[i]``, accident score
    ``score[i]``, predicted fixation ``p_hat[i]``, true fixation ``p[i]`` and
    the rewards ``r_A[i]`` and ``r_F[i]`` the environment paid (only their
    shapes are checked). Frames come episode by episode in episode order,
    every episode has at least one, and ``t`` increases within an episode.
    The whole batch is checked once, on construction.
    """

    episode_ids: tuple[str, ...]
    y: np.ndarray
    t_a: np.ndarray
    fps: np.ndarray
    episode: np.ndarray
    t: np.ndarray
    score: np.ndarray
    p_hat: np.ndarray
    p: np.ndarray
    r_A: np.ndarray
    r_F: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "episode_ids", tuple(self.episode_ids))
        for name in ("y", "t_a", "episode", "t"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=np.int64))
        for name in ("fps", "score", "p_hat", "p", "r_A", "r_F"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=np.float64))
        ids, y, t_a, score = self.episode_ids, self.y, self.t_a, self.score
        episode = self.episode
        e, n = len(ids), episode.size
        want = {"y": (e,), "t_a": (e,), "fps": (e,), "episode": (n,), "t": (n,),
                "score": (n,), "p_hat": (n, 2), "p": (n, 2), "r_A": (n,), "r_F": (n,)}
        if any(getattr(self, k).shape != shape for k, shape in want.items()):
            shapes = ", ".join(f"{k} {list(getattr(self, k).shape)}" for k in want)
            raise ValueError(f"column shapes disagree with {e} episode ids: {shapes}")
        # Between a -1 before and an e after it, the episode column climbs in
        # steps of 1 (next episode) or 0 (more frames of an episode in range).
        bounded = np.concatenate(([-1], episode, [e]))
        step = np.diff(bounded)
        seen: dict[str, int] = {}
        checks = (  # (mask of offenders, message for the first), in order
            (~((score >= 0.0) & (score <= 1.0)),  # NaN fails both
             lambda i: f"score must be in [0, 1], got {score[i]} at frame {i}"),
            ((y != 0) & (y != 1),
             lambda i: f"label must be 0 or 1, got {y[i]} for episode {ids[i]!r}"),
            (~np.where(y == 1, t_a >= 0, t_a == NO_ACCIDENT),
             lambda i: f"episode {ids[i]!r} (y={y[i]}) has t_a {t_a[i]}: a positive "
                       f"episode needs t_a >= 0, a negative one none ({NO_ACCIDENT})"),
            (~(self.fps > 0.0),
             lambda i: f"fps must be > 0, got {self.fps[i]} for episode {ids[i]!r}"),
            (np.array([seen.setdefault(k, i) != i for i, k in enumerate(ids)], dtype=bool),
             lambda i: f"episode ids must be unique, {ids[i]!r} repeats"),
            ((step != 1) & ((step != 0) | (bounded[1:] < 0) | (bounded[1:] >= e)),
             lambda i: f"frames must come episode by episode, in episode order, every "
                       f"episode with at least one frame; frame {i} of {n} is out of "
                       "place (not contiguous, out of order, or after an empty episode)"),
            ((step[1:-1] == 0) & (np.diff(self.t) <= 0),
             lambda i: f"episode {ids[episode[i]]!r}: t must increase from frame to "
                       f"frame, got {self.t[i]} then {self.t[i + 1]}"),
        )
        for offenders, message in checks:
            if offenders.any():
                raise ValueError(message(int(np.flatnonzero(offenders)[0])))

    def __len__(self) -> int:
        return self.score.size

    def frame_t_a(self) -> list[int | None]:
        """Each frame's accident frame as a Python int, None without an accident."""
        return [None if v == NO_ACCIDENT else v for v in self.t_a[self.episode].tolist()]


@dataclass(frozen=True)
class DetectionCounts:
    tp: int
    fp: int
    tn: int
    fn: int


@dataclass(frozen=True)
class MetricsReport:
    """All metrics for one evaluation run, plus ROC/PR curve points."""

    auc: float
    ap: float
    recall_at_a0: float
    mtta_seconds: float
    fixation_mse: float
    counts: DetectionCounts
    roc_points: tuple[tuple[float, float, float], ...]  # (fpr, tpr, threshold)
    pr_points: tuple[tuple[float, float, float], ...]  # (recall, precision, threshold)
    safe_detect_fraction_2s: float


class _TieBlocks(NamedTuple):
    """Pooled frame scores ranked once, highest first, equal scores merged.

    For block k, ``threshold[k]`` is its score, ``pos[k]`` its positive
    frames, and ``tp[k]`` / ``seen[k]`` count the positive frames / all
    frames scoring at least that much.
    """

    threshold: np.ndarray
    pos: np.ndarray
    tp: np.ndarray
    seen: np.ndarray
    n_pos: int
    n_neg: int


def _tie_blocks(records: EvalRecords) -> _TieBlocks:
    """Rank every frame (one sample each, carrying its episode's label)."""
    if len(records) == 0:
        raise ValueError("no records to score")
    order = np.argsort(-records.score, kind="stable")
    scores = records.score[order]
    labels = records.y[records.episode][order]
    ends = np.flatnonzero(np.append(scores[1:] != scores[:-1], True))
    tp = np.cumsum(labels)[ends]
    n_pos = int(tp[-1])
    starts = np.append(0, ends[:-1] + 1)
    return _TieBlocks(
        scores[starts], np.diff(tp, prepend=0), tp, ends + 1, n_pos, scores.size - n_pos
    )


def _auc(blocks: _TieBlocks) -> float:
    """Mann-Whitney AUC: P(score_pos > score_neg) + 0.5 * P(tie), exactly."""
    if blocks.n_pos == 0 or blocks.n_neg == 0:
        raise ValueError("AUC requires both classes among the samples")
    fp = blocks.seen - blocks.tp
    # A block's positives beat every negative below it and tie its own.
    wins = float((blocks.pos * (blocks.n_neg - fp)).sum())
    ties = float((blocks.pos * np.diff(fp, prepend=0)).sum())
    return (wins + 0.5 * ties) / (float(blocks.n_pos) * float(blocks.n_neg))


def _ap(blocks: _TieBlocks) -> float:
    """Step-integrated PR curve: per-positive block-end precision, averaged."""
    if blocks.n_pos == 0:
        raise ValueError("AP requires at least one positive sample")
    precision = (blocks.tp / blocks.seen).tolist()
    # One exact term per positive: fsum of k copies, not k * precision rounded.
    per_positive = itertools.chain.from_iterable(
        itertools.repeat(p, k) for p, k in zip(precision, blocks.pos.tolist())
    )
    return math.fsum(per_positive) / blocks.n_pos


def _roc_points(blocks: _TieBlocks):
    """(fpr, tpr, threshold) per block, after a (0, 0) anchor; needs both classes."""
    fpr = (blocks.seen - blocks.tp) / blocks.n_neg
    tpr = blocks.tp / blocks.n_pos
    return ((0.0, 0.0, math.inf), *zip(fpr.tolist(), tpr.tolist(), blocks.threshold.tolist()))


def _pr_points(blocks: _TieBlocks):
    """(recall, precision, threshold) per block, after a (0, 1) anchor; needs a positive."""
    recall = blocks.tp / blocks.n_pos
    precision = blocks.tp / blocks.seen
    return ((0.0, 1.0, math.inf),
            *zip(recall.tolist(), precision.tolist(), blocks.threshold.tolist()))


def _first_crossings(records: EvalRecords, a_0: float) -> np.ndarray:
    """Per episode, the first t whose score exceeds a_0, or -1 when none does."""
    above = np.flatnonzero(records.score > a_0)
    episodes, first = np.unique(records.episode[above], return_index=True)
    crossing = np.full(len(records.episode_ids), -1, dtype=np.int64)
    crossing[episodes] = records.t[above[first]]
    return crossing


def _recall(records: EvalRecords, crossing: np.ndarray) -> tuple[float, DetectionCounts]:
    """Episode-level recall: detection = any pre-accident frame above a_0."""
    positive = records.y == 1
    crossed = crossing >= 0
    tp = int(np.count_nonzero(positive & crossed & (crossing < records.t_a)))
    fn = int(np.count_nonzero(positive)) - tp
    fp = int(np.count_nonzero(~positive & crossed))
    tn = len(records.episode_ids) - tp - fn - fp
    if tp + fn == 0:
        raise ValueError("recall requires at least one positive episode")
    return tp / (tp + fn), DetectionCounts(tp, fp, tn, fn)


def _ttas(records: EvalRecords, crossing: np.ndarray) -> dict[str, float]:
    """Per positive episode: (t_a - first crossing)/fps, or 0 when late/absent."""
    detected = (crossing >= 0) & (crossing < records.t_a)
    tta = np.where(detected, (records.t_a - crossing) / records.fps, 0.0)
    positive = np.flatnonzero(records.y == 1)
    return dict(zip([records.episode_ids[e] for e in positive], tta[positive].tolist()))


def _mean_tta(ttas: dict[str, float]) -> float:
    """Mean time-to-accident over all positive episodes, zeros included."""
    if not ttas:
        raise ValueError("mTTA requires at least one positive episode")
    return math.fsum(ttas.values()) / len(ttas)


def _safe_fraction(ttas: dict[str, float], margin_seconds: float) -> float:
    """Fraction of detected positive episodes (TTA > 0) whose TTA meets the margin.

    With no detections the fraction is 0.
    """
    detected = [tta for tta in ttas.values() if tta > 0.0]
    if not detected:
        return 0.0
    return sum(1 for tta in detected if tta >= margin_seconds) / len(detected)


def fixation_mse(records: EvalRecords, window: str = "after_accident") -> float:
    """Mean squared fixation error over frames where the reward window is active."""
    active = np.array(
        [fixation_window_active(t, t_a, window)
         for t, t_a in zip(records.t.tolist(), records.frame_t_a())],
        dtype=bool,
    )
    # d * d is the correctly rounded square; d ** 2 goes through libm pow.
    d = records.p_hat[active] - records.p[active]
    errors = d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]
    if not errors.size:
        raise ValueError("fixation_mse: no frames fall inside the evaluation window")
    return math.fsum(errors.tolist()) / errors.size


def compile_report(
    records: EvalRecords,
    a_0: float,
    window: str = "after_accident",
) -> MetricsReport:
    """Every metric from one ranking of the scores and one crossing per episode."""
    crossing = _first_crossings(records, a_0)
    recall, counts = _recall(records, crossing)
    ttas = _ttas(records, crossing)
    blocks = _tie_blocks(records)
    return MetricsReport(
        auc=_auc(blocks),
        ap=_ap(blocks),
        recall_at_a0=recall,
        mtta_seconds=_mean_tta(ttas),
        fixation_mse=fixation_mse(records, window),
        counts=counts,
        roc_points=_roc_points(blocks),
        pr_points=_pr_points(blocks),
        safe_detect_fraction_2s=_safe_fraction(ttas, 2.0),
    )


def report_as_dict(report: MetricsReport) -> dict[str, float]:
    """Flat key/value view of a report (curve points go to the CSV files)."""
    return {
        "auc": report.auc,
        "ap": report.ap,
        "recall_at_a0": report.recall_at_a0,
        "mtta_seconds": report.mtta_seconds,
        "fixation_mse": report.fixation_mse,
        "tp": report.counts.tp,
        "fp": report.counts.fp,
        "tn": report.counts.tn,
        "fn": report.counts.fn,
        "safe_detect_fraction_2s": report.safe_detect_fraction_2s,
    }


def write_report(report: MetricsReport, out_dir) -> None:
    """Write metrics.json plus roc.csv and pr.csv into out_dir."""
    os.makedirs(out_dir, exist_ok=True)
    with atomic_write(os.path.join(out_dir, "metrics.json"), "w", encoding="utf-8") as f:
        json.dump(report_as_dict(report), f, sort_keys=True, indent=2)
        f.write("\n")
    with atomic_write(os.path.join(out_dir, "roc.csv"), "w", encoding="utf-8", newline="\n") as f:
        f.write("fpr,tpr,threshold\n")
        for fpr, tpr, thr in report.roc_points:
            f.write(f"{fpr!r},{tpr!r},{thr!r}\n")
    with atomic_write(os.path.join(out_dir, "pr.csv"), "w", encoding="utf-8", newline="\n") as f:
        f.write("recall,precision,threshold\n")
        for rec, prec, thr in report.pr_points:
            f.write(f"{rec!r},{prec!r},{thr!r}\n")
