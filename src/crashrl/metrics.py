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
writes. ``require_reportable`` states what every report needs (both
classes, and a recorded frame inside the fixation window); ``compile_report``
checks it first, and the harness checks it on an episode set before the
rollout, so no metric below guards against an empty class or window.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .atomic import write_csv, write_json
from .env.rewards import fixation_window_active


NO_ACCIDENT = -1  # the t_a entry of an episode without an accident
SAFE_MARGIN_SECONDS = 2.0  # the TTA a safe detection needs (safe_detect_fraction_2s)


@dataclass(frozen=True, eq=False)
class EvalRecords:
    """The evaluated frames of a set of episodes, as columns.

    Per episode e: ``episode_ids[e]``, label ``y[e]``, accident frame
    ``t_a[e]`` (``NO_ACCIDENT`` for a negative episode) and ``fps[e]``. Per
    frame i: its episode index ``episode[i]``, frame ``t[i]``, accident score
    ``score[i]``, predicted fixation ``p_hat[i]``, true fixation ``p[i]`` and
    the rewards ``r_A[i]`` and ``r_F[i]`` the environment paid. Frames come
    episode by episode in episode order, every episode has at least one, and
    ``t`` increases within an episode; construction checks these, the column
    shapes and the ids' uniqueness. ``Episode`` checked y, t_a and fps, and
    ``check_actions`` the score and p_hat.
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
        ids, episode = self.episode_ids, self.episode
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


@dataclass(frozen=True)
class MetricsReport:
    """All metrics for one evaluation run, plus ROC/PR curve points.

    Every field but the curve points is one metric, named and ordered here
    alone: ``METRIC_NAMES`` lists them for metrics.json, run.json, the
    comparison and the CLI summary line. tp, fp, tn and fn count episodes at
    a_0. ``LOWER_IS_BETTER`` names the metrics a smaller value wins on
    (fixation_mse, fp, fn); every other metric is better higher.
    """

    auc: float
    ap: float
    recall_at_a0: float
    mtta_seconds: float
    fixation_mse: float
    tp: int
    fp: int
    tn: int
    fn: int
    safe_detect_fraction_2s: float
    roc_points: tuple[tuple[float, float, float], ...]  # (fpr, tpr, threshold)
    pr_points: tuple[tuple[float, float, float], ...]  # (recall, precision, threshold)


METRIC_NAMES = tuple(f.name for f in fields(MetricsReport) if not f.name.endswith("_points"))
LOWER_IS_BETTER = frozenset({"fixation_mse", "fp", "fn"})


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
    fp = blocks.seen - blocks.tp
    # A block's positives beat every negative below it and tie its own.
    wins = float((blocks.pos * (blocks.n_neg - fp)).sum())
    ties = float((blocks.pos * np.diff(fp, prepend=0)).sum())
    return (wins + 0.5 * ties) / (float(blocks.n_pos) * float(blocks.n_neg))


def _ap(blocks: _TieBlocks) -> float:
    """Step-integrated PR curve: per-positive block-end precision, averaged."""
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


def require_reportable(labels, in_window, window: str, where: str) -> None:
    """What every report needs: a positive and a negative episode (AUC and
    recall rank both classes), and a recorded frame inside the fixation
    window (fixation MSE averages over those frames).

    ``labels`` holds each episode's label and ``in_window`` whether each
    recorded frame is inside ``window``; ``where`` names the set in the
    ValueError, e.g. "seed 3: the held-out set".
    """
    present = set(labels)
    missing = [name for y, name in ((1, "positive"), (0, "negative")) if y not in present]
    if missing:
        raise ValueError(
            f"{where} of {len(labels)} episodes has no "
            f"{' or '.join(missing)} episode; AUC and recall need both classes"
        )
    if not any(in_window):
        raise ValueError(
            f"{where} of {len(labels)} episodes has no recorded frame inside "
            f"the {window} fixation window; fixation MSE needs one"
        )


def _episode_level(records: EvalRecords, a_0: float) -> dict:
    """The report fields that each episode's first crossing of a_0 gives:
    recall_at_a0, tp, fp, tn, fn, mtta_seconds and safe_detect_fraction_2s.

    A positive episode is detected (tp, else fn) when its first crossing
    comes strictly before t_a; its TTA is then (t_a - crossing) / fps, and 0
    otherwise. A negative episode that crosses is an fp, else a tn.
    The safe-detection fraction counts the detected positives whose TTA
    meets SAFE_MARGIN_SECONDS, and is 0 with no detection.
    """
    above = np.flatnonzero(records.score > a_0)
    episodes, first = np.unique(records.episode[above], return_index=True)
    crossing = np.full(len(records.episode_ids), -1, dtype=np.int64)
    crossing[episodes] = records.t[above[first]]
    positive = records.y == 1
    crossed = crossing >= 0
    detected = positive & crossed & (crossing < records.t_a)
    tp = int(np.count_nonzero(detected))
    fn = int(np.count_nonzero(positive)) - tp
    fp = int(np.count_nonzero(~positive & crossed))
    # Per positive episode, in episode order.
    tta = np.where(detected, (records.t_a - crossing) / records.fps, 0.0)[positive]
    safe = int(np.count_nonzero(tta >= SAFE_MARGIN_SECONDS)) / tp if tp else 0.0
    return dict(
        recall_at_a0=tp / (tp + fn), tp=tp, fp=fp, tn=len(records.episode_ids) - tp - fn - fp,
        fn=fn, mtta_seconds=math.fsum(tta.tolist()) / tta.size, safe_detect_fraction_2s=safe,
    )


def _fixation_mse(records: EvalRecords, in_window: np.ndarray) -> float:
    """Mean squared fixation error over the frames inside the window."""
    # d * d is the correctly rounded square; d ** 2 goes through libm pow.
    d = records.p_hat[in_window] - records.p[in_window]
    errors = d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]
    return math.fsum(errors.tolist()) / errors.size


def compile_report(records: EvalRecords, a_0: float, window: str) -> MetricsReport:
    """Every metric from one ranking of the scores and one crossing per episode.

    Raises ValueError, before computing anything, when the records fail
    ``require_reportable``.
    """
    in_window = np.array(
        [fixation_window_active(t, None if t_a == NO_ACCIDENT else t_a, window)
         for t, t_a in zip(records.t.tolist(), records.t_a[records.episode].tolist())],
        dtype=bool,
    )
    require_reportable(records.y.tolist(), in_window, window, "the record set")
    blocks = _tie_blocks(records)
    return MetricsReport(
        auc=_auc(blocks),
        ap=_ap(blocks),
        fixation_mse=_fixation_mse(records, in_window),
        roc_points=_roc_points(blocks),
        pr_points=_pr_points(blocks),
        **_episode_level(records, a_0),
    )


def report_as_dict(report: MetricsReport) -> dict[str, float]:
    """Every metric, in ``METRIC_NAMES`` order (the curve points go to the CSV files)."""
    return {name: getattr(report, name) for name in METRIC_NAMES}


def write_report(report: MetricsReport, out_dir) -> None:
    """Write metrics.json plus roc.csv and pr.csv into out_dir."""
    write_json(os.path.join(out_dir, "metrics.json"), report_as_dict(report))
    write_csv(os.path.join(out_dir, "roc.csv"), ("fpr", "tpr", "threshold"), report.roc_points)
    write_csv(
        os.path.join(out_dir, "pr.csv"), ("recall", "precision", "threshold"), report.pr_points
    )
