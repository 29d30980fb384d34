"""Evaluation of accident anticipation and fixation prediction.

AUC and AP pool frames across episodes (each frame is one sample carrying its
episode's label). Recall and mTTA are episode-level: a positive episode is
detected only by a crossing strictly before its accident frame, and a late
or absent alarm contributes TTA = 0.

Tie handling is pinned so independent implementations agree exactly: tied
pairs add 0.5 each to the AUC pair count, and AP processes tied scores as
one block using the precision at the block end, accumulating per-positive
contributions with exact (fsum) summation.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .env.rewards import fixation_window_active


@dataclass(frozen=True)
class FrameRecord:
    """One evaluated frame: score, fixations, and its episode's metadata."""

    episode_id: str
    t: int
    score: float
    y: int
    t_a: int | None
    p_hat: tuple[float, float]
    p: tuple[float, float]
    fps: float

    def __post_init__(self):
        if not 0.0 <= self.score <= 1.0:
            raise ValueError(f"score must be in [0, 1], got {self.score}")
        if self.y not in (0, 1):
            raise ValueError(f"label must be 0 or 1, got {self.y}")
        if self.y == 1 and self.t_a is None:
            raise ValueError("positive episode records require t_a")
        if self.y == 0 and self.t_a is not None:
            raise ValueError("negative episode records must not carry t_a")
        if self.fps <= 0.0:
            raise ValueError(f"fps must be > 0, got {self.fps}")


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


def _group_episodes(records) -> dict[str, list[FrameRecord]]:
    episodes: dict[str, list[FrameRecord]] = {}
    for rec in records:
        episodes.setdefault(rec.episode_id, []).append(rec)
    for episode_id, recs in episodes.items():
        recs.sort(key=lambda r: r.t)
        first = recs[0]
        for rec in recs:
            if rec.y != first.y or rec.t_a != first.t_a or rec.fps != first.fps:
                raise ValueError(
                    f"episode {episode_id!r} carries inconsistent label metadata"
                )
    return episodes


def _samples(records) -> tuple[np.ndarray, np.ndarray]:
    """(scores, labels), one sample per frame."""
    scores = np.array([r.score for r in records])
    labels = np.array([r.y for r in records])
    if scores.size == 0:
        raise ValueError("no records to score")
    return scores, labels


def roc_auc(records) -> float:
    """Mann-Whitney AUC: P(score_pos > score_neg) + 0.5 * P(tie), exactly."""
    scores, labels = _samples(records)
    pos = scores[labels == 1]
    neg = np.sort(scores[labels == 0])
    if pos.size == 0 or neg.size == 0:
        raise ValueError("roc_auc requires both classes among the samples")
    below = np.searchsorted(neg, pos, side="left")
    upto = np.searchsorted(neg, pos, side="right")
    wins = float(below.sum(dtype=np.int64))
    ties = float((upto - below).sum(dtype=np.int64))
    return (wins + 0.5 * ties) / (float(pos.size) * float(neg.size))


def average_precision(records) -> float:
    """Step-integrated PR curve: per-positive block-end precision, averaged."""
    scores, labels = _samples(records)
    n_pos = int(labels.sum())
    if n_pos == 0:
        raise ValueError("average_precision requires at least one positive sample")
    order = np.argsort(-scores, kind="stable")
    scores, labels = scores[order], labels[order]
    contributions: list[float] = []
    seen = 0
    tp = 0
    i = 0
    n = scores.size
    while i < n:
        j = i
        while j < n and scores[j] == scores[i]:
            j += 1
        block_pos = int(labels[i:j].sum())
        seen = j
        tp += block_pos
        precision = tp / seen
        contributions.extend([precision] * block_pos)
        i = j
    return math.fsum(contributions) / n_pos


def roc_curve_points(records):
    """(fpr, tpr, threshold) per distinct threshold, descending, with a (0,0) anchor."""
    scores, labels = _samples(records)
    n_pos = int(labels.sum())
    n_neg = int(labels.size - n_pos)
    if n_pos == 0 or n_neg == 0:
        raise ValueError("ROC curve requires both classes among the samples")
    order = np.argsort(-scores, kind="stable")
    scores, labels = scores[order], labels[order]
    points = [(0.0, 0.0, math.inf)]
    tp = fp = 0
    i = 0
    while i < scores.size:
        j = i
        while j < scores.size and scores[j] == scores[i]:
            j += 1
        tp += int(labels[i:j].sum())
        fp += int(j - i - labels[i:j].sum())
        points.append((fp / n_neg, tp / n_pos, float(scores[i])))
        i = j
    return tuple(points)


def pr_curve_points(records):
    """(recall, precision, threshold) per distinct threshold, descending."""
    scores, labels = _samples(records)
    n_pos = int(labels.sum())
    if n_pos == 0:
        raise ValueError("PR curve requires at least one positive sample")
    order = np.argsort(-scores, kind="stable")
    scores, labels = scores[order], labels[order]
    points = [(0.0, 1.0, math.inf)]
    tp = 0
    seen = 0
    i = 0
    while i < scores.size:
        j = i
        while j < scores.size and scores[j] == scores[i]:
            j += 1
        tp += int(labels[i:j].sum())
        seen = j
        points.append((tp / n_pos, tp / seen, float(scores[i])))
        i = j
    return tuple(points)


def _first_crossing(trace: list[FrameRecord], a_0: float) -> int | None:
    for rec in trace:
        if rec.score > a_0:
            return rec.t
    return None


def recall_at_threshold(records, a_0: float) -> tuple[float, DetectionCounts]:
    """Episode-level recall: detection = any pre-accident frame above a_0."""
    episodes = _group_episodes(records)
    tp = fp = tn = fn = 0
    for trace in episodes.values():
        label, t_a = trace[0].y, trace[0].t_a
        if label == 1:
            crossing = _first_crossing(trace, a_0)
            if crossing is not None and crossing < t_a:
                tp += 1
            else:
                fn += 1
        else:
            if _first_crossing(trace, a_0) is not None:
                fp += 1
            else:
                tn += 1
    if tp + fn == 0:
        raise ValueError("recall requires at least one positive episode")
    return tp / (tp + fn), DetectionCounts(tp, fp, tn, fn)


def tta_by_episode(records, a_0: float) -> dict[str, float]:
    """Per positive episode: (t_a - first crossing)/fps, or 0 when late/absent."""
    episodes = _group_episodes(records)
    out: dict[str, float] = {}
    for episode_id, trace in episodes.items():
        if trace[0].y != 1:
            continue
        t_a, fps = trace[0].t_a, trace[0].fps
        crossing = _first_crossing(trace, a_0)
        if crossing is None or crossing >= t_a:
            out[episode_id] = 0.0
        else:
            out[episode_id] = (t_a - crossing) / fps
    return out


def mtta(records, a_0: float) -> float:
    """Mean time-to-accident over all positive episodes, zeros included."""
    ttas = tta_by_episode(records, a_0)
    if not ttas:
        raise ValueError("mtta requires at least one positive episode")
    return math.fsum(ttas.values()) / len(ttas)


def safe_detect_fraction(records, a_0: float, margin_seconds: float = 2.0) -> float:
    """Fraction of detected positive episodes whose TTA meets the reaction margin.

    Detected means a crossing strictly before t_a; with no detections the
    fraction is 0.
    """
    detected = [tta for tta in tta_by_episode(records, a_0).values() if tta > 0.0]
    if not detected:
        return 0.0
    return sum(1 for tta in detected if tta >= margin_seconds) / len(detected)


def fixation_mse(records, window: str = "after_accident") -> float:
    """Mean squared fixation error over frames where the reward window is active."""
    errors = []
    for r in records:
        if fixation_window_active(r.t, r.t_a, window):
            # d * d is the correctly rounded square; d ** 2 goes through libm pow.
            dx = r.p_hat[0] - r.p[0]
            dy = r.p_hat[1] - r.p[1]
            errors.append(dx * dx + dy * dy)
    if not errors:
        raise ValueError("fixation_mse: no frames fall inside the evaluation window")
    return math.fsum(errors) / len(errors)


def compile_report(
    records,
    a_0: float,
    window: str = "after_accident",
) -> MetricsReport:
    records = list(records)
    recall, counts = recall_at_threshold(records, a_0)
    return MetricsReport(
        auc=roc_auc(records),
        ap=average_precision(records),
        recall_at_a0=recall,
        mtta_seconds=mtta(records, a_0),
        fixation_mse=fixation_mse(records, window),
        counts=counts,
        roc_points=roc_curve_points(records),
        pr_points=pr_curve_points(records),
        safe_detect_fraction_2s=safe_detect_fraction(records, a_0),
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
    with open(os.path.join(out_dir, "metrics.json"), "w", encoding="utf-8") as f:
        json.dump(report_as_dict(report), f, sort_keys=True, indent=2)
        f.write("\n")
    with open(os.path.join(out_dir, "roc.csv"), "w", encoding="utf-8", newline="\n") as f:
        f.write("fpr,tpr,threshold\n")
        for fpr, tpr, thr in report.roc_points:
            f.write(f"{fpr!r},{tpr!r},{thr!r}\n")
    with open(os.path.join(out_dir, "pr.csv"), "w", encoding="utf-8", newline="\n") as f:
        f.write("recall,precision,threshold\n")
        for rec, prec, thr in report.pr_points:
            f.write(f"{rec!r},{prec!r},{thr!r}\n")
