"""Eval records built from per-frame rows, and read back as rows.

A row is one evaluated frame with its episode's metadata and the rewards
paid for it (0.0 unless given), the view the columns of ``EvalRecords``
replace. Tests write records this way; the batch
checks of ``EvalRecords`` see exactly the rows given, in the order given.

Every metric is read from ``compile_report``. It ranks both classes for the
AUC, so ``padded_report`` adds one negative episode to a set of positives,
and ``episode_ttas`` reads one positive episode's TTA as the mTTA of a
padded set holding that episode alone.
"""

from collections import namedtuple

import numpy as np

from crashrl.metrics import NO_ACCIDENT, EvalRecords, MetricsReport, compile_report

Row = namedtuple("Row", "episode_id t score y t_a p_hat p fps r_A r_F", defaults=(0.0, 0.0))


def records_from_rows(rows) -> EvalRecords:
    """Episodes in order of first appearance, metadata from their first row."""
    rows = [Row(*row) for row in rows]
    index: dict[str, int] = {}
    meta = []
    for row in rows:
        t_a = NO_ACCIDENT if row.t_a is None else row.t_a
        if row.episode_id not in index:
            index[row.episode_id] = len(meta)
            meta.append((row.y, t_a, row.fps))
        assert meta[index[row.episode_id]] == (row.y, t_a, row.fps), (
            f"rows of episode {row.episode_id!r} disagree on y, t_a or fps"
        )
    y, t_a, fps = zip(*meta) if meta else ((), (), ())
    return EvalRecords(
        episode_ids=tuple(index),
        y=y,
        t_a=t_a,
        fps=fps,
        episode=[index[row.episode_id] for row in rows],
        t=[row.t for row in rows],
        score=[row.score for row in rows],
        p_hat=np.array([row.p_hat for row in rows], dtype=np.float64).reshape(-1, 2),
        p=np.array([row.p for row in rows], dtype=np.float64).reshape(-1, 2),
        r_A=[row.r_A for row in rows],
        r_F=[row.r_F for row in rows],
    )


def frame_rows(records: EvalRecords) -> list[Row]:
    """One Row of Python scalars per frame, in record order."""
    ids = records.episode_ids
    t_a = [None if v == NO_ACCIDENT else v for v in records.t_a.tolist()]
    y, fps = records.y.tolist(), records.fps.tolist()
    return [
        Row(ids[e], t, score, y[e], t_a[e], tuple(p_hat), tuple(p), fps[e], r_a, r_f)
        for e, t, score, p_hat, p, r_a, r_f in zip(
            records.episode.tolist(), records.t.tolist(), records.score.tolist(),
            records.p_hat.tolist(), records.p.tolist(), records.r_A.tolist(),
            records.r_F.tolist(),
        )
    ]


# A one-frame negative episode whose fixation prediction is exact.
PAD = Row("pad", 0, 0.0, 0, None, (0.5, 0.5), (0.5, 0.5), 10.0)


def padded_report(rows, a_0: float, window: str = "before_accident") -> MetricsReport:
    """``compile_report`` over the rows followed by ``PAD``.

    A negative episode changes no metric of the positive episodes (recall,
    mTTA, the safe-detection fraction, tp and fn), nor the fixation MSE in
    the after_accident window, which never opens on a negative. The
    before_accident window, always open on the pad's frame 0, keeps a
    record set without post-accident frames reportable.
    """
    return compile_report(records_from_rows([*rows, PAD]), a_0, window)


def episode_ttas(records: EvalRecords, a_0: float) -> dict[str, float]:
    """Per positive episode: its TTA, the mTTA of it alone plus ``PAD``."""
    rows = frame_rows(records)
    positives = [eid for eid, y in zip(records.episode_ids, records.y.tolist()) if y == 1]
    return {
        eid: padded_report([r for r in rows if r.episode_id == eid], a_0).mtta_seconds
        for eid in positives
    }
