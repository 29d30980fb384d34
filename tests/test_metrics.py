"""Metrics against brute-force oracles and hand-derived cases."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crashrl.metrics import compile_report
from record_rows import Row, episode_ttas, padded_report, records_from_rows


def report_of(records, a_0=0.5):
    """compile_report in the before_accident window, which is open on every
    frame of a one-frame episode."""
    return compile_report(records, a_0, window="before_accident")


def auc(records):
    return report_of(records).auc


def ap(records):
    return report_of(records).ap


def fixation_mse(rows, window="after_accident"):
    """The report's fixation MSE over the rows plus ``PAD`` (see padded_report)."""
    return padded_report(rows, 0.5, window).fixation_mse


def frame(episode_id, t, score, y, t_a=None, p_hat=(0.5, 0.5), p=(0.5, 0.5), fps=10.0):
    return Row(episode_id, t, score, y, t_a, p_hat, p, fps)


def records_from_scores(pos_scores, neg_scores):
    """One single-frame episode per score (frame pooling sees them per frame)."""
    records = []
    for i, s in enumerate(pos_scores):
        records.append(frame(f"p{i}", 0, s, 1, t_a=1))
    for i, s in enumerate(neg_scores):
        records.append(frame(f"n{i}", 0, s, 0))
    return records_from_rows(records)


# ------------------------------------------------------------------ oracles


def auc_pair_oracle(pos, neg):
    """O(n^2) pair counting with 0.5 per tie."""
    wins = 0.0
    ties = 0.0
    for ps in pos:
        for ns in neg:
            if ps > ns:
                wins += 1.0
            elif ps == ns:
                ties += 1.0
    return (wins + 0.5 * ties) / (float(len(pos)) * float(len(neg)))


def ap_step_oracle(scores, labels):
    """Per-positive block-end precision via brute-force counting."""
    contributions = []
    order = sorted(range(len(scores)), key=lambda i: -scores[i])
    for idx in order:
        if labels[idx] != 1:
            continue
        s = scores[idx]
        n_ge = sum(1 for v in scores if v > s or v == s)
        tp_ge = sum(1 for v, l in zip(scores, labels) if (v > s or v == s) and l == 1)
        contributions.append(tp_ge / n_ge)
    return math.fsum(contributions) / sum(labels)


def trace_scan_oracle(traces, a_0):
    """(recall, mtta) by literally walking every trace."""
    tp = fn = 0
    ttas = []
    for y, t_a, fps, scores in traces:
        if y != 1:
            continue
        first = None
        for t, s in enumerate(scores):
            if s > a_0:
                first = t
                break
        if first is not None and first < t_a:
            tp += 1
            ttas.append((t_a - first) / fps)
        else:
            fn += 1
            ttas.append(0.0)
    return tp / (tp + fn), math.fsum(ttas) / len(ttas)


# ---------------------------------------------------------------- AUC tests


class TestRocAuc:
    def test_perfect_separation(self):
        assert auc(records_from_scores([0.9, 0.8], [0.3, 0.2])) == 1.0

    def test_all_ties_give_half(self):
        assert auc(records_from_scores([0.5, 0.5], [0.5, 0.5])) == 0.5

    def test_hand_case_three_quarters(self):
        assert auc(records_from_scores([0.9, 0.7], [0.8, 0.1])) == 0.75

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="has no negative episode; AUC and recall need both"):
            auc(records_from_scores([0.9], []))

    def test_matches_pair_oracle_on_random_sets(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            n_pos = int(rng.integers(1, 30))
            n_neg = int(rng.integers(1, 30))
            # quantized scores force plenty of ties
            pos = list(np.round(rng.random(n_pos), 1))
            neg = list(np.round(rng.random(n_neg), 1))
            got = auc(records_from_scores(pos, neg))
            assert got == auc_pair_oracle(pos, neg)

    @given(
        pos=st.lists(st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0]), min_size=1, max_size=25),
        neg=st.lists(st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0]), min_size=1, max_size=25),
    )
    @settings(max_examples=200, deadline=None)
    def test_pair_oracle_property(self, pos, neg):
        assert auc(records_from_scores(pos, neg)) == auc_pair_oracle(pos, neg)


class TestAveragePrecision:
    def test_perfect_ranking(self):
        assert ap(records_from_scores([0.9, 0.8], [0.3, 0.2])) == 1.0

    def test_hand_case_rank_101(self):
        # ranked labels [1, 0, 1] -> (1/1 + 2/3)/2
        records = records_from_scores([0.9, 0.5], [0.7])
        assert ap(records) == pytest.approx(0.8333333333333333, abs=1e-15)

    def test_single_positive_ranked_last(self):
        records = records_from_scores([0.1], [0.9, 0.8, 0.7])
        assert ap(records) == 0.25

    def test_no_positives_rejected(self):
        with pytest.raises(ValueError):
            ap(records_from_scores([], [0.4]))

    def test_matches_step_oracle_on_random_sets(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            n = int(rng.integers(2, 40))
            scores = list(np.round(rng.random(n), 1))
            labels = list((rng.random(n) < 0.4).astype(int))
            if sum(labels) == 0:
                labels[0] = 1
            pos = [s for s, l in zip(scores, labels) if l == 1]
            neg = [s for s, l in zip(scores, labels) if l == 0]
            got = ap(records_from_scores(pos, neg))
            assert got == ap_step_oracle(pos + neg, [1] * len(pos) + [0] * len(neg))


class TestMonotoneTransformInvariance:
    def test_auc_ap_invariant_under_strictly_increasing_map(self):
        rng = np.random.default_rng(2)
        pos = list(rng.random(20))
        neg = list(rng.random(25))

        def squash(x):  # strictly increasing [0,1] -> [0,1]
            return x**3 * 0.5 + 0.5 * x

        auc_before = auc(records_from_scores(pos, neg))
        ap_before = ap(records_from_scores(pos, neg))
        pos2, neg2 = [squash(x) for x in pos], [squash(x) for x in neg]
        assert auc(records_from_scores(pos2, neg2)) == auc_before
        assert ap(records_from_scores(pos2, neg2)) == ap_before

    def test_recall_mtta_invariant_when_threshold_crossings_fixed(self):
        rng = np.random.default_rng(3)
        traces = []
        records = []
        for e in range(8):
            t_a = int(rng.integers(5, 12))
            scores = list(rng.random(15))
            traces.append((1, t_a, 10.0, scores))
            records.extend(
                frame(f"e{e}", t, s, 1, t_a=t_a) for t, s in enumerate(scores)
            )
        a_0 = 0.5

        def fix_half(x):  # increasing, fixes 0.5
            return 0.5 + 0.5 * math.copysign(abs(2 * x - 1) ** 1.3, 2 * x - 1)

        mapped = [
            frame(r.episode_id, r.t, fix_half(r.score), r.y, t_a=r.t_a)
            for r in records
        ]
        report1, report2 = padded_report(records, a_0), padded_report(mapped, a_0)
        assert report1.recall_at_a0 == report2.recall_at_a0
        assert report2.mtta_seconds == report1.mtta_seconds


class TestRecallAndMtta:
    def _episode(self, eid, scores, y, t_a=None, fps=10.0):
        return [frame(eid, t, s, y, t_a=t_a, fps=fps) for t, s in enumerate(scores)]

    def _report(self, eid, scores, y, t_a=None, fps=10.0):
        return padded_report(self._episode(eid, scores, y, t_a, fps), 0.5)

    def test_nine_of_ten_detected(self):
        records = []
        for e in range(10):
            scores = [0.9 if e < 9 else 0.1] * 5
            records.extend(self._episode(f"e{e}", scores, 1, t_a=4))
        report = padded_report(records, 0.5)
        assert report.recall_at_a0 == 0.9
        assert report.tp == 9 and report.fn == 1

    def test_crossing_at_frame_zero(self):
        report = self._report("e0", [1.0, 0.0, 0.0], 1, t_a=2)
        assert report.recall_at_a0 == 1.0

    def test_late_crossing_counts_fn_and_zero_tta(self):
        # only crossing at t >= t_a
        scores = [0.0] * 5 + [0.9] * 5
        report = self._report("e0", scores, 1, t_a=5)
        assert report.recall_at_a0 == 0.0 and report.fn == 1
        assert report.mtta_seconds == 0.0

    def test_mtta_hand_case(self):
        scores = [0.0] * 30 + [0.9] * 30
        report = self._report("e0", scores, 1, t_a=50, fps=10.0)
        assert report.mtta_seconds == pytest.approx(2.0)

    def test_no_crossing_gives_zero(self):
        report = self._report("e0", [0.1] * 10, 1, t_a=8)
        assert report.mtta_seconds == 0.0

    def test_matches_trace_scan_oracle(self):
        rng = np.random.default_rng(4)
        records = []
        traces = []
        for e in range(30):
            y = int(rng.random() < 0.7)
            length = int(rng.integers(6, 20))
            scores = list(np.round(rng.random(length), 2))
            t_a = int(rng.integers(2, length)) if y else None
            traces.append((y, t_a, 10.0, scores))
            records.extend(self._episode(f"e{e}", scores, y, t_a=t_a))
        report = report_of(records_from_rows(records))
        recall_exp, mtta_exp = trace_scan_oracle(traces, 0.5)
        assert report.recall_at_a0 == recall_exp
        assert report.mtta_seconds == mtta_exp

    def test_removing_negative_episode_changes_nothing(self):
        rng = np.random.default_rng(5)
        records = []
        for e in range(6):
            y = 1 if e < 3 else 0
            scores = list(rng.random(10))
            t_a = 7 if y else None
            records.extend(self._episode(f"e{e}", scores, y, t_a=t_a))
        trimmed = report_of(records_from_rows(r for r in records if r.episode_id != "e5"))
        full = report_of(records_from_rows(records))
        assert trimmed.recall_at_a0 == full.recall_at_a0
        assert trimmed.mtta_seconds == full.mtta_seconds

    def test_no_positive_episode_rejected(self):
        records = records_from_rows(self._episode("e0", [0.3, 0.4], 0))
        with pytest.raises(ValueError, match="has no positive episode; AUC and recall need both"):
            report_of(records)


class TestFixationMse:
    def test_zero_for_perfect_prediction(self):
        records = [
            frame("e0", t, 0.5, 1, t_a=2, p_hat=(0.3, 0.7), p=(0.3, 0.7))
            for t in range(6)
        ]
        assert fixation_mse(records) == 0.0

    def test_constant_offset(self):
        records = [
            frame("e0", t, 0.5, 1, t_a=1, p_hat=(0.6, 0.5), p=(0.5, 0.5))
            for t in range(2, 6)
        ]
        assert fixation_mse(records) == pytest.approx(0.01, abs=1e-15)

    def test_mean_of_two_errors(self):
        records = [
            frame("e0", 3, 0.5, 1, t_a=2, p_hat=(0.5 + math.sqrt(0.02), 0.5)),
            frame("e0", 4, 0.5, 1, t_a=2, p_hat=(0.5 + math.sqrt(0.04), 0.5)),
        ]
        assert fixation_mse(records) == pytest.approx(0.03, abs=1e-12)

    def test_window_selects_frames(self):
        records = [
            frame("e0", 1, 0.5, 1, t_a=3, p_hat=(0.9, 0.5)),  # pre-accident
            frame("e0", 5, 0.5, 1, t_a=3, p_hat=(0.5, 0.5)),  # post-accident
        ]
        assert fixation_mse(records, "after_accident") == 0.0
        # The pad's frame 0 (error 0) is inside this window too: (0.16 + 0) / 2.
        assert fixation_mse(records, "before_accident") == pytest.approx(0.08)

    def test_empty_window_rejected(self):
        records = [frame("e0", 1, 0.5, 1, t_a=3)]
        message = "has no recorded frame inside the after_accident fixation window"
        with pytest.raises(ValueError, match=message):
            fixation_mse(records, "after_accident")

    def test_squares_are_correctly_rounded(self):
        # Offsets where libm pow(d, 2) misses the correctly rounded square by
        # an ulp (any offsets, on a libm whose pow never does).
        values = np.random.default_rng(0).uniform(0.0, 1.0, 20000).tolist()
        offsets = [d for d in values if d**2 != d * d] or values[:8]
        for d in offsets:
            exact = float(Fraction(d) ** 2)
            along_x = frame("e0", 3, 0.5, 1, t_a=2, p_hat=(d, 0.5), p=(0.0, 0.5))
            along_y = frame("e0", 3, 0.5, 1, t_a=2, p_hat=(0.5, d), p=(0.5, 0.0))
            assert fixation_mse([along_x]) == exact
            assert fixation_mse([along_y]) == exact


class TestSafety:
    def test_fraction_counts_only_detected(self):
        records = []
        # detected with TTA 3.0s
        records.extend(frame("a", t, 0.9, 1, t_a=30) for t in range(40))
        # detected with TTA 1.0s
        records.extend(
            frame("b", t, 0.9 if t >= 20 else 0.1, 1, t_a=30) for t in range(40)
        )
        # not detected
        records.extend(frame("c", t, 0.1, 1, t_a=30) for t in range(40))
        assert padded_report(records, 0.5).safe_detect_fraction_2s == 0.5
        ttas = episode_ttas(records_from_rows(records), 0.5)
        assert ttas == {"a": 3.0, "b": 1.0, "c": 0.0}

    def test_no_detections_gives_zero(self):
        records = [frame("a", t, 0.1, 1, t_a=5) for t in range(8)]
        assert padded_report(records, 0.5).safe_detect_fraction_2s == 0.0


class TestCompileReport:
    def _mixed_records(self, perfect=True):
        rng = np.random.default_rng(6)
        records = []
        for e in range(6):
            y = 1 if e < 3 else 0
            t_a = 6 if y else None
            for t in range(10):
                if perfect:
                    score = 0.9 if y else 0.1
                    p_hat = (0.4, 0.4)
                else:
                    score = float(np.round(rng.random(), 2))
                    p_hat = (float(rng.random()), float(rng.random()))
                records.append(
                    frame(f"e{e}", t, score, y, t_a=t_a, p_hat=p_hat, p=(0.4, 0.4))
                )
        return records_from_rows(records)

    def test_perfect_agent_report(self):
        report = compile_report(self._mixed_records(perfect=True), 0.5, "after_accident")
        assert report.auc == 1.0
        assert report.ap == 1.0
        assert report.recall_at_a0 == 1.0
        assert report.fixation_mse == 0.0
        assert report.tp == 3 and report.tn == 3

    def test_report_deterministic(self):
        records = self._mixed_records(perfect=False)
        r1 = compile_report(records, 0.5, "after_accident")
        r2 = compile_report(records, 0.5, "after_accident")
        assert r1 == r2

    def test_roc_points_integrate_to_auc(self):
        records = self._mixed_records(perfect=False)
        report = compile_report(records, 0.5, "after_accident")
        points = report.roc_points
        area = 0.0
        for (f0, t0, _), (f1, t1, _) in zip(points, points[1:]):
            area += (f1 - f0) * (t1 + t0) / 2.0
        assert area == pytest.approx(report.auc, abs=1e-9)

    def test_pr_points_step_integrate_to_ap(self):
        records = self._mixed_records(perfect=False)
        report = compile_report(records, 0.5, "after_accident")
        points = report.pr_points
        area = 0.0
        for (r0, _, _), (r1, p1, _) in zip(points, points[1:]):
            area += (r1 - r0) * p1
        assert area == pytest.approx(report.ap, abs=1e-12)


class TestEvalRecordsChecks:
    """Each batch check of EvalRecords, on records built from per-frame rows.

    The values are checked where they enter, not here: the score by
    ``check_actions`` (test_step_rejects_out_of_range_or_nan_actions), the
    label, t_a and fps by ``Episode`` (test_episode_invariants_enforced).
    """

    def _valid(self):
        return [
            frame("a", 0, 0.2, 1, t_a=3),
            frame("a", 1, 0.7, 1, t_a=3),
            frame("b", 0, 0.4, 0),
            frame("b", 2, 0.1, 0),
        ]

    def test_valid_rows_build_records(self):
        records = records_from_rows(self._valid())
        assert len(records) == 4
        assert records.episode_ids == ("a", "b")
        assert records.episode.tolist() == [0, 0, 1, 1]

    def test_frames_of_an_episode_not_contiguous(self):
        rows = self._valid()
        rows = [rows[0], rows[2], rows[1], rows[3]]  # a, b, a, b
        with pytest.raises(ValueError, match="frame 2 of 4 is out of place"):
            records_from_rows(rows)

    @pytest.mark.parametrize(
        "episode", [[1, 1, 0, 0], [0, 0, 1, 2], [-1, 0, 1, 1], [0, 0, 0, 0]],
        ids=["out_of_order", "index_too_large", "negative_index", "second_episode_empty"],
    )
    def test_episode_column_out_of_order_or_range(self, episode):
        records = records_from_rows(self._valid())
        with pytest.raises(ValueError, match="frame [0-4] of 4 is out of place"):
            dataclasses.replace(records, episode=episode)

    @pytest.mark.parametrize("second_t", [0, -1])
    def test_t_not_increasing_within_an_episode(self, second_t):
        rows = self._valid()
        rows[1] = rows[1]._replace(t=second_t)
        message = f"episode 'a': t must increase.*0 then {second_t}"
        with pytest.raises(ValueError, match=message):
            records_from_rows(rows)

    @pytest.mark.parametrize(
        "column,cut",
        [("t", 3), ("score", 3), ("p_hat", 3), ("p", 5), ("y", 1), ("t_a", 1), ("fps", 3),
         ("r_A", 3), ("r_F", 5)],
    )
    def test_column_lengths_disagree(self, column, cut):
        records = records_from_rows(self._valid())
        values = getattr(records, column)
        short = values[:cut] if cut <= len(values) else np.concatenate([values, values[:1]])
        with pytest.raises(ValueError, match=rf"column shapes disagree.* {column} \[{cut}\b"):
            dataclasses.replace(records, **{column: short})

    def test_episode_without_frames(self):
        records = records_from_rows(self._valid())
        with pytest.raises(ValueError, match="frame 4 of 4 is out of place"):
            dataclasses.replace(
                records,
                episode_ids=("a", "b", "c"),
                y=[1, 0, 0],
                t_a=[3, -1, -1],
                fps=[10.0, 10.0, 10.0],
            )

    def test_episode_ids_repeat(self):
        rows = self._valid()
        records = records_from_rows(rows)
        with pytest.raises(ValueError, match="unique, 'a' repeats"):
            dataclasses.replace(records, episode_ids=("a", "a"))
