from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_force_score, segments_by_or
from sedpipe import metrics
from sedpipe.audio_io import EventRoll
from sedpipe.errors import (
    ClassVocabularyError,
    RangeError,
    ShapeError,
    UndefinedMetricError,
)


def _roll(activity, hop=0.02, names=None):
    activity = np.asarray(activity, dtype=np.uint8)
    names = names or tuple(f"c{i}" for i in range(activity.shape[1]))
    return EventRoll(activity=activity, hop_seconds=hop, class_names=tuple(names))


def _random_roll_pair(rng, n_segments, n_classes, frames_per_segment=50):
    shape = (n_segments * frames_per_segment, n_classes)
    ref = (rng.random(shape) < 0.12).astype(np.uint8)
    pred = ref.copy()
    flip = rng.random(shape) < 0.08
    pred = np.where(flip, 1 - pred, pred).astype(np.uint8)
    if ref.sum() == 0:  # metrics need some reference activity
        ref[rng.integers(shape[0]), rng.integers(n_classes)] = 1
    return _roll(ref), _roll(pred)


class TestRollToSegments:
    def test_five_hundred_frames_make_ten_segments(self):
        roll = _roll(np.zeros((500, 3)))
        assert metrics.roll_to_segments(roll).shape == (10, 3)

    def test_single_active_frame_activates_segment(self):
        activity = np.zeros((100, 2), dtype=np.uint8)
        activity[73, 1] = 1
        segments = metrics.roll_to_segments(_roll(activity))
        assert segments[1, 1] == 1
        assert segments.sum() == 1

    def test_partial_final_segment_is_scored(self):
        activity = np.zeros((60, 1), dtype=np.uint8)
        activity[59, 0] = 1
        segments = metrics.roll_to_segments(_roll(activity))
        assert segments.shape == (2, 1)
        assert segments[1, 0] == 1

    def test_empty_roll_gives_zero_segments(self):
        assert metrics.roll_to_segments(_roll(np.zeros((0, 2)))).shape == (0, 2)

    def test_matches_or_oracle(self, rng):
        activity = (rng.random((137, 4)) < 0.2).astype(np.uint8)
        got = metrics.roll_to_segments(_roll(activity))
        assert np.array_equal(got, segments_by_or(activity, 50))

    def test_rejects_non_tiling_hop(self):
        with pytest.raises(RangeError):
            metrics.roll_to_segments(_roll(np.zeros((10, 1)), hop=0.03))


class TestCountSegment:
    @staticmethod
    def _one(ref_row, pred_row):
        return metrics.count_segments([ref_row], [pred_row]).totals()

    def test_substitution_free_miss(self):
        entry = self._one([1, 1], [1, 0])
        assert entry == dict(tp=1, fp=0, fn=1, n=2, s=0, d=1, i=0)

    def test_pure_insertion(self):
        entry = self._one([0, 0], [1, 0])
        assert entry == dict(tp=0, fp=1, fn=0, n=0, s=0, d=0, i=1)

    def test_perfect_segment(self):
        entry = self._one([1, 0, 1], [1, 0, 1])
        assert entry["s"] == entry["d"] == entry["i"] == 0
        assert entry["tp"] == entry["n"] == 2

    def test_substitution_pairs_fn_with_fp(self):
        entry = self._one([1, 0], [0, 1])
        assert (entry["s"], entry["d"], entry["i"]) == (1, 0, 0)

    def test_rejects_length_mismatch(self):
        with pytest.raises(ShapeError):
            self._one([1, 0], [1])


class TestScores:
    def test_f_score_from_pooled_sums(self):
        ref = np.array([[1, 1, 1], [1, 1, 0]])
        pred = np.array([[1, 1, 0], [1, 0, 1]])
        counts = metrics.count_segments(ref, pred)
        # sums: TP=3, FP=1, FN=2 -> F = 6/9
        assert counts.tp.sum() == 3 and counts.fp.sum() == 1 and counts.fn.sum() == 2
        assert metrics.f_score(counts) == pytest.approx(6.0 / 9.0, abs=1e-12)

    def test_perfect_prediction(self):
        ref = np.array([[1, 0], [0, 1]])
        counts = metrics.count_segments(ref, ref)
        assert metrics.f_score(counts) == 1.0
        assert metrics.error_rate(counts) == 0.0

    def test_zero_overlap_gives_zero_f(self):
        counts = metrics.count_segments(np.array([[1, 0]]), np.array([[0, 1]]))
        assert metrics.f_score(counts) == 0.0

    def test_error_rate_half(self):
        # FN=1, FP=0 -> S=0, D=1, N=2
        counts = metrics.count_segments(np.array([[1, 1]]), np.array([[0, 1]]))
        assert metrics.error_rate(counts) == pytest.approx(0.5)

    def test_error_rate_substitution_case(self):
        counts = metrics.count_segments(np.array([[1, 1, 0]]), np.array([[1, 0, 1]]))
        # S=1, D=0, I=0, N=2
        assert (counts.s[0], counts.d[0], counts.i[0], counts.n[0]) == (1, 0, 0, 2)
        assert metrics.error_rate(counts) == pytest.approx(0.5)

    def test_insertion_into_empty_segment_counts_against_n(self):
        ref = np.array([[0, 0], [1, 0]])
        pred = np.array([[1, 0], [1, 0]])
        counts = metrics.count_segments(ref, pred)
        assert metrics.error_rate(counts) == pytest.approx(1.0)

    def test_error_rate_can_exceed_one(self):
        counts = metrics.count_segments(np.array([[1, 0, 0]]), np.array([[1, 1, 1]]))
        assert metrics.error_rate(counts) == pytest.approx(2.0)

    def test_empty_reference_raises(self):
        counts = metrics.count_segments(np.zeros((3, 2)), np.zeros((3, 2)))
        with pytest.raises(UndefinedMetricError):
            metrics.error_rate(counts)

    def test_degenerate_f_is_one(self):
        counts = metrics.count_segments(np.zeros((3, 2)), np.zeros((3, 2)))
        assert metrics.f_score(counts) == 1.0


class TestEvaluate:
    def test_identity_prediction(self, rng):
        ref, _ = _random_roll_pair(rng, 5, 4)
        report = metrics.evaluate(ref, ref)
        assert report.error_rate == 0.0
        assert report.f_score == 1.0

    def test_all_zero_prediction_is_all_deletions(self, rng):
        ref, _ = _random_roll_pair(rng, 5, 4)
        pred = _roll(np.zeros_like(ref.activity))
        report = metrics.evaluate(ref, pred)
        assert report.f_score == 0.0
        assert report.error_rate == pytest.approx(1.0)
        assert report.totals["d"] == report.totals["n"]

    def test_fifty_randomized_trials_match_independent_scorer(self):
        rng = np.random.default_rng(99)
        for _ in range(50):
            n_segments = int(rng.integers(1, 21))
            n_classes = int(rng.integers(1, 7))
            ref, pred = _random_roll_pair(rng, n_segments, n_classes)
            report = metrics.evaluate(ref, pred)
            per_segment, er, f = brute_force_score(
                segments_by_or(ref.activity, 50), segments_by_or(pred.activity, 50)
            )
            assert report.error_rate == er
            assert report.f_score == f
            counts = metrics.count_segments(
                metrics.roll_to_segments(ref), metrics.roll_to_segments(pred)
            )
            for k, entry in enumerate(per_segment):
                assert (
                    counts.tp[k], counts.fp[k], counts.fn[k], counts.n[k],
                    counts.s[k], counts.d[k], counts.i[k],
                ) == entry

    def test_vocabulary_mismatch_rejected(self, rng):
        ref, pred = _random_roll_pair(rng, 2, 2)
        renamed = EventRoll(
            activity=pred.activity, hop_seconds=pred.hop_seconds, class_names=("x", "y")
        )
        with pytest.raises(ClassVocabularyError):
            metrics.evaluate(ref, renamed)

    def test_frame_count_mismatch_rejected(self, rng):
        ref, pred = _random_roll_pair(rng, 2, 2)
        short = _roll(pred.activity[:-1])
        with pytest.raises(ShapeError):
            metrics.evaluate(ref, short)


class TestInvariants:
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_sdi_identities(self, seed):
        rng = np.random.default_rng(seed)
        ref, pred = _random_roll_pair(rng, int(rng.integers(1, 10)), int(rng.integers(1, 7)))
        counts = metrics.count_segments(
            metrics.roll_to_segments(ref), metrics.roll_to_segments(pred)
        )
        assert np.array_equal(counts.s + counts.d, counts.fn)
        assert np.array_equal(counts.s + counts.i, counts.fp)
        assert np.array_equal(counts.tp + counts.fn, counts.n)

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_class_permutation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        ref, pred = _random_roll_pair(rng, 4, 5)
        perm = rng.permutation(5)
        ref_p = _roll(ref.activity[:, perm])
        pred_p = _roll(pred.activity[:, perm])
        a = metrics.evaluate(ref, pred)
        b = metrics.evaluate(ref_p, pred_p)
        assert a.error_rate == b.error_rate
        assert a.f_score == b.f_score

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_segment_reordering_invariance(self, seed):
        rng = np.random.default_rng(seed)
        ref, pred = _random_roll_pair(rng, 6, 3)
        ref_seg = metrics.roll_to_segments(ref)
        pred_seg = metrics.roll_to_segments(pred)
        perm = rng.permutation(ref_seg.shape[0])
        a = metrics.count_segments(ref_seg, pred_seg)
        b = metrics.count_segments(ref_seg[perm], pred_seg[perm])
        assert metrics.error_rate(a) == metrics.error_rate(b)
        assert metrics.f_score(a) == metrics.f_score(b)

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_fixing_one_wrong_cell_is_monotone(self, seed):
        rng = np.random.default_rng(seed)
        ref, pred = _random_roll_pair(rng, 5, 4)
        ref_seg = metrics.roll_to_segments(ref)
        pred_seg = metrics.roll_to_segments(pred).copy()
        wrong = np.argwhere(ref_seg != pred_seg)
        if wrong.size == 0:
            return
        before_counts = metrics.count_segments(ref_seg, pred_seg)
        er_before = metrics.error_rate(before_counts)
        f_before = metrics.f_score(before_counts)
        k, c = wrong[rng.integers(len(wrong))]
        pred_seg[k, c] = ref_seg[k, c]
        after_counts = metrics.count_segments(ref_seg, pred_seg)
        assert metrics.error_rate(after_counts) <= er_before + 1e-12
        assert metrics.f_score(after_counts) >= f_before - 1e-12


def test_pooled_evaluation_concatenates_counts(rng):
    pairs = [_random_roll_pair(rng, 3, 2) for _ in range(4)]
    pooled = metrics.evaluate_pooled(pairs)
    counts = metrics.SegmentCounts.concat(
        [
            metrics.count_segments(
                metrics.roll_to_segments(r), metrics.roll_to_segments(p)
            )
            for r, p in pairs
        ]
    )
    assert pooled.error_rate == metrics.error_rate(counts)
    assert pooled.f_score == metrics.f_score(counts)
    assert pooled.n_segments == counts.n_segments


def test_pooled_evaluation_rejects_mismatched_hops():
    # 40 frames form one segment at either hop, so only the hop check can
    # tell the rolls apart
    activity = np.zeros((40, 2))
    activity[:, 0] = 1
    ref, pred = _roll(activity, hop=0.02), _roll(activity, hop=0.025)
    with pytest.raises(ShapeError):
        metrics.evaluate(ref, pred)
    with pytest.raises(ShapeError):
        metrics.evaluate_pooled([(ref, pred)])
