"""Segment-based polyphonic SED metrics.

Predictions and ground truth are compared in fixed-length segments (one
second by default): a class counts as active in a segment if it is active
in any frame of it. Per segment, false negatives and false positives pair
off into substitutions; the leftovers are deletions and insertions. The
error rate is (S + D + I) / N over all segments and the F-score is the
micro-averaged 2*TP / (2*TP + FP + FN).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .audio_io import EventRoll
from .errors import (
    ClassVocabularyError,
    RangeError,
    ShapeError,
    UndefinedMetricError,
)


@dataclass(frozen=True)
class SegmentCounts:
    """Per-segment tallies; all fields are int64 arrays of length K."""

    tp: np.ndarray
    fp: np.ndarray
    fn: np.ndarray
    n: np.ndarray
    s: np.ndarray
    d: np.ndarray
    i: np.ndarray

    def __post_init__(self):
        k = self.tp.shape
        for name in ("fp", "fn", "n", "s", "d", "i"):
            if getattr(self, name).shape != k:
                raise ShapeError("segment count arrays must share one length")
        if not (
            np.array_equal(self.s + self.d, self.fn)
            and np.array_equal(self.s + self.i, self.fp)
            and np.array_equal(self.tp + self.fn, self.n)
        ):
            raise ShapeError("segment counts violate the S/D/I identities")

    @property
    def n_segments(self) -> int:
        return self.tp.shape[0]

    def totals(self) -> dict[str, int]:
        return {
            name: int(getattr(self, name).sum())
            for name in ("tp", "fp", "fn", "n", "s", "d", "i")
        }

    @staticmethod
    def concat(parts: Sequence["SegmentCounts"]) -> "SegmentCounts":
        return SegmentCounts(
            **{
                name: np.concatenate([getattr(p, name) for p in parts])
                if parts
                else np.zeros(0, dtype=np.int64)
                for name in ("tp", "fp", "fn", "n", "s", "d", "i")
            }
        )


@dataclass(frozen=True)
class MetricReport:
    error_rate: float
    f_score: float
    totals: dict[str, int]
    n_segments: int
    # True when both reference and prediction were empty, which forces the
    # F-score denominator to zero; F is then defined as 1
    degenerate_f: bool = False

    def f_percent(self) -> float:
        return 100.0 * self.f_score


def roll_to_segments(roll: EventRoll, segment_seconds: float = 1.0) -> np.ndarray:
    """Collapse a frame roll to a (segments, classes) binary matrix.

    A class is active in a segment iff it is active in at least one of its
    frames. The frame hop must tile the segment length; the final partial
    segment is kept.
    """
    if segment_seconds <= 0:
        raise RangeError(f"segment_seconds must be positive, got {segment_seconds}")
    ratio = segment_seconds / roll.hop_seconds
    frames_per_segment = int(round(ratio))
    if frames_per_segment < 1 or abs(ratio - frames_per_segment) > 1e-6:
        raise RangeError(
            f"hop {roll.hop_seconds}s does not tile a {segment_seconds}s segment"
        )
    a = roll.activity
    n_segments = -(-a.shape[0] // frames_per_segment)
    padded = np.zeros((n_segments * frames_per_segment, a.shape[1]), dtype=np.uint8)
    padded[: a.shape[0]] = a
    return padded.reshape(n_segments, frames_per_segment, a.shape[1]).max(axis=1)


def count_segments(ref_segments, pred_segments) -> SegmentCounts:
    """TP/FP/FN/N and the S/D/I decomposition of every segment (row)."""
    r = np.asarray(ref_segments).astype(bool)
    p = np.asarray(pred_segments).astype(bool)
    if r.shape != p.shape:
        raise ShapeError(f"segment matrices differ in shape: {r.shape} vs {p.shape}")
    tp = np.sum(r & p, axis=1).astype(np.int64)
    fp = np.sum(~r & p, axis=1).astype(np.int64)
    fn = np.sum(r & ~p, axis=1).astype(np.int64)
    n = np.sum(r, axis=1).astype(np.int64)
    s = np.minimum(fn, fp)
    return SegmentCounts(tp=tp, fp=fp, fn=fn, n=n, s=s, d=fn - s, i=fp - s)


def f_score(counts: SegmentCounts) -> float:
    """Micro-averaged F-score; the empty-vs-empty degenerate case is 1."""
    tp, fp, fn = int(counts.tp.sum()), int(counts.fp.sum()), int(counts.fn.sum())
    denom = 2 * tp + fp + fn
    if denom == 0:
        return 1.0
    return 2.0 * tp / denom


def error_rate(counts: SegmentCounts) -> float:
    """(S + D + I) / N over all segments; may exceed 1. Raises
    :class:`UndefinedMetricError` when the reference holds no activity."""
    n = int(counts.n.sum())
    if n == 0:
        raise UndefinedMetricError("error rate undefined: reference contains no activity")
    return float(counts.s.sum() + counts.d.sum() + counts.i.sum()) / n


def _pair_counts(ref: EventRoll, pred: EventRoll, segment_seconds: float) -> SegmentCounts:
    """Check that a (ref, pred) roll pair is comparable and count its segments."""
    if ref.class_names != pred.class_names:
        raise ClassVocabularyError(
            f"class vocabularies differ: {ref.class_names} vs {pred.class_names}"
        )
    if ref.n_frames != pred.n_frames:
        raise ShapeError(f"frame counts differ: {ref.n_frames} vs {pred.n_frames}")
    if abs(ref.hop_seconds - pred.hop_seconds) > 1e-12:
        raise ShapeError(f"hops differ: {ref.hop_seconds} vs {pred.hop_seconds}")
    return count_segments(
        roll_to_segments(ref, segment_seconds), roll_to_segments(pred, segment_seconds)
    )


def evaluate(ref: EventRoll, pred: EventRoll, segment_seconds: float = 1.0) -> MetricReport:
    """Score a prediction roll against a reference roll."""
    return report_from_counts(_pair_counts(ref, pred, segment_seconds))


def report_from_counts(counts: SegmentCounts) -> MetricReport:
    totals = counts.totals()
    degenerate = 2 * totals["tp"] + totals["fp"] + totals["fn"] == 0
    return MetricReport(
        error_rate=error_rate(counts),
        f_score=f_score(counts),
        totals=totals,
        n_segments=counts.n_segments,
        degenerate_f=degenerate,
    )


def evaluate_pooled(
    pairs: Sequence[tuple[EventRoll, EventRoll]], segment_seconds: float = 1.0
) -> MetricReport:
    """Score many (ref, pred) roll pairs by pooling their segments, e.g. all
    clips of a test split. Each roll is segmented independently."""
    return report_from_counts(
        SegmentCounts.concat([_pair_counts(ref, pred, segment_seconds) for ref, pred in pairs])
    )
