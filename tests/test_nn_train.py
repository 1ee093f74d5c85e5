from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from sedpipe import metrics
from sedpipe.audio_io import EventRoll
from sedpipe.config import TrainSection
from sedpipe.errors import RangeError, StateError
from sedpipe.experiment import run_generators
from sedpipe.features import Normalizer, SequenceBatch, chunk_sequences
from sedpipe.nn import CrnnArch, build_crnn, monitor_scores, train
from sedpipe.nn.loss import bce_loss

# a one-second hop makes every frame its own one-second segment, so the
# monitored score is a frame score
HOP = 1.0
NAMES = ("a", "b")


def toy_clip(rng, n_seq=6, t=16, n_bins=8):
    """One clip of ``n_seq`` length-``t`` sequences of a learnable toy
    problem, (frames, bins, 1) with its roll: class c is active while bin c
    carries energy."""
    classes = len(NAMES)
    inputs = rng.normal(scale=0.1, size=(n_seq, t, n_bins, 1))
    targets = np.zeros((n_seq, t, classes), dtype=np.uint8)
    for s in range(n_seq):
        for c in range(classes):
            active = rng.random(t) < 0.3
            targets[s, :, c] = active
            inputs[s, active, c, 0] += 2.0
    roll = EventRoll(activity=targets.reshape(n_seq * t, classes), hop_seconds=HOP, class_names=NAMES)
    return inputs.reshape(n_seq * t, n_bins, 1), roll


def unnormalized(clips, t=16) -> SequenceBatch:
    """``clips`` chunked into length-``t`` sequences as they are."""
    n_bins = clips[0][0].shape[1]
    return chunk_sequences(clips, t, Normalizer(mean=np.zeros((n_bins, 1)), std=np.ones((n_bins, 1))))


def toy_batch(rng, n_seq=6):
    return unnormalized([toy_clip(rng, n_seq)])


def generators(seed=1):
    """A run's (shuffle, dropout) generators."""
    _, shuffle_rng, dropout_rng = run_generators(seed)
    return shuffle_rng, dropout_rng


def toy_model(seed=0, classes=2):
    arch = CrnnArch(
        n_bins=8, n_channels=1, n_classes=classes, conv_layers=1, filters=4,
        pool_factors=(4,), gru_layers=1, gru_units=6, dense_layers=0,
        dense_units=0, dropout=0.0,
    )
    return build_crnn(arch, np.random.default_rng(seed))


class TestTrainSection:
    def test_patience_zero_excluded(self):
        with pytest.raises(RangeError):
            TrainSection(patience=0)

    def test_patience_must_stay_below_epochs(self):
        with pytest.raises(RangeError):
            TrainSection(max_epochs=10, patience=10)

    def test_learning_rate_positive(self):
        with pytest.raises(RangeError):
            TrainSection(learning_rate=0.0)


class Echo:
    """A stand-in model whose class probability is its input's one bin."""

    def forward(self, x, training):
        return x[..., 0]


def echo_clip(pred, ref):
    """One clip: input ``pred`` (which :class:`Echo` predicts) and target
    ``ref``, both (frames, classes)."""
    return pred[:, :, None].astype(float), EventRoll(activity=ref, hop_seconds=0.02, class_names=("a",))


class TestMonitorScores:
    def test_no_segment_spans_two_clips(self):
        # two 75-frame (1.5 s) clips: the reference ends clip 1, the
        # prediction starts clip 2
        ref1, pred1, ref2, pred2 = (np.zeros((75, 1), dtype=np.uint8) for _ in range(4))
        ref1[50:] = 1
        pred2[:10] = 1
        clips = [echo_clip(pred1, ref1), echo_clip(pred2, ref2)]
        batch = chunk_sequences(clips, 64, Normalizer(mean=np.zeros((1, 1)), std=np.ones((1, 1))))
        report = monitor_scores(Echo(), batch, 0.5)
        # per clip: a deletion in clip 1's second segment, an insertion in
        # clip 2's first
        assert report.error_rate == 2.0
        assert report.totals["d"] == 1 and report.totals["i"] == 1
        assert report.n_segments == 4
        # the joined roll puts both into one segment and scores it a hit
        joined = [
            EventRoll(activity=np.concatenate(pair), hop_seconds=0.02, class_names=("a",))
            for pair in ((ref1, ref2), (pred1, pred2))
        ]
        assert metrics.evaluate(*joined).error_rate == 0.0


class TestTrainLoop:
    def test_empty_training_stream_rejected(self, rng):
        batch = toy_batch(rng)
        silent = EventRoll(activity=np.zeros((0, 2), dtype=np.uint8), hop_seconds=HOP, class_names=NAMES)
        empty = unnormalized([(np.zeros((0, 8, 1)), silent)])
        with pytest.raises(StateError):
            train(toy_model(), empty, batch, TrainSection(max_epochs=5, patience=1), *generators())

    def test_patience_one_with_worsening_er_stops_after_two_epochs(self, rng, monkeypatch):
        batch = toy_batch(rng)
        ers = iter([0.5, 0.9, 0.9, 0.9, 0.9, 0.9])

        def fake_scores(*args, **kwargs):
            return metrics.MetricReport(error_rate=next(ers), f_score=0.0, totals={}, n_segments=0)

        import sedpipe.nn.training as train_mod

        monkeypatch.setattr(train_mod, "monitor_scores", fake_scores)
        _, history = train_mod.train(toy_model(), batch, batch, TrainSection(max_epochs=10, patience=1), *generators())
        assert history.n_epochs == 2
        assert history.best_epoch == 1

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_input_raises_at_first_epoch(self, rng):
        data, roll = toy_clip(rng)
        data[2 * 16 + 5, 3, 0] = np.nan
        batch = unnormalized([(data, roll)])
        cfg = TrainSection(max_epochs=5, patience=1, batch_size=3)
        with pytest.raises(StateError, match=r"epoch 1: loss nan, first non-finite gradient 0\.kernels"):
            train(toy_model(), batch, batch, cfg, *generators())

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_inf_gradient_names_epoch_and_parameter(self, rng, monkeypatch):
        import sedpipe.nn.training as train_mod

        calls = iter(range(100))

        def poisoned_loss(out, targets, mask):
            loss, dpred = bce_loss(out, targets, mask)
            if next(calls) == 2:
                dpred[0, 0, 0] = np.inf
            return loss, dpred

        monkeypatch.setattr(train_mod, "bce_loss", poisoned_loss)
        batch = toy_batch(rng)
        model = toy_model()
        cfg = TrainSection(max_epochs=5, patience=4, batch_size=3)
        # two batches per epoch, so the third batch is the first of epoch 2
        with pytest.raises(StateError, match=r"epoch 2: loss 0\.\d+, first non-finite gradient 0\.kernels"):
            train_mod.train(model, batch, batch, cfg, *generators())
        # the check runs before the optimizer step, so no weight took the inf
        assert all(np.isfinite(p).all() for _, p in model.parameters())

    def test_fixed_seed_reproduces_history_bitwise(self, rng):
        batch = toy_batch(rng)
        cfg = TrainSection(learning_rate=3e-3, max_epochs=6, patience=5, batch_size=3)
        _, h1 = train(toy_model(seed=1), batch, batch, cfg, *generators(42))
        _, h2 = train(toy_model(seed=1), batch, batch, cfg, *generators(42))
        assert h1.train_loss == h2.train_loss
        assert h1.monitor_er == h2.monitor_er
        assert h1.monitor_f == h2.monitor_f
        assert h1.best_epoch == h2.best_epoch

    def test_loss_decreases_on_learnable_toy(self, rng):
        batch = toy_batch(rng)
        cfg = TrainSection(learning_rate=3e-3, max_epochs=50, patience=49, batch_size=3)
        _, history = train(toy_model(seed=3), batch, batch, cfg, *generators(7))
        assert history.train_loss[-1] < 0.5 * history.train_loss[0]

    def test_returned_model_matches_best_epoch_score(self, rng):
        batch = toy_batch(rng)
        cfg = TrainSection(learning_rate=3e-3, max_epochs=15, patience=14, batch_size=3)
        model, history = train(toy_model(seed=3), batch, batch, cfg, *generators(7))
        er = monitor_scores(model, batch, 0.5).error_rate
        assert er == min(history.monitor_er)
        assert history.monitor_er[history.best_epoch - 1] == min(history.monitor_er)

    def test_masked_frames_do_not_change_training(self, rng):
        # four 12-frame clips: each sequence's last 4 frames are masked padding
        data, roll = toy_clip(rng, n_seq=4)
        clips = [
            (data[lo : lo + 12], dataclasses.replace(roll, activity=roll.activity[lo : lo + 12]))
            for lo in range(0, 64, 16)
        ]
        masked = unnormalized(clips)

        class Poisoned(SequenceBatch):
            def gather(self, idx):
                inputs, targets, mask = super().gather(idx)
                targets[~mask] = 1 - targets[~mask]
                return inputs, targets, mask

        poisoned = Poisoned(**vars(masked))
        assert not np.array_equal(poisoned.gather([0])[1], masked.gather([0])[1])
        cfg = TrainSection(learning_rate=3e-3, max_epochs=3, patience=2, batch_size=2)
        _, h1 = train(toy_model(seed=2), masked, masked, cfg, *generators(5))
        _, h2 = train(toy_model(seed=2), poisoned, poisoned, cfg, *generators(5))
        # masked target cells may hold anything without touching the loss
        assert h1.train_loss == h2.train_loss
