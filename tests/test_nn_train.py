from __future__ import annotations

import numpy as np
import pytest

from sedpipe.errors import RangeError, StateError
from sedpipe.features import SequenceBatch
from sedpipe.nn import CrnnArch, TrainConfig, build_crnn, monitor_scores, train
from sedpipe.nn.loss import bce_loss


def toy_batch(rng, n_seq=6, t=16, n_bins=8, classes=2):
    """Learnable toy problem: class c is active while bin c carries energy."""
    inputs = rng.normal(scale=0.1, size=(n_seq, t, n_bins, 1))
    targets = np.zeros((n_seq, t, classes))
    for s in range(n_seq):
        for c in range(classes):
            active = rng.random(t) < 0.3
            targets[s, :, c] = active
            inputs[s, active, c, 0] += 2.0
    return SequenceBatch(inputs=inputs, targets=targets, mask=np.ones((n_seq, t), dtype=bool))


def toy_model(seed=0, classes=2):
    arch = CrnnArch(
        n_bins=8, n_channels=1, n_classes=classes, conv_layers=1, filters=4,
        pool_factors=(4,), gru_layers=1, gru_units=6, dense_layers=0,
        dense_units=0, dropout=0.0,
    )
    return build_crnn(arch, np.random.default_rng(seed))


class TestTrainConfig:
    def test_patience_zero_excluded(self):
        with pytest.raises(RangeError):
            TrainConfig(patience=0)

    def test_patience_must_stay_below_epochs(self):
        with pytest.raises(RangeError):
            TrainConfig(max_epochs=10, patience=10)

    def test_learning_rate_positive(self):
        with pytest.raises(RangeError):
            TrainConfig(learning_rate=0.0)


class TestTrainLoop:
    def test_empty_training_stream_rejected(self, rng):
        batch = toy_batch(rng)
        empty = SequenceBatch(
            inputs=np.zeros((0, 16, 8, 1)),
            targets=np.zeros((0, 16, 2)),
            mask=np.zeros((0, 16), dtype=bool),
        )
        with pytest.raises(StateError):
            train(toy_model(), empty, batch, TrainConfig(max_epochs=5, patience=1), 0.02, ("a", "b"))

    def test_patience_one_with_worsening_er_stops_after_two_epochs(self, rng, monkeypatch):
        batch = toy_batch(rng)
        ers = iter([0.5, 0.9, 0.9, 0.9, 0.9, 0.9])

        def fake_scores(*args, **kwargs):
            return next(ers), 0.0

        import sedpipe.nn.training as train_mod

        monkeypatch.setattr(train_mod, "monitor_scores", fake_scores)
        _, history = train_mod.train(
            toy_model(), batch, batch,
            TrainConfig(max_epochs=10, patience=1, segment_seconds=0.02), 0.02, ("a", "b"),
        )
        assert history.n_epochs == 2
        assert history.best_epoch == 1

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_input_raises_at_first_epoch(self, rng):
        batch = toy_batch(rng)
        batch.inputs[2, 5, 3, 0] = np.nan
        cfg = TrainConfig(max_epochs=5, patience=1, batch_size=3, segment_seconds=0.02)
        with pytest.raises(StateError, match=r"epoch 1: loss nan, first non-finite gradient 0\.kernels"):
            train(toy_model(), batch, batch, cfg, 0.02, ("a", "b"))

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
        cfg = TrainConfig(max_epochs=5, patience=4, batch_size=3, segment_seconds=0.02)
        # two batches per epoch, so the third batch is the first of epoch 2
        with pytest.raises(StateError, match=r"epoch 2: loss 0\.\d+, first non-finite gradient 0\.kernels"):
            train_mod.train(model, batch, batch, cfg, 0.02, ("a", "b"))
        # the check runs before the optimizer step, so no weight took the inf
        assert all(np.isfinite(p).all() for _, p in model.parameters())

    def test_fixed_seed_reproduces_history_bitwise(self, rng):
        batch = toy_batch(rng)
        cfg = TrainConfig(
            learning_rate=3e-3, max_epochs=6, patience=5, batch_size=3, seed=42,
            segment_seconds=0.02,
        )
        _, h1 = train(toy_model(seed=1), batch, batch, cfg, 0.02, ("a", "b"))
        _, h2 = train(toy_model(seed=1), batch, batch, cfg, 0.02, ("a", "b"))
        assert h1.train_loss == h2.train_loss
        assert h1.monitor_er == h2.monitor_er
        assert h1.monitor_f == h2.monitor_f
        assert h1.best_epoch == h2.best_epoch

    def test_loss_decreases_on_learnable_toy(self, rng):
        batch = toy_batch(rng)
        cfg = TrainConfig(
            learning_rate=3e-3, max_epochs=50, patience=49, batch_size=3, seed=7,
            segment_seconds=0.02,
        )
        _, history = train(toy_model(seed=3), batch, batch, cfg, 0.02, ("a", "b"))
        assert history.train_loss[-1] < 0.5 * history.train_loss[0]

    def test_returned_model_matches_best_epoch_score(self, rng):
        batch = toy_batch(rng)
        cfg = TrainConfig(
            learning_rate=3e-3, max_epochs=15, patience=14, batch_size=3, seed=7,
            segment_seconds=0.02,
        )
        model, history = train(toy_model(seed=3), batch, batch, cfg, 0.02, ("a", "b"))
        er, _ = monitor_scores(model, batch, 0.02, ("a", "b"), 0.5, 0.02)
        assert er == min(history.monitor_er)
        assert history.monitor_er[history.best_epoch - 1] == min(history.monitor_er)

    def test_masked_frames_do_not_change_training(self, rng):
        base = toy_batch(rng, n_seq=4)
        mask = base.mask.copy()
        mask[:, -4:] = False
        masked = SequenceBatch(inputs=base.inputs, targets=base.targets, mask=mask)
        poisoned_inputs = base.inputs.copy()
        poisoned_targets = base.targets.copy()
        poisoned_targets[:, -4:] = 1 - poisoned_targets[:, -4:]
        poisoned = SequenceBatch(inputs=poisoned_inputs, targets=poisoned_targets, mask=mask)
        cfg = TrainConfig(
            learning_rate=3e-3, max_epochs=3, patience=2, batch_size=2, seed=5,
            segment_seconds=0.02,
        )
        _, h1 = train(toy_model(seed=2), masked, masked, cfg, 0.02, ("a", "b"))
        _, h2 = train(toy_model(seed=2), poisoned, poisoned, cfg, 0.02, ("a", "b"))
        # masked target cells may hold anything without touching the loss
        assert h1.train_loss == h2.train_loss
