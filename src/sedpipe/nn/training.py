"""Training loop: Adam on masked cross-entropy with segment-ER early stopping.

After every epoch the monitored split is scored at threshold 0.5 with the
segment metrics; the parameter snapshot with the lowest monitored error rate
is kept and restored when no improvement arrives for ``patience`` epochs.
A non-finite batch loss or gradient stops training with ``StateError``.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .. import metrics
from ..audio_io import EventRoll
from ..config import TrainSection
from ..errors import StateError
from ..features import SequenceBatch
from .loss import bce_loss
from .model import ModelGraph
from .optim import Adam

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class TrainConfig(TrainSection):
    """The ``[train]`` section plus the scoring segment the file does not
    set; its checks are the section's, so a bad value raises RangeError."""

    segment_seconds: float = 1.0


@dataclass
class TrainHistory:
    """Per-epoch training loss and monitored-split scores; ``best_epoch`` is
    1-based and always the argmin of ``monitor_er``."""

    train_loss: list[float] = field(default_factory=list)
    monitor_er: list[float] = field(default_factory=list)
    monitor_f: list[float] = field(default_factory=list)
    best_epoch: int = 0

    @property
    def n_epochs(self) -> int:
        return len(self.train_loss)


def predict_sequences(model: ModelGraph, batch: SequenceBatch, batch_size: int = 32) -> np.ndarray:
    """Inference-mode activations for every sequence, (n, T, C)."""
    outs = []
    for lo in range(0, batch.n_sequences, batch_size):
        outs.append(model.forward(batch.inputs[lo : lo + batch_size], training=False))
    return np.concatenate(outs, axis=0)


def predict_rolls(
    model: ModelGraph,
    batch: SequenceBatch,
    hop_seconds: float,
    class_names: tuple[str, ...],
    threshold: float = 0.5,
) -> tuple[EventRoll, EventRoll]:
    """(reference, prediction) rolls over the valid frames of a batch."""
    probs = predict_sequences(model, batch)
    valid = batch.mask.astype(bool)
    pred = (probs[valid] >= threshold).astype(np.uint8)
    ref = batch.targets[valid].astype(np.uint8)
    return (
        EventRoll(activity=ref, hop_seconds=hop_seconds, class_names=class_names),
        EventRoll(activity=pred, hop_seconds=hop_seconds, class_names=class_names),
    )


def monitor_scores(
    model: ModelGraph,
    batch: SequenceBatch,
    hop_seconds: float,
    class_names: tuple[str, ...],
    threshold: float,
    segment_seconds: float,
) -> tuple[float, float]:
    ref, pred = predict_rolls(model, batch, hop_seconds, class_names, threshold)
    report = metrics.evaluate(ref, pred, segment_seconds=segment_seconds)
    return report.error_rate, report.f_score


def _check_finite(model: ModelGraph, loss: float, epoch: int) -> None:
    """Raise before the optimizer step if the batch loss or any parameter
    gradient is not finite, naming the first such parameter."""
    bad = next((key for key, _ in model.parameters() if not np.isfinite(model.gradient(key)).all()), None)
    if bad is not None or not np.isfinite(loss):
        raise StateError(
            f"non-finite training step at epoch {epoch}: loss {loss}, "
            f"first non-finite gradient {bad or 'none'}"
        )


def train(
    model: ModelGraph,
    train_batch: SequenceBatch,
    monitor_batch: SequenceBatch,
    config: TrainConfig,
    hop_seconds: float,
    class_names: tuple[str, ...],
) -> tuple[ModelGraph, TrainHistory]:
    """Train in place and return the model restored to its best snapshot."""
    if train_batch.n_sequences == 0:
        raise StateError("training stream is empty")
    if monitor_batch.n_sequences == 0:
        raise StateError("monitor split is empty")

    master = np.random.SeedSequence(config.seed)
    shuffle_rng = np.random.default_rng(master.spawn(1)[0])
    dropout_rng = np.random.default_rng(master.spawn(1)[0])

    optimizer = Adam(model, lr=config.learning_rate)
    history = TrainHistory()
    best_er = np.inf
    best_snapshot = None

    for epoch in range(1, config.max_epochs + 1):
        order = shuffle_rng.permutation(train_batch.n_sequences)
        losses = []
        for lo in range(0, order.size, config.batch_size):
            idx = order[lo : lo + config.batch_size]
            out = model.forward(train_batch.inputs[idx], training=True, rng=dropout_rng)
            loss, dpred = bce_loss(out, train_batch.targets[idx], train_batch.mask[idx])
            model.backward(dpred)
            _check_finite(model, loss, epoch)
            optimizer.step()
            losses.append(loss)

        er, f = monitor_scores(
            model, monitor_batch, hop_seconds, class_names,
            config.threshold, config.segment_seconds,
        )
        history.train_loss.append(float(np.mean(losses)))
        history.monitor_er.append(er)
        history.monitor_f.append(f)

        if er < best_er:
            best_er = er
            best_snapshot = model.snapshot()
            history.best_epoch = epoch
        log.debug("epoch %d: loss %.5f, monitor ER %.4f, F %.4f", epoch, history.train_loss[-1], er, f)
        if epoch - history.best_epoch >= config.patience:
            log.info("early stop at epoch %d (best epoch %d, ER %.4f)", epoch, history.best_epoch, best_er)
            break

    if best_snapshot is not None:
        model.restore(best_snapshot)
    return model, history
