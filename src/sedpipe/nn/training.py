"""Training loop: Adam on masked cross-entropy with segment-ER early stopping.

After every epoch the monitored split is scored per clip at the configured
threshold with the segment metrics (:func:`monitor_scores`, which also scores
the test split); the parameter snapshot with the lowest monitored error rate
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


def monitor_scores(model: ModelGraph, batch: SequenceBatch, threshold: float) -> metrics.MetricReport:
    """Score any split: the monitored one after each epoch, the test one
    after training.

    The model predicts ``batch`` in inference mode, 32 sequences at a time;
    each clip's predicted frames and its own roll, both at the batch's hop,
    become one (reference, prediction) roll pair, and the pairs are pooled
    through :func:`metrics.evaluate_pooled`, so no segment spans two clips.
    """
    probs = np.concatenate(
        [model.forward(batch.gather(slice(lo, lo + 32))[0], training=False) for lo in range(0, batch.n_sequences, 32)]
    )
    pred = (probs >= threshold).astype(np.uint8)

    def roll(activity: np.ndarray) -> EventRoll:
        return EventRoll(activity=activity, hop_seconds=batch.hop_seconds, class_names=batch.class_names)

    return metrics.evaluate_pooled(
        [(roll(ref.activity), roll(frames)) for (_, ref), frames in zip(batch.clips, batch.clip_frames(pred))]
    )


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
    config: TrainSection,
    shuffle_rng: np.random.Generator,
    dropout_rng: np.random.Generator,
) -> tuple[ModelGraph, TrainHistory]:
    """Train in place and return the model restored to its best snapshot.
    ``shuffle_rng`` orders each epoch's sequences and ``dropout_rng`` draws
    the dropout masks."""
    if train_batch.n_sequences == 0:
        raise StateError("training stream is empty")
    if monitor_batch.n_sequences == 0:
        raise StateError("monitor split is empty")

    optimizer = Adam(model, lr=config.learning_rate)
    history = TrainHistory()
    # epoch 1's error rate is finite (or raises), so it always takes a snapshot
    best_er = np.inf
    best_snapshot = None

    for epoch in range(1, config.max_epochs + 1):
        order = shuffle_rng.permutation(train_batch.n_sequences)
        losses = []
        for lo in range(0, order.size, config.batch_size):
            inputs, targets, mask = train_batch.gather(order[lo : lo + config.batch_size])
            out = model.forward(inputs, training=True, rng=dropout_rng)
            loss, dpred = bce_loss(out, targets, mask)
            model.backward(dpred)
            _check_finite(model, loss, epoch)
            optimizer.step()
            losses.append(loss)

        report = monitor_scores(model, monitor_batch, config.threshold)
        er, f = report.error_rate, report.f_score
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

    model.restore(best_snapshot)
    return model, history
