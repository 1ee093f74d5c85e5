#!/usr/bin/env python3
"""Train the same architecture on each feature class over one shared synthetic
dataset and print the score table, mono feature first.

With --shared-templates the classes differ only by their stereo gain pair, so
the mono feature is blind to class identity and the binaural features should
win clearly.

Example:
    python3 scripts/compare_binaural_features.py --features mbe bin-mbe --epochs 20
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from sedpipe import features as feats
from sedpipe import metrics, synth
from sedpipe.audio_io import events_to_roll
from sedpipe.features import SequenceBatch, apply_normalizer, chunk_sequences, fit_normalizer
from sedpipe.nn import CrnnArch, TrainConfig, build_crnn, predict_rolls, train


def score_feature(feature_class, clips, names, n_train, args):
    tensors, rolls = [], []
    for clip, events in clips:
        tensor = feats.extract(clip, feature_class)
        tensors.append(tensor)
        rolls.append(events_to_roll(events, tensor.n_frames, tensor.hop_seconds, names))
    norm = fit_normalizer(tensors[:n_train])

    def batch(idx):
        return SequenceBatch.concat(
            [chunk_sequences(apply_normalizer(norm, tensors[i]), rolls[i], 64) for i in idx]
        )

    train_batch = batch(range(n_train))
    test_batch = batch(range(n_train, len(clips)))
    sample = tensors[0]
    arch = CrnnArch(
        n_bins=sample.n_bins,
        n_channels=sample.n_channels,
        n_classes=len(names),
        conv_layers=2,
        filters=8,
        gru_layers=1,
        gru_units=16,
        dense_layers=1,
        dense_units=16,
        dropout=0.05,
    )
    model = build_crnn(arch, np.random.default_rng(args.seed))
    cfg = TrainConfig(
        learning_rate=3e-3, max_epochs=args.epochs, patience=max(1, args.epochs - 1),
        batch_size=4, seed=args.seed, monitor="test",
    )
    model, _ = train(model, train_batch, test_batch, cfg, sample.hop_seconds, names)
    ref, pred = predict_rolls(model, test_batch, sample.hop_seconds, names)
    return metrics.evaluate(ref, pred)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--features", nargs="+", default=["mbe", "bin-mbe"], choices=feats.FEATURE_CLASSES,
    )
    parser.add_argument("--clips", type=int, default=6)
    parser.add_argument("--duration", type=float, default=6.0)
    parser.add_argument("--classes", type=int, default=2)
    parser.add_argument("--epochs", type=int, default=25)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--shared-templates", action="store_true",
                        help="classes share one spectrum and differ only by stereo gain")
    args = parser.parse_args()

    spec = synth.SynthSpec(
        n_clips=args.clips,
        duration_s=args.duration,
        class_count=args.classes,
        polyphony_max=1,
        seed=100 + args.seed,
        events_per_clip=(3, 6),
        event_duration=(0.4, 1.2),
        template_mode="shared" if args.shared_templates else "distinct",
    )
    clips = synth.synth_dataset(spec)
    names = synth.class_names(spec)
    n_train = max(1, (2 * len(clips)) // 3)

    print(f"{len(clips)} clips ({n_train} train / {len(clips) - n_train} test), "
          f"{args.classes} classes, templates: {spec.template_mode}")
    print("feature      ER     F")
    for fc in args.features:
        started = time.time()
        report = score_feature(fc, clips, names, n_train, args)
        print(f"{fc:<12} {report.error_rate:>4.2f}  {report.f_percent():>5.1f}"
              f"   ({time.time() - started:.0f}s)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
