#!/usr/bin/env python3
"""Desk-scale end-to-end run: synthesize a dataset, train one model per fold
and print the aggregated segment scores.

Example:
    python3 scripts/run_desk_experiment.py --feature bin-mbe --epochs 20
"""

from __future__ import annotations

import argparse
import dataclasses
import tempfile
import time
from pathlib import Path

from sedpipe.cli import main as cli_main
from sedpipe.config import (
    DataConfig,
    ExperimentConfig,
    FeatureConfig,
    ModelConfig,
    TrainSection,
)
from sedpipe.experiment import cross_validate
from sedpipe.features import FEATURE_CLASSES


def build_config(args, data_root: Path) -> ExperimentConfig:
    return ExperimentConfig(
        data=DataConfig(
            root=str(data_root),
            n_clips=args.clips,
            duration_s=args.duration,
            class_count=args.classes,
            polyphony_max=2,
            folds=args.folds,
            seed=args.seed,
            bit_depth=16,
        ),
        features=FeatureConfig(feature_class=args.feature),
        model=ModelConfig(
            conv_layers=2,
            filters=8,
            gru_layers=1,
            gru_units=16,
            dense_layers=1,
            dense_units=16,
            dropout=0.05,
        ),
        train=TrainSection(
            learning_rate=3e-3,
            max_epochs=args.epochs,
            patience=max(1, args.epochs - 1),
            batch_size=4,
            sequence_length=64,
            monitor="validation" if args.folds >= 3 else "test",
            seed=args.seed,
            n_runs=args.runs,
            folds=tuple(range(1, args.folds + 1)),
        ),
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--feature", default="mbe", choices=FEATURE_CLASSES)
    parser.add_argument("--clips", type=int, default=8)
    parser.add_argument("--duration", type=float, default=4.0)
    parser.add_argument("--classes", type=int, default=3)
    parser.add_argument("--folds", type=int, default=2)
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument("--epochs", type=int, default=15)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workdir", help="keep artifacts here instead of a temp dir")
    args = parser.parse_args()

    workdir = Path(args.workdir) if args.workdir else Path(tempfile.mkdtemp(prefix="sedpipe_"))
    data_root = workdir / "data"
    cfg = build_config(args, data_root)

    cfg_path = workdir / "exp.cfg"
    from sedpipe.config import dump_config

    cfg_path.write_text(dump_config(cfg), encoding="utf-8")
    print(f"workdir: {workdir}")

    rc = cli_main(["synth", "--config", str(cfg_path), "--out", str(data_root)])
    if rc != 0:
        return rc

    started = time.time()
    cfg = dataclasses.replace(cfg, data=dataclasses.replace(cfg.data, root=str(data_root)))
    summary = cross_validate(cfg)
    elapsed = time.time() - started

    print(f"\nfeature: {args.feature}  ({args.runs} run(s) x {args.folds} fold(s), {elapsed:.0f}s)")
    print(f"ER: {summary.mean_er:.2f} +/- {summary.std_er:.2f}")
    print(f"F:  {100 * summary.mean_f:.1f} +/- {100 * summary.std_f:.1f}")
    for run, fold, er, f in summary.rows:
        print(f"  run {run} fold {fold}: ER {er:.2f}, F {100 * f:.1f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
