"""Command-line entry point.

Subcommands: synth, extract, train, eval, report. Every command is
non-interactive; exit codes are 0 (success), 1 (runtime error), 2 (usage or
config error). ``SEDPIPE_LOG`` in {error, info, debug} sets verbosity.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import os
import sys
from pathlib import Path

import numpy as np

from . import features as feats
from . import metrics, synth
from .audio_io import (
    events_to_roll,
    read_annotations,
    read_manifest,
    read_wav,  # noqa: F401  perfbench/tracer.py wraps cli.read_wav
    write_annotations,
    write_lines,
    write_manifest,
    write_wav,
)
from .config import ExperimentConfig, load_config, with_section
from .errors import ConfigError, SedError
from .experiment import archive_path, clip_features, cross_validate
from .nn import save_checkpoint

log = logging.getLogger("sedpipe")


def _load_cfg(args) -> ExperimentConfig:
    """The config file (or the defaults) with the command-line overrides:
    ``--seed`` sets both seeds, ``--data-dir DIR`` the manifest
    ``DIR/manifest.tsv``."""
    cfg = load_config(args.config) if args.config else ExperimentConfig()
    if getattr(args, "seed", None) is not None:
        cfg = with_section(with_section(cfg, "data", seed=args.seed), "train", seed=args.seed)
    if getattr(args, "data_dir", None):
        cfg = with_section(cfg, "data", manifest=str(Path(args.data_dir) / "manifest.tsv"))
    return cfg


def _positive_float(text: str) -> float:
    """argparse type for a finite float above zero, so a bad value is a
    usage error before the command runs."""
    value = float(text)
    if not (np.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be a positive number, got {text}")
    return value


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def cmd_synth(args) -> int:
    cfg = _load_cfg(args)
    out = Path(args.out or cfg.data.root)
    out.mkdir(parents=True, exist_ok=True)
    spec = synth.SynthSpec(**dataclasses.asdict(cfg.data))
    rows = synth.manifest_rows(spec.n_clips, spec.folds)
    # each clip is written and dropped before the next is rendered, so one
    # clip is held at a time (zip's result tuple would keep the last)
    clips = synth.synth_dataset(spec)
    for row in rows[:: spec.folds]:  # each clip's first row
        clip, events = next(clips)
        write_wav(out / row.audio_path, clip, bit_depth=cfg.data.bit_depth)
        write_annotations(events, out / row.annotation_path)
        del clip
    manifest = out / "manifest.tsv"
    write_manifest(rows, manifest)
    log.info("wrote %d clips and %d manifest rows", spec.n_clips, len(rows))
    print(manifest)
    return 0


def cmd_extract(args) -> int:
    cfg = _load_cfg(args)
    cfg = with_section(cfg, "features", feature_class=args.feature or cfg.features.feature_class)
    manifest = cfg.data.manifest_path()

    print("feature\tclip\tframes\tbins\tchannels")
    for audio in sorted({r.audio_path for r in read_manifest(manifest)}):
        target = archive_path(cfg, audio, args.out)
        if args.force:
            target.unlink(missing_ok=True)
        tensor = clip_features(manifest.parent / audio, cfg.features, target)
        print(f"{cfg.features.feature_class}\t{audio}\t{tensor.n_frames}\t{tensor.n_bins}\t{tensor.n_channels}")
    return 0


def cmd_train(args) -> int:
    cfg = _load_cfg(args)
    out = Path(args.out or "runs/default")
    out.mkdir(parents=True, exist_ok=True)

    def on_fold(run: int, fold: int, result) -> None:
        run_dir = out / f"fold{fold}" / f"run{run}"
        run_dir.mkdir(parents=True, exist_ok=True)
        save_checkpoint(result.model, run_dir / "checkpoint.sedm", result.normalizer)
        h = result.history
        lines = ["epoch\ttrain_loss\tmonitor_er\tmonitor_f"]
        lines += [
            f"{e + 1}\t{_fmt(h.train_loss[e])}\t{_fmt(h.monitor_er[e])}\t{_fmt(h.monitor_f[e])}"
            for e in range(h.n_epochs)
        ]
        lines.append(f"# best_epoch\t{h.best_epoch}")
        write_lines(run_dir / "history.tsv", lines)
        _write_metric_tsv(result.report, run_dir / "metrics.tsv")

    summary = cross_validate(cfg, on_fold=on_fold)
    print(f"ER: {summary.mean_er:.2f} +/- {summary.std_er:.2f}")
    print(f"F: {100 * summary.mean_f:.1f} +/- {100 * summary.std_f:.1f}")
    print(out)
    return 0


def _write_metric_tsv(report: metrics.MetricReport, path) -> None:
    lines = [
        f"er\t{_fmt(report.error_rate)}",
        f"f\t{_fmt(report.f_score)}",
        f"segments\t{report.n_segments}",
    ]
    lines += [f"{key}\t{report.totals[key]}" for key in ("tp", "fp", "fn", "n", "s", "d", "i")]
    write_lines(path, lines)


def cmd_eval(args) -> int:
    cfg = _load_cfg(args) if args.config else None
    if args.classes:
        class_names = tuple(args.classes.split(","))
    elif cfg is not None:
        class_names = synth.class_names(cfg.data)
    else:
        class_names = None
    ref_events = read_annotations(args.ref, class_names)
    pred_events = read_annotations(args.pred, class_names)
    if class_names is None:
        class_names = tuple(sorted({e.label for e in ref_events + pred_events}))
    if not class_names:
        raise ConfigError("no class vocabulary: pass --classes or --config, or non-empty files")

    hop = args.hop
    if args.duration is not None:
        duration = args.duration
    else:
        ends = [e.offset for e in ref_events + pred_events]
        duration = max(ends) if ends else hop
    n_frames = max(1, int(np.ceil(duration / hop - 1e-9)))

    ref = events_to_roll(ref_events, n_frames, hop, class_names)
    pred = events_to_roll(pred_events, n_frames, hop, class_names)
    counts = metrics.pair_counts(ref, pred, args.segment_seconds)
    report = metrics.report_from_counts(counts)

    print(f"segments: {report.n_segments}")
    t = report.totals
    print(f"counts: TP {t['tp']} FP {t['fp']} FN {t['fn']} N {t['n']} S {t['s']} D {t['d']} I {t['i']}")
    print(f"ER: {report.error_rate:.2f}")
    print(f"F: {100 * report.f_score:.1f}")
    if args.out:
        _write_metric_tsv(report, args.out)
    if args.segments_out:
        lines = ["k\tTP\tFP\tFN\tS\tD\tI\tN"]
        lines += [
            f"{k}\t{counts.tp[k]}\t{counts.fp[k]}\t{counts.fn[k]}"
            f"\t{counts.s[k]}\t{counts.d[k]}\t{counts.i[k]}\t{counts.n[k]}"
            for k in range(counts.n_segments)
        ]
        write_lines(args.segments_out, lines)
    return 0


def cmd_report(args) -> int:
    root = Path(args.runs)
    if not root.exists():
        raise SedError(f"results directory {root} does not exist")
    rows = []
    for metric_file in sorted(root.glob("fold*/run*/metrics.tsv")):
        values = {}
        for line in metric_file.read_text(encoding="utf-8").splitlines():
            key, _, value = line.partition("\t")
            values[key] = value
        scores = []
        for key in ("er", "f"):
            try:
                scores.append(float(values[key]))
            except (KeyError, ValueError):
                raise SedError(f"{metric_file}: {key!r} is missing or not a number") from None
        rows.append((metric_file.parent, *scores))
    if not rows:
        raise SedError(f"no fold*/run*/metrics.tsv under {root}")
    print("run\tER\tF")
    for path, er, f in rows:
        print(f"{path.relative_to(root)}\t{er:.2f}\t{100 * f:.1f}")
    ers = np.array([r[1] for r in rows])
    fs = np.array([r[2] for r in rows])
    print(f"mean\t{ers.mean():.2f}\t{100 * fs.mean():.1f}")
    print(f"std\t{ers.std():.2f}\t{100 * fs.std():.1f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sedpipe",
        description="Polyphonic sound event detection pipeline: synthetic data, "
        "feature extraction, CRNN training, segment metrics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, data_dir=False):
        p.add_argument("--config", help="experiment config file")
        p.add_argument("--out", help="output path")
        p.add_argument("--seed", type=int, help="override the config seeds")
        if data_dir:
            p.add_argument(
                "--data-dir", metavar="DIR", help="dataset directory: read DIR/manifest.tsv, not the config's manifest"
            )

    p = sub.add_parser("synth", help="generate a deterministic synthetic dataset")
    common(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("extract", help="extract feature archives for a dataset")
    common(p, data_dir=True)
    p.add_argument("--feature", choices=feats.FEATURE_CLASSES, help="feature class")
    p.add_argument("--force", action="store_true", help="delete existing archives and extract again")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("train", help="train and evaluate over folds and runs")
    common(p, data_dir=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score a prediction TSV against a reference TSV")
    p.add_argument("--config", help="experiment config file (for the class vocabulary)")
    p.add_argument("--ref", required=True, help="reference annotation TSV")
    p.add_argument("--pred", required=True, help="prediction annotation TSV")
    p.add_argument("--classes", help="comma-separated class vocabulary")
    p.add_argument("--duration", type=_positive_float, help="clip duration in seconds")
    p.add_argument("--hop", type=_positive_float, default=feats.FeatureConfig.hop_ms / 1000.0, help="frame hop in seconds")
    p.add_argument("--segment-seconds", type=_positive_float, default=metrics.SEGMENT_SECONDS)
    p.add_argument("--out", help="write metric TSV here")
    p.add_argument("--segments-out", help="write the per-segment count TSV here")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("report", help="summarize a results directory")
    p.add_argument("--runs", required=True, help="results directory (runs/<name>)")
    p.set_defaults(func=cmd_report)
    return parser


def _setup_logging() -> None:
    level_name = os.environ.get("SEDPIPE_LOG", "error").lower()
    levels = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    logging.basicConfig(
        level=levels.get(level_name, logging.ERROR),
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SedError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ConfigError) else 1


if __name__ == "__main__":
    sys.exit(main())
