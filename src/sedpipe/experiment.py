"""Experiment orchestration: per-fold train/test runs and multi-run
averaging."""

from __future__ import annotations

import dataclasses
import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import features as feats
from . import metrics, synth
from .audio_io import EventRoll, ManifestRow, events_to_roll, read_annotations, read_manifest, read_wav
from .config import ExperimentConfig, FeatureConfig, section_digest
from .errors import ManifestError
from .features import FeatureTensor, Normalizer, chunk_sequences, fit_normalizer
from .nn import CrnnArch, ModelGraph, TrainHistory, build_crnn, train, training

log = logging.getLogger(__name__)


@dataclass
class FoldResult:
    report: metrics.MetricReport
    history: TrainHistory
    model: ModelGraph
    normalizer: Normalizer


@dataclass
class CvSummary:
    """ER/F over runs x folds, aggregated two ways. ``mean_*``/``std_*`` are
    the mean and population std of the per-(run, fold) scores. ``pooled_*``
    sum each run's segment counts over its folds, as DCASE 2017 task 3
    scores, and average the resulting per-run score over runs."""

    mean_er: float
    std_er: float
    mean_f: float
    std_f: float
    pooled_er: float
    pooled_f: float


def archive_path(cfg: ExperimentConfig, audio_path: str, directory=None) -> Path:
    """``<stem>.<digest>.<class>.sedf`` in ``directory``, else ``archive_dir``,
    else ``features/`` beside the manifest, below the clip's own directory
    in the manifest, so clips that share a stem never share an archive. The
    digest covers every other ``[features]`` setting, so changed settings
    never find an old archive."""
    fc = cfg.features
    directory = Path(directory or fc.archive_dir or cfg.data.manifest_path().parent / "features")
    digest = section_digest(fc, omit=("archive_dir",))
    audio = Path(audio_path)
    return directory / audio.with_name(f"{audio.stem}.{digest}.{fc.feature_class}.sedf")


def clip_features(audio_file: Path, features_cfg: FeatureConfig, archive: Path) -> FeatureTensor:
    """One clip's features: loaded from ``archive`` when that file is no
    older than the WAV, else extracted and saved there. Either way they come
    at the archive's float32 precision, so a cold and a warm cache agree."""
    if archive.exists() and archive.stat().st_mtime_ns >= audio_file.stat().st_mtime_ns:
        return feats.load_feature_archive(archive, features_cfg)
    tensor = feats.extract(read_wav(audio_file), **dataclasses.asdict(features_cfg))
    archive.parent.mkdir(parents=True, exist_ok=True)
    return feats.save_feature_archive(tensor, archive)


def _load_split(
    rows: list[ManifestRow],
    cfg: ExperimentConfig,
    class_names: tuple[str, ...],
    cache: dict,
) -> list[tuple[np.ndarray, EventRoll]]:
    # manifest rows hold paths relative to the manifest's own directory
    data_dir = cfg.data.manifest_path().parent
    for row in rows:
        if row.audio_path not in cache:
            tensor = clip_features(data_dir / row.audio_path, cfg.features, archive_path(cfg, row.audio_path))
            events = read_annotations(data_dir / row.annotation_path, class_names)
            roll = events_to_roll(events, tensor.n_frames, tensor.hop_seconds, class_names)
            cache[row.audio_path] = (tensor.data, roll)
    return [cache[row.audio_path] for row in rows]


def split_rows(rows: list[ManifestRow], fold: int, monitor: str) -> dict[str, list[ManifestRow]]:
    """The fold's rows by role; a fold that lacks a train, test or
    ``monitor`` split is a ManifestError."""
    in_fold = [r for r in rows if r.fold == fold]
    if not in_fold:
        raise ManifestError(f"manifest has no rows for fold {fold}")
    by_role: dict[str, list[ManifestRow]] = {"train": [], "validation": [], "test": []}
    for r in in_fold:
        by_role[r.role].append(r)
    if not by_role["train"]:
        raise ManifestError(f"fold {fold} has no train split")
    if not by_role["test"]:
        raise ManifestError(f"fold {fold} has no test split")
    if not by_role[monitor]:
        raise ManifestError(f"fold {fold} has no {monitor} split to monitor")
    return by_role


def run_fold(
    cfg: ExperimentConfig,
    fold: int,
    seed: int,
    feature_cache: dict,
    manifest_rows: list[ManifestRow],
) -> FoldResult:
    """Train on the fold's train split with the generators of the run seed
    ``seed`` (see :func:`run_generators`) and score its test split.

    The monitored split follows ``cfg.train.monitor`` (validation unless the
    config explicitly asks for the test split). Both are scored per clip by
    :func:`sedpipe.nn.training.monitor_scores`. ``manifest_rows`` are the
    config's manifest, already read; ``feature_cache`` maps each clip's
    audio path to its (F, B, Ch) features and roll, and fills as clips load.
    """
    class_names = synth.class_names(cfg.data)
    roles = split_rows(manifest_rows, fold, cfg.train.monitor)

    train_clips = _load_split(roles["train"], cfg, class_names, feature_cache)
    monitor_clips = _load_split(roles[cfg.train.monitor], cfg, class_names, feature_cache)
    test_clips = _load_split(roles["test"], cfg, class_names, feature_cache)

    normalizer = fit_normalizer([data for data, _ in train_clips])
    seq_len = cfg.train.sequence_length
    train_batch = chunk_sequences(train_clips, seq_len, normalizer)
    monitor_batch = chunk_sequences(monitor_clips, seq_len, normalizer)

    n_bins, n_channels = normalizer.mean.shape
    arch = CrnnArch(
        n_bins=n_bins,
        n_channels=n_channels,
        n_classes=len(class_names),
        **dataclasses.asdict(cfg.model),
    )
    init_rng, shuffle_rng, dropout_rng = run_generators(seed)
    model = build_crnn(arch, init_rng)

    model, history = train(model, train_batch, monitor_batch, cfg.train, shuffle_rng, dropout_rng)
    test_batch = chunk_sequences(test_clips, seq_len, normalizer)
    report = training.monitor_scores(model, test_batch, cfg.train.threshold)
    log.info("fold %d: test ER %.4f, F %.1f%%", fold, report.error_rate, 100 * report.f_score)
    return FoldResult(report=report, history=history, model=model, normalizer=normalizer)


def run_generators(seed: int) -> tuple[np.random.Generator, np.random.Generator, np.random.Generator]:
    """The run's weight-init, shuffle and dropout generators: three
    distinct children of ``SeedSequence(seed)``, so no two draw the same
    stream."""
    return tuple(np.random.default_rng(child) for child in np.random.SeedSequence(seed).spawn(3))


def run_seed_for(master_seed: int, run: int, fold: int) -> int:
    """Deterministic per-(run, fold) seed derived from the master seed."""
    child = np.random.SeedSequence(entropy=master_seed, spawn_key=(run, fold))
    return int(child.generate_state(1, dtype=np.uint32)[0])


def cross_validate(cfg: ExperimentConfig, on_fold=None) -> CvSummary:
    """Train and score every (run, fold) of the config; see :class:`CvSummary`."""
    manifest_rows = read_manifest(cfg.data.manifest_path())
    for fold in cfg.train.folds:  # every fold, before the first one trains
        split_rows(manifest_rows, fold, cfg.train.monitor)
    cache: dict = {}
    rows: list[tuple[int, int, float, float]] = []
    pooled: list[metrics.MetricReport] = []
    for run in range(1, cfg.train.n_runs + 1):
        run_reports = []
        for fold in cfg.train.folds:
            result = run_fold(
                cfg, fold, seed=run_seed_for(cfg.train.seed, run, fold),
                feature_cache=cache, manifest_rows=manifest_rows,
            )
            if on_fold is not None:
                on_fold(run, fold, result)
            rows.append((run, fold, result.report.error_rate, result.report.f_score))
            run_reports.append(result.report)
        # one row of totals per fold: ER and F depend only on the sums
        counts = metrics.SegmentCounts(
            **{k: np.array([r.totals[k] for r in run_reports]) for k in run_reports[0].totals}
        )
        pooled.append(metrics.report_from_counts(counts))
    _, _, ers, fs = zip(*rows)
    return CvSummary(
        mean_er=float(np.mean(ers)),
        std_er=float(np.std(ers)),
        mean_f=float(np.mean(fs)),
        std_f=float(np.std(fs)),
        pooled_er=float(np.mean([r.error_rate for r in pooled])),
        pooled_f=float(np.mean([r.f_score for r in pooled])),
    )
