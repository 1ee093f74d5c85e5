"""Experiment orchestration: per-fold train/test runs, multi-run averaging
and random hyper-parameter search."""

from __future__ import annotations

import dataclasses
import logging
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import features as feats
from . import metrics
from .audio_io import EventRoll, ManifestRow, events_to_roll, read_annotations, read_manifest, read_wav
from .config import ExperimentConfig, ModelConfig, SearchSection
from .errors import ConfigError, ManifestError
from .features import FeatureTensor, SequenceBatch, apply_normalizer, chunk_sequences, fit_normalizer
from .nn import CrnnArch, ModelGraph, TrainConfig, build_crnn, predict_rolls, train

log = logging.getLogger(__name__)


@dataclass
class ClipData:
    audio_path: str
    tensor: FeatureTensor
    roll: EventRoll


@dataclass
class FoldResult:
    fold: int
    report: metrics.MetricReport
    history: "object"
    model: ModelGraph
    normalizer: "object"
    class_names: tuple[str, ...]


@dataclass
class CvSummary:
    mean_er: float
    std_er: float
    mean_f: float
    std_f: float
    rows: list[tuple[int, int, float, float]] = field(default_factory=list)  # (run, fold, er, f)


def dataset_class_names(cfg: ExperimentConfig) -> tuple[str, ...]:
    return tuple(f"class{i}" for i in range(cfg.data.class_count))


def _load_split(
    rows: list[ManifestRow],
    cfg: ExperimentConfig,
    class_names: tuple[str, ...],
    base_dir: Path,
    cache: dict,
) -> list[ClipData]:
    clips = []
    for row in rows:
        key = row.audio_path
        if key not in cache:
            audio_file = base_dir / row.audio_path
            annot_file = base_dir / row.annotation_path
            clip = read_wav(audio_file)
            tensor = _extract_or_load(clip, row, cfg, base_dir)
            events = read_annotations(annot_file, class_names)
            roll = events_to_roll(events, tensor.n_frames, tensor.hop_seconds, class_names)
            cache[key] = (tensor, roll)
        tensor, roll = cache[key]
        clips.append(ClipData(audio_path=row.audio_path, tensor=tensor, roll=roll))
    return clips


def _extract_or_load(clip, row: ManifestRow, cfg: ExperimentConfig, base_dir: Path) -> FeatureTensor:
    fc = cfg.features.feature_class
    if cfg.features.archive_dir:
        archive = Path(cfg.features.archive_dir) / archive_name(row.audio_path, fc)
        if archive.exists():
            return feats.load_feature_archive(archive)
    return feats.extract(clip, fc, **cfg.features.extractor_kwargs())


def archive_name(audio_path: str, feature_class: str) -> str:
    return f"{Path(audio_path).stem}.{feature_class}.sedf"


def split_rows(rows: list[ManifestRow], fold: int) -> dict[str, list[ManifestRow]]:
    in_fold = [r for r in rows if r.fold == fold]
    if not in_fold:
        raise ManifestError(f"manifest has no rows for fold {fold}")
    by_role: dict[str, list[ManifestRow]] = {"train": [], "validation": [], "test": []}
    for r in in_fold:
        by_role[r.role].append(r)
    return by_role


def _normalized_batch(
    clips: list[ClipData], normalizer, seq_len: int
) -> SequenceBatch:
    return SequenceBatch.concat(
        [chunk_sequences(apply_normalizer(normalizer, c.tensor), c.roll, seq_len) for c in clips]
    )


def run_fold(
    cfg: ExperimentConfig,
    fold: int,
    seed: int | None = None,
    base_dir: str | Path = ".",
    feature_cache: dict | None = None,
) -> FoldResult:
    """Train on the fold's train split and score its test split.

    The monitored split follows ``cfg.train.monitor`` (validation unless the
    config explicitly asks for the test split).
    """
    manifest_file = Path(base_dir) / cfg.data.manifest_path()
    rows = read_manifest(manifest_file)
    # manifest rows hold paths relative to the manifest's own directory
    base_dir = manifest_file.parent
    class_names = dataset_class_names(cfg)
    roles = split_rows(rows, fold)

    if not roles["train"]:
        raise ManifestError(f"fold {fold} has no train split")
    if not roles["test"]:
        raise ManifestError(f"fold {fold} has no test split")
    monitor_role = cfg.train.monitor
    if not roles[monitor_role]:
        raise ManifestError(f"fold {fold} has no {monitor_role} split to monitor")

    train_paths = {r.audio_path for r in roles["train"]}
    test_paths = {r.audio_path for r in roles["test"]}
    leaked = train_paths & test_paths
    if leaked:
        raise ManifestError(f"fold {fold}: clips appear in both train and test: {sorted(leaked)}")

    cache = feature_cache if feature_cache is not None else {}
    train_clips = _load_split(roles["train"], cfg, class_names, base_dir, cache)
    monitor_clips = _load_split(roles[monitor_role], cfg, class_names, base_dir, cache)
    test_clips = _load_split(roles["test"], cfg, class_names, base_dir, cache)

    normalizer = fit_normalizer([c.tensor for c in train_clips])
    seq_len = cfg.train.sequence_length
    train_batch = _normalized_batch(train_clips, normalizer, seq_len)
    monitor_batch = _normalized_batch(monitor_clips, normalizer, seq_len)

    run_seed = cfg.train.seed if seed is None else seed
    sample = train_clips[0].tensor
    arch = CrnnArch(
        n_bins=sample.n_bins,
        n_channels=sample.n_channels,
        n_classes=len(class_names),
        **dataclasses.asdict(cfg.model),
    )
    init_rng = np.random.default_rng(np.random.SeedSequence(run_seed).spawn(1)[0])
    model = build_crnn(arch, init_rng)

    tc = TrainConfig(
        learning_rate=cfg.train.learning_rate,
        max_epochs=cfg.train.max_epochs,
        patience=cfg.train.patience,
        batch_size=cfg.train.batch_size,
        seed=run_seed,
        threshold=cfg.train.threshold,
        monitor=cfg.train.monitor,
    )
    hop = sample.hop_seconds
    model, history = train(model, train_batch, monitor_batch, tc, hop, class_names)

    pairs = []
    for c in test_clips:
        batch = chunk_sequences(apply_normalizer(normalizer, c.tensor), c.roll, seq_len)
        ref, pred = predict_rolls(model, batch, hop, class_names, cfg.train.threshold)
        pairs.append((ref, pred))
    report = metrics.evaluate_pooled(pairs)
    log.info("fold %d: test ER %.4f, F %.1f%%", fold, report.error_rate, 100 * report.f_score)
    return FoldResult(
        fold=fold,
        report=report,
        history=history,
        model=model,
        normalizer=normalizer,
        class_names=class_names,
    )


def run_seed_for(master_seed: int, run: int, fold: int) -> int:
    """Deterministic per-(run, fold) seed derived from the master seed."""
    child = np.random.SeedSequence(entropy=master_seed, spawn_key=(run, fold))
    return int(child.generate_state(1, dtype=np.uint32)[0])


def cross_validate(
    cfg: ExperimentConfig,
    base_dir: str | Path = ".",
    pooled: bool = False,
    feature_cache: dict | None = None,
    on_fold=None,
) -> CvSummary:
    """Mean and population std of ER/F over runs x folds.

    Default aggregation averages the final per-(run, fold) scalars; with
    ``pooled`` the segment counts of each run's folds are pooled into one
    score per run before averaging.
    """
    if cfg.train.n_runs < 1:
        raise ConfigError(f"n_runs must be >= 1, got {cfg.train.n_runs}")
    cache = feature_cache if feature_cache is not None else {}
    rows: list[tuple[int, int, float, float]] = []
    per_point_er: list[float] = []
    per_point_f: list[float] = []
    for run in range(1, cfg.train.n_runs + 1):
        run_reports = []
        for fold in cfg.train.folds:
            result = run_fold(
                cfg, fold, seed=run_seed_for(cfg.train.seed, run, fold),
                base_dir=base_dir, feature_cache=cache,
            )
            if on_fold is not None:
                on_fold(run, fold, result)
            rows.append((run, fold, result.report.error_rate, result.report.f_score))
            run_reports.append(result.report)
        if pooled:
            # one row of totals per fold: ER and F depend only on the sums
            counts = metrics.SegmentCounts(
                **{k: np.array([r.totals[k] for r in run_reports]) for k in run_reports[0].totals}
            )
            report = metrics.report_from_counts(counts)
            per_point_er.append(report.error_rate)
            per_point_f.append(report.f_score)
        else:
            per_point_er.extend(r.error_rate for r in run_reports)
            per_point_f.extend(r.f_score for r in run_reports)
    return CvSummary(
        mean_er=float(np.mean(per_point_er)),
        std_er=float(np.std(per_point_er)),
        mean_f=float(np.mean(per_point_f)),
        std_f=float(np.std(per_point_f)),
        rows=rows,
    )


@dataclass(frozen=True)
class TrialResult:
    index: int
    model: ModelConfig
    mean_er: float
    std_er: float
    mean_f: float
    std_f: float


def sample_model_config(space: SearchSection, rng: np.random.Generator, n_bins: int) -> ModelConfig:
    """Uniform draw from the space; configurations that :class:`CrnnArch`
    rejects are redrawn, so every returned config builds."""
    for _ in range(200):
        candidate = ModelConfig(
            conv_layers=int(rng.choice(space.conv_layers)),
            filters=int(rng.choice(space.filters)),
            pool_factors=(),
            gru_layers=int(rng.choice(space.gru_layers)),
            gru_units=int(rng.choice(space.gru_units)),
            dense_layers=int(rng.choice(space.dense_layers)),
            dense_units=int(rng.choice(space.dense_units)),
            dropout=float(rng.choice(space.dropout)),
        )
        try:
            CrnnArch(n_bins=n_bins, n_channels=1, n_classes=1, **dataclasses.asdict(candidate))
        except ConfigError:
            continue
        return candidate
    raise ConfigError("search space contains no valid configuration")


def random_search(
    cfg: ExperimentConfig,
    n_trials: int | None = None,
    seed: int | None = None,
    base_dir: str | Path = ".",
    on_trial=None,
) -> list[TrialResult]:
    """Evaluate ``n_trials`` sampled architectures with a truncated epoch
    budget and rank them by mean ER, best first."""
    space = cfg.search
    n_trials = space.trials if n_trials is None else n_trials
    if n_trials < 1:
        raise ConfigError(f"need at least one trial, got {n_trials}")
    rng = np.random.default_rng(cfg.train.seed if seed is None else seed)
    n_bins = feats.feature_spec(cfg.features.feature_class).bins(cfg.features)

    cache: dict = {}
    trials = []
    for index in range(1, n_trials + 1):
        model_cfg = sample_model_config(space, rng, n_bins)
        budget = max(2, space.epochs)
        trial_cfg = dataclasses.replace(
            cfg,
            model=model_cfg,
            train=dataclasses.replace(
                cfg.train,
                max_epochs=budget,
                patience=min(cfg.train.patience, budget - 1),
                n_runs=space.n_runs,
            ),
        )
        summary = cross_validate(trial_cfg, base_dir=base_dir, feature_cache=cache)
        trial = TrialResult(
            index=index,
            model=model_cfg,
            mean_er=summary.mean_er,
            std_er=summary.std_er,
            mean_f=summary.mean_f,
            std_f=summary.std_f,
        )
        if on_trial is not None:
            on_trial(trial)
        trials.append(trial)
        log.info("trial %d/%d: mean ER %.4f", index, n_trials, trial.mean_er)

    ranked = sorted(trials, key=lambda t: (t.mean_er, t.index))
    assert ranked[0].mean_er == min(t.mean_er for t in trials)
    return ranked
