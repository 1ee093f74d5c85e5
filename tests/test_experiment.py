from __future__ import annotations

import dataclasses
import shutil

import numpy as np
import pytest

from conftest import write_dataset
from sedpipe import experiment
from sedpipe.audio_io import ManifestRow, read_manifest, write_manifest
from sedpipe.config import (
    DataConfig,
    ExperimentConfig,
    FeatureConfig,
    ModelConfig,
    SearchSection,
    TrainSection,
)
from sedpipe.errors import ConfigError, ManifestError, UndefinedMetricError
from sedpipe.experiment import (
    cross_validate,
    random_search,
    run_fold,
    run_seed_for,
    sample_model_config,
    split_rows,
)


def desk_config(manifest, epochs=8, **train_kwargs) -> ExperimentConfig:
    train = dict(
        learning_rate=3e-3,
        max_epochs=epochs,
        patience=max(1, epochs - 1),
        batch_size=4,
        sequence_length=64,
        monitor="test",
        seed=9,
        n_runs=1,
        folds=(1,),
    )
    train.update(train_kwargs)
    return ExperimentConfig(
        data=DataConfig(root=str(manifest.parent), manifest=str(manifest), class_count=2),
        features=FeatureConfig(feature_class="mbe", f_max=22050.0),
        model=ModelConfig(
            conv_layers=1, filters=4, pool_factors=(20,), gru_layers=1, gru_units=8,
            dense_layers=0, dense_units=0, dropout=0.0,
        ),
        train=TrainSection(**train),
    )


class TestSplitRows:
    def test_roles_partition_fold(self, tmp_path):
        manifest = write_dataset(tmp_path / "data", n_clips=4, folds=4)
        rows = read_manifest(manifest)
        roles = split_rows(rows, 1)
        assert {r.role for r in rows if r.fold == 1} == {"train", "validation", "test"}
        all_clips = {r.audio_path for r in rows if r.fold == 1}
        covered = {r.audio_path for v in roles.values() for r in v}
        assert covered == all_clips

    def test_fold_test_sets_are_disjoint(self, tmp_path):
        manifest = write_dataset(tmp_path / "data", n_clips=4, folds=2)
        rows = read_manifest(manifest)
        test1 = {r.audio_path for r in rows if r.fold == 1 and r.role == "test"}
        test2 = {r.audio_path for r in rows if r.fold == 2 and r.role == "test"}
        assert test1 and test2
        assert not (test1 & test2)

    def test_missing_fold_rejected(self, tmp_path):
        manifest = write_dataset(tmp_path / "data", n_clips=2, folds=2)
        with pytest.raises(ManifestError):
            split_rows(read_manifest(manifest), 7)


class TestRunFold:
    def test_deterministic_metric_report(self, tmp_path):
        manifest = write_dataset(tmp_path / "data")
        cfg = desk_config(manifest, epochs=4)
        a = run_fold(cfg, 1)
        b = run_fold(cfg, 1)
        assert a.report.error_rate == b.report.error_rate
        assert a.report.f_score == b.report.f_score
        assert a.history.train_loss == b.history.train_loss

    def test_missing_monitor_split_is_manifest_error(self, tmp_path):
        manifest = write_dataset(tmp_path / "data", folds=2)  # no validation role
        cfg = desk_config(manifest, monitor="validation")
        with pytest.raises(ManifestError, match="validation"):
            run_fold(cfg, 1)

    def test_train_test_overlap_rejected(self, tmp_path):
        manifest = write_dataset(tmp_path / "data")
        rows = read_manifest(manifest)
        leaky = rows + [ManifestRow(rows[0].audio_path, rows[0].annotation_path, 2, "test")]
        # rows[0] is fold-1 material; clip000 already trains in fold 2
        write_manifest(leaky, manifest)
        cfg = desk_config(manifest)
        with pytest.raises((ManifestError,)):
            run_fold(cfg, 2)

    def test_leak_fixture_reaches_low_error(self, tmp_path):
        # duplicated audio under a different name slips past the path check
        # and must yield a near-perfect test score, proving the wiring
        data = tmp_path / "data"
        manifest = write_dataset(data, n_clips=3, folds=2, duration_s=3.0)
        rows = [r for r in read_manifest(manifest) if r.fold == 1 and r.role == "train"]
        leak_rows = []
        for r in rows:
            twin_wav = "twin_" + r.audio_path
            twin_tsv = "twin_" + r.annotation_path
            shutil.copy(data / r.audio_path, data / twin_wav)
            shutil.copy(data / r.annotation_path, data / twin_tsv)
            leak_rows.append(ManifestRow(twin_wav, twin_tsv, 1, "test"))
        write_manifest(rows + leak_rows, manifest)
        cfg = desk_config(manifest, epochs=60, monitor="test")
        cfg = dataclasses.replace(
            cfg, train=dataclasses.replace(cfg.train, patience=59)
        )
        result = run_fold(cfg, 1)
        assert result.report.error_rate < 0.2

    def test_archives_are_used_when_present(self, tmp_path):
        from sedpipe import features as feats
        from sedpipe.audio_io import read_wav
        from sedpipe.experiment import archive_name

        data = tmp_path / "data"
        manifest = write_dataset(data)
        archive_dir = tmp_path / "features"
        archive_dir.mkdir()
        cfg = desk_config(manifest, epochs=3)
        for row in read_manifest(manifest):
            clip = read_wav(data / row.audio_path)
            tensor = feats.extract(clip, "mbe", **cfg.features.extractor_kwargs())
            feats.save_feature_archive(tensor, archive_dir / archive_name(row.audio_path, "mbe"))
        cfg_arch = dataclasses.replace(
            cfg, features=dataclasses.replace(cfg.features, archive_dir=str(archive_dir))
        )
        result = run_fold(cfg_arch, 1)
        assert result.report.n_segments > 0


class TestCrossValidate:
    def test_single_run_single_fold_equals_run_fold(self, tmp_path):
        manifest = write_dataset(tmp_path / "data")
        cfg = desk_config(manifest, epochs=4)
        summary = cross_validate(cfg)
        direct = run_fold(cfg, 1, seed=run_seed_for(cfg.train.seed, 1, 1))
        assert summary.mean_er == direct.report.error_rate
        assert summary.std_er == 0.0
        assert summary.mean_f == direct.report.f_score

    def test_mean_std_match_hand_computation(self, tmp_path, monkeypatch):
        manifest = write_dataset(tmp_path / "data")
        cfg = desk_config(manifest, epochs=2)
        cfg = dataclasses.replace(
            cfg, train=dataclasses.replace(cfg.train, folds=(1, 2), n_runs=2)
        )
        fake_scores = iter([(0.2, 0.9), (0.4, 0.8), (0.6, 0.7), (0.8, 0.6)])

        class FakeReport:
            def __init__(self, er, f):
                self.error_rate = er
                self.f_score = f
                self.totals = {k: 1 for k in ("tp", "fp", "fn", "n", "s", "d", "i")}
                self.n_segments = 1

        class FakeResult:
            def __init__(self, er, f):
                self.report = FakeReport(er, f)

        def fake_run_fold(*args, **kwargs):
            return FakeResult(*next(fake_scores))

        monkeypatch.setattr(experiment, "run_fold", fake_run_fold)
        summary = cross_validate(cfg)
        ers = np.array([0.2, 0.4, 0.6, 0.8])
        fs = np.array([0.9, 0.8, 0.7, 0.6])
        assert summary.mean_er == pytest.approx(ers.mean())
        assert summary.std_er == pytest.approx(ers.std())
        assert summary.mean_f == pytest.approx(fs.mean())
        assert summary.std_f == pytest.approx(fs.std())
        assert len(summary.rows) == 4

    def test_seed_derivation_is_stable(self):
        a = run_seed_for(7, run=1, fold=3)
        b = run_seed_for(7, run=1, fold=3)
        c = run_seed_for(7, run=2, fold=3)
        assert a == b
        assert a != c

    def test_aggregation_is_fold_order_invariant(self, tmp_path, monkeypatch):
        manifest = write_dataset(tmp_path / "data")
        by_fold = {1: (0.2, 0.9), 2: (0.6, 0.5)}

        class FakeResult:
            def __init__(self, er, f):
                self.report = type(
                    "R", (), {
                        "error_rate": er, "f_score": f, "n_segments": 1,
                        "totals": {k: 1 for k in ("tp", "fp", "fn", "n", "s", "d", "i")},
                    },
                )()

        def fake_run_fold(cfg, fold, **kwargs):
            return FakeResult(*by_fold[fold])

        monkeypatch.setattr(experiment, "run_fold", fake_run_fold)
        base = desk_config(manifest, epochs=2)
        forward = cross_validate(
            dataclasses.replace(base, train=dataclasses.replace(base.train, folds=(1, 2)))
        )
        reversed_ = cross_validate(
            dataclasses.replace(base, train=dataclasses.replace(base.train, folds=(2, 1)))
        )
        assert forward.mean_er == reversed_.mean_er
        assert forward.std_er == reversed_.std_er
        assert forward.mean_f == reversed_.mean_f


class TestRandomSearch:
    def test_sampler_never_emits_invalid_configs(self):
        space = SearchSection(
            conv_layers=(1, 2, 3),
            filters=(2, 4),
            gru_layers=(1,),
            gru_units=(0, 4),  # zero-width GRU must never survive
            dense_layers=(0, 1),
            dense_units=(4,),
            dropout=(0.05, 0.25, 0.5, 0.75),
        )
        rng = np.random.default_rng(0)
        from sedpipe.nn import CrnnArch

        for _ in range(100):
            mc = sample_model_config(space, rng, n_bins=40)
            assert mc.gru_units >= 1
            CrnnArch(n_bins=40, n_channels=1, n_classes=1, **dataclasses.asdict(mc))

    def test_empty_space_raises(self):
        space = SearchSection(gru_units=(0,))
        with pytest.raises(ConfigError):
            sample_model_config(space, np.random.default_rng(0), n_bins=40)

    def test_fixed_seed_samples_identical_sequences(self):
        space = SearchSection()
        a = [sample_model_config(space, np.random.default_rng(3), 40) for _ in range(5)]
        b = [sample_model_config(space, np.random.default_rng(3), 40) for _ in range(5)]
        assert a == b

    def test_single_trial_search_returns_it_ranked(self, tmp_path):
        manifest = write_dataset(tmp_path / "data")
        cfg = desk_config(manifest, epochs=2)
        cfg = dataclasses.replace(
            cfg,
            search=SearchSection(
                trials=1, epochs=2, conv_layers=(1,), filters=(2,), gru_layers=(1,),
                gru_units=(4,), dense_layers=(0,), dense_units=(4,), dropout=(0.05,),
            ),
        )
        trials = random_search(cfg, seed=5)
        assert len(trials) == 1
        assert trials[0].index == 1

    def test_ranking_is_ascending_in_mean_er(self, tmp_path, monkeypatch):
        manifest = write_dataset(tmp_path / "data")
        cfg = desk_config(manifest, epochs=2)
        cfg = dataclasses.replace(cfg, search=SearchSection(trials=4, epochs=2))
        fake = iter([0.9, 0.2, 0.5, 0.7])

        def fake_cv(*args, **kwargs):
            er = next(fake)
            return experiment.CvSummary(mean_er=er, std_er=0.0, mean_f=1 - er, std_f=0.0)

        monkeypatch.setattr(experiment, "cross_validate", fake_cv)
        trials = random_search(cfg, seed=5)
        assert [t.mean_er for t in trials] == sorted([0.9, 0.2, 0.5, 0.7])
        assert trials[0].mean_er == 0.2


class TestPooledAggregation:
    def test_pooled_run_sums_counts_before_dividing(self, tmp_path, monkeypatch):
        manifest = write_dataset(tmp_path / "data")
        cfg = desk_config(manifest, epochs=2)
        cfg = dataclasses.replace(
            cfg, train=dataclasses.replace(cfg.train, folds=(1, 2), n_runs=1)
        )
        fold_totals = iter(
            [
                {"tp": 4, "fp": 1, "fn": 1, "n": 5, "s": 1, "d": 0, "i": 0},
                {"tp": 2, "fp": 0, "fn": 3, "n": 5, "s": 0, "d": 3, "i": 0},
            ]
        )

        class FakeResult:
            def __init__(self, totals):
                er = (totals["s"] + totals["d"] + totals["i"]) / totals["n"]
                f = 2 * totals["tp"] / (2 * totals["tp"] + totals["fp"] + totals["fn"])
                self.report = type(
                    "R", (), {"error_rate": er, "f_score": f, "totals": totals, "n_segments": 5}
                )()

        monkeypatch.setattr(
            experiment, "run_fold", lambda *a, **k: FakeResult(next(fold_totals))
        )
        summary = cross_validate(cfg, pooled=True)
        # pooled: (1+0+0 + 0+3+0) / (5+5) = 0.4 rather than mean(0.2, 0.6) = 0.4
        # with different N the two aggregations diverge; verify the count path
        assert summary.mean_er == pytest.approx(4 / 10)
        assert summary.mean_f == pytest.approx(2 * 6 / (12 + 1 + 4))
        assert summary.std_er == 0.0

    def test_pooled_run_without_reference_activity_is_undefined(self, tmp_path, monkeypatch):
        # run_fold is faked, so no dataset is read
        cfg = desk_config(tmp_path / "manifest.tsv", epochs=2)
        cfg = dataclasses.replace(
            cfg, train=dataclasses.replace(cfg.train, folds=(1, 2), n_runs=1)
        )
        zeros = {k: 0 for k in ("tp", "fp", "fn", "n", "s", "d", "i")}
        report = type("R", (), {"error_rate": 0.0, "f_score": 1.0, "totals": zeros})()
        monkeypatch.setattr(
            experiment, "run_fold", lambda *a, **k: type("F", (), {"report": report})()
        )
        with pytest.raises(UndefinedMetricError):
            cross_validate(cfg, pooled=True)
