from __future__ import annotations

import dataclasses
import hashlib
import itertools
import os
import shutil
from pathlib import Path

import numpy as np
import pytest

from conftest import write_dataset
from sedpipe import experiment
from sedpipe.audio_io import ManifestRow, events_to_roll, read_manifest, write_manifest
from sedpipe.config import (
    DataConfig,
    ExperimentConfig,
    FeatureConfig,
    ModelConfig,
    TrainSection,
)
from sedpipe.errors import ManifestError, UndefinedMetricError
from sedpipe.experiment import (
    archive_path,
    clip_features,
    cross_validate,
    run_fold,
    run_generators,
    run_seed_for,
    split_rows,
)
from sedpipe.features import fit_normalizer


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


def fold_of(cfg: ExperimentConfig, fold: int):
    """``run_fold`` as a lone call: the config's seed, a fresh feature cache
    and the config's manifest."""
    return run_fold(cfg, fold, cfg.train.seed, {}, read_manifest(cfg.data.manifest_path()))


class TestSplitRows:
    def test_roles_partition_fold(self, tmp_path):
        manifest = write_dataset(tmp_path / "data", n_clips=4, folds=4)
        rows = read_manifest(manifest)
        roles = split_rows(rows, 1, "validation")
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
            split_rows(read_manifest(manifest), 7, "test")


class TestRunFold:
    def test_deterministic_metric_report(self, tmp_path):
        manifest = write_dataset(tmp_path / "data")
        cfg = desk_config(manifest, epochs=4)
        a = fold_of(cfg, 1)
        b = fold_of(cfg, 1)
        assert a.report.error_rate == b.report.error_rate
        assert a.report.f_score == b.report.f_score
        assert a.history.train_loss == b.history.train_loss

    def test_missing_monitor_split_is_manifest_error(self, tmp_path):
        manifest = write_dataset(tmp_path / "data", folds=2)  # no validation role
        cfg = desk_config(manifest, monitor="validation")
        with pytest.raises(ManifestError, match="validation"):
            fold_of(cfg, 1)

    def test_train_test_overlap_rejected(self, tmp_path):
        manifest = write_dataset(tmp_path / "data")
        rows = read_manifest(manifest)
        leaky = rows + [ManifestRow(rows[0].audio_path, rows[0].annotation_path, 2, "test")]
        # rows[0] is fold-1 material; clip000 already trains in fold 2
        write_manifest(leaky, manifest)
        cfg = desk_config(manifest)
        with pytest.raises((ManifestError,)):
            fold_of(cfg, 2)

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
        result = fold_of(cfg, 1)
        assert result.report.error_rate < 0.2

    def test_test_score_is_the_best_monitor_score_when_monitoring_test(self, tmp_path):
        # 4.5 s clips end mid-segment, so a score over the joined clips would
        # differ from the per-clip test score
        manifest = write_dataset(tmp_path / "data", n_clips=8, duration_s=4.5, folds=4)
        cfg = desk_config(manifest, epochs=8, monitor="test")
        for fold in (1, 2, 3, 4):
            result = fold_of(cfg, fold)
            assert result.report.error_rate == min(result.history.monitor_er), f"fold {fold}"

    def test_archives_are_used_when_present(self, tmp_path, monkeypatch):
        from sedpipe import features as feats
        from sedpipe.audio_io import read_wav

        data = tmp_path / "data"
        manifest = write_dataset(data)
        archive_dir = tmp_path / "features"
        archive_dir.mkdir()
        cfg = desk_config(manifest, epochs=3)
        cfg_arch = dataclasses.replace(
            cfg, features=dataclasses.replace(cfg.features, archive_dir=str(archive_dir))
        )
        for row in read_manifest(manifest):
            clip = read_wav(data / row.audio_path)
            tensor = feats.extract(clip, **dataclasses.asdict(cfg.features))
            feats.save_feature_archive(tensor, archive_path(cfg_arch, row.audio_path))
        _forbid_audio_reads(monkeypatch)
        result = fold_of(cfg_arch, 1)
        assert result.report.n_segments > 0

    def test_missing_archives_are_written_then_loaded(self, tmp_path, monkeypatch):
        manifest = write_dataset(tmp_path / "data")
        archive_dir = tmp_path / "features"  # not created yet
        cfg = desk_config(manifest, epochs=3)
        cfg = dataclasses.replace(
            cfg, features=dataclasses.replace(cfg.features, archive_dir=str(archive_dir))
        )
        cold = fold_of(cfg, 1)
        clips = {r.audio_path for r in read_manifest(manifest)}
        assert sorted(archive_dir.iterdir()) == sorted(archive_path(cfg, a) for a in clips)
        _forbid_audio_reads(monkeypatch)
        warm = fold_of(cfg, 1)
        # the cold run trained on the archived float32 values, not on the
        # float64 extraction, so the two runs match exactly
        assert warm.history.train_loss == cold.history.train_loss
        assert warm.report.totals == cold.report.totals


def _forbid_audio_reads(monkeypatch):
    from sedpipe import features as feats

    def refuse(*args, **kwargs):
        raise AssertionError("features must come from the archive")

    monkeypatch.setattr(experiment, "read_wav", refuse)
    monkeypatch.setattr(feats, "extract", refuse)


# a value other than the default for every [features] setting but archive_dir
OTHER_SETTINGS = {
    "feature_class": "bin-mbe",
    "n_mels": 20,
    "f_min": 50.0,
    "f_max": 8000.0,
    "window_ms": 30.0,
    "hop_ms": 10.0,
    "fft_size": 4096,
    "multires_windows": (1024, 4096),
    "fft_log_magnitude": True,
}


class TestArchivePath:
    def test_covers_every_features_setting(self):
        assert set(OTHER_SETTINGS) == {f.name for f in dataclasses.fields(FeatureConfig)} - {"archive_dir"}

    @pytest.mark.parametrize("key", sorted(OTHER_SETTINGS))
    def test_every_extraction_setting_changes_the_name(self, key):
        base = ExperimentConfig()
        other = dataclasses.replace(base, features=FeatureConfig(**{key: OTHER_SETTINGS[key]}))
        before, after = archive_path(base, "clip000.wav"), archive_path(other, "clip000.wav")
        assert after.parent == before.parent
        assert after.name != before.name

    def test_archive_dir_changes_only_the_directory(self, tmp_path):
        base = ExperimentConfig()
        moved = dataclasses.replace(base, features=FeatureConfig(archive_dir=str(tmp_path)))
        assert archive_path(moved, "clip000.wav") == tmp_path / archive_path(base, "clip000.wav").name
        # a directory argument (extract --out) wins over both
        assert archive_path(moved, "clip000.wav", "out") == Path("out") / archive_path(base, "clip000.wav").name

    def test_default_name_is_pinned(self):
        # sha256 of the sorted-key JSON of the [features] defaults but
        # archive_dir; a change here orphans every archive written before
        settings = (
            '{"f_max": 22050.0, "f_min": 0.0, "feature_class": "mbe", "fft_log_magnitude": false, '
            '"fft_size": 2048, "hop_ms": 20.0, "multires_windows": [1024, 4096, 16384], "n_mels": 40, '
            '"window_ms": 40.0}'
        )
        assert hashlib.sha256(settings.encode()).hexdigest()[:12] == "389f2a491685"
        assert archive_path(ExperimentConfig(), "clip000.wav") == Path("data/features/clip000.389f2a491685.mbe.sedf")

    def test_clip_directory_is_kept_below_the_cache(self):
        base = ExperimentConfig()
        assert archive_path(base, "sub/clip000.wav") == Path("data/features/sub/clip000.389f2a491685.mbe.sedf")
        assert archive_path(base, "a/clip.wav", "out") == Path("out/a") / archive_path(base, "clip.wav").name

    def test_an_int_for_a_float_setting_names_the_same_archive(self):
        # a config file always parses floats; a library caller may pass ints
        ints = dataclasses.replace(ExperimentConfig(), features=FeatureConfig(f_max=22050, hop_ms=20, f_min=0))
        assert ints.features == FeatureConfig()
        assert archive_path(ints, "clip000.wav") == Path("data/features/clip000.389f2a491685.mbe.sedf")


class TestClipFeatures:
    @pytest.fixture
    def clip(self, tmp_path):
        """A two-clip dataset's config (bin-mbe, 40 mels) and its first WAV."""
        manifest = write_dataset(tmp_path / "data", n_clips=2, duration_s=1.0)
        cfg = dataclasses.replace(desk_config(manifest), features=FeatureConfig("bin-mbe"))
        return cfg, tmp_path / "data" / "clip000.wav"

    @staticmethod
    def features_of(cfg, wav):
        return clip_features(wav, cfg.features, archive_path(cfg, wav.name))

    def test_cold_and_warm_cache_give_equal_bits(self, clip, monkeypatch):
        cfg, wav = clip
        cold = self.features_of(cfg, wav)
        _forbid_audio_reads(monkeypatch)
        warm = self.features_of(cfg, wav)
        assert warm.data.tobytes() == cold.data.tobytes()
        assert (warm.feature_class, warm.hop_seconds) == (cold.feature_class, cold.hop_seconds)
        # both at the archive's float32, and so are their normalized sequences
        assert cold.data.dtype == warm.data.dtype == np.float32
        roll = events_to_roll([], cold.n_frames, cold.hop_seconds, ("a", "b"))
        normalizer = fit_normalizer([cold.data])
        cold_seq, warm_seq = (experiment.chunk_sequences([(t.data, roll)], 16, normalizer) for t in (cold, warm))
        assert cold_seq.inputs.dtype == warm_seq.inputs.dtype == np.float32
        assert cold_seq.inputs.tobytes() == warm_seq.inputs.tobytes()

    def test_run_fold_caches_and_trains_on_float32(self, tmp_path, monkeypatch):
        manifest = write_dataset(tmp_path / "data")
        cfg = desk_config(manifest, epochs=2)
        batches = []
        train, monitor_scores = experiment.train, experiment.training.monitor_scores

        def spy(model, train_batch, monitor_batch, *args):
            batches.extend([train_batch, monitor_batch])
            return train(model, train_batch, monitor_batch, *args)

        def scores_spy(model, batch, threshold):
            batches.append(batch)
            return monitor_scores(model, batch, threshold)

        monkeypatch.setattr(experiment, "train", spy)
        monkeypatch.setattr(experiment.training, "monitor_scores", scores_spy)
        for _ in ("cold", "warm"):
            cache = {}
            run_fold(cfg, 1, cfg.train.seed, cache, read_manifest(manifest))
            assert {data.dtype for data, _ in cache.values()} == {np.dtype(np.float32)}
        # the train, monitor and test batches of both runs, each once or more
        assert len(batches) >= 6
        assert {batch.inputs.dtype for batch in batches} == {np.dtype(np.float32)}

    def test_clips_that_share_a_stem_keep_their_own_archives(self, clip):
        cfg, wav = clip
        for sub, source in (("a", wav), ("b", wav.parent / "clip001.wav")):
            (wav.parent / sub).mkdir()
            shutil.copy(source, wav.parent / sub / "clip.wav")
        first, second = (
            clip_features(wav.parent / audio, cfg.features, archive_path(cfg, audio))
            for audio in ("a/clip.wav", "b/clip.wav")
        )
        assert first.data.tobytes() == self.features_of(cfg, wav).data.tobytes()
        assert second.data.tobytes() == self.features_of(cfg, wav.parent / "clip001.wav").data.tobytes()
        assert archive_path(cfg, "a/clip.wav") != archive_path(cfg, "b/clip.wav")

    def test_fewer_mels_re_extract(self, clip):
        cfg, wav = clip
        assert self.features_of(cfg, wav).data.shape == (50, 40, 2)
        fewer = dataclasses.replace(cfg, features=dataclasses.replace(cfg.features, n_mels=20))
        assert self.features_of(fewer, wav).data.shape == (50, 20, 2)
        assert archive_path(cfg, wav.name).exists() and archive_path(fewer, wav.name).exists()

    def test_archive_at_the_old_name_is_ignored(self, clip):
        cfg, wav = clip
        old = archive_path(cfg, wav.name).parent / "clip000.bin-mbe.sedf"
        old.parent.mkdir(parents=True)
        old.write_bytes(b"an archive of the format before names carried the settings")
        assert self.features_of(cfg, wav).data.shape == (50, 40, 2)
        assert archive_path(cfg, wav.name).exists()

    def test_archive_older_than_its_wav_is_re_extracted(self, clip, monkeypatch):
        cfg, wav = clip
        first = self.features_of(cfg, wav)
        archive = archive_path(cfg, wav.name)
        shutil.copy(wav.parent / "clip001.wav", wav)  # other audio, same name
        stamp = archive.stat().st_mtime_ns
        os.utime(wav, ns=(stamp + 1, stamp + 1))
        second = self.features_of(cfg, wav)
        assert not np.array_equal(second.data, first.data)
        assert archive.stat().st_mtime_ns >= wav.stat().st_mtime_ns
        # an archive as new as its WAV is fresh and read without the WAV
        os.utime(wav, ns=(archive.stat().st_mtime_ns,) * 2)
        _forbid_audio_reads(monkeypatch)
        assert np.array_equal(self.features_of(cfg, wav).data, second.data)

    def test_missing_wav_is_an_error_naming_it_even_with_an_archive(self, clip):
        cfg, wav = clip
        self.features_of(cfg, wav)
        wav.unlink()
        with pytest.raises(FileNotFoundError, match="clip000.wav"):
            self.features_of(cfg, wav)


class TestCrossValidate:
    def test_single_run_single_fold_equals_run_fold(self, tmp_path):
        manifest = write_dataset(tmp_path / "data")
        cfg = desk_config(manifest, epochs=4)
        summary = cross_validate(cfg)
        direct = run_fold(cfg, 1, run_seed_for(cfg.train.seed, 1, 1), {}, read_manifest(manifest))
        assert summary.mean_er == direct.report.error_rate
        assert summary.std_er == 0.0
        assert summary.mean_f == direct.report.f_score

    def test_reads_the_manifest_once(self, tmp_path, monkeypatch):
        manifest = write_dataset(tmp_path / "data")
        cfg = desk_config(manifest, epochs=2)
        cfg = dataclasses.replace(
            cfg, train=dataclasses.replace(cfg.train, folds=(1, 2), n_runs=2)
        )
        reads = []

        def counting_read(path):
            reads.append(path)
            return read_manifest(path)

        monkeypatch.setattr(experiment, "read_manifest", counting_read)
        folds_run = []
        cross_validate(cfg, on_fold=lambda run, fold, result: folds_run.append((run, fold)))
        assert len(folds_run) == 4
        assert len(reads) == 1

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
                self.totals = {"tp": 1, "fp": 0, "fn": 0, "n": 1, "s": 0, "d": 0, "i": 0}
                self.n_segments = 1

        class FakeResult:
            def __init__(self, er, f):
                self.report = FakeReport(er, f)

        def fake_run_fold(*args, **kwargs):
            return FakeResult(*next(fake_scores))

        monkeypatch.setattr(experiment, "run_fold", fake_run_fold)
        folds_run = []
        summary = cross_validate(cfg, on_fold=lambda run, fold, result: folds_run.append((run, fold)))
        ers = np.array([0.2, 0.4, 0.6, 0.8])
        fs = np.array([0.9, 0.8, 0.7, 0.6])
        assert summary.mean_er == pytest.approx(ers.mean())
        assert summary.std_er == pytest.approx(ers.std())
        assert summary.mean_f == pytest.approx(fs.mean())
        assert summary.std_f == pytest.approx(fs.std())
        assert len(folds_run) == 4

    def test_seed_derivation_is_stable(self):
        a = run_seed_for(7, run=1, fold=3)
        b = run_seed_for(7, run=1, fold=3)
        c = run_seed_for(7, run=2, fold=3)
        assert a == b
        assert a != c

    @pytest.mark.parametrize("seed", [0, 1, 5, 9, 2**32 - 1])
    def test_init_shuffle_and_dropout_draw_distinct_streams(self, seed):
        draws = [g.random(4) for g in run_generators(seed)]
        for a, b in itertools.combinations(draws, 2):
            assert not np.array_equal(a, b)
        # a second derivation from the seed repeats each stream
        for a, g in zip(draws, run_generators(seed)):
            assert np.array_equal(a, g.random(4))

    def test_aggregation_is_fold_order_invariant(self, tmp_path, monkeypatch):
        manifest = write_dataset(tmp_path / "data")
        by_fold = {1: (0.2, 0.9), 2: (0.6, 0.5)}

        class FakeResult:
            def __init__(self, er, f):
                self.report = type(
                    "R", (), {
                        "error_rate": er, "f_score": f, "n_segments": 1,
                        "totals": {"tp": 1, "fp": 0, "fn": 0, "n": 1, "s": 0, "d": 0, "i": 0},
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
                {"tp": 7, "fp": 0, "fn": 3, "n": 10, "s": 0, "d": 3, "i": 0},
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
        summary = cross_validate(cfg)
        # fold ER 1/5 and 3/10, F 8/10 and 14/17: with different N the
        # fold mean and the pooled score differ
        assert summary.mean_er == pytest.approx((1 / 5 + 3 / 10) / 2)
        assert summary.std_er == pytest.approx(0.05)
        assert summary.mean_f == pytest.approx((8 / 10 + 14 / 17) / 2)
        # pooled: (1+0+0 + 0+3+0) / (5+10) and 2*11 / (2*11 + 1 + 4)
        assert summary.pooled_er == pytest.approx(4 / 15)
        assert summary.pooled_f == pytest.approx(22 / 27)

    def test_pooled_run_without_reference_activity_is_undefined(self, tmp_path, monkeypatch):
        # run_fold is faked; cross_validate reads only the manifest, to check
        # every fold before the first trains
        cfg = desk_config(write_dataset(tmp_path / "data"), epochs=2)
        cfg = dataclasses.replace(
            cfg, train=dataclasses.replace(cfg.train, folds=(1, 2), n_runs=1)
        )
        zeros = {k: 0 for k in ("tp", "fp", "fn", "n", "s", "d", "i")}
        report = type("R", (), {"error_rate": 0.0, "f_score": 1.0, "totals": zeros})()
        monkeypatch.setattr(
            experiment, "run_fold", lambda *a, **k: type("F", (), {"report": report})()
        )
        with pytest.raises(UndefinedMetricError):
            cross_validate(cfg)
