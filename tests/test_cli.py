from __future__ import annotations

import io
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import traced_peak
from sedpipe.cli import build_parser, main
from sedpipe.nn import load_checkpoint


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def small_synth_config(tmp_path: Path, **extra) -> Path:
    lines = [
        "[data]",
        "n_clips = 4",
        "duration_s = 3.0",
        "class_count = 2",
        "polyphony_max = 2",
        "folds = 2",
        "seed = 77",
        "bit_depth = 16",
        "",
        "[features]",
        "feature_class = mbe",
        "f_max = 22050",
        "",
        "[model]",
        "conv_layers = 1",
        "filters = 4",
        "pool_factors = 20",
        "gru_layers = 1",
        "gru_units = 8",
        "dense_layers = 0",
        "dense_units = 0",
        "dropout = 0.0",
        "",
        "[train]",
        "learning_rate = 0.003",
        "max_epochs = 4",
        "patience = 3",
        "batch_size = 4",
        "sequence_length = 64",
        "monitor = test",
        "seed = 5",
        "n_runs = 1",
        "folds = 1",
    ]
    lines += extra.pop("extra_lines", [])
    path = tmp_path / "exp.cfg"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def test_readme_command_lines_parse():
    # every `sedpipe ...` line of README's fenced blocks, its comment dropped
    lines, fenced = [], False
    for line in (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            fenced = not fenced
        elif fenced and line.startswith("sedpipe "):
            lines.append(line)
    assert lines
    parser = build_parser()
    for line in lines:
        try:
            parser.parse_args(shlex.split(line, comments=True)[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {line}")


class TestSynth:
    def test_writes_dataset_and_prints_manifest(self, tmp_path, capsys):
        cfg = small_synth_config(tmp_path)
        out = tmp_path / "data"
        code, stdout, _ = run_cli(capsys, "synth", "--config", str(cfg), "--out", str(out))
        assert code == 0
        manifest = Path(stdout.strip())
        assert manifest.exists()
        assert len(list(out.glob("*.wav"))) == 4
        assert len(list(out.glob("clip*.tsv"))) == 4
        rows = manifest.read_text(encoding="utf-8").splitlines()
        assert len(rows) == 8  # 4 clips x 2 folds

    def test_default_config_mirrors_reference_dataset_shape(self, tmp_path, capsys, monkeypatch):
        # 24 clips across 4 folds with 6 classes; keep the clips tiny so the
        # default path stays fast
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("[data]\nduration_s = 0.4\nsample_rate = 8000\n", encoding="utf-8")
        out = tmp_path / "data"
        code, stdout, _ = run_cli(capsys, "synth", "--config", str(cfg), "--out", str(out))
        assert code == 0
        assert len(list(out.glob("*.wav"))) == 24
        rows = [r.split("\t") for r in Path(stdout.strip()).read_text().splitlines()]
        assert {int(r[2]) for r in rows} == {1, 2, 3, 4}
        labels = set()
        for tsv in out.glob("clip*.tsv"):
            for line in tsv.read_text().splitlines():
                labels.add(line.split("\t")[2])
        assert labels <= {f"class{i}" for i in range(6)}

    def test_same_seed_twice_is_byte_identical(self, tmp_path, capsys):
        cfg = small_synth_config(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run_cli(capsys, "synth", "--config", str(cfg), "--out", str(out_a))[0] == 0
        assert run_cli(capsys, "synth", "--config", str(cfg), "--out", str(out_b))[0] == 0
        for wav in sorted(out_a.glob("*.wav")):
            assert wav.read_bytes() == (out_b / wav.name).read_bytes()

    def test_holds_one_clip_at_a_time(self, tmp_path, capsys):
        # a list of every clip outlives synth on the heap that training keeps
        # resident, so a second pass in one process would peak higher
        n_clips, seconds = 8, 5.0
        clip_bytes = 2 * int(seconds * 44100) * 8  # stereo float64 samples
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"[data]\nn_clips = {n_clips}\nduration_s = {seconds}\n", encoding="utf-8")
        (code, _, _), peak = traced_peak(lambda: run_cli(capsys, "synth", "--config", str(cfg), "--out", str(tmp_path / "d")))
        assert code == 0
        assert len(list((tmp_path / "d").glob("*.wav"))) == n_clips
        assert peak < 3 * clip_bytes

    def test_unknown_config_key_exits_two_naming_it(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("[data]\nn_clps = 3\n", encoding="utf-8")
        code, _, stderr = run_cli(capsys, "synth", "--config", str(cfg), "--out", str(tmp_path / "d"))
        assert code == 2
        assert "n_clps" in stderr

    @pytest.mark.parametrize(
        "line, key",
        [
            ("folds = 0", "folds"),
            ("bit_depth = 8", "bit_depth"),
            ("template_mode = Shared", "template_mode"),
            ("n_clips = 0", "n_clips"),
            ("duration_s = 0", "duration_s"),
            ("folds = 1", "folds"),  # every clip would test, none train
            ("n_clips = 3\nfolds = 4", "folds"),  # fold 4 would get no test clip
            ("seed = -1", "seed"),
            ("sample_rate = 0", "sample_rate"),
        ],
    )
    def test_bad_data_value_exits_two_before_any_work(self, tmp_path, capsys, line, key):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"[data]\n{line}\n", encoding="utf-8")
        out = tmp_path / "d"
        code, _, stderr = run_cli(capsys, "synth", "--config", str(cfg), "--out", str(out))
        assert code == 2
        assert f"[data] {key}" in stderr
        assert not out.exists()

    def test_negative_seed_flag_exits_two_before_any_work(self, tmp_path, capsys):
        out = tmp_path / "d"
        code, _, stderr = run_cli(capsys, "synth", "--seed", "-1", "--out", str(out))
        assert code == 2
        assert "[data] seed must be >= 0" in stderr
        assert not out.exists()


class TestExtract:
    @pytest.fixture
    def dataset(self, tmp_path, capsys):
        cfg = small_synth_config(tmp_path)
        out = tmp_path / "data"
        run_cli(capsys, "synth", "--config", str(cfg), "--out", str(out))
        return cfg, out

    def test_writes_archives_and_summary(self, dataset, capsys, tmp_path):
        cfg, data = dataset
        feat_dir = tmp_path / "features"
        code, stdout, _ = run_cli(
            capsys, "extract", "--config", str(cfg), "--data-dir", str(data),
            "--feature", "bin-mbe", "--out", str(feat_dir),
        )
        assert code == 0
        archives = sorted(feat_dir.glob("*.bin-mbe.sedf"))
        assert len(archives) == 4
        lines = [l for l in stdout.splitlines() if l.startswith("bin-mbe\t")]
        assert len(lines) == 4
        frames, bins, channels = lines[0].split("\t")[2:]
        assert (bins, channels) == ("40", "2")
        assert int(frames) == 150  # 3 s at 20 ms hop

    def test_rerun_skips_existing_archives(self, dataset, capsys, tmp_path):
        cfg, data = dataset
        feat_dir = tmp_path / "features"
        run_cli(capsys, "extract", "--config", str(cfg), "--data-dir", str(data), "--out", str(feat_dir))
        stamps = {p.name: p.stat().st_mtime_ns for p in feat_dir.glob("*.sedf")}
        run_cli(capsys, "extract", "--config", str(cfg), "--data-dir", str(data), "--out", str(feat_dir))
        assert {p.name: p.stat().st_mtime_ns for p in feat_dir.glob("*.sedf")} == stamps
        code, _, _ = run_cli(
            capsys, "extract", "--config", str(cfg), "--data-dir", str(data),
            "--out", str(feat_dir), "--force",
        )
        assert code == 0
        rebuilt = {p.name: p.stat().st_mtime_ns for p in feat_dir.glob("*.sedf")}
        assert any(rebuilt[name] != stamps[name] for name in stamps)

    def test_rewritten_wavs_are_re_extracted_by_extract_and_train(self, dataset, capsys, tmp_path):
        cfg, data = dataset
        text = cfg.read_text(encoding="utf-8").replace("[data]", f"[data]\nroot = {data}")
        cfg.write_text(text, encoding="utf-8")

        def archives():
            return {p.name: p.read_bytes() for p in (data / "features").glob("*.sedf")}

        assert run_cli(capsys, "extract", "--config", str(cfg))[0] == 0
        first = archives()
        assert run_cli(capsys, "synth", "--config", str(cfg), "--seed", "78")[0] == 0
        assert run_cli(capsys, "extract", "--config", str(cfg))[0] == 0
        second = archives()
        assert second.keys() == first.keys()
        assert all(second[name] != first[name] for name in first)
        # the seed-77 audio again: train, not extract, brings the archives back
        assert run_cli(capsys, "synth", "--config", str(cfg))[0] == 0
        code, _, stderr = run_cli(capsys, "train", "--config", str(cfg), "--out", str(tmp_path / "runs"))
        assert code == 0, stderr
        assert archives() == first

    def test_missing_wav_exits_one_naming_it_even_with_its_archive(self, dataset, capsys):
        cfg, data = dataset
        assert run_cli(capsys, "extract", "--config", str(cfg), "--data-dir", str(data))[0] == 0
        (data / "clip002.wav").unlink()
        code, _, stderr = run_cli(capsys, "extract", "--config", str(cfg), "--data-dir", str(data))
        assert code == 1
        assert stderr.startswith("error:") and "clip002.wav" in stderr

    def test_unknown_feature_class_is_usage_error(self, dataset, capsys):
        cfg, data = dataset
        with pytest.raises(SystemExit) as exc:
            main(["extract", "--config", str(cfg), "--data-dir", str(data), "--feature", "mfcc"])
        assert exc.value.code == 2

    def test_unknown_feature_class_in_config_is_config_error(self, dataset, capsys, tmp_path):
        cfg, data = dataset
        cfg.write_text(
            cfg.read_text(encoding="utf-8").replace("feature_class = mbe", "feature_class = mfcc"),
            encoding="utf-8",
        )
        code, _, stderr = run_cli(
            capsys, "extract", "--config", str(cfg), "--data-dir", str(data),
            "--out", str(tmp_path / "features"),
        )
        assert code == 2
        assert "mfcc" in stderr
        assert not (tmp_path / "features").exists()

    def test_non_finite_hop_exits_two_naming_it(self, dataset, capsys, tmp_path):
        cfg, data = dataset
        cfg.write_text(
            cfg.read_text(encoding="utf-8").replace("[features]", "[features]\nhop_ms = nan"), encoding="utf-8"
        )
        code, _, stderr = run_cli(
            capsys, "extract", "--config", str(cfg), "--data-dir", str(data),
            "--out", str(tmp_path / "features"),
        )
        assert code == 2
        assert "hop_ms" in stderr
        assert not (tmp_path / "features").exists()

    def test_empty_multires_windows_exits_two_naming_it(self, dataset, capsys, tmp_path):
        cfg, data = dataset
        cfg.write_text(
            cfg.read_text(encoding="utf-8").replace(
                "feature_class = mbe", "feature_class = bin-mul-mbe\nmultires_windows ="
            ),
            encoding="utf-8",
        )
        code, _, stderr = run_cli(
            capsys, "extract", "--config", str(cfg), "--data-dir", str(data),
            "--out", str(tmp_path / "features"),
        )
        assert code == 2
        assert "[features] multires_windows" in stderr
        assert not (tmp_path / "features").exists()


class TestEval:
    def test_identical_files_score_perfectly(self, tmp_path, capsys):
        ref = tmp_path / "ref.tsv"
        ref.write_text("0.0\t1.5\tcar\n2.0\t3.0\tpeople\n", encoding="utf-8")
        code, stdout, _ = run_cli(
            capsys, "eval", "--ref", str(ref), "--pred", str(ref), "--duration", "4.0"
        )
        assert code == 0
        assert "ER: 0.00" in stdout
        assert "F: 100.0" in stdout

    def test_report_files_and_formatting(self, tmp_path, capsys):
        ref = tmp_path / "ref.tsv"
        pred = tmp_path / "pred.tsv"
        ref.write_text("0.0\t1.0\tcar\n1.0\t2.0\tcar\n", encoding="utf-8")
        pred.write_text("0.0\t1.0\tcar\n", encoding="utf-8")
        out = tmp_path / "metrics.tsv"
        segments = tmp_path / "segments.tsv"
        code, stdout, _ = run_cli(
            capsys, "eval", "--ref", str(ref), "--pred", str(pred),
            "--duration", "2.0", "--out", str(out), "--segments-out", str(segments),
        )
        assert code == 0
        assert "ER: 0.50" in stdout
        assert "F: 66.7" in stdout
        metric_lines = dict(
            line.split("\t") for line in out.read_text(encoding="utf-8").splitlines()
        )
        assert list(metric_lines) == ["er", "f", "segments", "tp", "fp", "fn", "n", "s", "d", "i"]
        assert float(metric_lines["er"]) == 0.5
        seg_lines = segments.read_text(encoding="utf-8").splitlines()
        assert seg_lines[0] == "k\tTP\tFP\tFN\tS\tD\tI\tN"
        assert len(seg_lines) == 3

    def test_inferred_vocabulary_keeps_labels_verbatim(self, tmp_path, capsys):
        # the labels read from both files are the vocabulary, as given by
        # --classes: a trailing space is part of the label
        ref = tmp_path / "ref.tsv"
        pred = tmp_path / "pred.tsv"
        ref.write_text("0.0\t1.0\tdog \n1.0\t2.0\tcat\n", encoding="utf-8")
        pred.write_text("0.0\t1.0\tdog \n", encoding="utf-8")
        outputs = [
            run_cli(capsys, "eval", "--ref", str(ref), "--pred", str(pred), *classes)
            for classes in ((), ("--classes", "dog ,cat"))
        ]
        assert outputs[0] == outputs[1]
        code, stdout, _ = outputs[0]
        assert code == 0
        assert "ER: 0.50" in stdout

    def test_allocation_failure_is_runtime_error(self, tmp_path, capsys):
        # a (10^18, 1) roll: numpy refuses the allocation before touching memory
        ref = tmp_path / "ref.tsv"
        ref.write_text("0.0\t1.0\tcar\n", encoding="utf-8")
        code, _, stderr = run_cli(
            capsys, "eval", "--ref", str(ref), "--pred", str(ref), "--duration", "1e12", "--hop", "1e-6"
        )
        assert code == 1
        assert stderr.startswith("error:")

    def test_empty_reference_is_runtime_error(self, tmp_path, capsys):
        ref = tmp_path / "ref.tsv"
        pred = tmp_path / "pred.tsv"
        ref.write_text("", encoding="utf-8")
        pred.write_text("0.0\t1.0\tcar\n", encoding="utf-8")
        code, _, stderr = run_cli(
            capsys, "eval", "--ref", str(ref), "--pred", str(pred), "--duration", "2.0"
        )
        assert code == 1
        assert "reference" in stderr


    def test_non_finite_annotation_time_exits_one_naming_the_line(self, tmp_path, capsys):
        ref = tmp_path / "ref.tsv"
        ref.write_text("0.0\t1.0\tdog\n0.5\tinf\tdog\n", encoding="utf-8")
        code, stdout, stderr = run_cli(capsys, "eval", "--ref", str(ref), "--pred", str(ref))
        assert code == 1
        assert stdout == ""
        assert str(ref) in stderr and "line 2" in stderr

    @pytest.mark.parametrize(
        "option, value",
        [
            ("--hop", "0"),
            ("--hop", "-0.02"),
            ("--segment-seconds", "0"),
            ("--duration", "0"),
            ("--duration", "-1"),
        ],
    )
    def test_non_positive_value_is_usage_error(self, tmp_path, capsys, option, value):
        ref = tmp_path / "ref.tsv"
        ref.write_text("0.0\t1.0\tcar\n", encoding="utf-8")
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--ref", str(ref), "--pred", str(ref), f"{option}={value}"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "must be a positive number" in captured.err


class TestTrainCommand:
    def test_writes_results_tree(self, tmp_path, capsys):
        cfg = small_synth_config(tmp_path)
        data = tmp_path / "data"
        run_cli(capsys, "synth", "--config", str(cfg), "--out", str(data))
        # manifest paths are relative to the data dir; point the config there
        cfg2 = tmp_path / "exp2.cfg"
        cfg2.write_text(
            cfg.read_text(encoding="utf-8").replace("[data]", f"[data]\nroot = {data}"),
            encoding="utf-8",
        )
        out = tmp_path / "runs" / "demo"
        code, stdout, _ = run_cli(capsys, "train", "--config", str(cfg2), "--out", str(out))
        assert code == 0
        assert (out / "fold1" / "run1" / "checkpoint.sedm").exists()
        assert (out / "fold1" / "run1" / "history.tsv").exists()
        assert (out / "fold1" / "run1" / "metrics.tsv").exists()
        assert "ER:" in stdout and "F:" in stdout

        code, report_out, _ = run_cli(capsys, "report", "--runs", str(out))
        assert code == 0
        assert "mean" in report_out

    def test_runs_with_and_without_archive_dir_write_equal_files(self, tmp_path, capsys):
        # each run fills its own cache and trains on the archived float32
        # features, so the cache setting changes no bit of the results
        cfg = small_synth_config(tmp_path)
        data = tmp_path / "data"
        run_cli(capsys, "synth", "--config", str(cfg), "--out", str(data))
        text = cfg.read_text(encoding="utf-8").replace("[data]", f"[data]\nroot = {data}")
        cfg.write_text(text, encoding="utf-8")
        cached = tmp_path / "cached.cfg"
        cached.write_text(text.replace("[features]", f"[features]\narchive_dir = {tmp_path / 'cache'}"), encoding="utf-8")
        for config, out in ((cfg, "plain"), (cached, "cached")):
            code, _, stderr = run_cli(capsys, "train", "--config", str(config), "--out", str(tmp_path / out))
            assert code == 0, stderr
        assert len(list((data / "features").glob("*.sedf"))) == len(list((tmp_path / "cache").glob("*.sedf"))) == 4
        for name in ("history.tsv", "metrics.tsv"):
            plain = (tmp_path / "plain" / "fold1" / "run1" / name).read_bytes()
            assert plain == (tmp_path / "cached" / "fold1" / "run1" / name).read_bytes()

    def test_float32_protocol_trainings_are_byte_identical(self, tmp_path, capsys):
        # the benchmark protocol's settings on fewer, shorter clips and a
        # smaller epoch budget, trained twice with one seed
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("\n".join([
            "[data]", f"root = {tmp_path / 'data'}", "n_clips = 8", "duration_s = 2.0",
            "class_count = 3", "folds = 4", "seed = 5", "",
            "[features]", "feature_class = bin-mbe", "",
            "[model]", "conv_layers = 2", "filters = 16", "gru_layers = 1", "gru_units = 32",
            "dense_layers = 1", "dense_units = 32", "dropout = 0.25", "",
            "[train]", "learning_rate = 0.003", "max_epochs = 3", "patience = 2",
            "sequence_length = 64", "n_runs = 1", "folds = 1", "",
        ]), encoding="utf-8")
        assert run_cli(capsys, "synth", "--config", str(cfg), "--out", str(tmp_path / "data"))[0] == 0
        for out in ("a", "b"):
            code, _, stderr = run_cli(capsys, "train", "--config", str(cfg), "--out", str(tmp_path / out))
            assert code == 0, stderr
        for name in ("checkpoint.sedm", "history.tsv"):
            first = (tmp_path / "a" / "fold1" / "run1" / name).read_bytes()
            assert first == (tmp_path / "b" / "fold1" / "run1" / name).read_bytes(), name
        model, _ = load_checkpoint(tmp_path / "a" / "fold1" / "run1" / "checkpoint.sedm")
        assert model.dtype == np.float32

    def test_data_dir_names_the_manifest_directory(self, tmp_path, capsys, monkeypatch):
        # as for extract, --data-dir D reads D/manifest.tsv, wherever the
        # command runs from and whatever the config's [data] root
        cfg = small_synth_config(tmp_path)
        run_cli(capsys, "synth", "--config", str(cfg), "--out", str(tmp_path / "ds"))
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        code, _, stderr = run_cli(
            capsys, "train", "--config", str(cfg), "--data-dir", "../ds", "--out", "runs"
        )
        assert code == 0, stderr
        assert (work / "runs" / "fold1" / "run1" / "metrics.tsv").exists()

    @pytest.mark.parametrize(
        "text, key",
        [("er\t0.5\nsegments\t4\n", "'f'"), ("er\tnan-ish\nf\t0.5\n", "'er'")],
    )
    def test_report_on_damaged_metrics_file_is_runtime_error(self, tmp_path, capsys, text, key):
        metric_file = tmp_path / "runs" / "fold1" / "run1" / "metrics.tsv"
        metric_file.parent.mkdir(parents=True)
        metric_file.write_text(text, encoding="utf-8")
        code, _, stderr = run_cli(capsys, "report", "--runs", str(tmp_path / "runs"))
        assert code == 1
        assert str(metric_file) in stderr and key in stderr

    @pytest.mark.parametrize(
        "key, value",
        [
            ("monitor", "bogus"), ("monitor", "train"), ("sequence_length", "0"), ("folds", ""), ("seed", "-1"),
            ("folds", "1,1"), ("folds", "0,1"), ("folds", "-1"),
            ("threshold", "2"), ("threshold", "0"), ("n_runs", "0"), ("learning_rate", "0"), ("batch_size", "0"),
            ("patience", "4"),  # not below max_epochs = 4
        ],
    )
    def test_bad_train_value_exits_two_before_any_work(self, tmp_path, capsys, key, value):
        cfg = small_synth_config(tmp_path)
        data_part, train_part = cfg.read_text(encoding="utf-8").split("[train]")
        # the key is set to the bad value, whether the config set it or not
        train_part = "\n".join(
            [line for line in train_part.splitlines() if not line.startswith(f"{key} =")] + [f"{key} = {value}"]
        )
        # a data root that does not exist: the config must fail before it is read
        data_part = data_part.replace("[data]", f"[data]\nroot = {tmp_path / 'absent'}")
        cfg.write_text(f"{data_part}[train]{train_part}\n", encoding="utf-8")
        out = tmp_path / "runs" / "bad"
        code, _, stderr = run_cli(capsys, "train", "--config", str(cfg), "--out", str(out))
        assert code == 2
        assert key in stderr
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, value",
        [
            ("dropout", "1.5"), ("dropout", "-0.1"), ("dense_layers", "-1"), ("gru_layers", "0"), ("gru_units", "0"),
            ("filters", "0"), ("conv_layers", "0"), ("pool_factors", "20,2"),  # one factor per conv layer
        ],
    )
    def test_bad_model_value_exits_two_before_any_work(self, tmp_path, capsys, key, value):
        cfg = small_synth_config(tmp_path)
        lines = cfg.read_text(encoding="utf-8").splitlines()
        cfg.write_text(
            "\n".join(f"{key} = {value}" if line.startswith(f"{key} =") else line for line in lines) + "\n",
            encoding="utf-8",
        )
        out = tmp_path / "runs" / "bad"
        code, _, stderr = run_cli(capsys, "train", "--config", str(cfg), "--out", str(out))
        assert code == 2
        assert f"[model] {key}" in stderr
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, value",
        [
            ("n_mels", "0"),
            ("hop_ms", "0"),
            ("window_ms", "-5"),
            ("fft_size", "1000"),
            ("multires_windows", "1024,3000"),
            ("f_min", "-1"),
            ("f_max", "0"),
        ],
    )
    def test_bad_features_value_exits_two_before_any_work(self, tmp_path, capsys, key, value):
        cfg = small_synth_config(tmp_path)
        text = cfg.read_text(encoding="utf-8").replace("f_max = 22050\n", "")
        cfg.write_text(text.replace("[features]", f"[features]\n{key} = {value}"), encoding="utf-8")
        out = tmp_path / "runs" / "bad"
        code, _, stderr = run_cli(capsys, "train", "--config", str(cfg), "--out", str(out))
        assert code == 2
        assert f"[features] {key}" in stderr
        assert not out.exists()

    def test_search_section_of_older_configs_exits_two_naming_it(self, tmp_path, capsys):
        cfg = small_synth_config(tmp_path, extra_lines=["", "[search]", "trials = 3"])
        out = tmp_path / "runs" / "bad"
        code, _, stderr = run_cli(capsys, "train", "--config", str(cfg), "--out", str(out))
        assert code == 2
        assert "unknown section [search]" in stderr
        assert not out.exists()

    def test_missing_fold_exits_one_before_any_fold_trains(self, tmp_path, capsys):
        cfg = small_synth_config(tmp_path)
        data = tmp_path / "data"
        run_cli(capsys, "synth", "--config", str(cfg), "--out", str(data))
        text = cfg.read_text(encoding="utf-8").replace("[data]", f"[data]\nroot = {data}")
        cfg.write_text(text.replace("\nfolds = 1\n", "\nfolds = 1,5\n"), encoding="utf-8")
        out = tmp_path / "runs" / "demo"
        code, _, stderr = run_cli(capsys, "train", "--config", str(cfg), "--out", str(out))
        assert code == 1
        assert "fold 5" in stderr
        assert not (out / "fold1").exists()

    def _train_on_damaged_archive(self, tmp_path, capsys, damage):
        """Extract a small dataset's archives, pass the first through
        ``damage`` and train on the cache; returns (exit code, stderr, archive)."""
        cfg = small_synth_config(tmp_path)
        data, feats = tmp_path / "data", tmp_path / "features"
        run_cli(capsys, "synth", "--config", str(cfg), "--out", str(data))
        text = cfg.read_text(encoding="utf-8").replace("[data]", f"[data]\nroot = {data}")
        cfg.write_text(text.replace("[features]", f"[features]\narchive_dir = {feats}"), encoding="utf-8")
        code, _, _ = run_cli(capsys, "extract", "--config", str(cfg))
        assert code == 0
        archive = sorted(feats.glob("*.sedf"))[0]
        archive.write_bytes(damage(archive.read_bytes()))
        code, _, stderr = run_cli(capsys, "train", "--config", str(cfg), "--out", str(tmp_path / "runs"))
        return code, stderr, archive

    def test_truncated_archive_exits_one_naming_it(self, tmp_path, capsys):
        code, stderr, archive = self._train_on_damaged_archive(tmp_path, capsys, lambda raw: raw[:-2])
        assert code == 1
        assert stderr.startswith("error:") and archive.name in stderr

    def test_non_finite_archive_exits_one_naming_it(self, tmp_path, capsys):
        def nan_payload(raw):
            with np.load(io.BytesIO(raw)) as npz:
                arrays = dict(npz)
            arrays["data"] = np.full_like(arrays["data"], np.nan)
            out = io.BytesIO()
            np.savez(out, **arrays)
            return out.getvalue()

        code, stderr, archive = self._train_on_damaged_archive(tmp_path, capsys, nan_payload)
        assert code == 1
        assert stderr.startswith("error:") and archive.name in stderr and "non-finite" in stderr


class TestLogging:
    def test_log_env_var_controls_stderr(self, tmp_path):
        cfg = small_synth_config(tmp_path)
        out = tmp_path / "data"
        env = dict(os.environ, SEDPIPE_LOG="info")
        proc = subprocess.run(
            [sys.executable, "-m", "sedpipe", "synth", "--config", str(cfg), "--out", str(out)],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0
        assert "wrote" in proc.stderr

        quiet = subprocess.run(
            [sys.executable, "-m", "sedpipe", "synth", "--config", str(cfg), "--out", str(out)],
            capture_output=True,
            text=True,
            env=dict(os.environ, SEDPIPE_LOG="error"),
        )
        assert quiet.returncode == 0
        assert "wrote" not in quiet.stderr


TRACED_PIPELINE = """
import json, sys
sys.path[:0] = sys.argv[1:3]
from tracer import Tracer, install_pipeline
tracer = Tracer("protocol")
install_pipeline(tracer)
from sedpipe.cli import main
for argv in (["synth", "--out", "data"], ["extract"], ["train", "--out", "runs"]):
    assert main(argv + ["--config", "exp.cfg"]) == 0, argv
print(json.dumps(tracer.counts))
"""


@pytest.mark.parametrize("archive_dir", ["data/features", None])
def test_perfbench_tracer_sees_every_pipeline_boundary(tmp_path, archive_dir):
    """perfbench/tracer.py wraps module attributes by name; a rename in cli
    or experiment, or a call that bypasses the module attribute, shows here.
    Without ``archive_dir``, train still loads what extract wrote."""
    cfg = small_synth_config(tmp_path)
    if archive_dir:
        cfg.write_text(
            cfg.read_text(encoding="utf-8").replace("[features]", f"[features]\narchive_dir = {archive_dir}"),
            encoding="utf-8",
        )
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_PIPELINE, str(root / "perfbench"), str(root / "src")],
        cwd=tmp_path, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    counts = json.loads(proc.stdout.splitlines()[-1])
    # four clips: extract reads and extracts each once, train only loads
    assert counts["audio_io.read_wav.calls"] == 4
    assert counts["features.extract.calls"] == 4
    assert counts["features.load_feature_archive.calls"] == 4
    assert counts["experiment.run_fold.calls"] == 1


INSTALL_EVERY_TRACER = """
import sys
sys.path[:0] = sys.argv[1:3]
from tracer import Tracer, install_features, install_pipeline, install_step
install_features(Tracer("mbe"))
install_step(Tracer("mbe"))
install_pipeline(Tracer("protocol"))
"""


def test_perfbench_installers_find_every_name_they_wrap():
    """Each installer looks up the names it wraps, so deleting one fails
    here rather than in the first traced benchmark run. A subprocess keeps
    the wrappers out of the other tests."""
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", INSTALL_EVERY_TRACER, str(root / "perfbench"), str(root / "src")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr


TRACED_STEP = """
import json, sys
sys.path[:0] = sys.argv[1:3]
import numpy as np
from tracer import Tracer, install_step
from sedpipe import nn
from sedpipe.nn import loss
tracer = Tracer("mbe")
model = nn.build_crnn(nn.CrnnArch(n_bins=40, n_channels=1, n_classes=2, filters=4, gru_units=4, dense_units=4),
                      np.random.default_rng(0))
tracer.instrument_model(model)
install_step(tracer)
optimizer = nn.Adam(model, lr=1e-3)
data = np.random.default_rng(1)
out = model.forward(data.normal(size=(2, 8, 40, 1)), training=True, rng=data)
model.backward(loss.bce_loss(out, np.zeros(out.shape), np.ones(out.shape[:2], dtype=bool))[1])
optimizer.step()
print(json.dumps(sorted(tracer.metrics())))
"""


def test_perfbench_tracer_times_each_conv_block_as_one_layer():
    """The train workloads' hooks (``instrument_model`` and ``install_step``)
    run one step of a CRNN whose conv stages are single ``ConvBlock``
    layers; the conv's own passes run inside the block's span."""
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_STEP, str(root / "perfbench"), str(root / "src")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    names = set(json.loads(proc.stdout.splitlines()[-1]))
    assert {
        "nn.ConvBlock.forward.s.mbe", "nn.ConvBlock.backward.s.mbe",
        "nn.loss.bce_loss.s.mbe", "nn.optim.Adam.step.s.mbe",
    } <= names
    assert not any(name.startswith("nn.Conv2D.") for name in names)
