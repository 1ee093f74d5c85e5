from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from sedpipe.cli import main


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

    def test_unknown_config_key_exits_two_naming_it(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("[data]\nn_clps = 3\n", encoding="utf-8")
        code, _, stderr = run_cli(capsys, "synth", "--config", str(cfg), "--out", str(tmp_path / "d"))
        assert code == 2
        assert "n_clps" in stderr


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

    def test_unknown_feature_class_is_usage_error(self, dataset, capsys):
        cfg, data = dataset
        with pytest.raises(SystemExit) as exc:
            main(["extract", "--config", str(cfg), "--data-dir", str(data), "--feature", "mfcc"])
        assert exc.value.code == 2


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
        assert float(metric_lines["er"]) == 0.5
        seg_lines = segments.read_text(encoding="utf-8").splitlines()
        assert seg_lines[0] == "k\tTP\tFP\tFN\tS\tD\tI\tN"
        assert len(seg_lines) == 3

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


class TestSearchCommand:
    def test_three_trials_write_ranking_and_dirs(self, tmp_path, capsys):
        cfg = small_synth_config(
            tmp_path,
            extra_lines=[
                "",
                "[search]",
                "trials = 3",
                "epochs = 2",
                "conv_layers = 1",
                "filters = 2,4",
                "gru_layers = 1",
                "gru_units = 4,8",
                "dense_layers = 0",
                "dense_units = 4",
                "dropout = 0.05,0.25",
            ],
        )
        data = tmp_path / "data"
        run_cli(capsys, "synth", "--config", str(cfg), "--out", str(data))
        cfg2 = tmp_path / "exp2.cfg"
        cfg2.write_text(
            cfg.read_text(encoding="utf-8").replace("[data]", f"[data]\nroot = {data}"),
            encoding="utf-8",
        )
        out = tmp_path / "runs" / "search"
        code, stdout, _ = run_cli(capsys, "search", "--config", str(cfg2), "--out", str(out))
        assert code == 0
        for i in (1, 2, 3):
            assert (out / f"trial{i}" / "metrics.tsv").exists()
            assert (out / f"trial{i}" / "config.txt").exists()
        ranking = (out / "ranking.tsv").read_text(encoding="utf-8").splitlines()
        assert ranking[0] == "rank\ttrial\tmean_er\tmean_f"
        assert len(ranking) == 4
        ers = [float(line.split("\t")[2]) for line in ranking[1:]]
        assert ers == sorted(ers)
