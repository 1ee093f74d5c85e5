from __future__ import annotations

import importlib.util
import tempfile
from pathlib import Path

import pytest

from sedpipe.errors import ManifestError

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "feature_table.py"

TINY_CONFIG = """[data]
n_clips = 4
duration_s = 2.0
class_count = 2
folds = {folds}
bit_depth = 16

[model]
conv_layers = 1
filters = 4
gru_layers = 1
gru_units = 8
dense_layers = 0
dense_units = 0
dropout = 0.0

[train]
learning_rate = 0.003
max_epochs = 2
patience = 1
batch_size = 4
sequence_length = 64
n_runs = 1
"""


@pytest.fixture
def feature_table(tmp_path, monkeypatch):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    spec = importlib.util.spec_from_file_location("feature_table", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def tiny_config(tmp_path, folds: int) -> str:
    path = tmp_path / f"tiny{folds}.cfg"
    path.write_text(TINY_CONFIG.format(folds=folds), encoding="utf-8")
    return str(path)


def test_one_row_per_class_in_order_and_a_fresh_workdir_per_call(feature_table, tmp_path, capsys):
    argv = ["--config", tiny_config(tmp_path, 4), "--features", "bin-mbe", "mbe", "--seed", "3"]
    workdirs = []
    for _ in range(2):
        assert feature_table.main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        workdir = Path(lines[0])
        assert workdir.parent == tmp_path
        workdirs.append(workdir)
        header = next(i for i, line in enumerate(lines) if line.startswith("feature"))
        rows = [line.split() for line in lines[header + 1:]]
        assert [row[0] for row in rows] == ["bin-mbe", "mbe"]
        assert "4 folds, monitor validation" in lines[header - 1]
        names = [p.name.split(".") for p in (workdir / "data" / "features").iterdir()]
        assert sorted((stem, fc) for stem, _, fc, _ in names) == sorted(
            (f"clip{i:03d}", fc) for i in range(4) for fc in ("bin-mbe", "mbe")
        )
    assert workdirs[0] != workdirs[1]


def test_two_folds_with_validation_monitor_fail_loudly(feature_table, tmp_path, capsys):
    # two round-robin folds leave no validation split, and the script must
    # not fall back to monitoring the test split
    with pytest.raises(ManifestError, match="no validation split"):
        feature_table.main(["--config", tiny_config(tmp_path, 2), "--features", "mbe"])
