from __future__ import annotations

import pytest

from sedpipe.config import ExperimentConfig, dump_config, load_config
from sedpipe.errors import ConfigError


def test_defaults_mirror_the_reference_recipe():
    cfg = ExperimentConfig()
    assert cfg.data.n_clips == 24
    assert cfg.data.class_count == 6
    assert cfg.data.folds == 4
    assert cfg.data.sample_rate == 44100
    assert cfg.features.n_mels == 40
    assert cfg.features.f_max == 22050.0
    assert cfg.features.fft_size == 2048
    assert cfg.features.multires_windows == (1024, 4096, 16384)
    assert cfg.train.learning_rate == 1e-4
    assert cfg.train.max_epochs == 500
    assert cfg.train.patience == 100
    assert cfg.train.sequence_length == 256
    assert cfg.train.n_runs == 5
    assert cfg.search.dropout == (0.05, 0.25, 0.5, 0.75)


def test_load_valid_file(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(
        """
[data]
n_clips = 6
duration_s = 4.5
template_mode = shared

[features]
feature_class = bin-mbe
fft_log_magnitude = true

[train]
folds = 1,2
learning_rate = 0.003
""",
        encoding="utf-8",
    )
    cfg = load_config(path)
    assert cfg.data.n_clips == 6
    assert cfg.data.duration_s == 4.5
    assert cfg.data.template_mode == "shared"
    assert cfg.features.feature_class == "bin-mbe"
    assert cfg.features.fft_log_magnitude is True
    assert cfg.train.folds == (1, 2)
    assert cfg.train.learning_rate == 0.003
    # untouched sections keep defaults
    assert cfg.model.filters == 64


def test_unknown_key_is_hard_error(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("[train]\nlerning_rate = 0.1\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="lerning_rate"):
        load_config(path)


def test_unknown_section_is_hard_error(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("[training]\nseed = 1\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="training"):
        load_config(path)


def test_bad_value_type_is_hard_error(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("[data]\nn_clips = many\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="n_clips"):
        load_config(path)


def test_missing_file_is_config_error(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "absent.cfg")


def test_dump_round_trips(tmp_path):
    cfg = ExperimentConfig()
    path = tmp_path / "dumped.cfg"
    path.write_text(dump_config(cfg), encoding="utf-8")
    assert load_config(path) == cfg
