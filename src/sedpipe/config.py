"""Experiment configuration: one dataclass per file section, declaring each
setting's default and its checks once, plus a strict ``key = value`` file
reader. Unknown sections or keys are hard errors, never warnings.

The ``[features]`` section is :class:`sedpipe.features.FeatureConfig`,
declared beside the feature table it is checked against and read by the
extractors themselves.

The runtime specs subclass their section and add only what the file does
not set: :class:`sedpipe.synth.SynthSpec` extends :class:`DataConfig` and
:class:`sedpipe.nn.CrnnArch` extends :class:`ModelConfig`. Training takes
:class:`TrainSection` itself.
"""

from __future__ import annotations

import configparser
import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass, field, fields
from pathlib import Path

from .errors import ConfigError, RangeError
from .features import FeatureConfig

_BOOL_WORDS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


@dataclass(frozen=True)
class DataConfig:
    root: str = "data"
    manifest: str = ""  # defaults to <root>/manifest.tsv
    sample_rate: int = 44100
    n_clips: int = 24
    duration_s: float = 10.0
    class_count: int = 6
    polyphony_max: int = 3
    folds: int = 4
    seed: int = 1234
    bit_depth: int = 24
    # "distinct": per-class spectra (the default); "shared": all classes use
    # one template and differ only by their stereo gain pair
    template_mode: str = "distinct"

    def __post_init__(self):
        """Raise RangeError for a bad value. The fold plan is checked by
        :class:`ExperimentConfig`, as a SynthSpec needs no folds."""
        for key in ("class_count", "polyphony_max", "n_clips", "sample_rate"):
            if getattr(self, key) < 1:
                raise RangeError(f"{key} must be >= 1, got {getattr(self, key)}")
        if self.seed < 0:
            raise RangeError(f"seed must be >= 0, got {self.seed}")
        if self.duration_s <= 0:
            raise RangeError(f"duration_s must be positive, got {self.duration_s}")
        if self.template_mode not in ("distinct", "shared"):
            raise RangeError(f"template_mode must be 'distinct' or 'shared', got {self.template_mode!r}")
        if self.bit_depth not in (16, 24):
            raise RangeError(f"bit_depth must be 16 or 24, got {self.bit_depth}")

    def manifest_path(self) -> Path:
        return Path(self.manifest) if self.manifest else Path(self.root) / "manifest.tsv"


@dataclass(frozen=True)
class ModelConfig:
    conv_layers: int = 3
    filters: int = 64
    pool_factors: tuple[int, ...] = ()
    gru_layers: int = 2
    gru_units: int = 64
    dense_layers: int = 1
    dense_units: int = 64
    dropout: float = 0.5

    def __post_init__(self):
        """Raise ConfigError for a value no bin count can make buildable;
        :class:`sedpipe.nn.CrnnArch` adds the check that needs the bins."""
        for key in ("conv_layers", "filters", "gru_layers", "gru_units"):
            if getattr(self, key) < 1:
                raise ConfigError(f"{key} must be >= 1, got {getattr(self, key)}")
        if self.dense_layers < 0:
            raise ConfigError(f"dense_layers must be >= 0, got {self.dense_layers}")
        if self.dense_layers and self.dense_units < 1:
            raise ConfigError(f"dense_units must be >= 1 with dense layers, got {self.dense_units}")
        if self.pool_factors and len(self.pool_factors) != self.conv_layers:
            raise ConfigError(
                f"pool_factors {self.pool_factors} must hold one factor per conv layer "
                f"({self.conv_layers})"
            )
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")


@dataclass(frozen=True)
class TrainSection:
    learning_rate: float = 1e-4
    max_epochs: int = 500
    patience: int = 100
    batch_size: int = 8
    sequence_length: int = 256
    monitor: str = "validation"
    threshold: float = 0.5
    seed: int = 1
    n_runs: int = 5
    folds: tuple[int, ...] = (1, 2, 3, 4)

    def __post_init__(self):
        """Raise RangeError for a bad value."""
        if self.learning_rate <= 0:
            raise RangeError(f"learning_rate must be positive, got {self.learning_rate}")
        if not 1 <= self.patience < self.max_epochs:
            raise RangeError(
                f"need 1 <= patience < max_epochs, got patience={self.patience}, "
                f"max_epochs={self.max_epochs}"
            )
        for key in ("batch_size", "sequence_length", "n_runs"):
            if getattr(self, key) < 1:
                raise RangeError(f"{key} must be >= 1, got {getattr(self, key)}")
        if not 0.0 < self.threshold < 1.0:
            raise RangeError(f"threshold must be in (0, 1), got {self.threshold}")
        if self.monitor not in ("validation", "test"):
            raise RangeError(f"monitor must be 'validation' or 'test', got {self.monitor!r}")
        if not self.folds:
            raise RangeError("folds must name at least one fold")
        if min(self.folds) < 1 or len(set(self.folds)) != len(self.folds):
            raise RangeError(f"folds must be distinct ids >= 1, got {self.folds}")
        if self.seed < 0:
            raise RangeError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class ExperimentConfig:
    data: DataConfig = field(default_factory=DataConfig)
    features: FeatureConfig = field(default_factory=FeatureConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainSection = field(default_factory=TrainSection)

    def __post_init__(self):
        """Reject a fold plan that cannot train: round-robin folds need a
        train group besides the test group, and a clip per group."""
        folds, n_clips = self.data.folds, self.data.n_clips
        if not 2 <= folds <= n_clips:
            raise ConfigError(f"[data] folds must be between 2 and n_clips ({n_clips}), got {folds}")


_SECTIONS = {
    "data": DataConfig,
    "features": FeatureConfig,
    "model": ModelConfig,
    "train": TrainSection,
}


def _parse_value(raw: str, kind, key: str):
    raw = raw.strip()
    try:
        if kind is int:
            return int(raw)
        if kind is float:
            value = float(raw)
            if not math.isfinite(value):
                raise ConfigError(f"key {key!r}: {raw!r} is not a finite number")
            return value
        if kind is bool:
            if raw.lower() not in _BOOL_WORDS:
                raise ValueError(raw)
            return _BOOL_WORDS[raw.lower()]
        if kind is str:
            return raw
    except ValueError:
        raise ConfigError(f"key {key!r}: cannot parse {raw!r} as {kind.__name__}") from None
    raise ConfigError(f"key {key!r}: unsupported value type")


def _parse_tuple(raw: str, key: str) -> tuple[int, ...]:
    raw = raw.strip()
    if not raw:
        return ()
    return tuple(_parse_value(part, int, key) for part in raw.split(","))


def load_config(path) -> ExperimentConfig:
    """Read a sectioned ``key = value`` file into an ExperimentConfig."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {path}: {exc}") from exc

    cfg = ExperimentConfig()
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"{path}: unknown section [{section}]")
        known = {f.name: f for f in fields(_SECTIONS[section])}
        values = {}
        for key, raw in parser.items(section):
            if key not in known:
                raise ConfigError(f"{path}: unknown key {key!r} in section [{section}]")
            f = known[key]
            if f.type.startswith("tuple"):
                values[key] = _parse_tuple(raw, key)
            else:
                kind = {"int": int, "float": float, "bool": bool, "str": str}[f.type]
                values[key] = _parse_value(raw, kind, key)
        cfg = with_section(cfg, section, **values)
    return cfg


def with_section(cfg: ExperimentConfig, name: str, **values) -> ExperimentConfig:
    """``cfg`` with ``values`` set in section ``name``, for the file reader
    and for command-line overrides. This is the one place where a section's
    RangeError or ConfigError becomes a ConfigError naming the section."""
    try:
        section = dataclasses.replace(getattr(cfg, name), **values)
    except (RangeError, ConfigError) as exc:
        raise ConfigError(f"[{name}] {exc}") from None
    return dataclasses.replace(cfg, **{name: section})


def section_digest(section, omit=()) -> str:
    """12 hex digits of the sha256 of the section's fields but ``omit``, as
    sorted-key JSON. Float fields hash as floats, so an int given for one
    names the same section as the equal float."""
    values = {
        f.name: float(getattr(section, f.name)) if f.type == "float" else getattr(section, f.name)
        for f in fields(section)
        if f.name not in omit
    }
    return hashlib.sha256(json.dumps(values, sort_keys=True).encode()).hexdigest()[:12]


def dump_config(cfg: ExperimentConfig) -> str:
    """Render a config back to the file format."""
    lines = []
    for section in _SECTIONS:
        value = getattr(cfg, section)
        lines.append(f"[{section}]")
        for f in fields(value):
            v = getattr(value, f.name)
            if isinstance(v, tuple):
                v = ",".join(str(x) for x in v)
            lines.append(f"{f.name} = {v}")
        lines.append("")
    return "\n".join(lines)
