"""Experiment configuration: dataclass defaults plus a strict ``key = value``
file reader. Unknown sections or keys are hard errors, never warnings."""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field, fields
from pathlib import Path

from .errors import ConfigError, RangeError
from .features import feature_spec
from .nn.training import TrainConfig
from .synth import SynthSpec

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
    template_mode: str = "distinct"

    def __post_init__(self):
        """Reject bad values as the config loads, before ``synth`` makes its
        output directory."""
        if self.folds < 1:
            raise ConfigError(f"[data] folds must be >= 1, got {self.folds}")
        if self.bit_depth not in (16, 24):
            raise ConfigError(f"[data] bit_depth must be 16 or 24, got {self.bit_depth}")
        self.synth_spec()

    def manifest_path(self) -> Path:
        return Path(self.manifest) if self.manifest else Path(self.root) / "manifest.tsv"

    def synth_spec(self) -> SynthSpec:
        """The generator settings of this section."""
        try:
            return SynthSpec(
                n_clips=self.n_clips,
                duration_s=self.duration_s,
                class_count=self.class_count,
                polyphony_max=self.polyphony_max,
                seed=self.seed,
                sample_rate=self.sample_rate,
                template_mode=self.template_mode,
            )
        except RangeError as exc:
            raise ConfigError(f"[data] {exc}") from None


@dataclass(frozen=True)
class FeatureConfig:
    feature_class: str = "mbe"
    n_mels: int = 40
    f_min: float = 0.0
    f_max: float = 22050.0
    window_ms: float = 40.0
    hop_ms: float = 20.0
    fft_size: int = 2048
    multires_windows: tuple[int, ...] = (1024, 4096, 16384)
    fft_log_magnitude: bool = False
    archive_dir: str = ""  # feature cache: read when an archive exists, written on a miss

    def __post_init__(self):
        feature_spec(self.feature_class)

    def extractor_kwargs(self) -> dict:
        fields_read = feature_spec(self.feature_class).config_fields
        return {name: getattr(self, name) for name in fields_read}


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
        """Reject bad values here, so a config fails as it loads rather than
        after the data has been read."""
        for key in ("sequence_length", "n_runs"):
            if getattr(self, key) < 1:
                raise ConfigError(f"[train] {key} must be >= 1, got {getattr(self, key)}")
        if not self.folds:
            raise ConfigError("[train] folds must name at least one fold")
        self.train_config(self.seed)

    def train_config(self, seed: int) -> TrainConfig:
        """The training-loop settings of this section for one run seed."""
        try:
            return TrainConfig(
                learning_rate=self.learning_rate,
                max_epochs=self.max_epochs,
                patience=self.patience,
                batch_size=self.batch_size,
                seed=seed,
                threshold=self.threshold,
                monitor=self.monitor,
            )
        except RangeError as exc:
            raise ConfigError(f"[train] {exc}") from None


@dataclass(frozen=True)
class SearchSection:
    trials: int = 5
    epochs: int = 30
    n_runs: int = 1
    conv_layers: tuple[int, ...] = (1, 2, 3)
    filters: tuple[int, ...] = (8, 16, 32)
    gru_layers: tuple[int, ...] = (1, 2)
    gru_units: tuple[int, ...] = (16, 32, 64)
    dense_layers: tuple[int, ...] = (0, 1)
    dense_units: tuple[int, ...] = (16, 32, 64)
    dropout: tuple[float, ...] = (0.05, 0.25, 0.5, 0.75)

    def __post_init__(self):
        """Reject bad values as the config loads, before ``search`` makes
        its output directory."""
        for key in ("trials", "n_runs"):
            if getattr(self, key) < 1:
                raise ConfigError(f"[search] {key} must be >= 1, got {getattr(self, key)}")
        for f in fields(self):
            if getattr(self, f.name) == ():
                raise ConfigError(f"[search] {f.name} must name at least one candidate")


@dataclass(frozen=True)
class ExperimentConfig:
    data: DataConfig = field(default_factory=DataConfig)
    features: FeatureConfig = field(default_factory=FeatureConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainSection = field(default_factory=TrainSection)
    search: SearchSection = field(default_factory=SearchSection)


_SECTIONS = {
    "data": DataConfig,
    "features": FeatureConfig,
    "model": ModelConfig,
    "train": TrainSection,
    "search": SearchSection,
}


def _parse_value(raw: str, kind, key: str):
    raw = raw.strip()
    try:
        if kind is int:
            return int(raw)
        if kind is float:
            return float(raw)
        if kind is bool:
            if raw.lower() not in _BOOL_WORDS:
                raise ValueError(raw)
            return _BOOL_WORDS[raw.lower()]
        if kind is str:
            return raw
    except ValueError:
        raise ConfigError(f"key {key!r}: cannot parse {raw!r} as {kind.__name__}") from None
    raise ConfigError(f"key {key!r}: unsupported value type")


def _parse_tuple(raw: str, elem_kind, key: str) -> tuple:
    raw = raw.strip()
    if not raw:
        return ()
    return tuple(_parse_value(part, elem_kind, key) for part in raw.split(","))


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

    sections = {}
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"{path}: unknown section [{section}]")
        cls = _SECTIONS[section]
        known = {f.name: f for f in fields(cls)}
        values = {}
        for key, raw in parser.items(section):
            if key not in known:
                raise ConfigError(f"{path}: unknown key {key!r} in section [{section}]")
            f = known[key]
            if f.type.startswith("tuple"):
                elem = float if "float" in f.type else int
                values[key] = _parse_tuple(raw, elem, key)
            else:
                kind = {"int": int, "float": float, "bool": bool, "str": str}[f.type]
                values[key] = _parse_value(raw, kind, key)
        sections[section] = cls(**values)
    return ExperimentConfig(**sections)


def dump_config(cfg: ExperimentConfig) -> str:
    """Render a config back to the file format (used for trial records)."""
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
