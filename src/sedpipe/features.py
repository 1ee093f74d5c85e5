"""The four feature classes and training-sequence assembly.

All extractors share the 20 ms hop and centered framing, so one clip yields
the same frame count F whatever the analysis window:

  mbe          mono log mel energies                  (F, 40, 1)
  bin-mbe      per-channel log mel energies           (F, 40, 2)
  bin-mul-mbe  per-channel, windows 1024/4096/16384   (F, 40, 6)
  bin-fft      per-channel STFT magnitude and phase   (F, 1024, 4)
"""

from __future__ import annotations

import logging
import struct
import warnings
from dataclasses import dataclass
from operator import attrgetter
from pathlib import Path
from typing import Any, Callable, NamedTuple, Sequence

import numpy as np

from . import dsp
from .audio_io import AudioClip, EventRoll, to_mono
from .errors import ChannelError, ConfigError, RangeError, ShapeError, StateError

log = logging.getLogger(__name__)

MULTIRES_WINDOWS = (1024, 4096, 16384)

_STD_FLOOR = 1e-8
_ARCHIVE_MAGIC = b"SEDF"
_ARCHIVE_VERSION = 1


@dataclass(frozen=True)
class FeatureTensor:
    """frames x bins x channels array of one feature class."""

    data: np.ndarray
    feature_class: str
    hop_seconds: float

    def __post_init__(self):
        spec = feature_spec(self.feature_class)
        d = self.data
        if d.ndim != 3:
            raise ShapeError(f"feature data must be 3-D (F, B, Ch), got shape {d.shape}")
        if d.size and not np.all(np.isfinite(d)):
            raise ShapeError("feature data contains non-finite values")
        # bin counts follow the config (n_mels, fft size); channel counts are
        # fixed per class except bin-mul-mbe, which scales with the window set
        ch = d.shape[2]
        step = spec.channel_step
        if ch != spec.channels and not (step and ch > 0 and ch % step == 0):
            raise ShapeError(f"{self.feature_class} cannot have {ch} channel(s)")

    @property
    def n_frames(self) -> int:
        return self.data.shape[0]

    @property
    def n_bins(self) -> int:
        return self.data.shape[1]

    @property
    def n_channels(self) -> int:
        return self.data.shape[2]


def _samples(ms: float, sample_rate: int) -> int:
    n = int(round(ms * sample_rate / 1000.0))
    if n < 1:
        raise RangeError(f"{ms} ms is shorter than one sample at {sample_rate} Hz")
    return n


def effective_f_max(f_max: float, sample_rate: int) -> float:
    """Clamp the filterbank ceiling to Nyquist, warning rather than failing
    so a config written for a higher sample rate still runs."""
    nyquist = sample_rate / 2.0
    if f_max > nyquist:
        warnings.warn(
            f"f_max {f_max:g} Hz exceeds Nyquist {nyquist:g} Hz; clamping to Nyquist",
            UserWarning,
            stacklevel=2,
        )
        return nyquist
    return f_max


def _log_mel(
    clip: AudioClip,
    hop: int,
    resolutions: Sequence[tuple[int, int]],
    n_mels: int = 40,
    f_min: float = 0.0,
    f_max: float = 22050.0,
) -> np.ndarray:
    """Per-channel log mel energies at each (window length, FFT size)
    resolution, (F, n_mels, n_channels * len(resolutions)).

    The channel axis is resolution-major: (r0 ch0, r0 ch1, r1 ch0, ...).
    """
    f_top = effective_f_max(f_max, clip.sample_rate)
    planes = []
    for window_len, fft_size in resolutions:
        bank = dsp.mel_filterbank(n_mels, fft_size, clip.sample_rate, f_min, f_top)
        for samples in clip.samples:
            spectra = dsp.stft(samples, window_len, fft_size, hop)
            planes.append(dsp.log_mel_energies(dsp.power_spectrum(spectra), bank))
    return np.stack(planes, axis=2)


def _mel(
    clip: AudioClip, hop: int, window_ms: float = 40.0, fft_size: int = 2048, **mel_kwargs
) -> np.ndarray:
    window_len = _samples(window_ms, clip.sample_rate)
    return _log_mel(clip, hop, ((window_len, fft_size),), **mel_kwargs)


def _multires_mel(
    clip: AudioClip, hop: int, multires_windows: Sequence[int] = MULTIRES_WINDOWS, **mel_kwargs
) -> np.ndarray:
    # each window is analyzed with an FFT of its own size
    return _log_mel(clip, hop, tuple((w, w) for w in multires_windows), **mel_kwargs)


def _magnitude_phase(
    clip: AudioClip,
    hop: int,
    window_ms: float = 40.0,
    fft_size: int = 2048,
    fft_log_magnitude: bool = False,
) -> np.ndarray:
    """Per-channel STFT magnitude and phase, (F, fft_size//2, 4).

    The DC bin is dropped so a 2048-point transform yields exactly 1024 bins;
    channel order is (mag L, mag R, phase L, phase R), phase in (-pi, pi].
    ``fft_log_magnitude`` switches the magnitude planes to log scale.
    """
    window_len = _samples(window_ms, clip.sample_rate)
    mags, phases = [], []
    for samples in clip.samples:
        spectra = dsp.stft(samples, window_len, fft_size, hop)[:, 1:]
        mag = np.abs(spectra)
        if fft_log_magnitude:
            mag = np.log(np.maximum(mag, dsp.LOG_FLOOR))
        phase = np.angle(spectra)
        mags.append(mag)
        phases.append(np.where(phase <= -np.pi, np.pi, phase))
    return np.stack(mags + phases, axis=2)


class FeatureClass(NamedTuple):
    """Everything the program knows about one feature class."""

    input_channels: int  # audio channels analyzed; a mono class downmixes stereo
    channels: int  # output channels at the FeatureConfig defaults
    extractor: Callable[..., np.ndarray]  # (clip, hop in samples, **kwargs) -> (F, B, Ch)
    config_fields: tuple[str, ...]  # FeatureConfig fields, passed by name to extract
    bins: Callable[[Any], int]  # bin count for a FeatureConfig
    channel_step: int = 0  # nonzero: any positive multiple is a valid channel count


_MEL_FIELDS = ("hop_ms", "n_mels", "f_min", "f_max")

# Archive class ids are positions in this table counted from 1: append only.
FEATURE_TABLE = {
    "mbe": FeatureClass(
        1, 1, _mel, _MEL_FIELDS + ("window_ms", "fft_size"), attrgetter("n_mels")
    ),
    "bin-mbe": FeatureClass(
        2, 2, _mel, _MEL_FIELDS + ("window_ms", "fft_size"), attrgetter("n_mels")
    ),
    "bin-mul-mbe": FeatureClass(
        2, 2 * len(MULTIRES_WINDOWS), _multires_mel, _MEL_FIELDS + ("multires_windows",),
        attrgetter("n_mels"), channel_step=2,
    ),
    "bin-fft": FeatureClass(
        2, 4, _magnitude_phase, ("hop_ms", "window_ms", "fft_size", "fft_log_magnitude"),
        lambda cfg: cfg.fft_size // 2,
    ),
}
FEATURE_CLASSES = tuple(FEATURE_TABLE)
_CLASS_IDS = {name: i + 1 for i, name in enumerate(FEATURE_CLASSES)}
_CLASS_FROM_ID = {i: name for name, i in _CLASS_IDS.items()}


def feature_spec(feature_class: str) -> FeatureClass:
    """The table entry of ``feature_class``; unknown names are a ConfigError."""
    if feature_class not in FEATURE_TABLE:
        raise ConfigError(f"unknown feature class {feature_class!r}")
    return FEATURE_TABLE[feature_class]


def extract(clip: AudioClip, feature_class: str, **kwargs) -> FeatureTensor:
    """Extract one feature class; ``kwargs`` are the class's config fields.

    Stereo input to a mono class (``mbe``) is downmixed with a log line
    rather than rejected, matching how mono experiments run on a binaural
    corpus.
    """
    spec = feature_spec(feature_class)
    if clip.n_channels != spec.input_channels:
        if spec.input_channels != 1:
            raise ChannelError(
                f"{feature_class} needs stereo input, got {clip.n_channels} channel(s)"
            )
        log.info("%s on stereo input: averaging channels to mono", feature_class)
        clip = to_mono(clip)
    hop_ms = kwargs.pop("hop_ms", 20.0)
    data = spec.extractor(clip, _samples(hop_ms, clip.sample_rate), **kwargs)
    return FeatureTensor(data=data, feature_class=feature_class, hop_seconds=hop_ms / 1000.0)


@dataclass(frozen=True)
class Normalizer:
    """Per (bin, channel) standardization statistics fit on training data."""

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        if self.mean.shape != self.std.shape:
            raise ShapeError("mean and std must share a shape")
        if np.any(self.std <= 0):
            raise ShapeError("std entries must be strictly positive")


def fit_normalizer(tensors: Sequence[FeatureTensor]) -> Normalizer:
    if not tensors:
        raise StateError("cannot fit a normalizer on an empty training set")
    stacked = np.concatenate([t.data for t in tensors], axis=0)
    if stacked.shape[0] == 0:
        raise StateError("cannot fit a normalizer on zero frames")
    mean = stacked.mean(axis=0)
    std = np.maximum(stacked.std(axis=0), _STD_FLOOR)
    return Normalizer(mean=mean, std=std)


def apply_normalizer(norm: Normalizer, tensor: FeatureTensor) -> FeatureTensor:
    if norm.mean.shape != tensor.data.shape[1:]:
        raise ShapeError(
            f"normalizer shape {norm.mean.shape} does not match tensor bins/channels "
            f"{tensor.data.shape[1:]}"
        )
    return FeatureTensor(
        data=(tensor.data - norm.mean) / norm.std,
        feature_class=tensor.feature_class,
        hop_seconds=tensor.hop_seconds,
    )


@dataclass(frozen=True)
class SequenceBatch:
    """Fixed-length training sequences with frame-validity masks.

    ``inputs`` is (n, T, B, Ch), ``targets`` (n, T, C) and ``mask`` (n, T);
    masked-off frames are zero padding excluded from loss and metrics.
    """

    inputs: np.ndarray
    targets: np.ndarray
    mask: np.ndarray

    def __post_init__(self):
        if self.inputs.ndim != 4 or self.targets.ndim != 3 or self.mask.ndim != 2:
            raise ShapeError("SequenceBatch arrays have wrong ranks")
        if not (
            self.inputs.shape[0] == self.targets.shape[0] == self.mask.shape[0]
            and self.inputs.shape[1] == self.targets.shape[1] == self.mask.shape[1]
        ):
            raise ShapeError("SequenceBatch arrays disagree on (n, T)")

    @property
    def n_sequences(self) -> int:
        return self.inputs.shape[0]

    @property
    def seq_len(self) -> int:
        return self.inputs.shape[1]

    def valid_frames(self) -> tuple[np.ndarray, np.ndarray]:
        """Concatenated (features, targets) of real frames, chunk order."""
        m = self.mask.astype(bool)
        return self.inputs[m], self.targets[m]

    @staticmethod
    def concat(batches: Sequence["SequenceBatch"]) -> "SequenceBatch":
        batches = [b for b in batches if b.n_sequences]
        if not batches:
            raise StateError("no sequences to concatenate")
        return SequenceBatch(
            inputs=np.concatenate([b.inputs for b in batches], axis=0),
            targets=np.concatenate([b.targets for b in batches], axis=0),
            mask=np.concatenate([b.mask for b in batches], axis=0),
        )


def chunk_sequences(tensor, roll: EventRoll, seq_len: int) -> SequenceBatch:
    """Split a clip into non-overlapping length-``seq_len`` sequences.

    The final partial window is zero padded on both features and targets
    and flagged invalid in the mask. ``tensor`` may be a FeatureTensor or a
    plain (F, B, Ch) array (the baseline's context windows use the latter).
    """
    data = tensor.data if isinstance(tensor, FeatureTensor) else np.asarray(tensor)
    if seq_len < 1:
        raise RangeError(f"sequence length must be >= 1, got {seq_len}")
    if data.ndim != 3:
        raise ShapeError(f"expected (F, B, Ch) features, got shape {data.shape}")
    if data.shape[0] != roll.n_frames:
        raise ShapeError(
            f"features have {data.shape[0]} frames but the roll has {roll.n_frames}"
        )
    f, b, ch = data.shape
    c = roll.n_classes
    n_seq = -(-f // seq_len)
    inputs = np.zeros((n_seq, seq_len, b, ch))
    targets = np.zeros((n_seq, seq_len, c))
    mask = np.zeros((n_seq, seq_len), dtype=bool)
    for s in range(n_seq):
        lo = s * seq_len
        hi = min(f, lo + seq_len)
        inputs[s, : hi - lo] = data[lo:hi]
        targets[s, : hi - lo] = roll.activity[lo:hi]
        mask[s, : hi - lo] = True
    return SequenceBatch(inputs=inputs, targets=targets, mask=mask)


def save_feature_archive(tensor: FeatureTensor, path) -> None:
    """Write the versioned binary archive: magic, header, float32 payload in
    frame-major order."""
    f, b, ch = tensor.data.shape
    header = struct.pack(
        "<4sHHIIId",
        _ARCHIVE_MAGIC,
        _ARCHIVE_VERSION,
        _CLASS_IDS[tensor.feature_class],
        f,
        b,
        ch,
        tensor.hop_seconds,
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(tensor.data, dtype="<f4").tobytes())


def load_feature_archive(path) -> FeatureTensor:
    raw = Path(path).read_bytes()
    head_size = struct.calcsize("<4sHHIIId")
    if len(raw) < head_size or raw[:4] != _ARCHIVE_MAGIC:
        raise StateError(f"{path}: not a feature archive")
    magic, version, class_id, f, b, ch, hop = struct.unpack("<4sHHIIId", raw[:head_size])
    if version != _ARCHIVE_VERSION:
        raise StateError(f"{path}: unsupported archive version {version}")
    if class_id not in _CLASS_FROM_ID:
        raise StateError(f"{path}: unknown feature class id {class_id}")
    payload = np.frombuffer(raw, dtype="<f4", offset=head_size)
    if payload.size != f * b * ch:
        raise StateError(f"{path}: payload size does not match header")
    data = payload.reshape(f, b, ch).astype(np.float64)
    return FeatureTensor(data=data, feature_class=_CLASS_FROM_ID[class_id], hop_seconds=hop)
