"""The four feature classes and training-sequence assembly.

All extractors share one hop and centered framing, so one clip yields the
same frame count F whatever the analysis window; at the defaults:

  mbe          mono log mel energies                  (F, 40, 1)
  bin-mbe      per-channel log mel energies           (F, 40, 2)
  bin-mul-mbe  per-channel, windows 1024/4096/16384   (F, 40, 6)
  bin-fft      per-channel STFT magnitude and phase   (F, 1024, 4)

Every extractor splits a clip's ``_BLOCK_FRAMES`` blocks of frames into one
contiguous group per core, and runs each group, at every resolution and on
every channel, on a thread of its own that lives for one extraction (see
:mod:`sedpipe.cores`). A group transforms its frames through ``dsp.stft`` in
blocks of at most ``_BLOCK_FRAMES`` frames and its share of ``_BLOCK_BYTES``
of frame samples, into buffers that the calling thread allocates, and
reduces each block straight into the preallocated (F, B, Ch) output, so no
array holds the spectra of a whole clip. Every output element comes from
the same operations whatever group holds it, so the features do not depend
on the number of cores.
"""

from __future__ import annotations

import logging
import warnings
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import cores, dsp
from .audio_io import AudioClip, EventRoll, read_arrays, to_mono, write_arrays
from .errors import ChannelError, ConfigError, RangeError, ShapeError, StateError

log = logging.getLogger(__name__)

_STD_FLOOR = 1e-8
# Frames per STFT block, and per mel product. bin-mul-mbe extraction time is
# flat from 32 to 64 frames and rises on either side; 64-row mel products
# also stay clear of the small-product kernel OpenBLAS uses up to 30 rows at
# 40 mels, which rounds differently.
_BLOCK_FRAMES = 64
# Bytes of float64 frame samples in the STFT blocks of one extraction,
# shared equally by its jobs: alone, a job takes 64 frames up to 4096
# points and 16 at 16384, two take half that each, so the windowed frames
# and the spectra of all jobs' blocks take at most 2 MiB each, which keeps
# extraction's heap small. The mel product still runs over 64 rows.
_BLOCK_BYTES = 2 * 2**20


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
        # a NaN or an infinity shows up in the minimum or the maximum, so no
        # full-size temporary is needed to find one
        if d.size and not (np.isfinite(d.min()) and np.isfinite(d.max())):
            raise ShapeError("feature data contains non-finite values")
        if not 0 < self.hop_seconds < np.inf:
            raise RangeError(f"hop_seconds must be positive and finite, got {self.hop_seconds}")
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


class _Buffers(NamedTuple):
    """One job's flat buffers, sized for its largest resolution."""

    work: np.ndarray  # windowed frames of one STFT block, float64
    spectra: np.ndarray  # their one-sided spectra, complex128
    power: np.ndarray  # power spectra of one mel block at full height, float64


def _stft_rows(fft_size: int, n_jobs: int) -> int:
    """Frames per STFT block: at most ``_BLOCK_FRAMES``, and at most a
    1/``n_jobs`` share of ``_BLOCK_BYTES`` of frame samples."""
    return max(1, min(_BLOCK_FRAMES, _BLOCK_BYTES // n_jobs // (8 * fft_size)))


def _jobs(n_frames: int, resolutions: Sequence[tuple[int, int]], mel: bool) -> list:
    """The clip's ``_BLOCK_FRAMES`` blocks in one contiguous group of frames
    per core (one empty group for an empty clip), each with the buffers its
    blocks are written to at every (window length, FFT size) resolution.
    The buffers are allocated here, on the calling thread (see
    :func:`sedpipe.cores.run`); a mel job's power buffer is zeroed, since
    the rows of a short last block past the clip enter its mel product."""
    n_blocks = -(-n_frames // _BLOCK_FRAMES)
    groups = cores.split(n_blocks, max(1, min(n_blocks, cores.count())))
    rows = {fft_size: _stft_rows(fft_size, len(groups)) for _, fft_size in resolutions}
    work = max(rows[fft_size] * window_len for window_len, fft_size in resolutions)
    bins = max(fft_size // 2 + 1 for fft_size in rows)
    spectra = max(n * (fft_size // 2 + 1) for fft_size, n in rows.items())
    power = min(n_frames, _BLOCK_FRAMES) * bins if mel else 0
    return [
        (
            slice(g.start * _BLOCK_FRAMES, min(g.stop * _BLOCK_FRAMES, n_frames)),
            _Buffers(np.empty(work), np.empty(spectra, dtype=np.complex128), np.zeros(power)),
        )
        for g in groups
    ]


def _stft_blocks(samples, window_len: int, fft_size: int, hop: int, frames: slice, n_jobs: int, buffers):
    """``(rows, spectra)`` for consecutive STFT blocks of ``frames`` of one
    channel, each of at most ``_stft_rows`` frames and written to
    ``buffers``; ``rows`` slices the frame axis."""
    step = _stft_rows(fft_size, n_jobs)
    for lo in range(frames.start, frames.stop, step):
        rows = slice(lo, min(lo + step, frames.stop))
        yield rows, dsp.stft(
            samples, window_len, fft_size, hop, rows.start, rows.stop, out=buffers.spectra, work=buffers.work
        )


def _log_mel(
    clip: AudioClip, hop: int, cfg: FeatureConfig, resolutions: Sequence[tuple[int, int]]
) -> np.ndarray:
    """Per-channel log mel energies at each (window length, FFT size)
    resolution, (F, n_mels, n_channels * len(resolutions)).

    The channel axis is resolution-major: (r0 ch0, r0 ch1, r1 ch0, ...).
    """
    f_top = effective_f_max(cfg.f_max, clip.sample_rate)
    banks = [dsp.mel_filterbank(cfg.n_mels, n, clip.sample_rate, cfg.f_min, f_top) for _, n in resolutions]
    n_ch = clip.n_channels
    n_frames = dsp.frame_count(clip.n_samples, hop)
    height = min(n_frames, _BLOCK_FRAMES)
    out = np.empty((n_frames, cfg.n_mels, n_ch * len(resolutions)))
    jobs = _jobs(n_frames, resolutions, mel=True)

    def job(task):
        frames, buffers = task
        for r, ((window_len, fft_size), bank) in enumerate(zip(resolutions, banks)):
            # a short last block is projected at the full block height, so
            # every frame's mel sums come from the same BLAS kernel as in a
            # whole-clip product: OpenBLAS rounds small products differently
            power = buffers.power[: height * bank.n_bins].reshape(height, bank.n_bins)
            for ch, samples in enumerate(clip.samples):
                for start in range(frames.start, frames.stop, _BLOCK_FRAMES):
                    block = slice(start, min(start + _BLOCK_FRAMES, frames.stop))
                    blocks = _stft_blocks(samples, window_len, fft_size, hop, block, len(jobs), buffers)
                    for rows, spectra in blocks:
                        # |z|^2 as re*re + im*im, squared in the spectra's
                        # own buffer
                        parts = spectra.view(np.float64)
                        np.square(parts, out=parts)
                        lo, hi = rows.start - start, rows.stop - start
                        np.add(parts[:, 0::2], parts[:, 1::2], out=power[lo:hi])
                    out[block, :, r * n_ch + ch] = dsp.log_mel_energies(power, bank)[: block.stop - start]

    cores.run(job, jobs)
    return out


def _mel(clip: AudioClip, hop: int, cfg: FeatureConfig) -> np.ndarray:
    window_len = _samples(cfg.window_ms, clip.sample_rate)
    return _log_mel(clip, hop, cfg, ((window_len, cfg.fft_size),))


def _multires_mel(clip: AudioClip, hop: int, cfg: FeatureConfig) -> np.ndarray:
    # each window is analyzed with an FFT of its own size
    return _log_mel(clip, hop, cfg, tuple((w, w) for w in cfg.multires_windows))


def _magnitude_phase(clip: AudioClip, hop: int, cfg: FeatureConfig) -> np.ndarray:
    """Per-channel STFT magnitude and phase, (F, fft_size//2, 4).

    The DC bin is dropped so a 2048-point transform yields exactly 1024 bins;
    channel order is (mag L, mag R, phase L, phase R), phase in (-pi, pi].
    ``fft_log_magnitude`` switches the magnitude planes to log scale.
    """
    window_len = _samples(cfg.window_ms, clip.sample_rate)
    n_frames = dsp.frame_count(clip.n_samples, hop)
    out = np.empty((n_frames, cfg.fft_size // 2, 4))
    jobs = _jobs(n_frames, ((window_len, cfg.fft_size),), mel=False)

    def job(task):
        frames, buffers = task
        for ch, samples in enumerate(clip.samples):
            blocks = _stft_blocks(samples, window_len, cfg.fft_size, hop, frames, len(jobs), buffers)
            for rows, spectra in blocks:
                spectra = spectra[:, 1:]
                mag = out[rows, :, ch]
                np.abs(spectra, out=mag)
                if cfg.fft_log_magnitude:
                    np.log(np.maximum(mag, dsp.LOG_FLOOR, out=mag), out=mag)
                phase = out[rows, :, 2 + ch]
                np.arctan2(spectra.imag, spectra.real, out=phase)
                phase[phase <= -np.pi] = np.pi

    cores.run(job, jobs)
    return out


class FeatureClass(NamedTuple):
    """Everything the program knows about one feature class."""

    input_channels: int  # audio channels analyzed; a mono class downmixes stereo
    channels: int  # output channels at the FeatureConfig defaults
    extractor: Callable[[AudioClip, int, FeatureConfig], np.ndarray]  # hop in samples -> (F, B, Ch)
    channel_step: int = 0  # nonzero: any positive multiple is a valid channel count


@dataclass(frozen=True)
class FeatureConfig:
    """The ``[features]`` section. Each extractor reads the fields it needs
    from it; a field the class does not read is ignored."""

    feature_class: str = "mbe"
    n_mels: int = 40
    f_min: float = 0.0
    f_max: float = 22050.0
    window_ms: float = 40.0
    hop_ms: float = 20.0
    fft_size: int = 2048
    multires_windows: tuple[int, ...] = (1024, 4096, 16384)
    fft_log_magnitude: bool = False
    archive_dir: str = ""  # feature cache; empty: features/ beside the manifest

    def __post_init__(self):
        """Raise ConfigError for an unknown class or no multires window,
        RangeError for a bad value."""
        feature_spec(self.feature_class)
        if not self.multires_windows:
            raise ConfigError("multires_windows must name at least one window")
        if self.n_mels < 1:
            raise RangeError(f"n_mels must be >= 1, got {self.n_mels}")
        for key in ("hop_ms", "window_ms"):
            if getattr(self, key) <= 0:
                raise RangeError(f"{key} must be positive, got {getattr(self, key)}")
        if not dsp.is_power_of_two(self.fft_size):
            raise RangeError(f"fft_size must be a power of two, got {self.fft_size}")
        if not all(dsp.is_power_of_two(w) for w in self.multires_windows):
            raise RangeError(f"multires_windows must be powers of two, got {self.multires_windows}")
        if self.f_min < 0:
            raise RangeError(f"f_min must be >= 0, got {self.f_min}")
        if self.f_max <= self.f_min:
            raise RangeError(f"f_max must be above f_min ({self.f_min}), got {self.f_max}")


FEATURE_TABLE = {
    "mbe": FeatureClass(1, 1, _mel),
    "bin-mbe": FeatureClass(2, 2, _mel),
    "bin-mul-mbe": FeatureClass(2, 2 * len(FeatureConfig.multires_windows), _multires_mel, channel_step=2),
    "bin-fft": FeatureClass(2, 4, _magnitude_phase),
}
FEATURE_CLASSES = tuple(FEATURE_TABLE)


def feature_spec(feature_class: str) -> FeatureClass:
    """The table entry of ``feature_class``; unknown names are a ConfigError."""
    if feature_class not in FEATURE_TABLE:
        raise ConfigError(f"unknown feature class {feature_class!r}")
    return FEATURE_TABLE[feature_class]


def extract(clip: AudioClip, feature_class: str, **settings) -> FeatureTensor:
    """Extract one feature class; ``settings`` are FeatureConfig fields,
    defaulted and checked there.

    Stereo input to a mono class (``mbe``) is downmixed with a log line
    rather than rejected, matching how mono experiments run on a binaural
    corpus.
    """
    cfg = FeatureConfig(feature_class=feature_class, **settings)
    spec = FEATURE_TABLE[feature_class]
    if clip.n_channels != spec.input_channels:
        if spec.input_channels != 1:
            raise ChannelError(
                f"{feature_class} needs stereo input, got {clip.n_channels} channel(s)"
            )
        log.info("%s on stereo input: averaging channels to mono", feature_class)
        clip = to_mono(clip)
    data = spec.extractor(clip, _samples(cfg.hop_ms, clip.sample_rate), cfg)
    return FeatureTensor(data=data, feature_class=feature_class, hop_seconds=cfg.hop_ms / 1000.0)


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


def fit_normalizer(arrays: Sequence[np.ndarray]) -> Normalizer:
    """Statistics of the (F, B, Ch) ``arrays`` of a train split."""
    if not arrays:
        raise StateError("cannot fit a normalizer on an empty training set")
    # float64 statistics whatever the arrays' dtype (a float32 mean sums in float32)
    stacked = np.concatenate(arrays, axis=0, dtype=np.float64)
    if stacked.shape[0] == 0:
        raise StateError("cannot fit a normalizer on zero frames")
    mean = stacked.mean(axis=0)
    # np.std's own steps, run in place on the concatenation instead of a copy
    stacked -= mean
    np.square(stacked, out=stacked)
    std = np.maximum(np.sqrt(stacked.sum(axis=0) / stacked.shape[0]), _STD_FLOOR)
    return Normalizer(mean=mean, std=std)


@dataclass(frozen=True)
class SequenceBatch:
    """Fixed-length sequences of one or more clips, with frame-validity masks.

    ``inputs`` is (n, T, B, Ch), ``targets`` (n, T, C) and ``mask`` (n, T);
    masked-off frames are zero padding excluded from loss and metrics. The
    sequences run clip after clip, ``clip_sequences`` holding each clip's
    count, and every clip shares the frame hop and class names of its roll.
    """

    inputs: np.ndarray
    targets: np.ndarray
    mask: np.ndarray
    clip_sequences: tuple[int, ...]
    hop_seconds: float
    class_names: tuple[str, ...]

    def __post_init__(self):
        if self.inputs.ndim != 4 or self.targets.ndim != 3 or self.mask.ndim != 2:
            raise ShapeError("SequenceBatch arrays have wrong ranks")
        if not (
            self.inputs.shape[0] == self.targets.shape[0] == self.mask.shape[0]
            and self.inputs.shape[1] == self.targets.shape[1] == self.mask.shape[1]
        ):
            raise ShapeError("SequenceBatch arrays disagree on (n, T)")
        if sum(self.clip_sequences) != self.n_sequences:
            raise ShapeError(f"clips hold {sum(self.clip_sequences)} sequences, the batch {self.n_sequences}")

    @property
    def n_sequences(self) -> int:
        return self.inputs.shape[0]


def chunk_sequences(
    clips: Sequence[tuple[np.ndarray, EventRoll]], seq_len: int, normalizer: Normalizer
) -> SequenceBatch:
    """A split's (F, B, Ch) arrays, each with its roll, normalized into one
    batch of non-overlapping length-``seq_len`` sequences, clip after clip.

    Each clip is normalized in one reused float64 buffer against the
    float64 statistics and rounded once into the batch, which takes the
    arrays' dtype. A clip's final partial window is zero padded on features
    and targets and flagged invalid in the mask. Targets are uint8, as the
    rolls, whose hop and class names every clip must share.
    """
    if seq_len < 1:
        raise RangeError(f"sequence length must be >= 1, got {seq_len}")
    if not clips:
        raise StateError("no clips to chunk")
    shape, first = normalizer.mean.shape, clips[0][1]
    for data, roll in clips:
        if data.shape[1:] != shape or data.shape[0] != roll.n_frames:
            raise ShapeError(
                f"features of shape {data.shape} do not fit the roll's {roll.n_frames} frames "
                f"and the normalizer's bins/channels {shape}"
            )
        if (roll.hop_seconds, roll.class_names) != (first.hop_seconds, first.class_names):
            raise ShapeError("clips differ in frame hop or class names")
    frames = [data.shape[0] for data, _ in clips]
    counts = tuple(-(-f // seq_len) for f in frames)
    n_seq = sum(counts)
    inputs = np.zeros((n_seq * seq_len, *shape), dtype=np.result_type(*{data.dtype for data, _ in clips}))
    targets = np.zeros((n_seq * seq_len, first.n_classes), dtype=np.uint8)
    mask = np.zeros(n_seq * seq_len, dtype=bool)
    buffer = np.empty((max(frames), *shape))
    start = 0
    for (data, roll), f, count in zip(clips, frames, counts):
        normalized = np.subtract(data, normalizer.mean, out=buffer[:f])
        normalized /= normalizer.std
        inputs[start : start + f] = normalized
        targets[start : start + f] = roll.activity
        mask[start : start + f] = True
        start += count * seq_len
    return SequenceBatch(
        inputs=inputs.reshape(n_seq, seq_len, *shape),
        targets=targets.reshape(n_seq, seq_len, first.n_classes),
        mask=mask.reshape(n_seq, seq_len),
        clip_sequences=counts,
        hop_seconds=first.hop_seconds,
        class_names=first.class_names,
    )


def save_feature_archive(tensor: FeatureTensor, path) -> FeatureTensor:
    """Write the ``.npz`` archive, ``data`` at float32 (F, B, Ch) alone,
    through :func:`~sedpipe.audio_io.write_arrays`; returns the float32
    tensor it wrote. A value beyond float32's range writes nothing."""
    stored = FeatureTensor(tensor.data.astype(np.float32), tensor.feature_class, tensor.hop_seconds)
    write_arrays(path, data=stored.data)
    return stored


def load_feature_archive(path, cfg: FeatureConfig) -> FeatureTensor:
    """The archive's tensor at ``cfg``'s class and hop. Any fault, an older
    format included, is a :class:`StateError` naming the file and the fix."""
    try:
        arrays = read_arrays(path, StateError)
        if list(arrays) != ["data"]:
            raise StateError(f"{path}: holds arrays {sorted(arrays)}, not data alone")
        data = arrays["data"]
        if data.dtype != np.float32:
            raise StateError(f"{path}: data is {data.dtype}, not float32")
        try:
            return FeatureTensor(data, cfg.feature_class, cfg.hop_ms / 1000.0)
        except ShapeError as exc:
            raise StateError(f"{path}: {exc}") from None
    except StateError as exc:
        raise StateError(f"{exc}; re-extract it with `sedpipe extract --force`") from None
