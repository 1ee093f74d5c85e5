"""Shared DSP kernels: window functions, FFT, STFT and mel filterbanks.

Everything runs in double precision on plain numpy arrays. Transforms are
``numpy.fft`` restricted to power-of-two sizes, which is all the feature
extractors need.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import RangeError, ShapeError, SizeError

# floor applied inside the log of log-mel energies; well below any energy
# the synthetic material produces, so only true silence hits it
LOG_FLOOR = 1e-10


def hamming_window(n: int) -> np.ndarray:
    """Symmetric Hamming window ``w[k] = 0.54 - 0.46*cos(2*pi*k/(n-1))``.

    ``n == 1`` degenerates to the single constant term ``[0.54]``.
    """
    if n < 1:
        raise RangeError(f"window length must be >= 1, got {n}")
    if n == 1:
        return np.array([0.54])
    k = np.arange(n)
    return 0.54 - 0.46 * np.cos(2.0 * np.pi * k / (n - 1))


def is_power_of_two(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


def fft(x, inverse: bool = False) -> np.ndarray:
    """FFT over the last axis, restricted to power-of-two lengths.

    Forward: ``X[k] = sum_n x[n] * exp(-2j*pi*n*k/N)``. The inverse applies
    the conjugate kernel and scales by ``1/N``. Any other length raises
    :class:`SizeError`.
    """
    a = np.asarray(x, dtype=np.complex128)
    if not is_power_of_two(a.shape[-1]):
        raise SizeError(f"FFT length must be a power of two, got {a.shape[-1]}")
    return np.fft.ifft(a) if inverse else np.fft.fft(a)


def ifft(x) -> np.ndarray:
    return fft(x, inverse=True)


def stft(samples, window_len: int, fft_size: int, hop: int) -> np.ndarray:
    """Short-time Fourier transform with centered frames.

    Frame ``f`` covers ``window_len`` samples centered at ``f*hop`` (the
    signal is zero padded at both edges), so the frame count
    ``ceil(len(samples)/hop)`` depends only on the signal length and the
    hop, never on the window or FFT size. Each frame is multiplied by a
    Hamming window, zero padded up to ``fft_size`` and transformed.

    Returns the one-sided bins as an ``(F, fft_size//2 + 1)`` complex array.
    """
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim != 1:
        raise ShapeError(f"stft expects a 1-D sample array, got shape {x.shape}")
    if not is_power_of_two(fft_size):
        raise SizeError(f"fft_size must be a power of two, got {fft_size}")
    if fft_size < window_len:
        raise RangeError(f"fft_size {fft_size} is smaller than window_len {window_len}")
    if window_len < 1:
        raise RangeError(f"window_len must be >= 1, got {window_len}")
    if hop < 1:
        raise RangeError(f"hop must be >= 1, got {hop}")

    n = x.size
    n_bins = fft_size // 2 + 1
    if n == 0:
        return np.zeros((0, n_bins), dtype=np.complex128)

    n_frames = -(-n // hop)
    left = window_len // 2
    last_end = (n_frames - 1) * hop - left + window_len
    right = max(0, last_end - n)
    padded = np.concatenate((np.zeros(left), x, np.zeros(right)))

    frames = np.lib.stride_tricks.sliding_window_view(padded, window_len)[::hop][:n_frames]
    return np.fft.rfft(frames * hamming_window(window_len), n=fft_size, axis=1)


def power_spectrum(spectra) -> np.ndarray:
    """Squared magnitude of (frames of) one-sided spectra."""
    s = np.asarray(spectra)
    return s.real**2 + s.imag**2


def mel_from_hz(f):
    """HTK mel scale: ``mel(f) = 2595 * log10(1 + f/700)``."""
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def hz_from_mel(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


@dataclass(frozen=True)
class MelFilterbank:
    """Triangular mel filterbank weights over one-sided FFT bins.

    ``weights`` has shape ``(n_mels, fft_size//2 + 1)``; every row peaks at
    1.0 and is zero outside its triangle.
    """

    weights: np.ndarray
    sample_rate: int
    f_min: float
    f_max: float

    @property
    def n_mels(self) -> int:
        return self.weights.shape[0]

    @property
    def n_bins(self) -> int:
        return self.weights.shape[1]


def mel_filterbank(
    n_mels: int,
    fft_size: int,
    sample_rate: int,
    f_min: float = 0.0,
    f_max: float | None = None,
) -> MelFilterbank:
    """Build ``n_mels`` triangular filters with unit peak weight.

    Filter corner points sit at ``n_mels + 2`` frequencies equally spaced on
    the mel scale between ``f_min`` and ``f_max``, so adjacent filters cross
    at half the mel spacing.
    """
    nyquist = sample_rate / 2.0
    if f_max is None:
        f_max = nyquist
    if n_mels < 1:
        raise RangeError(f"n_mels must be >= 1, got {n_mels}")
    if not 0.0 <= f_min < f_max:
        raise RangeError(f"need 0 <= f_min < f_max, got f_min={f_min}, f_max={f_max}")
    if f_max > nyquist:
        raise RangeError(f"f_max {f_max} Hz exceeds Nyquist {nyquist} Hz")
    if not is_power_of_two(fft_size):
        raise SizeError(f"fft_size must be a power of two, got {fft_size}")

    n_bins = fft_size // 2 + 1
    mel_pts = np.linspace(mel_from_hz(f_min), mel_from_hz(f_max), n_mels + 2)
    bin_mels = mel_from_hz(np.arange(n_bins) * sample_rate / fft_size)

    lower = mel_pts[:-2][:, None]
    centre = mel_pts[1:-1][:, None]
    upper = mel_pts[2:][:, None]
    rising = (bin_mels - lower) / (centre - lower)
    falling = (upper - bin_mels) / (upper - centre)
    weights = np.maximum(0.0, np.minimum(rising, falling))

    if not np.all((weights > 0).any(axis=1)):
        raise RangeError(
            f"FFT resolution too coarse: some of the {n_mels} filters cover no bin "
            f"(fft_size={fft_size}, sample_rate={sample_rate})"
        )
    return MelFilterbank(
        weights=weights, sample_rate=int(sample_rate), f_min=float(f_min), f_max=float(f_max)
    )


def log_mel_energies(power_frames, bank: MelFilterbank) -> np.ndarray:
    """Log of filterbank-summed power, floored at ``LOG_FLOOR``.

    ``power_frames`` is ``(F, n_bins)``; the result is ``(F, n_mels)`` with
    ``out[f, m] = ln(max(sum_k weights[m, k] * P[f, k], LOG_FLOOR))``.
    """
    p = np.asarray(power_frames, dtype=np.float64)
    if p.ndim != 2:
        raise ShapeError(f"power_frames must be 2-D (frames, bins), got shape {p.shape}")
    if p.shape[1] != bank.n_bins:
        raise ShapeError(
            f"power frames have {p.shape[1]} bins but the filterbank expects {bank.n_bins}"
        )
    return np.log(np.maximum(p @ bank.weights.T, LOG_FLOOR))
