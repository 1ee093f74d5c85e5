"""Shared DSP kernels: window functions, STFT and mel filterbanks.

Everything runs in double precision on plain numpy arrays. The STFT is
``numpy.fft.rfft`` restricted to power-of-two sizes, which is all the
feature extractors need.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import RangeError, ShapeError

# floor applied inside the log of log-mel energies; well below any energy
# the synthetic material produces, so only true silence hits it
LOG_FLOOR = 1e-10


@lru_cache(maxsize=None)
def hamming_window(n: int) -> np.ndarray:
    """Symmetric Hamming window ``w[k] = 0.54 - 0.46*cos(2*pi*k/(n-1))``.

    ``n == 1`` degenerates to the single constant term ``[0.54]``. Each
    length is computed once and shared as a read-only array, since the STFT
    asks for it once per block of frames.
    """
    if n < 1:
        raise RangeError(f"window length must be >= 1, got {n}")
    w = np.array([0.54]) if n == 1 else 0.54 - 0.46 * np.cos(2.0 * np.pi * np.arange(n) / (n - 1))
    w.flags.writeable = False
    return w


def is_power_of_two(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


def frame_count(n_samples: int, hop: int) -> int:
    """Frames ``F = ceil(n_samples/hop)`` of a centered framing."""
    return -(-n_samples // hop)


def stft(
    samples,
    window_len: int,
    fft_size: int,
    hop: int,
    start: int = 0,
    stop: int | None = None,
    out: np.ndarray | None = None,
    work: np.ndarray | None = None,
) -> np.ndarray:
    """Short-time Fourier transform with centered frames.

    Frame ``f`` covers ``window_len`` samples centered at ``f*hop`` (the
    signal is zero padded at both edges), so the frame count
    ``F = ceil(len(samples)/hop)`` depends only on the signal length and the
    hop, never on the window or FFT size. Each frame is multiplied by a
    Hamming window, zero padded up to ``fft_size`` and transformed.

    Only frames ``[start, stop)`` of that framing are transformed, and only
    their sample span is padded; ``stop`` defaults to and clamps at ``F``,
    as a slice does. A range's rows equal the same rows of the whole
    transform bitwise. A negative ``start`` or a ``stop`` below ``start``
    raises :class:`RangeError`.

    Returns the one-sided bins as a ``(min(stop, F) - start, fft_size//2 + 1)``
    complex array, no rows when ``start >= F``. A caller that transforms
    many ranges can pass flat buffers to reuse: the bins are then written to
    the front of the complex128 ``out`` and returned as a view of it, and
    the windowed frames to the front of the float64 ``work``.
    """
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim != 1:
        raise ShapeError(f"stft expects a 1-D sample array, got shape {x.shape}")
    if not is_power_of_two(fft_size):
        raise RangeError(f"fft_size must be a power of two, got {fft_size}")
    if fft_size < window_len:
        raise RangeError(f"fft_size {fft_size} is smaller than window_len {window_len}")
    if window_len < 1:
        raise RangeError(f"window_len must be >= 1, got {window_len}")
    if hop < 1:
        raise RangeError(f"hop must be >= 1, got {hop}")
    if start < 0 or (stop is not None and stop < start):
        raise RangeError(f"frame range [{start}, {stop}) is not a range of frames")

    n = x.size
    n_frames = frame_count(n, hop)
    stop = n_frames if stop is None else min(stop, n_frames)
    if start >= stop:
        return np.zeros((0, fft_size // 2 + 1), dtype=np.complex128)

    # samples [lo, hi) of the zero-extended signal hold frames [start, stop);
    # only a range that reaches past either end of the signal is copied
    lo = start * hop - window_len // 2
    hi = (stop - 1) * hop - window_len // 2 + window_len
    if 0 <= lo and hi <= n:
        padded = x[lo:hi]
    else:
        padded = np.concatenate((np.zeros(max(0, -lo)), x[max(0, lo) : hi], np.zeros(max(0, hi - n))))

    frames = np.lib.stride_tricks.sliding_window_view(padded, window_len)[::hop]
    rows = stop - start
    if work is not None:
        work = work[: rows * window_len].reshape(rows, window_len)
    if out is not None:
        out = out[: rows * (fft_size // 2 + 1)].reshape(rows, fft_size // 2 + 1)
    windowed = np.multiply(frames, hamming_window(window_len), out=work)
    return np.fft.rfft(windowed, n=fft_size, axis=1, out=out)


def power_spectrum(spectra) -> np.ndarray:
    """Squared magnitude of (frames of) one-sided spectra."""
    s = np.asarray(spectra)
    return s.real**2 + s.imag**2


def mel_from_hz(f):
    """HTK mel scale: ``mel(f) = 2595 * log10(1 + f/700)``."""
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


@dataclass(frozen=True)
class MelFilterbank:
    """Triangular mel filterbank weights over one-sided FFT bins.

    ``weights`` has shape ``(n_mels, fft_size//2 + 1)``; every row peaks at
    1.0 and is zero outside its triangle.
    """

    weights: np.ndarray

    @property
    def n_bins(self) -> int:
        return self.weights.shape[1]


def mel_filterbank(
    n_mels: int,
    fft_size: int,
    sample_rate: int,
    f_min: float,
    f_max: float,
) -> MelFilterbank:
    """Build ``n_mels`` triangular filters with unit peak weight.

    Filter corner points sit at ``n_mels + 2`` frequencies equally spaced on
    the mel scale between ``f_min`` and ``f_max``, so adjacent filters cross
    at half the mel spacing.
    """
    nyquist = sample_rate / 2.0
    if n_mels < 1:
        raise RangeError(f"n_mels must be >= 1, got {n_mels}")
    if not 0.0 <= f_min < f_max:
        raise RangeError(f"need 0 <= f_min < f_max, got f_min={f_min}, f_max={f_max}")
    if f_max > nyquist:
        raise RangeError(f"f_max {f_max} Hz exceeds Nyquist {nyquist} Hz")
    if not is_power_of_two(fft_size):
        raise RangeError(f"fft_size must be a power of two, got {fft_size}")

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
    return MelFilterbank(weights=weights)


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
