"""Independent brute-force oracles the tests check the library against.

Everything here is written from the definitions, with explicit loops, and
never calls into the code paths it verifies.
"""

from __future__ import annotations

import numpy as np


def direct_dft(x, inverse: bool = False) -> np.ndarray:
    """O(N^2) DFT straight from the sum definition."""
    x = np.asarray(x, dtype=np.complex128)
    n = x.size
    sign = 1.0 if inverse else -1.0
    out = np.empty(n, dtype=np.complex128)
    t = np.arange(n)
    for k in range(n):
        out[k] = np.sum(x * np.exp(sign * 2j * np.pi * k * t / n))
    return out / n if inverse else out


def hamming_by_hand(n: int) -> np.ndarray:
    if n == 1:
        return np.array([0.54])
    return np.array([0.54 - 0.46 * np.cos(2.0 * np.pi * k / (n - 1)) for k in range(n)])


def mel_frame_by_hand(frame, window, fft_size, weights, floor=1e-10) -> np.ndarray:
    """window -> direct DFT -> power -> filterbank dot -> log, all by loops."""
    buf = np.zeros(fft_size)
    w = np.asarray(frame) * np.asarray(window)
    buf[: w.size] = w
    spec = direct_dft(buf)[: fft_size // 2 + 1]
    power = np.abs(spec) ** 2
    n_mels = weights.shape[0]
    out = np.zeros(n_mels)
    for m in range(n_mels):
        acc = 0.0
        for k in range(weights.shape[1]):
            acc += weights[m, k] * power[k]
        out[m] = np.log(max(acc, floor))
    return out


def segments_by_or(activity, frames_per_segment) -> np.ndarray:
    """Per-segment any-frame OR reduction with explicit loops."""
    activity = np.asarray(activity)
    n_frames, n_classes = activity.shape
    n_segments = int(np.ceil(n_frames / frames_per_segment)) if n_frames else 0
    out = np.zeros((n_segments, n_classes), dtype=np.uint8)
    for k in range(n_segments):
        for c in range(n_classes):
            for f in range(k * frames_per_segment, min((k + 1) * frames_per_segment, n_frames)):
                if activity[f, c]:
                    out[k, c] = 1
                    break
    return out


def brute_force_score(ref_segments, pred_segments):
    """Per-segment TP/FP/FN/N and S/D/I from their definitions, then the
    pooled error rate and F-score.

    Returns (per_segment list of 7-tuples, error_rate, f_score). The caller
    must guarantee the reference is non-empty.
    """
    ref_segments = np.asarray(ref_segments)
    pred_segments = np.asarray(pred_segments)
    per_segment = []
    totals = [0, 0, 0, 0, 0, 0, 0]
    for k in range(ref_segments.shape[0]):
        tp = fp = fn = n = 0
        for c in range(ref_segments.shape[1]):
            r = int(ref_segments[k, c])
            p = int(pred_segments[k, c])
            if r and p:
                tp += 1
            if not r and p:
                fp += 1
            if r and not p:
                fn += 1
            if r:
                n += 1
        s = min(fn, fp)
        d = max(0, fn - fp)
        i = max(0, fp - fn)
        entry = (tp, fp, fn, n, s, d, i)
        per_segment.append(entry)
        for j in range(7):
            totals[j] += entry[j]
    tp_sum, fp_sum, fn_sum, n_sum, s_sum, d_sum, i_sum = totals
    denom = 2 * tp_sum + fp_sum + fn_sum
    f = 2.0 * tp_sum / denom if denom else 1.0
    er = (s_sum + d_sum + i_sum) / n_sum
    return per_segment, er, f


def conv2d_by_hand(x, kernels, dout):
    """3x3 same-padded cross-correlation over (time, frequency) from its
    definition, with its input and kernel gradients for upstream ``dout``.

    out[s, t, b, n] = sum_{i, j, c} k[n, i, j, c] * x[s, t + i - 1, b + j - 1, c],
    where x reads zero outside its bounds. Returns (out, d_kernels, d_x).
    """
    x = np.asarray(x, dtype=np.float64)
    kernels = np.asarray(kernels, dtype=np.float64)
    n_s, n_t, n_b, n_c = x.shape
    n_f = kernels.shape[0]
    out = np.zeros((n_s, n_t, n_b, n_f))
    dk = np.zeros_like(kernels)
    dx = np.zeros_like(x)
    for s in range(n_s):
        for t in range(n_t):
            for b in range(n_b):
                for n in range(n_f):
                    for i in range(3):
                        for j in range(3):
                            tt, bb = t + i - 1, b + j - 1
                            if not (0 <= tt < n_t and 0 <= bb < n_b):
                                continue
                            for c in range(n_c):
                                out[s, t, b, n] += kernels[n, i, j, c] * x[s, tt, bb, c]
                                dk[n, i, j, c] += dout[s, t, b, n] * x[s, tt, bb, c]
                                dx[s, tt, bb, c] += dout[s, t, b, n] * kernels[n, i, j, c]
    return out, dk, dx


def finite_difference_gradients(loss_fn, arrays, step=1e-5):
    """Central finite differences of a scalar loss w.r.t. each array in
    ``arrays`` (modified in place and restored)."""
    grads = []
    for arr in arrays:
        g = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            i = it.multi_index
            orig = arr[i]
            arr[i] = orig + step
            lp = loss_fn()
            arr[i] = orig - step
            lm = loss_fn()
            arr[i] = orig
            g[i] = (lp - lm) / (2.0 * step)
        grads.append(g)
    return grads


def max_relative_error(a, b) -> float:
    """Element-wise |a - b| / max(1, |a|, |b|), reduced to the worst case."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    scale = np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
    return float((np.abs(a - b) / scale).max()) if a.size else 0.0
