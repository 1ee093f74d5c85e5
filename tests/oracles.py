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


def chunks_by_hand(data, activity, seq_len):
    """(inputs, targets, mask) of non-overlapping zero-padded sequences,
    filled one frame at a time."""
    n_frames = data.shape[0]
    n_seq = -(-n_frames // seq_len)
    inputs = np.zeros((n_seq, seq_len) + data.shape[1:])
    targets = np.zeros((n_seq, seq_len, activity.shape[1]), dtype=np.uint8)
    mask = np.zeros((n_seq, seq_len), dtype=bool)
    for f in range(n_frames):
        s, t = divmod(f, seq_len)
        inputs[s, t] = data[f]
        targets[s, t] = activity[f]
        mask[s, t] = True
    return inputs, targets, mask


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


def bigru_by_hand(x, params):
    """Bi-directional GRU forward from its equations, one sample and one
    step at a time for each direction, with sig(a) = 1 / (1 + exp(-a)):

        z = sig(x W[0] + h U[0] + b[0])
        r = sig(x W[1] + h U[1] + b[1])
        c = tanh(x W[2] + (r*h) U[2] + b[2])
        h' = (1 - z)*h + z*c

    ``params`` maps ``fwd_``/``bwd_`` + ``W`` (3, D, U), ``U`` (3, U, U) and
    ``b`` (3, U). The backward direction starts from the last frame. Returns
    (S, T, 2U): each frame's forward state, then its backward state.
    """

    def sig(a):
        return 1.0 / (1.0 + np.exp(-a))

    n_s, n_t, _ = x.shape
    n_u = params["fwd_b"].shape[1]
    out = np.zeros((n_s, n_t, 2 * n_u))
    for k, direction in enumerate(("fwd", "bwd")):
        w, u, b = (params[f"{direction}_{name}"] for name in ("W", "U", "b"))
        steps = list(range(n_t)) if direction == "fwd" else list(range(n_t - 1, -1, -1))
        for s in range(n_s):
            h = np.zeros(n_u)
            for t in steps:
                xt = x[s, t]
                z = sig(xt @ w[0] + h @ u[0] + b[0])
                r = sig(xt @ w[1] + h @ u[1] + b[1])
                c = np.tanh(xt @ w[2] + (r * h) @ u[2] + b[2])
                h = (1.0 - z) * h + z * c
                out[s, t, k * n_u : (k + 1) * n_u] = h
    return out


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


def batch_norm_by_hand(x, gamma, beta, dout, eps=1e-5):
    """Training-mode batch norm of each feature map (the last axis) over
    every other axis, from its definition, with its gradients for upstream
    ``dout``. Over the m values x_i of one map:

        mean = sum_i x_i / m,  var = sum_i (x_i - mean)^2 / m,
        sd = sqrt(var + eps),  x̂_i = (x_i - mean) / sd,
        out_i = gamma * x̂_i + beta.

    The input gradient is d_x_i = gamma * sum_j dout_j * dx̂_j/dx_i, with the
    Jacobian dx̂_j/dx_i = ([i == j] - 1/m) / sd - (x_j - mean)(x_i - mean) / (m sd^3)
    built whole. Returns (out, d_gamma, d_beta, d_x, mean, var).
    """
    x = np.asarray(x, dtype=np.float64)
    n_f = x.shape[-1]
    x2 = x.reshape(-1, n_f)
    d2 = np.asarray(dout, dtype=np.float64).reshape(-1, n_f)
    m = x2.shape[0]
    out, dx = np.zeros_like(x2), np.zeros_like(x2)
    mean, var, dgamma, dbeta = (np.zeros(n_f) for _ in range(4))
    for f in range(n_f):
        mean[f] = sum(x2[:, f]) / m
        centred = x2[:, f] - mean[f]
        var[f] = sum(centred * centred) / m
        sd = np.sqrt(var[f] + eps)
        x_hat = centred / sd
        out[:, f] = gamma[f] * x_hat + beta[f]
        dgamma[f] = sum(d2[:, f] * x_hat)
        dbeta[f] = sum(d2[:, f])
        jacobian = (np.eye(m) - 1.0 / m) / sd - np.outer(centred, centred) / (m * sd**3)
        dx[:, f] = gamma[f] * (d2[:, f] @ jacobian)
    return out.reshape(x.shape), dgamma, dbeta, dx.reshape(x.shape), mean, var


def max_pool_by_hand(x, factor, dout=None):
    """Max pooling of (S, T, B, F) over windows of ``factor`` neighbouring
    frequency bins, from its definition, with its input gradient for
    upstream ``dout``:

        out[s, t, k, f] = max_j x[s, t, k * factor + j, f],

    and each window's gradient goes to the lowest bin that holds its max.
    Returns (out, d_x); d_x is None without ``dout``.
    """
    x = np.asarray(x, dtype=np.float64)
    n_s, n_t, n_b, n_f = x.shape
    out = np.zeros((n_s, n_t, n_b // factor, n_f))
    dx = None if dout is None else np.zeros_like(x)
    for s, t, k, f in np.ndindex(*out.shape):
        best = k * factor
        for b in range(k * factor + 1, (k + 1) * factor):
            if x[s, t, b, f] > x[s, t, best, f]:
                best = b
        out[s, t, k, f] = x[s, t, best, f]
        if dx is not None:
            dx[s, t, best, f] += dout[s, t, k, f]
    return out, dx
