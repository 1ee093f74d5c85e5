"""Network layers with exact forward/backward passes in double precision.

Array conventions: the convolutional block works on (S, T, B, F) volumes
(batch, time, frequency bins, feature maps); the recurrent and dense block
works on (S, T, D). Every layer caches what its backward pass needs during
a training forward, so forward/backward pairs must not interleave across
calls; an inference forward keeps nothing. Each backward consumes that
cache, so nothing a step no longer reads outlives its use, and a backward
without a training forward since the last one raises :class:`StateError`;
an identity dropout keeps nothing and stays the identity. No layer writes
its arguments. :class:`BatchNorm` and :class:`MaxPoolFreq` hold only their
settings, parameters and buffers: they run only as part of a
:class:`ConvBlock`, which runs a (conv, batch norm, frequency max pool)
triple as one block that normalizes the conv's fresh output in place and
applies batch norm's scale and shift after the pool.

:class:`Conv2D` and :class:`ConvBlock` split a batch into contiguous sample
ranges, one per core (see :func:`_sample_ranges`), and run each range's
GEMMs and elementwise passes on its own thread. Every element is computed
by the same operations whatever range holds it, batch statistics are
whole-batch reductions, and the kernel gradient is summed in one declared
order (each sample's time blocks, then the samples in order), so results
do not depend on the number of cores.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np

from ..errors import CheckpointError, RangeError, ShapeError, StateError


def sigmoid(x):
    """Logistic function as 0.5 * (1 + tanh(x / 2)), computed in place on one
    fresh array; finite for every finite input, with no branch on the sign."""
    out = np.multiply(x, 0.5, dtype=np.float64)
    np.tanh(out, out=out)
    out += 1.0
    out *= 0.5
    return out


# sigmoid outputs are clamped into this interval so the cross-entropy and
# its gradient stay finite at saturation
SIGMOID_CLAMP = 1e-7


def uniform_init(rng: np.random.Generator | None, shape, fan_in: int, fan_out: int) -> np.ndarray:
    """Glorot-uniform weights of ``shape``, or zeros without a generator."""
    if rng is None:
        return np.zeros(shape)
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, shape)


class Layer:
    """Base: subclasses declare their descriptor ``kind`` and the
    constructor ``settings`` that rebuild them, and fill ``params`` (trained)
    and ``buffers`` (not trained) in serialization order.
    """

    kind = ""
    settings: tuple[str, ...] = ()

    def __init__(self):
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}
        self.buffers: dict[str, np.ndarray] = {}

    def forward(self, x, training=False, rng=None):
        raise NotImplementedError

    def backward(self, dout, input_grad=True):
        """Fill ``grads`` and return the input gradient; a layer may skip
        that gradient and return None when ``input_grad`` is False."""
        raise NotImplementedError

    def descriptor(self) -> dict:
        return {"type": self.kind, **{name: getattr(self, name) for name in self.settings}}


def _im2col(xp, out):
    """(T+2, B+2, C) padded sample -> (T*B, 9*C) rows of 3x3 patches in
    (i, j, c) order, matching ``kernels.reshape(filters, -1)``, written to
    the front of the flat buffer ``out``."""
    t, b, c = xp.shape[0] - 2, xp.shape[1] - 2, xp.shape[2]
    win = np.lib.stride_tricks.sliding_window_view(xp, (3, 3), axis=(0, 1))
    patches = out[: t * b * 9 * c].reshape(t, b, 3, 3, c)
    np.copyto(patches, win.transpose(0, 1, 3, 4, 2))
    return patches.reshape(t * b, 9 * c)


# Bytes of patch rows (and of their column gradient, which reuses their
# buffer) that each sample range of Conv2D holds at once. At the
# paper-default bin-fft shape one sample's patch matrix of conv2 is 144 MiB;
# at the protocol shapes a sample fits in one block.
_PATCH_BYTES = 4 * 2**20


def _split(total: int, n: int) -> list[slice]:
    """``range(total)`` as ``n`` contiguous slices of near-equal sizes."""
    bounds = [total * k // n for k in range(n + 1)]
    return [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


def _time_blocks(t: int, b: int, c: int) -> list[slice]:
    """Whole time rows of a (T, B, C) sample in near-equal blocks whose
    patch matrices hold at most ``_PATCH_BYTES`` (or one time row). Equal
    sizes keep every block's GEMM as large as the budget allows: OpenBLAS
    rounds small products in another kernel."""
    per_block = max(1, _PATCH_BYTES // (b * 9 * c * 8))
    return _split(t, -(-t // per_block))


def _cores() -> int:
    """The cores this process may run on."""
    return len(os.sched_getaffinity(0))


def _sample_ranges(conv_map) -> list[slice]:
    """Contiguous, near-equal ranges of the samples of the (S, T, B, F)
    ``conv_map``, one per core and at most one per sample. A map smaller
    than one range's patch budget is one range: at that size handing work
    to another thread costs more than it saves."""
    s = conv_map.shape[0]
    return _split(s, min(s, _cores()) if conv_map.nbytes >= _PATCH_BYTES else 1)


# The threads that run every sample range but the first, started on first
# use; numpy releases the interpreter lock inside its GEMMs and loops
_executor = None
_executor_lock = threading.Lock()


def _forget_executor():
    """A forked child has none of its parent's threads: start anew."""
    global _executor, _executor_lock
    _executor, _executor_lock = None, threading.Lock()


os.register_at_fork(after_in_child=_forget_executor)


def _run(fn, jobs: list) -> None:
    """Call ``fn(job)`` for every job, one per sample range: the first on
    the calling thread, the others on the pool. Returns, or raises a call's
    exception with its own type (the earliest job's first), only after
    every call has finished.

    Memory that a pool thread allocates and frees stays in that thread's
    malloc arena, so the callers allocate the patch buffers and the
    pooled-size float arrays that the jobs write, and hand each job its
    part."""
    global _executor
    if len(jobs) == 1:
        fn(jobs[0])
        return
    with _executor_lock:
        if _executor is None:
            _executor = ThreadPoolExecutor(max(1, _cores() - 1), thread_name_prefix="sedpipe-nn")
        futures = [_executor.submit(fn, job) for job in jobs[1:]]
    try:
        fn(jobs[0])
    finally:
        wait(futures)
    for future in futures:
        future.result()


class Conv2D(Layer):
    """3x3 same-padding cross-correlation over (time, frequency).

    (S, T, B, Cin) -> (S, T, B, filters). Bias-free: every architecture here
    follows a conv with batch norm, whose beta supplies the shift. Both passes
    run over sample ranges (see :func:`_sample_ranges`), one sample at a
    time, over blocks of whole time rows (see :func:`_time_blocks`), so no
    range holds more than ``_PATCH_BYTES`` of patch rows or of their column
    gradient. Each output row is one patch row's product, so forward outputs
    equal a whole-sample GEMM's bit for bit. The kernel gradient is summed
    in a declared order: each sample's blocks in time order into that
    sample's partial, then the partials in sample order. The input gradient
    adds a block's taps before the next block's.
    """

    kind = "conv2d"
    settings = ("in_channels", "filters")

    def __init__(self, in_channels: int, filters: int, rng: np.random.Generator | None = None):
        super().__init__()
        self.in_channels = in_channels
        self.filters = filters
        shape = (filters, 3, 3, in_channels)
        self.params = {"kernels": uniform_init(rng, shape, 9 * in_channels, 9 * filters)}
        self._cache = None

    def forward(self, x, training=False, rng=None):
        if x.ndim != 4 or x.shape[3] != self.in_channels:
            raise ShapeError(
                f"conv2d expects (S, T, B, {self.in_channels}), got shape {x.shape}"
            )
        s, t, b, c = x.shape
        blocks = _time_blocks(t, b, c)
        kmat = self.params["kernels"].reshape(self.filters, -1).T
        xp = np.zeros((s, t + 2, b + 2, c))
        out = np.empty((s, t, b, self.filters))
        ranges = _sample_ranges(out)

        def run(job):
            samples, patch_rows = job
            xp[samples, 1:-1, 1:-1] = x[samples]
            for q in range(samples.start, samples.stop):
                for rows in blocks:
                    block = out[q, rows].reshape(-1, self.filters)
                    np.matmul(_im2col(xp[q, rows.start : rows.stop + 2], patch_rows), kmat, out=block)

        _run(run, list(zip(ranges, self._patch_buffers(len(ranges), blocks, b))))
        self._cache = xp if training else None
        return out

    def _patch_buffers(self, n, blocks, b):
        """One flat buffer per sample range for the largest time block's
        patch rows (and, in backward, its column gradient)."""
        return np.empty((n, max(r.stop - r.start for r in blocks) * b * 9 * self.in_channels))

    def backward(self, dout, input_grad=True):
        if self._cache is None:
            raise StateError("conv2d backward needs a training-mode forward since its last backward")
        xp, self._cache = self._cache, None
        s, t, b, n = dout.shape
        c = self.in_channels
        blocks = _time_blocks(t, b, c)
        k = self.params["kernels"]
        kmat = k.reshape(n, -1)
        partials = np.zeros((s,) + kmat.shape)
        dxp = np.zeros_like(xp) if input_grad else None
        ranges = _sample_ranges(dout)

        def run(job):
            samples, buf = job
            for q in range(samples.start, samples.stop):
                for rows in blocks:
                    lo, hi = rows.start, rows.stop
                    d = dout[q, rows].reshape(-1, n)
                    partials[q] += d.T @ _im2col(xp[q, lo : hi + 2], buf)
                    if not input_grad:
                        continue
                    # col2im: each of the nine kernel taps adds its column
                    # gradient, written over the patch rows, back at its
                    # shifted position in the padded input
                    dcols = np.matmul(d, kmat, out=buf[: d.shape[0] * 9 * c].reshape(-1, 9 * c))
                    dcols = dcols.reshape(hi - lo, b, 3, 3, c)
                    for i in range(3):
                        for j in range(3):
                            dxp[q, lo + i : hi + i, j : j + b] += dcols[:, :, i, j]

        _run(run, list(zip(ranges, self._patch_buffers(len(ranges), blocks, b))))
        dk = np.zeros_like(kmat)
        for partial in partials:
            dk += partial
        self.grads["kernels"] = dk.reshape(k.shape)
        return dxp[:, 1:-1, 1:-1] if input_grad else None


class BatchNorm(Layer):
    """Per-feature-map normalization over all leading axes, run by
    :class:`ConvBlock`.

    Training mode normalizes with batch statistics and folds them into the
    running estimates (momentum 0.9); inference normalizes with the running
    estimates and fails if none exist yet.
    """

    kind = "batch_norm"
    settings = ("n_features", "eps", "momentum")

    def __init__(self, n_features: int, eps: float = 1e-5, momentum: float = 0.9):
        super().__init__()
        self.n_features = n_features
        self.eps = eps
        self.momentum = momentum
        self.params = {"gamma": np.ones(n_features), "beta": np.zeros(n_features)}
        self.buffers = {
            "running_mean": np.zeros(n_features),
            "running_var": np.ones(n_features),
            "updates": np.zeros(1),
        }

    def _standardize(self, x, ranges):
        """Overwrite the (S, T, B, F) batch ``x`` with x̂ = (x - batch mean)
        * inv_std, one sample range per thread, folding the batch statistics
        into the running estimates; returns inv_std. The statistics are
        whole-batch reductions, so they do not depend on the ranges."""
        x2 = x.reshape(-1, x.shape[3])
        # einsum reductions over axis 0 run several times faster than
        # .mean(axis=0) when F is small, with the same summation order
        mean = np.einsum("ij->j", x2) / x2.shape[0]
        _run(lambda r: np.subtract(x[r], mean, out=x[r]), ranges)
        var = np.einsum("ij,ij->j", x2, x2) / x2.shape[0]
        m = self.momentum
        self.buffers["running_mean"] = m * self.buffers["running_mean"] + (1 - m) * mean
        self.buffers["running_var"] = m * self.buffers["running_var"] + (1 - m) * var
        self.buffers["updates"] = self.buffers["updates"] + 1
        inv_std = 1.0 / np.sqrt(var + self.eps)
        _run(lambda r: np.multiply(x[r], inv_std, out=x[r]), ranges)
        return inv_std

    def _inference_affine(self):
        """(scale, shift) of the inference map x * scale + shift."""
        if self.buffers["updates"][0] == 0:
            raise StateError("batch norm inference before any training update")
        scale = self.params["gamma"] / np.sqrt(self.buffers["running_var"] + self.eps)
        return scale, self.params["beta"] - self.buffers["running_mean"] * scale


def _pool_taps(m, op, out):
    """Reduce the (S, T, B/f, f, F) window view ``m`` over its tap axis by
    the elementwise ``op`` (np.maximum or np.minimum) into ``out``. One pass
    per tap reads m in place: a reduction over the inner tap axis is slower."""
    np.copyto(out, m[:, :, :, 0])
    for k in range(1, m.shape[3]):
        op(out, m[:, :, :, k], out=out)
    return out


def _first_tap(m, sel, out):
    """Write into the unsigned ``out`` the index of each window's first tap
    equal to ``sel``: the count of the leading taps that differ. A NaN
    window equals no tap and gets its last one."""
    out.fill(0)
    notyet = np.ones(sel.shape, dtype=bool)
    for k in range(m.shape[3] - 1):
        notyet &= m[:, :, :, k] != sel
        out += notyet
    return out


def _add_at_taps(m, arg, g, scratch):
    """Add each window's pooled gradient ``g`` to tap ``arg`` of the
    (S, T, B/f, f, F) view ``m``, forming each tap's masked product in
    ``scratch``, an array of g's shape. At the paper's conv1 shape a masked
    product per tap is about 3x faster than a ``where=`` add and 2x faster
    than a fancy-index scatter."""
    for k in range(m.shape[3]):
        m[:, :, :, k] += np.multiply(arg == k, g, out=scratch)


def _windows(x, factor):
    """(S, T, B, F) -> the (S, T, B/factor, factor, F) window view."""
    s, t, b, f = x.shape
    if b % factor:
        raise ShapeError(f"pool factor {factor} does not divide {b} bins")
    return x.reshape(s, t, b // factor, factor, f)


def _select(m, flip, out):
    """Write into ``out`` each window's max, or its min in the feature maps
    where ``flip`` is set: where batch norm's gain is negative, the window
    min becomes the max of its output."""
    _pool_taps(m, np.maximum, out)
    if flip.any():
        np.copyto(out, _pool_taps(m, np.minimum, np.empty_like(out)), where=flip)
    return out


class MaxPoolFreq(Layer):
    """Max pooling on the frequency axis only, run by :class:`ConvBlock`;
    time resolution is preserved.

    (S, T, B, F) -> (S, T, B//factor, F); each window's gradient goes to
    its max, a tie to the lowest bin index.
    """

    kind = "max_pool_freq"
    settings = ("factor",)

    def __init__(self, factor: int):
        super().__init__()
        if factor < 1:
            raise RangeError(f"pool factor must be >= 1, got {factor}")
        self.factor = factor


class ConvBlock:
    """A Conv2D, BatchNorm and MaxPoolFreq run as one block over the three
    layer objects, which keep their parameters, buffers and grads.

    Each step of batch norm is monotone in its input, so pooling commutes
    with it: the block pools x̂ (the window min where gamma < 0), or the
    conv's output in inference, and applies batch norm's scale and shift to
    the pooled array only. Outputs equal max pooling of batch norm's output
    bit for bit, and a tie goes to the first max of x̂. The conv's output is
    the one full-size array: it becomes x̂ in place and, in backward, the
    conv's output gradient. Every pass over it runs one sample range per
    thread, over the conv's ranges, into pooled-size arrays that the
    calling thread allocates once for the whole batch (see :func:`_run`).
    """

    def __init__(self, conv: Conv2D, bn: BatchNorm, pool: MaxPoolFreq):
        if conv.filters != bn.n_features:
            raise ShapeError(f"batch norm of {bn.n_features} feature maps after a conv of {conv.filters} filters")
        self.conv, self.bn, self.pool = conv, bn, pool
        self._cache = None

    def forward(self, x, training=False, rng=None):
        y = self.conv.forward(x, training=training, rng=rng)
        m = _windows(y, self.pool.factor)
        ranges = _sample_ranges(y)
        out = np.empty(m.shape[:3] + m.shape[4:])
        self._cache = None
        if training:
            gamma = self.bn.params["gamma"]
            inv_std = self.bn._standardize(y, ranges)
            flip = gamma < 0
            arg = np.empty(out.shape, dtype=np.min_scalar_type(self.pool.factor - 1))

            def pool(r):
                _first_tap(m[r], _select(m[r], flip, out[r]), arg[r])

            _run(pool, ranges)
            self._cache = (y, arg, inv_std, flip)
            out *= gamma
            out += self.bn.params["beta"]
        else:
            scale, shift = self.bn._inference_affine()
            _run(lambda r: _select(m[r], scale < 0, out[r]), ranges)
            out *= scale
            out += shift
        return out

    def backward(self, dout, input_grad=True):
        if self._cache is None:
            raise StateError("conv block backward needs a training-mode forward since its last backward")
        x_hat, arg, inv_std, flip = self._cache
        self._cache = None  # x_hat becomes the conv's output gradient below
        n = x_hat.shape[3]
        count = x_hat.size // n
        m = _windows(x_hat, self.pool.factor)
        ranges = _sample_ranges(x_hat)
        # x̂ at each window's first max is the pooled x̂ again: pooling it
        # anew is faster than a take_along_axis gather by the argmax
        pooled = np.empty(dout.shape)
        _run(lambda r: _select(m[r], flip, pooled[r]), ranges)
        d2 = dout.reshape(-1, n)
        dbeta = np.einsum("ij->j", d2)
        dgamma = np.einsum("ij,ij->j", d2, pooled.reshape(-1, n))
        self.bn.grads["gamma"] = dgamma
        self.bn.grads["beta"] = dbeta
        # dx = c * (count * dy - dbeta - x_hat * dgamma), c = gamma * inv_std
        # / count, where dy is dout routed to each window's first max
        c = self.bn.params["gamma"] * inv_std / count
        scale, shift, route = -c * dgamma, c * dbeta, c * count
        scratch = np.empty(dout.shape)

        def spread(r):
            part = x_hat[r]
            part *= scale
            part -= shift
            # the pooled x̂ is read; its array now holds the routed gradient
            g = np.multiply(dout[r], route, out=pooled[r])
            _add_at_taps(m[r], arg[r], g, scratch[r])

        _run(spread, ranges)
        return self.conv.backward(x_hat, input_grad=input_grad)


class Dropout(Layer):
    """Inverted dropout: identity at inference and at rate 0; in training,
    x * mask, then * (1/keep), with a boolean mask. That equals x * (mask /
    keep) bit for bit, signed zeros included, in an eighth of the memory."""

    kind = "dropout"
    settings = ("rate",)

    def __init__(self, rate: float):
        super().__init__()
        if not 0.0 <= rate < 1.0:
            raise RangeError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = rate
        # None after an identity forward; False once backward used the mask
        self._mask = None

    def _apply(self, x, mask):
        out = x * mask
        out *= 1.0 / (1.0 - self.rate)
        return out

    def forward(self, x, training=False, rng=None):
        if not training or self.rate == 0.0:
            self._mask = None
            return x
        if rng is None:
            raise StateError("dropout in training mode needs the run's generator")
        self._mask = rng.random(x.shape) >= self.rate
        return self._apply(x, self._mask)

    def backward(self, dout, input_grad=True):
        if self._mask is None:
            return dout
        if self._mask is False:
            raise StateError("dropout backward needs a forward since its last backward")
        mask, self._mask = self._mask, False
        return self._apply(dout, mask)


class FlattenFreq(Layer):
    """(S, T, B, F) -> (S, T, B*F): joins the conv block to the recurrent one."""

    kind = "flatten_freq"

    def __init__(self):
        super().__init__()
        self._shape = None

    def forward(self, x, training=False, rng=None):
        if x.ndim != 4:
            raise ShapeError(f"flatten expects a 4-D volume, got shape {x.shape}")
        self._shape = x.shape
        s, t, b, f = x.shape
        return x.reshape(s, t, b * f)

    def backward(self, dout, input_grad=True):
        return dout.reshape(self._shape)


_DIRECTIONS = ("fwd", "bwd")


class BiGRU(Layer):
    """Bi-directional GRU, (S, T, D) -> (S, T, 2U).

    Each direction holds gate-stacked parameters ``W`` (3, D, U), ``U``
    (3, U, U) and ``b`` (3, U) in (z, r, c) order:
        z = sig(x W[0] + h U[0] + b[0])
        r = sig(x W[1] + h U[1] + b[1])
        c = tanh(x W[2] + (r*h) U[2] + b[2])
        h' = (1 - z)*h + z*c
    The backward direction runs over reversed time; outputs are concatenated
    on the feature axis. Both directions share one time loop over a leading
    direction axis of size 2, so each step is one batched (2, S, U) product
    per gate group. Backward computes full BPTT gradients: only the
    recurrent ``dh`` products run per step, and the input and weight
    gradients are whole-sequence GEMMs over the stored gate derivatives.
    """

    kind = "bigru"
    settings = ("in_dim", "units")

    def __init__(self, in_dim: int, units: int, rng: np.random.Generator | None = None):
        super().__init__()
        if units < 1:
            raise RangeError(f"GRU units must be >= 1, got {units}")
        self.in_dim = in_dim
        self.units = units
        self.params = {}
        for d in _DIRECTIONS:
            self.params[f"{d}_W"] = uniform_init(rng, (3, in_dim, units), in_dim, units)
            self.params[f"{d}_U"] = uniform_init(rng, (3, units, units), units, units)
            self.params[f"{d}_b"] = np.zeros((3, units))
        self._cache = None

    def _stacked(self, name):
        """Both directions' (3, rows, U) gate stacks as (2, rows, 3U) with
        gate-major column blocks."""
        w = np.stack([self.params[f"{d}_{name}"] for d in _DIRECTIONS])
        return w.transpose(0, 2, 1, 3).reshape(2, w.shape[2], -1)

    def forward(self, x, training=False, rng=None):
        if x.ndim != 3 or x.shape[2] != self.in_dim:
            raise ShapeError(f"bigru expects (S, T, {self.in_dim}), got shape {x.shape}")
        s, t, dim = x.shape
        u = self.units
        w, u_rec = self._stacked("W"), self._stacked("U")
        b = np.stack([self.params[f"{d}_b"].reshape(-1) for d in _DIRECTIONS])
        # the input pre-activations, which each step overwrites with its
        # gates z | r | c; in step order, step i is time i forward and time
        # T-1-i backward
        gates = (x.reshape(s * t, dim) @ w + b[:, None]).reshape(2, s, t, 3 * u)
        gates[1] = gates[1, :, ::-1]
        u_zr, u_c = u_rec[:, :, : 2 * u], u_rec[:, :, 2 * u :]
        hs = np.zeros((2, s, t + 1, u))  # hs[:, :, i] is the state entering step i
        rh = np.empty((2, s, t, u))
        for i in range(t):
            h, g = hs[:, :, i], gates[:, :, i]
            zr = sigmoid(g[:, :, : 2 * u] + h @ u_zr)
            np.multiply(zr[:, :, u:], h, out=rh[:, :, i])
            c = np.tanh(g[:, :, 2 * u :] + rh[:, :, i] @ u_c, out=g[:, :, 2 * u :])
            g[:, :, : 2 * u] = zr
            z = zr[:, :, :u]
            hs[:, :, i + 1] = (1.0 - z) * h + z * c
        self._cache = (x, w, u_rec, hs, gates, rh) if training else None
        return np.concatenate((hs[0, :, 1:], hs[1, :, :0:-1]), axis=2)

    def backward(self, dout, input_grad=True):
        if self._cache is None:
            raise StateError("bigru backward needs a training-mode forward since its last backward")
        (x, w, u_rec, hs, gates, rh), self._cache = self._cache, None
        _, s, t, u = rh.shape
        h_prev = hs[:, :, :-1]
        z, r, c = gates[..., :u], gates[..., u : 2 * u], gates[..., 2 * u :]
        # da, the pre-activation gradients z | r | c, starts as the factors
        # that turn dh_total (z and c) and drh (r) into them, for the whole
        # sequence at once; the loop scales one step at a time
        da = np.empty_like(gates)
        da_z, da_r, da_c = da[..., :u], da[..., u : 2 * u], da[..., 2 * u :]
        np.multiply((c - h_prev) * z, 1.0 - z, out=da_z)
        np.multiply(h_prev * r, 1.0 - r, out=da_r)
        np.multiply(z, 1.0 - c * c, out=da_c)
        keep = 1.0 - z
        dhs = np.stack((dout[:, :, :u], dout[:, ::-1, u:]))
        u_zr_t = u_rec[:, :, : 2 * u].transpose(0, 2, 1)
        u_c_t = u_rec[:, :, 2 * u :].transpose(0, 2, 1)
        dh = np.zeros((2, s, u))
        for i in reversed(range(t)):
            dh_total = dhs[:, :, i] + dh
            np.multiply(da_z[:, :, i], dh_total, out=da_z[:, :, i])
            dac = np.multiply(da_c[:, :, i], dh_total, out=da_c[:, :, i])
            drh = dac @ u_c_t
            np.multiply(da_r[:, :, i], drh, out=da_r[:, :, i])
            dh = dh_total * keep[:, :, i] + drh * r[:, :, i] + da[:, :, i, : 2 * u] @ u_zr_t
        del keep, dhs  # free them before the whole-sequence GEMMs allocate
        flat = da.reshape(2, s * t, 3 * u)
        grad_u = np.concatenate(
            (
                h_prev.reshape(2, s * t, u).transpose(0, 2, 1) @ flat[:, :, : 2 * u],
                rh.reshape(2, s * t, u).transpose(0, 2, 1) @ flat[:, :, 2 * u :],
            ),
            axis=2,
        )
        grad_b = flat.sum(axis=1)
        da[1] = da[1, :, ::-1]  # the backward direction in time order, like x
        grad_w = x.reshape(s * t, -1).T @ flat
        for k, d in enumerate(_DIRECTIONS):
            self.grads[f"{d}_W"] = grad_w[k].reshape(-1, 3, u).transpose(1, 0, 2)
            self.grads[f"{d}_U"] = grad_u[k].reshape(u, 3, u).transpose(1, 0, 2)
            self.grads[f"{d}_b"] = grad_b[k].reshape(3, u)
        dx = flat[0] @ w[0].T
        dx += flat[1] @ w[1].T
        return dx.reshape(x.shape)


# name -> (activation of the pre-activation z, dL/dz from dL/dout and the
# output); every derivative is a function of the output alone
_ACTIVATION_TABLE = {
    "linear": (lambda z: z, lambda g, y: g),
    "relu": (lambda z: np.maximum(z, 0.0), lambda g, y: g * (y > 0)),
    "tanh": (np.tanh, lambda g, y: g * (1.0 - y * y)),
    # clamped so downstream cross-entropy stays finite
    "sigmoid": (
        lambda z: np.clip(sigmoid(z), SIGMOID_CLAMP, 1.0 - SIGMOID_CLAMP),
        lambda g, y: g * y * (1.0 - y),
    ),
}
ACTIVATIONS = tuple(_ACTIVATION_TABLE)


class TimeDense(Layer):
    """Shared dense map applied to every frame: out[t] = act(in[t] @ W + b).
    The output is cached, since the activation derivative reads it."""

    kind = "time_dense"
    settings = ("in_dim", "units", "activation")

    def __init__(self, in_dim: int, units: int, activation: str = "linear",
                 rng: np.random.Generator | None = None):
        super().__init__()
        if activation not in ACTIVATIONS:
            raise RangeError(f"unknown activation {activation!r}")
        self.in_dim = in_dim
        self.units = units
        self.activation = activation
        self.params = {"W": uniform_init(rng, (in_dim, units), in_dim, units), "b": np.zeros(units)}
        self._cache = None

    def forward(self, x, training=False, rng=None):
        if x.ndim != 3 or x.shape[2] != self.in_dim:
            raise ShapeError(f"time dense expects (S, T, {self.in_dim}), got shape {x.shape}")
        out = _ACTIVATION_TABLE[self.activation][0](x @ self.params["W"] + self.params["b"])
        self._cache = (x, out) if training else None
        return out

    def backward(self, dout, input_grad=True):
        if self._cache is None:
            raise StateError("time dense backward needs a training-mode forward since its last backward")
        (x, out), self._cache = self._cache, None
        dz = _ACTIVATION_TABLE[self.activation][1](dout, out)
        x2 = x.reshape(-1, self.in_dim)
        dz2 = dz.reshape(-1, self.units)
        self.grads["W"] = x2.T @ dz2
        self.grads["b"] = dz2.sum(axis=0)
        return dz @ self.params["W"].T


LAYER_TYPES = {cls.kind: cls for cls in Layer.__subclasses__()}


def layer_from_descriptor(desc: dict) -> Layer:
    """The layer one descriptor entry rebuilds. An entry that is not an
    object naming a layer ``type`` and only settings that type declares and
    accepts is a :class:`CheckpointError`."""
    cls = LAYER_TYPES.get(str(desc.get("type"))) if isinstance(desc, dict) else None
    if cls is None or not desc.keys() - {"type"} <= set(cls.settings):
        raise CheckpointError(f"malformed layer descriptor {desc!r}")
    try:
        return cls(**{k: v for k, v in desc.items() if k != "type"})
    except (TypeError, ValueError, RangeError) as exc:
        raise CheckpointError(f"layer descriptor {desc!r}: {exc}") from None
