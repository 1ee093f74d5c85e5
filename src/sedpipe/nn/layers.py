"""Network layers with exact forward/backward passes.

Every layer computes in the dtype of its own parameters, which
:meth:`Layer.astype` sets: the builders train in float32, and the
finite-difference and oracle checks use float64 copies.

Array conventions: the convolutional block works on (S, T, B, F) volumes
(batch, time, frequency bins, feature maps); the recurrent and dense block
works on (S, T, D). Every step holds its backward state by one rule
(:meth:`Layer._keep`, :meth:`Layer._take`): a training forward keeps what
its backward reads, an inference forward keeps nothing, and a backward
releases the state, so nothing a step no longer reads outlives its use, and
a backward without a training forward since the last one raises
:class:`StateError`. Forward/backward pairs must therefore not interleave
across calls. No layer writes its arguments. A :class:`ConvBlock` is one
conv stage (conv, batch norm, frequency max pool): it normalizes the
conv's fresh output in place and applies batch norm's scale and shift
after the pool.

:class:`Conv2D` and :class:`ConvBlock` split a batch into contiguous sample
ranges, one per core (see :func:`_sample_ranges`), and run each range's
GEMMs and elementwise passes on its own thread, which lives for that one
pass (see :func:`sedpipe.cores.run`). Every element is computed by the same
operations whatever range holds it, batch statistics are whole-batch
reductions, and the kernel gradient is summed in one declared order (each
sample's time blocks, then the samples in order), so results do not depend
on the number of cores.
"""

from __future__ import annotations

import numpy as np

from .. import cores
from ..errors import CheckpointError, RangeError, ShapeError, StateError


def sigmoid(x):
    """Logistic function as 0.5 * (1 + tanh(x / 2)), computed in place on one
    fresh array; finite for every finite input, with no branch on the sign."""
    out = np.multiply(x, 0.5)
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
    _cache = None

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

    def _keep(self, training, *state):
        """Hold ``state`` for the next backward after a training forward;
        hold nothing after an inference forward."""
        self._cache = state if training else None

    def _take(self) -> tuple:
        """Release and return the state the last training forward kept."""
        if self._cache is None:
            raise StateError(f"{self.kind} backward needs a training-mode forward since its last backward")
        state, self._cache = self._cache, None
        return state

    def descriptor(self) -> dict:
        return {"type": self.kind, **{name: getattr(self, name) for name in self.settings}}

    def astype(self, dtype) -> None:
        """Hold every parameter and buffer as ``dtype``: each array of
        another dtype is replaced by its cast copy."""
        for store in (self.params, self.buffers):
            for name, arr in store.items():
                store[name] = arr.astype(dtype, copy=False)


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


def _time_blocks(t: int, b: int, c: int, itemsize: int) -> list[slice]:
    """Whole time rows of a (T, B, C) sample in near-equal blocks whose
    patch matrices of ``itemsize``-byte values hold at most
    ``_PATCH_BYTES`` (or one time row). Equal sizes keep every block's GEMM
    as large as the budget allows: OpenBLAS rounds small products in
    another kernel."""
    per_block = max(1, _PATCH_BYTES // (b * 9 * c * itemsize))
    return cores.split(t, -(-t // per_block))


def _sample_ranges(conv_map) -> list[slice]:
    """Contiguous, near-equal ranges of the samples of the (S, T, B, F)
    ``conv_map``, one per core and at most one per sample. A map smaller
    than one range's patch budget is one range: at that size handing work
    to another thread costs more than it saves."""
    s = conv_map.shape[0]
    return cores.split(s, min(s, cores.count()) if conv_map.nbytes >= _PATCH_BYTES else 1)


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

    def forward(self, x, training=False, rng=None):
        if x.ndim != 4 or x.shape[3] != self.in_channels:
            raise ShapeError(
                f"conv2d expects (S, T, B, {self.in_channels}), got shape {x.shape}"
            )
        s, t, b, c = x.shape
        k = self.params["kernels"]
        blocks = _time_blocks(t, b, c, k.itemsize)
        kmat = k.reshape(self.filters, -1).T
        xp = np.zeros((s, t + 2, b + 2, c), dtype=k.dtype)
        out = np.empty((s, t, b, self.filters), dtype=k.dtype)
        ranges = _sample_ranges(out)

        def run(job):
            samples, patch_rows = job
            xp[samples, 1:-1, 1:-1] = x[samples]
            for q in range(samples.start, samples.stop):
                for rows in blocks:
                    block = out[q, rows].reshape(-1, self.filters)
                    np.matmul(_im2col(xp[q, rows.start : rows.stop + 2], patch_rows), kmat, out=block)

        cores.run(run, list(zip(ranges, self._patch_buffers(len(ranges), blocks, b))))
        self._keep(training, xp)
        return out

    def _patch_buffers(self, n, blocks, b):
        """One flat buffer per sample range for the largest time block's
        patch rows (and, in backward, its column gradient)."""
        size = max(r.stop - r.start for r in blocks) * b * 9 * self.in_channels
        return np.empty((n, size), dtype=self.params["kernels"].dtype)

    def backward(self, dout, input_grad=True):
        (xp,) = self._take()
        s, t, b, n = dout.shape
        c = self.in_channels
        k = self.params["kernels"]
        blocks = _time_blocks(t, b, c, k.itemsize)
        kmat = k.reshape(n, -1)
        partials = np.zeros((s,) + kmat.shape, dtype=k.dtype)
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

        cores.run(run, list(zip(ranges, self._patch_buffers(len(ranges), blocks, b))))
        dk = np.zeros_like(kmat)
        for partial in partials:
            dk += partial
        self.grads["kernels"] = dk.reshape(k.shape)
        return dxp[:, 1:-1, 1:-1] if input_grad else None


def _first_tap(m, sel, out, notyet, differs):
    """Write into the unsigned ``out`` the index of each window's first tap
    equal to ``sel``: the count of the leading taps that differ. A NaN
    window equals no tap and gets its last one. ``notyet`` and ``differs``
    are boolean arrays of sel's shape that it overwrites."""
    out.fill(0)
    notyet.fill(True)
    for k in range(m.shape[3] - 1):
        notyet &= np.not_equal(m[:, :, :, k], sel, out=differs)
        out += notyet
    return out


def _add_at_taps(m, arg, g, scratch, hit):
    """Add each window's pooled gradient ``g`` to tap ``arg`` of the
    (S, T, B/f, f, F) view ``m``, forming each tap's mask in the boolean
    ``hit`` and its masked product in ``scratch``, arrays of g's shape. At
    the paper's conv1 shape a masked product per tap is about 3x faster than
    a ``where=`` add and 2x faster than a fancy-index scatter."""
    for k in range(m.shape[3]):
        m[:, :, :, k] += np.multiply(np.equal(arg, k, out=hit), g, out=scratch)


def _windows(x, factor):
    """(S, T, B, F) -> the (S, T, B/factor, factor, F) window view."""
    s, t, b, f = x.shape
    if b % factor:
        raise ShapeError(f"pool factor {factor} does not divide {b} bins")
    return x.reshape(s, t, b // factor, factor, f)


def _select(m, flip, out, mins=None):
    """Write into ``out`` each window of the (S, T, B/f, f, F) view ``m``
    reduced to its max, or to its min in the feature maps where ``flip`` is
    set: where batch norm's gain is negative, the window min becomes the max
    of its output. The mins go through ``mins``, an array of out's shape
    that only a set ``flip`` needs. One pass per tap reads m in place: a
    reduction over the inner tap axis is slower."""
    for op, acc in ((np.maximum, out), (np.minimum, mins)):
        np.copyto(acc, m[:, :, :, 0])
        for k in range(1, m.shape[3]):
            op(acc, m[:, :, :, k], out=acc)
        if not flip.any():
            return out
    np.copyto(out, mins, where=flip)
    return out


# batch norm's variance floor and the weight of the old running estimate
BN_EPS = 1e-5
BN_MOMENTUM = 0.9


class ConvBlock(Layer):
    """One conv stage: a 3x3 :class:`Conv2D`, batch norm over its feature
    maps, then max pooling of the frequency axis by ``factor``; time
    resolution is preserved. (S, T, B, Cin) -> (S, T, B//factor, filters).

    ``self.conv`` holds the conv and its backward state; the block's
    ``kernels`` is the conv's array. Training mode normalizes with batch
    statistics and folds them into the running estimates (momentum
    ``BN_MOMENTUM``); inference normalizes with the running estimates and
    fails if none exist yet.

    Each step of batch norm is monotone in its input, so pooling commutes
    with it. Both modes pool by one rule, the window min where scale < 0,
    and apply x * scale + shift to the pooled array only: training pools x̂
    with (gamma, beta), inference the conv's output with batch norm's
    inference map, whose scale has gamma's sign. Outputs equal max pooling
    of batch norm's output bit for bit. The backward pools x̂ again and
    routes each window's gradient to its first max (a tie to the lowest
    bin), so no argmax is held between the passes. The conv's output is the
    one full-size array: it becomes x̂ in place and, in backward, the conv's
    output gradient. Every pass over it runs one sample range per thread,
    over the conv's ranges, into pooled-size arrays that the calling thread
    allocates once for the whole batch (see :func:`sedpipe.cores.run`).
    """

    kind = "conv_block"
    settings = ("in_channels", "filters", "factor")

    def __init__(self, in_channels: int, filters: int, factor: int, rng: np.random.Generator | None = None):
        super().__init__()
        if factor < 1:
            raise RangeError(f"pool factor must be >= 1, got {factor}")
        self.in_channels = in_channels
        self.filters = filters
        self.factor = factor
        self.conv = Conv2D(in_channels, filters, rng=rng)
        self.params = {"kernels": self.conv.params["kernels"], "gamma": np.ones(filters), "beta": np.zeros(filters)}
        self.buffers = {
            "running_mean": np.zeros(filters),
            "running_var": np.ones(filters),
            "updates": np.zeros(1),
        }

    def astype(self, dtype) -> None:
        super().astype(dtype)
        self.conv.params["kernels"] = self.params["kernels"]  # still the conv's array

    def _standardize(self, x, ranges):
        """Overwrite the (S, T, B, F) batch ``x`` with x̂ = (x - batch mean)
        * inv_std, one sample range per thread, folding the batch statistics
        into the running estimates; returns inv_std. The statistics are
        whole-batch reductions, so they do not depend on the ranges."""
        x2 = x.reshape(-1, x.shape[3])
        # einsum reductions over axis 0 run several times faster than
        # .mean(axis=0) when F is small, with the same summation order
        mean = np.einsum("ij->j", x2) / x2.shape[0]
        cores.run(lambda r: np.subtract(x[r], mean, out=x[r]), ranges)
        var = np.einsum("ij,ij->j", x2, x2) / x2.shape[0]
        m = BN_MOMENTUM
        self.buffers["running_mean"] = m * self.buffers["running_mean"] + (1 - m) * mean
        self.buffers["running_var"] = m * self.buffers["running_var"] + (1 - m) * var
        self.buffers["updates"] = self.buffers["updates"] + 1
        inv_std = 1.0 / np.sqrt(var + BN_EPS)
        cores.run(lambda r: np.multiply(x[r], inv_std, out=x[r]), ranges)
        return inv_std

    def _inference_affine(self):
        """(scale, shift) of the inference map x * scale + shift."""
        if self.buffers["updates"][0] == 0:
            raise StateError("batch norm inference before any training update")
        scale = self.params["gamma"] / np.sqrt(self.buffers["running_var"] + BN_EPS)
        return scale, self.params["beta"] - self.buffers["running_mean"] * scale

    def forward(self, x, training=False, rng=None):
        y = self.conv.forward(x, training=training, rng=rng)
        m = _windows(y, self.factor)
        ranges = _sample_ranges(y)
        if training:
            self._keep(True, y, self._standardize(y, ranges))
            scale, shift = self.params["gamma"], self.params["beta"]
        else:
            self._keep(False)
            scale, shift = self._inference_affine()
        flip = scale < 0
        out = np.empty(m.shape[:3] + m.shape[4:], dtype=y.dtype)
        mins = np.empty(out.shape, dtype=y.dtype) if flip.any() else None
        cores.run(lambda r: _select(m[r], flip, out[r], None if mins is None else mins[r]), ranges)
        out *= scale
        out += shift
        return out

    def backward(self, dout, input_grad=True):
        x_hat, inv_std = self._take()  # x_hat becomes the conv's output gradient below
        gamma = self.params["gamma"]
        n = x_hat.shape[3]
        count = x_hat.size // n
        m = _windows(x_hat, self.factor)
        ranges = _sample_ranges(x_hat)
        # gamma is still the forward's, so x̂ pooled anew is the forward's
        # pooled x̂, and each window's first tap equal to it is its route
        flip = gamma < 0
        pooled, scratch = np.empty(dout.shape, dtype=gamma.dtype), np.empty(dout.shape, dtype=gamma.dtype)
        arg = np.empty(dout.shape, dtype=np.min_scalar_type(self.factor - 1))
        notyet, differs = np.empty(dout.shape, dtype=bool), np.empty(dout.shape, dtype=bool)

        def first_taps(r):
            sel = _select(m[r], flip, pooled[r], scratch[r])
            _first_tap(m[r], sel, arg[r], notyet[r], differs[r])

        cores.run(first_taps, ranges)
        d2 = dout.reshape(-1, n)
        dbeta = np.einsum("ij->j", d2)
        dgamma = np.einsum("ij,ij->j", d2, pooled.reshape(-1, n))
        self.grads["gamma"] = dgamma
        self.grads["beta"] = dbeta
        # dx = c * (count * dy - dbeta - x_hat * dgamma), c = gamma * inv_std
        # / count, where dy is dout routed to each window's first max
        c = gamma * inv_std / count
        scale, shift, route = -c * dgamma, c * dbeta, c * count

        def spread(r):
            part = x_hat[r]
            part *= scale
            part -= shift
            # the pooled x̂ is read; its array now holds the routed gradient
            g = np.multiply(dout[r], route, out=pooled[r])
            _add_at_taps(m[r], arg[r], g, scratch[r], differs[r])

        cores.run(spread, ranges)
        del pooled, scratch, arg, notyet, differs  # free the routing arrays before the conv's backward
        dx = self.conv.backward(x_hat, input_grad=input_grad)
        self.grads["kernels"] = self.conv.grads["kernels"]
        return dx


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

    def _apply(self, x, mask):
        out = x * mask
        out *= 1.0 / (1.0 - self.rate)
        return out

    def forward(self, x, training=False, rng=None):
        mask = None
        if training and self.rate > 0.0:
            if rng is None:
                raise StateError("dropout in training mode needs the run's generator")
            mask = rng.random(x.shape) >= self.rate
        self._keep(training, mask)
        return x if mask is None else self._apply(x, mask)

    def backward(self, dout, input_grad=True):
        (mask,) = self._take()
        return dout if mask is None else self._apply(dout, mask)


class FlattenFreq(Layer):
    """(S, T, B, F) -> (S, T, B*F): joins the conv block to the recurrent one."""

    kind = "flatten_freq"

    def forward(self, x, training=False, rng=None):
        if x.ndim != 4:
            raise ShapeError(f"flatten expects a 4-D volume, got shape {x.shape}")
        self._keep(training, x.shape)
        s, t, b, f = x.shape
        return x.reshape(s, t, b * f)

    def backward(self, dout, input_grad=True):
        (shape,) = self._take()
        return dout.reshape(shape)


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
        hs = np.zeros((2, s, t + 1, u), dtype=w.dtype)  # hs[:, :, i] is the state entering step i
        rh = np.empty((2, s, t, u), dtype=w.dtype)
        for i in range(t):
            h, g = hs[:, :, i], gates[:, :, i]
            zr = sigmoid(g[:, :, : 2 * u] + h @ u_zr)
            np.multiply(zr[:, :, u:], h, out=rh[:, :, i])
            c = np.tanh(g[:, :, 2 * u :] + rh[:, :, i] @ u_c, out=g[:, :, 2 * u :])
            g[:, :, : 2 * u] = zr
            z = zr[:, :, :u]
            hs[:, :, i + 1] = (1.0 - z) * h + z * c
        self._keep(training, x, w, u_rec, hs, gates, rh)
        return np.concatenate((hs[0, :, 1:], hs[1, :, :0:-1]), axis=2)

    def backward(self, dout, input_grad=True):
        x, w, u_rec, hs, gates, rh = self._take()
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
        dh = np.zeros((2, s, u), dtype=rh.dtype)
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

    def forward(self, x, training=False, rng=None):
        if x.ndim != 3 or x.shape[2] != self.in_dim:
            raise ShapeError(f"time dense expects (S, T, {self.in_dim}), got shape {x.shape}")
        out = _ACTIVATION_TABLE[self.activation][0](x @ self.params["W"] + self.params["b"])
        self._keep(training, x, out)
        return out

    def backward(self, dout, input_grad=True):
        x, out = self._take()
        dz = _ACTIVATION_TABLE[self.activation][1](dout, out)
        x2 = x.reshape(-1, self.in_dim)
        dz2 = dz.reshape(-1, self.units)
        self.grads["W"] = x2.T @ dz2
        self.grads["b"] = dz2.sum(axis=0)
        return dz @ self.params["W"].T


LAYER_TYPES = {cls.kind: cls for cls in Layer.__subclasses__()}


def layer_from_descriptor(desc: dict) -> Layer:
    """The layer one descriptor entry rebuilds. An entry that is not an
    object naming a known layer ``type`` and only settings that type
    declares and accepts is a :class:`CheckpointError`."""
    cls = LAYER_TYPES.get(str(desc.get("type"))) if isinstance(desc, dict) else None
    if cls is None and isinstance(desc, dict) and "type" in desc:
        raise CheckpointError(f"unknown layer kind {desc['type']!r}; known kinds: {', '.join(sorted(LAYER_TYPES))}")
    if cls is None or not desc.keys() - {"type"} <= set(cls.settings):
        raise CheckpointError(f"malformed layer descriptor {desc!r}")
    try:
        return cls(**{k: v for k, v in desc.items() if k != "type"})
    except (TypeError, ValueError, RangeError) as exc:
        raise CheckpointError(f"layer descriptor {desc!r}: {exc}") from None
