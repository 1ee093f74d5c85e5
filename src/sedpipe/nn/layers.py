"""Network layers with exact forward/backward passes in double precision.

Array conventions: the convolutional block works on (S, T, B, F) volumes
(batch, time, frequency bins, feature maps); the recurrent and dense block
works on (S, T, D). Every layer caches what its backward pass needs during
forward, so forward/backward pairs must not interleave across calls; batch
norm's backward consumes its cache. Only a batch norm with ``in_place`` set
overwrites its argument; :class:`sedpipe.nn.ModelGraph` sets it inside the
conv block (conv, batch norm, frequency max pool), where the conv's output
and the pool's input gradient are fresh arrays that nothing else holds.
"""

from __future__ import annotations

import numpy as np

from ..errors import RangeError, ShapeError, StateError


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

    def zero_grads(self):
        self.grads = {k: np.zeros_like(v) for k, v in self.params.items()}


def _im2col(xp):
    """(T+2, B+2, C) padded sample -> (T*B, 9*C) rows of 3x3 patches in
    (i, j, c) order, matching ``kernels.reshape(filters, -1)``."""
    t, b, c = xp.shape[0] - 2, xp.shape[1] - 2, xp.shape[2]
    win = np.lib.stride_tricks.sliding_window_view(xp, (3, 3), axis=(0, 1))
    return win.transpose(0, 1, 3, 4, 2).reshape(t * b, 9 * c)


class Conv2D(Layer):
    """3x3 same-padding cross-correlation over (time, frequency).

    (S, T, B, Cin) -> (S, T, B, filters). Bias-free: every architecture here
    follows a conv with batch norm, whose beta supplies the shift. Both passes
    run one sample at a time, so no temporary exceeds the (T*B, 9*Cin) patch
    matrix of a single sample.
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
        s, t, b, _ = x.shape
        xp = np.pad(x, ((0, 0), (1, 1), (1, 1), (0, 0)))
        kmat = self.params["kernels"].reshape(self.filters, -1).T
        out = np.empty((s, t * b, self.filters))
        for q in range(s):
            np.matmul(_im2col(xp[q]), kmat, out=out[q])
        self._cache = xp
        return out.reshape(s, t, b, self.filters)

    def backward(self, dout, input_grad=True):
        if self._cache is None:
            raise StateError("conv2d backward before forward")
        xp = self._cache
        s, t, b, n = dout.shape
        k = self.params["kernels"]
        kmat = k.reshape(n, -1)
        dk = np.zeros_like(kmat)
        dxp = np.zeros_like(xp) if input_grad else None
        for q in range(s):
            d = dout[q].reshape(t * b, n)
            dk += d.T @ _im2col(xp[q])
            if not input_grad:
                continue
            # col2im: each of the nine kernel taps adds its column gradient
            # back at its shifted position in the padded input
            dcols = (d @ kmat).reshape(t, b, 3, 3, self.in_channels)
            for i in range(3):
                for j in range(3):
                    dxp[q, i : i + t, j : j + b] += dcols[:, :, i, j]
        self.grads["kernels"] = dk.reshape(k.shape)
        return dxp[:, 1:-1, 1:-1] if input_grad else None


def _writable(a, in_place):
    """``a`` if it may be overwritten and is float64, else a new float64
    array of its shape: the ``out=`` of a step that may overwrite ``a``."""
    return a if in_place and a.dtype == np.float64 else np.empty(a.shape)


class BatchNorm(Layer):
    """Per-feature-map normalization over all leading axes.

    Training mode normalizes with batch statistics and folds them into the
    running estimates (momentum 0.9); inference normalizes with the running
    estimates and fails if none exist yet. With ``in_place`` set, the input
    becomes x̂ in training and the output in inference, and ``dout`` becomes
    the input gradient: only the training output is a new activation-sized
    array.
    """

    kind = "batch_norm"
    settings = ("n_features", "eps", "momentum")
    in_place = False

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
        self._cache = None

    def forward(self, x, training=False, rng=None):
        if x.shape[-1] != self.n_features:
            raise ShapeError(f"batch norm expects {self.n_features} feature maps, got {x.shape[-1]}")
        x2 = x.reshape(-1, self.n_features)
        gamma, beta = self.params["gamma"], self.params["beta"]
        if training:
            # einsum reductions over axis 0 run several times faster than
            # .mean(axis=0) when F is small, with the same summation order
            mean = np.einsum("ij->j", x2) / x2.shape[0]
            x_hat = np.subtract(x2, mean, out=_writable(x2, self.in_place))
            var = np.einsum("ij,ij->j", x_hat, x_hat) / x2.shape[0]
            m = self.momentum
            self.buffers["running_mean"] = m * self.buffers["running_mean"] + (1 - m) * mean
            self.buffers["running_var"] = m * self.buffers["running_var"] + (1 - m) * var
            self.buffers["updates"] = self.buffers["updates"] + 1
            inv_std = 1.0 / np.sqrt(var + self.eps)
            x_hat *= inv_std
            self._cache = (x_hat, inv_std)
            out = x_hat * gamma
            out += beta
        else:
            if self.buffers["updates"][0] == 0:
                raise StateError("batch norm inference before any training update")
            scale = gamma / np.sqrt(self.buffers["running_var"] + self.eps)
            out = np.multiply(x2, scale, out=_writable(x2, self.in_place))
            out += beta - self.buffers["running_mean"] * scale
        return out.reshape(x.shape)

    def backward(self, dout, input_grad=True):
        if self._cache is None:
            raise StateError("batch norm backward needs a training-mode forward since its last backward")
        x_hat, inv_std = self._cache
        self._cache = None  # x_hat is overwritten below
        d = dout.reshape(x_hat.shape)
        m = d.shape[0]
        dbeta = np.einsum("ij->j", d)
        dgamma = np.einsum("ij,ij->j", d, x_hat)
        self.grads["gamma"] = dgamma
        self.grads["beta"] = dbeta
        dx = np.multiply(d, m, out=_writable(d, self.in_place))
        dx -= dbeta
        x_hat *= dgamma
        dx -= x_hat
        dx *= self.params["gamma"] * inv_std / m
        return dx.reshape(dout.shape)


class MaxPoolFreq(Layer):
    """Max pooling on the frequency axis only; time resolution is preserved.

    (S, T, B, F) -> (S, T, B//factor, F); ties go to the lowest bin index and
    the backward pass routes each gradient to its argmax.
    """

    kind = "max_pool_freq"
    settings = ("factor",)

    def __init__(self, factor: int):
        super().__init__()
        if factor < 1:
            raise RangeError(f"pool factor must be >= 1, got {factor}")
        self.factor = factor
        self._cache = None

    def forward(self, x, training=False, rng=None):
        s, t, b, f = x.shape
        if b % self.factor:
            raise ShapeError(f"pool factor {self.factor} does not divide {b} bins")
        m = x.reshape(s, t, b // self.factor, self.factor, f)
        # one elementwise maximum per tap reads x in place: a reduction over
        # the inner tap axis is slower, and argmax copies x to a contiguous
        # layout first
        out = m[:, :, :, 0].copy()
        for k in range(1, self.factor):
            np.maximum(out, m[:, :, :, k], out=out)
        self._cache = None
        if training:
            # first argmax: the taps run last to first, so a tie keeps the
            # lowest index. A NaN max equals no tap and leaves the zero
            # start, which is still a valid index.
            arg = np.zeros(out.shape, dtype=np.min_scalar_type(self.factor - 1))
            for k in reversed(range(self.factor)):
                arg[m[:, :, :, k] == out] = k
            self._cache = (arg, x.shape)
        return out

    def backward(self, dout, input_grad=True):
        if self._cache is None:
            raise StateError("max pool backward requires a training-mode forward")
        arg, shape = self._cache
        s, t, b, f = shape
        dm = np.zeros((s, t, b // self.factor, self.factor, f))
        np.put_along_axis(dm, arg[:, :, :, None, :], dout[:, :, :, None, :], axis=3)
        return dm.reshape(shape)


class Dropout(Layer):
    """Inverted dropout: identity at inference, mask/keep scaling in training."""

    kind = "dropout"
    settings = ("rate",)

    def __init__(self, rate: float):
        super().__init__()
        if not 0.0 <= rate < 1.0:
            raise RangeError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = rate
        self._mask = None

    def forward(self, x, training=False, rng=None):
        if not training or self.rate == 0.0:
            self._mask = None
            return x
        if rng is None:
            raise StateError("dropout in training mode needs the run's generator")
        keep = 1.0 - self.rate
        self._mask = (rng.random(x.shape) >= self.rate) / keep
        return x * self._mask

    def backward(self, dout, input_grad=True):
        if self._mask is None:
            return dout
        return dout * self._mask


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
        self._cache = (x, w, u_rec, hs, gates, rh)
        return np.concatenate((hs[0, :, 1:], hs[1, :, :0:-1]), axis=2)

    def backward(self, dout, input_grad=True):
        if self._cache is None:
            raise StateError("bigru backward before forward")
        x, w, u_rec, hs, gates, rh = self._cache
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
        self._cache = (x, out)
        return out

    def backward(self, dout, input_grad=True):
        if self._cache is None:
            raise StateError("time dense backward before forward")
        x, out = self._cache
        dz = _ACTIVATION_TABLE[self.activation][1](dout, out)
        x2 = x.reshape(-1, self.in_dim)
        dz2 = dz.reshape(-1, self.units)
        self.grads["W"] = x2.T @ dz2
        self.grads["b"] = dz2.sum(axis=0)
        return dz @ self.params["W"].T


LAYER_TYPES = {cls.kind: cls for cls in Layer.__subclasses__()}


def layer_from_descriptor(desc: dict) -> Layer:
    kind = desc.get("type")
    if kind not in LAYER_TYPES:
        raise ShapeError(f"unknown layer type {kind!r}")
    kwargs = {k: v for k, v in desc.items() if k != "type"}
    return LAYER_TYPES[kind](**kwargs)
