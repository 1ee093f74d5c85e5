"""Network layers with exact forward/backward passes in double precision.

Array conventions: the convolutional block works on (S, T, B, F) volumes
(batch, time, frequency bins, feature maps); the recurrent and dense block
works on (S, T, D). Every layer caches what its backward pass needs during
forward, so forward/backward pairs must not interleave across calls.
"""

from __future__ import annotations

import numpy as np

from ..errors import RangeError, ShapeError, StateError


def sigmoid(x):
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


# sigmoid outputs are clamped into this interval so the cross-entropy and
# its gradient stay finite at saturation
SIGMOID_CLAMP = 1e-7


def uniform_init(rng: np.random.Generator, shape, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, shape)


class Layer:
    """Base: subclasses fill ``params``/``grads`` dicts and declare
    ``param_order`` (and ``buffer_order`` for non-trained state)."""

    param_order: tuple[str, ...] = ()
    buffer_order: tuple[str, ...] = ()

    def __init__(self):
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}
        self.buffers: dict[str, np.ndarray] = {}

    def forward(self, x, training=False, rng=None):
        raise NotImplementedError

    def backward(self, dout):
        raise NotImplementedError

    def descriptor(self) -> dict:
        raise NotImplementedError

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

    param_order = ("kernels",)

    def __init__(self, in_channels: int, filters: int, rng: np.random.Generator | None = None):
        super().__init__()
        self.in_channels = in_channels
        self.filters = filters
        fan_in = 9 * in_channels
        fan_out = 9 * filters
        if rng is None:
            kernels = np.zeros((filters, 3, 3, in_channels))
        else:
            kernels = uniform_init(rng, (filters, 3, 3, in_channels), fan_in, fan_out)
        self.params = {"kernels": kernels}
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

    def backward(self, dout):
        if self._cache is None:
            raise StateError("conv2d backward before forward")
        xp = self._cache
        s, t, b, n = dout.shape
        k = self.params["kernels"]
        kmat = k.reshape(n, -1)
        dk = np.zeros_like(kmat)
        dxp = np.zeros_like(xp)
        for q in range(s):
            d = dout[q].reshape(t * b, n)
            dk += d.T @ _im2col(xp[q])
            # col2im: each of the nine kernel taps adds its column gradient
            # back at its shifted position in the padded input
            dcols = (d @ kmat).reshape(t, b, 3, 3, self.in_channels)
            for i in range(3):
                for j in range(3):
                    dxp[q, i : i + t, j : j + b] += dcols[:, :, i, j]
        self.grads["kernels"] = dk.reshape(k.shape)
        return dxp[:, 1:-1, 1:-1]

    def descriptor(self):
        return {"type": "conv2d", "in_channels": self.in_channels, "filters": self.filters}


class BatchNorm(Layer):
    """Per-feature-map normalization over all leading axes.

    Training mode normalizes with batch statistics and folds them into the
    running estimates (momentum 0.9); inference normalizes with the running
    estimates and fails if none exist yet.
    """

    param_order = ("gamma", "beta")
    buffer_order = ("running_mean", "running_var", "updates")

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
            x_hat = x2 - mean
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
            out = x2 * scale
            out += beta - self.buffers["running_mean"] * scale
        return out.reshape(x.shape)

    def backward(self, dout):
        if self._cache is None:
            raise StateError("batch norm backward requires a training-mode forward")
        x_hat, inv_std = self._cache
        d = dout.reshape(x_hat.shape)
        m = d.shape[0]
        dbeta = np.einsum("ij->j", d)
        dgamma = np.einsum("ij,ij->j", d, x_hat)
        self.grads["gamma"] = dgamma
        self.grads["beta"] = dbeta
        dx = d * m
        dx -= dbeta
        dx -= x_hat * dgamma
        dx *= self.params["gamma"] * inv_std / m
        return dx.reshape(dout.shape)

    def descriptor(self):
        return {
            "type": "batch_norm",
            "n_features": self.n_features,
            "eps": self.eps,
            "momentum": self.momentum,
        }


class MaxPoolFreq(Layer):
    """Max pooling on the frequency axis only; time resolution is preserved.

    (S, T, B, F) -> (S, T, B//factor, F); ties go to the lowest bin index and
    the backward pass routes each gradient to its argmax.
    """

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
        arg = m.argmax(axis=3)
        self._cache = (arg, x.shape)
        return np.take_along_axis(m, arg[:, :, :, None, :], axis=3)[:, :, :, 0, :]

    def backward(self, dout):
        if self._cache is None:
            raise StateError("max pool backward before forward")
        arg, shape = self._cache
        s, t, b, f = shape
        dm = np.zeros((s, t, b // self.factor, self.factor, f))
        np.put_along_axis(dm, arg[:, :, :, None, :], dout[:, :, :, None, :], axis=3)
        return dm.reshape(shape)

    def descriptor(self):
        return {"type": "max_pool_freq", "factor": self.factor}


class Dropout(Layer):
    """Inverted dropout: identity at inference, mask/keep scaling in training."""

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

    def backward(self, dout):
        if self._mask is None:
            return dout
        return dout * self._mask

    def descriptor(self):
        return {"type": "dropout", "rate": self.rate}


class FlattenFreq(Layer):
    """(S, T, B, F) -> (S, T, B*F): joins the conv block to the recurrent one."""

    def __init__(self):
        super().__init__()
        self._shape = None

    def forward(self, x, training=False, rng=None):
        if x.ndim != 4:
            raise ShapeError(f"flatten expects a 4-D volume, got shape {x.shape}")
        self._shape = x.shape
        s, t, b, f = x.shape
        return x.reshape(s, t, b * f)

    def backward(self, dout):
        return dout.reshape(self._shape)

    def descriptor(self):
        return {"type": "flatten_freq"}


def _gate_columns(w):
    """(3, rows, U) gate stack -> (rows, 3U) with gate-major column blocks."""
    return w.transpose(1, 0, 2).reshape(w.shape[1], -1)


class BiGRU(Layer):
    """Bi-directional GRU, (S, T, D) -> (S, T, 2U).

    Each direction holds gate-stacked parameters ``W`` (3, D, U), ``U``
    (3, U, U) and ``b`` (3, U) in (z, r, c) order:
        z = sig(x W[0] + h U[0] + b[0])
        r = sig(x W[1] + h U[1] + b[1])
        c = tanh(x W[2] + (r*h) U[2] + b[2])
        h' = (1 - z)*h + z*c
    The backward direction runs over reversed time; outputs are concatenated
    on the feature axis. Backward computes full BPTT gradients: only the
    recurrent ``dh`` products run per step, and the input and weight
    gradients are whole-sequence GEMMs over the stored gate derivatives.
    """

    param_order = tuple(f"{d}_{n}" for d in ("fwd", "bwd") for n in ("W", "U", "b"))

    def __init__(self, in_dim: int, units: int, rng: np.random.Generator | None = None):
        super().__init__()
        if units < 1:
            raise RangeError(f"GRU units must be >= 1, got {units}")
        self.in_dim = in_dim
        self.units = units

        def init(rows):
            shape = (3, rows, units)
            return uniform_init(rng, shape, rows, units) if rng is not None else np.zeros(shape)

        self.params = {}
        for d in ("fwd", "bwd"):
            self.params[f"{d}_W"] = init(in_dim)
            self.params[f"{d}_U"] = init(units)
            self.params[f"{d}_b"] = np.zeros((3, units))
        self._cache = None

    def _direction(self, x, d):
        w, u_rec, b = (self.params[f"{d}_{n}"] for n in ("W", "U", "b"))
        s, t, _ = x.shape
        u = self.units
        ax = x @ _gate_columns(w) + b.reshape(-1)
        u_zr = _gate_columns(u_rec[:2])
        hs = np.zeros((s, t + 1, u))  # hs[:, i] is the state entering step i
        gates = np.empty((s, t, 3, u))  # z, r, c
        rh = np.empty((s, t, u))
        for i in range(t):
            h = hs[:, i]
            zr = sigmoid(ax[:, i, : 2 * u] + h @ u_zr)
            z, r = zr[:, :u], zr[:, u:]
            rh[:, i] = r * h
            c = np.tanh(ax[:, i, 2 * u :] + rh[:, i] @ u_rec[2])
            gates[:, i, 0] = z
            gates[:, i, 1] = r
            gates[:, i, 2] = c
            hs[:, i + 1] = (1.0 - z) * h + z * c
        return hs, gates, rh

    def _direction_backward(self, x, dhs, cache, d):
        w, u_rec = self.params[f"{d}_W"], self.params[f"{d}_U"]
        hs, gates, rh = cache
        s, t, _ = x.shape
        u = self.units
        u_zr_t = _gate_columns(u_rec[:2]).T
        uc_t = u_rec[2].T
        da = np.empty((s, t, 3 * u))  # pre-activation gradients, z | r | c
        dh = np.zeros((s, u))
        for i in reversed(range(t)):
            h_prev = hs[:, i]
            z, r, c = gates[:, i, 0], gates[:, i, 1], gates[:, i, 2]
            dh_total = dhs[:, i] + dh
            dac = dh_total * z * (1.0 - c * c)
            drh = dac @ uc_t
            da[:, i, :u] = dh_total * (c - h_prev) * z * (1.0 - z)
            da[:, i, u : 2 * u] = (drh * h_prev) * r * (1.0 - r)
            da[:, i, 2 * u :] = dac
            dh = dh_total * (1.0 - z) + drh * r + da[:, i, : 2 * u] @ u_zr_t
        st = ((0, 1), (0, 1))  # contract over batch and time
        grad_u = np.empty_like(u_rec)
        grad_u[:2] = np.tensordot(hs[:, :-1], da[:, :, : 2 * u], st).reshape(u, 2, u).transpose(1, 0, 2)
        grad_u[2] = np.tensordot(rh, da[:, :, 2 * u :], st)
        self.grads[f"{d}_W"] = np.tensordot(x, da, st).reshape(-1, 3, u).transpose(1, 0, 2)
        self.grads[f"{d}_U"] = grad_u
        self.grads[f"{d}_b"] = da.sum(axis=(0, 1)).reshape(3, u)
        return da @ _gate_columns(w).T

    def forward(self, x, training=False, rng=None):
        if x.ndim != 3 or x.shape[2] != self.in_dim:
            raise ShapeError(f"bigru expects (S, T, {self.in_dim}), got shape {x.shape}")
        x_rev = x[:, ::-1]
        cache_f = self._direction(x, "fwd")
        cache_b = self._direction(x_rev, "bwd")
        self._cache = (x, x_rev, cache_f, cache_b)
        return np.concatenate((cache_f[0][:, 1:], cache_b[0][:, :0:-1]), axis=2)

    def backward(self, dout):
        if self._cache is None:
            raise StateError("bigru backward before forward")
        x, x_rev, cache_f, cache_b = self._cache
        u = self.units
        dx_f = self._direction_backward(x, dout[:, :, :u], cache_f, "fwd")
        dx_b = self._direction_backward(x_rev, dout[:, ::-1, u:], cache_b, "bwd")
        return dx_f + dx_b[:, ::-1]

    def descriptor(self):
        return {"type": "bigru", "in_dim": self.in_dim, "units": self.units}


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
    """Shared dense map applied to every frame: out[t] = act(in[t] @ W + b)."""

    param_order = ("W", "b")

    def __init__(self, in_dim: int, units: int, activation: str = "linear",
                 rng: np.random.Generator | None = None):
        super().__init__()
        if activation not in ACTIVATIONS:
            raise RangeError(f"unknown activation {activation!r}")
        self.in_dim = in_dim
        self.units = units
        self.activation = activation
        w = (
            uniform_init(rng, (in_dim, units), in_dim, units)
            if rng is not None
            else np.zeros((in_dim, units))
        )
        self.params = {"W": w, "b": np.zeros(units)}
        self._cache = None

    def forward(self, x, training=False, rng=None):
        if x.ndim != 3 or x.shape[2] != self.in_dim:
            raise ShapeError(f"time dense expects (S, T, {self.in_dim}), got shape {x.shape}")
        out = _ACTIVATION_TABLE[self.activation][0](x @ self.params["W"] + self.params["b"])
        self._cache = (x, out)
        return out

    def backward(self, dout):
        if self._cache is None:
            raise StateError("time dense backward before forward")
        x, out = self._cache
        dz = _ACTIVATION_TABLE[self.activation][1](dout, out)
        x2 = x.reshape(-1, self.in_dim)
        dz2 = dz.reshape(-1, self.units)
        self.grads["W"] = x2.T @ dz2
        self.grads["b"] = dz2.sum(axis=0)
        return dz @ self.params["W"].T

    def descriptor(self):
        return {
            "type": "time_dense",
            "in_dim": self.in_dim,
            "units": self.units,
            "activation": self.activation,
        }


LAYER_TYPES = {
    "conv2d": Conv2D,
    "batch_norm": BatchNorm,
    "max_pool_freq": MaxPoolFreq,
    "dropout": Dropout,
    "flatten_freq": FlattenFreq,
    "bigru": BiGRU,
    "time_dense": TimeDense,
}


def layer_from_descriptor(desc: dict) -> Layer:
    kind = desc.get("type")
    if kind not in LAYER_TYPES:
        raise ShapeError(f"unknown layer type {kind!r}")
    kwargs = {k: v for k, v in desc.items() if k != "type"}
    return LAYER_TYPES[kind](**kwargs)
