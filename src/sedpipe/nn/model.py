"""Model graphs: the stacked convolutional-recurrent network, the dense
baseline, and checkpoint serialization."""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass

import numpy as np

from ..audio_io import atomic_write
from ..config import ModelConfig
from ..errors import CheckpointError, ConfigError, ShapeError
from ..features import FeatureTensor, Normalizer
from .layers import (
    BatchNorm,
    BiGRU,
    Conv2D,
    ConvBlock,
    Dropout,
    FlattenFreq,
    Layer,
    MaxPoolFreq,
    TimeDense,
    layer_from_descriptor,
)

_CHECKPOINT_MAGIC = b"SEDM"
_CHECKPOINT_VERSION = 1


class ModelGraph:
    """An ordered layer stack with a parameter registry.

    Parameters are addressed as ``"<layer index>.<name>"``; buffers (batch
    norm running statistics) ride along in snapshots and checkpoints so a
    restored model reproduces inference bit for bit.

    Each (conv, batch norm, frequency max pool) triple runs as one
    :class:`ConvBlock` over its three layers, which pools before batch
    norm's scale and shift and overwrites only the conv's fresh output; a
    batch norm or pool outside such a triple raises :class:`ShapeError`. No
    step writes its argument, so the caller's input and output gradient
    are never written.
    """

    def __init__(self, layers: list[Layer]):
        self.layers = layers
        # (index of the step's first layer, the layer or the conv block)
        self._steps: list[tuple[int, Layer | ConvBlock]] = []
        i = 0
        while i < len(layers):
            trio = layers[i : i + 3]
            if [type(layer) for layer in trio] == [Conv2D, BatchNorm, MaxPoolFreq]:
                self._steps.append((i, ConvBlock(*trio)))
                i += 3
            elif isinstance(layers[i], (BatchNorm, MaxPoolFreq)):
                raise ShapeError(f"layer {i} ({layers[i].kind}) runs only in a conv2d, batch_norm, max_pool_freq triple")
            else:
                self._steps.append((i, layers[i]))
                i += 1

    def forward(self, x, training=False, rng=None):
        for _, step in self._steps:
            x = step.forward(x, training=training, rng=rng)
        return x

    def backward(self, dout) -> None:
        """Fill every layer's ``grads``. The first layer computes no input
        gradient: nothing reads the gradient of the model's input."""
        for i, step in reversed(self._steps):
            dout = step.backward(dout, input_grad=i > 0)

    def parameters(self):
        for i, layer in enumerate(self.layers):
            for name, p in layer.params.items():
                yield f"{i}.{name}", p

    def gradient(self, key: str) -> np.ndarray:
        idx, name = key.split(".", 1)
        return self.layers[int(idx)].grads[name]

    def state_arrays(self):
        """Each layer's parameters then its buffers, in declaration order,
        for serialization."""
        for i, layer in enumerate(self.layers):
            for name, arr in layer.params.items():
                yield f"{i}.{name}", arr
            for name, arr in layer.buffers.items():
                yield f"{i}.buffer.{name}", arr

    def snapshot(self) -> dict[str, np.ndarray]:
        return {key: arr.copy() for key, arr in self.state_arrays()}

    def restore(self, snap: dict[str, np.ndarray]) -> None:
        for key, arr in self.state_arrays():
            np.copyto(arr, snap[key])

    def descriptor(self) -> list[dict]:
        return [layer.descriptor() for layer in self.layers]

    @classmethod
    def from_descriptor(cls, descriptors: list[dict]) -> "ModelGraph":
        return cls([layer_from_descriptor(d) for d in descriptors])

    def n_parameters(self) -> int:
        return sum(p.size for _, p in self.parameters())


@dataclass(frozen=True, kw_only=True)
class CrnnArch(ModelConfig):
    """The ``[model]`` section sized to the data, for :func:`build_crnn`;
    construction raises :class:`ConfigError` for any architecture that
    cannot be built.

    ``pool_factors`` must multiply to ``n_bins // 2`` so the conv block ends
    at (T, 2, filters); leave it empty to derive a plan automatically.
    """

    n_bins: int
    n_channels: int
    n_classes: int

    def __post_init__(self):
        super().__post_init__()
        validate_pools(self.n_bins, self.pools)

    @property
    def pools(self) -> tuple[int, ...]:
        return self.pool_factors or pool_plan(self.n_bins, self.conv_layers)


def pool_plan(n_bins: int, conv_layers: int) -> tuple[int, ...]:
    """Factor ``n_bins // 2`` into ``conv_layers`` pooling factors.

    Greedy largest-prime-first assignment to the currently smallest bucket;
    40 bins over 3 layers gives (5, 2, 2) and 1024 over 3 gives (8, 8, 8).
    """
    if conv_layers < 1:
        raise ConfigError(f"need at least one conv layer, got {conv_layers}")
    if n_bins % 2:
        raise ConfigError(f"bin count {n_bins} is odd; pooling cannot end at 2 bins")
    target = n_bins // 2
    primes = []
    rest = target
    p = 2
    while p * p <= rest:
        while rest % p == 0:
            primes.append(p)
            rest //= p
        p += 1
    if rest > 1:
        primes.append(rest)
    buckets = [1] * conv_layers
    for prime in sorted(primes, reverse=True):
        buckets[int(np.argmin(buckets))] *= prime
    if int(np.prod(buckets)) != target:
        raise ConfigError(f"cannot factor {target} into {conv_layers} pooling stages")
    return tuple(sorted(buckets, reverse=True))


def validate_pools(n_bins: int, pool_factors: tuple[int, ...]) -> None:
    b = n_bins
    for f in pool_factors:
        if f < 1 or b % f:
            raise ConfigError(f"pool factors {pool_factors} do not divide {n_bins} bins stagewise")
        b //= f
    if b != 2:
        raise ConfigError(
            f"pool factors {pool_factors} reduce {n_bins} bins to {b}, not to the required 2"
        )


def build_crnn(arch: CrnnArch, rng: np.random.Generator) -> ModelGraph:
    """conv(+bn+pool+dropout) stack -> flatten -> bigru stack -> dense stack
    -> sigmoid head of ``n_classes`` units."""
    layers: list[Layer] = []
    in_ch = arch.n_channels
    for pool in arch.pools:
        layers.append(Conv2D(in_ch, arch.filters, rng=rng))
        layers.append(BatchNorm(arch.filters))
        layers.append(MaxPoolFreq(pool))
        layers.append(Dropout(arch.dropout))
        in_ch = arch.filters
    layers.append(FlattenFreq())
    width = 2 * arch.filters
    for _ in range(arch.gru_layers):
        layers.append(BiGRU(width, arch.gru_units, rng=rng))
        layers.append(Dropout(arch.dropout))
        width = 2 * arch.gru_units
    for _ in range(arch.dense_layers):
        layers.append(TimeDense(width, arch.dense_units, activation="linear", rng=rng))
        layers.append(Dropout(arch.dropout))
        width = arch.dense_units
    layers.append(TimeDense(width, arch.n_classes, activation="sigmoid", rng=rng))
    return ModelGraph(layers)


def build_baseline_mlp(
    n_classes: int,
    n_mels: int = 40,
    context: int = 5,
    hidden: int = 50,
    dropout_rate: float = 0.2,
    rng: np.random.Generator | None = None,
) -> ModelGraph:
    """Frame-wise dense baseline over stacked context windows.

    Input is (S, T, n_mels*context, 1); two hidden layers, one dropout, then
    the sigmoid head. With the defaults the input width is 200 = 40*5.
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    width = n_mels * context
    return ModelGraph(
        [
            FlattenFreq(),
            TimeDense(width, hidden, activation="relu", rng=rng),
            TimeDense(hidden, hidden, activation="relu", rng=rng),
            Dropout(dropout_rate),
            TimeDense(hidden, n_classes, activation="sigmoid", rng=rng),
        ]
    )


def mbe_context_windows(tensor, context: int = 5) -> np.ndarray:
    """Stack ``context`` neighbouring mbe frames per step, edges replicated.

    (F, n_mels, 1) -> (F, n_mels*context, 1), centered windows.
    """
    if isinstance(tensor, FeatureTensor):
        if tensor.feature_class != "mbe":
            raise ConfigError(f"the baseline takes mbe features, got {tensor.feature_class!r}")
        data = tensor.data
    else:
        data = np.asarray(tensor)
    if data.ndim != 3 or data.shape[2] != 1:
        raise ShapeError(f"expected (F, B, 1) features, got shape {data.shape}")
    f, b, _ = data.shape
    half = context // 2
    idx = np.clip(np.arange(f)[:, None] + np.arange(-half, context - half), 0, f - 1)
    return data[idx, :, 0].reshape(f, context * b, 1)


def save_checkpoint(model: ModelGraph, path, normalizer: Normalizer | None = None) -> None:
    """Checkpoint layout: magic, version, JSON architecture descriptor, raw
    float64 parameter/buffer payload in declaration order, then optional
    normalizer statistics. The file is written through :func:`atomic_write`."""
    desc = json.dumps(model.descriptor(), sort_keys=True, separators=(",", ":")).encode("utf-8")
    with atomic_write(path) as fh:
        fh.write(_CHECKPOINT_MAGIC)
        fh.write(struct.pack("<HI", _CHECKPOINT_VERSION, len(desc)))
        fh.write(desc)
        for _, arr in model.state_arrays():
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())
        if normalizer is None:
            fh.write(struct.pack("<B", 0))
        else:
            fh.write(struct.pack("<B", 1))
            shape = normalizer.mean.shape
            fh.write(struct.pack("<B" + "I" * len(shape), len(shape), *shape))
            fh.write(np.ascontiguousarray(normalizer.mean, dtype="<f8").tobytes())
            fh.write(np.ascontiguousarray(normalizer.std, dtype="<f8").tobytes())


def load_checkpoint(path, expect_descriptor: list[dict] | None = None):
    """Rebuild (model, normalizer) from a checkpoint file.

    ``expect_descriptor`` (e.g. the architecture a config implies) is
    checked against the stored descriptor and any mismatch is rejected. A
    file that ends early is a :class:`CheckpointError` naming the part it
    cut.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    pos = 0

    def take(n: int, what: str) -> bytes:
        nonlocal pos
        if pos + n > len(raw):
            raise CheckpointError(f"{path}: truncated {what}")
        pos += n
        return raw[pos - n : pos]

    if raw[:4] != _CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: not a model checkpoint")
    take(4, "magic")
    version, desc_len = struct.unpack("<HI", take(6, "header"))
    if version != _CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
    try:
        descriptors = json.loads(take(desc_len, "architecture descriptor").decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path}: corrupt architecture descriptor") from exc
    if expect_descriptor is not None and descriptors != expect_descriptor:
        raise CheckpointError(f"{path}: architecture descriptor does not match the expected one")
    if not isinstance(descriptors, list):
        raise CheckpointError(f"{path}: architecture descriptor is not a list of layers")
    try:
        model = ModelGraph.from_descriptor(descriptors)
    except CheckpointError as exc:
        raise CheckpointError(f"{path}: {exc}") from None
    for key, arr in model.state_arrays():
        chunk = take(arr.size * 8, f"parameter payload at {key}")
        np.copyto(arr, np.frombuffer(chunk, dtype="<f8").reshape(arr.shape))

    (has_norm,) = take(1, "normalizer trailer")
    normalizer = None
    if has_norm:
        (ndim,) = take(1, "normalizer shape")
        shape = struct.unpack("<" + "I" * ndim, take(4 * ndim, "normalizer shape"))
        count = int(np.prod(shape)) if shape else 1
        mean = np.frombuffer(take(count * 8, "normalizer mean"), dtype="<f8").reshape(shape)
        std = np.frombuffer(take(count * 8, "normalizer std"), dtype="<f8").reshape(shape)
        normalizer = Normalizer(mean=mean.copy(), std=std.copy())
    if pos != len(raw):
        raise CheckpointError(f"{path}: {len(raw) - pos} trailing bytes")
    return model, normalizer
