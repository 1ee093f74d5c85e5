"""Model graphs: the stacked convolutional-recurrent network, the dense
baseline, and checkpoint serialization."""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from ..audio_io import read_arrays, write_arrays
from ..config import ModelConfig
from ..errors import CheckpointError, ConfigError, ShapeError
from ..features import Normalizer
from .layers import BiGRU, ConvBlock, Dropout, FlattenFreq, Layer, TimeDense, layer_from_descriptor


class ModelGraph:
    """An ordered layer stack with a parameter registry.

    Parameters are addressed as ``"<layer index>.<name>"``; buffers (batch
    norm running statistics) ride along in snapshots and checkpoints so a
    restored model reproduces inference bit for bit. ``forward`` casts its
    input once to the parameters' :attr:`dtype`. No layer writes its
    argument, so the caller's input and output gradient are never written.
    """

    def __init__(self, layers: list[Layer]):
        self.layers = layers

    @property
    def dtype(self) -> np.dtype | None:
        """The dtype of the parameters, which every layer computes in; None
        for a graph without parameters."""
        return next((p.dtype for _, p in self.parameters()), None)

    def astype(self, dtype) -> "ModelGraph":
        """Cast every parameter and buffer to ``dtype`` and return the graph."""
        for layer in self.layers:
            layer.astype(dtype)
        return self

    def forward(self, x, training=False, rng=None):
        x = np.asarray(x, dtype=self.dtype)
        for layer in self.layers:
            x = layer.forward(x, training=training, rng=rng)
        return x

    def backward(self, dout) -> None:
        """Fill every layer's ``grads``. The first layer computes no input
        gradient: nothing reads the gradient of the model's input."""
        for i in reversed(range(len(self.layers))):
            dout = self.layers[i].backward(dout, input_grad=i > 0)

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
    """conv block (+dropout) stack -> flatten -> bigru stack -> dense stack
    -> sigmoid head of ``n_classes`` units, in float32. The weights are
    drawn in float64, so a seed gives the float64 draws of every dtype."""
    layers: list[Layer] = []
    in_ch = arch.n_channels
    for pool in arch.pools:
        layers.append(ConvBlock(in_ch, arch.filters, pool, rng=rng))
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
    return ModelGraph(layers).astype(np.float32)


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
    the sigmoid head, in float32. With the defaults the input width is
    200 = 40*5.
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
    ).astype(np.float32)


def mbe_context_windows(data: np.ndarray, context: int = 5) -> np.ndarray:
    """Stack ``context`` neighbouring mbe frames per step, edges replicated.

    (F, n_mels, 1) -> (F, n_mels*context, 1), centered windows.
    """
    if data.ndim != 3 or data.shape[2] != 1:
        raise ShapeError(f"expected (F, B, 1) features, got shape {data.shape}")
    f, b, _ = data.shape
    half = context // 2
    idx = np.clip(np.arange(f)[:, None] + np.arange(-half, context - half), 0, f - 1)
    return data[idx, :, 0].reshape(f, context * b, 1)


def save_checkpoint(model: ModelGraph, path, normalizer: Normalizer | None = None) -> None:
    """Write the ``.npz`` checkpoint: the JSON architecture ``descriptor``,
    each :meth:`ModelGraph.state_arrays` key in the model's dtype and, given
    a normalizer, ``normalizer.mean`` and ``normalizer.std``, through
    :func:`~sedpipe.audio_io.write_arrays`."""
    arrays = dict(model.state_arrays())
    if normalizer is not None:
        arrays.update({"normalizer.mean": normalizer.mean, "normalizer.std": normalizer.std})
    write_arrays(path, descriptor=json.dumps(model.descriptor(), sort_keys=True, separators=(",", ":")), **arrays)


def load_checkpoint(path):
    """Rebuild (model, normalizer) from a checkpoint file, in the dtype of
    its first model array when that is float32 or float64. A bad
    descriptor, an array that is missing, extra, misshapen, not finite or
    not of that dtype (float64 for the normalizer), or a normalizer std
    that is not positive, is a :class:`CheckpointError` naming the file."""
    arrays = read_arrays(path, CheckpointError)
    try:
        descriptors = json.loads(str(arrays.pop("descriptor")))
    except (KeyError, ValueError) as exc:
        raise CheckpointError(f"{path}: no valid architecture descriptor") from exc
    if not isinstance(descriptors, list):
        raise CheckpointError(f"{path}: architecture descriptor is not a list of layers")
    try:
        model = ModelGraph.from_descriptor(descriptors)
    except CheckpointError as exc:
        raise CheckpointError(f"{path}: {exc}") from None

    def take(key: str, shape: tuple[int, ...] | None, dtype: np.dtype) -> np.ndarray:
        """The stored ``key`` array: of ``dtype``, and of ``shape`` unless it is None."""
        arr = arrays.pop(key, None)
        if arr is None:
            raise CheckpointError(f"{path}: no {key} array")
        shape = arr.shape if shape is None else shape
        if arr.dtype != dtype or arr.shape != shape:
            raise CheckpointError(f"{path}: {key} is {arr.dtype} {arr.shape}, expected {dtype} {shape}")
        if not np.isfinite(arr).all():
            raise CheckpointError(f"{path}: {key} holds non-finite values")
        return arr

    first = next((arrays.get(key) for key, _ in model.state_arrays()), None)
    model.astype(first.dtype if first is not None and first.dtype in (np.float32, np.float64) else np.float64)
    for key, arr in model.state_arrays():
        np.copyto(arr, take(key, arr.shape, arr.dtype))
    normalizer = None
    if {"normalizer.mean", "normalizer.std"} & arrays.keys():
        mean = take("normalizer.mean", None, np.dtype(np.float64))
        try:
            normalizer = Normalizer(mean=mean, std=take("normalizer.std", mean.shape, mean.dtype))
        except ShapeError as exc:  # shapes already match, so a std entry is not positive
            raise CheckpointError(f"{path}: normalizer.std: {exc}") from None
    if arrays:
        raise CheckpointError(f"{path}: unexpected arrays {sorted(arrays)}")
    return model, normalizer
