"""From-scratch neural network stack: layers with exact backprop, Adam,
masked cross-entropy, CRNN/baseline builders and the training loop."""

from .layers import (
    ACTIVATIONS,
    BiGRU,
    Conv2D,
    ConvBlock,
    Dropout,
    FlattenFreq,
    Layer,
    TimeDense,
    sigmoid,
)
from .loss import bce_loss
from .model import (
    CrnnArch,
    ModelGraph,
    build_baseline_mlp,
    build_crnn,
    load_checkpoint,
    mbe_context_windows,
    pool_plan,
    save_checkpoint,
    validate_pools,
)
from .optim import Adam
from .training import TrainHistory, monitor_scores, train

