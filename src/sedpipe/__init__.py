"""Polyphonic sound event detection toolkit.

Single-channel and binaural audio features feed a stacked convolutional
recurrent network, trained from scratch in numpy, and predictions are scored
with segment-based error rate and F-score.
"""

__version__ = "0.1.0"

import os

# one BLAS thread unless the caller chose a count: byte-identical runs hold
# only at a fixed count, and the GRU's small per-step products run slower on
# more threads. BLAS reads these once, when numpy first
# loads, so this must come before any numpy import.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from . import audio_io, config, dsp, experiment, features, metrics, nn, synth  # noqa: F401
from .errors import SedError  # noqa: F401
