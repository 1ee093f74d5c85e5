"""Polyphonic sound event detection toolkit.

Single-channel and binaural audio features feed a stacked convolutional
recurrent network, trained from scratch in numpy, and predictions are scored
with segment-based error rate and F-score.
"""

__version__ = "0.1.0"

import logging
import os
import sys

# one BLAS thread unless the caller chose a count: byte-identical runs hold
# only at a fixed count, and the GRU's small per-step products run slower on
# more threads. BLAS reads these once, when numpy first
# loads, so this must come before any numpy import.
_unset = [v for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS") if v not in os.environ]
if _unset and "numpy" in sys.modules:
    logging.getLogger(__name__).warning(
        "numpy was imported before sedpipe with %s unset, too late to pin BLAS to one thread",
        ", ".join(_unset),
    )
for _var in _unset:
    os.environ[_var] = "1"

from . import audio_io, config, dsp, experiment, features, metrics, nn, synth  # noqa: F401
from .errors import SedError  # noqa: F401
