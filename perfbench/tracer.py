"""Span tracing of calls into sedpipe's modules, installed from outside.

Nothing here edits the program: the installers replace module attributes
(and, for layers, each instance's ``forward`` and ``backward``) with
wrappers that record one span per call: name, start, end and the index of
the enclosing span. A name is looked up wherever the caller looks it up, so
a function that a module imported by name is wrapped in that module too.

Spans stay in memory. ``Tracer.metrics`` folds them into per-layer values:
self time (a span's duration minus what its direct children cover), call
counts, and counts computed from argument shapes, which repeat exactly.
"""

from __future__ import annotations

import math
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager

MIB = float(1 << 20)


class Tracer:
    """Span recorder for one worker process.

    ``label`` names the input shape (``mbe``, ``bin-fft-small``,
    ``protocol``) and suffixes every ``nn`` metric. With ``track_memory``
    each layer call also records its tracemalloc peak above the memory
    already held when it started.
    """

    def __init__(self, label: str, track_memory: bool = False):
        self.label = label
        self.track_memory = track_memory
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._open: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.peaks: dict[str, float] = defaultdict(float)
        if track_memory:
            tracemalloc.start()

    @contextmanager
    def span(self, name: str):
        span = [name, 0.0, 0.0, self._open[-1] if self._open else -1]
        self._open.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        try:
            yield
        finally:
            span[2] = time.perf_counter()
            self._open.pop()

    def enclosing(self, prefix: str) -> str | None:
        """Name of the innermost open span starting with ``prefix``."""
        for idx in reversed(self._open):
            if self.spans[idx][0].startswith(prefix):
                return self.spans[idx][0]
        return None

    def wrap(self, owner, attr: str, name: str, label=None, after=None) -> None:
        """Replace ``owner.attr`` by a spanning wrapper.

        ``label(args, kwargs)`` suffixes the span name; ``after(args, kwargs,
        result)`` records counts once the call has returned.
        """
        fn = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            full = name if label is None else f"{name}.{label(args, kwargs)}"
            with self.span(full):
                result = fn(*args, **kwargs)
            if after is not None:
                after(args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)

    def count(self, name: str, value: float = 1.0) -> None:
        self.counts[name] += value

    def instrument_model(self, model) -> None:
        """Wrap ``forward`` and ``backward`` of every layer instance."""
        for layer in model.layers:
            kind = type(layer).__name__
            for phase in ("forward", "backward"):
                setattr(layer, phase, self._layer_call(layer, kind, phase, getattr(layer, phase)))

    def _layer_call(self, layer, kind: str, phase: str, fn):
        name = f"nn.{kind}.{phase}.s.{self.label}"
        peak_name = f"nn.{kind}.peak_mib.{self.label}"

        def wrapper(x, *args, **kwargs):
            if kind == "Conv2D":
                self._conv_counts(layer, phase, x.shape)
            if self.track_memory:
                held = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
            with self.span(name):
                out = fn(x, *args, **kwargs)
            if self.track_memory:
                peak = (tracemalloc.get_traced_memory()[1] - held) / MIB
                self.peaks[peak_name] = max(self.peaks[peak_name], peak)
            return out

        return wrapper

    def _conv_counts(self, layer, phase: str, shape) -> None:
        """3x3 conv work from shapes: forward is 2*S*T*B*Cin*9*Cout flops,
        backward twice that (kernel and input gradients). The window tensor
        is S*T*B*C*9 float64 values, C = Cin forward and Cout backward."""
        s, t, b, _ = shape
        macs = s * t * b * layer.in_channels * 9 * layer.filters
        self.count(f"nn.Conv2D.gflop_computed.{self.label}", (2 if phase == "forward" else 4) * macs / 1e9)
        channels = layer.in_channels if phase == "forward" else layer.filters
        key = f"nn.Conv2D.window_mib_computed.{self.label}"
        self.peaks[key] = max(self.peaks[key], s * t * b * channels * 9 * 8 / MIB)

    def metrics(self) -> dict[str, float]:
        """Self time per span name, plus recorded counts and peaks."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, start, end, _), child in zip(self.spans, covered):
            out[name] += (end - start) - child
        out.update(self.counts)
        out.update(self.peaks)
        return dict(out)


def _arg(args, kwargs, index: int, key: str):
    return kwargs[key] if key in kwargs else args[index]


def install_features(tr: Tracer) -> None:
    """``features.extract`` and the ``dsp`` calls under it.

    ``features`` reaches ``dsp`` through the module attribute, so wrapping
    ``sedpipe.dsp`` is enough; ``cli`` and ``experiment`` call
    ``feats.extract`` the same way.
    """
    from sedpipe import dsp, features

    def stft_counts(args, kwargs, result):
        fft_size = _arg(args, kwargs, 2, "fft_size")
        cls = (tr.enclosing("features.extract.s.") or "features.extract.s.none").rsplit(".s.", 1)[1]
        frames = result.shape[0]
        tr.count(f"dsp.stft.frames.{cls}", frames)
        tr.count(f"dsp.fft_gflop_computed.{cls}", frames * 5 * fft_size * math.log2(fft_size) / 1e9)

    tr.wrap(dsp, "stft", "dsp.stft.s", label=lambda a, k: _arg(a, k, 2, "fft_size"), after=stft_counts)
    tr.wrap(dsp, "log_mel_energies", "dsp.log_mel_energies.s")
    tr.wrap(dsp, "mel_filterbank", "dsp.mel_filterbank.s")
    tr.wrap(
        features, "extract", "features.extract.s",
        label=lambda a, k: _arg(a, k, 1, "feature_class"),
        after=lambda a, k, r: tr.count("features.extract.calls"),
    )


def install_step(tr: Tracer) -> None:
    """Loss and optimizer of a hand-driven train step (the ``train``
    workloads call ``sedpipe.nn.loss.bce_loss`` through its module)."""
    from sedpipe.nn import loss, optim

    tr.wrap(loss, "bce_loss", f"nn.loss.bce_loss.s.{tr.label}")
    tr.wrap(optim.Adam, "step", f"nn.optim.Adam.step.s.{tr.label}")


def install_pipeline(tr: Tracer) -> None:
    """Every boundary the CLI desk pipeline crosses."""
    from sedpipe import audio_io, cli, experiment, features, metrics, synth
    from sedpipe.nn import optim, training

    install_features(tr)
    tr.wrap(synth, "synth_dataset", "synth.synth_dataset.s")
    tr.wrap(cli, "write_wav", "audio_io.write_wav.s")
    for owner in (cli, experiment, audio_io):
        tr.wrap(owner, "read_wav", "audio_io.read_wav.s", after=lambda a, k, r: tr.count("audio_io.read_wav.calls"))
    tr.wrap(features, "save_feature_archive", "features.save_feature_archive.s")
    tr.wrap(
        features, "load_feature_archive", "features.load_feature_archive.s",
        after=lambda a, k, r: tr.count("features.load_feature_archive.calls"),
    )
    tr.wrap(experiment, "fit_normalizer", "features.fit_normalizer.s")
    tr.wrap(experiment, "chunk_sequences", "features.chunk_sequences.s")

    build = experiment.build_crnn

    def build_instrumented(*args, **kwargs):
        model = build(*args, **kwargs)
        tr.instrument_model(model)
        return model

    experiment.build_crnn = build_instrumented
    tr.wrap(training, "bce_loss", f"nn.loss.bce_loss.s.{tr.label}")
    tr.wrap(optim.Adam, "step", f"nn.optim.Adam.step.s.{tr.label}")
    tr.wrap(
        experiment, "train", "nn.training.train.s",
        after=lambda a, k, r: tr.count("nn.training.epochs", r[1].n_epochs),
    )
    tr.wrap(training, "monitor_scores", "nn.training.monitor_scores.s")
    tr.wrap(cli, "save_checkpoint", "nn.model.save_checkpoint.s")
    tr.wrap(metrics, "evaluate", "metrics.evaluate.s", after=lambda a, k, r: tr.count("metrics.evaluate.calls"))
    tr.wrap(metrics, "evaluate_pooled", "metrics.evaluate_pooled.s")
    tr.wrap(experiment, "run_fold", "experiment.run_fold.s", after=lambda a, k, r: tr.count("experiment.run_fold.calls"))
