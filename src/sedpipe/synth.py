"""Deterministic synthetic polyphonic audio for desk-scale experiments.

Each class is a band-limited template: a short harmonic stack at a distinct
fundamental plus a narrow band of random-phase sinusoids standing in for
filtered noise. Every class also carries a fixed left/right gain pair, so
binaural features see class identity even when the spectra do not. All
randomness flows from one integer seed; equal seeds give bit-identical
output.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .audio_io import AudioClip, Event, ManifestRow, event_frame_span
from .config import DataConfig, FeatureConfig

_HARMONIC_AMPS = (1.0, 0.5, 0.25)
_NOISE_PARTIALS = 12
_NOISE_LEVEL = 0.15
_RAMP_S = 0.01
_FRAME_S = FeatureConfig.hop_ms / 1000.0  # grid used for the polyphony cap: the default feature hop


@dataclass(frozen=True)
class SynthSpec(DataConfig):
    """The ``[data]`` section plus the event statistics the file does not
    set; its checks are the section's, so a bad value raises RangeError."""

    events_per_clip: tuple[int, int] = (4, 10)
    event_duration: tuple[float, float] = (0.4, 1.8)


def class_names(data: DataConfig) -> tuple[str, ...]:
    return tuple(f"class{i}" for i in range(data.class_count))


def manifest_rows(n_clips: int, folds: int) -> list[ManifestRow]:
    """The round-robin fold plan of clips ``clip000`` onwards, clip after
    clip: clip ``i`` is in group ``i % folds``, and fold ``k`` tests group
    ``k - 1``, validates on the next group when there are at least 3 folds,
    and trains on the rest."""
    rows = []
    for i in range(n_clips):
        group = i % folds
        for fold in range(1, folds + 1):
            if group == fold - 1:
                role = "test"
            elif folds >= 3 and group == fold % folds:
                role = "validation"
            else:
                role = "train"
            rows.append(ManifestRow(f"clip{i:03d}.wav", f"clip{i:03d}.tsv", fold, role))
    return rows


def class_fundamentals(spec: SynthSpec) -> np.ndarray:
    """Distinct fundamentals, log-spaced so the classes are mel-separable.

    The top fundamental stays well under Nyquist so harmonics and the noise
    band fit at any supported sample rate.
    """
    c = spec.class_count
    top = min(5000.0, 0.45 * spec.sample_rate / 2.0)
    low = min(180.0, top / 4.0)
    if c == 1:
        return np.array([np.sqrt(low * top)])
    return np.exp(np.linspace(np.log(low), np.log(top), c))


def class_gains(spec: SynthSpec) -> np.ndarray:
    """Fixed (left, right) gain per class, constant-sum so a mono downmix
    erases the inter-channel cue."""
    c = spec.class_count
    pan = np.linspace(0.0, 1.0, c) if c > 1 else np.array([0.5])
    left = 1.0 - 0.6 * pan
    right = 0.4 + 0.6 * pan
    return np.stack([left, right], axis=1)


def _render_event(rng: np.random.Generator, fundamental: float, n: int, sr: int) -> np.ndarray:
    """One mono event: harmonics plus a narrow noise band, peak-normalized."""
    t = np.arange(n) / sr
    sig = np.zeros(n)
    for h, amp in enumerate(_HARMONIC_AMPS, start=1):
        f = fundamental * h
        if f >= sr / 2:
            break
        sig += amp * np.sin(2.0 * np.pi * f * t + rng.uniform(0.0, 2.0 * np.pi))
    cap = sr / 2 * 0.95
    lo = min(fundamental * 1.2, cap * 0.5)
    hi = min(fundamental * 1.8, cap)
    freqs = rng.uniform(lo, hi, _NOISE_PARTIALS)
    phases = rng.uniform(0.0, 2.0 * np.pi, _NOISE_PARTIALS)
    # one partial at a time, in the order a sum over a (partials, n) matrix
    # adds them: that matrix would be 12x the event, the largest array here
    omegas = 2.0 * np.pi * freqs
    noise = np.sin(omegas[0] * t + phases[0])
    for omega, phase in zip(omegas[1:], phases[1:]):
        noise += np.sin(omega * t + phase)
    sig += (_NOISE_LEVEL / np.sqrt(_NOISE_PARTIALS)) * noise

    ramp = min(int(_RAMP_S * sr), max(n // 4, 1))
    env = np.ones(n)
    fade = 0.5 - 0.5 * np.cos(np.pi * np.arange(ramp) / ramp)
    env[:ramp] = fade
    env[n - ramp :] = fade[::-1]
    sig *= env
    peak = np.max(np.abs(sig))
    return sig / peak if peak > 0 else sig


def _place_events(rng: np.random.Generator, spec: SynthSpec) -> list[Event]:
    """Random onsets/durations under the polyphony cap, enforced on the
    20 ms frame grid (the same grid the rolls use)."""
    names = class_names(spec)
    n_frames = max(1, int(np.ceil(spec.duration_s / _FRAME_S)))
    occupancy = np.zeros(n_frames, dtype=np.int64)

    lo, hi = spec.events_per_clip
    target = int(rng.integers(lo, hi + 1))
    events: list[Event] = []
    for _ in range(target * 50):
        if len(events) >= target:
            break
        dur = float(rng.uniform(*spec.event_duration))
        dur = min(dur, spec.duration_s)
        onset = float(rng.uniform(0.0, spec.duration_s - dur))
        label = names[int(rng.integers(spec.class_count))]
        start, end = event_frame_span(onset, onset + dur, _FRAME_S, n_frames)
        if end <= start or occupancy[start:end].max() >= spec.polyphony_max:
            continue
        occupancy[start:end] += 1
        events.append(Event(round(onset, 6), round(onset + dur, 6), label))
    events.sort()
    return events


def _render_clip(rng: np.random.Generator, spec: SynthSpec) -> tuple[AudioClip, list[Event]]:
    """One stereo clip and its event list, all drawn from ``rng``."""
    fundamentals = class_fundamentals(spec)
    if spec.template_mode == "shared":
        fundamentals = np.full(spec.class_count, fundamentals[0])
    gains = class_gains(spec)
    label_index = {name: i for i, name in enumerate(class_names(spec))}
    events = _place_events(rng, spec)
    n = int(round(spec.duration_s * spec.sample_rate))
    stereo = np.zeros((2, n))
    for ev in events:
        c = label_index[ev.label]
        i0 = int(round(ev.onset * spec.sample_rate))
        i1 = min(n, int(round(ev.offset * spec.sample_rate)))
        if i1 <= i0:
            continue
        amp = rng.uniform(0.12, 0.28) * min(1.0, 3.0 / spec.polyphony_max)
        sig = amp * _render_event(rng, fundamentals[c], i1 - i0, spec.sample_rate)
        stereo[0, i0:i1] += gains[c, 0] * sig
        stereo[1, i0:i1] += gains[c, 1] * sig
    peak = max(stereo.max(), -stereo.min()) if n else 0.0
    if peak > 1.0:
        stereo /= peak * 1.01
    return AudioClip(samples=stereo, sample_rate=spec.sample_rate), events


def synth_dataset(spec: SynthSpec) -> Iterator[tuple[AudioClip, list[Event]]]:
    """Yield ``n_clips`` stereo clips with their event lists, one at a time.

    The generator keeps no reference to a clip it has yielded, so a caller
    that writes and drops each clip before taking the next holds one clip,
    not the whole dataset.
    """
    for child in np.random.SeedSequence(spec.seed).spawn(spec.n_clips):
        yield _render_clip(np.random.default_rng(child), spec)
