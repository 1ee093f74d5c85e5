from __future__ import annotations

# first, before numpy loads: importing the package pins BLAS to one thread
# unless the environment chose a count, and README's byte-identical
# determinism holds only at a fixed count
import sedpipe  # noqa: F401

import io
import math
import struct
import tracemalloc
import zipfile
from pathlib import Path

import numpy as np
import pytest
from numpy.lib import format as npy_format

from sedpipe import synth
from sedpipe.audio_io import AudioClip, write_annotations, write_manifest, write_wav


def traced_peak(fn):
    """``(fn(), peak)``, where ``peak`` is the most memory tracemalloc saw
    allocated during the call, in bytes, above what was allocated before."""
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()


def write_oversized_claim(path, member: str, shape=(10**9, 2, 1), entry_agrees: bool = False) -> None:
    """An ``.npz`` file whose one ``member`` has a ``.npy`` header claiming a
    float32 array of ``shape`` (by default 7.45 GiB) over 64 bytes of data.
    With ``entry_agrees``, the sizes in the member's zip entry are rewritten
    to the claimed size, which must then fit in 32 bits."""
    header = io.BytesIO()
    npy_format.write_array_header_1_0(header, {"descr": "<f4", "fortran_order": False, "shape": shape})
    buffer = io.BytesIO()
    with zipfile.ZipFile(buffer, "w") as archive:
        archive.writestr(member, header.getvalue() + bytes(64))
    data = bytearray(buffer.getvalue())
    if entry_agrees:
        claimed = len(header.getvalue()) + 4 * math.prod(shape)
        struct.pack_into("<II", data, 18, claimed, claimed)  # local file header
        struct.pack_into("<II", data, data.rfind(b"PK\x01\x02") + 20, claimed, claimed)  # central directory
    Path(path).write_bytes(data)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def stereo_clip(rng) -> AudioClip:
    """One second of deterministic stereo noise-plus-tone at 44.1 kHz."""
    n = 44100
    t = np.arange(n) / 44100.0
    left = 0.4 * np.sin(2 * np.pi * 440.0 * t) + 0.05 * rng.normal(size=n)
    right = 0.3 * np.sin(2 * np.pi * 880.0 * t) + 0.05 * rng.normal(size=n)
    samples = np.clip(np.stack([left, right]), -1.0, 1.0)
    return AudioClip(samples=samples, sample_rate=44100)


@pytest.fixture
def tiny_dataset():
    """Four short two-class clips plus their names, for training fixtures."""
    spec = synth.SynthSpec(
        n_clips=4,
        duration_s=4.0,
        class_count=2,
        polyphony_max=2,
        seed=11,
        events_per_clip=(3, 6),
        event_duration=(0.3, 1.2),
    )
    return list(synth.synth_dataset(spec)), synth.class_names(spec)


def write_dataset(
    directory: Path,
    n_clips: int = 4,
    duration_s: float = 3.0,
    class_count: int = 2,
    folds: int = 2,
    seed: int = 21,
    template_mode: str = "distinct",
    sample_rate: int = 44100,
) -> Path:
    """Materialize a small synthetic dataset plus manifest on disk and
    return the manifest path."""
    directory.mkdir(parents=True, exist_ok=True)
    spec = synth.SynthSpec(
        n_clips=n_clips,
        duration_s=duration_s,
        class_count=class_count,
        polyphony_max=2,
        seed=seed,
        sample_rate=sample_rate,
        events_per_clip=(3, 6),
        event_duration=(0.3, 1.0),
        template_mode=template_mode,
    )
    rows = synth.manifest_rows(n_clips, folds)
    for row, (clip, events) in zip(rows[::folds], synth.synth_dataset(spec)):
        write_wav(directory / row.audio_path, clip, bit_depth=16)
        write_annotations(events, directory / row.annotation_path)
    manifest = directory / "manifest.tsv"
    write_manifest(rows, manifest)
    return manifest
