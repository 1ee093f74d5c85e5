"""WAV and annotation I/O plus frame-level event rolls.

The WAV reader handles the RIFF/WAVE subset the datasets use: little-endian
PCM (format code 1), 16 or 24 bit, one or two channels. Unknown chunks are
skipped. Annotations are three-column TSV (onset, offset, label) in seconds;
the dataset manifest is a separate TSV mapping each clip to a fold and split
role. Every writer goes through :func:`atomic_write`, so an interrupted
write leaves no partial file. Feature archives and checkpoints are numpy
``.npz`` files, written by :func:`write_arrays` and read by
:func:`read_arrays`.
"""

from __future__ import annotations

import math
import os
import struct
import zipfile
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, NamedTuple, Sequence

import numpy as np
from numpy.lib import format as npy_format

from .errors import (
    AnnotationError,
    ManifestError,
    RangeError,
    UnsupportedWavError,
    WavFormatError,
)

SPLIT_ROLES = ("train", "validation", "test")

# tolerance, in frames, used when snapping event boundaries onto the frame
# grid; absorbs float noise like 0.06/0.02 -> 2.9999999999999996
_FRAME_EPS = 1e-9


@dataclass(frozen=True)
class AudioClip:
    """Multichannel sample buffer: ``samples`` is ``(n_channels, n_samples)``
    float64 in [-1, 1]."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        s = self.samples
        if s.ndim != 2:
            raise WavFormatError(f"samples must be 2-D (channels, samples), got shape {s.shape}")
        if s.shape[0] not in (1, 2):
            raise UnsupportedWavError(f"only 1 or 2 channels supported, got {s.shape[0]}")
        if self.sample_rate <= 0:
            raise WavFormatError(f"sample rate must be positive, got {self.sample_rate}")
        if s.size:
            # a NaN or an infinity shows up in the minimum or the maximum,
            # so no full-size temporary is needed to find one
            lo, hi = s.min(), s.max()
            if not (np.isfinite(lo) and np.isfinite(hi)):
                raise WavFormatError("samples contain non-finite values")
            if lo < -1.0 or hi > 1.0:
                raise WavFormatError("samples fall outside [-1, 1]")

    @property
    def n_channels(self) -> int:
        return self.samples.shape[0]

    @property
    def n_samples(self) -> int:
        return self.samples.shape[1]


class Event(NamedTuple):
    onset: float
    offset: float
    label: str


@dataclass(frozen=True)
class EventRoll:
    """Binary frames x classes activity matrix."""

    activity: np.ndarray
    hop_seconds: float
    class_names: tuple[str, ...]

    def __post_init__(self):
        a = self.activity
        if a.ndim != 2:
            raise AnnotationError(f"activity must be 2-D (frames, classes), got shape {a.shape}")
        if a.shape[1] != len(self.class_names):
            raise AnnotationError(
                f"{a.shape[1]} activity columns but {len(self.class_names)} class names"
            )
        if a.size and not np.isin(a, (0, 1)).all():
            raise AnnotationError("activity entries must be 0 or 1")
        if not 0 < self.hop_seconds < np.inf:
            raise RangeError(f"hop_seconds must be positive and finite, got {self.hop_seconds}")

    @property
    def n_frames(self) -> int:
        return self.activity.shape[0]

    @property
    def n_classes(self) -> int:
        return self.activity.shape[1]


class ManifestRow(NamedTuple):
    audio_path: str
    annotation_path: str
    fold: int
    role: str


@contextmanager
def atomic_write(path) -> Iterator[BinaryIO]:
    """Open ``<path>.tmp`` for binary writing and move it over ``path`` once
    the block completes. An exception inside the block removes the
    temporary file, so an interrupted write leaves any old ``path`` intact
    and never a truncated one."""
    tmp = Path(f"{path}.tmp")
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def write_lines(path, lines) -> None:
    """Write newline-terminated UTF-8 lines through :func:`atomic_write`."""
    with atomic_write(path) as fh:
        fh.write("".join(f"{line}\n" for line in lines).encode("utf-8"))


def write_arrays(path, **arrays) -> None:
    """Write named arrays as an uncompressed ``.npz`` through
    :func:`atomic_write`. Its zip entries carry a fixed timestamp, so equal
    arrays give equal bytes."""
    with atomic_write(path) as fh:
        np.savez(fh, **arrays)


def read_arrays(path, error: type[Exception]) -> dict[str, np.ndarray]:
    """Every array of an ``.npz`` file, by name. A file that does not parse,
    or holds a member of another size than its ``.npy`` header claims,
    raises ``error`` naming it; a missing file raises ``OSError``."""
    # opened here, not by np.load, which leaks its handle when parsing fails
    with open(path, "rb") as fh:
        try:
            with np.load(fh, allow_pickle=False) as npz:
                _check_member_sizes(npz.zip, os.fstat(fh.fileno()).st_size)
                return {key: npz[key] for key in npz.files}
        # damaged input raises an open set of types from zipfile, numpy's
        # header parser and tokenize (BadZipFile, ValueError, TokenError,
        # EOFError, NotImplementedError, MemoryError and more)
        except Exception as exc:
            raise error(f"{path}: not a readable .npz file ({exc})") from None


_NPY_HEADER_READERS = {(1, 0): npy_format.read_array_header_1_0, (2, 0): npy_format.read_array_header_2_0}


def _check_member_sizes(archive: zipfile.ZipFile, archive_bytes: int) -> None:
    """Raise ``ValueError`` naming the first member whose zip entry is not
    its ``.npy`` header plus the data its shape and dtype claim, or claims
    more bytes than the whole archive holds. ``np.load`` allocates the
    claimed array before it reads any data."""
    for info in archive.infolist():
        with archive.open(info) as member:
            version = npy_format.read_magic(member)
            if version not in _NPY_HEADER_READERS:
                raise ValueError(f"member {info.filename} has unsupported .npy version {version}")
            shape, _, dtype = _NPY_HEADER_READERS[version](member)
            claimed = member.tell() + math.prod(shape) * dtype.itemsize
        if claimed != info.file_size or claimed > archive_bytes:
            raise ValueError(
                f"member {info.filename} claims {claimed} bytes, its entry holds {info.file_size}"
                f" of a {archive_bytes}-byte file"
            )


def read_wav(path) -> AudioClip:
    """Read a PCM WAV file, scaling samples to [-1, 1] by ``2**(bits-1)``."""
    # chunks are parsed as views of the file bytes, so beside those bytes
    # only the returned samples and, at 24 bit, one int32 array are allocated
    data = memoryview(Path(path).read_bytes())
    if len(data) < 12 or data[:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise WavFormatError(f"{path}: not a RIFF/WAVE file")

    fmt = None
    raw = None
    pos = 12
    while pos + 8 <= len(data):
        chunk_id = bytes(data[pos : pos + 4])
        size = int.from_bytes(data[pos + 4 : pos + 8], "little")
        body = data[pos + 8 : pos + 8 + size]
        if len(body) < size:
            raise WavFormatError(f"{path}: truncated {chunk_id!r} chunk")
        if chunk_id == b"fmt ":
            fmt = body
        elif chunk_id == b"data":
            raw = body
        pos += 8 + size + (size & 1)  # chunks are word aligned

    if fmt is None or raw is None:
        raise WavFormatError(f"{path}: missing fmt or data chunk")
    if len(fmt) < 16:
        raise WavFormatError(f"{path}: fmt chunk too short ({len(fmt)} bytes)")

    audio_format, n_channels, sample_rate, _, _, bits = struct.unpack("<HHIIHH", fmt[:16])
    if audio_format != 1:
        raise UnsupportedWavError(f"{path}: only PCM (format 1) supported, got format {audio_format}")
    if bits not in (16, 24):
        raise UnsupportedWavError(f"{path}: only 16 or 24 bit supported, got {bits}")
    if n_channels not in (1, 2):
        raise UnsupportedWavError(f"{path}: only 1 or 2 channels supported, got {n_channels}")

    frame_bytes = (bits // 8) * n_channels
    if len(raw) % frame_bytes:
        raise WavFormatError(f"{path}: data size {len(raw)} is not a whole number of frames")
    n_frames = len(raw) // frame_bytes

    if bits == 16:
        ints = np.frombuffer(raw, dtype="<i2")
    else:
        # each 3-byte sample goes into the top three bytes of an int32, and
        # the arithmetic shift back down sign-extends it
        wide = np.zeros((n_frames * n_channels, 4), dtype=np.uint8)
        wide[:, 1:] = np.frombuffer(raw, dtype=np.uint8).reshape(-1, 3)
        ints = wide.view("<i4")[:, 0]
        ints >>= 8

    samples = np.empty((n_channels, n_frames))
    np.divide(ints.reshape(n_frames, n_channels).T, float(1 << (bits - 1)), out=samples)
    return AudioClip(samples=samples, sample_rate=int(sample_rate))


# frames encoded per block by write_wav: about 0.5 MiB of temporaries for
# a stereo clip, whatever its length
_WRITE_BLOCK_FRAMES = 1 << 14


def write_wav(path, clip: AudioClip, bit_depth: int) -> None:
    """Write a PCM WAV file at the given bit depth (16 or 24)."""
    if bit_depth not in (16, 24):
        raise UnsupportedWavError(f"only 16 or 24 bit supported, got {bit_depth}")
    full = 1 << (bit_depth - 1)
    n_channels, n_frames = clip.samples.shape
    block_align = n_channels * bit_depth // 8
    byte_rate = clip.sample_rate * block_align
    data_size = n_frames * block_align
    pad = b"\x00" if data_size & 1 else b""
    riff_size = 4 + 8 + 16 + 8 + data_size + len(pad)

    with atomic_write(path) as fh:
        fh.write(b"RIFF" + struct.pack("<I", riff_size) + b"WAVE")
        fh.write(b"fmt " + struct.pack("<IHHIIHH", 16, 1, n_channels, clip.sample_rate, byte_rate, block_align, bit_depth))
        fh.write(b"data" + struct.pack("<I", data_size))
        scaled = np.empty((min(n_frames, _WRITE_BLOCK_FRAMES), n_channels))
        for start in range(0, n_frames, _WRITE_BLOCK_FRAMES):
            frames = clip.samples[:, start : start + _WRITE_BLOCK_FRAMES].T
            block = scaled[: len(frames)]
            np.multiply(frames, full, out=block)
            np.rint(block, out=block)
            np.clip(block, -full, full - 1, out=block)
            ints = block.astype("<i4")
            if bit_depth == 16:
                fh.write(ints.astype("<i2"))
            else:
                fh.write(np.ascontiguousarray(ints.view(np.uint8).reshape(-1, 4)[:, :3]))
        fh.write(pad)


def to_mono(clip: AudioClip) -> AudioClip:
    """Arithmetic mean across channels; mono input is returned unchanged."""
    if clip.n_channels == 1:
        return clip
    return AudioClip(samples=clip.samples.mean(axis=0, keepdims=True), sample_rate=clip.sample_rate)


def read_annotations(path, class_names: Sequence[str] | None = None) -> list[Event]:
    """Parse an ``onset<TAB>offset<TAB>label`` TSV into an event list. Labels
    are kept verbatim; without ``class_names`` any label is accepted."""
    vocab = None if class_names is None else set(class_names)
    events = []
    for lineno, parts in _tsv_rows(path, 3, AnnotationError, "'onset<TAB>offset<TAB>label'"):
        try:
            onset = float(parts[0])
            offset = float(parts[1])
            if not (np.isfinite(onset) and np.isfinite(offset)):
                raise ValueError(parts)
        except ValueError:
            raise AnnotationError(f"{path}: line {lineno}: onset/offset are not finite decimal seconds") from None
        label = parts[2]
        if vocab is not None and label not in vocab:
            raise AnnotationError(f"{path}: line {lineno}: unknown label {label!r}")
        if onset < 0:
            raise AnnotationError(f"{path}: line {lineno}: onset must be >= 0, got {onset}")
        if not offset > onset:
            raise AnnotationError(f"{path}: line {lineno}: offset {offset} must exceed onset {onset}")
        events.append(Event(onset, offset, label))
    return events


def write_annotations(events: Sequence[Event], path) -> None:
    write_lines(path, (f"{ev.onset:.6f}\t{ev.offset:.6f}\t{ev.label}" for ev in events))


def event_frame_span(onset: float, offset: float, hop_seconds: float, n_frames: int) -> tuple[int, int]:
    """Half-open frame range [start, end) of frames whose interval
    ``[f*hop, (f+1)*hop)`` overlaps ``[onset, offset)``, clipped to the roll."""
    start = int(np.floor(onset / hop_seconds + _FRAME_EPS))
    end = int(np.ceil(offset / hop_seconds - _FRAME_EPS))
    return max(0, start), min(n_frames, max(end, start))


def events_to_roll(
    events: Sequence[Event],
    n_frames: int,
    hop_seconds: float,
    class_names: Sequence[str],
) -> EventRoll:
    """Rasterize events onto the frame grid: a frame is active for a class
    iff its interval overlaps any event of that class. Events running past
    the end of the roll are clipped, not rejected."""
    if n_frames <= 0:
        raise RangeError(f"n_frames must be positive, got {n_frames}")
    if not 0 < hop_seconds < np.inf:
        raise RangeError(f"hop_seconds must be positive and finite, got {hop_seconds}")
    index = {name: i for i, name in enumerate(class_names)}
    activity = np.zeros((n_frames, len(class_names)), dtype=np.uint8)
    for ev in events:
        if ev.label not in index:
            raise AnnotationError(f"event label {ev.label!r} not in class vocabulary")
        start, end = event_frame_span(ev.onset, ev.offset, hop_seconds, n_frames)
        activity[start:end, index[ev.label]] = 1
    return EventRoll(activity=activity, hop_seconds=hop_seconds, class_names=tuple(class_names))


def read_manifest(path) -> list[ManifestRow]:
    """Parse and validate an ``audio<TAB>annotation<TAB>fold<TAB>role`` TSV."""
    rows: list[ManifestRow] = []
    for lineno, (audio, annot, fold_s, role) in _tsv_rows(path, 4, ManifestError, "4 tab-separated columns"):
        try:
            fold = int(fold_s)
        except ValueError:
            raise ManifestError(f"{path}: line {lineno}: fold {fold_s!r} is not an integer") from None
        if role not in SPLIT_ROLES:
            raise ManifestError(f"{path}: line {lineno}: role must be one of {SPLIT_ROLES}, got {role!r}")
        for name in (audio, annot):
            if Path(name).is_absolute() or ".." in Path(name).parts:
                raise ManifestError(f"{path}: line {lineno}: {name!r} is not a path inside the manifest's directory")
        rows.append(ManifestRow(audio, annot, fold, role))

    folds = sorted({r.fold for r in rows})
    if rows and folds != list(range(1, len(folds) + 1)):
        raise ManifestError(f"{path}: fold ids {folds} do not cover 1..{len(folds)}")
    seen: set[tuple[str, int]] = set()
    for r in rows:
        key = (r.audio_path, r.fold)
        if key in seen:
            raise ManifestError(f"{path}: clip {r.audio_path!r} has more than one role in fold {r.fold}")
        seen.add(key)
    return rows


def write_manifest(rows: Sequence[ManifestRow], path) -> None:
    write_lines(path, (f"{r.audio_path}\t{r.annotation_path}\t{r.fold}\t{r.role}" for r in rows))


def _tsv_rows(path, n_columns: int, error: type[Exception], expected: str) -> Iterator[tuple[int, list[str]]]:
    """(line number, fields) of each non-blank line of a UTF-8 TSV file, in
    which ``splitlines`` also ends a line at ``\\r``. A line without
    ``n_columns`` fields raises ``error`` saying what was ``expected``."""
    text = Path(path).read_text(encoding="utf-8")
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != n_columns:
            raise error(f"{path}: line {lineno}: expected {expected}")
        yield lineno, parts
