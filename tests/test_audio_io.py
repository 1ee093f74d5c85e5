from __future__ import annotations

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sedpipe.audio_io import (
    AudioClip,
    Event,
    EventRoll,
    ManifestRow,
    event_frame_span,
    events_to_roll,
    read_annotations,
    read_manifest,
    read_wav,
    to_mono,
    write_annotations,
    write_manifest,
    write_wav,
)
from sedpipe.errors import (
    AnnotationError,
    ManifestError,
    UnsupportedWavError,
    WavFormatError,
)


class TestWav:
    def test_16bit_scaling_single_sample(self, tmp_path):
        path = tmp_path / "one.wav"
        payload = struct.pack("<h", 16384)
        _write_raw_wav(path, payload, channels=1, rate=8000, bits=16)
        clip = read_wav(path)
        assert clip.n_channels == 1
        assert clip.samples[0, 0] == 0.5

    def test_24bit_stereo_duration(self, tmp_path, rng):
        clip = AudioClip(
            samples=rng.uniform(-0.9, 0.9, size=(2, 44100 * 2)), sample_rate=44100
        )
        path = tmp_path / "stereo.wav"
        write_wav(path, clip, bit_depth=24)
        back = read_wav(path)
        assert back.n_channels == 2
        assert back.sample_rate == 44100
        assert back.duration_s == pytest.approx(2.0)

    @pytest.mark.parametrize("bits", [16, 24])
    @pytest.mark.parametrize("channels", [1, 2])
    def test_write_read_round_trip_is_byte_lossless(self, tmp_path, rng, bits, channels):
        clip = AudioClip(
            samples=rng.uniform(-1.0, 0.999, size=(channels, 1001)), sample_rate=16000
        )
        first = tmp_path / "a.wav"
        second = tmp_path / "b.wav"
        write_wav(first, clip, bit_depth=bits)
        decoded = read_wav(first)
        write_wav(second, decoded, bit_depth=bits)
        assert first.read_bytes() == second.read_bytes()
        assert np.array_equal(read_wav(second).samples, decoded.samples)

    def test_extra_chunks_are_skipped(self, tmp_path):
        path = tmp_path / "chunked.wav"
        payload = struct.pack("<hh", 100, -100)
        _write_raw_wav(path, payload, channels=1, rate=8000, bits=16, extra_chunk=True)
        clip = read_wav(path)
        assert clip.n_samples == 2

    def test_malformed_header_is_format_error(self, tmp_path):
        path = tmp_path / "bad.wav"
        path.write_bytes(b"RIFX" + b"\x00" * 40)
        with pytest.raises(WavFormatError):
            read_wav(path)

    def test_missing_data_chunk_is_format_error(self, tmp_path):
        path = tmp_path / "nodata.wav"
        fmt = struct.pack("<HHIIHH", 1, 1, 8000, 16000, 2, 16)
        body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
        path.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
        with pytest.raises(WavFormatError):
            read_wav(path)

    def test_unsupported_codec_and_depth(self, tmp_path):
        ieee = tmp_path / "float.wav"
        _write_raw_wav(ieee, b"\x00" * 4, channels=1, rate=8000, bits=16, fmt_code=3)
        with pytest.raises(UnsupportedWavError):
            read_wav(ieee)
        eight = tmp_path / "eight.wav"
        _write_raw_wav(eight, b"\x00", channels=1, rate=8000, bits=8)
        with pytest.raises(UnsupportedWavError):
            read_wav(eight)

    def test_negative_24bit_values_survive(self, tmp_path):
        clip = AudioClip(samples=np.array([[-1.0, -0.25, 0.75]]), sample_rate=8000)
        path = tmp_path / "neg.wav"
        write_wav(path, clip, bit_depth=24)
        back = read_wav(path)
        assert back.samples[0, 0] == -1.0
        assert back.samples[0, 1] == pytest.approx(-0.25, abs=1e-6)


def _write_raw_wav(path, payload, channels, rate, bits, fmt_code=1, extra_chunk=False):
    block = channels * bits // 8
    fmt = struct.pack("<HHIIHH", fmt_code, channels, rate, rate * block, block, bits)
    chunks = b"fmt " + struct.pack("<I", len(fmt)) + fmt
    if extra_chunk:
        chunks += b"LIST" + struct.pack("<I", 4) + b"info"
    chunks += b"data" + struct.pack("<I", len(payload)) + payload
    if len(payload) % 2:
        chunks += b"\x00"
    path.write_bytes(b"RIFF" + struct.pack("<I", 4 + len(chunks)) + b"WAVE" + chunks)


class TestToMono:
    def test_mean_of_opposite_channels_is_zero(self):
        clip = AudioClip(samples=np.array([[1.0], [-1.0]]), sample_rate=8000)
        assert to_mono(clip).samples.tolist() == [[0.0]]

    def test_mono_input_unchanged(self):
        clip = AudioClip(samples=np.array([[0.1, 0.2]]), sample_rate=8000)
        assert to_mono(clip) is clip

    def test_matches_elementwise_loop(self, rng):
        samples = rng.uniform(-1, 1, size=(2, 333))
        clip = AudioClip(samples=samples, sample_rate=8000)
        mono = to_mono(clip)
        for i in range(333):
            assert mono.samples[0, i] == (samples[0, i] + samples[1, i]) / 2.0

    def test_idempotent(self, rng):
        clip = AudioClip(samples=rng.uniform(-1, 1, size=(2, 64)), sample_rate=8000)
        once = to_mono(clip)
        twice = to_mono(once)
        assert np.array_equal(once.samples, twice.samples)


class TestAnnotations:
    def test_parse_basic_line(self, tmp_path):
        path = tmp_path / "a.tsv"
        path.write_text("0.5\t2.0\tcar\n", encoding="utf-8")
        assert read_annotations(path, ["car"]) == [Event(0.5, 2.0, "car")]

    def test_empty_file(self, tmp_path):
        path = tmp_path / "a.tsv"
        path.write_text("", encoding="utf-8")
        assert read_annotations(path, ["car"]) == []

    def test_inverted_range_is_error(self, tmp_path):
        path = tmp_path / "a.tsv"
        path.write_text("1.0\t0.5\tcar\n", encoding="utf-8")
        with pytest.raises(AnnotationError, match="exceed"):
            read_annotations(path, ["car"])

    def test_unknown_label_is_error_with_line(self, tmp_path):
        path = tmp_path / "a.tsv"
        path.write_text("0.0\t1.0\tcar\n0.0\t1.0\tufo\n", encoding="utf-8")
        with pytest.raises(AnnotationError, match="line 2"):
            read_annotations(path, ["car"])

    def test_garbled_line_is_error_with_line(self, tmp_path):
        path = tmp_path / "a.tsv"
        path.write_text("0.0 1.0 car\n", encoding="utf-8")
        with pytest.raises(AnnotationError, match="line 1"):
            read_annotations(path, ["car"])

    def test_round_trip(self, tmp_path):
        events = [Event(0.25, 1.5, "car"), Event(1.0, 3.0, "people")]
        path = tmp_path / "a.tsv"
        write_annotations(events, path)
        assert read_annotations(path, ["car", "people"]) == events


class TestEventsToRoll:
    def test_any_overlap_rule(self):
        roll = events_to_roll([Event(0.0, 0.06, "car")], 5, 0.02, ["car"])
        assert roll.activity[:, 0].tolist() == [1, 1, 1, 0, 0]

    def test_no_events_all_zero(self):
        roll = events_to_roll([], 4, 0.02, ["car", "people"])
        assert roll.activity.sum() == 0

    def test_polyphony_preserved(self):
        events = [Event(0.0, 0.1, "car"), Event(0.04, 0.12, "people")]
        roll = events_to_roll(events, 6, 0.02, ["car", "people"])
        shared = roll.activity[2:5]
        assert np.all(shared == 1)

    def test_overrunning_event_is_clipped(self):
        roll = events_to_roll([Event(0.0, 99.0, "car")], 3, 0.02, ["car"])
        assert roll.activity[:, 0].tolist() == [1, 1, 1]

    def test_boundary_onset_lands_on_next_frame(self):
        roll = events_to_roll([Event(0.06, 0.08, "car")], 5, 0.02, ["car"])
        assert roll.activity[:, 0].tolist() == [0, 0, 0, 1, 0]

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=3.0),
                st.floats(min_value=0.01, max_value=1.0),
            ),
            min_size=1,
            max_size=6,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_matches_interval_overlap_oracle(self, raw):
        events = [Event(on, on + dur, "x") for on, dur in raw]
        n_frames, hop = 40, 0.1
        roll = events_to_roll(events, n_frames, hop, ["x"])
        for f in range(n_frames):
            lo, hi = f * hop, (f + 1) * hop
            expected = any(
                ev.onset < hi - 1e-10 and ev.offset > lo + 1e-10 for ev in events
            )
            got = bool(roll.activity[f, 0])
            if got != expected:
                # boundary-snap tolerance: disagreement only allowed within
                # the snap epsilon of a frame edge
                near_edge = any(
                    min(
                        abs(ev.onset - hi), abs(ev.onset - lo),
                        abs(ev.offset - lo), abs(ev.offset - hi),
                    ) < 1e-7
                    for ev in events
                )
                assert near_edge

    def test_run_recovery_round_trip(self):
        events = [Event(0.1, 0.3, "car"), Event(0.5, 0.62, "car")]
        roll = events_to_roll(events, 40, 0.02, ["car"])
        column = roll.activity[:, 0]
        runs = []
        start = None
        for f, v in enumerate(column.tolist() + [0]):
            if v and start is None:
                start = f
            elif not v and start is not None:
                runs.append((start, f))
                start = None
        expected = [event_frame_span(e.onset, e.offset, 0.02, 40) for e in events]
        assert runs == expected


class TestEventRollValidation:
    def test_rejects_non_binary(self):
        with pytest.raises(AnnotationError):
            EventRoll(activity=np.array([[2]]), hop_seconds=0.02, class_names=("a",))

    def test_rejects_class_mismatch(self):
        with pytest.raises(AnnotationError):
            EventRoll(activity=np.zeros((3, 2), dtype=np.uint8), hop_seconds=0.02, class_names=("a",))


class TestManifest:
    def test_round_trip_and_validation(self, tmp_path):
        rows = [
            ManifestRow("a.wav", "a.tsv", 1, "train"),
            ManifestRow("b.wav", "b.tsv", 1, "test"),
            ManifestRow("a.wav", "a.tsv", 2, "test"),
            ManifestRow("b.wav", "b.tsv", 2, "train"),
        ]
        path = tmp_path / "manifest.tsv"
        write_manifest(rows, path)
        assert read_manifest(path) == rows

    def test_duplicate_role_in_fold_rejected(self, tmp_path):
        rows = [
            ManifestRow("a.wav", "a.tsv", 1, "train"),
            ManifestRow("a.wav", "a.tsv", 1, "test"),
        ]
        path = tmp_path / "manifest.tsv"
        write_manifest(rows, path)
        with pytest.raises(ManifestError, match="more than one role"):
            read_manifest(path)

    def test_fold_gap_rejected(self, tmp_path):
        path = tmp_path / "manifest.tsv"
        write_manifest([ManifestRow("a.wav", "a.tsv", 2, "train")], path)
        with pytest.raises(ManifestError, match="fold ids"):
            read_manifest(path)

    def test_bad_role_rejected(self, tmp_path):
        path = tmp_path / "manifest.tsv"
        path.write_text("a.wav\ta.tsv\t1\teval\n", encoding="utf-8")
        with pytest.raises(ManifestError, match="role"):
            read_manifest(path)


def test_clip_validation_rejects_out_of_range():
    with pytest.raises(WavFormatError):
        AudioClip(samples=np.array([[1.5]]), sample_rate=8000)
    with pytest.raises(UnsupportedWavError):
        AudioClip(samples=np.zeros((3, 4)), sample_rate=8000)
    with pytest.raises(WavFormatError):
        AudioClip(samples=np.array([[np.nan]]), sample_rate=8000)
