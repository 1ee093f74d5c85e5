from __future__ import annotations

import struct
import threading
import time
from dataclasses import asdict

import numpy as np
import pytest

from conftest import traced_peak, write_oversized_claim
from oracles import chunks_by_hand, direct_dft, mel_frame_by_hand
from sedpipe import audio_io, cores, dsp, features, synth
from sedpipe.audio_io import AudioClip, EventRoll, to_mono
from sedpipe.config import FeatureConfig
from sedpipe.errors import ChannelError, RangeError, ShapeError, StateError

F_MAX = 22050.0  # explicit Nyquist keeps tests free of the clamp warning

# one non-default value per FeatureConfig extraction field, and the fields
# each class reads
NON_DEFAULT = {
    "hop_ms": 10.0,
    "window_ms": 20.0,
    "n_mels": 32,
    "f_min": 100.0,
    "f_max": 16000.0,
    "fft_size": 4096,
    "multires_windows": (1024, 4096),
    "fft_log_magnitude": True,
}
_MEL_READS = ("hop_ms", "n_mels", "f_min", "f_max")
FIELDS_READ = {
    "mbe": _MEL_READS + ("window_ms", "fft_size"),
    "bin-mbe": _MEL_READS + ("window_ms", "fft_size"),
    "bin-mul-mbe": _MEL_READS + ("multires_windows",),
    "bin-fft": ("hop_ms", "window_ms", "fft_size", "fft_log_magnitude"),
}


# clip lengths in frames on both sides of the extractors' 64-frame block seams
BLOCK_SEAM_FRAMES = [0, 1, 64, 65, 130]


def noise_clip(rng, n_frames: int) -> AudioClip:
    """Stereo 44.1 kHz noise of exactly ``n_frames`` frames at the 882-sample hop."""
    return AudioClip(samples=rng.uniform(-0.5, 0.5, size=(2, n_frames * 882)), sample_rate=44100)


class TestExtractMbe:
    def test_ten_second_clip_shape(self, stereo_clip):
        # stereo fixture tiled to 10 s, downmixed
        samples = np.tile(stereo_clip.samples, (1, 10))
        clip = to_mono(AudioClip(samples=samples, sample_rate=44100))
        tensor = features.extract(clip, "mbe", f_max=F_MAX)
        assert tensor.data.shape == (500, 40, 1)
        assert tensor.hop_seconds == 0.02

    def test_silence_hits_log_floor(self):
        clip = AudioClip(samples=np.zeros((1, 44100)), sample_rate=44100)
        tensor = features.extract(clip, "mbe", f_max=F_MAX)
        assert np.allclose(tensor.data, np.log(1e-10), atol=0)

    def test_one_frame_matches_hand_pipeline(self, rng):
        sr, window_len, fft_size, hop = 8000, 320, 512, 160
        x = rng.normal(size=sr) * 0.2
        clip = AudioClip(samples=np.clip(x, -1, 1)[None, :], sample_rate=sr)
        tensor = features.extract(
            clip, "mbe", n_mels=12, f_min=0.0, f_max=sr / 2, window_ms=40.0, hop_ms=20.0,
            fft_size=fft_size,
        )
        bank = dsp.mel_filterbank(12, fft_size, sr, 0.0, sr / 2)
        f = 9
        start = f * hop - window_len // 2
        frame = clip.samples[0, start : start + window_len] * dsp.hamming_window(window_len)
        buf = np.zeros(fft_size)
        buf[:window_len] = frame
        power = np.abs(direct_dft(buf)[: fft_size // 2 + 1]) ** 2
        expected = np.log(np.maximum(power @ bank.weights.T, 1e-10))
        assert np.max(np.abs(tensor.data[f, :, 0] - expected)) < 1e-9

    @pytest.mark.parametrize("fc", ["mbe", "bin-mbe", "bin-mul-mbe"])
    def test_f_max_above_nyquist_warns_and_clamps(self, monkeypatch, fc):
        # three cores split the 130 frames into three groups; the clamp
        # warns once, on the calling thread, whatever thread runs a group
        monkeypatch.setattr(cores, "count", lambda: 3)
        clip = AudioClip(samples=np.zeros((2, 130 * 882)), sample_rate=44100)
        with pytest.warns(UserWarning, match="Nyquist") as record:
            clamped = features.extract(clip, fc, f_max=22500.0)
        assert len(record) == 1
        assert np.array_equal(clamped.data, features.extract(clip, fc, f_max=F_MAX).data)


class TestExtractBinMbe:
    def test_shape_and_channel_order(self, stereo_clip):
        tensor = features.extract(stereo_clip, "bin-mbe", f_max=F_MAX)
        assert tensor.data.shape == (50, 40, 2)
        left = features.extract(
            AudioClip(samples=stereo_clip.samples[:1], sample_rate=44100), "mbe", f_max=F_MAX
        )
        assert np.array_equal(tensor.data[:, :, 0], left.data[:, :, 0])

    def test_identical_channels_give_identical_slices(self, rng):
        mono = rng.uniform(-0.5, 0.5, size=44100)
        clip = AudioClip(samples=np.stack([mono, mono]), sample_rate=44100)
        tensor = features.extract(clip, "bin-mbe", f_max=F_MAX)
        assert np.array_equal(tensor.data[:, :, 0], tensor.data[:, :, 1])

    def test_identical_channels_match_mono_extract(self, rng):
        mono = rng.uniform(-0.5, 0.5, size=44100)
        clip = AudioClip(samples=np.stack([mono, mono]), sample_rate=44100)
        stereo_slice = features.extract(clip, "bin-mbe", f_max=F_MAX).data[:, :, 0]
        mono_tensor = features.extract(to_mono(clip), "mbe", f_max=F_MAX)
        assert np.max(np.abs(stereo_slice - mono_tensor.data[:, :, 0])) < 1e-12

    def test_rejects_mono(self):
        clip = AudioClip(samples=np.zeros((1, 8000)), sample_rate=8000)
        with pytest.raises(ChannelError):
            features.extract(clip, "bin-mbe")


class TestExtractBinMulMbe:
    def test_shape_and_shared_frames(self, stereo_clip):
        tensor = features.extract(stereo_clip, "bin-mul-mbe", f_max=F_MAX)
        assert tensor.data.shape == (50, 40, 6)

    @pytest.mark.parametrize("n_frames", BLOCK_SEAM_FRAMES)
    def test_resolution_pair_matches_single_resolution(self, rng, n_frames):
        clip = noise_clip(rng, n_frames)
        tensor = features.extract(clip, "bin-mul-mbe", f_max=F_MAX)
        assert tensor.n_frames == n_frames
        for k, window in enumerate(FeatureConfig.multires_windows):
            bank = dsp.mel_filterbank(40, window, 44100, 0.0, F_MAX)
            for ch in range(2):
                spectra = dsp.stft(clip.samples[ch], window, window, 882)
                single = dsp.log_mel_energies(dsp.power_spectrum(spectra), bank)
                assert np.array_equal(tensor.data[:, :, 2 * k + ch], single)

    def test_1024_resolution_frame_matches_hand_oracle(self, stereo_clip):
        # window length equals the FFT size: the frame is not zero padded
        tensor = features.extract(stereo_clip, "bin-mul-mbe", f_max=F_MAX)
        bank = dsp.mel_filterbank(40, 1024, 44100, 0.0, F_MAX)
        f, ch = 20, 1
        start = f * 882 - 1024 // 2
        frame = stereo_clip.samples[ch, start : start + 1024]
        expected = mel_frame_by_hand(frame, dsp.hamming_window(1024), 1024, bank.weights)
        assert np.max(np.abs(tensor.data[f, :, ch] - expected)) < 1e-9

    def test_window_set_sets_channel_count(self, stereo_clip):
        tensor = features.extract(
            stereo_clip, "bin-mul-mbe", f_max=F_MAX, multires_windows=(1024, 2048)
        )
        assert tensor.data.shape == (50, 40, 4)
        with pytest.raises(ShapeError):
            features.FeatureTensor(
                data=np.zeros((5, 40, 3)), feature_class="bin-mul-mbe", hop_seconds=0.02
            )

    def test_identical_channels_pair_up(self, rng):
        mono = rng.uniform(-0.5, 0.5, size=44100)
        clip = AudioClip(samples=np.stack([mono, mono]), sample_rate=44100)
        tensor = features.extract(clip, "bin-mul-mbe", f_max=F_MAX)
        for k in range(3):
            assert np.array_equal(tensor.data[:, :, 2 * k], tensor.data[:, :, 2 * k + 1])

    def test_rejects_mono(self):
        clip = AudioClip(samples=np.zeros((1, 8000)), sample_rate=8000)
        with pytest.raises(ChannelError):
            features.extract(clip, "bin-mul-mbe")


class TestExtractBinFft:
    def test_shape_magnitudes_and_phase_range(self, stereo_clip):
        tensor = features.extract(stereo_clip, "bin-fft")
        assert tensor.data.shape == (50, 1024, 4)
        mags = tensor.data[:, :, :2]
        phases = tensor.data[:, :, 2:]
        assert np.all(mags >= 0)
        assert np.all(phases > -np.pi)
        assert np.all(phases <= np.pi)

    def test_one_frame_matches_direct_dft(self, rng):
        sr = 8000
        x = rng.normal(size=(2, sr)) * 0.2
        clip = AudioClip(samples=np.clip(x, -1, 1), sample_rate=sr)
        fft_size = 512
        window_len, hop = 320, 160
        tensor = features.extract(clip, "bin-fft", fft_size=fft_size)
        f, ch = 7, 1
        start = f * hop - window_len // 2
        frame = clip.samples[ch, start : start + window_len] * dsp.hamming_window(window_len)
        buf = np.zeros(fft_size)
        buf[:window_len] = frame
        spec = direct_dft(buf)[1 : fft_size // 2 + 1]
        assert np.max(np.abs(tensor.data[f, :, ch] - np.abs(spec))) < 1e-9
        # compare phases as angles: at near-real bins the sign of a zero
        # imaginary residue flips between pi and -pi
        delta = np.angle(np.exp(1j * (tensor.data[f, :, 2 + ch] - np.angle(spec))))
        assert np.max(np.abs(delta)) < 1e-9

    @pytest.mark.parametrize("n_frames", BLOCK_SEAM_FRAMES)
    def test_matches_whole_clip_stft(self, rng, n_frames):
        clip = noise_clip(rng, n_frames)
        tensor = features.extract(clip, "bin-fft")
        assert tensor.n_frames == n_frames
        for ch in range(2):
            spectra = dsp.stft(clip.samples[ch], 1764, 2048, 882)[:, 1:]
            phase = np.angle(spectra)
            assert np.array_equal(tensor.data[:, :, ch], np.abs(spectra))
            assert np.array_equal(tensor.data[:, :, 2 + ch], np.where(phase <= -np.pi, np.pi, phase))

    def test_rejects_mono(self):
        clip = AudioClip(samples=np.zeros((1, 8000)), sample_rate=8000)
        with pytest.raises(ChannelError):
            features.extract(clip, "bin-fft")

    def test_log_magnitude_flag_compresses(self, stereo_clip):
        raw = features.extract(stereo_clip, "bin-fft")
        logged = features.extract(stereo_clip, "bin-fft", fft_log_magnitude=True)
        expected = np.log(np.maximum(raw.data[:, :, :2], 1e-10))
        assert np.array_equal(logged.data[:, :, :2], expected)
        assert np.array_equal(logged.data[:, :, 2:], raw.data[:, :, 2:])


class TestDispatcher:
    def test_all_extractors_share_frame_count(self, stereo_clip):
        counts = {
            fc: features.extract(stereo_clip, fc, **(
                {"f_max": F_MAX} if fc != "bin-fft" else {}
            )).n_frames
            for fc in features.FEATURE_CLASSES
        }
        assert len(set(counts.values())) == 1

    def test_mbe_on_stereo_downmixes(self, stereo_clip, caplog):
        import logging

        with caplog.at_level(logging.INFO, logger="sedpipe.features"):
            tensor = features.extract(stereo_clip, "mbe", f_max=F_MAX)
        assert tensor.data.shape[2] == 1
        assert any("mono" in rec.message for rec in caplog.records)

    @pytest.mark.filterwarnings("error")
    def test_config_defaults_extract_without_warning(self, stereo_clip):
        # the default f_max is the 44.1 kHz Nyquist, so nothing is clamped
        cfg = FeatureConfig()
        features.extract(stereo_clip, **asdict(cfg))

    @pytest.mark.parametrize("fc", features.FEATURE_CLASSES)
    def test_config_kwargs_give_table_shape(self, stereo_clip, fc):
        cfg = FeatureConfig(feature_class=fc)
        tensor = features.extract(stereo_clip, **asdict(cfg))
        spec = features.FEATURE_TABLE[fc]
        # n_mels mel bands, or fft_size / 2 FFT bins once DC is dropped
        assert tensor.n_bins == (cfg.fft_size // 2 if fc == "bin-fft" else cfg.n_mels)
        assert tensor.n_channels == spec.channels

    @pytest.mark.parametrize("fc", features.FEATURE_CLASSES)
    def test_no_settings_extract_at_the_config_defaults(self, stereo_clip, fc):
        a = features.extract(stereo_clip, fc)
        b = features.extract(stereo_clip, **asdict(FeatureConfig(feature_class=fc)))
        assert a.data.tobytes() == b.data.tobytes()

    @pytest.mark.parametrize("fc, key", [(fc, key) for fc in FIELDS_READ for key in NON_DEFAULT])
    def test_a_setting_changes_only_the_classes_that_read_it(self, stereo_clip, fc, key):
        a = features.extract(stereo_clip, fc)
        b = features.extract(stereo_clip, fc, **{key: NON_DEFAULT[key]})
        changed = a.data.shape != b.data.shape or a.data.tobytes() != b.data.tobytes()
        assert changed == (key in FIELDS_READ[fc])

    def test_determinism(self, stereo_clip):
        a = features.extract(stereo_clip, "bin-mbe", f_max=F_MAX)
        b = features.extract(stereo_clip, "bin-mbe", f_max=F_MAX)
        assert np.array_equal(a.data, b.data)


@pytest.fixture(scope="module")
def ten_second_clip() -> AudioClip:
    spec = synth.SynthSpec(n_clips=1, duration_s=10.0, seed=5)
    return next(iter(synth.synth_dataset(spec)))[0]


class TestCoreCount:
    """Each clip's 64-frame blocks split into one contiguous group per core,
    each run on its own thread for one extraction."""

    @pytest.mark.parametrize("fc", features.FEATURE_CLASSES)
    @pytest.mark.parametrize("n_frames", BLOCK_SEAM_FRAMES + ["10 s"])
    def test_features_do_not_depend_on_the_core_count(self, rng, monkeypatch, ten_second_clip, fc, n_frames):
        clip = ten_second_clip if n_frames == "10 s" else noise_clip(rng, n_frames)
        results = []
        for n in (1, 2, 3):
            monkeypatch.setattr(cores, "count", lambda: n)
            results.append(features.extract(clip, fc, f_max=F_MAX).data)
        for other in results[1:]:
            assert other.shape == results[0].shape
            assert np.array_equal(other, results[0])

    @pytest.mark.parametrize(
        "n_frames, groups",
        [(0, [(0, 0)]), (1, [(0, 1)]), (65, [(0, 64), (64, 65)]), (130, [(0, 64), (64, 128), (128, 130)]),
         (500, [(0, 128), (128, 320), (320, 500)])],
    )
    def test_groups_are_whole_blocks_one_per_core(self, monkeypatch, n_frames, groups):
        monkeypatch.setattr(cores, "count", lambda: 3)
        jobs = features._jobs(n_frames, ((1764, 2048),), mel=True)
        assert [(frames.start, frames.stop) for frames, _ in jobs] == groups

    @pytest.mark.parametrize("fc", features.FEATURE_CLASSES)
    @pytest.mark.parametrize("fails", [False, True])
    def test_no_thread_outlives_an_extraction(self, rng, monkeypatch, fc, fails):
        # every group past the first runs on a sedpipe thread, which ends
        # with the call, also when a group raises
        class Failure(Exception):
            pass

        monkeypatch.setattr(cores, "count", lambda: 3)
        names = set()
        stft = dsp.stft

        def traced_stft(samples, window_len, fft_size, hop, start, stop, **buffers):
            names.add(threading.current_thread().name.split("_")[0])
            if fails and start >= 128:
                raise Failure()
            return stft(samples, window_len, fft_size, hop, start, stop, **buffers)

        monkeypatch.setattr(dsp, "stft", traced_stft)
        before = threading.active_count()
        if fails:
            with pytest.raises(Failure):
                features.extract(noise_clip(rng, 130), fc, f_max=F_MAX)
        else:
            assert features.extract(noise_clip(rng, 130), fc, f_max=F_MAX).n_frames == 130
        assert threading.active_count() == before
        assert names == {"MainThread", "sedpipe"}


class TestExtractMemory:
    # whole-clip transforms peaked at 194 MiB (bin-mul-mbe) and 43 MiB (bin-fft)
    # of traced numpy memory; blocks of at most 64 frames and 2 MiB of frame
    # samples need about 13 and 18 MiB on one core (64-frame blocks alone:
    # 32 and 19), and about 17 and 20 MiB split between two cores
    @pytest.mark.parametrize("fc, bound_mib", [("bin-mul-mbe", 24), ("bin-fft", 32)])
    def test_peak_traced_memory_is_bounded(self, ten_second_clip, fc, bound_mib):
        tensor, peak = traced_peak(lambda: features.extract(ten_second_clip, fc))
        assert tensor.n_frames == 500
        assert peak < bound_mib * 2**20


def uneven_fft_clips(rng, bins: int, frames=(501, 257, 333)) -> list[np.ndarray]:
    """float32 ``bin-fft`` arrays of uneven lengths."""
    return [rng.normal(3.0, 2.5, size=(n, bins, 4)).astype(np.float32) for n in frames]


def silent_roll(n_frames, hop=0.02, names=("a", "b")) -> EventRoll:
    return EventRoll(
        activity=np.zeros((n_frames, len(names)), dtype=np.uint8), hop_seconds=hop, class_names=names
    )


def identity(shape) -> features.Normalizer:
    """A normalizer that leaves every value as it is."""
    return features.Normalizer(mean=np.zeros(shape), std=np.ones(shape))


def whole(batch) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(inputs, targets, mask)`` of every sequence of ``batch``."""
    return batch.gather(range(batch.n_sequences))


def normalized(norm, *arrays, seq_len=16) -> np.ndarray:
    """``arrays`` normalized through one split's batch, clip after clip,
    the padding dropped."""
    inputs, _, mask = whole(features.chunk_sequences([(a, silent_roll(len(a))) for a in arrays], seq_len, norm))
    return inputs[mask]


class TestNormalizer:
    def test_fit_apply_standardizes(self, rng):
        arrays = [rng.normal(3.0, 2.5, size=(40, 8, 2)) for _ in range(3)]
        norm = features.fit_normalizer(arrays)
        stacked = normalized(norm, *arrays)
        assert np.max(np.abs(stacked.mean(axis=0))) < 1e-9
        assert np.max(np.abs(stacked.var(axis=0) - 1.0)) < 1e-6

    def test_constant_bin_maps_to_zero(self):
        data = np.full((20, 4, 1), 2.5)
        norm = features.fit_normalizer([data])
        assert np.all(normalized(norm, data) == 0.0)
        assert np.all(norm.std >= 1e-8)

    def test_apply_is_affine(self, rng):
        data = rng.normal(size=(30, 5, 1))
        norm = features.fit_normalizer([data])
        a, b = 1.7, -0.4
        lhs = normalized(norm, a * data + b)
        rhs = (a * data + b - norm.mean) / norm.std
        assert np.allclose(lhs, rhs, atol=1e-12)

    def test_float32_fit_equals_the_fit_of_its_float64_widening(self, rng):
        arrays = [rng.normal(3.0, 2.5, size=(n, 8, 2)).astype(np.float32) for n in (40, 57)]
        wide = [a.astype(np.float64) for a in arrays]
        narrow, reference = features.fit_normalizer(arrays), features.fit_normalizer(wide)
        assert narrow.mean.dtype == narrow.std.dtype == np.float64
        assert narrow.mean.tobytes() == reference.mean.tobytes()
        assert narrow.std.tobytes() == reference.std.tobytes()

    def test_apply_keeps_float32_rounding_the_float64_result_once(self, rng):
        data = rng.normal(3.0, 2.5, size=(40, 8, 2)).astype(np.float32)
        norm = features.fit_normalizer([data])
        out = normalized(norm, data)
        assert out.dtype == np.float32
        expected = ((data.astype(np.float64) - norm.mean) / norm.std).astype(np.float32)
        assert out.tobytes() == expected.tobytes()

    def test_fit_bits_equal_the_concatenated_fit_on_uneven_float32_clips(self, rng):
        arrays = uneven_fft_clips(rng, bins=64)
        stacked = np.concatenate(arrays, axis=0, dtype=np.float64)
        norm = features.fit_normalizer(arrays)
        assert norm.mean.tobytes() == stacked.mean(axis=0).tobytes()
        assert norm.std.tobytes() == np.maximum(stacked.std(axis=0), features._STD_FLOOR).tobytes()

    def test_fit_peak_traced_memory_is_one_float64_clip(self, rng):
        # one float64 block: the longest clip's rows and the running total
        arrays = uneven_fft_clips(rng, bins=1024)
        _, peak = traced_peak(lambda: features.fit_normalizer(arrays))
        assert peak < 2 * max(a.nbytes for a in arrays) + 2**20

    def test_apply_peak_traced_memory_is_below_three_and_a_half_times_the_tensor(self, rng):
        # one float64 buffer (twice the clip) and the float32 sequence,
        # which the clip's length does not pad
        (data,) = uneven_fft_clips(rng, bins=1024, frames=(501,))
        norm = features.fit_normalizer([data])
        batch = features.chunk_sequences([(data, silent_roll(501))], 501, norm)
        (out, _, _), peak = traced_peak(lambda: whole(batch))
        assert out.dtype == np.float32
        assert peak < 3.5 * data.nbytes

    def test_empty_fit_rejected(self):
        with pytest.raises(StateError):
            features.fit_normalizer([])


class TestChunkSequences:
    def _tensor_roll(self, rng, n_frames, names=("a", "b")):
        data = rng.normal(size=(n_frames, 6, 1))
        roll = EventRoll(
            activity=(rng.random((n_frames, len(names))) < 0.3).astype(np.uint8),
            hop_seconds=0.02,
            class_names=names,
        )
        return data, roll

    @staticmethod
    def chunk(data, roll, seq_len):
        """One clip's sequences, unnormalized."""
        return features.chunk_sequences([(data, roll)], seq_len, identity(data.shape[1:]))

    def test_five_hundred_frames_at_t256(self, rng):
        inputs, _, mask = whole(self.chunk(*self._tensor_roll(rng, 500), 256))
        assert inputs.shape == (2, 256, 6, 1)
        assert mask[0].all()
        assert mask[1, :244].all()
        assert not mask[1, 244:].any()
        assert np.all(inputs[1, 244:] == 0)

    def test_exact_fit_no_padding(self, rng):
        inputs, _, mask = whole(self.chunk(*self._tensor_roll(rng, 256), 256))
        assert inputs.shape[0] == 1
        assert mask.all()

    def test_reassembly_is_lossless(self, rng):
        data, roll = self._tensor_roll(rng, 333)
        inputs, targets, mask = whole(self.chunk(data, roll, 64))
        assert np.array_equal(inputs[mask], data)
        assert np.array_equal(targets[mask], roll.activity.astype(float))
        assert targets.dtype == np.uint8

    def test_empty_tensor_gives_empty_batch(self):
        batch = self.chunk(np.zeros((0, 6, 1)), silent_roll(0), 16)
        assert batch.n_sequences == 0

    @pytest.mark.parametrize("n_frames", [0, 1, 63, 64, 65, 250])
    def test_matches_frame_by_frame_oracle(self, rng, n_frames):
        data, roll = self._tensor_roll(rng, n_frames)
        batch = self.chunk(data, roll, 64)
        for got, want in zip(whole(batch), chunks_by_hand(data, roll.activity, 64)):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)

    def test_frame_mismatch_rejected(self, rng):
        data, roll = self._tensor_roll(rng, 100)
        short = EventRoll(
            activity=roll.activity[:99], hop_seconds=0.02, class_names=roll.class_names
        )
        with pytest.raises(ShapeError):
            self.chunk(data, short, 16)

    def test_batch_describes_its_clip(self, rng):
        batch = self.chunk(*self._tensor_roll(rng, 150, names=("x", "y", "z")), 64)
        assert batch.starts.tolist() == [[0, 0], [0, 64], [0, 128]]
        assert batch.hop_seconds == 0.02
        assert batch.class_names == ("x", "y", "z")

    def test_split_bits_equal_each_clip_normalized_in_float64_rounded_once_and_padded(self, rng):
        arrays = uneven_fft_clips(rng, bins=16, frames=(70, 64, 1, 129))
        rolls = [self._tensor_roll(rng, len(a))[1] for a in arrays]
        norm = features.fit_normalizer(arrays[:2])
        batch = features.chunk_sequences(list(zip(arrays, rolls)), 64, norm)
        by_hand = [
            chunks_by_hand(((a.astype(np.float64) - norm.mean) / norm.std).astype(np.float32), r.activity, 64)
            for a, r in zip(arrays, rolls)
        ]
        inputs, targets, mask = whole(batch)
        assert inputs.dtype == np.float32
        assert inputs.tobytes() == np.concatenate([i for i, _, _ in by_hand]).astype(np.float32).tobytes()
        assert np.array_equal(targets, np.concatenate([t for _, t, _ in by_hand]))
        assert np.array_equal(mask, np.concatenate([m for _, _, m in by_hand]))
        assert batch.starts.tolist() == [[0, 0], [0, 64], [1, 0], [2, 0], [3, 0], [3, 64], [3, 128]]

    def test_gather_in_any_order_equals_those_rows_of_the_whole_split(self, rng):
        clips = [self._tensor_roll(rng, n) for n in (70, 1, 129)]
        batch = features.chunk_sequences(clips, 64, features.fit_normalizer([d for d, _ in clips]))
        idx = np.array([4, 0, 2, 2, 3])
        for got, want in zip(batch.gather(idx), whole(batch)):
            assert np.array_equal(got, want[idx])

    def test_chunking_traces_under_one_mib(self, rng):
        # the batch indexes the split's arrays and copies none of them
        arrays = uneven_fft_clips(rng, bins=1024)
        norm = features.fit_normalizer(arrays)
        clips = [(a, silent_roll(len(a))) for a in arrays]
        batch, peak = traced_peak(lambda: features.chunk_sequences(clips, 256, norm))
        assert batch.starts.tolist() == [[0, 0], [0, 256], [1, 0], [1, 256], [2, 0], [2, 256]]
        assert peak < 2**20

    def test_gather_peak_traced_memory_is_its_output_and_one_float64_sequence(self, rng):
        arrays = uneven_fft_clips(rng, bins=1024)
        norm = features.fit_normalizer(arrays)
        batch = features.chunk_sequences([(a, silent_roll(len(a))) for a in arrays], 256, norm)
        out, peak = traced_peak(lambda: whole(batch))
        buffer = 256 * 1024 * 4 * 8
        assert peak < sum(a.nbytes for a in out) + buffer + 2**20


class TestSequenceBatch:
    def _clip(self, rng, n_frames, hop=0.02, names=("a", "b")):
        return rng.normal(size=(n_frames, 6, 1)), silent_roll(n_frames, hop, names)

    def _split(self, clips):
        return features.chunk_sequences(clips, 16, identity((6, 1)))

    def test_split_holds_each_clips_count(self, rng):
        clips = [self._clip(rng, 40), self._clip(rng, 0), self._clip(rng, 17)]
        batch = self._split(clips)
        assert batch.starts.tolist() == [[0, 0], [0, 16], [0, 32], [2, 0], [2, 16]]
        assert batch.n_sequences == 5
        frames = batch.clip_frames(whole(batch)[0])
        assert [len(f) for f in frames] == [40, 0, 17]
        assert all(np.array_equal(f, data) for f, (data, _) in zip(frames, clips))
        assert (batch.hop_seconds, batch.class_names) == (0.02, ("a", "b"))

    @pytest.mark.parametrize("other", [{"hop": 0.01}, {"names": ("a", "c")}])
    def test_clips_of_another_hop_or_vocabulary_rejected(self, rng, other):
        with pytest.raises(ShapeError, match="frame hop or class names"):
            self._split([self._clip(rng, 40), self._clip(rng, 0), self._clip(rng, 40, **other)])

    def test_clip_of_other_bins_or_channels_rejected(self, rng):
        data, roll = self._clip(rng, 40)
        with pytest.raises(ShapeError, match=r"normalizer's bins/channels \(6, 1\)"):
            self._split([(data, roll), (data[:, :5], roll)])

    def test_no_clips_rejected(self):
        with pytest.raises(StateError):
            self._split([])


class TestArchive:
    def test_round_trip_preserves_float32_payload(self, tmp_path, rng):
        tensor = features.FeatureTensor(
            data=rng.normal(size=(37, 40, 2)), feature_class="bin-mbe", hop_seconds=0.02
        )
        path = tmp_path / "clip.bin-mbe.sedf"
        written = features.save_feature_archive(tensor, path)
        back = features.load_feature_archive(path, features.FeatureConfig("bin-mbe", hop_ms=20.0))
        assert back.feature_class == "bin-mbe"
        assert back.hop_seconds == 0.02
        assert list(audio_io.read_arrays(path, StateError)) == ["data"]
        assert back.data.shape == (37, 40, 2)
        assert np.array_equal(back.data, tensor.data.astype(np.float32).astype(np.float64))
        # the function returns the float32 tensor it wrote, and the load
        # returns that float32 array as read
        assert written.data.dtype == back.data.dtype == np.float32
        assert np.array_equal(written.data, back.data)
        assert (written.feature_class, written.hop_seconds) == (tensor.feature_class, tensor.hop_seconds)

    def test_value_beyond_float32_writes_nothing(self, tmp_path):
        tensor = features.FeatureTensor(data=np.full((2, 3, 1), 1e39), feature_class="mbe", hop_seconds=0.02)
        path = tmp_path / "clip.mbe.sedf"
        with pytest.warns(RuntimeWarning, match="overflow"), pytest.raises(ShapeError, match="non-finite"):
            features.save_feature_archive(tensor, path)
        assert not path.exists()

    def test_v1_archive_says_to_re_extract(self, tmp_path):
        # the binary layout archives had before they became .npz files
        path = tmp_path / "clip.bin-mul-mbe.sedf"
        header = struct.pack("<4sHHIIId", b"SEDF", 1, 3, 2, 3, 6, 0.02)
        path.write_bytes(header + np.arange(2 * 3 * 6, dtype="<f4").tobytes())
        with pytest.raises(StateError, match=r"clip.bin-mul-mbe.sedf: .*re-extract it with `sedpipe extract --force`"):
            features.load_feature_archive(path, features.FeatureConfig("bin-mul-mbe"))

    @staticmethod
    def _write(path, **arrays):
        """An archive of a (2, 3, 1) tensor, with ``arrays`` replacing or
        adding arrays."""
        audio_io.write_arrays(path, **{"data": np.zeros((2, 3, 1), dtype=np.float32), **arrays})

    # (feature class, channels, payload value, message); bin-fft holds
    # exactly 4 channels
    @pytest.mark.parametrize(
        "feature_class, ch, value, message",
        [
            ("mbe", 1, float("nan"), "feature data contains non-finite values"),
            ("mbe", 1, float("inf"), "feature data contains non-finite values"),
            ("bin-fft", 3, 0.0, "bin-fft cannot have 3 channel"),
        ],
    )
    def test_bad_archive_is_state_error_naming_the_file(self, tmp_path, feature_class, ch, value, message):
        path = tmp_path / "bad.sedf"
        self._write(path, data=np.full((2, 3, ch), value, dtype=np.float32))
        with pytest.raises(StateError, match=f"bad.sedf: {message}.*re-extract it"):
            features.load_feature_archive(path, features.FeatureConfig(feature_class))

    # the class and hop arrays an archive held before its name carried the
    # settings make it an archive of an older format
    @pytest.mark.parametrize(
        "arrays, message",
        [
            ({"data": np.zeros((2, 3, 1))}, "data is float64, not float32"),
            ({"hop_seconds": np.float32(0.02)}, r"holds arrays \['data', 'hop_seconds'\], not data alone"),
            ({"hop_seconds": np.array([0.02])}, r"holds arrays \['data', 'hop_seconds'\]"),
            ({"feature_class": np.array(["mbe"])}, r"holds arrays \['data', 'feature_class'\]"),
            ({"normalizer": np.zeros(1)}, "holds arrays"),
        ],
        ids=["float64_data", "float32_hop", "hop_vector", "class_vector", "extra_array"],
    )
    def test_mistyped_or_extra_array_is_state_error_naming_the_file(self, tmp_path, arrays, message):
        path = tmp_path / "odd.sedf"
        self._write(path, **arrays)
        with pytest.raises(StateError, match=f"odd.sedf: {message}.*re-extract it"):
            features.load_feature_archive(path, features.FeatureConfig())

    def test_archive_of_the_class_and_hop_format_says_to_re_extract(self, tmp_path):
        path = tmp_path / "clip.mbe.sedf"
        self._write(path, feature_class="mbe", hop_seconds=0.02)
        with pytest.raises(
            StateError,
            match=r"clip.mbe.sedf: holds arrays \['data', 'feature_class', 'hop_seconds'\], not data alone; "
            r"re-extract it with `sedpipe extract --force`",
        ):
            features.load_feature_archive(path, features.FeatureConfig())

    def test_missing_array_is_state_error_naming_the_file(self, tmp_path):
        path = tmp_path / "short.sedf"
        audio_io.write_arrays(path, frames=np.zeros((2, 3, 1), dtype=np.float32))
        with pytest.raises(StateError, match="short.sedf: holds arrays"):
            features.load_feature_archive(path, features.FeatureConfig())

    @pytest.mark.parametrize(
        "shape, entry_agrees, message",
        [
            ((10**9, 2, 1), False, "claims 8000000128 bytes, its entry holds 192"),
            ((10**8, 1, 1), True, "claims 400000128 bytes, its entry holds 400000128 of a 306-byte file"),
        ],
        ids=["entry_disagrees", "entry_beyond_the_file"],
    )
    def test_oversized_claim_is_state_error_before_allocating(self, tmp_path, shape, entry_agrees, message):
        path = tmp_path / "huge.sedf"
        write_oversized_claim(path, "data.npy", shape, entry_agrees)

        def load():
            with pytest.raises(StateError, match=f"huge.sedf: .*member data.npy {message}"):
                features.load_feature_archive(path, features.FeatureConfig())

        _, peak = traced_peak(load)
        assert peak < 2**20

    def test_equal_tensors_give_equal_bytes(self, tmp_path, rng):
        # zip entries carry a timestamp; it must not be the time of writing
        tensor = features.FeatureTensor(data=rng.normal(size=(5, 4, 2)), feature_class="bin-mbe", hop_seconds=0.02)
        first, second = tmp_path / "a.sedf", tmp_path / "b.sedf"
        features.save_feature_archive(tensor, first)
        time.sleep(1.1)
        features.save_feature_archive(tensor, second)
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize("hop", [float("nan"), float("inf"), 0.0])
    def test_tensor_rejects_a_bad_hop(self, hop):
        with pytest.raises(RangeError, match="hop_seconds"):
            features.FeatureTensor(data=np.zeros((2, 3, 1)), feature_class="mbe", hop_seconds=hop)

    def test_tensor_finds_a_non_finite_value_without_a_full_size_temporary(self, rng):
        # np.isfinite over a (501, 1024, 4) float32 tensor made a 1.96 MiB mask
        data = rng.normal(size=(501, 1024, 4)).astype(np.float32)
        _, peak = traced_peak(lambda: features.FeatureTensor(data, "bin-fft", 0.02))
        assert peak < 64 * 2**10
        data[250, 512, 3] = np.nan
        with pytest.raises(ShapeError, match="non-finite"):
            features.FeatureTensor(data, "bin-fft", 0.02)

    def test_magic_enforced(self, tmp_path):
        path = tmp_path / "bogus.sedf"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(StateError):
            features.load_feature_archive(path, features.FeatureConfig())

    def test_truncated_payload_rejected(self, tmp_path, rng):
        # every prefix is a StateError naming the file, including a cut of
        # one to three bytes into a float32
        tensor = features.FeatureTensor(
            data=rng.normal(size=(3, 2, 1)), feature_class="mbe", hop_seconds=0.02
        )
        path = tmp_path / "clip.mbe.sedf"
        features.save_feature_archive(tensor, path)
        raw = path.read_bytes()
        features.load_feature_archive(path, features.FeatureConfig())
        cut = tmp_path / "cut.mbe.sedf"
        for n in range(len(raw)):
            cut.write_bytes(raw[:n])
            with pytest.raises(StateError, match="cut.mbe.sedf"):
                features.load_feature_archive(cut, features.FeatureConfig())

    def test_failed_save_keeps_old_archive_and_no_temp_file(self, tmp_path, rng, monkeypatch):
        path = tmp_path / "clip.mbe.sedf"
        old = features.FeatureTensor(
            data=rng.normal(size=(8, 4, 1)), feature_class="mbe", hop_seconds=0.02
        )
        features.save_feature_archive(old, path)
        before = path.read_bytes()

        class FailingPayload:
            """Passes the first write through, writes half of the second,
            then fails; ``seek`` and ``tell``, which zipfile calls, reach
            the file."""

            def __init__(self, fh):
                self.fh = fh
                self.writes = 0

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def __getattr__(self, name):
                return getattr(self.fh, name)

            def write(self, data):
                self.writes += 1
                if self.writes == 2:
                    self.fh.write(data[: len(data) // 2])
                    raise OSError("disk full")
                return self.fh.write(data)

        # atomic_write opens the temporary file through audio_io's open
        monkeypatch.setattr(
            audio_io, "open", lambda p, mode: FailingPayload(open(p, mode)), raising=False
        )
        new = features.FeatureTensor(
            data=rng.normal(size=(50, 4, 1)), feature_class="mbe", hop_seconds=0.02
        )
        with pytest.raises(OSError, match="disk full"):
            features.save_feature_archive(new, path)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == [path.name]
