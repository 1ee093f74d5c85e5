from __future__ import annotations

import struct

import numpy as np
import pytest

from oracles import direct_dft, mel_frame_by_hand
from sedpipe import dsp, features
from sedpipe.audio_io import AudioClip, EventRoll, to_mono
from sedpipe.config import FeatureConfig
from sedpipe.errors import ChannelError, ShapeError, StateError

F_MAX = 22050.0  # explicit Nyquist keeps tests free of the clamp warning


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

    def test_f_max_above_nyquist_warns_and_clamps(self):
        clip = AudioClip(samples=np.zeros((1, 44100)), sample_rate=44100)
        with pytest.warns(UserWarning, match="Nyquist"):
            features.extract(clip, "mbe", f_max=22500.0)


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

    def test_resolution_pair_matches_single_resolution(self, stereo_clip):
        tensor = features.extract(stereo_clip, "bin-mul-mbe", f_max=F_MAX)
        bank = dsp.mel_filterbank(40, 4096, 44100, 0.0, F_MAX)
        for ch in range(2):
            spectra = dsp.stft(stereo_clip.samples[ch], 4096, 4096, 882)
            single = dsp.log_mel_energies(dsp.power_spectrum(spectra), bank)
            assert np.array_equal(tensor.data[:, :, 2 + ch], single)

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
        features.extract(stereo_clip, cfg.feature_class, **cfg.extractor_kwargs())

    @pytest.mark.parametrize("fc", features.FEATURE_CLASSES)
    def test_config_kwargs_give_table_shape(self, stereo_clip, fc):
        cfg = FeatureConfig(feature_class=fc)
        tensor = features.extract(stereo_clip, fc, **cfg.extractor_kwargs())
        spec = features.FEATURE_TABLE[fc]
        # random_search plans pool factors for spec.bins(cfg)
        assert tensor.n_bins == spec.bins(cfg)
        assert tensor.n_channels == spec.channels

    def test_determinism(self, stereo_clip):
        a = features.extract(stereo_clip, "bin-mbe", f_max=F_MAX)
        b = features.extract(stereo_clip, "bin-mbe", f_max=F_MAX)
        assert np.array_equal(a.data, b.data)


class TestNormalizer:
    def test_fit_apply_standardizes(self, rng):
        tensors = [
            features.FeatureTensor(
                data=rng.normal(3.0, 2.5, size=(40, 8, 2)), feature_class="bin-mbe",
                hop_seconds=0.02,
            )
            for _ in range(3)
        ]
        norm = features.fit_normalizer(tensors)
        stacked = np.concatenate(
            [features.apply_normalizer(norm, t).data for t in tensors], axis=0
        )
        assert np.max(np.abs(stacked.mean(axis=0))) < 1e-9
        assert np.max(np.abs(stacked.var(axis=0) - 1.0)) < 1e-6

    def test_constant_bin_maps_to_zero(self):
        data = np.full((20, 4, 1), 2.5)
        tensor = features.FeatureTensor(data=data, feature_class="mbe", hop_seconds=0.02)
        norm = features.fit_normalizer([tensor])
        out = features.apply_normalizer(norm, tensor)
        assert np.all(out.data == 0.0)
        assert np.all(norm.std >= 1e-8)

    def test_apply_is_affine(self, rng):
        tensor = features.FeatureTensor(
            data=rng.normal(size=(30, 5, 1)), feature_class="mbe", hop_seconds=0.02
        )
        norm = features.fit_normalizer([tensor])
        a, b = 1.7, -0.4
        scaled = features.FeatureTensor(
            data=a * tensor.data + b, feature_class="mbe", hop_seconds=0.02
        )
        lhs = features.apply_normalizer(norm, scaled).data
        rhs = (a * tensor.data + b - norm.mean) / norm.std
        assert np.allclose(lhs, rhs, atol=1e-12)

    def test_empty_fit_rejected(self):
        with pytest.raises(StateError):
            features.fit_normalizer([])


class TestChunkSequences:
    def _tensor_roll(self, rng, n_frames, names=("a", "b")):
        tensor = features.FeatureTensor(
            data=rng.normal(size=(n_frames, 6, 1)), feature_class="mbe", hop_seconds=0.02
        )
        roll = EventRoll(
            activity=(rng.random((n_frames, len(names))) < 0.3).astype(np.uint8),
            hop_seconds=0.02,
            class_names=names,
        )
        return tensor, roll

    def test_five_hundred_frames_at_t256(self, rng):
        tensor, roll = self._tensor_roll(rng, 500)
        batch = features.chunk_sequences(tensor, roll, 256)
        assert batch.inputs.shape == (2, 256, 6, 1)
        assert batch.mask[0].all()
        assert batch.mask[1, :244].all()
        assert not batch.mask[1, 244:].any()
        assert np.all(batch.inputs[1, 244:] == 0)

    def test_exact_fit_no_padding(self, rng):
        tensor, roll = self._tensor_roll(rng, 256)
        batch = features.chunk_sequences(tensor, roll, 256)
        assert batch.inputs.shape[0] == 1
        assert batch.mask.all()

    def test_reassembly_is_lossless(self, rng):
        tensor, roll = self._tensor_roll(rng, 333)
        batch = features.chunk_sequences(tensor, roll, 64)
        feats, targets = batch.valid_frames()
        assert np.array_equal(feats, tensor.data)
        assert np.array_equal(targets, roll.activity.astype(float))

    def test_empty_tensor_gives_empty_batch(self, rng):
        tensor = features.FeatureTensor(
            data=np.zeros((0, 6, 1)), feature_class="mbe", hop_seconds=0.02
        )
        roll = EventRoll(
            activity=np.zeros((0, 2), dtype=np.uint8), hop_seconds=0.02, class_names=("a", "b")
        )
        batch = features.chunk_sequences(tensor, roll, 16)
        assert batch.n_sequences == 0

    def test_frame_mismatch_rejected(self, rng):
        tensor, roll = self._tensor_roll(rng, 100)
        short = EventRoll(
            activity=roll.activity[:99], hop_seconds=0.02, class_names=roll.class_names
        )
        with pytest.raises(ShapeError):
            features.chunk_sequences(tensor, short, 16)


class TestArchive:
    def test_round_trip_preserves_float32_payload(self, tmp_path, rng):
        tensor = features.FeatureTensor(
            data=rng.normal(size=(37, 40, 2)), feature_class="bin-mbe", hop_seconds=0.02
        )
        path = tmp_path / "clip.bin-mbe.sedf"
        features.save_feature_archive(tensor, path)
        back = features.load_feature_archive(path)
        assert back.feature_class == "bin-mbe"
        assert back.hop_seconds == 0.02
        assert back.data.shape == (37, 40, 2)
        assert np.array_equal(back.data, tensor.data.astype(np.float32).astype(np.float64))

    def test_hand_written_v1_header_loads(self, tmp_path):
        # v1 layout; class ids 1..4 are mbe, bin-mbe, bin-mul-mbe, bin-fft
        payload = np.arange(2 * 3 * 6, dtype="<f4")
        path = tmp_path / "clip.bin-mul-mbe.sedf"
        header = struct.pack("<4sHHIIId", b"SEDF", 1, 3, 2, 3, 6, 0.02)
        path.write_bytes(header + payload.tobytes())
        back = features.load_feature_archive(path)
        assert back.feature_class == "bin-mul-mbe"
        assert back.hop_seconds == 0.02
        assert np.array_equal(back.data.ravel(), payload)

    def test_magic_enforced(self, tmp_path):
        path = tmp_path / "bogus.sedf"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(StateError):
            features.load_feature_archive(path)

    def test_truncated_payload_rejected(self, tmp_path, rng):
        tensor = features.FeatureTensor(
            data=rng.normal(size=(8, 4, 1)), feature_class="mbe", hop_seconds=0.02
        )
        path = tmp_path / "clip.mbe.sedf"
        features.save_feature_archive(tensor, path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(StateError):
            features.load_feature_archive(path)
