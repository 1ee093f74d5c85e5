from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import direct_dft, mel_frame_by_hand
from sedpipe import dsp
from sedpipe.errors import RangeError, ShapeError


class TestHammingWindow:
    def test_length_one_is_constant_term(self):
        assert dsp.hamming_window(1).tolist() == [0.54]

    @pytest.mark.parametrize("n", [2, 3, 16, 1764])
    def test_endpoints(self, n):
        w = dsp.hamming_window(n)
        assert w.shape == (n,)
        assert w[0] == pytest.approx(0.08, abs=1e-15)
        assert w[-1] == pytest.approx(0.08, abs=1e-15)

    @pytest.mark.parametrize("n", [3, 41, 1765])
    def test_odd_midpoint_is_one(self, n):
        w = dsp.hamming_window(n)
        assert w[(n - 1) // 2] == pytest.approx(1.0, abs=1e-12)

    def test_symmetry(self):
        w = dsp.hamming_window(50)
        assert np.allclose(w, w[::-1], atol=1e-15)

    def test_rejects_zero_length(self):
        with pytest.raises(RangeError):
            dsp.hamming_window(0)

    def test_repeat_call_returns_the_same_read_only_array(self):
        w = dsp.hamming_window(64)
        assert dsp.hamming_window(64) is w
        with pytest.raises(ValueError):
            w[0] = 1.0


class TestStft:
    def test_frame_count_is_ceil_len_over_hop(self):
        spectra = dsp.stft(np.zeros(441000), 1764, 2048, 882)
        assert spectra.shape == (500, 1025)

    def test_empty_input_gives_empty_frames(self):
        spectra = dsp.stft(np.zeros(0), 64, 64, 16)
        assert spectra.shape == (0, 33)

    def test_zero_signal_gives_zero_spectra(self):
        spectra = dsp.stft(np.zeros(5000), 400, 512, 100)
        assert np.all(spectra == 0)

    def test_sine_at_bin_center_concentrates(self):
        # a Hamming window spreads a bin-centered sine over its mainlobe:
        # the peak lands on the expected bin and the +/-1 neighbourhood
        # carries nearly all frame power (a single bin alone cannot exceed
        # ~73% under any Hamming analysis)
        sr, k, fft_size = 44100, 10, 2048
        x = np.sin(2 * np.pi * np.arange(sr) * (k * sr / fft_size) / sr)
        frame_power = dsp.power_spectrum(dsp.stft(x, 1764, fft_size, 882)[25])
        assert int(np.argmax(frame_power)) == k
        assert frame_power[k - 1 : k + 2].sum() / frame_power.sum() > 0.9

    def test_one_frame_matches_direct_dft(self, rng):
        x = rng.normal(size=4000)
        window_len, fft_size, hop = 256, 512, 100
        spectra = dsp.stft(x, window_len, fft_size, hop)
        f = 7
        start = f * hop - window_len // 2
        frame = x[start : start + window_len] * dsp.hamming_window(window_len)
        buf = np.zeros(fft_size)
        buf[:window_len] = frame
        expected = direct_dft(buf)[: fft_size // 2 + 1]
        assert np.max(np.abs(spectra[f] - expected)) < 1e-9

    @given(
        st.integers(min_value=1, max_value=3000),
        st.integers(min_value=1, max_value=500),
        st.sampled_from([(64, 64), (200, 256), (512, 512)]),
    )
    @settings(max_examples=30, deadline=None)
    def test_frame_count_independent_of_window(self, n, hop, window):
        window_len, fft_size = window
        frames = dsp.stft(np.zeros(n), window_len, fft_size, hop).shape[0]
        assert frames == -(-n // hop)

    @pytest.mark.parametrize("n", [0, 3, 6, 100])
    def test_rejects_non_power_of_two(self, n):
        with pytest.raises(RangeError, match="power of two"):
            dsp.stft(np.zeros(10), 1, n, 1)

    def test_rejects_bad_sizes(self):
        with pytest.raises(RangeError, match="power of two"):
            dsp.stft(np.zeros(10), 8, 12, 4)
        with pytest.raises(RangeError):
            dsp.stft(np.zeros(10), 32, 16, 4)
        with pytest.raises(RangeError):
            dsp.stft(np.zeros(10), 8, 16, 0)
        with pytest.raises(ShapeError):
            dsp.stft(np.zeros((3, 5)), 4, 8, 2)

    # 4000 samples at hop 100 give F = 40; the 256-point window reaches past
    # both signal edges for frames 0-1 and 39, so those rows see padding
    @pytest.mark.parametrize(
        "start, stop",
        [(0, 1), (0, 5), (1, 3), (17, 30), (36, 40), (39, 40), (12, 12), (40, 40), (33, 99), (40, None), (55, 80)],
    )
    def test_frame_range_equals_rows_of_whole_transform(self, rng, start, stop):
        x = rng.normal(size=4000)
        whole = dsp.stft(x, 256, 512, 100)
        part = dsp.stft(x, 256, 512, 100, start, stop)
        assert np.array_equal(part, whole[start:stop])

    def test_default_range_is_the_whole_transform(self, rng):
        x = rng.normal(size=1001)
        assert np.array_equal(dsp.stft(x, 200, 256, 80, 0, None), dsp.stft(x, 200, 256, 80))

    @pytest.mark.parametrize("start, stop", [(-1, 3), (-1, None), (5, 4), (1, 0)])
    def test_rejects_negative_or_inverted_range(self, start, stop):
        with pytest.raises(RangeError):
            dsp.stft(np.zeros(1000), 64, 64, 16, start, stop)


class TestMelFilterbank:
    def test_mel_formula_values(self):
        assert dsp.mel_from_hz(0.0) == 0.0
        assert dsp.mel_from_hz(700.0) == pytest.approx(2595.0 * np.log10(2.0), rel=1e-12)
        # 1 + f/700 = 10, 100 and 1000: the mel value is 2595 times the decade
        f = np.array([6300.0, 69300.0, 699300.0])
        assert np.allclose(dsp.mel_from_hz(f), [2595.0, 5190.0, 7785.0], rtol=1e-12, atol=0)

    def test_standard_bank_shape_and_rows(self):
        bank = dsp.mel_filterbank(40, 2048, 44100, 0.0, 22050.0)
        assert bank.weights.shape == (40, 1025)
        assert np.all((bank.weights > 0).any(axis=1))
        assert bank.weights.min() >= 0.0
        assert bank.weights.max() == pytest.approx(1.0, abs=0.05)

    def test_interior_bins_are_covered(self):
        bank = dsp.mel_filterbank(40, 2048, 44100, 0.0, 22050.0)
        freqs = np.arange(1025) * 44100 / 2048
        interior = (freqs > 0.0) & (freqs < 22050.0)
        coverage = bank.weights.sum(axis=0)
        assert np.all(coverage[interior] > 0.0)

    def test_rejects_f_max_above_nyquist(self):
        with pytest.raises(RangeError):
            dsp.mel_filterbank(40, 2048, 44100, 0.0, 22500.0)

    def test_rejects_bad_ranges(self):
        with pytest.raises(RangeError):
            dsp.mel_filterbank(0, 2048, 44100, 0.0, 44100 / 2)
        with pytest.raises(RangeError):
            dsp.mel_filterbank(40, 2048, 44100, 1000.0, 500.0)


class TestLogMelEnergies:
    def test_all_zero_power_hits_floor(self):
        bank = dsp.mel_filterbank(8, 256, 8000, 0.0, 8000 / 2)
        out = dsp.log_mel_energies(np.zeros((4, 129)), bank)
        assert np.allclose(out, np.log(1e-10), atol=0)

    def test_power_scaling_adds_log_ten(self, rng):
        bank = dsp.mel_filterbank(8, 256, 8000, 0.0, 8000 / 2)
        frames = rng.uniform(0.5, 2.0, size=(5, 129))
        base = dsp.log_mel_energies(frames, bank)
        scaled = dsp.log_mel_energies(10.0 * frames, bank)
        assert np.allclose(scaled - base, np.log(10.0), atol=1e-12)

    def test_matches_double_loop_oracle(self, rng):
        bank = dsp.mel_filterbank(6, 128, 8000, 0.0, 8000 / 2)
        frame = rng.uniform(0.0, 1.0, size=(1, 65))
        out = dsp.log_mel_energies(frame, bank)
        expected = np.zeros(6)
        for m in range(6):
            acc = 0.0
            for k in range(65):
                acc += bank.weights[m, k] * frame[0, k]
            expected[m] = np.log(max(acc, 1e-10))
        assert np.max(np.abs(out[0] - expected)) < 1e-9

    def test_rejects_bin_mismatch(self):
        bank = dsp.mel_filterbank(8, 256, 8000, 0.0, 8000 / 2)
        with pytest.raises(ShapeError):
            dsp.log_mel_energies(np.zeros((4, 100)), bank)


def test_hand_composed_mel_frame_matches_extractor_path(rng):
    # end-to-end single-frame pipeline against the loop oracle
    x = rng.normal(size=3000) * 0.3
    window_len, fft_size, hop = 200, 256, 80
    bank = dsp.mel_filterbank(10, fft_size, 8000, 0.0, 4000.0)
    spectra = dsp.stft(x, window_len, fft_size, hop)
    ours = dsp.log_mel_energies(dsp.power_spectrum(spectra), bank)

    f = 11
    start = f * hop - window_len // 2
    frame = x[start : start + window_len]
    expected = mel_frame_by_hand(frame, dsp.hamming_window(window_len), fft_size, bank.weights)
    assert np.max(np.abs(ours[f] - expected)) < 1e-9
