"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line so the whole gate can be read off the pytest -s output.

Run with:  pytest tests/test_acceptance.py -v -s
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np

from oracles import brute_force_score, direct_dft, hamming_by_hand, mel_frame_by_hand, segments_by_or
from sedpipe import dsp, features, metrics, synth
from sedpipe.audio_io import EventRoll, events_to_roll, to_mono
from sedpipe.cli import main as cli_main
from sedpipe.config import TrainSection
from sedpipe.experiment import run_generators
from sedpipe.features import chunk_sequences, fit_normalizer
from sedpipe.nn import (
    CrnnArch,
    bce_loss,
    build_baseline_mlp,
    build_crnn,
    load_checkpoint,
    monitor_scores,
    save_checkpoint,
    train,
)
from sedpipe.nn import layers as nn_layers


def report(name: str, ok: bool, detail: str = "") -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def _random_roll_pair(rng, n_segments, n_classes, frames_per_segment=50):
    shape = (n_segments * frames_per_segment, n_classes)
    ref = (rng.random(shape) < 0.12).astype(np.uint8)
    pred = np.where(rng.random(shape) < 0.08, 1 - ref, ref).astype(np.uint8)
    if ref.sum() == 0:
        ref[int(rng.integers(shape[0])), int(rng.integers(n_classes))] = 1
    names = tuple(f"c{i}" for i in range(n_classes))
    return (
        EventRoll(activity=ref, hop_seconds=0.02, class_names=names),
        EventRoll(activity=pred, hop_seconds=0.02, class_names=names),
    )


class TestMetricCriteria:
    def test_metric_oracle_equivalence_500_pairs(self):
        rng = np.random.default_rng(2024)
        start = time.time()
        worst_er = worst_f = 0.0
        for _ in range(500):
            n_segments = int(rng.integers(1, 61))
            n_classes = int(rng.integers(1, 7))
            ref, pred = _random_roll_pair(rng, n_segments, n_classes)
            rep = metrics.evaluate(ref, pred)
            counts = metrics.count_segments(
                metrics.roll_to_segments(ref), metrics.roll_to_segments(pred)
            )
            per_segment, er, f = brute_force_score(
                segments_by_or(ref.activity, 50), segments_by_or(pred.activity, 50)
            )
            for k, entry in enumerate(per_segment):
                got = (
                    int(counts.tp[k]), int(counts.fp[k]), int(counts.fn[k]), int(counts.n[k]),
                    int(counts.s[k]), int(counts.d[k]), int(counts.i[k]),
                )
                assert got == entry, f"segment {k}: {got} != {entry}"
            worst_er = max(worst_er, abs(rep.error_rate - er))
            worst_f = max(worst_f, abs(rep.f_score - f))
            assert abs(rep.error_rate - er) <= 1e-12
            assert abs(rep.f_score - f) <= 1e-12
        elapsed = time.time() - start
        report(
            "metric oracle equivalence (500 randomized pairs)",
            elapsed < 10.0,
            f"max |dER|={worst_er:.1e}, max |dF|={worst_f:.1e}, {elapsed:.1f}s",
        )

    def test_metric_identities_and_ideal_case(self):
        rng = np.random.default_rng(77)
        for _ in range(200):
            ref, pred = _random_roll_pair(rng, int(rng.integers(1, 20)), int(rng.integers(1, 7)))
            counts = metrics.count_segments(
                metrics.roll_to_segments(ref), metrics.roll_to_segments(pred)
            )
            assert np.array_equal(counts.s + counts.d, counts.fn)
            assert np.array_equal(counts.s + counts.i, counts.fp)
            perfect = metrics.evaluate(ref, ref)
            assert perfect.error_rate == 0.0
            assert perfect.f_score == 1.0
        report("metric identities S+D=FN, S+I=FP and ideal ER=0/F=1", True)


class TestDspCriteria:
    def test_stft_parseval_and_mel_oracles(self):
        rng = np.random.default_rng(5150)
        start = time.time()
        worst = 0.0
        for _ in range(100):
            n = int(2 ** rng.integers(3, 11))  # 8 .. 1024
            window_len = int(rng.integers(1, n + 1))
            hop = int(rng.integers(1, window_len + 1))
            samples = rng.normal(size=int(rng.integers(1, 3 * n)))
            spectra = dsp.stft(samples, window_len, n, hop)
            f = int(rng.integers(spectra.shape[0]))
            # frame f: the window_len samples from f*hop - window_len//2,
            # zero outside the signal, windowed and zero padded to n
            frame = np.zeros(n)
            for k, w in enumerate(hamming_by_hand(window_len)):
                i = f * hop - window_len // 2 + k
                if 0 <= i < samples.size:
                    frame[k] = samples[i] * w
            ref = direct_dft(frame)[: n // 2 + 1]
            scale = max(1.0, float(np.max(np.abs(ref))))
            worst = max(worst, float(np.max(np.abs(spectra[f] - ref))) / scale)
            assert worst < 1e-9
            # Parseval over the one-sided row: the bins strictly between DC
            # and Nyquist stand for two bins each of the full spectrum
            power = np.abs(spectra[f]) ** 2
            time_energy = float(np.sum(frame**2))
            freq_energy = float(power[0] + power[-1] + 2.0 * np.sum(power[1:-1])) / n
            assert abs(time_energy - freq_energy) / time_energy < 1e-9

        # one hand-composed mel frame against the extractor path
        sr, window_len, fft_size, hop = 8000, 320, 512, 160
        samples = rng.normal(size=sr) * 0.2
        bank = dsp.mel_filterbank(12, fft_size, sr, 0.0, sr / 2)
        ours_mel = dsp.log_mel_energies(
            dsp.power_spectrum(dsp.stft(samples, window_len, fft_size, hop)), bank
        )
        f = 13
        frame = samples[f * hop - window_len // 2 : f * hop + window_len - window_len // 2]
        hand = mel_frame_by_hand(frame, dsp.hamming_window(window_len), fft_size, bank.weights)
        mel_err = float(np.max(np.abs(ours_mel[f] - hand)))
        assert mel_err < 1e-9
        elapsed = time.time() - start
        report(
            "dsp correctness (stft oracle, parseval, hand mel frame)",
            True,
            f"max stft err {worst:.1e}, mel err {mel_err:.1e}, {elapsed:.1f}s",
        )


class TestFeatureCriteria:
    def test_shape_contract_on_ten_second_stereo_clip(self):
        start = time.time()
        spec = synth.SynthSpec(n_clips=1, duration_s=10.0, class_count=3, polyphony_max=2, seed=3)
        clip, _ = list(synth.synth_dataset(spec))[0]
        expected = {
            "mbe": (500, 40, 1),
            "bin-mbe": (500, 40, 2),
            "bin-mul-mbe": (500, 40, 6),
            "bin-fft": (500, 1024, 4),
        }
        shapes = {}
        for fc, want in expected.items():
            kwargs = {} if fc == "bin-fft" else {"f_max": 22050.0}
            tensor = features.extract(clip, fc, **kwargs)
            shapes[fc] = tensor.data.shape
            assert tensor.data.shape == want, f"{fc}: {tensor.data.shape} != {want}"
        elapsed = time.time() - start
        report(
            "feature shape contract (500,40,1)/(500,40,2)/(500,40,6)/(500,1024,4)",
            elapsed < 30.0,
            f"{elapsed:.1f}s",
        )


class TestGradientCriteria:
    def test_gradient_suite_every_layer_and_end_to_end(self):
        from oracles import finite_difference_gradients, max_relative_error

        start = time.time()
        rng = np.random.default_rng(1312)
        worst = {}

        def check(name, layer, x, owners=None):
            out = layer.forward(x, training=True)
            proj = np.random.default_rng(99).normal(size=out.shape)

            def loss():
                return float((layer.forward(x, training=True) * proj).sum())

            layer.forward(x, training=True)
            dx = layer.backward(proj)
            errs = []
            (fd_x,) = finite_difference_gradients(loss, [x])
            errs.append(max_relative_error(dx, fd_x))
            for owner in owners or (layer,):
                for pname in owner.params:
                    (fd_p,) = finite_difference_gradients(loss, [owner.params[pname]])
                    errs.append(max_relative_error(owner.grads[pname], fd_p))
            worst[name] = max(errs)
            assert worst[name] < 1e-5, f"{name}: {worst[name]:.2e}"

        check("conv2d", nn_layers.Conv2D(2, 3, rng=rng), rng.normal(size=(1, 8, 8, 2)))
        # conv, batch norm and frequency max pool as the one conv block layer
        block = nn_layers.ConvBlock(2, 3, 4, rng=rng)
        block.params["gamma"][...] = rng.normal(size=3) + np.array([1.5, -1.5, 1.5])
        block.params["beta"][...] = rng.normal(size=3)
        check("conv_block", block, rng.normal(size=(2, 4, 8, 2)), (block,))
        check("bigru", nn_layers.BiGRU(3, 4, rng=rng), rng.normal(size=(2, 5, 3)))
        check("time_dense", nn_layers.TimeDense(4, 3, activation="linear", rng=rng),
              rng.normal(size=(2, 6, 4)))

        # sigmoid head + BCE as one differentiable unit
        head = nn_layers.TimeDense(4, 2, activation="sigmoid", rng=rng)
        x = rng.normal(size=(1, 6, 4))
        y = (rng.random((1, 6, 2)) < 0.5).astype(float)
        mask = np.ones((1, 6), dtype=bool)

        def head_loss():
            return bce_loss(head.forward(x, training=True), y, mask)[0]

        out = head.forward(x, training=True)
        _, dpred = bce_loss(out, y, mask)
        head.backward(dpred)
        errs = []
        for pname in head.params:
            (fd_p,) = finite_difference_gradients(head_loss, [head.params[pname]])
            errs.append(max_relative_error(head.grads[pname], fd_p))
        worst["sigmoid+bce"] = max(errs)
        assert worst["sigmoid+bce"] < 1e-5

        # tiny end-to-end CRNN
        arch = CrnnArch(
            n_bins=40, n_channels=1, n_classes=2, conv_layers=1, filters=2,
            pool_factors=(20,), gru_layers=1, gru_units=3, dense_layers=1,
            dense_units=4, dropout=0.0,
        )
        model = build_crnn(arch, rng).astype(np.float64)
        x = rng.normal(size=(1, 8, 40, 1))
        y = (rng.random((1, 8, 2)) < 0.5).astype(float)
        mask = np.ones((1, 8), dtype=bool)

        def model_loss():
            return bce_loss(model.forward(x, training=True), y, mask)[0]

        out = model.forward(x, training=True)
        _, dpred = bce_loss(out, y, mask)
        model.backward(dpred)
        e2e = 0.0
        for key, p in model.parameters():
            (fd,) = finite_difference_gradients(model_loss, [p])
            e2e = max(e2e, max_relative_error(model.gradient(key), fd))
        worst["end-to-end crnn"] = e2e
        assert e2e < 1e-4

        elapsed = time.time() - start
        detail = ", ".join(f"{k} {v:.1e}" for k, v in worst.items())
        report("gradient suite (< 1e-5 per layer, < 1e-4 end to end)", elapsed < 120.0,
               f"{detail}, {elapsed:.1f}s")


def _prepare_batches(clips, names, feature_class, seq_len=64, split=None):
    """(train, test) batches and the channel count."""
    tensors, rolls = [], []
    for clip, events in clips:
        tensor = features.extract(clip, feature_class, f_max=22050.0)
        tensors.append(tensor)
        rolls.append(events_to_roll(events, tensor.n_frames, tensor.hop_seconds, names))
    if split is None:
        train_idx = test_idx = range(len(clips))
    else:
        train_idx, test_idx = split
    norm = fit_normalizer([tensors[i].data for i in train_idx])

    def make(idx):
        return chunk_sequences([(tensors[i].data, rolls[i]) for i in idx], seq_len, norm)

    return make(train_idx), make(test_idx), tensors[0].n_channels


class TestTrainingCriteria:
    def test_overfit_and_early_stopping_restore(self, tiny_dataset):
        start = time.time()
        clips, names = tiny_dataset
        batch, _, _ = _prepare_batches(clips, names, "mbe")
        # a one-second hop gives one frame per one-second segment: a frame ER
        batch = dataclasses.replace(batch, hop_seconds=1.0)
        arch = CrnnArch(
            n_bins=40, n_channels=1, n_classes=2, conv_layers=2, filters=8,
            pool_factors=(5, 4), gru_layers=1, gru_units=16, dense_layers=1,
            dense_units=16, dropout=0.05,
        )
        model = build_crnn(arch, np.random.default_rng(1))
        cfg = TrainSection(learning_rate=3e-3, max_epochs=200, patience=60, batch_size=4, monitor="test")
        model, history = train(model, batch, batch, cfg, *run_generators(1)[1:])
        best = min(history.monitor_er)
        er_now = monitor_scores(model, batch, 0.5).error_rate
        elapsed = time.time() - start
        ok = best < 0.2 and history.n_epochs <= 200 and er_now == best and elapsed < 600
        report(
            "overfit: frame ER < 0.2 within 200 epochs; best snapshot restored",
            ok,
            f"best ER {best:.3f} at epoch {history.best_epoch}, restored ER {er_now:.3f}, "
            f"{history.n_epochs} epochs, {elapsed:.0f}s",
        )

    def test_binaural_beats_mono_when_only_gain_differs(self):
        start = time.time()
        scores = {"mbe": [], "bin-mbe": []}
        arch_base = dict(
            n_bins=40, n_classes=2, conv_layers=2, filters=8, pool_factors=(5, 4),
            gru_layers=1, gru_units=16, dense_layers=1, dense_units=16, dropout=0.05,
        )
        for seed in (1, 2, 3):
            spec = synth.SynthSpec(
                n_clips=6, duration_s=6.0, class_count=2, polyphony_max=1,
                seed=100 + seed, events_per_clip=(3, 6), event_duration=(0.4, 1.2),
                template_mode="shared",
            )
            clips = list(synth.synth_dataset(spec))
            names = synth.class_names(spec)
            for fc in ("mbe", "bin-mbe"):
                train_batch, test_batch, n_ch = _prepare_batches(
                    clips, names, fc, split=(range(4), range(4, 6))
                )
                model = build_crnn(
                    CrnnArch(n_channels=n_ch, **arch_base), np.random.default_rng(seed)
                )
                cfg = TrainSection(learning_rate=3e-3, max_epochs=30, patience=29, batch_size=4, monitor="test")
                model, _ = train(model, train_batch, test_batch, cfg, *run_generators(seed)[1:])
                scores[fc].append(monitor_scores(model, test_batch, 0.5).error_rate)
        mean_mbe = float(np.mean(scores["mbe"]))
        mean_bin = float(np.mean(scores["bin-mbe"]))
        elapsed = time.time() - start
        report(
            "relative ordering: bin-mbe ER strictly below mbe ER (3-seed mean)",
            mean_bin < mean_mbe,
            f"mbe {mean_mbe:.3f} vs bin-mbe {mean_bin:.3f}, {elapsed:.0f}s",
        )

    def test_baseline_structure_and_learning(self, tiny_dataset):
        clips, names = tiny_dataset
        model = build_baseline_mlp(len(names), rng=np.random.default_rng(4))
        dense1 = model.layers[1]
        dense2 = model.layers[2]
        drop = model.layers[3]
        head = model.layers[4]
        structure_ok = (
            dense1.params["W"].shape == (200, 50)
            and dense2.params["W"].shape == (50, 50)
            and drop.descriptor() == {"type": "dropout", "rate": 0.2}
            and head.descriptor()["units"] == len(names)
            and head.descriptor()["activation"] == "sigmoid"
        )

        from sedpipe.nn import mbe_context_windows

        tensors, rolls = [], []
        for clip, events in clips:
            tensor = features.extract(to_mono(clip), "mbe", f_max=22050.0)
            tensors.append(tensor)
            rolls.append(events_to_roll(events, tensor.n_frames, tensor.hop_seconds, names))
        contexts = [mbe_context_windows(t) for t in tensors]
        norm = fit_normalizer(contexts)
        batch = chunk_sequences(list(zip(contexts, rolls)), 64, norm)
        # monitored at a one-second hop, one frame per segment
        batch = dataclasses.replace(batch, hop_seconds=1.0)
        cfg = TrainSection(learning_rate=3e-3, max_epochs=200, patience=199, batch_size=4, monitor="test")
        model, history = train(model, batch, batch, cfg, *run_generators(4)[1:])
        decrease = 1.0 - history.train_loss[-1] / history.train_loss[0]
        report(
            "baseline: input width 200, 50-50-dropout(0.2)-sigmoid, loss halves",
            structure_ok and decrease > 0.5,
            f"loss decrease {100 * decrease:.0f}% over {history.n_epochs} epochs",
        )


class TestArtifactCriteria:
    def test_cmd_train_determinism_byte_identical(self, tmp_path, capsys):
        cfg_text = """
[data]
n_clips = 4
duration_s = 3.0
class_count = 2
folds = 2
seed = 77
bit_depth = 16
root = {root}

[features]
feature_class = mbe
f_max = 22050

[model]
conv_layers = 1
filters = 4
pool_factors = 20
gru_layers = 1
gru_units = 8
dense_layers = 0
dropout = 0.05

[train]
learning_rate = 0.003
max_epochs = 5
patience = 4
batch_size = 4
sequence_length = 64
monitor = test
seed = 5
n_runs = 1
folds = 1
"""
        data = tmp_path / "data"
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(cfg_text.format(root=data), encoding="utf-8")
        assert cli_main(["synth", "--config", str(cfg), "--out", str(data)]) == 0
        out_a, out_b = tmp_path / "runs_a", tmp_path / "runs_b"
        assert cli_main(["train", "--config", str(cfg), "--out", str(out_a)]) == 0
        assert cli_main(["train", "--config", str(cfg), "--out", str(out_b)]) == 0
        capsys.readouterr()
        pairs = [
            ("fold1/run1/checkpoint.sedm", "checkpoint"),
            ("fold1/run1/history.tsv", "history"),
        ]
        same = all(
            (out_a / rel).read_bytes() == (out_b / rel).read_bytes() for rel, _ in pairs
        )
        report("determinism: repeated cmd_train is byte-identical", same)

    def test_checkpoint_round_trip_bitwise(self, tmp_path, rng):
        arch = CrnnArch(
            n_bins=40, n_channels=2, n_classes=3, conv_layers=2, filters=4,
            pool_factors=(5, 4), gru_layers=1, gru_units=8, dense_layers=1,
            dense_units=8, dropout=0.0,
        )
        model = build_crnn(arch, rng)
        model.forward(rng.normal(size=(2, 16, 40, 2)), training=True)
        path = tmp_path / "model.sedm"
        save_checkpoint(model, path)
        loaded, _ = load_checkpoint(path)
        identical = True
        for _ in range(10):
            x = rng.normal(size=(1, 16, 40, 2))
            a = model.forward(x, training=False)
            b = loaded.forward(x, training=False)
            identical = identical and np.array_equal(a, b)
        report("checkpoint round trip reproduces predictions bitwise", identical)
