from __future__ import annotations

import numpy as np
import pytest

from oracles import finite_difference_gradients, max_relative_error
from sedpipe.errors import CheckpointError, ConfigError, RangeError
from sedpipe.features import Normalizer
from sedpipe.nn import (
    CrnnArch,
    ModelGraph,
    adam_step,
    bce_loss,
    build_baseline_mlp,
    build_crnn,
    load_checkpoint,
    mbe_context_windows,
    pool_plan,
    save_checkpoint,
)


def tiny_arch(**kwargs):
    base = dict(
        n_bins=40, n_channels=1, n_classes=2, conv_layers=1, filters=2,
        pool_factors=(20,), gru_layers=1, gru_units=3, dense_layers=1,
        dense_units=4, dropout=0.0,
    )
    base.update(kwargs)
    return CrnnArch(**base)


class TestAdam:
    def test_zero_gradient_leaves_params_but_decays_moments(self):
        p = np.array([1.0, -2.0])
        m = np.array([0.5, 0.5])
        v = np.array([0.25, 0.25])
        adam_step(p, np.zeros(2), m, v, t=1, lr=0.1)
        # m_hat = m/(1-b1) recovers 0.5 -> the update uses stale momentum,
        # so params move, but moments themselves shrink by beta
        assert np.allclose(m, 0.9 * 0.5)
        assert np.allclose(v, 0.999 * 0.25)

    def test_first_step_magnitude_is_lr_signed(self):
        # m_hat/sqrt(v_hat) = sign(g) up to the eps regularizer
        for g in (0.001, 3.0, -250.0):
            p = np.array([1.0])
            m = np.zeros(1)
            v = np.zeros(1)
            adam_step(p, np.array([g]), m, v, t=1, lr=0.1)
            assert p[0] == pytest.approx(1.0 - 0.1 * np.sign(g), rel=1e-4)

    def test_scalar_quadratic_converges(self):
        x = np.array([1.0])
        m = np.zeros(1)
        v = np.zeros(1)
        for t in range(1, 201):
            grad = 2.0 * x
            adam_step(x, grad, m, v, t=t, lr=0.1)
        assert abs(x[0]) < 0.05

    def test_step_count_must_be_positive(self):
        with pytest.raises(RangeError):
            adam_step(np.zeros(1), np.zeros(1), np.zeros(1), np.zeros(1), t=0)


class TestPoolPlan:
    def test_mel_default_plan(self):
        assert pool_plan(40, 3) == (5, 2, 2)
        assert pool_plan(40, 2) == (5, 4)
        assert pool_plan(40, 1) == (20,)

    def test_fft_plan_is_eight_cubed(self):
        assert pool_plan(1024, 3) == (8, 8, 8)

    def test_impossible_plan_rejected(self):
        with pytest.raises(ConfigError):
            pool_plan(41, 2)


class TestBuildCrnn:
    def test_forward_shape_and_range(self):
        rng = np.random.default_rng(0)
        arch = CrnnArch(
            n_bins=40, n_channels=1, n_classes=6, conv_layers=3, filters=4,
            pool_factors=(5, 2, 2), gru_layers=1, gru_units=4, dense_layers=1,
            dense_units=4, dropout=0.0,
        )
        model = build_crnn(arch, rng)
        # batch norm has no running stats yet, so exercise training mode
        out = model.forward(rng.normal(size=(1, 256, 40, 1)), training=True)
        assert out.shape == (1, 256, 6)
        assert np.all(out > 0) and np.all(out < 1)

    def test_conv_block_ends_at_two_bins(self):
        rng = np.random.default_rng(0)
        arch = tiny_arch(n_bins=1024, pool_factors=(8, 8, 8), conv_layers=3, filters=3)
        model = build_crnn(arch, rng)
        x = rng.normal(size=(1, 4, 1024, 1))
        for layer in model.layers:
            x = layer.forward(x, training=True, rng=rng)
            if layer.descriptor()["type"] == "max_pool_freq" and x.shape[2] == 2:
                break
        assert x.shape == (1, 4, 2, 3)

    def test_bad_pool_product_rejected(self):
        with pytest.raises(ConfigError):
            build_crnn(tiny_arch(pool_factors=(10,)), np.random.default_rng(0))

    def test_negative_dense_layers_rejected(self):
        # the search sampler rejects this config, so the builder must too
        with pytest.raises(ConfigError):
            build_crnn(tiny_arch(dense_layers=-1), np.random.default_rng(0))

    def test_end_to_end_gradients(self, rng):
        model = build_crnn(tiny_arch(), rng)
        x = rng.normal(size=(1, 8, 40, 1))
        y = (rng.random((1, 8, 2)) < 0.5).astype(float)
        mask = np.ones((1, 8), dtype=bool)

        def loss():
            out = model.forward(x, training=True)
            return bce_loss(out, y, mask)[0]

        out = model.forward(x, training=True)
        _, dpred = bce_loss(out, y, mask)
        model.backward(dpred)
        worst = 0.0
        for key, p in model.parameters():
            (fd,) = finite_difference_gradients(loss, [p])
            worst = max(worst, max_relative_error(model.gradient(key), fd))
        assert worst < 1e-4

    def test_forward_inference_shape_with_batchnorm_stats(self, rng):
        model = build_crnn(tiny_arch(), rng)
        x = rng.normal(size=(2, 8, 40, 1))
        model.forward(x, training=True)
        out = model.forward(x, training=False)
        assert out.shape == (2, 8, 2)


class TestForwardDeterminism:
    def test_batch_permutation_permutes_outputs(self, rng):
        model = build_crnn(tiny_arch(), rng)
        x = rng.normal(size=(4, 8, 40, 1))
        model.forward(x, training=True)
        out = model.forward(x, training=False)
        flipped = model.forward(x[::-1].copy(), training=False)
        assert np.array_equal(out[::-1], flipped)

    def test_single_vs_batched_inference_agrees(self, rng):
        model = build_crnn(tiny_arch(), rng)
        x = rng.normal(size=(3, 8, 40, 1))
        model.forward(x, training=True)
        batched = model.forward(x, training=False)
        singles = np.concatenate(
            [model.forward(x[i : i + 1], training=False) for i in range(3)], axis=0
        )
        assert np.allclose(batched, singles, rtol=0, atol=1e-12)


class TestCheckpoint:
    def test_round_trip_reproduces_forward_bitwise(self, rng, tmp_path):
        model = build_crnn(tiny_arch(conv_layers=2, pool_factors=(5, 4), filters=3), rng)
        model.forward(rng.normal(size=(2, 8, 40, 1)), training=True)
        norm = Normalizer(mean=rng.normal(size=(40, 1)), std=np.abs(rng.normal(size=(40, 1))) + 0.1)
        path = tmp_path / "model.sedm"
        save_checkpoint(model, path, norm)
        loaded, norm_back = load_checkpoint(path)
        assert np.array_equal(norm.mean, norm_back.mean)
        assert np.array_equal(norm.std, norm_back.std)
        for _ in range(10):
            x = rng.normal(size=(1, 8, 40, 1))
            assert np.array_equal(
                model.forward(x, training=False), loaded.forward(x, training=False)
            )

    def test_descriptor_mismatch_rejected(self, rng, tmp_path):
        model = build_crnn(tiny_arch(), rng)
        model.forward(rng.normal(size=(1, 4, 40, 1)), training=True)
        path = tmp_path / "model.sedm"
        save_checkpoint(model, path)
        other = build_crnn(tiny_arch(gru_units=4), rng)
        with pytest.raises(CheckpointError):
            load_checkpoint(path, expect_descriptor=other.descriptor())
        load_checkpoint(path, expect_descriptor=model.descriptor())

    def test_truncated_file_rejected(self, rng, tmp_path):
        model = build_crnn(tiny_arch(), rng)
        path = tmp_path / "model.sedm"
        save_checkpoint(model, path)
        path.write_bytes(path.read_bytes()[:-16])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.sedm"
        path.write_bytes(b"JUNKnotacheckpoint")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_snapshot_restore_round_trip(self, rng):
        model = build_crnn(tiny_arch(), rng)
        model.forward(rng.normal(size=(1, 4, 40, 1)), training=True)
        snap = model.snapshot()
        before = model.forward(rng.normal(size=(1, 4, 40, 1)) * 0, training=False)
        for _, p in model.parameters():
            p += 1.0
        model.restore(snap)
        after = model.forward(np.zeros((1, 4, 40, 1)), training=False)
        assert np.array_equal(before, after)


class TestBaseline:
    def test_input_width_is_forty_times_five(self):
        model = build_baseline_mlp(6, rng=np.random.default_rng(0))
        dense = model.layers[1]
        assert dense.params["W"].shape == (200, 50)

    def test_architecture_is_fifty_fifty_dropout_sigmoid(self):
        model = build_baseline_mlp(6, rng=np.random.default_rng(0))
        kinds = [layer.descriptor() for layer in model.layers]
        assert kinds[0]["type"] == "flatten_freq"
        assert kinds[1] == {"type": "time_dense", "in_dim": 200, "units": 50, "activation": "relu"}
        assert kinds[2] == {"type": "time_dense", "in_dim": 50, "units": 50, "activation": "relu"}
        assert kinds[3] == {"type": "dropout", "rate": 0.2}
        assert kinds[4] == {"type": "time_dense", "in_dim": 50, "units": 6, "activation": "sigmoid"}

    def test_forward_outputs_probabilities(self, rng):
        model = build_baseline_mlp(4, rng=rng)
        out = model.forward(rng.normal(size=(2, 7, 200, 1)), training=True, rng=rng)
        assert out.shape == (2, 7, 4)
        assert np.all((out > 0) & (out < 1))

    def test_gradients_match_finite_differences(self, rng):
        model = build_baseline_mlp(2, n_mels=4, context=3, hidden=5, dropout_rate=0.0, rng=rng)
        x = rng.normal(size=(1, 4, 12, 1))
        y = (rng.random((1, 4, 2)) < 0.5).astype(float)
        mask = np.ones((1, 4), dtype=bool)

        def loss():
            return bce_loss(model.forward(x, training=True), y, mask)[0]

        out = model.forward(x, training=True)
        _, dpred = bce_loss(out, y, mask)
        model.backward(dpred)
        worst = 0.0
        for key, p in model.parameters():
            (fd,) = finite_difference_gradients(loss, [p])
            worst = max(worst, max_relative_error(model.gradient(key), fd))
        assert worst < 1e-6

    def test_context_windows_center_and_replicate_edges(self, rng):
        data = rng.normal(size=(6, 3, 1))
        windows = mbe_context_windows(data, context=5)
        assert windows.shape == (6, 15, 1)
        # frame 0 window = frames (0, 0, 0, 1, 2) after edge replication
        expected = np.concatenate([data[0], data[0], data[0], data[1], data[2]])
        assert np.array_equal(windows[0], expected)
        # middle frame is a plain centered window
        expected_mid = np.concatenate([data[1], data[2], data[3], data[4], data[5]])
        assert np.array_equal(windows[3], expected_mid)

    def test_non_mbe_tensor_rejected(self, rng):
        from sedpipe.features import FeatureTensor

        tensor = FeatureTensor(
            data=rng.normal(size=(4, 40, 2)), feature_class="bin-mbe", hop_seconds=0.02
        )
        with pytest.raises(ConfigError):
            mbe_context_windows(tensor)


def test_model_graph_from_descriptor_rebuilds_same_topology(rng):
    model = build_crnn(tiny_arch(), rng)
    rebuilt = ModelGraph.from_descriptor(model.descriptor())
    assert rebuilt.descriptor() == model.descriptor()
    assert rebuilt.n_parameters() == model.n_parameters()
