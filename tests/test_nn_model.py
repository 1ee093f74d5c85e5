from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from oracles import finite_difference_gradients, max_relative_error
from sedpipe.errors import CheckpointError, ConfigError, RangeError
from sedpipe.features import Normalizer
from sedpipe.nn import (
    BatchNorm,
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

    def test_state_key_order_is_the_checkpoint_payload_order(self, rng):
        # checkpoint bytes follow this order, so it must not drift
        keys = [key for key, _ in build_crnn(tiny_arch(), rng).state_arrays()]
        assert keys == [
            "0.kernels",
            "1.gamma", "1.beta",
            "1.buffer.running_mean", "1.buffer.running_var", "1.buffer.updates",
            "5.fwd_W", "5.fwd_U", "5.fwd_b", "5.bwd_W", "5.bwd_U", "5.bwd_b",
            "7.W", "7.b",
            "9.W", "9.b",
        ]

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

    def test_failed_save_keeps_old_checkpoint_and_no_temp_file(self, rng, tmp_path, monkeypatch):
        model = build_crnn(tiny_arch(), rng)
        path = tmp_path / "model.sedm"
        save_checkpoint(model, path)
        before = path.read_bytes()

        arrays = list(model.state_arrays())

        def state_then_fail():
            yield from arrays[:2]
            raise OSError("disk full")

        monkeypatch.setattr(model, "state_arrays", state_then_fail)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(model, path)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == [path.name]

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
    for model in (build_crnn(tiny_arch(), rng), build_baseline_mlp(3, rng=rng)):
        rebuilt = ModelGraph.from_descriptor(model.descriptor())
        assert rebuilt.descriptor() == model.descriptor()
        assert rebuilt.n_parameters() == model.n_parameters()
        assert [k for k, _ in rebuilt.state_arrays()] == [k for k, _ in model.state_arrays()]


# graphs in which batch norm may, or may not, work in place; only the conv
# block does. Each takes (2, 4, 5, 3) inputs
OWNERSHIP_GRAPHS = {
    "conv_block": [
        {"type": "conv2d", "in_channels": 3, "filters": 2},
        {"type": "batch_norm", "n_features": 2},
        {"type": "max_pool_freq", "factor": 5},
    ],
    # the caller's dout passes through dropout into batch norm's backward
    "conv_bn_dropout_last": [
        {"type": "conv2d", "in_channels": 3, "filters": 2},
        {"type": "batch_norm", "n_features": 2},
        {"type": "dropout", "rate": 0.0},
    ],
    "batch_norm_first": [
        {"type": "batch_norm", "n_features": 3},
        {"type": "conv2d", "in_channels": 3, "filters": 2},
    ],
    "after_dropout_zero": [
        {"type": "dropout", "rate": 0.0},
        {"type": "batch_norm", "n_features": 3},
        {"type": "conv2d", "in_channels": 3, "filters": 2},
    ],
    "after_flatten": [
        {"type": "flatten_freq"},
        {"type": "batch_norm", "n_features": 15},
        {"type": "time_dense", "in_dim": 15, "units": 2, "activation": "linear"},
    ],
    # tanh's derivative reads the output time dense keeps, so a batch norm
    # that overwrote it would break the gradients
    "after_kept_output": [
        {"type": "flatten_freq"},
        {"type": "time_dense", "in_dim": 15, "units": 4, "activation": "tanh"},
        {"type": "batch_norm", "n_features": 4},
        {"type": "time_dense", "in_dim": 4, "units": 2, "activation": "linear"},
    ],
    "owned_view_after_flatten": [
        {"type": "conv2d", "in_channels": 3, "filters": 2},
        {"type": "flatten_freq"},
        {"type": "batch_norm", "n_features": 10},
    ],
}


class TestOwnedActivations:
    @pytest.mark.parametrize("name", list(OWNERSHIP_GRAPHS))
    def test_graph_keeps_caller_arrays_and_exact_gradients(self, rng, name):
        model = ModelGraph.from_descriptor(OWNERSHIP_GRAPHS[name])
        norms = [layer for layer in model.layers if isinstance(layer, BatchNorm)]
        assert [bn.in_place for bn in norms] == [name == "conv_block"]
        for _, p in model.parameters():
            p[...] = rng.normal(size=p.shape) + 0.5
        x = rng.normal(size=(2, 4, 5, 3))
        x_before = x.copy()
        out = model.forward(x, training=True)
        proj = rng.normal(size=out.shape)
        proj_before = proj.copy()
        model.backward(proj)
        model.forward(x, training=False)
        assert np.array_equal(x, x_before)
        assert np.array_equal(proj, proj_before)

        def loss():
            return float((model.forward(x, training=True) * proj).sum())

        for key, p in model.parameters():
            (fd,) = finite_difference_gradients(loss, [p])
            assert max_relative_error(model.gradient(key), fd) < 1e-5, key

    def test_crnn_step_keeps_caller_arrays_and_equals_direct_layer_calls(self, rng):
        # the direct calls take batch norm's copying path
        arch = tiny_arch(n_channels=2, conv_layers=2, pool_factors=(5, 4), filters=3, dropout=0.25)
        graph, direct = build_crnn(arch, np.random.default_rng(5)), build_crnn(arch, np.random.default_rng(5))
        for layer in direct.layers:
            if isinstance(layer, BatchNorm):
                assert layer.in_place
                layer.in_place = False
        x = rng.normal(size=(2, 8, 40, 2))
        x_before = x.copy()
        out = graph.forward(x, training=True, rng=np.random.default_rng(6))
        dout = rng.normal(size=out.shape)
        dout_before = dout.copy()
        graph.backward(dout)
        assert np.array_equal(x, x_before)
        assert np.array_equal(dout, dout_before)
        h, drop = x, np.random.default_rng(6)
        for layer in direct.layers:
            h = layer.forward(h, training=True, rng=drop)
        assert np.array_equal(h, out)
        g = dout
        for layer in reversed(direct.layers):
            g = layer.backward(g)
        for key, _ in graph.parameters():
            assert np.array_equal(graph.gradient(key), direct.gradient(key)), key
        h = x
        for layer in direct.layers:
            h = layer.forward(h, training=False)
        assert np.array_equal(graph.forward(x, training=False), h)

    def test_full_step_peak_below_four_conv1_outputs(self):
        # a small bin-fft step; the bound scales with conv1's output, the
        # largest activation of the step
        s, t, b, c, filters = 2, 16, 1024, 4, 16
        model = build_crnn(
            CrnnArch(n_bins=b, n_channels=c, n_classes=3, filters=filters), np.random.default_rng(0)
        )
        data = np.random.default_rng(1)
        x = data.normal(size=(s, t, b, c))
        y = (data.random((s, t, 3)) < 0.3).astype(float)
        mask = np.ones((s, t), dtype=bool)
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            out = model.forward(x, training=True, rng=data)
            _, dpred = bce_loss(out, y, mask)
            model.backward(dpred)
            peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert peak < 4 * s * t * b * filters * 8
