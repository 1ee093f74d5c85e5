from __future__ import annotations

import copy
import json
import time
import tracemalloc

import numpy as np
import pytest

from conftest import traced_peak, write_oversized_claim
from oracles import (
    batch_norm_by_hand,
    conv2d_by_hand,
    finite_difference_gradients,
    max_pool_by_hand,
    max_relative_error,
)
from sedpipe import audio_io, cores
from sedpipe.errors import CheckpointError, ConfigError, StateError
from sedpipe.features import Normalizer
from sedpipe.nn import (
    Adam,
    Conv2D,
    CrnnArch,
    ModelGraph,
    bce_loss,
    build_baseline_mlp,
    build_crnn,
    load_checkpoint,
    mbe_context_windows,
    pool_plan,
    save_checkpoint,
)
from sedpipe.nn import layers
from sedpipe.nn.layers import ConvBlock, FlattenFreq

# a conv block sums its outputs and gradients in another order than the
# conv, batch norm and max pool oracles do
BLOCK_GRAD_TOL = 1e-12


def tiny_arch(**kwargs):
    base = dict(
        n_bins=40, n_channels=1, n_classes=2, conv_layers=1, filters=2,
        pool_factors=(20,), gru_layers=1, gru_units=3, dense_layers=1,
        dense_units=4, dropout=0.0,
    )
    base.update(kwargs)
    return CrnnArch(**base)


def adam_on(values):
    """Adam (lr 0.1) over a one-layer graph whose bias holds ``values``; the
    weight, every gradient and every moment start at zero, and the tests
    set the bias gradient and moments by hand."""
    layer = layers.TimeDense(1, len(values))
    layer.params["b"][:] = values
    layer.grads = {name: np.zeros_like(p) for name, p in layer.params.items()}
    return Adam(ModelGraph([layer]), lr=0.1), layer


class TestAdam:
    def test_zero_gradient_leaves_params_but_decays_moments(self):
        opt, _ = adam_on([1.0, -2.0])
        opt.m["0.b"][:] = 0.5
        opt.v["0.b"][:] = 0.25
        opt.step()
        # m_hat = m/(1-b1) recovers 0.5 -> the update uses stale momentum,
        # so params move, but moments themselves shrink by beta
        assert np.allclose(opt.m["0.b"], 0.9 * 0.5)
        assert np.allclose(opt.v["0.b"], 0.999 * 0.25)

    def test_first_step_magnitude_is_lr_signed(self):
        # m_hat/sqrt(v_hat) = sign(g) up to the eps regularizer
        for g in (0.001, 3.0, -250.0):
            opt, layer = adam_on([1.0])
            layer.grads["b"][:] = g
            opt.step()
            assert layer.params["b"][0] == pytest.approx(1.0 - 0.1 * np.sign(g), rel=1e-4)

    def test_scalar_quadratic_converges(self):
        opt, layer = adam_on([1.0])
        for _ in range(200):
            layer.grads["b"][:] = 2.0 * layer.params["b"]
            opt.step()
        assert abs(layer.params["b"][0]) < 0.05


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
            if isinstance(layer, FlattenFreq):
                break
            x = layer.forward(x, training=True, rng=rng)
        assert x.shape == (1, 4, 2, 3)

    def test_bad_pool_product_rejected(self):
        with pytest.raises(ConfigError):
            build_crnn(tiny_arch(pool_factors=(10,)), np.random.default_rng(0))

    def test_negative_dense_layers_rejected(self):
        # a config file with this value fails to load, so the builder must reject it too
        with pytest.raises(ConfigError):
            build_crnn(tiny_arch(dense_layers=-1), np.random.default_rng(0))

    def test_end_to_end_gradients(self, rng):
        model = build_crnn(tiny_arch(), rng).astype(np.float64)
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
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_round_trip_reproduces_forward_bitwise(self, rng, tmp_path, dtype):
        model = build_crnn(tiny_arch(conv_layers=2, pool_factors=(5, 4), filters=3), rng).astype(dtype)
        model.forward(rng.normal(size=(2, 8, 40, 1)), training=True)
        norm = Normalizer(mean=rng.normal(size=(40, 1)), std=np.abs(rng.normal(size=(40, 1))) + 0.1)
        path = tmp_path / "model.sedm"
        save_checkpoint(model, path, norm)
        stored = audio_io.read_arrays(path, CheckpointError)
        assert {stored[key].dtype for key, _ in model.state_arrays()} == {np.dtype(dtype)}
        loaded, norm_back = load_checkpoint(path)
        assert all(arr.dtype == dtype for _, arr in loaded.state_arrays())
        assert all(b.params["kernels"] is b.conv.params["kernels"] for b in loaded.layers if isinstance(b, ConvBlock))
        assert norm_back.mean.dtype == norm_back.std.dtype == np.float64
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
            "0.kernels", "0.gamma", "0.beta",
            "0.buffer.running_mean", "0.buffer.running_var", "0.buffer.updates",
            "3.fwd_W", "3.fwd_U", "3.fwd_b", "3.bwd_W", "3.bwd_U", "3.bwd_b",
            "5.W", "5.b",
            "7.W", "7.b",
        ]

    def test_truncated_file_rejected(self, rng, tmp_path):
        # every prefix of a checkpoint with a normalizer is a CheckpointError
        model = ModelGraph([layers.TimeDense(2, 1, rng=rng)])
        normalizer = Normalizer(mean=rng.normal(size=(1, 2)), std=rng.random((1, 2)) + 0.5)
        path = tmp_path / "model.sedm"
        save_checkpoint(model, path, normalizer)
        raw = path.read_bytes()
        load_checkpoint(path)
        cut = tmp_path / "cut.sedm"
        for n in range(len(raw)):
            cut.write_bytes(raw[:n])
            with pytest.raises(CheckpointError, match="cut.sedm"):
                load_checkpoint(cut)

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

    def test_equal_models_give_equal_bytes(self, rng, tmp_path):
        # zip entries carry a timestamp; it must not be the time of writing
        model = build_crnn(tiny_arch(), rng)
        norm = Normalizer(mean=rng.normal(size=(40, 1)), std=np.ones((40, 1)))
        first, second = tmp_path / "a.sedm", tmp_path / "b.sedm"
        save_checkpoint(model, first, norm)
        time.sleep(1.1)
        save_checkpoint(model, second, norm)
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize(
        "change, message",
        [
            (lambda a: a.pop("0.W"), "no 0.W array"),
            (lambda a: a.update({"0.V": np.zeros(2)}), r"unexpected arrays \['0.V'\]"),
            (lambda a: a.update({"0.W": np.zeros((1, 2))}), r"0.W is float64 \(1, 2\), expected float64 \(2, 1\)"),
            (lambda a: a.update({"0.b": np.zeros(1, dtype=np.float32)}), "0.b is float32"),
            (lambda a: a.update({"0.b": np.zeros(1, dtype=np.int64)}), "0.b is int64"),
            (lambda a: a.pop("normalizer.std"), "no normalizer.std array"),
            (lambda a: a.pop("normalizer.mean"), "no normalizer.mean array"),
            (lambda a: a.update({"normalizer.std": np.ones((2, 1))}), r"normalizer.std is float64 \(2, 1\), expected float64 \(1, 2\)"),
            (lambda a: a.update({"normalizer.mean": np.zeros((1, 2), dtype=np.float32)}), "normalizer.mean is float32"),
            (lambda a: a.pop("descriptor"), "no valid architecture descriptor"),
            (lambda a: a.update({"descriptor": np.zeros(3)}), "no valid architecture descriptor"),
            (lambda a: a.update({"0.W": np.full((2, 1), np.nan)}), "0.W holds non-finite values"),
            (lambda a: a.update({"0.b": np.array([np.inf])}), "0.b holds non-finite values"),
            (lambda a: a.update({"normalizer.mean": np.full((1, 2), -np.inf)}), "normalizer.mean holds non-finite values"),
            (lambda a: a.update({"normalizer.std": np.array([[1.0, np.nan]])}), "normalizer.std holds non-finite values"),
            (lambda a: a.update({"normalizer.std": np.array([[1.0, 0.0]])}), "normalizer.std: std entries must be strictly positive"),
        ],
        ids=[
            "missing", "extra", "misshapen", "float32", "int64", "lone_mean", "lone_std",
            "misshapen_std", "float32_mean", "no_descriptor", "numeric_descriptor",
            "nan_param", "inf_param", "inf_mean", "nan_std", "zero_std",
        ],
    )
    def test_bad_array_is_a_checkpoint_error_naming_the_file(self, rng, tmp_path, change, message):
        model = ModelGraph([layers.TimeDense(2, 1, rng=rng)])
        path = tmp_path / "odd.sedm"
        save_checkpoint(model, path, Normalizer(mean=np.zeros((1, 2)), std=np.ones((1, 2))))
        arrays = audio_io.read_arrays(path, CheckpointError)
        change(arrays)
        audio_io.write_arrays(path, **arrays)
        with pytest.raises(CheckpointError, match=f"odd.sedm: {message}"):
            load_checkpoint(path)

    @pytest.mark.parametrize("odd", ["0.kernels", "3.fwd_U", "7.b"])
    def test_mixed_float_dtypes_are_a_checkpoint_error_naming_the_array(self, rng, tmp_path, odd):
        # a float32 model with one array stored in float64; the first model
        # array sets the dtype, so an odd first array names the second
        model = build_crnn(tiny_arch(), rng)
        path = tmp_path / "mixed.sedm"
        save_checkpoint(model, path)
        arrays = audio_io.read_arrays(path, CheckpointError)
        arrays[odd] = arrays[odd].astype(np.float64)
        audio_io.write_arrays(path, **arrays)
        named, stored, wanted = ("0.gamma", "float32", "float64") if odd == "0.kernels" else (odd, "float64", "float32")
        with pytest.raises(CheckpointError, match=rf"mixed.sedm: {named} is {stored} \(.*\), expected {wanted} \("):
            load_checkpoint(path)

    def test_oversized_claim_is_a_checkpoint_error_naming_the_file(self, tmp_path):
        path = tmp_path / "huge.sedm"
        write_oversized_claim(path, "0.W.npy")
        with pytest.raises(CheckpointError, match=r"huge.sedm: .*member 0.W.npy claims 8000000128 bytes"):
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
        model = build_baseline_mlp(2, n_mels=4, context=3, hidden=5, dropout_rate=0.0, rng=rng).astype(np.float64)
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
        assert [(k, p.shape) for k, p in rebuilt.parameters()] == [(k, p.shape) for k, p in model.parameters()]
        assert [k for k, _ in rebuilt.state_arrays()] == [k for k, _ in model.state_arrays()]


# graphs whose steps must leave the caller's input and output gradient
# unwritten, although the conv block works in place. Each takes (2, 4, 5, 3)
# inputs
OWNERSHIP_GRAPHS = {
    "conv_block": [
        {"type": "conv_block", "in_channels": 3, "filters": 2, "factor": 5},
    ],
    # the caller's dout passes through dropout into the block's backward
    "conv_block_dropout_last": [
        {"type": "conv_block", "in_channels": 3, "filters": 2, "factor": 5},
        {"type": "dropout", "rate": 0.0},
    ],
    # the caller's x passes through dropout into the block's forward
    "dropout_zero_first": [
        {"type": "dropout", "rate": 0.0},
        {"type": "conv_block", "in_channels": 3, "filters": 2, "factor": 5},
    ],
}


def test_checkpoint_of_the_three_layer_conv_block_is_a_checkpoint_error_naming_the_file(rng, tmp_path):
    # the format before the block was one layer: (conv2d, batch_norm,
    # max_pool_freq) descriptor entries and the block's arrays under the
    # indices of those layers
    model = ModelGraph.from_descriptor(OWNERSHIP_GRAPHS["conv_block"])
    model.forward(rng.normal(size=(2, 4, 5, 3)), training=True)
    path = tmp_path / "model.sedm"
    save_checkpoint(model, path)
    arrays = audio_io.read_arrays(path, CheckpointError)
    old = {"descriptor": json.dumps([
        {"type": "conv2d", "in_channels": 3, "filters": 2},
        {"type": "batch_norm", "n_features": 2, "eps": 1e-5, "momentum": 0.9},
        {"type": "max_pool_freq", "factor": 5},
    ])}
    for key, arr in arrays.items():
        if key.startswith("0."):
            old[key if key == "0.kernels" else "1." + key[2:]] = arr
    assert sorted(old) == [
        "0.kernels", "1.beta", "1.buffer.running_mean", "1.buffer.running_var", "1.buffer.updates", "1.gamma",
        "descriptor",
    ]
    audio_io.write_arrays(path, **old)
    with pytest.raises(CheckpointError, match="model.sedm: .*batch_norm"):
        load_checkpoint(path)


# graphs the three-layer conv stage could write down but not run; no layer
# kind expresses them now, so each is refused as a descriptor
REJECTED_GRAPHS = {
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
    "after_kept_output": [
        {"type": "flatten_freq"},
        {"type": "time_dense", "in_dim": 15, "units": 4, "activation": "sigmoid"},
        {"type": "batch_norm", "n_features": 4},
        {"type": "time_dense", "in_dim": 4, "units": 2, "activation": "linear"},
    ],
    "owned_view_after_flatten": [
        {"type": "conv2d", "in_channels": 3, "filters": 2},
        {"type": "flatten_freq"},
        {"type": "batch_norm", "n_features": 10},
    ],
    "lone_pool": [
        {"type": "conv2d", "in_channels": 3, "filters": 2},
        {"type": "max_pool_freq", "factor": 5},
    ],
    "pool_before_batch_norm": [
        {"type": "conv2d", "in_channels": 3, "filters": 2},
        {"type": "max_pool_freq", "factor": 5},
        {"type": "batch_norm", "n_features": 2},
    ],
    "block_of_mismatched_widths": [
        {"type": "conv2d", "in_channels": 3, "filters": 2},
        {"type": "batch_norm", "n_features": 3},
        {"type": "max_pool_freq", "factor": 5},
    ],
}


@pytest.mark.parametrize("name", list(REJECTED_GRAPHS))
def test_unrunnable_graph_rejected(tmp_path, name):
    path = tmp_path / "model.sedm"
    audio_io.write_arrays(path, descriptor=json.dumps(REJECTED_GRAPHS[name]))
    with pytest.raises(CheckpointError, match="model.sedm: .*'(batch_norm|max_pool_freq)'"):
        load_checkpoint(path)


@pytest.mark.parametrize("kind", ["batch_norm", "max_pool_freq", "lstm"])
def test_unknown_layer_kind_is_named_with_the_known_kinds(tmp_path, kind):
    path = tmp_path / "model.sedm"
    audio_io.write_arrays(path, descriptor=json.dumps([{"type": kind}]))
    known = "bigru, conv2d, conv_block, dropout, flatten_freq, time_dense"
    with pytest.raises(CheckpointError, match=f"model.sedm: unknown layer kind '{kind}'; known kinds: {known}$"):
        load_checkpoint(path)


@pytest.mark.parametrize(
    "layers",
    [
        [{"type": "conv2d", "in_channels": 3}],  # a missing setting
        [{"type": "dropout", "rate": 0.5, "seed": 1}],  # a stray key
        [{"type": "dropout", "rate": "x"}],
        ["dropout"],  # an entry that is not an object
        {"type": "dropout", "rate": 0.5},  # not a list of layers
    ],
    ids=["missing_setting", "stray_key", "bad_value", "non_object_entry", "non_list"],
)
def test_malformed_descriptor_is_a_checkpoint_error_naming_the_file(tmp_path, layers):
    path = tmp_path / "model.sedm"
    audio_io.write_arrays(path, descriptor=json.dumps(layers))
    with pytest.raises(CheckpointError, match="model.sedm: "):
        load_checkpoint(path)


class TestOwnedActivations:
    @pytest.mark.parametrize("name", list(OWNERSHIP_GRAPHS))
    def test_graph_keeps_caller_arrays_and_exact_gradients(self, rng, name):
        model = ModelGraph.from_descriptor(OWNERSHIP_GRAPHS[name])
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

    def test_crnn_step_keeps_caller_arrays_and_matches_oracle_blocks(self, rng):
        # the reference step runs each conv block through the oracles and
        # every other step as the graph does
        arch = tiny_arch(n_channels=2, conv_layers=2, pool_factors=(5, 4), filters=3, dropout=0.25)
        graph, ref = (build_crnn(arch, np.random.default_rng(5)).astype(np.float64) for _ in range(2))
        x = rng.normal(size=(2, 8, 40, 2))
        x_before = x.copy()
        out = graph.forward(x, training=True, rng=np.random.default_rng(6))
        dout = rng.normal(size=out.shape)
        dout_before = dout.copy()
        graph.backward(dout)
        assert np.array_equal(x, x_before)
        assert np.array_equal(dout, dout_before)
        inputs, h, drop = [], x, np.random.default_rng(6)
        for layer in ref.layers:
            inputs.append(h)
            if isinstance(layer, ConvBlock):
                pooled = h.shape[:2] + (h.shape[2] // layer.factor, layer.filters)
                h = block_by_hand(layer, h, np.zeros(pooled))[0]
            else:
                h = layer.forward(h, training=True, rng=drop)
        assert max_relative_error(h, out) < BLOCK_GRAD_TOL
        g = dout
        for layer, h in zip(reversed(ref.layers), reversed(inputs)):
            if isinstance(layer, ConvBlock):
                _, g, grads, _, _ = block_by_hand(layer, h, g)
                layer.grads.update(grads)
            else:
                g = layer.backward(g)
        for key, _ in graph.parameters():
            assert max_relative_error(graph.gradient(key), ref.gradient(key)) < BLOCK_GRAD_TOL, key

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

        def step():
            out = model.forward(x, training=True, rng=data)
            _, dpred = bce_loss(out, y, mask)
            model.backward(dpred)

        _, peak = traced_peak(step)
        assert peak < 4 * s * t * b * filters * model.dtype.itemsize


def make_block(rng, cin=2, filters=3, factor=5, gamma=(1.3, -0.7, 0.4)):
    """A conv block with random kernels and beta; one gamma is negative."""
    block = ConvBlock(cin, filters, factor)
    block.params["kernels"][...] = rng.normal(size=block.params["kernels"].shape)
    block.params["gamma"][...] = gamma
    block.params["beta"][...] = rng.normal(size=filters)
    return block


def block_by_hand(block, x, dout):
    """The block's training step composed from the conv, batch norm and max
    pool oracles, for upstream ``dout``: (out, d_x, gradients by parameter
    name, batch mean, batch variance)."""
    kernels = block.params["kernels"]
    gamma, beta, eps = block.params["gamma"], block.params["beta"], layers.BN_EPS
    y = conv2d_by_hand(x, kernels, np.zeros(x.shape[:3] + (block.filters,)))[0]
    normed = batch_norm_by_hand(y, gamma, beta, np.zeros_like(y), eps)[0]
    out, d_normed = max_pool_by_hand(normed, block.factor, dout)
    _, dgamma, dbeta, dy, mean, var = batch_norm_by_hand(y, gamma, beta, d_normed, eps)
    _, dk, dx = conv2d_by_hand(x, kernels, dy)
    return out, dx, {"kernels": dk, "gamma": dgamma, "beta": dbeta}, mean, var


class TestConvBlock:
    def check_against_oracles(self, rng, x, kernels=None, factor=5):
        block = make_block(rng, cin=x.shape[3], factor=factor)
        if kernels is not None:
            block.params["kernels"][...] = kernels
        gamma, beta = block.params["gamma"], block.params["beta"]
        out = block.forward(x, training=True)
        # pooling first, then scaling and shifting, gives the same bits as
        # the reverse: the affine map is monotone, and so is its rounding
        x_hat = block._cache[0].copy()
        assert np.array_equal(out, max_pool_by_hand(x_hat * gamma + beta, factor)[0])
        dout = rng.normal(size=out.shape)
        x_before, dout_before = x.copy(), dout.copy()
        dx = block.backward(dout)
        assert np.array_equal(x, x_before)
        assert np.array_equal(dout, dout_before)
        want_out, want_dx, want_grads, mean, var = block_by_hand(block, x, dout)
        assert out.shape == want_out.shape
        assert max_relative_error(out, want_out) < BLOCK_GRAD_TOL
        assert max_relative_error(dx, want_dx) < BLOCK_GRAD_TOL
        for name in block.params:
            assert max_relative_error(block.grads[name], want_grads[name]) < BLOCK_GRAD_TOL, name
        # one update from the initial running mean 0 and variance 1
        m, bufs = layers.BN_MOMENTUM, block.buffers
        assert max_relative_error(bufs["running_mean"], (1 - m) * mean) < BLOCK_GRAD_TOL
        assert max_relative_error(bufs["running_var"], m + (1 - m) * var) < BLOCK_GRAD_TOL
        assert bufs["updates"][0] == 1
        y = block.conv.forward(x)
        scale, shift = block._inference_affine()
        inference = block.forward(x)
        assert np.array_equal(inference, max_pool_by_hand(y * scale + shift, factor)[0])
        normed = (y - bufs["running_mean"]) / np.sqrt(bufs["running_var"] + layers.BN_EPS) * gamma + beta
        assert max_relative_error(inference, max_pool_by_hand(normed, factor)[0]) < BLOCK_GRAD_TOL
        assert np.array_equal(x, x_before)

    def test_matches_oracles_with_a_negative_gamma(self, rng):
        self.check_against_oracles(rng, rng.normal(size=(2, 6, 20, 2)))

    def test_tied_windows_match_oracles(self, rng):
        # integer inputs and kernels give integer conv outputs, so many
        # windows hold their max (kept where gamma > 0) or their min
        # (kept where gamma < 0) at more than one tap
        x = rng.integers(-1, 2, size=(2, 6, 20, 1)).astype(float)
        kernels = rng.integers(-1, 2, size=(3, 3, 3, 1)).astype(float)
        conv = Conv2D(1, 3)
        conv.params["kernels"][...] = kernels
        y = conv.forward(x).reshape(2, 6, 4, 5, 3)
        assert np.any(np.sum(y == y.max(axis=3, keepdims=True), axis=3) > 1)
        assert np.any(np.sum(y == y.min(axis=3, keepdims=True), axis=3) > 1)
        self.check_against_oracles(rng, x, kernels)

    @pytest.mark.parametrize("factor", [1, 20])
    def test_pool_of_one_bin_and_of_every_bin_match_oracles(self, rng, factor):
        self.check_against_oracles(rng, rng.normal(size=(1, 4, 20, 2)), factor=factor)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_results_do_not_depend_on_the_worker_count(self, monkeypatch, dtype):
        # a budget of two time rows splits T=7 into blocks of 1, 2, 2 and 2
        # rows, and the conv map, over that budget, into one sample range
        # per worker: 5 samples into 1, 2 and 2 under three
        itemsize = np.dtype(dtype).itemsize
        monkeypatch.setattr(layers, "_PATCH_BYTES", 2 * 20 * 9 * 2 * itemsize)
        assert [r.stop - r.start for r in layers._time_blocks(7, 20, 2, itemsize)] == [1, 2, 2, 2]
        data = np.random.default_rng(11)
        x, dout = data.normal(size=(5, 7, 20, 2)).astype(dtype), data.normal(size=(5, 7, 4, 3)).astype(dtype)
        results = {}
        for workers in (1, 3):
            monkeypatch.setattr(cores, "count", lambda: workers)
            assert len(layers._sample_ranges(np.empty((5, 7, 20, 3), dtype=dtype))) == workers
            block = make_block(np.random.default_rng(12))
            block.astype(dtype)
            out = block.forward(x, training=True)
            dx = block.backward(dout)
            grads = [block.grads[name] for name in block.params]
            results[workers] = [out, dx, *grads, *block.buffers.values(), block.forward(x)]
        for one, three in zip(results[1], results[3]):
            assert one.dtype == dtype
            assert np.array_equal(one, three)
        self.check_against_oracles(np.random.default_rng(13), x.astype(np.float64))

    def test_gradients_match_finite_differences(self, rng):
        block = make_block(rng, cin=2)
        x = rng.normal(size=(2, 4, 10, 2))
        proj = rng.normal(size=block.forward(x, training=True).shape)

        def loss():
            return float((block.forward(x, training=True) * proj).sum())

        block.forward(x, training=True)
        dx = block.backward(proj)
        (fd_x,) = finite_difference_gradients(loss, [x])
        assert max_relative_error(dx, fd_x) < 1e-5
        for name, p in block.params.items():
            (fd,) = finite_difference_gradients(loss, [p])
            assert max_relative_error(block.grads[name], fd) < 1e-5, name

    def test_backward_needs_a_training_forward(self, rng):
        block = make_block(rng)
        x = rng.normal(size=(1, 2, 10, 2))
        out = block.forward(x, training=True)
        block.backward(np.ones_like(out))
        with pytest.raises(StateError):
            block.backward(np.ones_like(out))
        block.forward(x)
        with pytest.raises(StateError):
            block.backward(np.ones_like(out))

    def test_crnn_runs_each_stage_as_one_block(self, rng):
        model = build_crnn(tiny_arch(conv_layers=2, pool_factors=(5, 4)), rng)
        blocks = [layer for layer in model.layers if isinstance(layer, ConvBlock)]
        assert [model.layers.index(b) for b in blocks] == [0, 2]
        assert [(b.in_channels, b.filters, b.factor) for b in blocks] == [(1, 2, 5), (2, 2, 4)]
        # the block's kernels are its conv's, so an update reaches the conv
        assert all(b.params["kernels"] is b.conv.params["kernels"] for b in blocks)

    def test_peak_memory_below_two_conv_outputs(self):
        model = ModelGraph.from_descriptor(
            [{"type": "conv_block", "in_channels": 1, "filters": 16, "factor": 5}]
        )
        data = np.random.default_rng(2)
        for _, p in model.parameters():
            p[...] = data.normal(size=p.shape)
        x = data.normal(size=(2, 64, 40, 1))
        conv_out = x.size * 16 * 8
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            out = model.forward(x, training=True)
            forward_peak = tracemalloc.get_traced_memory()[1] - held
            tracemalloc.reset_peak()
            model.backward(data.normal(size=out.shape))
            step_peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert forward_peak < 2 * conv_out
        assert max(forward_peak, step_peak) < 2.5 * conv_out


def test_float32_paper_crnn_agrees_with_its_float64_copy():
    # the paper CRNN at the mbe shape (T=256, batch 8, 40 bins x 1 channel),
    # one training step with the same weights, batch and dropout masks
    model = build_crnn(CrnnArch(n_bins=40, n_channels=1, n_classes=6), np.random.default_rng(5))
    double = copy.deepcopy(model).astype(np.float64)
    assert (model.dtype, double.dtype) == (np.float32, np.float64)
    data = np.random.default_rng(6)
    x = data.standard_normal((8, 256, 40, 1))
    y = (data.random((8, 256, 6)) < 0.3).astype(np.float64)
    mask = np.ones((8, 256), dtype=bool)
    steps = []
    for graph in (model, double):
        out = graph.forward(x, training=True, rng=np.random.default_rng(7))
        graph.backward(bce_loss(out, y, mask)[1])
        steps.append((out, {key: graph.gradient(key) for key, _ in graph.parameters()}))
    (out32, grads32), (out64, grads64) = steps
    assert out32.dtype == np.float32
    assert np.max(np.abs(out32 - out64)) < 1e-4
    for key, g in grads64.items():
        assert grads32[key].dtype == np.float32, key
        assert np.max(np.abs(grads32[key] - g)) < 1e-4 * np.max(np.abs(g)), key
