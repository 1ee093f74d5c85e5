from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest

from oracles import (
    batch_norm_by_hand,
    bigru_by_hand,
    conv2d_by_hand,
    finite_difference_gradients,
    max_pool_by_hand,
    max_relative_error,
)
from sedpipe.errors import RangeError, ShapeError, StateError
from sedpipe.nn import CrnnArch, build_crnn
from sedpipe.nn import layers as L
from sedpipe.nn.loss import bce_loss

GRAD_TOL = 1e-5


def layer_gradient_errors(layer, x, projection_seed=7, owners=None):
    """Worst relative error of input and parameter gradients against central
    finite differences, using a fixed random projection as the scalar loss.
    ``owners`` are the layers whose parameters are checked (the layer)."""
    out = layer.forward(x, training=True)
    proj = np.random.default_rng(projection_seed).normal(size=out.shape)

    def loss():
        return float((layer.forward(x, training=True) * proj).sum())

    layer.forward(x, training=True)
    dx = layer.backward(proj)

    errors = {}
    (fd_x,) = finite_difference_gradients(loss, [x])
    errors["input"] = max_relative_error(dx, fd_x)
    for owner in (layer,) if owners is None else owners:
        for name in owner.params:
            (fd_p,) = finite_difference_gradients(loss, [owner.params[name]])
            errors[name] = max_relative_error(owner.grads[name], fd_p)
    return errors


def identity_block(n_features, factor=1):
    """A conv block whose conv passes its input through (one centre tap per
    feature map), so it runs batch norm alone, then pools by ``factor``."""
    conv = L.Conv2D(n_features, n_features)
    for n in range(n_features):
        conv.params["kernels"][n, 1, 1, n] = 1.0
    return L.ConvBlock(conv, L.BatchNorm(n_features), L.MaxPoolFreq(factor))


class TestConv2d:
    def test_identity_kernel_preserves_input(self, rng):
        conv = L.Conv2D(1, 1)
        conv.params["kernels"][0, 1, 1, 0] = 1.0
        x = rng.normal(size=(2, 6, 7, 1))
        assert np.array_equal(conv.forward(x), x)

    def test_zero_input_zero_output_zero_kernel_grad(self, rng):
        conv = L.Conv2D(2, 3, rng=rng)
        x = np.zeros((1, 5, 8, 2))
        out = conv.forward(x, training=True)
        assert np.all(out == 0)
        conv.backward(np.ones_like(out))
        assert np.all(conv.grads["kernels"] == 0)

    def test_gradients_match_finite_differences(self, rng):
        conv = L.Conv2D(2, 3, rng=rng)
        x = rng.normal(size=(1, 8, 8, 2))
        errors = layer_gradient_errors(conv, x)
        assert max(errors.values()) < 1e-6

    def test_channel_mismatch_rejected(self, rng):
        conv = L.Conv2D(2, 3, rng=rng)
        with pytest.raises(ShapeError):
            conv.forward(rng.normal(size=(1, 4, 4, 3)))

    def test_matches_brute_force_oracle(self, rng):
        conv = L.Conv2D(3, 4, rng=rng)
        x = rng.normal(size=(2, 5, 7, 3))
        out = conv.forward(x, training=True)
        dout = rng.normal(size=out.shape)
        dx = conv.backward(dout)
        want_out, want_dk, want_dx = conv2d_by_hand(x, conv.params["kernels"], dout)
        assert max_relative_error(out, want_out) < 1e-12
        assert max_relative_error(conv.grads["kernels"], want_dk) < 1e-12
        assert max_relative_error(dx, want_dx) < 1e-12

    def test_backward_peak_memory_below_one_output(self, rng):
        # the bin-fft-small conv1 shape; a whole-batch window tensor here
        # would be 9x the output
        conv = L.Conv2D(4, 64, rng=rng)
        out = conv.forward(rng.normal(size=(2, 64, 1024, 4)), training=True)
        dout = rng.normal(size=out.shape)
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            conv.backward(dout)
            peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert peak < out.nbytes


    def test_backward_without_input_gradient_skips_col2im(self, rng):
        # the first layer's input gradient is never read; without it the
        # backward holds one block of patch rows and the kernel gradient
        conv = L.Conv2D(4, 64, rng=rng)
        out = conv.forward(rng.normal(size=(2, 64, 1024, 4)), training=True)
        dout = rng.normal(size=out.shape)
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            dx = conv.backward(dout, input_grad=False)
            peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert dx is None
        assert peak < out.nbytes / 2

    def test_uneven_time_blocks_equal_one_sample_gemm_and_bound_memory(self, rng):
        # one sample's patch matrix is 101 * 256 * 72 * 8 B = 14.2 MiB, over
        # 3x the block budget, so time splits into 25, 25, 25 and 26 rows
        s, t, b, c, filters = 1, 101, 256, 8, 8
        sizes = [r.stop - r.start for r in L._time_blocks(t, b, c)]
        assert len(sizes) > 1 and len(set(sizes)) > 1
        patch_bytes = t * b * 9 * c * 8
        assert patch_bytes >= 3 * L._PATCH_BYTES
        conv = L.Conv2D(c, filters, rng=rng)
        x = rng.normal(size=(s, t, b, c))
        dout = rng.normal(size=(s, t, b, filters))
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            out = conv.forward(x, training=True)
            conv.backward(dout)
            peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert peak < patch_bytes
        kmat = conv.params["kernels"].reshape(filters, -1).T
        whole = L._im2col(np.pad(x[0], ((1, 1), (1, 1), (0, 0))), np.empty(patch_bytes // 8)) @ kmat
        assert np.array_equal(out.reshape(t * b, filters), whole)

    def test_time_blocked_gradients_match_oracles(self, rng, monkeypatch):
        # a budget of two time rows splits T=7 into blocks of 1, 2, 2 and 2
        monkeypatch.setattr(L, "_PATCH_BYTES", 2 * 5 * 9 * 3 * 8)
        assert [r.stop - r.start for r in L._time_blocks(7, 5, 3)] == [1, 2, 2, 2]
        conv = L.Conv2D(3, 4, rng=rng)
        x = rng.normal(size=(2, 7, 5, 3))
        out = conv.forward(x, training=True)
        dout = rng.normal(size=out.shape)
        dx = conv.backward(dout)
        want_out, want_dk, want_dx = conv2d_by_hand(x, conv.params["kernels"], dout)
        assert max_relative_error(out, want_out) < 1e-12
        assert max_relative_error(conv.grads["kernels"], want_dk) < 1e-12
        assert max_relative_error(dx, want_dx) < 1e-12
        errors = layer_gradient_errors(conv, x)
        assert max(errors.values()) < 1e-6


# a script that counts Python threads: after importing sedpipe, after a
# training step and an inference forward at the protocol workload's shapes
# (bin-mbe, T=64, batch 8, 2 conv x 16, conv maps of at most 2.5 MiB), and
# after one block forward over a conv map of 10 MiB on two cores
THREAD_COUNT_SCRIPT = """
import threading
import numpy as np
import sedpipe
from sedpipe.nn import CrnnArch, build_crnn, layers
counts = [threading.active_count()]
layers._cores = lambda: 2
arch = CrnnArch(n_bins=40, n_channels=2, n_classes=3, conv_layers=2, filters=16,
                gru_layers=1, gru_units=32, dense_layers=1, dense_units=32, dropout=0.25)
model = build_crnn(arch, np.random.default_rng(0))
x = np.random.default_rng(1).normal(size=(8, 64, 40, 2))
out = model.forward(x, training=True, rng=np.random.default_rng(2))
model.backward(np.ones_like(out))
model.forward(x)
counts.append(threading.active_count())
block = layers.ConvBlock(layers.Conv2D(2, 64), layers.BatchNorm(64), layers.MaxPoolFreq(5))
block.forward(x, training=True)
counts.append(threading.active_count())
print(counts)
"""


class TestSampleRanges:
    """Conv2D and the conv block run one contiguous sample range per core."""

    @pytest.fixture
    def three_ranges(self, monkeypatch):
        # one time row per patch block, so every conv map below is over
        # the budget, and three cores
        monkeypatch.setattr(L, "_PATCH_BYTES", 8)
        monkeypatch.setattr(L, "_cores", lambda: 3)

    @pytest.mark.parametrize("failing", [0, 1])
    @pytest.mark.parametrize("phase", ["forward", "backward"])
    def test_failure_surfaces_with_its_type_after_every_range(self, rng, monkeypatch, three_ranges, phase, failing):
        class Failure(Exception):
            pass

        # sample q holds the value q, so each patch block names its sample;
        # each sample is one range and its two time rows are two blocks
        x = np.repeat(np.arange(3.0), 2 * 4).reshape(3, 2, 4, 1)
        conv = L.Conv2D(1, 2, rng=rng)
        out = conv.forward(x, training=True)
        finished = []
        im2col = L._im2col

        def im2col_or_fail(xp, out):
            sample = int(xp[1, 1, 0])
            if sample == failing:
                raise Failure()
            if sample == 2:
                time.sleep(0.2)
            finished.append(sample)
            return im2col(xp, out)

        monkeypatch.setattr(L, "_im2col", im2col_or_fail)
        with pytest.raises(Failure):
            if phase == "forward":
                conv.forward(x, training=True)
            else:
                conv.backward(np.ones_like(out))
        # the slow last range ran both its blocks before the failure surfaced
        assert finished.count(2) == 2

    def test_child_forked_after_a_parallel_block_runs_one(self, rng, three_ranges):
        block = identity_block(2, 2)
        x = rng.normal(size=(3, 2, 4, 2))
        want = block.forward(x, training=True)
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                code = 0 if np.array_equal(block.forward(x, training=True), want) else 2
            finally:
                os._exit(code)
        deadline = time.monotonic() + 60
        while True:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pytest.fail("a forked child hung in a conv block")
            time.sleep(0.01)
        assert os.waitstatus_to_exitcode(status) == 0

    def test_no_thread_at_import_or_at_protocol_shapes(self):
        proc = subprocess.run(
            [sys.executable, "-c", THREAD_COUNT_SCRIPT], capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[1, 1, 2]"


class TestBatchNorm:
    """Batch norm runs only inside a conv block; an identity conv and a
    pool factor of 1 leave batch norm's own output."""

    def test_standardized_batch_passes_through(self, rng):
        block = identity_block(3)
        x = rng.normal(size=(4, 10, 6, 3))
        x = (x - x.mean(axis=(0, 1, 2))) / x.std(axis=(0, 1, 2))
        out = block.forward(x, training=True)
        # eps=1e-5 inside the sqrt bounds the pass-through error at
        # ~eps/2 * |x|, so exact 1e-6 agreement is not attainable
        assert np.max(np.abs(out - x)) < 5e-5

    def test_training_output_is_standardized(self, rng):
        block = identity_block(4)
        x = rng.normal(2.0, 3.0, size=(3, 7, 5, 4))
        out = block.forward(x, training=True)
        assert np.max(np.abs(out.mean(axis=(0, 1, 2)))) < 1e-6
        assert np.max(np.abs(out.var(axis=(0, 1, 2)) - 1.0)) < 1e-4

    def test_inference_before_update_is_state_error(self, rng):
        block = identity_block(2)
        with pytest.raises(StateError):
            block.forward(rng.normal(size=(1, 2, 2, 2)), training=False)

    def test_inference_uses_running_stats(self, rng):
        block = identity_block(2)
        for _ in range(50):
            block.forward(rng.normal(1.0, 2.0, size=(8, 4, 3, 2)), training=True)
        x = rng.normal(1.0, 2.0, size=(2, 4, 3, 2))
        a = block.forward(x, training=False)
        b = block.forward(x[:1], training=False)
        assert np.array_equal(a[:1], b)

    def test_second_backward_is_state_error(self, rng):
        # backward consumes x-hat, so a repeat must not return wrong numbers
        block = identity_block(2)
        out = block.forward(rng.normal(size=(2, 3, 4, 2)), training=True)
        block.backward(np.ones_like(out))
        with pytest.raises(StateError):
            block.backward(np.ones_like(out))

    def test_gradients_match_finite_differences(self, rng):
        block = identity_block(3)
        block.bn.params["gamma"][...] = rng.normal(size=3) + 1.5
        block.bn.params["beta"][...] = rng.normal(size=3)
        x = rng.normal(size=(2, 4, 5, 3))
        errors = layer_gradient_errors(block, x, owners=(block.bn,))
        assert max(errors.values()) < 1e-6


@pytest.mark.parametrize("training", [True, False])
@pytest.mark.parametrize(
    "make_layer",
    [
        lambda rng: L.Conv2D(2, 3, rng=rng),
        lambda rng: L.ConvBlock(L.Conv2D(2, 3, rng=rng), L.BatchNorm(3), L.MaxPoolFreq(5)),
    ],
    ids=["conv2d", "conv_block"],
)
def test_forward_and_backward_leave_arguments_unchanged(rng, make_layer, training):
    # the finite-difference harness reuses x and the projection after these
    # calls, so a layer that wrote into them would corrupt every check
    layer = make_layer(rng)
    x = rng.normal(size=(2, 4, 5, 2))
    layer.forward(rng.normal(size=x.shape), training=True)
    x_before = x.copy()
    out = layer.forward(x, training=training)
    assert np.array_equal(x, x_before)
    if training:
        dout = rng.normal(size=out.shape)
        dout_before = dout.copy()
        layer.backward(dout)
        assert np.array_equal(dout, dout_before)
        assert np.array_equal(x, x_before)


class TestMaxPoolFreq:
    """The pool runs only inside a conv block; an identity conv leaves the
    pooled batch norm output, gamma * x-hat + beta (x-hat at gamma 1, beta 0)."""

    def test_factor_one_is_identity(self, rng):
        block = identity_block(2, 1)
        out = block.forward(rng.normal(size=(2, 3, 4, 2)), training=True)
        x_hat = block._cache[0]
        assert np.array_equal(out, x_hat)

    def test_full_reduction(self, rng):
        block = identity_block(1, 8)
        out = block.forward(rng.normal(size=(1, 4, 8, 1)), training=True)
        x_hat = block._cache[0]
        assert out.shape == (1, 4, 1, 1)
        assert np.array_equal(out[0, :, 0, 0], x_hat[0].max(axis=1)[:, 0])

    def test_ties_route_to_lowest_index(self):
        # both windows are tied; the pooled gradient reaches batch norm's
        # backward at the first tap of each
        block = identity_block(1, 2)
        x = np.array([1.0, 1.0, 0.0, 0.0]).reshape(1, 1, 4, 1)
        block.forward(x, training=True)
        dout = np.ones((1, 1, 2, 1))
        dx = block.backward(dout)
        routed = max_pool_by_hand(x, 2, dout)[1]
        assert np.array_equal(routed[0, 0, :, 0], [1.0, 0.0, 1.0, 0.0])
        want = batch_norm_by_hand(x, np.ones(1), np.zeros(1), routed)[3]
        assert max_relative_error(dx, want) < 1e-12

    def test_time_axis_untouched(self, rng):
        block = identity_block(2, 4)
        assert block.forward(rng.normal(size=(1, 6, 8, 2)), training=True).shape == (1, 6, 2, 2)

    def test_gradients_match_finite_differences(self, rng):
        block = identity_block(2, 4)
        x = rng.normal(size=(2, 3, 8, 2))  # random values sit far from ties
        errors = layer_gradient_errors(block, x, owners=())
        assert errors["input"] < 1e-6

    def test_inference_matches_training_and_keeps_no_cache(self, rng):
        # rounding makes ties; inference pools x * scale + shift as
        # training pools x-hat, each tie to its first tap
        block = identity_block(4, 5)
        x = np.round(rng.normal(size=(2, 3, 20, 4)))
        trained = block.forward(x, training=True)
        x_hat = block._cache[0]
        assert np.array_equal(trained, max_pool_by_hand(x_hat, 5)[0])
        scale, shift = block.bn._inference_affine()
        assert np.array_equal(block.forward(x), max_pool_by_hand(x * scale + shift, 5)[0])
        with pytest.raises(StateError):
            block.backward(np.ones_like(trained))

    def test_nan_input_routes_each_gradient_inside_its_window(self, rng):
        # the block's pooling helpers: a NaN window pools to NaN and still
        # routes its gradient to one of its own taps
        x = rng.normal(size=(2, 3, 8, 2))
        x[0, 1, 5, 1] = np.nan
        x[1, 2, :4, 0] = np.nan
        m = L._windows(x, 4)
        out = L._pool_taps(m, np.maximum, np.empty((2, 3, 2, 2)))
        assert np.isnan(out[0, 1, 1, 1]) and np.isnan(out[1, 2, 0, 0])
        dout = rng.normal(size=out.shape)
        dx = np.zeros(x.shape)
        arg = L._first_tap(m, out, np.empty(out.shape, dtype=np.uint8))
        L._add_at_taps(L._windows(dx, 4), arg, dout, np.empty(out.shape))
        dx = dx.reshape(2, 3, 2, 4, 2)
        # each window passes its gradient to exactly one of its own taps
        assert np.array_equal(dx.sum(axis=3), dout)
        assert np.array_equal(np.count_nonzero(dx, axis=3), np.ones(out.shape, dtype=np.intp))

    def test_non_divisible_factor_rejected(self, rng):
        block = identity_block(1, 3)
        with pytest.raises(ShapeError):
            block.forward(rng.normal(size=(1, 2, 8, 1)))


class TestBiGru:
    def test_zero_weights_give_zero_output(self, rng):
        gru = L.BiGRU(3, 4)
        out = gru.forward(rng.normal(size=(2, 6, 3)))
        assert np.all(out == 0)

    def test_single_step_directions_agree_with_tied_weights(self, rng):
        gru = L.BiGRU(3, 4, rng=rng)
        for n in ("W", "U", "b"):
            gru.params[f"bwd_{n}"] = gru.params[f"fwd_{n}"].copy()
        out = gru.forward(rng.normal(size=(2, 1, 3)))
        assert np.array_equal(out[:, :, :4], out[:, :, 4:])

    def test_init_and_payload_order_match_per_gate_draws(self):
        # the gate stacks must hold the nine per-gate draws (Wz, Wr, Wc,
        # Uz, Ur, Uc, bz, br, bc; fwd then bwd) in the checkpoint byte order
        d, u = 5, 3
        gru = L.BiGRU(d, u, rng=np.random.default_rng(11))
        ref = np.random.default_rng(11)
        w_lim, u_lim = np.sqrt(6.0 / (d + u)), np.sqrt(6.0 / (2 * u))
        expected = []
        for _ in ("fwd", "bwd"):
            expected += [ref.uniform(-w_lim, w_lim, (d, u)) for _ in range(3)]
            expected += [ref.uniform(-u_lim, u_lim, (u, u)) for _ in range(3)]
            expected += [np.zeros(u)] * 3
        assert len(gru.params) == 6
        payload = np.concatenate([a.ravel() for a in gru.params.values()])
        assert np.array_equal(payload, np.concatenate([a.ravel() for a in expected]))

    def test_gradients_match_finite_differences(self, rng):
        gru = L.BiGRU(3, 4, rng=rng)
        x = rng.normal(size=(2, 5, 3))
        errors = layer_gradient_errors(gru, x)
        assert max(errors.values()) < GRAD_TOL

    def test_matches_step_by_step_oracle(self, rng):
        gru = L.BiGRU(3, 4, rng=rng)
        for d in ("fwd", "bwd"):
            gru.params[f"{d}_b"] = rng.normal(size=(3, 4))
        assert not np.array_equal(gru.params["fwd_W"], gru.params["bwd_W"])
        x = rng.normal(size=(2, 5, 3))
        got = gru.forward(x)
        assert max_relative_error(got, bigru_by_hand(x, gru.params)) < 1e-12

    def test_output_shape(self, rng):
        gru = L.BiGRU(5, 7, rng=rng)
        assert gru.forward(rng.normal(size=(3, 11, 5))).shape == (3, 11, 14)


class TestTimeDense:
    def test_identity_map(self):
        td = L.TimeDense(4, 4, activation="linear")
        td.params["W"] = np.eye(4)
        x = np.random.default_rng(0).normal(size=(2, 5, 4))
        assert np.allclose(td.forward(x), x, atol=0)

    def test_time_permutation_equivariance(self, rng):
        td = L.TimeDense(3, 2, activation="tanh", rng=rng)
        x = rng.normal(size=(1, 6, 3))
        perm = rng.permutation(6)
        assert np.array_equal(td.forward(x[:, perm]), td.forward(x)[:, perm])

    @pytest.mark.parametrize("activation", L.ACTIVATIONS)
    def test_gradients_match_finite_differences(self, rng, activation):
        td = L.TimeDense(4, 3, activation=activation, rng=rng)
        x = rng.normal(size=(2, 6, 4)) * 0.5
        errors = layer_gradient_errors(td, x)
        assert max(errors.values()) < 1e-6

    def test_sigmoid_output_clamped_open_interval(self, rng):
        td = L.TimeDense(2, 2, activation="sigmoid")
        td.params["W"] = np.array([[100.0, -100.0], [100.0, -100.0]])
        out = td.forward(np.ones((1, 1, 2)))
        assert np.all(out > 0.0) and np.all(out < 1.0)
        assert out[0, 0, 0] == 1.0 - 1e-7
        assert out[0, 0, 1] == 1e-7

    def test_unknown_activation_rejected(self):
        with pytest.raises(RangeError):
            L.TimeDense(2, 2, activation="softmax")


class TestDropout:
    def test_rate_zero_is_identity(self, rng):
        drop = L.Dropout(0.0)
        x = rng.normal(size=(3, 4, 5))
        assert drop.forward(x, training=True, rng=rng) is x
        assert drop.forward(x, training=False) is x

    def test_inference_is_identity_for_any_rate(self, rng):
        drop = L.Dropout(0.7)
        x = rng.normal(size=(3, 4, 5))
        assert drop.forward(x, training=False) is x

    def test_kept_fraction_statistics(self):
        drop = L.Dropout(0.5)
        x = np.ones((100, 100, 10))
        out = drop.forward(x, training=True, rng=np.random.default_rng(5))
        kept = np.count_nonzero(out) / out.size
        assert abs(kept - 0.5) < 0.01
        assert np.allclose(out[out != 0], 2.0)

    def test_backward_reuses_mask(self, rng):
        drop = L.Dropout(0.4)
        x = np.ones((20, 20))
        out = drop.forward(x, training=True, rng=np.random.default_rng(3))
        dx = drop.backward(np.ones_like(out))
        assert np.array_equal(dx != 0, out != 0)

    @pytest.mark.parametrize("rate", [0.25, 0.5])
    def test_boolean_mask_equals_the_float_mask_bitwise(self, rng, rate):
        # x * mask * (1 / keep) against x * (mask / keep): the same bits,
        # -0.0 where a negative input is dropped included
        x = rng.normal(size=(4, 30, 8))
        dout = rng.normal(size=x.shape)
        drop = L.Dropout(rate)
        out = drop.forward(x, training=True, rng=np.random.default_rng(9))
        dx = drop.backward(dout)
        float_mask = (np.random.default_rng(9).random(x.shape) >= rate) / (1.0 - rate)
        assert np.any(np.signbit(out) & (out == 0))
        assert out.tobytes() == (x * float_mask).tobytes()
        assert dx.tobytes() == (dout * float_mask).tobytes()

    @pytest.mark.parametrize("rate, training", [(0.5, False), (0.0, True)])
    def test_identity_forward_stays_identity_in_backward(self, rng, rate, training):
        drop = L.Dropout(rate)
        x = rng.normal(size=(2, 3, 4))
        drop.forward(x, training=training, rng=rng)
        dout = rng.normal(size=x.shape)
        assert drop.backward(dout) is dout
        assert drop.backward(dout) is dout

    def test_invalid_rate_rejected(self):
        with pytest.raises(RangeError):
            L.Dropout(1.0)


class TestBceLoss:
    def test_perfect_prediction_is_tiny(self):
        y = np.array([[[1.0, 0.0]]])
        loss, _ = bce_loss(y, y)
        assert loss <= -np.log(1.0 - 1e-7) + 1e-12

    def test_coin_flip_is_ln_two(self):
        p = np.full((2, 3, 4), 0.5)
        y = (np.random.default_rng(0).random((2, 3, 4)) < 0.5).astype(float)
        loss, _ = bce_loss(p, y)
        assert loss == pytest.approx(np.log(2.0), abs=1e-12)

    def test_gradient_matches_finite_differences(self, rng):
        p = rng.uniform(0.05, 0.95, size=(2, 5, 3))
        y = (rng.random((2, 5, 3)) < 0.4).astype(float)
        mask = np.ones((2, 5), dtype=bool)
        mask[1, 3:] = False
        _, dp = bce_loss(p, y, mask)

        def loss():
            return bce_loss(p, y, mask)[0]

        (fd,) = finite_difference_gradients(loss, [p], step=1e-6)
        assert max_relative_error(dp, fd) < 1e-6

    def test_masked_cells_contribute_nothing(self, rng):
        p = rng.uniform(0.1, 0.9, size=(1, 4, 2))
        y = np.zeros((1, 4, 2))
        mask = np.array([[True, True, False, False]])
        loss_a, dp = bce_loss(p, y, mask)
        assert np.all(dp[0, 2:] == 0.0)
        q = p.copy()
        q[0, 2:] = 0.99  # padded frames may hold anything
        loss_b, _ = bce_loss(q, y, mask)
        assert loss_a == loss_b

    def test_fully_masked_batch_is_zero(self):
        p = np.full((1, 2, 2), 0.3)
        loss, dp = bce_loss(p, np.zeros((1, 2, 2)), np.zeros((1, 2), dtype=bool))
        assert loss == 0.0
        assert np.all(dp == 0.0)


@pytest.mark.parametrize(
    "make_layer, shape",
    [
        (lambda rng: L.Conv2D(2, 3, rng=rng), (2, 4, 5, 2)),
        (lambda rng: L.ConvBlock(L.Conv2D(2, 3, rng=rng), L.BatchNorm(3), L.MaxPoolFreq(2)), (2, 4, 6, 2)),
        (lambda rng: L.BiGRU(3, 4, rng=rng), (2, 5, 3)),
        (lambda rng: L.TimeDense(3, 2, activation="tanh", rng=rng), (2, 5, 3)),
        (lambda rng: L.Dropout(0.5), (2, 5, 3)),
    ],
    ids=["conv2d", "conv_block", "bigru", "time_dense", "dropout"],
)
def test_second_backward_is_state_error(rng, make_layer, shape):
    # backward consumes the forward's state, so a repeat must not return
    # numbers from a stale cache
    layer = make_layer(rng)
    out = layer.forward(rng.normal(size=shape), training=True, rng=rng)
    layer.backward(np.ones_like(out))
    with pytest.raises(StateError):
        layer.backward(np.ones_like(out))


@pytest.mark.parametrize(
    "make_layer, shape",
    [
        (lambda rng: L.Conv2D(2, 3, rng=rng), (2, 4, 5, 2)),
        (lambda rng: L.BiGRU(3, 4, rng=rng), (2, 5, 3)),
        (lambda rng: L.TimeDense(3, 2, activation="tanh", rng=rng), (2, 5, 3)),
    ],
    ids=["conv2d", "bigru", "time_dense"],
)
def test_inference_forward_keeps_no_backward_state(rng, make_layer, shape):
    # inference batches run between training steps, so whatever an
    # inference forward cached would stay alive until the next step; it
    # also drops the state of an earlier training forward
    layer = make_layer(rng)
    out = layer.forward(rng.normal(size=shape), training=True)
    layer.forward(rng.normal(size=shape))
    assert layer._cache is None
    with pytest.raises(StateError):
        layer.backward(np.ones_like(out))


def test_model_backward_frees_every_activation():
    # after a step only the new gradients (and a few small objects, such as
    # batch norm's running statistics) stay allocated: no layer keeps an
    # input, a padded input, a gate array or a dropout mask. Keeping them
    # left 850 KiB here
    model = build_crnn(
        CrnnArch(n_bins=40, n_channels=2, n_classes=3, conv_layers=2, filters=8,
                 gru_layers=1, gru_units=8, dense_units=8, dropout=0.25),
        np.random.default_rng(3),
    )
    data = np.random.default_rng(4)
    x = data.normal(size=(4, 64, 40, 2))
    y = (data.random((4, 64, 3)) < 0.3).astype(float)
    mask = np.ones((4, 64), dtype=bool)
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        out = model.forward(x, training=True, rng=data)
        _, dpred = bce_loss(out, y, mask)
        del out
        model.backward(dpred)
        del dpred
        left, peak = (m - held for m in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    grad_bytes = sum(model.gradient(key).nbytes for key, _ in model.parameters())
    assert peak > 100 * grad_bytes
    assert left < grad_bytes + 32 * 2**10


def test_model_backward_skips_only_the_first_input_gradient(rng):
    model = build_crnn(
        CrnnArch(n_bins=40, n_channels=2, n_classes=3, conv_layers=2, filters=4,
                 gru_layers=1, gru_units=5, dense_units=6, dropout=0.25),
        np.random.default_rng(3),
    )
    x = rng.normal(size=(2, 16, 40, 2))
    out = model.forward(x, training=True, rng=np.random.default_rng(4))
    dout = rng.normal(size=out.shape)
    assert model.backward(dout) is None
    graph_grads = {key: model.gradient(key).copy() for key, _ in model.parameters()}
    # the same step through the graph's steps, every input gradient on
    model.forward(x, training=True, rng=np.random.default_rng(4))
    for _, step in reversed(model._steps):
        dout = step.backward(dout, input_grad=True)
    assert dout.shape == x.shape
    for key, _ in model.parameters():
        assert max_relative_error(model.gradient(key), graph_grads[key]) < 1e-12, key
