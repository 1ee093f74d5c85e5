from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from oracles import bigru_by_hand, conv2d_by_hand, finite_difference_gradients, max_relative_error
from sedpipe.errors import RangeError, ShapeError, StateError
from sedpipe.nn import CrnnArch, build_crnn
from sedpipe.nn import layers as L
from sedpipe.nn.loss import bce_loss

GRAD_TOL = 1e-5


def layer_gradient_errors(layer, x, projection_seed=7):
    """Worst relative error of input and parameter gradients against central
    finite differences, using a fixed random projection as the scalar loss."""
    out = layer.forward(x, training=True)
    proj = np.random.default_rng(projection_seed).normal(size=out.shape)

    def loss():
        return float((layer.forward(x, training=True) * proj).sum())

    layer.forward(x, training=True)
    layer.zero_grads()
    dx = layer.backward(proj)

    errors = {}
    (fd_x,) = finite_difference_gradients(loss, [x])
    errors["input"] = max_relative_error(dx, fd_x)
    for name in layer.params:
        (fd_p,) = finite_difference_gradients(loss, [layer.params[name]])
        errors[name] = max_relative_error(layer.grads[name], fd_p)
    return errors


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
        # backward holds one sample's patch matrix and the kernel gradient
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


class TestBatchNorm:
    def test_standardized_batch_passes_through(self, rng):
        bn = L.BatchNorm(3)
        x = rng.normal(size=(4, 10, 6, 3))
        x = (x - x.mean(axis=(0, 1, 2))) / x.std(axis=(0, 1, 2))
        out = bn.forward(x, training=True)
        # eps=1e-5 inside the sqrt bounds the pass-through error at
        # ~eps/2 * |x|, so exact 1e-6 agreement is not attainable
        assert np.max(np.abs(out - x)) < 5e-5

    def test_training_output_is_standardized(self, rng):
        bn = L.BatchNorm(4)
        x = rng.normal(2.0, 3.0, size=(3, 7, 5, 4))
        out = bn.forward(x, training=True)
        assert np.max(np.abs(out.mean(axis=(0, 1, 2)))) < 1e-6
        assert np.max(np.abs(out.var(axis=(0, 1, 2)) - 1.0)) < 1e-4

    def test_inference_before_update_is_state_error(self, rng):
        bn = L.BatchNorm(2)
        with pytest.raises(StateError):
            bn.forward(rng.normal(size=(1, 2, 2, 2)), training=False)

    def test_inference_uses_running_stats(self, rng):
        bn = L.BatchNorm(2)
        for _ in range(50):
            bn.forward(rng.normal(1.0, 2.0, size=(8, 4, 3, 2)), training=True)
        x = rng.normal(1.0, 2.0, size=(2, 4, 3, 2))
        a = bn.forward(x, training=False)
        b = bn.forward(x[:1], training=False)
        assert np.array_equal(a[:1], b)

    def test_second_backward_is_state_error(self, rng):
        # backward consumes x-hat, so a repeat must not return wrong numbers
        bn = L.BatchNorm(2)
        out = bn.forward(rng.normal(size=(2, 3, 4, 2)), training=True)
        bn.backward(np.ones_like(out))
        with pytest.raises(StateError):
            bn.backward(np.ones_like(out))

    def test_gradients_match_finite_differences(self, rng):
        bn = L.BatchNorm(3)
        bn.params["gamma"] = rng.normal(size=3) + 1.5
        bn.params["beta"] = rng.normal(size=3)
        x = rng.normal(size=(2, 4, 5, 3))
        errors = layer_gradient_errors(bn, x)
        assert max(errors.values()) < 1e-6


@pytest.mark.parametrize("training", [True, False])
@pytest.mark.parametrize(
    "make_layer",
    [lambda rng: L.Conv2D(2, 3, rng=rng), lambda rng: L.BatchNorm(2)],
    ids=["conv2d", "batch_norm"],
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
    def test_factor_one_is_identity(self, rng):
        pool = L.MaxPoolFreq(1)
        x = rng.normal(size=(2, 3, 4, 2))
        assert np.array_equal(pool.forward(x), x)

    def test_full_reduction(self, rng):
        pool = L.MaxPoolFreq(8)
        x = rng.normal(size=(1, 4, 8, 1))
        out = pool.forward(x)
        assert out.shape == (1, 4, 1, 1)
        assert np.array_equal(out[0, :, 0, 0], x[0].max(axis=1)[:, 0])

    def test_ties_route_to_lowest_index(self):
        pool = L.MaxPoolFreq(2)
        x = np.ones((1, 1, 4, 1))
        pool.forward(x, training=True)
        dx = pool.backward(np.ones((1, 1, 2, 1)))
        assert np.array_equal(dx[0, 0, :, 0], [1.0, 0.0, 1.0, 0.0])

    def test_time_axis_untouched(self, rng):
        pool = L.MaxPoolFreq(4)
        x = rng.normal(size=(1, 6, 8, 2))
        assert pool.forward(x).shape == (1, 6, 2, 2)

    def test_gradients_match_finite_differences(self, rng):
        pool = L.MaxPoolFreq(4)
        x = rng.normal(size=(2, 3, 8, 2))  # random values sit far from ties
        errors = layer_gradient_errors(pool, x)
        assert errors["input"] < 1e-6

    def test_inference_matches_training_and_keeps_no_cache(self, rng):
        pool = L.MaxPoolFreq(5)
        x = np.round(rng.normal(size=(2, 3, 20, 4)))  # rounding makes ties
        trained = pool.forward(x, training=True)
        assert np.array_equal(pool.forward(x), trained)
        with pytest.raises(StateError):
            pool.backward(np.ones_like(trained))

    def test_nan_input_routes_each_gradient_inside_its_window(self, rng):
        pool = L.MaxPoolFreq(4)
        x = rng.normal(size=(2, 3, 8, 2))
        x[0, 1, 5, 1] = np.nan
        x[1, 2, :4, 0] = np.nan
        out = pool.forward(x, training=True)
        assert np.isnan(out[0, 1, 1, 1]) and np.isnan(out[1, 2, 0, 0])
        dout = rng.normal(size=out.shape)
        dx = pool.backward(dout).reshape(2, 3, 2, 4, 2)
        # each window passes its gradient to exactly one of its own taps
        assert np.array_equal(dx.sum(axis=3), dout)
        assert np.array_equal(np.count_nonzero(dx, axis=3), np.ones(out.shape, dtype=np.intp))

    def test_non_divisible_factor_rejected(self, rng):
        pool = L.MaxPoolFreq(3)
        with pytest.raises(ShapeError):
            pool.forward(rng.normal(size=(1, 2, 8, 1)))


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
    # batch norm's backward consumes its cache: redo the same forward first
    model.forward(x, training=True, rng=np.random.default_rng(4))
    for layer in reversed(model.layers):
        dout = layer.backward(dout, input_grad=True)
    for key, _ in model.parameters():
        assert np.array_equal(model.gradient(key), graph_grads[key]), key
