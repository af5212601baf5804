"""Layer forward values and finite-difference gradient verification."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from specblend import nn
from specblend.trainer import Adam
from tests.support.oracles import (central_diff, im2col_correlate,
                                   im2col_correlate_adjoint,
                                   im2col_kernel_grad, max_rel_err)

FD_TOL = 1e-4
FD_H = 1e-4


def fd_check_layer(layer, x, seed=0, train=True):
    """Compare analytic input/parameter gradients with central
    differences of a fixed random projection of the output."""
    rng = np.random.default_rng(seed)
    y = layer.forward(x, train=train)
    proj = rng.standard_normal(y.shape)

    def loss_of_input(xv):
        return float(np.sum(layer.forward(xv, train=train) * proj))

    layer.zero_grads()
    layer.forward(x, train=train)
    dx = layer.backward(proj)
    assert max_rel_err(dx, central_diff(loss_of_input, x.copy(), FD_H)) <= FD_TOL

    for name in layer.params:
        original = layer.params[name].copy()

        def loss_of_param(p, _name=name):
            layer.params[_name][...] = p
            val = float(np.sum(layer.forward(x, train=train) * proj))
            layer.params[_name][...] = original
            return val

        num = central_diff(loss_of_param, original.copy(), FD_H)
        assert max_rel_err(layer.grads[name], num) <= FD_TOL, name


def cached_bytes(layer):
    """Bytes of the distinct buffers behind every array in a layer's
    forward cache; a view counts as the whole array it views."""
    buffers = {}
    todo = [layer._cache]
    while todo:
        item = todo.pop()
        if isinstance(item, tuple):
            todo.extend(item)
        elif isinstance(item, np.ndarray):
            while isinstance(item.base, np.ndarray):
                item = item.base
            buffers[id(item)] = item.nbytes
    return sum(buffers.values())


def assert_close_to(got, want, rtol=1e-12):
    """Max difference within ``rtol`` of the oracle's largest magnitude."""
    assert got.shape == want.shape
    scale = np.max(np.abs(want), initial=0.0)
    assert np.max(np.abs(got - want), initial=0.0) <= rtol * scale


def model_shape(w_in, a, c, kw, stride):
    """Hypothesis examples of one convolution shape at batch 1 and 32."""
    def add(test):
        for batch in (1, 32):
            test = example(batch=batch, w_in=w_in, a=a, c=c, kw=kw,
                           stride=stride, seed=w_in + kw + batch)(test)
        return test
    return add


class TestCorrelationPair:
    @settings(max_examples=200, deadline=None)
    @given(batch=st.integers(1, 4), w_in=st.integers(1, 40),
           a=st.integers(1, 4), c=st.integers(1, 4),
           kw=st.integers(1, 8), stride=st.integers(1, 4),
           seed=st.integers(0, 2**32 - 1))
    # the model's four convolutions, the transposed ones as the Conv
    # they are the adjoint of: enc_conv1, enc_conv2, dec_convt1, dec_convt2
    @model_shape(400, 36, 36, 64, 1)
    @model_shape(100, 36, 18, 32, 1)
    @model_shape(100, 18, 18, 64, 4)
    @model_shape(400, 36, 18, 32, 4)
    def test_matches_im2col_oracle(self, batch, w_in, a, c, kw, stride, seed):
        """Output, kernel gradient and input gradient of the pair agree
        with the im2col trio, widths not multiples of the stride included."""
        rng = np.random.default_rng(seed)
        w_out = -(-w_in // stride)
        x = rng.standard_normal((batch, 1, w_in, a))
        kernel = rng.standard_normal((kw, a, c))
        dy = rng.standard_normal((batch * w_out, c))
        n, left = nn._plan(w_in, kw, stride)
        kspec = nn._kernel_spectrum(kernel, n, left)
        y = nn._correlate(x[:, 0], kspec, n, stride, w_out).reshape(-1, c)
        y_ref, cols = im2col_correlate(x, kernel, stride, w_out)
        assert_close_to(y, y_ref)
        dy_rows = dy.reshape(batch, w_out, c)
        assert_close_to(nn._kernel_grad(x[:, 0], dy_rows, n, left, stride, kw),
                        im2col_kernel_grad(cols, dy, kernel.shape))
        assert_close_to(nn._correlate_adjoint(dy_rows, kspec, n, stride, w_in),
                        im2col_correlate_adjoint(dy, kernel, stride, batch, w_in)[:, 0])


class TestKernelSpectrumMemo:
    """Inference memoizes the kernel spectrum; no way of changing the
    kernel may leave the memo stale."""

    @staticmethod
    def _pair(cls):
        args = (3, 4, 5) if cls is nn.Conv else (4, 3, 5)
        layer = cls(*args, stride=2, rng=np.random.default_rng(80))
        x = np.random.default_rng(81).standard_normal((2, 1, 9, layer.c_in))
        return layer, x

    @staticmethod
    def _fresh_forward(layer, x):
        fresh = type(layer)(layer.c_in, layer.c_out, layer.params["kernel"].shape[0],
                            stride=layer.stride)
        for name, value in layer.params.items():
            fresh.params[name][...] = value
        return fresh.forward(x, train=False)

    @staticmethod
    def _edit_in_place(layer):
        layer.params["kernel"][...] = np.random.default_rng(90).standard_normal(
            layer.params["kernel"].shape)

    @staticmethod
    def _adam_step(layer):
        grads = {k: np.ones_like(v) for k, v in layer.params.items()}
        Adam(layer.params).step(layer.params, grads, lr=0.1)

    @staticmethod
    def _reassign(layer):
        layer.params["kernel"] = layer.params["kernel"] * -0.5

    @pytest.mark.parametrize("cls", [nn.Conv, nn.ConvTranspose])
    @pytest.mark.parametrize("change", ["_edit_in_place", "_adam_step", "_reassign"])
    def test_a_changed_kernel_is_seen(self, cls, change):
        layer, x = self._pair(cls)
        layer.forward(x, train=False)
        getattr(self, change)(layer)
        assert np.array_equal(layer.forward(x, train=False),
                              self._fresh_forward(layer, x))

    @pytest.mark.parametrize("cls", [nn.Conv, nn.ConvTranspose])
    def test_another_width_gets_its_own_spectrum(self, cls):
        layer, x = self._pair(cls)
        layer.forward(x, train=False)
        narrow = x[:, :, :-3]
        assert np.array_equal(layer.forward(narrow, train=False),
                              self._fresh_forward(layer, narrow))

    @pytest.mark.parametrize("cls", [nn.Conv, nn.ConvTranspose])
    def test_reused_on_an_unchanged_kernel_and_dropped_by_training(self, cls,
                                                                   monkeypatch):
        layer, x = self._pair(cls)
        calls = []
        spectrum = nn._kernel_spectrum
        monkeypatch.setattr(nn, "_kernel_spectrum",
                            lambda *a: calls.append(1) or spectrum(*a))
        first = layer.forward(x, train=False)
        assert np.array_equal(layer.forward(x, train=False), first)
        assert len(calls) == 1
        layer.forward(x, train=True)
        assert layer._memo is None and len(calls) == 2
        layer.forward(x, train=False)
        assert len(calls) == 3


class TestConv:
    def test_table_shape_row(self):
        rng = np.random.default_rng(0)
        layer = nn.Conv(36, 36, 64, stride=1, rng=rng)
        x = rng.standard_normal((2, 1, 400, 36))
        assert layer.forward(x).shape == (2, 1, 400, 36)

    def test_identity_kernel(self):
        layer = nn.Conv(3, 3, 1, rng=np.random.default_rng(1))
        layer.params["kernel"][...] = np.eye(3)[np.newaxis]
        layer.params["bias"][...] = 0.0
        x = np.random.default_rng(2).standard_normal((2, 1, 7, 3))
        np.testing.assert_allclose(layer.forward(x), x, atol=1e-15)

    def test_zero_kernel_zero_output(self):
        layer = nn.Conv(3, 4, 5, rng=np.random.default_rng(3))
        layer.params["kernel"][...] = 0.0
        x = np.random.default_rng(4).standard_normal((2, 1, 9, 3))
        assert np.all(layer.forward(x) == 0.0)

    def test_strided_output_width(self):
        layer = nn.Conv(2, 2, 3, stride=4, rng=np.random.default_rng(5))
        assert layer.forward(np.zeros((1, 1, 400, 2))).shape == (1, 1, 100, 2)

    def test_channel_mismatch_rejected(self):
        layer = nn.Conv(3, 4, 5, rng=np.random.default_rng(6))
        with pytest.raises(ValueError, match="channels"):
            layer.forward(np.zeros((1, 1, 9, 5)))

    @pytest.mark.parametrize("stride,kw,width", [(1, 3, 8), (2, 4, 8), (3, 5, 7)])
    def test_gradients(self, stride, kw, width):
        rng = np.random.default_rng(stride * 31 + kw)
        layer = nn.Conv(4, 3, kw, stride=stride, rng=rng)
        fd_check_layer(layer, rng.standard_normal((3, 1, width, 4)), seed=kw)

    @pytest.mark.parametrize("cls", [nn.Conv, nn.ConvTranspose])
    def test_backward_params_matches_backward(self, cls):
        """The parameter half accumulates exactly the gradients of the full
        backward and returns nothing, for either direction."""
        rng = np.random.default_rng(14)
        full = cls(4, 3, 5, stride=2, rng=np.random.default_rng(15))
        half = cls(4, 3, 5, stride=2, rng=np.random.default_rng(15))
        x = rng.standard_normal((3, 1, 9, 4))
        dy = rng.standard_normal(full.forward(x).shape)
        half.forward(x)
        full.backward(dy)
        assert half.backward_params(dy) is None
        for name in full.grads:
            assert np.array_equal(half.grads[name], full.grads[name]), name

    def test_cache_holds_no_columns(self):
        """The training cache of the widest encoder convolution stays
        within twice its same-padded input: no (B*w_out, a*kw) columns."""
        rng = np.random.default_rng(10)
        layer = nn.Conv(36, 36, 64, rng=rng)
        layer.forward(rng.standard_normal((8, 1, 400, 36)), train=True)
        padded_bytes = 8 * (400 + 63) * 36 * 8
        assert cached_bytes(layer) <= 2 * padded_bytes


class TestConvTranspose:
    def test_upsampling_shapes(self):
        rng = np.random.default_rng(7)
        up = nn.ConvTranspose(18, 18, 64, stride=4, rng=rng)
        assert up.forward(np.zeros((2, 1, 25, 18))).shape == (2, 1, 100, 18)
        up2 = nn.ConvTranspose(18, 36, 32, stride=4, rng=rng)
        assert up2.forward(np.zeros((2, 1, 100, 18))).shape == (2, 1, 400, 36)

    def test_stride_one_identity_kernel(self):
        layer = nn.ConvTranspose(3, 3, 1, stride=1, rng=np.random.default_rng(8))
        layer.params["kernel"][...] = np.eye(3)[np.newaxis]
        x = np.random.default_rng(9).standard_normal((2, 1, 6, 3))
        np.testing.assert_allclose(layer.forward(x), x, atol=1e-15)

    @settings(max_examples=100, deadline=None)
    @given(batch=st.integers(1, 3), width=st.integers(1, 8),
           c_x=st.integers(1, 4), c_y=st.integers(1, 4),
           kw=st.integers(1, 8), stride=st.integers(1, 4),
           seed=st.integers(0, 2**32 - 1))
    def test_adjoint_of_conv(self, batch, width, c_x, c_y, kw, stride, seed):
        """<conv(x), y> == <x, conv_transpose(y)> with a shared kernel and
        zero bias, and each layer's input gradient is exactly the other
        layer's forward pass."""
        rng = np.random.default_rng(seed)
        conv = nn.Conv(c_x, c_y, kw, stride=stride, rng=rng)
        convt = nn.ConvTranspose(c_y, c_x, kw, stride=stride, rng=rng)
        convt.params["kernel"] = conv.params["kernel"]
        conv.params["bias"][...] = 0.0
        convt.params["bias"][...] = 0.0
        x = rng.standard_normal((batch, 1, width * stride, c_x))
        y = rng.standard_normal((batch, 1, width, c_y))
        conv_x = conv.forward(x)
        convt_y = convt.forward(y)
        lhs = float(np.sum(conv_x * y))
        rhs = float(np.sum(x * convt_y))
        assert abs(lhs - rhs) <= 1e-9 * max(abs(lhs), abs(rhs), 1.0)
        assert np.array_equal(convt.backward(x), conv_x)
        assert np.array_equal(conv.backward(y), convt_y)

    @pytest.mark.parametrize("stride,kw", [(1, 3), (2, 4), (3, 5)])
    def test_gradients(self, stride, kw):
        rng = np.random.default_rng(stride * 17 + kw)
        layer = nn.ConvTranspose(3, 4, kw, stride=stride, rng=rng)
        fd_check_layer(layer, rng.standard_normal((2, 1, 5, 3)), seed=stride)

    def test_cache_holds_no_columns(self):
        """The same bound for a strided transposed convolution, whose cache
        holds only its input."""
        rng = np.random.default_rng(11)
        layer = nn.ConvTranspose(36, 36, 64, stride=4, rng=rng)
        layer.forward(rng.standard_normal((8, 1, 400, 36)), train=True)
        padded_bytes = 8 * (400 + 63) * 36 * 8
        assert cached_bytes(layer) <= 2 * padded_bytes


class TestBatchNorm:
    def test_standardizes_in_train_mode(self):
        layer = nn.BatchNorm(3)
        x = np.random.default_rng(11).standard_normal((8, 1, 10, 3)) * 4 + 2
        y = layer.forward(x, train=True)
        np.testing.assert_allclose(y.mean(axis=(0, 1, 2)), 0.0, atol=1e-12)
        # eps shrinks the variance slightly below 1
        np.testing.assert_allclose(y.var(axis=(0, 1, 2)), 1.0, atol=1e-3)

    def test_infer_with_running_equal_batch_matches_train(self):
        layer = nn.BatchNorm(2)
        x = np.random.default_rng(12).standard_normal((6, 1, 5, 2)) * 3 - 1
        y_train = layer.forward(x, train=True)
        layer.running_mean = x.mean(axis=(0, 1, 2))
        layer.running_var = x.var(axis=(0, 1, 2))
        y_infer = layer.forward(x, train=False)
        np.testing.assert_allclose(y_infer, y_train, atol=1e-6)

    def test_gamma_beta_scale_shift(self):
        layer = nn.BatchNorm(2)
        layer.params["gamma"][...] = 2.0
        layer.params["beta"][...] = 3.0
        x = np.random.default_rng(13).standard_normal((16, 1, 8, 2))
        y = layer.forward(x, train=True)
        np.testing.assert_allclose(y.mean(axis=(0, 1, 2)), 3.0, atol=1e-12)
        np.testing.assert_allclose(y.std(axis=(0, 1, 2)), 2.0, atol=2e-3)

    def test_batch_of_one_rejected(self):
        layer = nn.BatchNorm(2)
        with pytest.raises(ValueError, match="batch >= 2"):
            layer.forward(np.zeros((1, 1, 4, 2)), train=True)

    def test_running_variance_nonnegative(self):
        layer = nn.BatchNorm(2)
        x = np.random.default_rng(14).standard_normal((4, 1, 6, 2))
        for _ in range(5):
            layer.forward(x, train=True)
        assert np.all(layer.running_var >= 0.0)

    def test_backward_in_place_keeps_dy_and_the_formula(self):
        """The in-place backward leaves the caller's dy alone and is bit
        for bit the closed-form batch-norm input gradient."""
        rng = np.random.default_rng(15)
        layer = nn.BatchNorm(3)
        layer.params["gamma"][...] = rng.uniform(0.5, 1.5, 3)
        x = rng.standard_normal((4, 1, 6, 3))
        layer.forward(x, train=True)
        dy = rng.standard_normal(x.shape)
        dy_before = dy.copy()
        dx = layer.backward(dy)
        assert np.array_equal(dy, dy_before)
        m = 4 * 6
        inv_std = 1.0 / np.sqrt(x.var(axis=(0, 1, 2)) + nn.BN_EPS)
        xhat = (x - x.mean(axis=(0, 1, 2))) * inv_std
        dxhat = dy * layer.params["gamma"]
        want = (inv_std / m) * (m * dxhat - dxhat.sum(axis=(0, 1, 2))
                                - xhat * (dxhat * xhat).sum(axis=(0, 1, 2)))
        assert np.array_equal(dx, want)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_gradients_through_batch_stats(self, seed):
        rng = np.random.default_rng(20 + seed)
        layer = nn.BatchNorm(3)
        layer.params["gamma"][...] = rng.uniform(0.5, 1.5, 3)
        layer.params["beta"][...] = rng.standard_normal(3)
        fd_check_layer(layer, rng.standard_normal((4, 1, 6, 3)), seed=seed)


class TestElu:
    def test_values(self):
        np.testing.assert_allclose(
            nn.elu(np.array([0.0, 2.0, -np.log(2.0)])), [0.0, 2.0, -0.5], atol=1e-15
        )

    def test_backward_at_two(self):
        layer = nn.Elu()
        layer.forward(np.full((1, 1, 1, 1), 2.0))
        assert layer.backward(np.ones((1, 1, 1, 1)))[0, 0, 0, 0] == 1.0

    def test_backward_keeps_dy(self):
        rng = np.random.default_rng(31)
        layer = nn.Elu()
        x = rng.standard_normal((2, 1, 5, 3))
        layer.forward(x)
        dy = rng.standard_normal(x.shape)
        dy_before = dy.copy()
        dx = layer.backward(dy)
        assert np.array_equal(dy, dy_before)
        assert np.array_equal(dx, dy * np.where(x > 0, 1.0, nn.elu(x) + 1.0))

    def test_gradients(self):
        rng = np.random.default_rng(30)
        fd_check_layer(nn.Elu(), rng.standard_normal((3, 1, 5, 2)), seed=3)


class TestAvgPool:
    def test_basic_mean(self):
        layer = nn.AvgPool(4)
        x = np.array([1.0, 2.0, 3.0, 4.0]).reshape(1, 1, 4, 1)
        assert layer.forward(x)[0, 0, 0, 0] == 2.5

    def test_constant_preserved(self):
        layer = nn.AvgPool(5)
        y = layer.forward(np.full((2, 1, 10, 3), 7.0))
        np.testing.assert_array_equal(y, np.full((2, 1, 2, 3), 7.0))

    def test_table_shapes(self):
        assert nn.AvgPool(4).forward(np.zeros((2, 1, 400, 36))).shape == (2, 1, 100, 36)
        assert nn.AvgPool(4).forward(np.zeros((2, 1, 100, 18))).shape == (2, 1, 25, 18)

    def test_non_divisible_width_rejected(self):
        with pytest.raises(ValueError, match="divisible"):
            nn.AvgPool(3).forward(np.zeros((1, 1, 8, 1)))

    def test_backward_distributes_uniformly(self):
        layer = nn.AvgPool(4)
        layer.forward(np.zeros((1, 1, 8, 1)))
        dx = layer.backward(np.array([1.0, 2.0]).reshape(1, 1, 2, 1))
        np.testing.assert_allclose(dx.ravel(), [0.25] * 4 + [0.5] * 4)

    def test_gradients(self):
        rng = np.random.default_rng(40)
        fd_check_layer(nn.AvgPool(2), rng.standard_normal((2, 1, 8, 3)), seed=4)


class TestDense:
    def test_identity(self):
        layer = nn.Dense(4, 4, rng=np.random.default_rng(50))
        layer.params["weight"][...] = np.eye(4)
        layer.params["bias"][...] = 0.0
        x = np.random.default_rng(51).standard_normal((3, 4))
        np.testing.assert_allclose(layer.forward(x), x, atol=1e-15)

    def test_gradients(self):
        rng = np.random.default_rng(52)
        fd_check_layer(nn.Dense(5, 4, rng=rng), rng.standard_normal((6, 5)), seed=5)


class TestSoftmax:
    def test_symmetry(self):
        np.testing.assert_allclose(nn.softmax(np.zeros(2)), [0.5, 0.5], atol=1e-15)

    def test_log3_case(self):
        np.testing.assert_allclose(
            nn.softmax(np.array([np.log(3.0), 0.0])), [0.75, 0.25], atol=1e-12
        )

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(60)
        p = nn.softmax(rng.standard_normal((40, 5)) * 5)
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(p > 0.0) and np.all(p < 1.0)

    def test_stable_under_large_inputs(self):
        p = nn.softmax(np.array([1000.0, 1000.0]))
        np.testing.assert_allclose(p, [0.5, 0.5], atol=1e-12)


class TestPlumbing:
    def test_backward_before_forward_raises(self):
        layer = nn.Conv(2, 2, 3, rng=np.random.default_rng(70))
        with pytest.raises(RuntimeError, match="before forward"):
            layer.backward(np.zeros((1, 1, 4, 2)))

    def test_glorot_bounds(self):
        rng = np.random.default_rng(71)
        w = nn.glorot_uniform(rng, (100, 100), 100, 100)
        limit = np.sqrt(6.0 / 200)
        assert np.abs(w).max() <= limit
        assert np.abs(w).max() >= 0.9 * limit  # actually fills the range
