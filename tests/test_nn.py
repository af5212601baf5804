"""Layer forward values and finite-difference gradient verification."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specblend import nn
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


class TestCorrelationPair:
    @settings(max_examples=200, deadline=None)
    @given(batch=st.integers(1, 4), w_in=st.integers(1, 40),
           a=st.integers(1, 4), c=st.integers(1, 4),
           kw=st.integers(1, 8), stride=st.integers(1, 4),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_im2col_oracle(self, batch, w_in, a, c, kw, stride, seed):
        """Output, kernel gradient and input gradient of the pair agree
        with the im2col trio, widths not multiples of the stride included."""
        rng = np.random.default_rng(seed)
        w_out = -(-w_in // stride)
        x = rng.standard_normal((batch, 1, w_in, a))
        kernel = rng.standard_normal((kw, a, c))
        dy = rng.standard_normal((batch * w_out, c))
        y, taps = nn._correlate(x, kernel, stride, w_out)
        y_ref, cols = im2col_correlate(x, kernel, stride, w_out)
        assert_close_to(y, y_ref)
        assert_close_to(nn._kernel_grad(taps, dy, kernel.shape),
                        im2col_kernel_grad(cols, dy, kernel.shape))
        assert_close_to(nn._correlate_adjoint(dy, kernel, stride, batch, w_in),
                        im2col_correlate_adjoint(dy, kernel, stride, batch, w_in))


class TestGemmInto:
    def test_accumulates_into_a_transposed_row_block(self):
        rng = np.random.default_rng(12)
        out = rng.standard_normal((6, 3))
        x, k = rng.standard_normal((4, 5)), rng.standard_normal((5, 3))
        want = out[1:5] + x @ k
        nn._gemm_into(out[1:5].T, k.T, x.T)
        np.testing.assert_allclose(out[1:5], want, rtol=1e-14)

    @pytest.mark.parametrize("target", [
        np.zeros((3, 4)),                           # C-contiguous
        np.zeros((4, 3), dtype=np.float32).T,       # float32
        np.zeros((4, 8))[:, ::2].T,                 # strided
    ])
    def test_rejects_a_target_dgemm_would_copy(self, target):
        rng = np.random.default_rng(13)
        with pytest.raises(ValueError, match="F-contiguous float64"):
            nn._gemm_into(target, rng.standard_normal((3, 5)),
                          rng.standard_normal((5, 4)))
        assert not target.any()

    def test_rejects_a_read_only_target(self):
        target = np.zeros((4, 3)).T
        target.flags.writeable = False
        with pytest.raises(ValueError, match="writeable"):
            nn._gemm_into(target, np.ones((3, 5)), np.ones((5, 4)))
        assert not target.any()


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

    def test_backward_params_matches_backward(self):
        """The parameter half accumulates exactly the gradients of the full
        backward and returns nothing."""
        rng = np.random.default_rng(14)
        full = nn.Conv(4, 3, 5, stride=2, rng=np.random.default_rng(15))
        half = nn.Conv(4, 3, 5, stride=2, rng=np.random.default_rng(15))
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
