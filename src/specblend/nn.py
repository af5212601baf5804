"""Differentiable layers for the channels-last (batch, 1, width, channels)
tensor layout.

Only what the architecture table needs: time-axis convolution and its
transpose, batch normalization, ELU, average pooling, dense, softmax.
Every layer caches its forward activations and implements an exact
reverse-mode backward; all math is float64 so finite-difference checks
are meaningful.  The height dimension stays literal (always 1) to keep
shapes aligned with the architecture table.
"""

from __future__ import annotations

import numpy as np


def glorot_uniform(rng, shape, fan_in, fan_out):
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def elu(x, alpha=1.0):
    """y = x for x > 0, alpha*(e^x - 1) otherwise."""
    x = np.asarray(x, dtype=np.float64)
    return np.where(x > 0, x, alpha * np.expm1(x))


def softmax(v):
    """Row-wise softmax with max subtraction; rows sum to 1."""
    v = np.asarray(v, dtype=np.float64)
    shifted = v - v.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _check_tensor4(x):
    if x.ndim != 4 or x.shape[1] != 1:
        raise ValueError(f"expected (batch, 1, width, channels), got {x.shape}")


def _same_pad(w_in, w_out, kernel_width, stride):
    total = max((w_out - 1) * stride + kernel_width - w_in, 0)
    return total, total // 2


def _gather_columns(padded, w_out, kernel_width, stride):
    """im2col: (B,1,Wp,C) -> (B*w_out, C*kernel_width)."""
    windows = np.lib.stride_tricks.sliding_window_view(padded, kernel_width, axis=2)
    cols = windows[:, :, ::stride]  # (B, 1, w_out, C, kw) view
    b = padded.shape[0]
    return cols.reshape(b * w_out, padded.shape[3] * kernel_width)


def _scatter_columns(cols, b, w_padded, channels, w_out, kernel_width, stride):
    """Adjoint of _gather_columns: accumulate window gradients back."""
    out = np.zeros((b, 1, w_padded, channels))
    cols = cols.reshape(b, 1, w_out, channels, kernel_width)
    span = (w_out - 1) * stride + 1
    for q in range(kernel_width):
        out[:, :, q : q + span : stride, :] += cols[..., q]
    return out


class Layer:
    """Shared plumbing: parameter/gradient dicts and a forward cache."""

    def __init__(self):
        self.params = {}
        self.grads = {}
        self._cache = None

    def zero_grads(self):
        for k in self.grads:
            self.grads[k][...] = 0.0

    def _take_cache(self):
        if self._cache is None:
            raise RuntimeError(f"{type(self).__name__}.backward called before forward")
        cache = self._cache
        self._cache = None
        return cache

    def forward(self, x, train=True):
        raise NotImplementedError

    def backward(self, dy):
        raise NotImplementedError


class Conv(Layer):
    """Cross-correlation along the width axis, kernel height 1, same
    padding.  Output width = ceil(width / stride)."""

    def __init__(self, c_in, c_out, kernel_width, stride=1, rng=None):
        super().__init__()
        self.c_in = c_in
        self.c_out = c_out
        self.kernel_width = kernel_width
        self.stride = stride
        fan_in = kernel_width * c_in
        fan_out = kernel_width * c_out
        rng = rng or np.random.default_rng()
        # stored (kw, c_in, c_out); flattened to (c_in*kw, c_out) for the GEMM
        self.params = {
            "kernel": glorot_uniform(rng, (kernel_width, c_in, c_out), fan_in, fan_out),
            "bias": np.zeros(c_out),
        }
        self.grads = {k: np.zeros_like(v) for k, v in self.params.items()}

    def _kernel_matrix(self):
        return self.params["kernel"].transpose(1, 0, 2).reshape(
            self.c_in * self.kernel_width, self.c_out
        )

    def forward(self, x, train=True):
        x = np.asarray(x, dtype=np.float64)
        _check_tensor4(x)
        if x.shape[3] != self.c_in:
            raise ValueError(f"input has {x.shape[3]} channels, layer expects {self.c_in}")
        b, _, w_in, _ = x.shape
        w_out = -(-w_in // self.stride)
        total, left = _same_pad(w_in, w_out, self.kernel_width, self.stride)
        padded = np.zeros((b, 1, w_in + total, self.c_in))
        padded[:, :, left : left + w_in, :] = x
        cols = _gather_columns(padded, w_out, self.kernel_width, self.stride)
        y = cols @ self._kernel_matrix() + self.params["bias"]
        if train:
            self._cache = (cols, b, w_in, total, left, w_out)
        return y.reshape(b, 1, w_out, self.c_out)

    def backward(self, dy):
        cols, b, w_in, total, left, w_out = self._take_cache()
        dy_mat = np.asarray(dy, dtype=np.float64).reshape(b * w_out, self.c_out)
        self.grads["bias"] += dy_mat.sum(axis=0)
        dk_mat = cols.T @ dy_mat
        self.grads["kernel"] += dk_mat.reshape(
            self.c_in, self.kernel_width, self.c_out
        ).transpose(1, 0, 2)
        dcols = dy_mat @ self._kernel_matrix().T
        dpadded = _scatter_columns(
            dcols, b, w_in + total, self.c_in, w_out, self.kernel_width, self.stride
        )
        return dpadded[:, :, left : left + w_in, :]


class ConvTranspose(Layer):
    """Transposed convolution: the exact adjoint of :class:`Conv` with
    the same kernel, mapping width w to w * stride."""

    def __init__(self, c_in, c_out, kernel_width, stride=1, rng=None):
        super().__init__()
        self.c_in = c_in
        self.c_out = c_out
        self.kernel_width = kernel_width
        self.stride = stride
        fan_in = kernel_width * c_in
        fan_out = kernel_width * c_out
        rng = rng or np.random.default_rng()
        # kernel laid out as the matching forward conv would hold it:
        # (kw, c_out, c_in) so adjoint-sharing needs no copy
        self.params = {
            "kernel": glorot_uniform(rng, (kernel_width, c_out, c_in), fan_in, fan_out),
            "bias": np.zeros(c_out),
        }
        self.grads = {k: np.zeros_like(v) for k, v in self.params.items()}

    def _kernel_matrix(self):
        return self.params["kernel"].transpose(1, 0, 2).reshape(
            self.c_out * self.kernel_width, self.c_in
        )

    def forward(self, x, train=True):
        x = np.asarray(x, dtype=np.float64)
        _check_tensor4(x)
        if x.shape[3] != self.c_in:
            raise ValueError(f"input has {x.shape[3]} channels, layer expects {self.c_in}")
        b, _, w_in, _ = x.shape
        w_out = w_in * self.stride
        total, left = _same_pad(w_out, w_in, self.kernel_width, self.stride)
        x_mat = x.reshape(b * w_in, self.c_in)
        cols = x_mat @ self._kernel_matrix().T
        padded = _scatter_columns(
            cols, b, w_out + total, self.c_out, w_in, self.kernel_width, self.stride
        )
        y = padded[:, :, left : left + w_out, :] + self.params["bias"]
        if train:
            self._cache = (x_mat, b, w_in, w_out, total, left)
        return y

    def backward(self, dy):
        x_mat, b, w_in, w_out, total, left = self._take_cache()
        dy = np.asarray(dy, dtype=np.float64)
        self.grads["bias"] += dy.sum(axis=(0, 1, 2))
        dpadded = np.zeros((b, 1, w_out + total, self.c_out))
        dpadded[:, :, left : left + w_out, :] = dy
        dcols = _gather_columns(dpadded, w_in, self.kernel_width, self.stride)
        dk_mat = dcols.T @ x_mat
        self.grads["kernel"] += dk_mat.reshape(
            self.c_out, self.kernel_width, self.c_in
        ).transpose(1, 0, 2)
        dx_mat = dcols @ self._kernel_matrix()
        return dx_mat.reshape(b, 1, w_in, self.c_in)


class BatchNorm(Layer):
    """Per-channel batch normalization, eps 1e-3, running-stat momentum
    0.99.  Train mode normalizes by batch statistics (biased variance)
    and requires batch size >= 2; infer mode uses the running stats."""

    def __init__(self, channels, eps=1e-3, momentum=0.99):
        super().__init__()
        self.channels = channels
        self.eps = eps
        self.momentum = momentum
        self.params = {"gamma": np.ones(channels), "beta": np.zeros(channels)}
        self.grads = {k: np.zeros_like(v) for k, v in self.params.items()}
        self.running_mean = np.zeros(channels)
        self.running_var = np.ones(channels)

    def forward(self, x, train=True):
        x = np.asarray(x, dtype=np.float64)
        _check_tensor4(x)
        if train:
            if x.shape[0] < 2:
                raise ValueError("batch normalization needs batch >= 2 in train mode")
            mean = x.mean(axis=(0, 1, 2))
            var = x.var(axis=(0, 1, 2))
            self.running_mean = self.momentum * self.running_mean + (1 - self.momentum) * mean
            self.running_var = self.momentum * self.running_var + (1 - self.momentum) * var
            inv_std = 1.0 / np.sqrt(var + self.eps)
            xhat = (x - mean) * inv_std
            self._cache = (xhat, inv_std, x.shape)
            return self.params["gamma"] * xhat + self.params["beta"]
        xhat = (x - self.running_mean) / np.sqrt(self.running_var + self.eps)
        return self.params["gamma"] * xhat + self.params["beta"]

    def backward(self, dy):
        xhat, inv_std, shape = self._take_cache()
        dy = np.asarray(dy, dtype=np.float64)
        m = shape[0] * shape[1] * shape[2]  # elements per channel
        self.grads["gamma"] += (dy * xhat).sum(axis=(0, 1, 2))
        self.grads["beta"] += dy.sum(axis=(0, 1, 2))
        dxhat = dy * self.params["gamma"]
        # batch statistics are functions of x; full backward
        sum_dxhat = dxhat.sum(axis=(0, 1, 2))
        sum_dxhat_xhat = (dxhat * xhat).sum(axis=(0, 1, 2))
        return (inv_std / m) * (m * dxhat - sum_dxhat - xhat * sum_dxhat_xhat)


class Elu(Layer):
    def __init__(self, alpha=1.0):
        super().__init__()
        self.alpha = alpha

    def forward(self, x, train=True):
        x = np.asarray(x, dtype=np.float64)
        y = elu(x, self.alpha)
        if train:
            self._cache = (x > 0, y)
        return y

    def backward(self, dy):
        positive, y = self._take_cache()
        # d/dx elu = 1 for x > 0, elu(x) + alpha below
        return np.asarray(dy) * np.where(positive, 1.0, y + self.alpha)


class AvgPool(Layer):
    """Non-overlapping mean pooling along width; width must divide."""

    def __init__(self, pool_width):
        super().__init__()
        self.pool_width = pool_width

    def forward(self, x, train=True):
        x = np.asarray(x, dtype=np.float64)
        _check_tensor4(x)
        b, _, w, c = x.shape
        if w % self.pool_width:
            raise ValueError(f"width {w} not divisible by pool {self.pool_width}")
        y = x.reshape(b, 1, w // self.pool_width, self.pool_width, c).mean(axis=3)
        if train:
            self._cache = (b, w, c)
        return y

    def backward(self, dy):
        b, w, c = self._take_cache()
        dy = np.asarray(dy, dtype=np.float64)
        return np.repeat(dy, self.pool_width, axis=2) / self.pool_width


class Flatten(Layer):
    def forward(self, x, train=True):
        x = np.asarray(x, dtype=np.float64)
        if train:
            self._cache = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, dy):
        shape = self._take_cache()
        return np.asarray(dy).reshape(shape)


class Reshape(Layer):
    """Batch-preserving reshape to a fixed trailing shape."""

    def __init__(self, trailing_shape):
        super().__init__()
        self.trailing_shape = tuple(trailing_shape)

    def forward(self, x, train=True):
        x = np.asarray(x, dtype=np.float64)
        if train:
            self._cache = x.shape
        return x.reshape((x.shape[0],) + self.trailing_shape)

    def backward(self, dy):
        shape = self._take_cache()
        return np.asarray(dy).reshape(shape)


class Dense(Layer):
    def __init__(self, n_in, n_out, rng=None):
        super().__init__()
        self.n_in = n_in
        self.n_out = n_out
        rng = rng or np.random.default_rng()
        self.params = {
            "weight": glorot_uniform(rng, (n_in, n_out), n_in, n_out),
            "bias": np.zeros(n_out),
        }
        self.grads = {k: np.zeros_like(v) for k, v in self.params.items()}

    def forward(self, x, train=True):
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.n_in:
            raise ValueError(f"expected (batch, {self.n_in}), got {x.shape}")
        if train:
            self._cache = x
        return x @ self.params["weight"] + self.params["bias"]

    def backward(self, dy):
        x = self._take_cache()
        dy = np.asarray(dy, dtype=np.float64)
        self.grads["weight"] += x.T @ dy
        self.grads["bias"] += dy.sum(axis=0)
        return dy @ self.params["weight"].T
