"""Differentiable layers for the channels-last (batch, 1, width, channels)
tensor layout.

Only what the architecture table needs: time-axis convolution and its
transpose, batch normalization, ELU, average pooling, dense, softmax.
Both convolutions are thin users of one correlation pair, a GEMM per
kernel tap over every trial: ``_correlate`` (same-padded strided
cross-correlation) and ``_correlate_adjoint`` (its adjoint in the
input), with ``_kernel_grad`` for the kernel.  The padded input is held
as ``stride`` contiguous phases, so each tap reads and writes one
contiguous row block, and each tap's GEMM is one BLAS dgemm that
accumulates straight into its output.  ``Conv`` runs the pair forward,
``ConvTranspose`` runs it with the passes swapped; ``Conv.backward_params``
is the backward without the input gradient, for a first layer whose
input is data.  Every layer
caches its forward activations and implements an exact reverse-mode
backward; all math is float64 so finite-difference checks are
meaningful.  The height dimension stays literal (always 1) to keep
shapes aligned with the architecture table.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.blas import dgemm

BN_EPS = 1e-3
BN_MOMENTUM = 0.99


def glorot_uniform(rng, shape, fan_in, fan_out):
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def elu(x):
    """y = x for x > 0, e^x - 1 otherwise (alpha = 1)."""
    x = np.asarray(x, dtype=np.float64)
    return np.where(x > 0, x, np.expm1(x))


def softmax(v):
    """Row-wise softmax with max subtraction; rows sum to 1."""
    v = np.asarray(v, dtype=np.float64)
    shifted = v - v.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _check_tensor4(x):
    if x.ndim != 4 or x.shape[1] != 1:
        raise ValueError(f"expected (batch, 1, width, channels), got {x.shape}")


def _gemm_into(c, a, b, trans_a=0, trans_b=0):
    """``c += op(a) @ op(b)`` by one BLAS dgemm that writes into ``c``.

    ``c`` must be a writeable F-contiguous float64 array, such as the
    ``.T`` of a C-contiguous row block: for any other target dgemm
    accumulates into a copy and returns it, and the sum would be lost."""
    if c.dtype != np.float64 or not (c.flags.f_contiguous and c.flags.writeable):
        raise ValueError("GEMM target must be a writeable F-contiguous float64 array")
    dgemm(1.0, a, b, 1.0, c, trans_a=trans_a, trans_b=trans_b, overwrite_c=1)


def _geometry(b, w_in, w_out, kernel_width, stride):
    """Geometry of the shift-and-GEMM.  The same-padded input, wp wide
    with wp a multiple of the stride, is held as ``stride`` phases of
    (B*wp/stride, a) rows: padded sample p of trial i is row
    i*wp/stride + p//stride of phase p % stride.  Tap q of grid row
    r = i*wp/stride + j (trial i, output j) is then row q//stride + r of
    phase q % stride, so a tap over every trial is one contiguous row
    block.  Returns the left pad, wp and the m grid rows a tap touches;
    grid rows past w_out in a trial are computed and dropped."""
    total = max((w_out - 1) * stride + kernel_width - w_in, 0)  # same padding
    wp = -(-(w_in + total) // stride) * stride
    return total // 2, wp, (b - 1) * (wp // stride) + w_out


def _tap(phases, q, m):
    """The m contiguous rows that kernel tap q meets, one per grid row."""
    s = phases.shape[0]
    return phases[q % s, q // s : q // s + m]


def _phase_slices(left, w_in, stride):
    """Where the w_in input samples sit in the phases: for each phase p,
    the slice of its rows in each trial that hold samples, and the
    strided slice of the samples they hold."""
    for p in range(stride):
        first = (p - left) % stride  # the first sample in phase p
        n = len(range(first, w_in, stride))
        row = (first + left) // stride
        yield p, slice(row, row + n), slice(first, w_in, stride)


def _to_phases(x, left, wp, stride):
    """(B, 1, w_in, a) -> its same-padded (stride, B*wp/stride, a) phases."""
    b, _, w_in, a = x.shape
    phases = np.zeros((stride, b, wp // stride, a))
    for p, rows, samples in _phase_slices(left, w_in, stride):
        phases[p, :, rows] = x[:, 0, samples]
    return phases.reshape(stride, -1, a)


def _from_phases(phases, b, left, w_in):
    """Inverse of :func:`_to_phases`: (B, 1, w_in, a) without the padding."""
    stride, _, a = phases.shape
    x = np.empty((b, 1, w_in, a))
    for p, rows, samples in _phase_slices(left, w_in, stride):
        x[:, 0, samples] = phases[p].reshape(b, -1, a)[:, rows]
    return x


def _grid(y_mat, b, rows):
    """(B*w_out, c) matrix -> (B*rows, c) output grid, zero between trials."""
    c = y_mat.shape[1]
    grid = np.zeros((b * rows, c))
    grid.reshape(b, rows, c)[:, : y_mat.shape[0] // b] = y_mat.reshape(b, -1, c)
    return grid


def _correlate(x, kernel, stride, w_out):
    """Same-padded strided cross-correlation of ``x`` (B, 1, w_in, a) with
    ``kernel`` (kw, a, c) along the width axis, one GEMM per tap.

    Returns the output as a (B*w_out, c) matrix and the padded input
    phases with their geometry, which :func:`_kernel_grad` needs."""
    b, _, w_in, a = x.shape
    left, wp, m = _geometry(b, w_in, w_out, kernel.shape[0], stride)
    phases = _to_phases(x, left, wp, stride)
    grid = np.zeros((b * wp // stride, kernel.shape[2]))
    target = grid[:m].T
    for q, k in enumerate(kernel):
        _gemm_into(target, k.T, _tap(phases, q, m).T)
    y = grid.reshape(b, wp // stride, -1)[:, :w_out]
    return y.reshape(b * w_out, -1), (phases, b, m)


def _correlate_adjoint(y_mat, kernel, stride, b, w_in):
    """Adjoint of :func:`_correlate` in ``x``: maps a (B*w_out, c) matrix
    back to (B, 1, w_in, a) by accumulating every tap into place."""
    kw, a, _ = kernel.shape
    left, wp, m = _geometry(b, w_in, y_mat.shape[0] // b, kw, stride)
    grid_t = _grid(y_mat, b, wp // stride)[:m].T
    phases = np.zeros((stride, b * wp // stride, a))
    for q, k in enumerate(kernel):
        _gemm_into(_tap(phases, q, m).T, k.T, grid_t, trans_a=1)
    return _from_phases(phases, b, left, w_in)


def _kernel_grad(taps, y_mat, shape):
    """Gradient of :func:`_correlate` in its (kw, a, c) kernel."""
    phases, b, m = taps
    grid_t = _grid(y_mat, b, phases.shape[1] // b)[:m].T
    out = np.zeros(shape)
    for q in range(shape[0]):
        _gemm_into(out[q].T, grid_t, _tap(phases, q, m).T, trans_b=1)
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


class _Correlation(Layer):
    """Set-up shared by :class:`Conv` and :class:`ConvTranspose`: a glorot
    kernel held (kw, a, c) for the correlation from a to c channels, and a
    bias over the c_out output channels."""

    transposed = False

    def __init__(self, c_in, c_out, kernel_width, stride=1, rng=None):
        super().__init__()
        self.c_in = c_in
        self.c_out = c_out
        self.stride = stride
        a, c = (c_out, c_in) if self.transposed else (c_in, c_out)
        rng = rng or np.random.default_rng()
        self.params = {
            "kernel": glorot_uniform(rng, (kernel_width, a, c),
                                     kernel_width * c_in, kernel_width * c_out),
            "bias": np.zeros(c_out),
        }
        self.grads = {k: np.zeros_like(v) for k, v in self.params.items()}

    def _input(self, x):
        x = np.asarray(x, dtype=np.float64)
        _check_tensor4(x)
        if x.shape[3] != self.c_in:
            raise ValueError(f"input has {x.shape[3]} channels, layer expects {self.c_in}")
        return x


class Conv(_Correlation):
    """Cross-correlation along the width axis, kernel height 1, same
    padding.  Output width = ceil(width / stride).  The kernel is
    (kw, c_in, c_out)."""

    def forward(self, x, train=True):
        x = self._input(x)
        b, _, w_in, _ = x.shape
        w_out = -(-w_in // self.stride)
        y_mat, taps = _correlate(x, self.params["kernel"], self.stride, w_out)
        if train:
            self._cache = (taps, b, w_in)
        return (y_mat + self.params["bias"]).reshape(b, 1, w_out, self.c_out)

    def backward(self, dy):
        dy_mat, b, w_in = self._param_grads(dy)
        return _correlate_adjoint(dy_mat, self.params["kernel"], self.stride, b, w_in)

    def backward_params(self, dy):
        """The parameter half of :meth:`backward`: accumulate the kernel
        and bias gradients and skip the input gradient, which costs about
        as much again and is wasted on a layer whose input is data."""
        self._param_grads(dy)

    def _param_grads(self, dy):
        taps, b, w_in = self._take_cache()
        dy_mat = np.asarray(dy, dtype=np.float64).reshape(-1, self.c_out)
        self.grads["bias"] += dy_mat.sum(axis=0)
        self.grads["kernel"] += _kernel_grad(taps, dy_mat, self.params["kernel"].shape)
        return dy_mat, b, w_in


class ConvTranspose(_Correlation):
    """Transposed convolution: the exact adjoint of :class:`Conv` with
    the same kernel, mapping width w to w * stride.  The kernel is held
    as that Conv holds it, (kw, c_out, c_in), and the correlation pair
    runs with its passes swapped."""

    transposed = True

    def forward(self, x, train=True):
        x = self._input(x)
        b, _, w_in, _ = x.shape
        x_mat = x.reshape(b * w_in, self.c_in)
        y = _correlate_adjoint(x_mat, self.params["kernel"], self.stride, b,
                               w_in * self.stride)
        if train:
            self._cache = (x_mat, w_in)
        return y + self.params["bias"]

    def backward(self, dy):
        x_mat, w_in = self._take_cache()
        kernel = self.params["kernel"]
        dy = np.asarray(dy, dtype=np.float64)
        self.grads["bias"] += dy.sum(axis=(0, 1, 2))
        dx_mat, dy_taps = _correlate(dy, kernel, self.stride, w_in)
        self.grads["kernel"] += _kernel_grad(dy_taps, x_mat, kernel.shape)
        return dx_mat.reshape(dy.shape[0], 1, w_in, self.c_in)


class BatchNorm(Layer):
    """Per-channel batch normalization, eps ``BN_EPS``, running-stat
    momentum ``BN_MOMENTUM``.  Train mode normalizes by batch statistics
    (biased variance) and requires batch size >= 2; infer mode uses the
    running stats."""

    def __init__(self, channels):
        super().__init__()
        self.channels = channels
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
            self.running_mean = BN_MOMENTUM * self.running_mean + (1 - BN_MOMENTUM) * mean
            self.running_var = BN_MOMENTUM * self.running_var + (1 - BN_MOMENTUM) * var
            inv_std = 1.0 / np.sqrt(var + BN_EPS)
            xhat = (x - mean) * inv_std
            self._cache = (xhat, inv_std, x.shape)
            return self.params["gamma"] * xhat + self.params["beta"]
        xhat = (x - self.running_mean) / np.sqrt(self.running_var + BN_EPS)
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
        # (inv_std / m) * (m * dxhat - sum_dxhat - xhat * sum_dxhat_xhat),
        # in that order, built in dxhat's buffer and the cached xhat's
        dx = dxhat
        dx *= m
        dx -= sum_dxhat
        xhat *= sum_dxhat_xhat
        dx -= xhat
        dx *= inv_std / m
        return dx


class Elu(Layer):
    def forward(self, x, train=True):
        x = np.asarray(x, dtype=np.float64)
        y = elu(x)
        if train:
            self._cache = (x > 0, y)
        return y

    def backward(self, dy):
        positive, y = self._take_cache()
        # d/dx elu = 1 for x > 0, elu(x) + 1 below
        g = y + 1.0
        g[positive] = 1.0
        return np.multiply(dy, g, out=g)


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
