"""Differentiable layers for the channels-last (batch, 1, width, channels)
tensor layout.

Only what the architecture table needs: time-axis convolution and its
transpose, batch normalization, ELU, average pooling, dense, softmax.
Both convolutions are thin users of one correlation pair computed in the
frequency domain: ``_correlate`` (same-padded strided cross-correlation)
and ``_correlate_adjoint`` (its adjoint in the input), with
``_kernel_grad`` for the kernel.  Each is an ``scipy.fft`` rfft over the
width, one small matrix product per frequency across the channels, and
an irfft; the rfft is long enough that no tap wraps round, the same
padding is folded into where the kernel sits, and the stride is
decimation of the output or zero insertion into the input.  One layer,
``_Correlation``, owns that pair, always from the wide width to the
narrow one: ``Conv`` runs the correlation forward and its adjoint for
the input gradient, ``ConvTranspose`` (``transposed``) the other way
round.  ``backward_params`` is the backward without the input gradient,
for a first layer whose input is data.  Every layer caches
its forward input or activations, never a spectrum, and implements an
exact reverse-mode backward.  No layer casts: each keeps its input's
dtype, promoted only by its parameters', and the model casts once at its
edge (to float64, so finite-difference checks are meaningful).  The
height dimension stays literal (always 1) to keep shapes aligned with
the architecture table.
"""

from __future__ import annotations

import numpy as np
from scipy import fft

BN_EPS = 1e-3
BN_MOMENTUM = 0.99


def glorot_uniform(rng, shape, fan_in, fan_out):
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def elu(x):
    """y = x for x > 0, e^x - 1 otherwise (alpha = 1)."""
    return np.where(x > 0, x, np.expm1(x))


def softmax(v):
    """Row-wise softmax with max subtraction; rows sum to 1."""
    shifted = v - v.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _check_tensor4(x):
    if x.ndim != 4 or x.shape[1] != 1:
        raise ValueError(f"expected (batch, 1, width, channels), got {x.shape}")


def _plan(w_in, kernel_width, stride):
    """The rfft length of the correlation over w_in samples and its left
    pad, the smaller half of same padding.  The length holds the kernel
    and the input with its larger pad, so no tap wraps round onto an
    input sample."""
    total = max((-(-w_in // stride) - 1) * stride + kernel_width - w_in, 0)
    n = max(w_in + total - total // 2, kernel_width)
    return fft.next_fast_len(n, real=True), total // 2


def _rfft(x, n, stride=1):
    """Spectrum (B, n//2+1, a) of the (B, w, a) rows of ``x`` set
    ``stride`` samples apart, zeros between them."""
    if stride > 1:
        spread = np.zeros((x.shape[0], n, x.shape[2]), dtype=x.dtype)
        spread[:, : (x.shape[1] - 1) * stride + 1 : stride] = x
        x = spread
    return fft.rfft(x, n, axis=1)


def _irfft(spec, n, stride, width):
    """Inverse of :func:`_rfft`: every ``stride``-th sample, ``width`` of them."""
    return fft.irfft(spec, n, axis=1)[:, : (width - 1) * stride + 1 : stride]


def _mix(spec, m):
    """Per frequency, (B, a) rows times an (a, c) matrix: (B, f, c)."""
    out = np.empty(spec.shape[:2] + m.shape[2:], dtype=np.result_type(spec, m))
    np.matmul(spec.transpose(1, 0, 2), m, out=out.transpose(1, 0, 2))
    return out


def _kernel_spectrum(kernel, n, left):
    """Conjugate spectrum (n//2+1, a, c) of the (kw, a, c) kernel with tap
    q at sample (q - left) mod n, which puts the same padding into it."""
    placed = np.zeros((n,) + kernel.shape[1:], dtype=kernel.dtype)
    placed[: kernel.shape[0] - left] = kernel[left:]
    placed[n - left :] = kernel[:left]
    spec = fft.rfft(placed, axis=0)
    return np.conjugate(spec, out=spec)


def _correlate(x, kspec, n, stride, w_out):
    """Same-padded strided cross-correlation of ``x`` (B, w_in, a) with
    the kernel whose :func:`_kernel_spectrum` is ``kspec``, along the
    width axis: (B, w_out, c)."""
    return _irfft(_mix(_rfft(x, n), kspec), n, stride, w_out)


def _correlate_adjoint(y, kspec, n, stride, w_in):
    """Adjoint of :func:`_correlate` in ``x``: (B, w_out, c) back to
    (B, w_in, a).  Its spectrum is conj(conj(Y) @ kspec^T), both
    conjugates taken in place."""
    spec = _rfft(y, n, stride)
    spec = _mix(np.conjugate(spec, out=spec), kspec.transpose(0, 2, 1))
    return _irfft(np.conjugate(spec, out=spec), n, 1, w_in)


def _kernel_grad(x, y, n, left, stride, kernel_width):
    """Gradient of :func:`_correlate` of ``x`` (B, w_in, a) in its
    (kw, a, c) kernel, for the output gradient ``y`` (B, w_out, c)."""
    ys = _rfft(y, n, stride)
    grad = np.matmul(_rfft(x, n).transpose(1, 2, 0),
                     np.conjugate(ys, out=ys).transpose(1, 0, 2))
    del ys  # before the irfft, which would otherwise add to the peak
    return fft.irfft(grad, n, axis=0)[(np.arange(kernel_width) - left) % n]


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
    """A convolution along the width axis, kernel height 1, same padding:
    one correlation from the wide width to the narrow one, ceil(wide /
    stride), run as the layer's forward or as its input gradient.  The
    kernel is a glorot draw held (kw, a, c) for the correlation from a to
    c channels, the bias is over the c_out output channels, and inference
    memoizes the kernel spectrum."""

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
        self._memo = None

    def _geometry(self, w_in):
        """Output width, rfft length and left pad for input width w_in;
        the plan is that of the wide side."""
        w_out = w_in * self.stride if self.transposed else -(-w_in // self.stride)
        return (w_out,) + _plan(max(w_in, w_out), self.params["kernel"].shape[0],
                                self.stride)

    def _spectrum(self, n, left, train):
        """The kernel spectrum.  Inference memoizes it against a copy of
        the kernel, so in-place updates and reloads are seen; training
        computes it fresh and drops the memo."""
        kernel = self.params["kernel"]
        memo, self._memo = self._memo, None
        if train:
            return _kernel_spectrum(kernel, n, left)
        if memo is not None and memo[0] == (n, left) and np.array_equal(memo[1], kernel):
            self._memo = memo
        else:
            self._memo = ((n, left), kernel.copy(), _kernel_spectrum(kernel, n, left))
        return self._memo[2]

    def forward(self, x, train=True):
        _check_tensor4(x)
        if x.shape[3] != self.c_in:
            raise ValueError(f"input has {x.shape[3]} channels, layer expects {self.c_in}")
        w_out, n, left = self._geometry(x.shape[2])
        run = _correlate_adjoint if self.transposed else _correlate
        y = run(x[:, 0], self._spectrum(n, left, train), n, self.stride, w_out)
        if train:
            self._cache = x
        return (y + self.params["bias"])[:, np.newaxis]

    def backward(self, dy):
        x, dy, n, left = self._param_grads(dy)
        run = _correlate if self.transposed else _correlate_adjoint
        dx = run(dy, _kernel_spectrum(self.params["kernel"], n, left), n,
                 self.stride, x.shape[2])
        return dx[:, np.newaxis]

    def backward_params(self, dy):
        """The parameter half of :meth:`backward`: accumulate the kernel
        and bias gradients and skip the input gradient, which costs about
        as much again and is wasted on a layer whose input is data."""
        self._param_grads(dy)

    def _param_grads(self, dy):
        x = self._take_cache()
        dy = dy[:, 0]
        _, n, left = self._geometry(x.shape[2])
        wide, narrow = (dy, x[:, 0]) if self.transposed else (x[:, 0], dy)
        self.grads["bias"] += dy.sum(axis=(0, 1))
        # the kernel gradient before dx, so its spectra are freed first
        self.grads["kernel"] += _kernel_grad(wide, narrow, n, left, self.stride,
                                             self.params["kernel"].shape[0])
        return x, dy, n, left


class Conv(_Correlation):
    """Cross-correlation along the width axis: output width = ceil(width /
    stride), kernel (kw, c_in, c_out)."""


class ConvTranspose(_Correlation):
    """Transposed convolution: the exact adjoint of :class:`Conv` with
    the same kernel, mapping width w to w * stride.  The kernel is held
    as that Conv holds it, (kw, c_out, c_in)."""

    transposed = True


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
        y = elu(x)
        if train:
            self._cache = y
        return y

    def backward(self, dy):
        y = self._take_cache()
        # d/dx elu = 1 for x > 0, elu(x) + 1 below; elu(x) > 0 exactly
        # when x > 0
        g = y + 1.0
        g[y > 0] = 1.0
        return np.multiply(dy, g, out=g)


class AvgPool(Layer):
    """Non-overlapping mean pooling along width; width must divide."""

    def __init__(self, pool_width):
        super().__init__()
        self.pool_width = pool_width

    def forward(self, x, train=True):
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
        return np.repeat(dy, self.pool_width, axis=2) / self.pool_width


class Reshape(Layer):
    """Batch-preserving reshape to a fixed trailing shape."""

    def __init__(self, trailing_shape):
        super().__init__()
        self.trailing_shape = tuple(trailing_shape)

    def forward(self, x, train=True):
        if train:
            self._cache = x.shape
        return x.reshape((x.shape[0],) + self.trailing_shape)

    def backward(self, dy):
        shape = self._take_cache()
        return dy.reshape(shape)


class Flatten(Reshape):
    """Reshape to (batch, everything else)."""

    def __init__(self):
        super().__init__((-1,))


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
        if x.ndim != 2 or x.shape[1] != self.n_in:
            raise ValueError(f"expected (batch, {self.n_in}), got {x.shape}")
        if train:
            self._cache = x
        return x @ self.params["weight"] + self.params["bias"]

    def backward(self, dy):
        x = self._take_cache()
        self.grads["weight"] += x.T @ dy
        self.grads["bias"] += dy.sum(axis=0)
        return dy @ self.params["weight"].T
