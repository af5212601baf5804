"""Independent numerical oracles used only by the test suite.

Deliberately naive implementations: a cyclic Jacobi eigensolver to
cross-check library eigendecompositions, central finite differences to
check analytic gradients, direct polynomial evaluation of filter
transfer functions, a one-channel-at-a-time zero-phase filter bank, and
an im2col correlation trio for the width-axis convolutions, the
pair-by-pair loop for semi-hard triplet mining, a trial-by-trial class
covariance, an index-by-index trailing moving average and a blend update
that refits every tangent from the curves cut at the checkpoint.
"""

from __future__ import annotations

import bisect

import numpy as np
from scipy import signal as sps

from specblend.blend import MissingReferenceError, TaskReference, smoothed_tangent


def jacobi_eigh(a, tol=1e-14, max_sweeps=200):
    """Eigendecomposition of a symmetric matrix by cyclic Jacobi rotations.

    Returns (eigvals ascending, eigvecs as columns), matching the
    ordering convention of ``numpy.linalg.eigh``.
    """
    a = np.array(a, dtype=np.float64)
    n = a.shape[0]
    v = np.eye(n)
    for _ in range(max_sweeps):
        off = np.sqrt(np.sum(np.tril(a, -1) ** 2))
        if off < tol * max(1.0, np.abs(np.diag(a)).max()):
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if a[p, q] == 0.0:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * a[p, q])
                t = np.sign(theta) / (np.abs(theta) + np.sqrt(theta * theta + 1.0))
                if theta == 0.0:
                    t = 1.0
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                rot = np.eye(n)
                rot[p, p] = rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
                v = v @ rot
    vals = np.diag(a).copy()
    order = np.argsort(vals)
    return vals[order], v[:, order]


def central_diff(f, x, h=1e-4):
    """Central finite-difference gradient of scalar ``f`` at ``x``."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = g.reshape(-1)
    xflat = x.reshape(-1)
    for i in range(xflat.size):
        orig = xflat[i]
        xflat[i] = orig + h
        hi = f(x)
        xflat[i] = orig - h
        lo = f(x)
        xflat[i] = orig
        flat[i] = (hi - lo) / (2.0 * h)
    return g


def max_rel_err(a, b):
    """Worst-case elementwise relative error with a unit floor."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1.0)
    return float(np.max(np.abs(a - b) / denom))


def sampled_coord_check(f, arr, analytic, rng, n_coords=6, h=1e-4):
    """Finite-difference check of ``analytic`` against scalar ``f`` on a
    random subset of coordinates of ``arr`` (mutated in place and
    restored).  Returns the worst relative error over the sample."""
    flat = arr.reshape(-1)
    aflat = np.asarray(analytic).reshape(-1)
    idx = rng.choice(flat.size, size=min(n_coords, flat.size), replace=False)
    worst = 0.0
    for i in idx:
        orig = flat[i]
        flat[i] = orig + h
        hi = f()
        flat[i] = orig - h
        lo = f()
        flat[i] = orig
        num = (hi - lo) / (2.0 * h)
        worst = max(worst, abs(num - aflat[i]) / max(abs(num), abs(aflat[i]), 1.0))
    return worst


def sos_to_ba(sos):
    """Expand second-order sections into full transfer polynomials."""
    b = np.array([1.0])
    a = np.array([1.0])
    for b0, b1, b2, a0, a1, a2 in sos:
        b = np.convolve(b, [b0, b1, b2])
        a = np.convolve(a, [a0, a1, a2])
    return b, a


def ba_response(b, a, freq_hz, fs):
    """Transfer function H(e^{j w}) from full polynomials."""
    w = 2.0 * np.pi * np.asarray(freq_hz, dtype=np.float64) / fs
    zinv = np.exp(-1j * w)
    num = np.polyval(b[::-1], zinv)
    den = np.polyval(a[::-1], zinv)
    return num / den


def loop_zero_phase(x, design):
    """Zero-phase filter one 1-d signal by hand: odd extension over
    ``3 * (2 * order)`` samples at both ends, ``sosfilt`` forward and then
    backward, each from ``sosfilt_zi`` scaled to its first sample, then
    trimmed."""
    x = np.asarray(x, dtype=np.float64)
    pad = 3 * (2 * design.order)
    left = 2.0 * x[0] - x[pad:0:-1]
    right = 2.0 * x[-1] - x[-2 : -pad - 2 : -1]
    ext = np.concatenate([left, x, right])
    zi = sps.sosfilt_zi(design.sos)
    y, _ = sps.sosfilt(design.sos, ext, zi=zi * ext[0])
    y = y[::-1]
    y, _ = sps.sosfilt(design.sos, y, zi=zi * y[0])
    return y[::-1][pad : pad + x.shape[0]]


def loop_bank(trials, bank):
    """Every band of every channel of every trial of an (n, n_channels, t)
    stack, one channel at a time; returns (n, n_bands, n_channels, t)."""
    trials = np.asarray(trials, dtype=np.float64)
    n, n_ch, t = trials.shape
    out = np.empty((n, bank.n_bands, n_ch, t))
    for i in range(n):
        for b, design in enumerate(bank.designs):
            for c in range(n_ch):
                out[i, b, c] = loop_zero_phase(trials[i, c], design)
    return out


def _im2col_pad(w_in, w_out, kernel_width, stride):
    total = max((w_out - 1) * stride + kernel_width - w_in, 0)
    return total, total // 2


def im2col_correlate(x, kernel, stride, w_out):
    """Same-padded strided cross-correlation of ``x`` (B, 1, w_in, a) with
    ``kernel`` (kw, a, c) as one GEMM over the (B*w_out, a*kw) im2col
    columns.  Returns the (B*w_out, c) output and the columns."""
    b, _, w_in, a = x.shape
    kw = kernel.shape[0]
    total, left = _im2col_pad(w_in, w_out, kw, stride)
    padded = np.zeros((b, 1, w_in + total, a))
    padded[:, :, left : left + w_in, :] = x
    windows = np.lib.stride_tricks.sliding_window_view(padded, kw, axis=2)
    cols = windows[:, :, ::stride].reshape(b * w_out, a * kw)  # from (B, 1, w_out, a, kw)
    return cols @ kernel.transpose(1, 0, 2).reshape(a * kw, -1), cols


def im2col_correlate_adjoint(y_mat, kernel, stride, b, w_in):
    """Adjoint of :func:`im2col_correlate` in ``x``: (B*w_out, c) back to
    (B, 1, w_in, a), scattering every window's columns into place."""
    kw, a, _ = kernel.shape
    w_out = y_mat.shape[0] // b
    total, left = _im2col_pad(w_in, w_out, kw, stride)
    cols = y_mat @ kernel.transpose(1, 0, 2).reshape(a * kw, -1).T
    cols = cols.reshape(b, 1, w_out, a, kw)
    padded = np.zeros((b, 1, w_in + total, a))
    span = (w_out - 1) * stride + 1
    for q in range(kw):
        padded[:, :, q : q + span : stride, :] += cols[..., q]
    return padded[:, :, left : left + w_in, :]


def im2col_kernel_grad(cols, y_mat, shape):
    """Gradient of :func:`im2col_correlate` in its (kw, a, c) kernel."""
    kw, a, c = shape
    return (cols.T @ y_mat).reshape(a, kw, c).transpose(1, 0, 2)


def loop_semi_hard_triplets(latents, labels, margin):
    """Semi-hard mining one ordered (anchor, positive) pair at a time:
    the closest negative inside (d(a,p), d(a,p) + margin), else the
    closest beyond d(a,p), else the hardest overall, each the first
    index among ties.  Returns the (anchors, positives, negatives) index
    arrays."""
    latents = np.asarray(latents, dtype=np.float64)
    labels = np.asarray(labels)
    sq = (latents**2).sum(axis=1)
    d = sq[:, None] + sq[None, :] - 2.0 * latents @ latents.T
    np.maximum(d, 0.0, out=d)

    anchors, positives, negatives = [], [], []
    for a in range(len(labels)):
        neg_idx = np.where(labels != labels[a])[0]
        if len(neg_idx) == 0:
            continue
        d_neg = d[a, neg_idx]
        for p in np.where(labels == labels[a])[0]:
            if p == a:
                continue
            dp = d[a, p]
            semi = neg_idx[(d_neg > dp) & (d_neg < dp + margin)]
            if len(semi):
                n = semi[np.argmin(d[a, semi])]
            else:
                beyond = neg_idx[d_neg > dp]
                if len(beyond):
                    n = beyond[np.argmin(d[a, beyond])]
                else:
                    n = neg_idx[np.argmin(d_neg)]
            anchors.append(a)
            positives.append(p)
            negatives.append(int(n))
    return (np.array(anchors, dtype=np.int64), np.array(positives, dtype=np.int64),
            np.array(negatives, dtype=np.int64))


def loop_class_covariance(trials):
    """Mean of E E^T / tr(E E^T) accumulated one trial at a time, then
    symmetrized; the class-covariance sigma before its checks."""
    acc = None
    for tr in trials:
        tr = np.asarray(tr, dtype=np.float64)
        cov = tr @ tr.T
        term = cov / np.trace(cov)
        acc = term if acc is None else acc + term
    sigma = acc / len(trials)
    return 0.5 * (sigma + sigma.T)


def loop_moving_average(values, window):
    """Trailing moving average one index at a time: the mean of the last
    ``window`` values, or of all of them while fewer exist."""
    values = np.asarray(values, dtype=np.float64)
    out = np.empty_like(values)
    for i in range(len(values)):
        out[i] = values[max(0, i - window + 1) : i + 1].mean()
    return out


def _points_upto(curve, n):
    checkpoints, train, val = curve
    k = bisect.bisect_right(checkpoints, n)  # checkpoints increase
    return checkpoints[:k], train[:k], val[:k]


def _current_tangents(curve, n, window):
    idx, tr, va = _points_upto(curve, n)
    return smoothed_tangent(tr, idx, window), smoothed_tangent(va, idx, window)


def recompute_update_weights(state, curves, n):
    """The blend update at checkpoint ``n`` recomputed from whole curves.

    ``curves[m]`` is task m's ``(checkpoints, train, val)``, three plain
    lists that may run past ``n``; every tangent is refit on the points
    up to ``n``.  Only ``state``'s settings, ``weights`` and ``refs`` are
    read and advanced, never its recorded history.  Warm-up drags each
    reference along at uniform weights; afterwards each task scores
    G / O**exponent against its reference, the scores are normalized
    (kept if all zero), and a task whose validation tangent beats its
    reference moves the reference to ``n``.
    """
    if len(curves) != state.n_tasks:
        raise ValueError(f"{len(curves)} curves for {state.n_tasks} tasks")
    if n < state.warmup:
        for m in range(state.n_tasks):
            if len(_points_upto(curves[m], n)[0]) >= 2:
                tan_train, tan_val = _current_tangents(curves[m], n, state.window)
                state.refs[m] = TaskReference(n0=n, tan_train=tan_train,
                                              tan_val=tan_val)
            else:
                state.refs[m] = TaskReference(n0=n)
        state.weights = np.full(state.n_tasks, 1.0 / state.n_tasks)
        return state.weights.copy()

    raw = np.zeros(state.n_tasks)
    tangents = []
    for m in range(state.n_tasks):
        ref = state.refs[m]
        if ref is None or not ref.usable:
            raise MissingReferenceError(f"task {m} has no usable reference tangent")
        tan_train, tan_val = _current_tangents(curves[m], n, state.window)
        g = max(tan_val - ref.tan_val, 0.0)
        o = max((tan_val - tan_train) - (ref.tan_val - ref.tan_train), state.eps)
        raw[m] = g / o**state.exponent
        tangents.append((tan_train, tan_val))
    z = raw.sum()
    if z > 0.0:
        state.weights = raw / z
    for m in range(state.n_tasks):
        tan_train, tan_val = tangents[m]
        if state.refs[m].tan_val > tan_val:
            state.refs[m] = TaskReference(n0=n, tan_train=tan_train, tan_val=tan_val)
    return state.weights.copy()
