"""Task losses and their gradients.

Reconstruction error divides by the channel count only (not by time),
the triplet hinge uses squared Euclidean distances with a half factor,
and cross-entropy clips probabilities at 1e-12.  Gradient helpers return
exactly what the backward passes need; the cross-entropy gradient is
taken through the fused softmax.
"""

from __future__ import annotations

import numpy as np

PROB_FLOOR = 1e-12


def _batched(x):
    x = np.asarray(x, dtype=np.float64)
    return x[np.newaxis] if x.ndim == 3 else x


def mse_loss(x, xhat):
    """Batch mean of (1/channels) * sum of squared residuals.

    The sum runs over all time points; there is no division by t, so the
    value scales with trial length.
    """
    x = _batched(x)
    xhat = _batched(xhat)
    if x.shape != xhat.shape:
        raise ValueError(f"shape mismatch {x.shape} vs {xhat.shape}")
    r = x - xhat
    per_sample = (r * r).sum(axis=(1, 2, 3)) / x.shape[3]
    return float(per_sample.mean())


def mse_grad(x, xhat):
    """d mse_loss / d xhat."""
    x = _batched(x)
    xhat = _batched(xhat)
    return 2.0 * (xhat - x) / (x.shape[0] * x.shape[3])


def triplet_loss(za, zp, zn, margin):
    """Mean over triplets of 0.5 * [d(a,p) - d(a,n) + margin]_+ with
    squared Euclidean d.  Zero for an empty set."""
    za = np.atleast_2d(np.asarray(za, dtype=np.float64))
    zp = np.atleast_2d(np.asarray(zp, dtype=np.float64))
    zn = np.atleast_2d(np.asarray(zn, dtype=np.float64))
    if za.shape[0] == 0:
        return 0.0
    dp = ((za - zp) ** 2).sum(axis=1)
    dn = ((za - zn) ** 2).sum(axis=1)
    return float(np.mean(0.5 * np.maximum(dp - dn + margin, 0.0)))


def triplet_latent_grad(latents, batch):
    """Gradient of :func:`triplet_loss` w.r.t. the whole latent batch,
    for mined index triples.  Inactive triplets (hinge at zero)
    contribute nothing; an empty set yields a zero gradient."""
    latents = np.asarray(latents, dtype=np.float64)
    grad = np.zeros_like(latents)
    k = len(batch)
    if k == 0:
        return grad
    za = latents[batch.anchors]
    zp = latents[batch.positives]
    zn = latents[batch.negatives]
    dp = ((za - zp) ** 2).sum(axis=1)
    dn = ((za - zn) ** 2).sum(axis=1)
    active = (dp - dn + batch.margin) > 0.0
    scale = active[:, None] / k
    np.add.at(grad, batch.anchors, (zn - zp) * scale)
    np.add.at(grad, batch.positives, (zp - za) * scale)
    np.add.at(grad, batch.negatives, (za - zn) * scale)
    return grad


def ce_loss(y_onehot, probs):
    """Mean cross-entropy, probabilities clipped to [1e-12, 1]."""
    y = np.asarray(y_onehot, dtype=np.float64)
    p = np.clip(np.asarray(probs, dtype=np.float64), PROB_FLOOR, 1.0)
    if y.shape != p.shape:
        raise ValueError(f"shape mismatch {y.shape} vs {p.shape}")
    return float(-np.mean((y * np.log(p)).sum(axis=1)))


def softmax_ce_grad(y_onehot, probs):
    """Gradient of the mean cross-entropy w.r.t. the logits feeding the
    softmax that produced ``probs``."""
    y = np.asarray(y_onehot, dtype=np.float64)
    p = np.asarray(probs, dtype=np.float64)
    return (p - y) / y.shape[0]


def one_hot(labels, n_classes):
    labels = np.asarray(labels, dtype=np.int64)
    out = np.zeros((labels.shape[0], n_classes))
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out


def weighted_total(losses, weights):
    """Sum of w_m * loss_m; weights must be non-negative."""
    losses = np.asarray(losses, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    if losses.shape != weights.shape:
        raise ValueError(f"{len(losses)} losses but {len(weights)} weights")
    if np.any(weights < 0.0):
        raise ValueError("weights must be non-negative")
    return float(np.dot(losses, weights))
