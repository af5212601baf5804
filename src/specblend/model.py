"""Multi-task autoencoder: shared encoder, reconstruction decoder, and
softmax classifier head, plus online semi-hard triplet mining.

The shape chain for input (1, t, C) with C = u * n_bands:
encoder conv(64)/BN/ELU -> pool t/100 -> conv(32)/BN/ELU -> pool 4 ->
flatten (25 * C/2) -> dense to z.  The decoder mirrors it: dense (linear)
to 25 * C/2, reshape, transposed conv(64) stride 4 with ELU, transposed
conv(32) stride t/100 with ELU back to (1, t, C).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn


@dataclass(frozen=True)
class ModelDims:
    """Shape bookkeeping for one model instance."""

    t: int
    u: int
    n_bands: int
    latent: int
    n_classes: int = 2

    def __post_init__(self):
        if self.t < 100 or self.t % 100:
            raise ValueError(f"t must be a positive multiple of 100, got {self.t}")
        if self.u < 2 or self.u % 2:
            raise ValueError(f"u must be even and >= 2, got {self.u}")
        if (self.u * self.n_bands) % 2:
            raise ValueError("u * n_bands must be even for the half-width stage")
        if self.latent < 1:
            raise ValueError(f"latent size must be >= 1, got {self.latent}")
        if self.n_classes < 2:
            raise ValueError(f"need >= 2 classes, got {self.n_classes}")

    @property
    def channels(self):
        return self.u * self.n_bands

    @property
    def half_channels(self):
        return self.channels // 2

    @property
    def flat(self):
        return 25 * self.half_channels

    @property
    def pool1(self):
        return self.t // 100


@dataclass(frozen=True)
class TripletBatch:
    """Mined (anchor, positive, negative) index triples into a batch."""

    anchors: np.ndarray
    positives: np.ndarray
    negatives: np.ndarray
    margin: float

    def __post_init__(self):
        a = np.ascontiguousarray(self.anchors, dtype=np.int64)
        p = np.ascontiguousarray(self.positives, dtype=np.int64)
        n = np.ascontiguousarray(self.negatives, dtype=np.int64)
        if not (a.shape == p.shape == n.shape):
            raise ValueError("triplet index arrays must share a shape")
        if a.size and np.any(a == p):
            raise ValueError("anchor and positive must differ")
        object.__setattr__(self, "anchors", a)
        object.__setattr__(self, "positives", p)
        object.__setattr__(self, "negatives", n)

    def __len__(self):
        return self.anchors.shape[0]


def mine_semi_hard_triplets(latents, labels, margin):
    """Online semi-hard mining within one batch.

    For every ordered same-class pair (a, p) with a negative available:
    prefer a negative n with d(a,p) < d(a,n) < d(a,p) + margin (the
    closest such); failing that, the closest negative beyond d(a,p);
    failing that, the hardest negative overall.  Ties go to the lowest
    index.  Distances are squared Euclidean.  A single-class batch
    yields an empty set.

    Both preferences pick the same negative, the nearest one beyond
    d(a,p), so each anchor sorts its negatives once and every positive
    is one binary search.

    Returns
    -------
    TripletBatch
    """
    latents = np.asarray(latents, dtype=np.float64)
    labels = np.asarray(labels)
    sq = (latents**2).sum(axis=1)
    d = sq[:, None] + sq[None, :] - 2.0 * latents @ latents.T
    np.maximum(d, 0.0, out=d)

    anchors, positives, negatives = [], [], []
    for a in range(len(labels)):
        same = labels == labels[a]
        neg_idx = np.flatnonzero(~same)
        if len(neg_idx) == 0:
            continue  # no negative class sample for this anchor
        same[a] = False
        pos_idx = np.flatnonzero(same)
        # nearest first, lowest index first among equal distances
        near = neg_idx[np.argsort(d[a, neg_idx], kind="stable")]
        k = np.searchsorted(d[a, near], d[a, pos_idx], side="right")
        anchors.append(np.full(len(pos_idx), a, dtype=np.int64))
        positives.append(pos_idx)
        negatives.append(near[np.where(k < len(near), k, 0)])
    empty = [np.empty(0, dtype=np.int64)]
    return TripletBatch(
        anchors=np.concatenate(anchors or empty),
        positives=np.concatenate(positives or empty),
        negatives=np.concatenate(negatives or empty),
        margin=float(margin),
    )


class MultiTaskAE:
    """Encoder/decoder/classifier sharing one latent space."""

    def __init__(self, dims, rng=None):
        rng = rng or np.random.default_rng()
        self.dims = dims
        c = dims.channels
        h = dims.half_channels
        self.encoder = [
            ("enc_conv1", nn.Conv(c, c, 64, stride=1, rng=rng)),
            ("enc_bn1", nn.BatchNorm(c)),
            ("enc_elu1", nn.Elu()),
            ("enc_pool1", nn.AvgPool(dims.pool1)),
            ("enc_conv2", nn.Conv(c, h, 32, stride=1, rng=rng)),
            ("enc_bn2", nn.BatchNorm(h)),
            ("enc_elu2", nn.Elu()),
            ("enc_pool2", nn.AvgPool(4)),
            ("enc_flat", nn.Flatten()),
            ("enc_fc", nn.Dense(dims.flat, dims.latent, rng=rng)),
        ]
        self.decoder = [
            ("dec_fc", nn.Dense(dims.latent, dims.flat, rng=rng)),  # linear
            ("dec_reshape", nn.Reshape((1, 25, h))),
            ("dec_convt1", nn.ConvTranspose(h, h, 64, stride=4, rng=rng)),
            ("dec_elu1", nn.Elu()),
            ("dec_convt2", nn.ConvTranspose(h, c, 32, stride=dims.pool1, rng=rng)),
            ("dec_elu2", nn.Elu()),
        ]
        self.classifier = [("cls_fc", nn.Dense(dims.latent, dims.n_classes, rng=rng))]

    def _layers(self):
        return self.encoder + self.decoder + self.classifier

    def encode(self, x, train=True):
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 4 or x.shape[1:] != (1, self.dims.t, self.dims.channels):
            raise ValueError(
                f"expected (B, 1, {self.dims.t}, {self.dims.channels}), got {x.shape}"
            )
        for _, layer in self.encoder:
            x = layer.forward(x, train=train)
        return x

    def decode(self, latent, train=True):
        z = np.asarray(latent, dtype=np.float64)
        if z.ndim != 2 or z.shape[1] != self.dims.latent:
            raise ValueError(f"expected (B, {self.dims.latent}), got {z.shape}")
        for _, layer in self.decoder:
            z = layer.forward(z, train=train)
        return z

    def classify_logits(self, latent, train=True):
        z = np.asarray(latent, dtype=np.float64)
        for _, layer in self.classifier:
            z = layer.forward(z, train=train)
        return z

    def forward(self, x, train=True):
        """One shared encoder pass feeding both heads.

        Returns (latent, reconstruction, logits).
        """
        z = self.encode(x, train=train)
        xhat = self.decode(z, train=train)
        logits = self.classify_logits(z, train=train)
        return z, xhat, logits

    def backward(self, dz, dxhat, dlogits):
        """Accumulate gradients for one :meth:`forward` call.

        ``dz`` is the direct latent gradient (triplet path); decoder and
        classifier gradients flow back into the latent before the single
        encoder backward pass.  The first layer, ``enc_conv1``, gets only
        its parameter gradients: its input gradient is the gradient in the
        data, which nothing reads and which would cost a kernel spectrum,
        a channel product and an irfft more.  Returns None.
        """
        dz = np.array(dz, dtype=np.float64, copy=True)
        g = np.asarray(dxhat, dtype=np.float64)
        for _, layer in reversed(self.decoder):
            g = layer.backward(g)
        dz += g
        g = np.asarray(dlogits, dtype=np.float64)
        for _, layer in reversed(self.classifier):
            g = layer.backward(g)
        dz += g
        (_, first), *rest = self.encoder
        for _, layer in reversed(rest):
            dz = layer.backward(dz)
        first.backward_params(dz)

    def zero_grads(self):
        for _, layer in self._layers():
            layer.zero_grads()

    def named_parameters(self):
        """Trainable parameters as one flat dict (live references)."""
        out = {}
        for name, layer in self._layers():
            for pname, arr in layer.params.items():
                out[f"{name}.{pname}"] = arr
        return out

    def named_grads(self):
        out = {}
        for name, layer in self._layers():
            for pname, arr in layer.grads.items():
                out[f"{name}.{pname}"] = arr
        return out

    def state_dict(self):
        """Copies of all parameters plus batch-norm running stats."""
        state = {k: v.copy() for k, v in self.named_parameters().items()}
        for name, layer in self._layers():
            if isinstance(layer, nn.BatchNorm):
                state[f"{name}.running_mean"] = layer.running_mean.copy()
                state[f"{name}.running_var"] = layer.running_var.copy()
        return state

    def load_state_dict(self, state):
        """Load a full :meth:`state_dict`.  Raises KeyError on an entry
        the model does not have, and ValueError, before anything is
        loaded, on a missing entry or one of another shape."""
        expected = {k: v.shape for k, v in self.state_dict().items()}
        for key in state:
            if key not in expected:
                raise KeyError(f"unknown state entry {key}")
        for key, shape in expected.items():
            if key not in state:
                raise ValueError(f"state entry {key} is missing")
            if np.shape(state[key]) != shape:
                raise ValueError(
                    f"state entry {key} has shape {np.shape(state[key])}, "
                    f"the model expects {shape}")
        params = self.named_parameters()
        layers = dict(self._layers())
        for key, value in state.items():
            if key in params:
                params[key][...] = value
            else:
                name, _, stat = key.rpartition(".")
                setattr(layers[name], stat, np.array(value, dtype=np.float64))
