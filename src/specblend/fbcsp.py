"""Spectral-spatial front end: filter bank + per-band CSP projections.

``fbcsp_fit`` learns one set of CSP filters per sub-band from training
trials only; ``fbcsp_transform`` turns any trial into the channels-last
tensor the network consumes.  Channel order is band-major: band k's
projections occupy tensor channels ``k*u .. k*u + u - 1``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from . import blobio
from .csp import class_covariance, csp_apply, csp_fit
from .filterbank import FilterBank, apply_bank, make_filter_bank


@dataclass(frozen=True)
class SpectralSpatialTransform:
    """Fitted per-band spatial projections.

    ``fitted_on`` fingerprints the exact training subset so downstream
    code can assert no validation or test trial ever reached the fit.
    """

    bank: FilterBank
    per_band_filters: tuple
    u: int
    n_channels: int
    fitted_on: str

    def __post_init__(self):
        if len(self.per_band_filters) != self.bank.n_bands:
            raise ValueError(
                f"{len(self.per_band_filters)} projection blocks for "
                f"{self.bank.n_bands} bands"
            )
        for w in self.per_band_filters:
            if w.shape != (self.n_channels, self.u):
                raise ValueError(
                    f"projection block shape {w.shape}, expected "
                    f"({self.n_channels}, {self.u})"
                )


@dataclass(frozen=True)
class SpectralSpatialTensor:
    """Network-ready trials, shape (..., 1, t, n_bands * u): one trial is
    (1, t, channels), a stack of n is (n, 1, t, channels)."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim < 3 or v.shape[-3] != 1:
            raise ValueError(f"expected shape (..., 1, t, channels), got {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("tensor contains non-finite values")
        object.__setattr__(self, "values", v)


def fit_fingerprint(train, u, bank):
    """Digest of everything that determines a fit: the training trials
    themselves, the band layout, and u."""
    h = hashlib.sha256()
    h.update(train.fingerprint().encode())
    h.update(np.float64(bank.bands).tobytes())
    h.update(np.int64(u).tobytes())
    return h.hexdigest()[:16]


def fbcsp_fit(train, bank, u):
    """Fit per-band CSP projections from training trials.

    Parameters
    ----------
    train : TrialSet
        Training-fold subset; must contain exactly two classes.
    bank : FilterBank
        Sampling rate must match the trials.
    u : int
        Spatial filters kept per band (even; half from each end of the
        eigenvalue spectrum).

    Returns
    -------
    SpectralSpatialTransform
    """
    present = np.unique(train.labels)
    if len(present) != 2:
        raise ValueError(
            f"need exactly 2 classes in the training subset, found {present.tolist()}"
        )
    if abs(train.fs - bank.fs) > 1e-9:
        raise ValueError(f"trial fs {train.fs} does not match bank fs {bank.fs}")

    banded = apply_bank(train.signals, bank)  # (n, n_bands, n_ch, t)
    filters = []
    for k in range(bank.n_bands):
        covs = [
            class_covariance(banded[train.labels == cls, k], cls)
            for cls in present
        ]
        filters.append(csp_fit(covs[0], covs[1], u).w_selected)
    return SpectralSpatialTransform(
        bank=bank,
        per_band_filters=tuple(filters),
        u=int(u),
        n_channels=train.n_channels,
        fitted_on=fit_fingerprint(train, u, bank),
    )


def fbcsp_transform(xf, trials):
    """Project trials into the channels-last network tensor.

    Parameters
    ----------
    xf : SpectralSpatialTransform
    trials : ndarray, shape (n_channels, t) or (n, n_channels, t)
        One trial or a stack of them.

    Returns
    -------
    SpectralSpatialTensor, values shape (1, t, n_bands * u) for one trial
    or (n, 1, t, n_bands * u) for a stack, C-contiguous
    """
    trials = np.asarray(trials, dtype=np.float64)
    if trials.ndim not in (2, 3) or trials.shape[-2] != xf.n_channels:
        raise ValueError(
            f"trial shape {trials.shape} does not match the fitted "
            f"{xf.n_channels} channels"
        )
    banded = apply_bank(trials, xf.bank)  # (..., n_bands, n_ch, t)
    rows = [csp_apply(w, banded[..., k, :, :]) for k, w in enumerate(xf.per_band_filters)]
    stacked = np.concatenate(rows, axis=-2)  # (..., n_bands*u, t), band-major
    values = np.ascontiguousarray(np.swapaxes(stacked, -1, -2))
    return SpectralSpatialTensor(values=values[..., np.newaxis, :, :])


def transform_batch(xf, ts):
    """Transform every trial of a TrialSet, stacked as (n, 1, t, channels)."""
    return fbcsp_transform(xf, ts.signals).values


def save_transform(xf, path, extra_meta=None):
    """Serialize a fitted transform as a manifest/blob pair."""
    arrays = {
        f"band_{k:02d}": w for k, w in enumerate(xf.per_band_filters)
    }
    meta = dict(extra_meta or {})
    meta.update({
        "kind": "spectral_spatial_transform",
        "bands": [list(b) for b in xf.bank.bands],
        "order": xf.bank.designs[0].order,
        "fs": xf.bank.fs,
        "u": xf.u,
        "n_channels": xf.n_channels,
        "fitted_on": xf.fitted_on,
    })
    blobio.write_arrays(path, arrays, meta=meta)


def load_transform(path):
    """Rebuild a transform saved by :func:`save_transform`.

    Filter banks are redesigned from the recorded band table; projection
    blocks come back at blob precision (float32 widened to float64).
    """
    arrays, meta = blobio.read_arrays(path)
    if meta.get("kind") != "spectral_spatial_transform":
        raise blobio.BlobFormatError(f"manifest at {path} is not a transform")
    bank = make_filter_bank(
        meta["fs"], bands=[tuple(b) for b in meta["bands"]], order=meta["order"]
    )
    filters = tuple(
        arrays[f"band_{k:02d}"].astype(np.float64) for k in range(len(meta["bands"]))
    )
    return SpectralSpatialTransform(
        bank=bank,
        per_band_filters=filters,
        u=int(meta["u"]),
        n_channels=int(meta["n_channels"]),
        fitted_on=meta["fitted_on"],
    )
