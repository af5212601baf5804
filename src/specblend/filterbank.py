"""Butterworth band-pass bank and zero-phase filtering.

Nine 4 Hz-wide bands covering 4-40 Hz by default.  Filters are designed
as second-order sections and applied as ``scipy.signal.sosfiltfilt``
does along the last axis, with odd padding over ``3 * (2 * order)``
samples, so the effective magnitude response is squared and the phase
response cancels.  Each design stores its initial filter state; a bank
call shares one odd extension across bands, and one call per band
filters every trial and channel at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import signal as sps

# (4,8), (8,12), ..., (36,40)
DEFAULT_BANDS = tuple((float(lo), float(lo + 4)) for lo in range(4, 40, 4))
DEFAULT_ORDER = 5


@dataclass(frozen=True)
class BandpassDesign:
    """One designed band-pass filter.

    Attributes
    ----------
    low_hz, high_hz : float
        Passband edges; the single-pass magnitude there is 1/sqrt(2).
    order : int
        Butterworth prototype order; the band-pass realization has
        2*order poles.
    fs : float
    sos : ndarray, shape (order, 6)
        Second-order sections ``[b0 b1 b2 1 a1 a2]``.
    zi : ndarray, shape (order, 2)
        ``sosfilt_zi(sos)``, solved once; each pass scales it.
    """

    low_hz: float
    high_hz: float
    order: int
    fs: float
    sos: np.ndarray
    zi: np.ndarray

    @property
    def padlen(self):
        """Odd-extension length of zero-phase filtering: three times the
        2*order pole count, enough for edge transients to die."""
        return 3 * (2 * self.order)


@dataclass(frozen=True)
class FilterBank:
    """Ordered band designs sharing one sampling rate."""

    bands: tuple
    designs: tuple

    @property
    def fs(self):
        return self.designs[0].fs

    @property
    def n_bands(self):
        return len(self.bands)


def design_bandpass(low_hz, high_hz, order, fs):
    """Design one Butterworth band-pass filter.

    Parameters
    ----------
    low_hz, high_hz : float
        Passband edges, 0 < low < high < fs/2.
    order : int
        Prototype order; must be >= 1.
    fs : float

    Returns
    -------
    BandpassDesign

    Raises
    ------
    ValueError
        On invalid edges or a numerically unstable realization (any pole
        magnitude >= 1).
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    if not (0.0 < low_hz < high_hz < fs / 2.0):
        raise ValueError(
            f"band edges ({low_hz}, {high_hz}) must satisfy 0 < low < high < fs/2"
        )
    sos = sps.butter(order, [low_hz, high_hz], btype="bandpass", fs=fs, output="sos")
    sos = np.asarray(sos, dtype=np.float64)
    for b0, b1, b2, _, a1, a2 in sos:
        poles = np.roots([1.0, a1, a2])
        if np.any(np.abs(poles) >= 1.0):
            raise ValueError(
                f"unstable section in band ({low_hz}, {high_hz}): "
                f"pole magnitude {np.abs(poles).max():.6f}"
            )
    return BandpassDesign(
        low_hz=float(low_hz),
        high_hz=float(high_hz),
        order=int(order),
        fs=float(fs),
        sos=sos,
        zi=sps.sosfilt_zi(sos),
    )


def make_filter_bank(fs, bands=DEFAULT_BANDS, order=DEFAULT_ORDER):
    """Design every band of the bank at sampling rate ``fs``."""
    designs = tuple(design_bandpass(lo, hi, order, fs) for lo, hi in bands)
    return FilterBank(bands=tuple((float(lo), float(hi)) for lo, hi in bands), designs=designs)


def _odd_extension(x, padlen):
    """Point-mirror both ends of the last axis over ``padlen`` samples,
    as ``sosfiltfilt`` with ``padtype="odd"`` does."""
    if x.ndim == 0:
        raise ValueError("expected a signal with a time axis, got a scalar")
    if x.shape[-1] <= padlen:
        raise ValueError(
            f"signal of length {x.shape[-1]} is too short for padding "
            f"length {padlen}"
        )
    left, right = x[..., padlen:0:-1], x[..., -2 : -padlen - 2 : -1]
    return np.concatenate((2 * x[..., :1] - left, x, 2 * x[..., -1:] - right), axis=-1)


def _filter_extension(ext, design):
    """Forward and reversed ``sosfilt`` passes over an odd extension, each
    from ``design.zi`` scaled to its first sample, then the trim."""
    zi = design.zi.reshape((design.order,) + (1,) * (ext.ndim - 1) + (2,))
    y, _ = sps.sosfilt(design.sos, ext, zi=zi * ext[..., :1])
    y, _ = sps.sosfilt(design.sos, y[..., ::-1], zi=zi * y[..., -1:])
    return y[..., ::-1][..., design.padlen : -design.padlen]


def zero_phase_filter(x, design):
    """Filter forward and backward along the last axis for zero net phase.

    This is ``scipy.signal.sosfiltfilt`` with odd padding, bit for bit:
    each signal is extended at both ends by odd reflection (point-mirrored
    about the end samples) over ``3 * (2 * order)`` samples, filtered
    forward from the design's stored ``zi`` scaled to its first sample,
    filtered backward the same way, and trimmed.  The result has the
    squared magnitude response of the design and no phase shift.

    Parameters
    ----------
    x : ndarray, shape (..., t)
        Signals longer than the padding, filtered independently.
    design : BandpassDesign

    Returns
    -------
    ndarray, float64, shape (..., t)
    """
    x = np.asarray(x, dtype=np.float64)
    return _filter_extension(_odd_extension(x, design.padlen), design)


def apply_bank(trials, bank):
    """Zero-phase filter multichannel trials through every band.

    Parameters
    ----------
    trials : ndarray, shape (..., n_channels, t)
        One trial ``(n_channels, t)`` or a stack such as
        ``(n, n_channels, t)``; each band is one filter call over all of it.
    bank : FilterBank

    Returns
    -------
    ndarray, float64, shape (..., n_bands, n_channels, t)
    """
    x = np.asarray(trials, dtype=np.float64)
    if x.ndim < 2:
        raise ValueError(f"expected (..., channels, samples), got shape {x.shape}")
    ext = _odd_extension(x, bank.designs[0].padlen)  # one order per bank
    out = np.empty(x.shape[:-2] + (bank.n_bands,) + x.shape[-2:])
    for b, design in enumerate(bank.designs):
        out[..., b, :, :] = _filter_extension(ext, design)
    return out
