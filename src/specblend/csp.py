"""Common spatial patterns for two-class trials.

Covariances are averaged per class with per-trial trace normalization,
and the spatial filters solve the generalized eigenproblem
``sigma1 w = lambda (sigma1 + sigma2) w`` (Blankertz et al., IEEE SPM
2008).  Filters at the two ends of the eigenvalue spectrum maximize
variance for one class while minimizing it for the other.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

_SYM_TOL = 1e-12
_RIDGE_TRIGGER = 1e-10


@dataclass(frozen=True)
class ClassCovariance:
    """Averaged trace-normalized covariance of one class.

    Attributes
    ----------
    sigma : ndarray, shape (n_channels, n_channels)
        Symmetric PSD with unit trace.
    class_label : int
    n_trials : int
    """

    sigma: np.ndarray
    class_label: int
    n_trials: int

    def __post_init__(self):
        s = np.asarray(self.sigma, dtype=np.float64)
        if s.ndim != 2 or s.shape[0] != s.shape[1]:
            raise ValueError(f"sigma must be square, got shape {s.shape}")
        if np.abs(s - s.T).max() > _SYM_TOL:
            raise ValueError("sigma is not symmetric")
        if abs(np.trace(s) - 1.0) > 1e-9:
            raise ValueError(f"sigma trace {np.trace(s)} is not 1")
        if np.linalg.eigvalsh(s).min() < -1e-10:
            raise ValueError("sigma is not positive semidefinite")
        object.__setattr__(self, "sigma", s)


def class_covariance(trials, class_label):
    """Average the trace-normalized covariance over trials of one class.

    Each trial E of shape (n_channels, t) contributes E E^T / tr(E E^T);
    the average of these unit-trace matrices is returned.

    Parameters
    ----------
    trials : ndarray, shape (n, n_channels, t), or sequence of same-shape
        2-d arrays
    class_label : int

    Returns
    -------
    ClassCovariance

    Raises
    ------
    ValueError
        If no trials are given, they do not stack to (n, n_channels, t),
        or a trial is identically zero (its trace cannot normalize).
    """
    trials = np.asarray(trials, dtype=np.float64)
    if len(trials) == 0:
        raise ValueError(f"no trials for class {class_label}")
    if trials.ndim != 3:
        raise ValueError(f"trials have shape {trials.shape}, expected (n, n_channels, t)")
    covs = trials @ trials.swapaxes(-1, -2)
    traces = np.trace(covs, axis1=1, axis2=2)
    silent = np.flatnonzero(traces <= 0.0)
    if silent.size:
        raise ValueError(f"trial {silent[0]} of class {class_label} has zero energy")
    sigma = (covs / traces[:, None, None]).mean(axis=0)
    sigma = 0.5 * (sigma + sigma.T)  # kill rounding asymmetry
    return ClassCovariance(sigma=sigma, class_label=int(class_label), n_trials=len(trials))


@dataclass(frozen=True)
class CspSolution:
    """Full eigensystem plus the selected end filters.

    Attributes
    ----------
    w_full : ndarray, shape (n_channels, n_channels)
        All spatial filters as columns, eigenvalue-descending.
    eigvals : ndarray, shape (n_channels,)
        Generalized eigenvalues in [0, 1], descending; swapping the two
        classes maps each value to 1 - value.
    w_selected : ndarray, shape (n_channels, u)
        First and last u/2 columns of ``w_full``.
    """

    w_full: np.ndarray
    eigvals: np.ndarray
    w_selected: np.ndarray


def _as_sigma(cov):
    return cov.sigma if isinstance(cov, ClassCovariance) else np.asarray(cov, dtype=np.float64)


def csp_fit(cov1, cov2, u):
    """Solve for spatial filters separating two class covariances.

    Solves the generalized eigenproblem sigma1 W = C W diag(lambda) for
    the composite C = sigma1 + sigma2, giving filters W with
    W^T C W = I and W^T sigma1 W = diag(lambda), lambda descending in
    [0, 1].  A tiny ridge is added to C if it is near-singular.  Each
    filter's sign is fixed so its largest-magnitude entry is positive.

    Parameters
    ----------
    cov1, cov2 : ClassCovariance or ndarray
        Same-shape symmetric matrices.
    u : int
        Number of filters to keep, even, 2 <= u <= n_channels; the
        u/2 most discriminative filters from each end are selected.

    Returns
    -------
    CspSolution
    """
    s1 = _as_sigma(cov1)
    s2 = _as_sigma(cov2)
    if s1.shape != s2.shape or s1.ndim != 2 or s1.shape[0] != s1.shape[1]:
        raise ValueError(f"covariance shapes {s1.shape} and {s2.shape} do not match")
    n_ch = s1.shape[0]
    if u < 2 or u % 2 != 0:
        raise ValueError(f"u must be even and >= 2, got {u}")
    if u > n_ch:
        raise ValueError(f"u = {u} exceeds the {n_ch} available channels")

    comp = 0.5 * ((s1 + s2) + (s1 + s2).T)
    if np.linalg.eigvalsh(comp).min() < _RIDGE_TRIGGER * np.trace(comp):
        comp = comp + 1e-8 * np.trace(comp) / n_ch * np.eye(n_ch)
    lam, w_full = scipy.linalg.eigh(s1, comp)
    lam, w_full = lam[::-1], w_full[:, ::-1]

    # Sign convention: largest-|entry| of each filter positive.
    peaks = np.argmax(np.abs(w_full), axis=0)
    signs = np.sign(w_full[peaks, np.arange(n_ch)])
    signs[signs == 0] = 1.0
    w_full = w_full * signs

    half = u // 2
    w_selected = np.concatenate([w_full[:, :half], w_full[:, n_ch - half :]], axis=1)
    return CspSolution(w_full=w_full, eigvals=lam, w_selected=w_selected)
