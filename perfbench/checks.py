"""Correctness checks computed apart from the program.

Each check returns a list of failure messages (empty when it holds).
References come from SciPy and from the method's defining properties,
never from a stored copy of earlier output:

- the filter bank against ``scipy.signal.sosfiltfilt`` with odd padding;
- CSP filters against a generalized eigenproblem solved by
  ``scipy.linalg.eigh`` on covariances computed here;
- single-trial decodes against the batch prediction and the fold
  metrics the protocol reported;
- blend weights and epoch counts against the configured schedule;
- a classical CSP + log-variance + LDA baseline, built here, whose AUC
  shows the inputs are separable so the AUC floor means something.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np
import scipy.linalg
from scipy import signal as sps

FILTER_RTOL = 1e-12
CSP_TOL = 1e-8
PROB_TOL = 1e-9
BASELINE_AUC_FLOOR = 0.9


def reference_band(x, design):
    """Zero-phase band output of ``x`` (..., t) by SciPy, with the padding
    the filter bank documents: odd reflection over 3 * (2 * order)."""
    return sps.sosfiltfilt(design.sos, np.asarray(x, dtype=np.float64),
                           axis=-1, padtype="odd", padlen=6 * design.order)


def check_filterbank(trials, bank, apply_fn) -> List[str]:
    """``apply_fn(trial, bank)`` must match SciPy on every band and
    channel of every given trial, to rounding."""
    failures = []
    for i, trial in enumerate(trials):
        trial = np.asarray(trial, dtype=np.float64)
        got = np.asarray(apply_fn(trial, bank))
        want = np.stack([reference_band(trial, d) for d in bank.designs])
        if got.shape != want.shape:
            failures.append(f"filterbank: trial {i} shape {got.shape} != {want.shape}")
            continue
        diff = float(np.max(np.abs(got - want)))
        if not diff <= FILTER_RTOL * max(1.0, float(np.max(np.abs(want)))):
            failures.append(f"filterbank: trial {i} differs from sosfiltfilt by {diff:.3e}")
    return failures


def class_covariances(banded, labels):
    """Mean trace-normalized covariance per class, classes in label order.
    ``banded`` is (n, channels, t) for one band."""
    cov = np.einsum("nct,ndt->ncd", banded, banded)
    cov /= np.trace(cov, axis1=1, axis2=2)[:, None, None]
    return [cov[labels == c].mean(axis=0) for c in np.unique(labels)]


def check_csp(train_signals, labels, bank, per_band_filters, u) -> List[str]:
    """Each band's selected filters W must satisfy W^T (S1+S2) W = I with
    W^T S1 W diagonal, carrying the u/2 largest then the u/2 smallest
    generalized eigenvalues of (S1, S1+S2), largest first."""
    failures = []
    labels = np.asarray(labels)
    half = u // 2
    for k, (design, w) in enumerate(zip(bank.designs, per_band_filters)):
        s1, s2 = class_covariances(reference_band(train_signals, design), labels)
        comp = s1 + s2
        eye_err = float(np.max(np.abs(w.T @ comp @ w - np.eye(w.shape[1]))))
        if not eye_err <= CSP_TOL:
            failures.append(f"csp: band {k} W^T(S1+S2)W - I = {eye_err:.3e}")
        d1 = w.T @ s1 @ w
        off = float(np.max(np.abs(d1 - np.diag(np.diag(d1)))))
        if not off <= CSP_TOL:
            failures.append(f"csp: band {k} W^T S1 W off-diagonal {off:.3e}")
        lam = scipy.linalg.eigh(s1, comp, eigvals_only=True)[::-1]
        want = np.concatenate([lam[:half], lam[len(lam) - half:]])
        lam_err = float(np.max(np.abs(np.diag(d1) - want)))
        if not lam_err <= CSP_TOL:
            failures.append(f"csp: band {k} eigenvalues off by {lam_err:.3e}")
    return failures


def rank_auc(y_true, scores) -> float:
    """Mann-Whitney AUC of positive-class scores, ties counted half."""
    y_true = np.asarray(y_true)
    pos = np.asarray(scores)[y_true == 1]
    neg = np.asarray(scores)[y_true == 0]
    wins = (pos[:, None] > neg[None, :]).sum() + 0.5 * (pos[:, None] == neg[None, :]).sum()
    return float(wins / (len(pos) * len(neg)))


def check_decode(single_probs, batch_probs, labels, fold_metrics) -> List[str]:
    """Single-trial decodes must agree with the batch prediction, and the
    batch accuracy and AUC must equal what the protocol reported."""
    failures = []
    single = np.asarray(single_probs)
    batch = np.asarray(batch_probs)
    labels = np.asarray(labels)
    if single.shape != batch.shape:
        return [f"decode: shapes {single.shape} and {batch.shape} differ"]
    disagree = int(np.sum(single.argmax(axis=1) != batch.argmax(axis=1)))
    if disagree:
        failures.append(f"decode: {disagree} single-trial predictions differ from the batch")
    gap = float(np.max(np.abs(single - batch)))
    if not gap <= PROB_TOL:
        failures.append(f"decode: probabilities differ from the batch by {gap:.3e}")
    acc = float(np.mean(batch.argmax(axis=1) == labels))
    if acc != fold_metrics.accuracy:
        failures.append(f"decode: batch accuracy {acc} != reported {fold_metrics.accuracy}")
    auc = rank_auc(labels, batch[:, 1])
    if fold_metrics.auc is None or abs(auc - fold_metrics.auc) > 1e-12:
        failures.append(f"decode: batch AUC {auc} != reported {fold_metrics.auc}")
    return failures


def check_floors(rows, min_auc) -> List[str]:
    """Every fold's AUC clears ``min_auc``.  Accuracy has no floor: after
    a few steps the batch-norm running statistics (momentum 0.99) are
    still near their initial values, so the inference-mode decision
    threshold can sit anywhere while the ranking, and so the AUC, holds."""
    failures = []
    for r in rows:
        if r.auc is None or not r.auc >= min_auc:
            failures.append(f"floor: subject {r.subject} fold {r.fold} "
                            f"AUC {r.auc} < {min_auc}")
    return failures


def check_blend(log_rows, warmup, need_post_warmup) -> List[str]:
    """Weights are non-negative and sum to 1 at every checkpoint; when
    asked, some checkpoint lies past the warm-up."""
    failures = []
    for row in log_rows:
        w = np.asarray(row.weights, dtype=np.float64)
        if np.any(w < 0.0) or abs(w.sum() - 1.0) > 1e-9:
            failures.append(f"blend: checkpoint {row.checkpoint} weights {w.tolist()}")
    if need_post_warmup and not any(r.checkpoint >= warmup for r in log_rows):
        failures.append(f"blend: no checkpoint past the warm-up of {warmup}")
    return failures


def check_epochs(train_results: Sequence, max_epochs: int) -> List[str]:
    return [f"trainer: fold {i} ran {len(r.log.epoch_seconds)} epochs, "
            f"configured {max_epochs}"
            for i, r in enumerate(train_results)
            if len(r.log.epoch_seconds) != max_epochs]


def _log_variance(banded_list, filters):
    feats = [np.log(np.einsum("cu,nct->nut", w, b).var(axis=2))
             for b, w in zip(banded_list, filters)]
    return np.concatenate(feats, axis=1)


def classical_baseline(train_signals, train_labels, test_signals, test_labels,
                       bank, u):
    """Test accuracy and AUC of CSP (solved here) + log-variance + shrunk
    LDA."""
    train_labels = np.asarray(train_labels)
    half = u // 2
    tr_bands = [reference_band(train_signals, d) for d in bank.designs]
    te_bands = [reference_band(test_signals, d) for d in bank.designs]
    filters = []
    for b in tr_bands:
        s1, s2 = class_covariances(b, train_labels)
        _, vecs = scipy.linalg.eigh(s1, s1 + s2)
        filters.append(np.concatenate([vecs[:, :half], vecs[:, -half:]], axis=1))
    f_tr = _log_variance(tr_bands, filters)
    f_te = _log_variance(te_bands, filters)
    mu = [f_tr[train_labels == c].mean(axis=0) for c in (0, 1)]
    centered = np.concatenate([f_tr[train_labels == c] - mu[c] for c in (0, 1)])
    cov = centered.T @ centered / max(len(f_tr) - 2, 1)
    dim = cov.shape[0]
    cov = 0.9 * cov + 0.1 * np.trace(cov) / dim * np.eye(dim)
    w = np.linalg.solve(cov, mu[1] - mu[0])
    score = f_te @ w - 0.5 * w @ (mu[0] + mu[1])
    acc = float(np.mean((score > 0).astype(np.int64) == np.asarray(test_labels)))
    return acc, rank_auc(test_labels, score)
