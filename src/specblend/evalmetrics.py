"""Classification metrics and the outer evaluation protocol.

``run_fold`` is the one per-fold chain: it fits the spectral-spatial
transform on the training indices only (assert-guarded against
leakage), trains a fresh model, and scores the held-out test partition
with ``score_fold``.  ``run_protocol`` runs it over every fold of a
:class:`~specblend.trialdata.SplitPlan`; the CLI's ``train`` runs it on
one fold.  Results aggregate as an unweighted mean over folds within
each subject, then mean +/- SD across subjects.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy.stats import rankdata

from .fbcsp import fbcsp_fit, fit_fingerprint, transform_batch
from .filterbank import FilterBank, make_filter_bank
from .model import ModelDims, MultiTaskAE
from .nn import softmax
from .trainer import EVAL_CHUNK, TrainConfig, TrainResult, train
from .trialdata import SplitPlan, TrialSet


def accuracy(y_true, y_pred) -> float:
    """Fraction of exactly matching labels."""
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if y_true.shape != y_pred.shape or y_true.size == 0:
        raise ValueError("labels must be non-empty and aligned")
    return float(np.mean(y_true == y_pred))


def f1_score(y_true, y_pred) -> float:
    """F1 of the positive class (index 1)."""
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if y_true.shape != y_pred.shape or y_true.size == 0:
        raise ValueError("labels must be non-empty and aligned")
    tp = int(np.sum((y_pred == 1) & (y_true == 1)))
    fp = int(np.sum((y_pred == 1) & (y_true != 1)))
    fn = int(np.sum((y_pred != 1) & (y_true == 1)))
    if tp == 0:
        return 0.0
    precision = tp / (tp + fp)
    recall = tp / (tp + fn)
    return 2.0 * precision * recall / (precision + recall)


def auc_score(y_true, scores) -> float:
    """Area under the ROC curve from positive-class scores, with tied
    scores handled by rank averaging (equivalent to the trapezoidal
    area over all thresholds)."""
    y_true = np.asarray(y_true)
    scores = np.asarray(scores, dtype=np.float64)
    if y_true.shape != scores.shape or y_true.size == 0:
        raise ValueError("labels must be non-empty and aligned")
    if not np.all(np.isfinite(scores)):
        raise ValueError("scores must be finite")
    pos = y_true == 1
    n_pos = int(pos.sum())
    n_neg = int(y_true.size - n_pos)
    if n_pos == 0 or n_neg == 0:
        raise ValueError(
            "single-class ground truth: AUC undefined")
    ranks = rankdata(scores)
    return float((ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0)
                 / (n_pos * n_neg))


def predict_proba(model: MultiTaskAE, x: np.ndarray) -> np.ndarray:
    """Softmax class probabilities in inference mode, in chunks of
    ``EVAL_CHUNK`` trials."""
    out = []
    for i in range(0, len(x), EVAL_CHUNK):
        z = model.encode(x[i:i + EVAL_CHUNK], train=False)
        out.append(softmax(model.classify_logits(z, train=False)))
    return np.concatenate(out, axis=0)


@dataclass(frozen=True)
class FoldMetrics:
    subject: int
    fold: int
    n_test: int
    accuracy: float
    f1: float
    auc: Optional[float]

    def __post_init__(self):
        for name in ("accuracy", "f1"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} out of [0, 1]: {v}")
        if self.auc is not None and not 0.0 <= self.auc <= 1.0:
            raise ValueError(f"auc out of [0, 1]: {self.auc}")


@dataclass
class EvalReport:
    kind: str
    k: int
    seed: int
    rows: List[FoldMetrics] = field(default_factory=list)
    config_hash: Optional[str] = None

    def per_subject(self) -> Dict[int, Tuple[float, float, Optional[float]]]:
        """Unweighted fold means per subject."""
        groups: Dict[int, List[FoldMetrics]] = {}
        for r in self.rows:
            groups.setdefault(r.subject, []).append(r)
        out = {}
        for s, rows in sorted(groups.items()):
            aucs = [r.auc for r in rows if r.auc is not None]
            out[s] = (
                float(np.mean([r.accuracy for r in rows])),
                float(np.mean([r.f1 for r in rows])),
                float(np.mean(aucs)) if aucs else None,
            )
        return out

    def aggregate(self) -> Dict[str, Optional[float]]:
        """Mean +/- SD (population) across subjects of the per-subject
        means."""
        per = self.per_subject()
        if not per:
            raise ValueError("empty report")
        accs = [v[0] for v in per.values()]
        f1s = [v[1] for v in per.values()]
        aucs = [v[2] for v in per.values() if v[2] is not None]
        out = {
            "accuracy_mean": float(np.mean(accs)),
            "accuracy_sd": float(np.std(accs)),
            "f1_mean": float(np.mean(f1s)),
            "f1_sd": float(np.std(f1s)),
            "auc_mean": float(np.mean(aucs)) if aucs else None,
            "auc_sd": float(np.std(aucs)) if aucs else None,
        }
        return out


def _guard_fold(ts: TrialSet, fold, xf, bank: FilterBank, u: int) -> None:
    """Leakage guard: no test/val index in the fit set, and the fitted
    transform's fingerprint must match a recomputation from exactly the
    training indices."""
    train = set(int(i) for i in fold.train)
    if train & set(int(i) for i in fold.val):
        raise AssertionError("train/val overlap")
    if train & set(int(i) for i in fold.test):
        raise AssertionError("train/test overlap")
    expected = fit_fingerprint(ts.select(fold.train), u, bank)
    if xf.fitted_on != expected:
        raise AssertionError(
            "transform fingerprint does not match the training fold")


def evaluate_fold(model: MultiTaskAE, test_x: np.ndarray,
                  test_y: np.ndarray) -> Tuple[float, float, Optional[float]]:
    """Accuracy, F1 and AUC of a trained model on one test partition.
    AUC degrades to None (error marker) on single-class ground truth."""
    probs = predict_proba(model, test_x)
    y_pred = np.argmax(probs, axis=1)
    acc = accuracy(test_y, y_pred)
    f1 = f1_score(test_y, y_pred)
    try:
        auc = auc_score(test_y, probs[:, 1])
    except ValueError:
        auc = None
    return acc, f1, auc


def protocol_dims(ts: TrialSet, bank: FilterBank, u: int,
                  latent: Optional[int] = None) -> ModelDims:
    """Model shape of every fold of a protocol over ``ts``, checked
    before any filtering.

    ``latent=None`` means u * n_bands.  Raises ValueError when the labels
    are not exactly {0, 1}, when u exceeds the channel count (CSP keeps u
    of n_channels filters), when the trials are too short to pad for the
    bank's filters, or when ``ModelDims`` rejects the shape (t must be a
    positive multiple of 100).
    """
    present = np.unique(ts.labels).tolist()
    if present != [0, 1]:
        raise ValueError(f"labels must be exactly {{0, 1}}, found {present}")
    if u > ts.n_channels:
        raise ValueError(
            f"u={u} CSP filters per band exceed the {ts.n_channels} channels")
    padlen = max(d.padlen for d in bank.designs)
    if ts.n_samples <= padlen:
        raise ValueError(
            f"trials of {ts.n_samples} samples are too short for padding "
            f"length {padlen}")
    if latent is None:
        latent = u * bank.n_bands
    return ModelDims(t=ts.n_samples, u=u, n_bands=bank.n_bands,
                     latent=latent, n_classes=2)


def score_fold(model: MultiTaskAE, xf, ts: TrialSet, fold) -> FoldMetrics:
    """Score a trained model on the test trials of ``fold``, through the
    fold's fitted transform ``xf``."""
    test_set = ts.select(fold.test)
    acc, f1, auc = evaluate_fold(model, transform_batch(xf, test_set),
                                 test_set.labels)
    return FoldMetrics(subject=fold.subject, fold=fold.index,
                       n_test=len(test_set.labels),
                       accuracy=acc, f1=f1, auc=auc)


def run_fold(ts: TrialSet, fold, position: int, config: TrainConfig,
             bank: FilterBank, dims: ModelDims):
    """Fit, guard, train and score one fold.

    The fold's shuffling and initialization generators derive from
    (config.seed, position), so a fold's result does not depend on which
    other folds run.  Returns the fitted transform, the
    :class:`TrainResult` and the fold's :class:`FoldMetrics`; the model
    is scored in the best state that ``train`` restored.
    """
    train_set = ts.select(fold.train)
    xf = fbcsp_fit(train_set, bank, config.u)
    _guard_fold(ts, fold, xf, bank, config.u)
    val_set = ts.select(fold.val)
    tx = transform_batch(xf, train_set)
    vx = transform_batch(xf, val_set)
    model = MultiTaskAE(
        dims, rng=np.random.default_rng([config.seed, position, 1]))
    result = train(model, tx, train_set.labels, vx, val_set.labels, config,
                   rng=np.random.default_rng([config.seed, position]))
    return xf, result, score_fold(model, xf, ts, fold)


def run_protocol(ts: TrialSet, plan: SplitPlan, config: TrainConfig,
                 bank: Optional[FilterBank] = None,
                 collect: Optional[list] = None) -> EvalReport:
    """Run :func:`run_fold` on every fold of ``plan``, in order.

    ``collect``, if given, receives the per-fold :class:`TrainResult`
    objects.  Inputs the protocol cannot run raise ValueError (see
    :func:`protocol_dims`) before any fold is filtered.
    """
    if bank is None:
        bank = make_filter_bank(ts.fs)
    dims = protocol_dims(ts, bank, config.u, config.latent)
    report = EvalReport(kind=plan.kind, k=plan.k, seed=config.seed)
    for position, fold in enumerate(plan.folds):
        _, result, row = run_fold(ts, fold, position, config, bank, dims)
        if collect is not None:
            collect.append(result)
        report.rows.append(row)
    return report


def write_report_csv(report: EvalReport, path,
                     config_hash: Optional[str] = None) -> None:
    ch = config_hash if config_hash is not None else report.config_hash
    lines = []
    if ch is not None:
        lines.append(f"# config_hash={ch}")
    lines.append("subject,fold,n_test,accuracy,f1,auc")
    for r in report.rows:
        auc = "NA" if r.auc is None else repr(r.auc)
        lines.append(f"{r.subject},{r.fold},{r.n_test},"
                     f"{r.accuracy!r},{r.f1!r},{auc}")
    agg = report.aggregate()
    for key in ("accuracy_mean", "accuracy_sd", "f1_mean", "f1_sd",
                "auc_mean", "auc_sd"):
        v = agg[key]
        lines.append(f"# {key}={'NA' if v is None else repr(v)}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def write_report_json(report: EvalReport, path,
                      config_hash: Optional[str] = None) -> None:
    ch = config_hash if config_hash is not None else report.config_hash
    doc = {
        "kind": report.kind,
        "k": report.k,
        "seed": report.seed,
        "config_hash": ch,
        "folds": [
            {"subject": r.subject, "fold": r.fold, "n_test": r.n_test,
             "accuracy": r.accuracy, "f1": r.f1, "auc": r.auc}
            for r in report.rows
        ],
        "per_subject": {
            str(s): {"accuracy": v[0], "f1": v[1], "auc": v[2]}
            for s, v in report.per_subject().items()
        },
        "aggregate": report.aggregate(),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
