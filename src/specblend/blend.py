"""Adaptive loss-weight blending from train/validation curve tangents.

Each task keeps a loss curve sampled at checkpoints.  Curves are
smoothed with a trailing moving average, tangents come from a least
squares line over the last few smoothed points, and each task's weight
grows with how much its validation tangent improved over the best
reference checkpoint (generalization) and shrinks with the square of
how much the train/validation gap widened (overfitting).  During a
warm-up phase the weights stay uniform while references settle.
"""

from __future__ import annotations

import bisect
import csv
from dataclasses import dataclass, field

import numpy as np

O_FLOOR = 1e-8


class MissingReferenceError(RuntimeError):
    """Weight update requested before a usable reference tangent exists."""


@dataclass
class LossCurve:
    """Per-task loss history at strictly increasing checkpoint indices."""

    checkpoints: list = field(default_factory=list)
    train: list = field(default_factory=list)
    val: list = field(default_factory=list)

    def append(self, n, train_loss, val_loss):
        if self.checkpoints and n <= self.checkpoints[-1]:
            raise ValueError(
                f"checkpoint {n} not beyond previous {self.checkpoints[-1]}"
            )
        if not (np.isfinite(train_loss) and np.isfinite(val_loss)):
            raise ValueError(f"non-finite loss at checkpoint {n}")
        self.checkpoints.append(int(n))
        self.train.append(float(train_loss))
        self.val.append(float(val_loss))

    def __len__(self):
        return len(self.checkpoints)


class LossCurves:
    """Fixed-size bundle of per-task curves."""

    def __init__(self, n_tasks):
        self.curves = tuple(LossCurve() for _ in range(n_tasks))

    def __getitem__(self, m):
        return self.curves[m]

    def __len__(self):
        return len(self.curves)


def record_checkpoint(curves, m, n, train_loss, val_loss):
    """Append one (train, val) loss pair for task ``m`` at checkpoint ``n``."""
    curves[m].append(n, train_loss, val_loss)


def line_fit_slope(values, indices):
    """Ordinary least-squares slope of ``values`` against ``indices``.

    Smoothing is the caller's business; this is the bare line fit.
    """
    values = np.asarray(values, dtype=np.float64)
    indices = np.asarray(indices, dtype=np.float64)
    if values.shape != indices.shape or values.ndim != 1:
        raise ValueError("values and indices must be 1-d and aligned")
    if len(values) < 2:
        raise ValueError("line fit needs at least 2 points")
    ic = indices - indices.mean()
    return float(np.dot(ic, values - values.mean()) / np.dot(ic, ic))


def moving_average(values, window):
    """Trailing moving average; early points use however much history
    exists (no look-ahead)."""
    values = np.asarray(values, dtype=np.float64)
    csum = np.concatenate(([0.0], np.cumsum(values)))
    hi = np.arange(1, len(values) + 1)
    lo = np.maximum(hi - window, 0)
    return (csum[hi] - csum[lo]) / (hi - lo)


def smoothed_tangent(values, indices, window):
    """Tangent at the newest checkpoint: moving-average the whole curve,
    then line-fit the last ``window`` smoothed points (fewer if the
    curve is still short, minimum 2)."""
    if len(values) < 2:
        raise ValueError("tangent needs at least 2 recorded checkpoints")
    sm = moving_average(values, window)
    k = min(window, len(sm))
    return line_fit_slope(sm[-k:], np.asarray(indices, dtype=np.float64)[-k:])


@dataclass
class TaskReference:
    """Reference checkpoint: where a task's validation tangent was best."""

    n0: int
    tan_train: float = None
    tan_val: float = None

    @property
    def usable(self):
        return self.tan_train is not None and self.tan_val is not None


@dataclass
class BlendState:
    """Weights plus per-task reference bookkeeping.

    ``warmup`` and ``window`` are counted in checkpoints; ``window`` may
    not exceed ``warmup`` so references are fit-ready when blending
    starts.
    """

    n_tasks: int = 3
    warmup: int = 10
    window: int = 3
    exponent: float = 2.0
    eps: float = O_FLOOR
    weights: np.ndarray = None
    refs: list = None

    def __post_init__(self):
        if self.warmup < 2:
            raise ValueError(f"warm-up must span >= 2 checkpoints, got {self.warmup}")
        if not 2 <= self.window <= self.warmup:
            raise ValueError(
                f"fit window {self.window} must lie in [2, warmup={self.warmup}]"
            )
        if self.weights is None:
            self.weights = np.full(self.n_tasks, 1.0 / self.n_tasks)
        if self.refs is None:
            self.refs = [None] * self.n_tasks


def _points_upto(curve, n):
    k = bisect.bisect_right(curve.checkpoints, n)  # checkpoints increase
    return curve.checkpoints[:k], curve.train[:k], curve.val[:k]


def _current_tangents(curve, n, window):
    idx, tr, va = _points_upto(curve, n)
    return smoothed_tangent(tr, idx, window), smoothed_tangent(va, idx, window)


def compute_G(state, m, curves, n):
    """Generalization measure, Eq.-style: current validation tangent
    minus the reference one, floored at 0."""
    ref = state.refs[m]
    if ref is None or not ref.usable:
        raise MissingReferenceError(f"task {m} has no usable reference tangent")
    _, tan_val = _current_tangents(curves[m], n, state.window)
    return max(tan_val - ref.tan_val, 0.0)


def compute_O(state, m, curves, n):
    """Overfitting measure: growth of the validation-train tangent gap
    since the reference, floored at ``state.eps``."""
    ref = state.refs[m]
    if ref is None or not ref.usable:
        raise MissingReferenceError(f"task {m} has no usable reference tangent")
    tan_train, tan_val = _current_tangents(curves[m], n, state.window)
    gap_now = tan_val - tan_train
    gap_ref = ref.tan_val - ref.tan_train
    return max(gap_now - gap_ref, state.eps)


def _set_reference(state, m, curves, n):
    idx, _, _ = _points_upto(curves[m], n)
    if len(idx) >= 2:
        tan_train, tan_val = _current_tangents(curves[m], n, state.window)
        state.refs[m] = TaskReference(n0=n, tan_train=tan_train, tan_val=tan_val)
    else:
        state.refs[m] = TaskReference(n0=n)


def update_weights(state, curves, n):
    """Advance the blend state at checkpoint ``n`` and return weights.

    Warm-up (n < warmup): uniform weights, references dragged along.
    Afterwards: w_m proportional to G_m / O_m**exponent, normalized to
    sum 1; if every G_m is zero the previous weights persist.  Finally
    any task whose current validation tangent beats its reference moves
    its reference here, so the reference tangent never increases.
    """
    if len(curves) != state.n_tasks:
        raise ValueError(f"{len(curves)} curves for {state.n_tasks} tasks")
    if n < state.warmup:
        for m in range(state.n_tasks):
            _set_reference(state, m, curves, n)
        state.weights = np.full(state.n_tasks, 1.0 / state.n_tasks)
        return state.weights.copy()

    raw = np.zeros(state.n_tasks)
    tangents = []
    for m in range(state.n_tasks):
        g = compute_G(state, m, curves, n)
        o = compute_O(state, m, curves, n)
        raw[m] = g / o**state.exponent
        tangents.append(_current_tangents(curves[m], n, state.window))
    z = raw.sum()
    if z > 0.0:
        state.weights = raw / z
    for m in range(state.n_tasks):
        tan_train, tan_val = tangents[m]
        if state.refs[m].tan_val > tan_val:
            state.refs[m] = TaskReference(n0=n, tan_train=tan_train, tan_val=tan_val)
    return state.weights.copy()


def export_curves_csv(curves, weight_history, path, config_hash=None):
    """Write the long-format curve/weight table.

    ``weight_history`` maps checkpoint index to the weight vector that
    was in force there.  Columns: checkpoint, task, train_loss,
    val_loss, weight.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        if config_hash is not None:
            fh.write(f"# config_hash={config_hash}\n")
        writer = csv.writer(fh)
        writer.writerow(["checkpoint", "task", "train_loss", "val_loss", "weight"])
        for m, curve in enumerate(curves.curves):
            for i, n in enumerate(curve.checkpoints):
                w = weight_history.get(n)
                writer.writerow([
                    n, m,
                    f"{curve.train[i]:.10g}",
                    f"{curve.val[i]:.10g}",
                    f"{w[m]:.10g}" if w is not None else "",
                ])
