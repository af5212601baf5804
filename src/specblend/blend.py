"""Adaptive loss-weight blending from train/validation curve tangents.

``update_weights`` takes each checkpoint's train and validation losses,
one per task, and records them in the ``BlendState``; that state is the
only loss history the blend reads.  Curves are smoothed with a trailing
moving average, tangents come from a least squares line over the last
few smoothed points, fit once per task and update, and each task's weight
grows with how much its validation tangent improved over the best
reference checkpoint (generalization) and shrinks with the square of
how much the train/validation gap widened (overfitting).  During a
warm-up phase the weights stay uniform while references settle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

O_FLOOR = 1e-8


class MissingReferenceError(RuntimeError):
    """Weight update requested before a usable reference tangent exists."""


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
    """Weights, per-task references and the loss history they are fit on.

    ``warmup`` and ``window`` are counted in checkpoints; ``window`` may
    not exceed ``warmup`` so references are fit-ready when blending
    starts.  ``checkpoints`` holds the recorded checkpoint indices and
    ``train[m]``/``val[m]`` task m's losses at them.
    """

    n_tasks: int = 3
    warmup: int = 10
    window: int = 3
    exponent: float = 2.0
    weights: np.ndarray = None
    refs: list = None
    checkpoints: list = field(default_factory=list)
    train: list = None
    val: list = None

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
        if self.train is None:
            self.train = [[] for _ in range(self.n_tasks)]
        if self.val is None:
            self.val = [[] for _ in range(self.n_tasks)]

    def record(self, n, train_losses, val_losses):
        """Append one loss per task at checkpoint ``n``, which must come
        after every recorded one."""
        if len(train_losses) != self.n_tasks or len(val_losses) != self.n_tasks:
            raise ValueError(
                f"{len(train_losses)} train and {len(val_losses)} val losses "
                f"for {self.n_tasks} tasks"
            )
        if self.checkpoints and n <= self.checkpoints[-1]:
            raise ValueError(
                f"checkpoint {n} not beyond previous {self.checkpoints[-1]}"
            )
        if not (np.all(np.isfinite(train_losses)) and np.all(np.isfinite(val_losses))):
            raise ValueError(f"non-finite loss at checkpoint {n}")
        self.checkpoints.append(int(n))
        for m in range(self.n_tasks):
            self.train[m].append(float(train_losses[m]))
            self.val[m].append(float(val_losses[m]))

    def tangents(self, m):
        """Task ``m``'s (train, val) smoothed tangents at the newest
        checkpoint."""
        return (smoothed_tangent(self.train[m], self.checkpoints, self.window),
                smoothed_tangent(self.val[m], self.checkpoints, self.window))


def compute_G(ref, tan_val):
    """Generalization measure, Eq.-style: current validation tangent
    minus the reference one, floored at 0."""
    return max(tan_val - ref.tan_val, 0.0)


def compute_O(ref, tan_train, tan_val):
    """Overfitting measure: growth of the validation-train tangent gap
    since the reference, floored at ``O_FLOOR``."""
    gap_now = tan_val - tan_train
    gap_ref = ref.tan_val - ref.tan_train
    return max(gap_now - gap_ref, O_FLOOR)


def update_weights(state, n, train_losses, val_losses):
    """Record checkpoint ``n``'s losses, advance the blend state and
    return the weights.

    Warm-up (n < warmup): uniform weights, references dragged along.
    Afterwards: w_m proportional to G_m / O_m**exponent, normalized to
    sum 1; if every G_m is zero the previous weights persist.  Any task
    whose current validation tangent beats its reference then moves its
    reference here, so the reference tangent never increases.  Each
    task's two tangents are fit once per call.
    """
    state.record(n, train_losses, val_losses)
    if n < state.warmup:
        fit = len(state.checkpoints) >= 2
        state.refs = [TaskReference(n, *state.tangents(m)) if fit
                      else TaskReference(n0=n) for m in range(state.n_tasks)]
        state.weights = np.full(state.n_tasks, 1.0 / state.n_tasks)
        return state.weights.copy()

    raw = np.zeros(state.n_tasks)
    for m, ref in enumerate(state.refs):
        if ref is None or not ref.usable:
            raise MissingReferenceError(f"task {m} has no usable reference tangent")
        tan_train, tan_val = state.tangents(m)
        raw[m] = (compute_G(ref, tan_val)
                  / compute_O(ref, tan_train, tan_val) ** state.exponent)
        if ref.tan_val > tan_val:
            state.refs[m] = TaskReference(n0=n, tan_train=tan_train, tan_val=tan_val)
    z = raw.sum()
    if z > 0.0:
        state.weights = raw / z
    return state.weights.copy()
