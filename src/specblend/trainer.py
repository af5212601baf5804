"""Training loop: Adam over the blended three-task objective.

The trainer owns parameter updates.  Each optimization step runs one
forward pass over a mini-batch, mines triplets on the resulting latents,
weights the three task gradients by the current blend weights, and
applies one Adam update.  Twice per epoch (once when an epoch has only a
single step) it records smoothed-curve checkpoints and refreshes the
blend weights; once per epoch it applies the learning-rate plateau rule
and the early-stopping rule to the monitored validation loss.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import blobio
from .blend import BlendState, LossCurves, record_checkpoint, update_weights
from .losses import (
    ce_loss,
    mse_grad,
    mse_loss,
    one_hot,
    softmax_ce_grad,
    triplet_latent_grad,
    triplet_loss,
    weighted_total,
)
from .model import MultiTaskAE, mine_semi_hard_triplets
from .nn import softmax

MONITOR_CHOICES = ("total", "ce")
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    """Hyper-parameters for one training run.

    ``u`` and ``latent`` describe the model the surrounding protocol
    should build (``latent=None`` means u * n_bands); the loop itself
    consumes the rest.
    """

    lr_init: float = 1e-3
    lr_min: float = 1e-4
    lr_factor: float = 0.5
    lr_patience: int = 5
    early_stop_patience: int = 20
    batch_size: int = 32
    max_epochs: int = 80
    margin: float = 5.0
    u: int = 4
    latent: Optional[int] = None
    warmup_epochs: int = 5
    blend_window: int = 3
    blend_exponent: float = 2.0
    monitor: str = "total"
    seed: int = 0

    def __post_init__(self):
        if not self.lr_min <= self.lr_init:
            raise ValueError("lr_min must not exceed lr_init")
        if not 0.0 < self.lr_factor <= 1.0:
            raise ValueError("lr_factor must be in (0, 1]")
        if self.lr_patience < 1 or self.early_stop_patience < 1:
            raise ValueError("patience values must be >= 1")
        if self.batch_size < 2:
            raise ValueError("batch_size must be >= 2")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be >= 1")
        if self.margin <= 0.0:
            raise ValueError("margin must be positive")
        if self.warmup_epochs < 1:
            raise ValueError("warmup_epochs must be >= 1")
        if not 2 <= self.blend_window <= 2 * self.warmup_epochs:
            # the warm-up spans at most two checkpoints per epoch
            raise ValueError(
                f"blend_window must lie in [2, 2 * warmup_epochs="
                f"{2 * self.warmup_epochs}], got {self.blend_window}")
        if self.monitor not in MONITOR_CHOICES:
            raise ValueError(f"monitor must be one of {MONITOR_CHOICES}")


class Adam:
    """Standard Adam over a named-parameter dict (``ADAM_BETA1``,
    ``ADAM_BETA2``, ``ADAM_EPS``).  Updates are applied in place so the
    model sees them immediately."""

    def __init__(self, params: Dict[str, np.ndarray]):
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}

    def step(self, params: Dict[str, np.ndarray],
             grads: Dict[str, np.ndarray], lr: float) -> None:
        for name, g in grads.items():
            if not np.all(np.isfinite(g)):
                raise FloatingPointError(
                    f"non-finite gradient for parameter {name!r}")
        self.t += 1
        b1c = 1.0 - ADAM_BETA1 ** self.t
        b2c = 1.0 - ADAM_BETA2 ** self.t
        for name, p in params.items():
            g = grads[name]
            m = self.m[name]
            v = self.v[name]
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * (g * g)
            p -= lr * (m / b1c) / (np.sqrt(v / b2c) + ADAM_EPS)


class PlateauController:
    """Strict-improvement tracking for the LR schedule and early stop.

    ``observe`` is called once per epoch with the monitored validation
    loss; it returns (lr to use next epoch, stop flag, improved flag).
    The learning rate halves (down to ``lr_min``) after ``lr_patience``
    consecutive epochs without strict improvement; training stops after
    ``early_stop_patience`` consecutive epochs without one.
    """

    def __init__(self, lr_init: float, lr_min: float, factor: float,
                 lr_patience: int, stop_patience: int):
        self.lr = float(lr_init)
        self.lr_min = float(lr_min)
        self.factor = float(factor)
        self.lr_patience = int(lr_patience)
        self.stop_patience = int(stop_patience)
        self.best = float("inf")
        self.bad_lr = 0
        self.bad_stop = 0

    def observe(self, value: float) -> Tuple[float, bool, bool]:
        improved = value < self.best
        if improved:
            self.best = value
            self.bad_lr = 0
            self.bad_stop = 0
        else:
            self.bad_lr += 1
            self.bad_stop += 1
            if self.bad_lr >= self.lr_patience:
                self.lr = max(self.lr * self.factor, self.lr_min)
                self.bad_lr = 0
        return self.lr, self.bad_stop >= self.stop_patience, improved


@dataclass(frozen=True)
class CheckpointRow:
    """One TrainLog line: losses, weights and LR at a half-epoch
    checkpoint.  ``weights`` are the blend weights computed AT this
    checkpoint (used for the steps that follow it); ``val_total`` is the
    validation losses combined with those same weights."""

    checkpoint: int
    epoch: int
    lr: float
    weights: Tuple[float, float, float]
    train_losses: Tuple[float, float, float]
    val_losses: Tuple[float, float, float]
    val_total: float


@dataclass
class TrainLog:
    rows: List[CheckpointRow] = field(default_factory=list)
    epoch_seconds: List[float] = field(default_factory=list)
    best_epoch: int = -1
    best_checkpoint: int = -1
    stopped_epoch: int = -1

    def __post_init__(self):
        self._check_monotone()

    def _check_monotone(self):
        idx = [r.checkpoint for r in self.rows]
        if any(b <= a for a, b in zip(idx, idx[1:])):
            raise ValueError("checkpoint indices must increase")

    def append(self, row: CheckpointRow) -> None:
        if self.rows and row.checkpoint <= self.rows[-1].checkpoint:
            raise ValueError("checkpoint indices must increase")
        self.rows.append(row)


@dataclass
class TrainResult:
    state: Dict[str, np.ndarray]
    log: TrainLog
    blend: BlendState
    curves: LossCurves


def _batch_plan(n: int, batch_size: int) -> int:
    """Number of optimization steps per epoch: consecutive slices of
    ``batch_size``.  A trailing singleton is folded into the previous
    batch (batch-norm needs at least two samples per step)."""
    if n < 2:
        raise ValueError("need at least 2 training samples")
    steps = -(-n // batch_size)
    if steps > 1 and n % batch_size == 1:
        steps -= 1
    return steps


def epoch_plan(n_train: int, config: TrainConfig,
               ) -> Tuple[int, int, BlendState]:
    """Steps per epoch, checkpoints per epoch and the initial blend state
    for ``n_train`` training trials.

    An epoch holds two checkpoints, or one when it has a single step, so
    the warm-up spans ``warmup_epochs`` times that many checkpoints.
    Raises ValueError when no blend plan fits, e.g. single-step epochs
    with ``warmup_epochs=1``; it needs only the training-set size, so a
    protocol can call it before any filtering.
    """
    steps = _batch_plan(n_train, config.batch_size)
    cpe = 2 if steps >= 2 else 1
    blend_state = BlendState(n_tasks=3, warmup=cpe * config.warmup_epochs,
                             window=config.blend_window,
                             exponent=config.blend_exponent)
    return steps, cpe, blend_state


EVAL_CHUNK = 50


def _task_losses(model: MultiTaskAE, x: np.ndarray, y_hot: np.ndarray,
                 margin: float) -> Tuple[float, float, float]:
    """Full-set losses in inference mode, evaluated in fixed chunks of
    ``EVAL_CHUNK`` trials to bound every layer's working set.  Triplets
    are mined on the complete latent set."""
    n = len(x)
    zs = []
    mse_sum = 0.0
    ce_sum = 0.0
    for i in range(0, n, EVAL_CHUNK):
        xc = x[i:i + EVAL_CHUNK]
        yc = y_hot[i:i + EVAL_CHUNK]
        z, xhat, logits = model.forward(xc, train=False)
        zs.append(z)
        mse_sum += mse_loss(xc, xhat) * len(xc)
        ce_sum += ce_loss(yc, softmax(logits)) * len(xc)
    z = np.concatenate(zs, axis=0)
    batch = mine_semi_hard_triplets(z, np.argmax(y_hot, axis=1), margin)
    l_tri = triplet_loss(z[batch.anchors], z[batch.positives],
                         z[batch.negatives], margin) if len(batch) else 0.0
    return (mse_sum / n, float(l_tri), ce_sum / n)


def train(model: MultiTaskAE,
          train_x: np.ndarray, train_y: np.ndarray,
          val_x: np.ndarray, val_y: np.ndarray,
          config: TrainConfig,
          rng: Optional[np.random.Generator] = None) -> TrainResult:
    """Run the full loop and return the best parameters (restored onto
    ``model`` as well), the TrainLog, and the final blend state.

    ``train_x``/``val_x`` are spectral-spatial tensors of shape
    (n, 1, t, channels); labels are integer class ids.  All randomness
    (epoch shuffling) comes from ``rng``, defaulting to a generator
    seeded with ``config.seed``.
    """
    train_x = np.asarray(train_x, dtype=np.float64)
    val_x = np.asarray(val_x, dtype=np.float64)
    train_y = np.asarray(train_y, dtype=np.int64)
    val_y = np.asarray(val_y, dtype=np.int64)
    if train_x.ndim != 4 or val_x.ndim != 4:
        raise ValueError("expected (n, 1, t, channels) tensors")
    if len(train_x) != len(train_y) or len(val_x) != len(val_y):
        raise ValueError("tensor/label lengths differ")
    n_classes = model.dims.n_classes
    if rng is None:
        rng = np.random.default_rng(config.seed)

    n_train = len(train_x)
    steps_per_epoch, cpe, blend_state = epoch_plan(n_train, config)
    mid_step = steps_per_epoch // 2 if cpe == 2 else steps_per_epoch

    curves = LossCurves(3)
    log = TrainLog()
    adam = Adam(model.named_parameters())
    controller = PlateauController(config.lr_init, config.lr_min,
                                   config.lr_factor, config.lr_patience,
                                   config.early_stop_patience)
    train_hot = one_hot(train_y, n_classes)
    val_hot = one_hot(val_y, n_classes)

    weights = blend_state.weights.copy()
    lr = controller.lr
    checkpoint_idx = 0
    best_state: Optional[Dict[str, np.ndarray]] = None
    params = model.named_parameters()
    grads = model.named_grads()

    def run_checkpoint(epoch: int, window: List[Tuple[float, float, float]]):
        nonlocal checkpoint_idx, weights
        train_means = tuple(float(np.mean([w[i] for w in window]))
                            for i in range(3))
        val_losses = _task_losses(model, val_x, val_hot, config.margin)
        for m in range(3):
            record_checkpoint(curves, m, checkpoint_idx,
                              train_means[m], val_losses[m])
        weights = update_weights(blend_state, curves, checkpoint_idx)
        val_total = weighted_total(val_losses, weights)
        log.append(CheckpointRow(
            checkpoint=checkpoint_idx,
            epoch=epoch,
            lr=lr,
            weights=tuple(float(w) for w in weights),
            train_losses=train_means,
            val_losses=tuple(float(v) for v in val_losses),
            val_total=float(val_total),
        ))
        checkpoint_idx += 1
        return val_losses, val_total

    for epoch in range(config.max_epochs):
        t0 = time.perf_counter()
        perm = rng.permutation(n_train)
        window: List[Tuple[float, float, float]] = []
        monitored = None
        for step in range(steps_per_epoch):
            idx = perm[step * config.batch_size:
                       (step + 1) * config.batch_size]
            if step == steps_per_epoch - 1:
                idx = perm[step * config.batch_size:]
            x = train_x[idx]
            y_hot = train_hot[idx]

            z, xhat, logits = model.forward(x, train=True)
            probs = softmax(logits)
            batch = mine_semi_hard_triplets(
                z, train_y[idx], config.margin)
            l_mse = mse_loss(x, xhat)
            l_tri = triplet_loss(z[batch.anchors], z[batch.positives],
                                 z[batch.negatives],
                                 config.margin) if len(batch) else 0.0
            l_ce = ce_loss(y_hot, probs)
            if not np.all(np.isfinite([l_mse, l_tri, l_ce])):
                raise FloatingPointError(
                    f"non-finite training loss at epoch {epoch} step "
                    f"{step}: mse={l_mse} triplet={l_tri} ce={l_ce}")
            window.append((l_mse, float(l_tri), l_ce))

            dxhat = weights[0] * mse_grad(x, xhat)
            dz = weights[1] * triplet_latent_grad(z, batch)
            dlogits = weights[2] * softmax_ce_grad(y_hot, probs)
            model.zero_grads()
            model.backward(dz, dxhat, dlogits)
            adam.step(params, grads, lr)

            if step + 1 == mid_step and cpe == 2:
                _, _ = run_checkpoint(epoch, window)
                window = []
            if step + 1 == steps_per_epoch:
                val_losses, val_total = run_checkpoint(epoch, window)
                window = []
                monitored = (val_total if config.monitor == "total"
                             else val_losses[2])

        lr, stop, improved = controller.observe(monitored)
        if improved:
            best_state = model.state_dict()
            log.best_epoch = epoch
            log.best_checkpoint = checkpoint_idx - 1
        log.epoch_seconds.append(time.perf_counter() - t0)
        log.stopped_epoch = epoch
        if stop:
            break

    if best_state is not None:
        model.load_state_dict(best_state)
    return TrainResult(state=model.state_dict(), log=log,
                       blend=blend_state, curves=curves)


def write_train_log_csv(log: TrainLog, path, config_hash: Optional[str] = None,
                        ) -> None:
    """Deterministic CSV export: wall-clock timings are deliberately
    left out so identical runs produce identical bytes."""
    lines = []
    if config_hash is not None:
        lines.append(f"# config_hash={config_hash}")
    lines.append("checkpoint,epoch,lr,w_mse,w_triplet,w_ce,"
                 "train_mse,train_triplet,train_ce,"
                 "val_mse,val_triplet,val_ce,val_total")
    for r in log.rows:
        cells = [str(r.checkpoint), str(r.epoch), repr(r.lr)]
        cells += [repr(w) for w in r.weights]
        cells += [repr(v) for v in r.train_losses]
        cells += [repr(v) for v in r.val_losses]
        cells.append(repr(r.val_total))
        lines.append(",".join(cells))
    lines.append(f"# best_epoch={log.best_epoch} "
                 f"best_checkpoint={log.best_checkpoint} "
                 f"stopped_epoch={log.stopped_epoch}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def save_model_state(manifest_path, state: Dict[str, np.ndarray],
                     meta: Optional[dict] = None) -> None:
    """Persist a named-parameter snapshot as manifest+blob (float32)."""
    payload = dict(meta or {})
    payload["kind"] = "model-state"
    blobio.write_arrays(manifest_path, state, meta=payload)


def load_model_state(manifest_path) -> Tuple[Dict[str, np.ndarray], dict]:
    arrays, meta = blobio.read_arrays(manifest_path)
    if meta.get("kind") != "model-state":
        raise ValueError(f"not a model-state manifest: {manifest_path}")
    state = {k: np.asarray(v, dtype=np.float64) for k, v in arrays.items()}
    return state, meta
