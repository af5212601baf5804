"""Per-module spans for the traced run, and the one-step layer replay.

The tracer times calls into each module's functions from outside the
program: it swaps the module (or class) attribute the caller looks up
for a timing wrapper, and puts the original back afterwards.  Spans are
kept in memory as (name, start, end, parent) plus a few annotations and
written out at the end.  A wrapper whose target no longer exists is
reported as missing, which loses only that layer's numbers.

The ``nn`` numbers come from :func:`replay_step`, which drives
``MultiTaskAE.encoder``/``decoder``/``classifier`` one layer at a time in
the order ``MultiTaskAE.forward``/``backward`` use, and must reproduce
the gradients of ``MultiTaskAE.backward`` bit for bit.
"""

from __future__ import annotations

import copy
import functools
import json
import statistics
import sys
import time
from typing import Callable, Dict, List, Optional

import numpy as np

REPORTED_LAYERS = (
    "enc_conv1", "enc_bn1", "enc_elu1", "enc_pool1", "enc_conv2", "enc_bn2",
    "enc_elu2", "enc_pool2", "enc_fc", "dec_fc", "dec_convt1", "dec_elu1",
    "dec_convt2", "dec_elu2", "cls_fc",
)
CONV_LAYERS = ("enc_conv1", "enc_conv2", "dec_convt1", "dec_convt2")


class Tracer:
    """In-memory span recorder with attribute-swapping wrappers."""

    def __init__(self):
        self.spans: List[dict] = []
        self._stack: List[int] = []
        self._patched: list = []
        self.missing: List[str] = []

    def open(self, name: str) -> dict:
        rec = {"id": len(self.spans), "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        return rec

    def close(self, rec: dict) -> None:
        rec["end"] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn: Callable, name: str,
             annotate: Optional[Callable] = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(rec)
            if annotate is not None:
                rec.update(annotate(args, kwargs, out))
            return out
        return wrapper

    def install(self, targets) -> None:
        """``targets``: (owner, attribute, span name, annotate) tuples."""
        for owner, attr, name, annotate in targets:
            table = vars(owner)
            if attr not in table or not callable(table[attr]):
                self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
                continue
            self._patched.append((owner, attr, table[attr]))
            setattr(owner, attr, self.wrap(table[attr], name, annotate))
        for m in self.missing:
            print(f"trace: no target {m}; its metrics are skipped", file=sys.stderr)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, orig = self._patched.pop()
            setattr(owner, attr, orig)

    def named(self, name: str) -> List[dict]:
        return [s for s in self.spans if s["name"] == name and s["end"] is not None]

    def under(self, span: dict, name: str) -> bool:
        p = span["parent"]
        while p is not None:
            if self.spans[p]["name"] == name:
                return True
            p = self.spans[p]["parent"]
        return False

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


def wrapper_cost_s(n: int = 20000) -> float:
    """Wall cost of one traced call over a bare call, measured here."""
    wrapped = Tracer().wrap(lambda: None, "probe")
    t0 = time.perf_counter()
    for _ in range(n):
        (lambda: None)()
    t1 = time.perf_counter()
    for _ in range(n):
        wrapped()
    t2 = time.perf_counter()
    return max((t2 - t1) - (t1 - t0), 0.0) / n


def program_targets():
    """The call sites the traced run times, by the module that calls them."""
    from specblend import evalmetrics, fbcsp, model, trainer, trialdata

    def n_trials(args, kwargs, out):
        return {"n": int(args[1].n_trials)}

    def n_rows(args, kwargs, out):
        return {"n": int(len(args[1]))}

    def n_triplets(args, kwargs, out):
        return {"n": int(len(out))}

    def train_flag(args, kwargs, out):
        train = kwargs.get("train", args[2] if len(args) > 2 else True)
        return {"train": bool(train), "n": int(len(args[1]))}

    return [
        (trialdata.TrialSet, "fingerprint", "trialdata.fingerprint", None),
        (fbcsp, "apply_bank", "filterbank.apply_bank", None),
        (fbcsp, "class_covariance", "csp.class_covariance", None),
        (fbcsp, "csp_fit", "csp.csp_fit", None),
        (fbcsp, "fbcsp_transform", "fbcsp.fbcsp_transform", None),
        (evalmetrics, "fbcsp_fit", "fbcsp.fbcsp_fit", None),
        (evalmetrics, "transform_batch", "fbcsp.transform_batch", n_trials),
        (evalmetrics, "_guard_fold", "evalmetrics.guard", None),
        (evalmetrics, "train", "trainer.train", None),
        (evalmetrics, "evaluate_fold", "evalmetrics.evaluate_fold", None),
        (evalmetrics, "predict_proba", "evalmetrics.predict_proba", n_rows),
        (trainer, "_task_losses", "trainer.val_pass", None),
        (trainer, "mine_semi_hard_triplets", "model.mine", n_triplets),
        (trainer, "update_weights", "blend.update_weights", None),
        (trainer.Adam, "step", "trainer.adam_step", None),
        (model.MultiTaskAE, "forward", "model.forward", train_flag),
        (model.MultiTaskAE, "backward", "model.backward", None),
    ]


def _ms(seconds: float) -> float:
    return 1000.0 * seconds


def _median(values):
    values = list(values)
    return statistics.median(values) if values else None


def span_metrics(tracer: Tracer) -> Dict[str, float]:
    """Per-layer medians from the recorded spans (None where no span)."""
    dur = lambda s: s["end"] - s["start"]  # noqa: E731
    spans = tracer.named
    out: Dict[str, Optional[float]] = {}
    out["trialdata.fingerprint_ms"] = _median(_ms(dur(s)) for s in spans("trialdata.fingerprint"))
    out["filterbank.apply_bank_ms"] = _median(_ms(dur(s)) for s in spans("filterbank.apply_bank"))
    out["csp.class_covariance_ms"] = _median(_ms(dur(s)) for s in spans("csp.class_covariance"))
    out["csp.csp_fit_ms"] = _median(_ms(dur(s)) for s in spans("csp.csp_fit"))
    out["fbcsp.fit_s"] = _median(dur(s) for s in spans("fbcsp.fbcsp_fit"))
    out["fbcsp.transform_ms_per_trial"] = _median(
        _ms(dur(s)) / s["n"] for s in spans("fbcsp.transform_batch"))
    out["fbcsp.transform_one_ms"] = _median(_ms(dur(s)) for s in spans("fbcsp.fbcsp_transform"))

    val = "trainer.val_pass"
    fwd = [s for s in spans("model.forward") if s.get("train") and not tracer.under(s, val)]
    out["model.forward_ms"] = _median(_ms(dur(s)) for s in fwd)
    out["model.backward_ms"] = _median(_ms(dur(s)) for s in spans("model.backward"))
    mine = spans("model.mine")
    out["model.mine_batch_ms"] = _median(_ms(dur(s)) for s in mine if not tracer.under(s, val))
    out["model.mine_val_ms"] = _median(_ms(dur(s)) for s in mine if tracer.under(s, val))
    out["model.triplets_per_batch"] = _median(s["n"] for s in mine if not tracer.under(s, val))
    out["blend.update_weights_ms"] = _median(_ms(dur(s)) for s in spans("blend.update_weights"))

    trains = spans("trainer.train")
    adam = spans("trainer.adam_step")
    out["trainer.train_s"] = _median(dur(s) for s in trains)
    out["trainer.adam_step_ms"] = _median(_ms(dur(s)) for s in adam)
    out["trainer.val_pass_ms"] = _median(_ms(dur(s)) for s in spans(val))
    # A step runs from its train-mode forward to the end of its Adam update.
    starts = sorted(s["start"] for s in fwd)
    steps = []
    for a in adam:
        before = [t for t in starts if t <= a["start"]]
        if before:
            steps.append(_ms(a["end"] - before[-1]))
    out["trainer.step_ms"] = _median(steps)
    out["trainer.steps"] = (float(len(adam)) / len(trains)) if trains else None

    # A fold runs from its transform fit to the end of its scoring.
    fits = spans("fbcsp.fbcsp_fit")
    scores = spans("evalmetrics.evaluate_fold")
    out["evalmetrics.fold_s"] = _median(
        e["end"] - f["start"] for f, e in zip(fits, scores)) if len(fits) == len(scores) else None
    out["evalmetrics.predict_ms_per_trial"] = _median(
        _ms(dur(s)) / s["n"] for s in spans("evalmetrics.predict_proba")
        if tracer.under(s, "evalmetrics.evaluate_fold"))
    out["evalmetrics.guard_ms"] = _median(_ms(dur(s)) for s in spans("evalmetrics.guard"))
    return out


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


def replay_step(model, x, y, weights, margin, reps: int = 3):
    """Time one training step layer by layer, as the trainer runs it.

    The step is first run through ``MultiTaskAE.forward``/``backward`` on
    a copy of ``model`` as the reference.  It is then replayed ``reps``
    times on another copy, one layer at a time.  Returns per-layer
    forward and backward medians (ms), the median time of the three
    losses and their gradients (ms), and the names of the parameters
    whose first-replay gradients are not bit-identical to the reference.
    """
    from specblend.losses import (ce_loss, mse_grad, mse_loss, one_hot,
                                  softmax_ce_grad, triplet_latent_grad,
                                  triplet_loss)
    from specblend.model import mine_semi_hard_triplets
    from specblend.nn import softmax

    y_hot = one_hot(y, model.dims.n_classes)

    def heads_grads(z, xhat, logits):
        probs = softmax(logits)
        batch = mine_semi_hard_triplets(z, y, margin)
        t0 = time.perf_counter()
        mse_loss(x, xhat)
        triplet_loss(z[batch.anchors], z[batch.positives], z[batch.negatives], margin)
        ce_loss(y_hot, probs)
        dxhat = weights[0] * mse_grad(x, xhat)
        dz = weights[1] * triplet_latent_grad(z, batch)
        dlogits = weights[2] * softmax_ce_grad(y_hot, probs)
        return dz, dxhat, dlogits, time.perf_counter() - t0

    ref = copy.deepcopy(model)
    ref.zero_grads()
    dz, dxhat, dlogits, _ = heads_grads(*ref.forward(x, train=True))
    ref.backward(dz, dxhat, dlogits)
    ref_grads = ref.named_grads()

    rep = copy.deepcopy(model)
    fwd: Dict[str, list] = {}
    bwd: Dict[str, list] = {}
    loss_s = []
    mismatched: List[str] = []
    for r in range(reps):
        rep.zero_grads()
        h = np.asarray(x, dtype=np.float64)
        for name, layer in rep.encoder:
            h, dt = _timed(layer.forward, h, train=True)
            fwd.setdefault(name, []).append(dt)
        z = h
        for name, layer in rep.decoder:
            h, dt = _timed(layer.forward, h, train=True)
            fwd.setdefault(name, []).append(dt)
        xhat = h
        h = z
        for name, layer in rep.classifier:
            h, dt = _timed(layer.forward, h, train=True)
            fwd.setdefault(name, []).append(dt)
        dz, dxhat, dlogits, dt = heads_grads(z, xhat, h)
        loss_s.append(dt)

        g_z = np.array(dz, dtype=np.float64, copy=True)
        g = dxhat
        for name, layer in reversed(rep.decoder):
            g, dt = _timed(layer.backward, g)
            bwd.setdefault(name, []).append(dt)
        g_z += g
        g = dlogits
        for name, layer in reversed(rep.classifier):
            g, dt = _timed(layer.backward, g)
            bwd.setdefault(name, []).append(dt)
        g_z += g
        for name, layer in reversed(rep.encoder):
            g_z, dt = _timed(layer.backward, g_z)
            bwd.setdefault(name, []).append(dt)
        if r == 0:
            got = rep.named_grads()
            mismatched = [k for k in ref_grads if not np.array_equal(got[k], ref_grads[k])]
    return ({k: _ms(statistics.median(v)) for k, v in fwd.items()},
            {k: _ms(statistics.median(v)) for k, v in bwd.items()},
            _ms(statistics.median(loss_s)), mismatched)


def infer_conv_ms(model, x, reps: int = 3) -> Dict[str, float]:
    """Median inference-mode forward time (ms) of each conv layer on the
    chunk ``x``, driving the encoder and decoder one layer at a time."""
    times: Dict[str, list] = {}
    for _ in range(reps):
        h = np.asarray(x, dtype=np.float64)
        for name, layer in model.encoder + model.decoder:
            h, dt = _timed(layer.forward, h, train=False)
            if name in CONV_LAYERS:
                times.setdefault(name, []).append(dt)
    return {k: _ms(statistics.median(v)) for k, v in times.items()}


COUNTS = {"model.triplets_per_batch", "trainer.epochs", "trainer.steps", "trace.spans"}


def per_layer_names() -> List[str]:
    """Every per-layer metric of the traced run, in report order."""
    names = [
        "trialdata.generate_s", "trialdata.fingerprint_ms",
        "filterbank.apply_bank_ms",
        "csp.class_covariance_ms", "csp.csp_fit_ms",
        "fbcsp.fit_s", "fbcsp.transform_ms_per_trial", "fbcsp.transform_one_ms",
    ]
    for layer in REPORTED_LAYERS:
        names += [f"nn.{layer}.fwd_ms", f"nn.{layer}.bwd_ms"]
    names += [f"nn.{layer}.infer_fwd_ms" for layer in CONV_LAYERS]
    names += [
        "model.forward_ms", "model.backward_ms", "model.mine_batch_ms",
        "model.mine_val_ms", "model.triplets_per_batch",
        "losses.step_ms", "blend.update_weights_ms",
        "trainer.train_s", "trainer.step_ms", "trainer.adam_step_ms",
        "trainer.val_pass_ms", "trainer.epochs", "trainer.steps",
        "evalmetrics.fold_s", "evalmetrics.predict_ms_per_trial",
        "evalmetrics.guard_ms",
        "trace.protocol_s", "trace.spans", "trace.wrapper_cost_est_s",
    ]
    return names


def per_layer_units() -> Dict[str, str]:
    return {n: "count" if n in COUNTS else ("ms" if "_ms" in n else "s")
            for n in per_layer_names()}
