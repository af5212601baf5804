"""One workload, run in its own process.

A run sets up the inputs, then repeats whole rounds until ``--seconds``
would be exceeded (always at least one round).  A round is
``run_protocol`` over the workload's fold (fold 0 of its plan) followed
by a closed-loop, one-at-a-time decode of the fold's test trials: one
client, no think time, each decode sent when the previous one has
returned.

Operations: one fold trained and scored, or one single-trial decode.
End-to-end metrics are measured untraced; ``--trace 1`` runs the same
rounds with per-module spans and reports per-layer metrics instead.
"""

from __future__ import annotations

import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from typing import Dict, List

import numpy as np

from specblend.evalmetrics import predict_proba, run_protocol
from specblend.fbcsp import fbcsp_fit, fbcsp_transform
from specblend.filterbank import apply_bank, make_filter_bank
from specblend.model import ModelDims, MultiTaskAE
from specblend.trialdata import SplitPlan, SynthSpec, generate_synthetic, make_splits

from . import checks
from .trace import (CONV_LAYERS, REPORTED_LAYERS, Tracer, infer_conv_ms,
                    program_targets, replay_step, span_metrics,
                    wrapper_cost_s)
from .workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
# Set-up samples per run: this process and SETUP_SAMPLES - 1 fresh ones.
SETUP_SAMPLES = 9
FILTER_CHECK_TRIALS = 2

END_TO_END = {
    "setup_s": "s", "protocol_s": "s", "decode_ms_p50": "ms",
    "decode_ms_p90": "ms", "peak_rss_mb": "MB",
}


def setup(wl, seed):
    """Inputs of one workload: trials, filter bank and fold plan, plus
    the seconds ``generate_synthetic`` took."""
    t0 = time.perf_counter()
    ts = generate_synthetic(SynthSpec(
        n_subjects=wl.n_subjects,
        trials_per_class_per_session=wl.trials_per_class_per_session,
        seed=seed))
    gen_s = time.perf_counter() - t0
    bank = make_filter_bank(ts.fs)
    plan = make_splits(ts, wl.kind, wl.k, seed)
    plan = SplitPlan(kind=plan.kind, k=plan.k, seed=plan.seed, folds=plan.folds[:1])
    return ts, bank, plan, gen_s


def probe_setup(name, seed, t_launch):
    """Body of a set-up probe process: build the inputs, print the
    seconds since the launcher started."""
    setup(WORKLOADS[name], seed)
    print(repr(time.perf_counter() - t_launch))


def probe_setup_s(name, seed) -> float:
    """Set-up time of a fresh process that starts, imports the program
    and builds the workload's inputs, measured inside the process."""
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--probe-setup", "--workload", name, "--seed", str(seed)]
    proc = subprocess.run(cmd, check=True, stdout=subprocess.PIPE, text=True,
                          timeout=120)
    return float(proc.stdout.strip().splitlines()[-1])


def fold_model(state, t, bank, u):
    """The fold's trained network, rebuilt from its collected state."""
    dims = ModelDims(t=t, u=u, n_bands=bank.n_bands, latent=u * bank.n_bands,
                     n_classes=2)
    model = MultiTaskAE(dims, rng=np.random.default_rng(0))
    model.load_state_dict(state)
    return model


class DecodeFold:
    """Fitted transform, trained model and test trials of the fold."""

    def __init__(self, ts, bank, fold, result, u):
        self.train_set = ts.select(fold.train)
        self.test_set = ts.select(fold.test)
        # fbcsp_fit is deterministic: this equals the protocol's own fit.
        self.xf = fbcsp_fit(self.train_set, bank, u)
        self.model = fold_model(result.state, ts.n_samples, bank, u)


def decode_round(df, interludes, latencies: List[float],
                 op_failures: List[str]):
    """Decode every test trial of the fold, one at a time.

    The trials are taken in ``len(interludes) + 1`` interleaved passes,
    and one interlude (work the run does anyway) runs between two passes,
    so the latency samples spread over a longer stretch of the run and a
    burst of machine noise slows only a few of them.  Returns the decoded
    probabilities and tensors, in trial order.
    """
    out = {}
    passes = len(interludes) + 1
    for j in range(passes):
        if j:
            interludes.pop(0)()
        for i in range(j, df.test_set.n_trials, passes):
            try:
                t0 = time.perf_counter()
                tensor = fbcsp_transform(df.xf, df.test_set.signals[i]).values[np.newaxis]
                p = predict_proba(df.model, tensor)
                latencies.append(time.perf_counter() - t0)
            except (ValueError, FloatingPointError) as exc:
                op_failures.append(f"decode trial {i}: {exc}")
                continue
            out[i] = (p[0], tensor[0])
    return (np.array([out[i][0] for i in sorted(out)]),
            np.array([out[i][1] for i in sorted(out)]))


def static_checks(wl, seed, ts, bank, report, results, df, cfg):
    """Checks that need no decode output, with the baseline's accuracy
    and AUC."""
    failures = []
    pick = np.random.default_rng([seed, 7]).choice(
        ts.n_trials, FILTER_CHECK_TRIALS, replace=False)
    failures += checks.check_filterbank(ts.signals[pick], bank, apply_bank)
    failures += checks.check_floors(report.rows, wl.min_auc)
    failures += checks.check_epochs(results, cfg.max_epochs)
    for r in results:
        failures += checks.check_blend(r.log.rows, r.blend.warmup, wl.need_post_warmup)
    failures += checks.check_csp(df.train_set.signals, df.train_set.labels,
                                 bank, df.xf.per_band_filters, cfg.u)
    acc, auc = checks.classical_baseline(
        df.train_set.signals, df.train_set.labels, df.test_set.signals,
        df.test_set.labels, bank, cfg.u)
    if not auc >= checks.BASELINE_AUC_FLOOR:
        failures.append(f"baseline: classical AUC {auc}")
    return failures, {"accuracy": acc, "auc": auc}


def decode_checks(df, outputs, report):
    probs, tensors = outputs
    if len(probs) != df.test_set.n_trials:
        return []  # failed decodes are counted, not checked
    batch = predict_proba(df.model, tensors)
    return checks.check_decode(probs, batch, df.test_set.labels, report.rows[0])


def _percentile(values, q):
    """Linear-interpolated percentile of ``values`` (ms), q in [0, 100]."""
    return float(np.percentile(np.asarray(values) * 1000.0, q))


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 t_launch: float):
    """Run one workload; ``t_launch`` is when the launcher started."""
    wl = WORKLOADS[name]
    cfg = wl.train_config(seed)
    gen_s = []
    for _ in range(SETUP_SAMPLES if trace else 1):
        ts, bank, plan, dt = setup(wl, seed)
        gen_s.append(dt)
    # This process's own set-up is one sample; fresh processes, started
    # between decode passes, add the rest.
    setup_samples = [time.perf_counter() - t_launch]
    interludes = [] if trace else [
        lambda: setup_samples.append(probe_setup_s(name, seed))
        for _ in range(SETUP_SAMPLES - 1)]

    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.install(program_targets())
    protocol_s, latencies = [], []
    op_failures, check_failures = [], []
    info: dict = {}
    attempted = 0
    report = results = dfold = outputs = None
    t_start = time.perf_counter()
    try:
        while True:
            t_round = time.perf_counter()
            collect: list = []
            n_ops = len(plan.folds) + len(plan.folds[0].test)
            attempted += n_ops
            try:
                t0 = time.perf_counter()
                rep = run_protocol(ts, plan, cfg, bank=bank, collect=collect)
                protocol_s.append(time.perf_counter() - t0)
            except (ValueError, IndexError, FloatingPointError) as exc:
                op_failures += [f"protocol: {exc}"] * n_ops
                break
            if report is None:
                report, results = rep, collect
                dfold = DecodeFold(ts, bank, plan.folds[0], collect[0], cfg.u)

                def run_static():
                    more, info["baseline"] = static_checks(
                        wl, seed, ts, bank, report, results, dfold, cfg)
                    check_failures.extend(more)
                interludes.insert(len(interludes) // 2, run_static)
            elif rep.rows != report.rows:
                check_failures.append("protocol: a repeated round reported other metrics")
            outputs_now = decode_round(dfold, interludes, latencies, op_failures)
            if outputs is None:
                outputs = outputs_now
                check_failures += decode_checks(dfold, outputs, report)
            elapsed = time.perf_counter() - t_start
            if elapsed + (time.perf_counter() - t_round) > seconds:
                break
    finally:
        if tracer is not None:
            tracer.uninstall()
    while interludes:
        interludes.pop(0)()

    info["rounds"] = len(protocol_s)
    info["setup_samples_s"] = setup_samples
    if report is not None:
        info["folds"] = [
            {"subject": r.subject, "fold": r.fold, "n_test": r.n_test,
             "accuracy": r.accuracy, "f1": r.f1, "auc": r.auc}
            for r in report.rows]

    if trace:
        metrics = traced_metrics(tracer, gen_s, protocol_s, dfold, outputs,
                                 results, cfg, check_failures)
    else:
        metrics = {
            "setup_s": statistics.median(setup_samples),
            "protocol_s": statistics.median(protocol_s) if protocol_s else None,
            "decode_ms_p50": _percentile(latencies, 50) if latencies else None,
            "decode_ms_p90": _percentile(latencies, 90) if latencies else None,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        info["decodes"] = len(latencies)
    info["failures"] = check_failures + op_failures
    info["unmeasured"] = sorted(k for k, v in metrics.items() if v is None)
    result = {
        "correct": not check_failures,
        "attempted": attempted,
        "failed": len(op_failures),
        "metrics": {k: v for k, v in metrics.items() if v is not None},
    }
    return result, info, tracer


def traced_metrics(tracer, gen_s, protocol_s, df, outputs, results, cfg,
                   failures):
    """Per-layer metrics: span medians, the layer replay and an estimate
    of the trace's own cost: span count times the wrapper's per-call
    cost.  The measured overhead, traced minus untraced ``protocol_s``,
    needs an untraced run too; ``--workload all --trace 1`` prints it."""
    metrics = {"trialdata.generate_s": statistics.median(gen_s)}
    metrics.update(span_metrics(tracer))
    if not results:
        return metrics  # the protocol failed: no fold to replay
    metrics["trainer.epochs"] = float(statistics.median(
        len(r.log.epoch_seconds) for r in results))

    # Replay one training step at the workload's actual training batch on
    # the fold's trained model, fed with its test tensors and labels.
    tensors = outputs[1]
    batch = min(cfg.batch_size, df.train_set.n_trials)
    labels = df.test_set.labels
    fwd, bwd, loss_ms, mismatched = replay_step(
        df.model, tensors[:batch], labels[:batch],
        results[0].blend.weights, cfg.margin)
    if mismatched:
        failures.append(f"replay: gradients differ from MultiTaskAE.backward "
                        f"for {mismatched}")
    for layer in REPORTED_LAYERS:
        metrics[f"nn.{layer}.fwd_ms"] = fwd[layer]
        metrics[f"nn.{layer}.bwd_ms"] = bwd[layer]
    from specblend.trainer import EVAL_CHUNK
    infer = infer_conv_ms(df.model, tensors[:EVAL_CHUNK])
    for layer in CONV_LAYERS:
        metrics[f"nn.{layer}.infer_fwd_ms"] = infer[layer]
    metrics["losses.step_ms"] = loss_ms
    metrics["trace.protocol_s"] = statistics.median(protocol_s) if protocol_s else None
    metrics["trace.spans"] = float(len(tracer.spans))
    metrics["trace.wrapper_cost_est_s"] = len(tracer.spans) * wrapper_cost_s()
    return metrics


def environment(threads: int) -> Dict[str, object]:
    """Thread count and library versions, so figures from different
    machines are never compared silently."""
    import scipy
    blas = "unknown"
    try:
        dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{dep.get('name')} {dep.get('version')}"
    except (TypeError, KeyError):
        pass
    src = os.path.join(ROOT, "src", "specblend")
    lines = 0
    for fname in sorted(os.listdir(src)):
        if fname.endswith(".py"):
            with open(os.path.join(src, fname), encoding="utf-8") as fh:
                lines += sum(1 for _ in fh)
    return {"threads": threads, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas,
            "machine": platform.machine(), "src_lines": lines}
