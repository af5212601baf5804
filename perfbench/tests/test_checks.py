"""The benchmark's own checks on tiny shapes: each passes on the program's
output and fails once the property it guards is broken.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from specblend import evalmetrics, fbcsp, model, trainer
from specblend.evalmetrics import FoldMetrics, evaluate_fold, predict_proba, run_protocol
from specblend.fbcsp import fbcsp_fit, transform_batch
from specblend.filterbank import apply_bank, make_filter_bank
from specblend.model import ModelDims, MultiTaskAE
from specblend.trainer import CheckpointRow, TrainConfig
from specblend.trialdata import SynthSpec, generate_synthetic, make_splits

from perfbench import checks
from perfbench.trace import (REPORTED_LAYERS, Tracer, per_layer_names,
                             program_targets, replay_step, span_metrics)

U = 2
DIMS = ModelDims(t=100, u=U, n_bands=2, latent=4)


@pytest.fixture(scope="module")
def tiny():
    ts = generate_synthetic(SynthSpec(n_subjects=1, trials_per_class_per_session=6,
                                      n_channels=4, duration=1.0, seed=3))
    bank = make_filter_bank(ts.fs, bands=((8.0, 12.0), (20.0, 24.0)))
    plan = make_splits(ts, "subject_dependent", 2, 3)
    fold = plan.folds[0]
    train_set, test_set = ts.select(fold.train), ts.select(fold.test)
    xf = fbcsp_fit(train_set, bank, U)
    return ts, bank, plan, train_set, test_set, xf


def test_filterbank_check_holds_for_apply_bank(tiny):
    ts, bank = tiny[0], tiny[1]
    assert checks.check_filterbank(ts.signals[:2], bank, apply_bank) == []


def test_filterbank_check_catches_a_perturbed_band(tiny):
    ts, bank = tiny[0], tiny[1]

    def perturbed(trial, bank):
        out = apply_bank(trial, bank)
        out[1, 2, 50] += 1e-9
        return out
    assert checks.check_filterbank(ts.signals[:1], bank, perturbed)


def test_csp_check_holds_for_fbcsp_fit(tiny):
    _, bank, _, train_set, _, xf = tiny
    assert checks.check_csp(train_set.signals, train_set.labels, bank,
                            xf.per_band_filters, U) == []


def test_csp_check_catches_a_swapped_filter_column(tiny):
    _, bank, _, train_set, _, xf = tiny
    filters = [w.copy() for w in xf.per_band_filters]
    filters[1] = filters[1][:, ::-1]
    failures = checks.check_csp(train_set.signals, train_set.labels, bank, filters, U)
    assert any("band 1 eigenvalues" in f for f in failures)


def _decode_case(tiny):
    _, _, _, _, test_set, xf = tiny
    net = MultiTaskAE(DIMS, rng=np.random.default_rng(5))
    x = transform_batch(xf, test_set)
    single = np.concatenate([predict_proba(net, x[i:i + 1]) for i in range(len(x))])
    batch = predict_proba(net, x)
    acc, f1, auc = evaluate_fold(net, x, test_set.labels)
    fm = FoldMetrics(subject=0, fold=0, n_test=len(x), accuracy=acc, f1=f1, auc=auc)
    return single, batch, test_set.labels, fm


def test_decode_check_holds_for_single_trial_decodes(tiny):
    single, batch, labels, fm = _decode_case(tiny)
    assert checks.check_decode(single, batch, labels, fm) == []


def test_decode_check_catches_a_disagreeing_decode(tiny):
    single, batch, labels, fm = _decode_case(tiny)
    single = single.copy()
    single[3] = single[3, ::-1]
    assert any("differ from the batch" in f
               for f in checks.check_decode(single, batch, labels, fm))


def test_decode_check_catches_a_misreported_accuracy(tiny):
    single, batch, labels, fm = _decode_case(tiny)
    wrong = FoldMetrics(subject=0, fold=0, n_test=fm.n_test,
                        accuracy=abs(fm.accuracy - 0.5), f1=fm.f1, auc=fm.auc)
    assert checks.check_decode(single, batch, labels, wrong)


def test_rank_auc_matches_the_program(tiny):
    single, batch, labels, fm = _decode_case(tiny)
    assert checks.rank_auc(labels, batch[:, 1]) == pytest.approx(fm.auc, abs=1e-12)


def _row(n, weights):
    return CheckpointRow(checkpoint=n, epoch=n // 2, lr=1e-3, weights=weights,
                         train_losses=(1.0, 1.0, 1.0), val_losses=(1.0, 1.0, 1.0),
                         val_total=1.0)


def test_blend_check():
    good = [_row(0, (1 / 3, 1 / 3, 1 / 3)), _row(1, (0.5, 0.25, 0.25))]
    assert checks.check_blend(good, warmup=1, need_post_warmup=True) == []
    assert checks.check_blend(good, warmup=2, need_post_warmup=True)
    assert checks.check_blend([_row(0, (0.6, 0.6, -0.2))], 1, False)
    assert checks.check_blend([_row(0, (0.5, 0.3, 0.3))], 1, False)


def test_floor_check():
    rows = [FoldMetrics(0, 0, 10, 0.5, 0.6, 0.95), FoldMetrics(0, 1, 10, 0.9, 0.9, 0.6)]
    assert checks.check_floors(rows[:1], 0.85) == []
    assert len(checks.check_floors(rows, 0.85)) == 1
    assert checks.check_floors([FoldMetrics(0, 0, 10, 0.9, 0.9, None)], 0.85)


def test_replay_reproduces_backward_bit_for_bit(tiny):
    _, _, _, _, test_set, xf = tiny
    net = MultiTaskAE(DIMS, rng=np.random.default_rng(9))
    x = transform_batch(xf, test_set)[:8]
    fwd, bwd, loss_ms, mismatched = replay_step(
        net, x, test_set.labels[:8], np.array([0.2, 0.3, 0.5]), margin=5.0, reps=2)
    assert mismatched == []
    assert set(REPORTED_LAYERS) <= set(fwd) and set(REPORTED_LAYERS) <= set(bwd)
    assert loss_ms > 0


def test_traced_protocol_yields_every_span_metric_and_restores(tiny):
    ts, bank, plan = tiny[0], tiny[1], tiny[2]
    originals = {(o, a): vars(o)[a] for o, a, _, _ in program_targets()}
    tracer = Tracer()
    tracer.install(program_targets())
    try:
        cfg = TrainConfig(max_epochs=2, early_stop_patience=3, batch_size=4,
                          warmup_epochs=1, blend_window=2, u=U, seed=3)
        run_protocol(ts, plan, cfg, bank=bank)
    finally:
        tracer.uninstall()
    assert tracer.missing == []
    assert all(vars(o)[a] is f for (o, a), f in originals.items())
    got = span_metrics(tracer)
    assert set(got) <= set(per_layer_names())
    assert [k for k, v in got.items() if v is None] == []
    assert evalmetrics.train is trainer.train and fbcsp.apply_bank is apply_bank
    assert model.MultiTaskAE.forward.__name__ == "forward"


def test_launcher_refuses_a_tree_without_the_program(tmp_path):
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    shutil.copytree(here, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / "perfbench" / "run.py"), "--workload",
         "sd_fold_long", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""


def test_benchmark_json_matches_the_metric_tables():
    import json
    from perfbench.bench import END_TO_END
    from perfbench.trace import per_layer_units
    from perfbench.workloads import WORKLOADS
    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == per_layer_units()


def test_decode_round_runs_interludes_between_passes_in_trial_order(tiny):
    from perfbench.bench import decode_round

    class DecodeFold:
        def __init__(self, tiny):
            self.test_set, self.xf = tiny[4], tiny[5]
            self.model = MultiTaskAE(DIMS, rng=np.random.default_rng(1))

    df = DecodeFold(tiny)
    latencies, failures, ran = [], [], []
    interludes = [lambda: ran.append(len(latencies)) for _ in range(2)]
    probs, tensors = decode_round(df, interludes, latencies, failures)
    n = df.test_set.n_trials
    assert failures == [] and interludes == []
    assert ran == [len(range(0, n, 3)), len(range(0, n, 3)) + len(range(1, n, 3))]
    assert len(latencies) == len(probs) == n
    batch = predict_proba(df.model, transform_batch(df.xf, df.test_set))
    assert np.allclose(probs, batch, rtol=0, atol=1e-12)
