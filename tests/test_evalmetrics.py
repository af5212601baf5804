"""Metric arithmetic and the fold-running protocol on a miniature
synthetic dataset (short trials, narrow filter bank) so the end-to-end
paths stay fast."""

import dataclasses
import json

import numpy as np
import pytest

from specblend import evalmetrics
from specblend.evalmetrics import (
    EvalReport,
    FoldMetrics,
    _guard_fold,
    accuracy,
    auc_score,
    f1_score,
    run_protocol,
    write_report_csv,
    write_report_json,
)
from specblend.fbcsp import fbcsp_fit
from specblend.filterbank import make_filter_bank
from specblend.trainer import TrainConfig
from specblend.trialdata import SynthSpec, generate_synthetic, make_splits


class TestAccuracy:
    def test_perfect(self):
        assert accuracy([0, 1, 1], [0, 1, 1]) == 1.0

    def test_fraction(self):
        assert accuracy([1, 1, 0, 0], [1, 0, 0, 0]) == 0.75

    def test_rejects_empty_or_mismatched(self):
        with pytest.raises(ValueError):
            accuracy([], [])
        with pytest.raises(ValueError):
            accuracy([0, 1], [0])


class TestF1:
    def test_perfect(self):
        assert f1_score([0, 1], [0, 1]) == 1.0

    def test_hand_example(self):
        """precision 1, recall 1/2 -> harmonic mean 2/3."""
        val = f1_score([1, 1, 0, 0], [1, 0, 0, 0])
        assert val == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_no_true_positives_is_zero(self):
        assert f1_score([1, 1], [0, 0]) == 0.0


class TestAuc:
    def test_perfect_scores(self):
        assert auc_score([0, 0, 1, 1], [0.0, 0.0, 1.0, 1.0]) == 1.0

    def test_constant_scores_half(self):
        assert auc_score([0, 1, 0, 1], [0.3, 0.3, 0.3, 0.3]) == 0.5

    def test_reversed_scores_zero(self):
        assert auc_score([0, 1], [0.9, 0.1]) == 0.0

    def test_tie_rank_averaging(self):
        """One positive tied with one negative contributes 1/2."""
        val = auc_score([0, 1, 1], [0.5, 0.5, 0.9])
        assert val == pytest.approx(0.75)

    def test_single_class_raises(self):
        with pytest.raises(ValueError, match="single-class"):
            auc_score([1, 1, 1], [0.1, 0.2, 0.3])

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(0)
        y = rng.integers(0, 2, size=30)
        y[0], y[1] = 0, 1
        s = rng.standard_normal(30)
        base = auc_score(y, s)
        assert auc_score(y, 3.0 * s + 7.0) == pytest.approx(base, abs=1e-15)
        assert auc_score(y, np.tanh(s)) == pytest.approx(base, abs=1e-15)

    def test_non_finite_scores_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            auc_score([0, 1], [np.nan, 0.2])


class TestFoldMetrics:
    def test_range_validation(self):
        with pytest.raises(ValueError, match="accuracy"):
            FoldMetrics(0, 0, 10, 1.2, 0.5, 0.5)
        with pytest.raises(ValueError, match="auc"):
            FoldMetrics(0, 0, 10, 0.5, 0.5, -0.1)

    def test_auc_marker_allowed(self):
        row = FoldMetrics(0, 0, 10, 0.5, 0.5, None)
        assert row.auc is None


class TestAggregation:
    def make_report(self):
        report = EvalReport(kind="subject_dependent", k=2, seed=0)
        report.rows = [
            FoldMetrics(0, 0, 10, 0.8, 0.7, 0.9),
            FoldMetrics(0, 1, 10, 0.6, 0.5, 0.7),
            FoldMetrics(1, 0, 10, 1.0, 1.0, 1.0),
            FoldMetrics(1, 1, 10, 0.9, 0.8, 0.8),
        ]
        return report

    def test_per_subject_fold_means(self):
        per = self.make_report().per_subject()
        assert per[0][0] == pytest.approx(0.7)
        assert per[1][0] == pytest.approx(0.95)
        assert per[0][2] == pytest.approx(0.8)

    def test_aggregate_mean_sd_across_subjects(self):
        agg = self.make_report().aggregate()
        assert agg["accuracy_mean"] == pytest.approx((0.7 + 0.95) / 2)
        assert agg["accuracy_sd"] == pytest.approx(0.125)
        assert agg["auc_mean"] == pytest.approx((0.8 + 0.9) / 2)

    def test_empty_report_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            EvalReport(kind="subject_dependent", k=2, seed=0).aggregate()

    def test_auc_markers_skipped_in_means(self):
        report = EvalReport(kind="subject_dependent", k=2, seed=0)
        report.rows = [
            FoldMetrics(0, 0, 10, 0.8, 0.7, None),
            FoldMetrics(0, 1, 10, 0.6, 0.5, 0.7),
        ]
        assert report.per_subject()[0][2] == pytest.approx(0.7)


def mini_dataset():
    """Small, short-trial dataset for protocol runs."""
    spec = SynthSpec(n_subjects=2, n_sessions=2,
                     trials_per_class_per_session=12,
                     n_channels=6, fs=100.0, duration=2.0,
                     class_freqs=(10.0, 22.0), noise_std=0.5, seed=5)
    return generate_synthetic(spec)


def mini_bank():
    return make_filter_bank(100.0, bands=((4.0, 8.0), (8.0, 12.0),
                                          (20.0, 24.0)))


def mini_config(**kw):
    base = dict(batch_size=8, max_epochs=3, margin=1.0, u=4,
                warmup_epochs=1, blend_window=2, seed=11)
    base.update(kw)
    return TrainConfig(**base)


class TestGuard:
    def test_accepts_matching_transform(self):
        ts = mini_dataset()
        plan = make_splits(ts, "subject_dependent", k=2, seed=0)
        fold = plan.folds[0]
        bank = mini_bank()
        xf = fbcsp_fit(ts.select(fold.train), bank, 4)
        _guard_fold(ts, fold, xf, bank, 4)

    def test_rejects_transform_fit_elsewhere(self):
        ts = mini_dataset()
        plan = make_splits(ts, "subject_dependent", k=2, seed=0)
        fold = plan.folds[0]
        bank = mini_bank()
        xf_wrong = fbcsp_fit(ts.select(fold.test), bank, 4)
        with pytest.raises(AssertionError, match="fingerprint"):
            _guard_fold(ts, fold, xf_wrong, bank, 4)


@pytest.fixture(scope="module")
def outcome():
    ts = mini_dataset()
    plan = make_splits(ts, "subject_dependent", k=2, seed=0)
    report = run_protocol(ts, plan, mini_config(), bank=mini_bank())
    return ts, plan, report


class TestRunProtocol:
    def test_row_shape(self, outcome):
        _, plan, report = outcome
        assert len(report.rows) == len(plan.folds) == 4
        assert sorted({r.subject for r in report.rows}) == [0, 1]
        for row in report.rows:
            assert row.n_test == 24
            assert row.auc is not None

    def test_metrics_in_range(self, outcome):
        _, _, report = outcome
        agg = report.aggregate()
        assert 0.0 <= agg["accuracy_mean"] <= 1.0
        assert 0.0 <= agg["auc_mean"] <= 1.0

    def test_deterministic_given_seed(self, outcome):
        ts, plan, report = outcome
        again = run_protocol(ts, plan, mini_config(), bank=mini_bank())
        assert [r.__dict__ for r in again.rows] == \
            [r.__dict__ for r in report.rows]

    @pytest.mark.parametrize("change, match", [
        (dict(label_shift=1), "exactly"),
        (dict(duration=1.5), "multiple of 100"),
        (dict(duration=0.3), "too short"),
        (dict(u=8), "exceed the 6 channels"),
    ])
    def test_unusable_inputs_rejected_before_filtering(self, monkeypatch,
                                                       change, match):
        """Labels other than {0, 1}, more CSP filters than channels, t not
        a multiple of 100, and trials too short to pad raise before the
        first transform fit."""
        spec = SynthSpec(n_subjects=1, trials_per_class_per_session=6,
                         n_channels=6, fs=100.0,
                         duration=change.get("duration", 2.0), seed=5)
        ts = generate_synthetic(spec)
        ts = dataclasses.replace(
            ts, labels=ts.labels + change.get("label_shift", 0))
        plan = make_splits(ts, "subject_dependent", k=2, seed=0)

        def no_fit(*args, **kwargs):
            raise AssertionError("fbcsp_fit reached")

        monkeypatch.setattr(evalmetrics, "fbcsp_fit", no_fit)
        with pytest.raises(ValueError, match=match):
            run_protocol(ts, plan, mini_config(u=change.get("u", 4)),
                         bank=mini_bank())

    def test_collect_receives_fold_results(self):
        ts = mini_dataset()
        plan = make_splits(ts, "subject_dependent", k=2, seed=0)
        results = []
        run_protocol(ts, plan, mini_config(max_epochs=1),
                     bank=mini_bank(), collect=results)
        assert len(results) == 4
        assert all(r.log.rows for r in results)


class TestReportWriters:
    def make_report(self):
        report = EvalReport(kind="subject_dependent", k=2, seed=3)
        report.rows = [
            FoldMetrics(0, 0, 10, 0.8, 0.7, 0.9),
            FoldMetrics(0, 1, 10, 0.6, 0.5, None),
        ]
        return report

    def test_csv_layout(self, tmp_path):
        p = tmp_path / "report.csv"
        write_report_csv(self.make_report(), p, config_hash="feed")
        lines = p.read_text().splitlines()
        assert lines[0] == "# config_hash=feed"
        assert lines[1] == "subject,fold,n_test,accuracy,f1,auc"
        assert lines[2].startswith("0,0,10,")
        assert lines[3].endswith("NA")
        assert any(line.startswith("# accuracy_mean=") for line in lines)

    def test_json_roundtrip(self, tmp_path):
        p = tmp_path / "report.json"
        write_report_json(self.make_report(), p, config_hash="feed")
        doc = json.loads(p.read_text())
        assert doc["kind"] == "subject_dependent"
        assert doc["config_hash"] == "feed"
        assert len(doc["folds"]) == 2
        assert doc["folds"][1]["auc"] is None
        assert doc["aggregate"]["accuracy_mean"] == pytest.approx(0.7)

    def test_csv_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_report_csv(self.make_report(), a, config_hash="x")
        write_report_csv(self.make_report(), b, config_hash="x")
        assert a.read_bytes() == b.read_bytes()
