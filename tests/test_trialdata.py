"""Synthetic generator determinism, dataset IO, and split plans."""

import numpy as np
import pytest

from specblend.blobio import BlobFormatError
from specblend.trialdata import (
    Fold,
    SplitPlan,
    SynthSpec,
    TrialSet,
    generate_synthetic,
    load_trialset,
    make_splits,
    save_trialset,
    subject_mixing_vectors,
)

SMALL = SynthSpec(n_subjects=2, trials_per_class_per_session=6, duration=1.0, seed=3)


class TestTrialSet:
    def test_rejects_empty(self):
        """A trial set cannot be built without trials."""
        with pytest.raises(ValueError, match="at least one trial"):
            TrialSet(
                signals=np.zeros((0, 4, 10), dtype=np.float32),
                labels=np.zeros(0, dtype=np.int64),
                subject_ids=np.zeros(0, dtype=np.int64),
                session_ids=np.zeros(0, dtype=np.int64),
                fs=100.0,
            )

    def test_rejects_negative_labels(self):
        with pytest.raises(ValueError, match="non-negative"):
            TrialSet(
                signals=np.zeros((2, 4, 10), dtype=np.float32),
                labels=np.array([0, -1]),
                subject_ids=np.zeros(2, dtype=np.int64),
                session_ids=np.zeros(2, dtype=np.int64),
                fs=100.0,
            )

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_signals(self, bad):
        signals = np.zeros((2, 4, 10), dtype=np.float32)
        signals[1, 2, 3] = bad
        with pytest.raises(ValueError, match="signals must be finite"):
            TrialSet(
                signals=signals,
                labels=np.array([0, 1]),
                subject_ids=np.zeros(2, dtype=np.int64),
                session_ids=np.zeros(2, dtype=np.int64),
                fs=100.0,
            )

    def test_select_preserves_alignment(self):
        ts = generate_synthetic(SMALL)
        sub = ts.select([5, 2, 9])
        assert sub.n_trials == 3
        assert np.array_equal(sub.labels, ts.labels[[5, 2, 9]])
        assert np.array_equal(sub.signals, ts.signals[[5, 2, 9]])


class TestGenerateSynthetic:
    def test_same_seed_same_bytes(self):
        """Two calls with one spec must agree bitwise."""
        a = generate_synthetic(SMALL)
        b = generate_synthetic(SMALL)
        assert a.signals.tobytes() == b.signals.tobytes()
        assert np.array_equal(a.labels, b.labels)

    def test_seed_changes_output(self):
        a = generate_synthetic(SMALL)
        b = generate_synthetic(SynthSpec(
            n_subjects=2, trials_per_class_per_session=6, duration=1.0, seed=4))
        assert a.signals.tobytes() != b.signals.tobytes()

    def test_shapes_and_counts(self):
        spec = SynthSpec()
        ts = generate_synthetic(spec)
        assert ts.signals.shape == (2 * 2 * 2 * 50, 8, 400)
        assert np.unique(ts.labels).tolist() == [0, 1]
        for s in range(2):
            for c in range(2):
                mask = (ts.subject_ids == s) & (ts.labels == c)
                assert mask.sum() == 100

    def test_noise_free_trials_are_rank_one(self):
        """With noise_std=0 each trial is mixing_vector x sinusoid."""
        spec = SynthSpec(n_subjects=1, trials_per_class_per_session=2,
                         duration=1.0, noise_std=0.0, seed=11)
        ts = generate_synthetic(spec)
        for i in range(ts.n_trials):
            svals = np.linalg.svd(ts.signals[i].astype(np.float64), compute_uv=False)
            assert svals[1] <= 1e-5 * svals[0]

    def test_noise_free_variance_ratio_matches_mixing(self):
        """Per-channel variance ratio between classes equals the squared
        ratio of the effective mixing vectors (sine variance cancels for
        whole-period durations)."""
        spec = SynthSpec(n_subjects=1, trials_per_class_per_session=1,
                         noise_std=0.0, seed=5)
        ts = generate_synthetic(spec)
        mix = subject_mixing_vectors(spec, 0)
        v0 = ts.signals[ts.labels == 0][0].astype(np.float64).var(axis=1)
        v1 = ts.signals[ts.labels == 1][0].astype(np.float64).var(axis=1)
        expected = (mix[0] / mix[1]) ** 2
        np.testing.assert_allclose(v0 / v1, expected, rtol=1e-4)

    def test_rejects_non_integral_sample_count(self):
        with pytest.raises(ValueError, match="integer"):
            SynthSpec(duration=1.005, fs=100.0)

    def test_rejects_single_channel(self):
        with pytest.raises(ValueError, match="two channels"):
            SynthSpec(n_channels=1)


class TestTrialsetIO:
    def test_round_trip_bitwise(self, tmp_path):
        ts = generate_synthetic(SMALL)
        path = tmp_path / "data.npz"
        save_trialset(ts, path)
        back = load_trialset(path)
        assert back.signals.tobytes() == ts.signals.tobytes()
        assert np.array_equal(back.labels, ts.labels)
        assert np.array_equal(back.subject_ids, ts.subject_ids)
        assert np.array_equal(back.session_ids, ts.session_ids)
        assert back.fs == ts.fs

    def test_size_mismatch_detected(self, tmp_path):
        """A file cut short by one trial's bytes is refused."""
        ts = generate_synthetic(SMALL)
        path = tmp_path / "data.npz"
        save_trialset(ts, path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - ts.n_channels * ts.n_samples * 4])
        with pytest.raises(BlobFormatError, match="data.npz is a damaged .npz archive"):
            load_trialset(path)


class TestMakeSplits:
    def test_subject_dependent_fold_arithmetic(self):
        """20 trials/class in session A, k=5: 4 val trials per class per
        fold, all 40 session-B trials as test."""
        spec = SynthSpec(n_subjects=1, trials_per_class_per_session=20,
                         duration=1.0, seed=9)
        ts = generate_synthetic(spec)
        plan = make_splits(ts, "subject_dependent", k=5, seed=1)
        assert len(plan.folds) == 5
        for f in plan.folds:
            assert len(f.test) == 40
            assert np.all(ts.session_ids[f.test] == 1)
            labels = ts.labels[f.val]
            assert (labels == 0).sum() == 4 and (labels == 1).sum() == 4
            assert len(f.train) == 32

    def test_subject_independent_is_loso(self):
        spec = SynthSpec(n_subjects=3, trials_per_class_per_session=5,
                         duration=1.0, seed=2)
        ts = generate_synthetic(spec)
        plan = make_splits(ts, "subject_independent", k=5, seed=1)
        held_out = sorted({f.subject for f in plan.folds})
        assert held_out == [0, 1, 2]
        for f in plan.folds:
            assert set(np.unique(ts.subject_ids[f.test])) == {f.subject}
            assert f.subject not in set(np.unique(ts.subject_ids[f.train]))
            assert f.subject not in set(np.unique(ts.subject_ids[f.val]))

    def test_partitions_disjoint(self):
        ts = generate_synthetic(SynthSpec(n_subjects=2, trials_per_class_per_session=10,
                                          duration=1.0, seed=6))
        for kind in ("subject_dependent", "subject_independent"):
            plan = make_splits(ts, kind, k=3, seed=5)
            for f in plan.folds:
                assert not set(f.train) & set(f.val)
                assert not (set(f.train) | set(f.val)) & set(f.test)

    def test_stratification_balanced_within_one(self):
        spec = SynthSpec(n_subjects=1, trials_per_class_per_session=13,
                         duration=1.0, seed=8)
        ts = generate_synthetic(spec)
        plan = make_splits(ts, "subject_dependent", k=5, seed=0)
        for cls in (0, 1):
            counts = [(ts.labels[f.val] == cls).sum() for f in plan.folds]
            assert max(counts) - min(counts) <= 1

    def test_determinism(self):
        ts = generate_synthetic(SMALL)
        a = make_splits(ts, "subject_dependent", k=3, seed=42)
        b = make_splits(ts, "subject_dependent", k=3, seed=42)
        for fa, fb in zip(a.folds, b.folds):
            assert np.array_equal(fa.train, fb.train)
            assert np.array_equal(fa.val, fb.val)

    def test_k_below_two_rejected(self):
        ts = generate_synthetic(SMALL)
        with pytest.raises(ValueError, match="k must be"):
            make_splits(ts, "subject_dependent", k=1, seed=0)

    def test_single_session_rejected(self):
        spec = SynthSpec(n_subjects=1, n_sessions=1, trials_per_class_per_session=10,
                         duration=1.0)
        ts = generate_synthetic(spec)
        with pytest.raises(ValueError, match="session"):
            make_splits(ts, "subject_dependent", k=2, seed=0)

    def test_single_subject_rejected_for_loso(self):
        spec = SynthSpec(n_subjects=1, trials_per_class_per_session=10, duration=1.0)
        ts = generate_synthetic(spec)
        with pytest.raises(ValueError, match="two subjects"):
            make_splits(ts, "subject_independent", k=2, seed=0)

    def test_overlapping_fold_rejected_by_plan(self):
        idx = np.arange(4)
        with pytest.raises(ValueError, match="overlapping"):
            SplitPlan(kind="subject_dependent", k=2, seed=0,
                      folds=(Fold(idx[:2], idx[1:3], idx[3:], 0, 0),))
