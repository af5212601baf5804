"""Fit/transform front end: shapes, leakage guards, oracle separability."""

import numpy as np
import pytest

from specblend.fbcsp import (
    SpectralSpatialTensor,
    fbcsp_fit,
    fbcsp_transform,
    fit_fingerprint,
    load_transform,
    save_transform,
    transform_batch,
)
from specblend.filterbank import apply_bank, make_filter_bank
from specblend.csp import csp_apply
from specblend.trialdata import SynthSpec, generate_synthetic, make_splits
from tests.support.oracle_classifier import oracle_fold_metrics
from tests.support.oracles import loop_bank


BANK = make_filter_bank(100.0)


def small_set(**kw):
    spec = SynthSpec(n_subjects=1, trials_per_class_per_session=8, duration=1.0, **kw)
    return generate_synthetic(spec)


class TestFit:
    def test_default_bank_u4_block_shapes(self):
        ts = small_set(seed=1)
        xf = fbcsp_fit(ts, BANK, u=4)
        assert len(xf.per_band_filters) == 9
        for w in xf.per_band_filters:
            assert w.shape == (8, 4)
        assert transform_batch(xf, ts).shape == (ts.n_trials, 1, ts.n_samples, 36)

    def test_fs_mismatch_rejected(self):
        with pytest.raises(ValueError, match="fs"):
            fbcsp_fit(small_set(seed=2), make_filter_bank(250.0), u=4)

    def test_u_grid_accepted(self):
        ts = generate_synthetic(
            SynthSpec(n_subjects=1, trials_per_class_per_session=6,
                      n_channels=10, duration=1.0, seed=2)
        )
        for u in (2, 4, 6, 8, 10):
            assert fbcsp_fit(ts, BANK, u).u == u

    def test_u_beyond_channels_rejected(self):
        ts = small_set(seed=3)
        with pytest.raises(ValueError, match="exceeds"):
            fbcsp_fit(ts, BANK, u=10)

    def test_single_class_rejected(self):
        ts = small_set(seed=4)
        onesided = ts.select(np.where(ts.labels == 0)[0])
        with pytest.raises(ValueError, match="2 classes"):
            fbcsp_fit(onesided, BANK, u=2)

    def test_determinism(self):
        ts = small_set(seed=5)
        a = fbcsp_fit(ts, BANK, u=4)
        b = fbcsp_fit(ts, BANK, u=4)
        assert a.fitted_on == b.fitted_on
        for wa, wb in zip(a.per_band_filters, b.per_band_filters):
            np.testing.assert_array_equal(wa, wb)

    def test_fingerprint_tracks_training_subset(self):
        """Different training subsets must not share a fingerprint, and
        the stored one must match a recomputation (leakage guard)."""
        ts = small_set(seed=6)
        plan = make_splits(ts, "subject_dependent", k=2, seed=0)
        f0, f1 = plan.folds[0], plan.folds[1]
        xf0 = fbcsp_fit(ts.select(f0.train), BANK, u=2)
        xf1 = fbcsp_fit(ts.select(f1.train), BANK, u=2)
        assert xf0.fitted_on != xf1.fitted_on
        assert xf0.fitted_on == fit_fingerprint(ts.select(f0.train), 2, BANK)


class TestTransform:
    def test_shape_u2(self):
        ts = generate_synthetic(
            SynthSpec(n_subjects=1, trials_per_class_per_session=4, seed=7)
        )
        xf = fbcsp_fit(ts, BANK, u=2)
        out = fbcsp_transform(xf, ts.signals[0].astype(np.float64))
        assert out.values.shape == (1, 400, 18)
        assert fbcsp_transform(xf, ts.signals[:3]).values.shape == (3, 1, 400, 18)

    def test_zero_trial_zero_tensor(self):
        ts = small_set(seed=8)
        xf = fbcsp_fit(ts, BANK, u=2)
        out = fbcsp_transform(xf, np.zeros((8, ts.n_samples)))
        assert np.all(out.values == 0.0)

    def test_matches_manual_composition(self):
        """Transform == filter-then-project done by hand, band-major."""
        ts = small_set(seed=9)
        xf = fbcsp_fit(ts, BANK, u=4)
        trial = ts.signals[3].astype(np.float64)
        out = fbcsp_transform(xf, trial).values
        banded = apply_bank(trial, BANK)
        for k, w in enumerate(xf.per_band_filters):
            manual = csp_apply(w, banded[k])
            np.testing.assert_allclose(
                out[0, :, k * 4 : (k + 1) * 4], manual.T, atol=1e-12
            )

    def test_batch_matches_loop_reference_bit_for_bit(self):
        """transform_batch == per-trial, per-band projection of bands
        filtered one channel at a time, band-major, exactly."""
        ts = small_set(seed=12)
        xf = fbcsp_fit(ts, BANK, u=4)
        batch = transform_batch(xf, ts)
        assert batch.shape == (ts.n_trials, 1, ts.n_samples, 36)
        ref = loop_bank(ts.signals, BANK)
        for i in range(ts.n_trials):
            for k, w in enumerate(xf.per_band_filters):
                assert np.array_equal(
                    batch[i, 0, :, k * 4 : (k + 1) * 4], csp_apply(w, ref[i, k]).T
                )

    def test_single_trial_equals_its_batch_row(self):
        ts = small_set(seed=13)
        xf = fbcsp_fit(ts, BANK, u=4)
        batch = transform_batch(xf, ts)
        for i in (0, 5, ts.n_trials - 1):
            assert np.array_equal(fbcsp_transform(xf, ts.signals[i]).values, batch[i])

    def test_dim_mismatch_rejected(self):
        ts = small_set(seed=10)
        xf = fbcsp_fit(ts, BANK, u=2)
        with pytest.raises(ValueError, match="channels"):
            fbcsp_transform(xf, np.zeros((5, ts.n_samples)))
        with pytest.raises(ValueError, match="channels"):
            fbcsp_transform(xf, np.zeros((3, 5, ts.n_samples)))
        with pytest.raises(ValueError, match="channels"):
            fbcsp_transform(xf, np.zeros((2, 3, 8, ts.n_samples)))

    def test_tensor_shapes_with_leading_axes(self):
        assert SpectralSpatialTensor(np.zeros((1, 100, 4))).values.shape == (1, 100, 4)
        assert SpectralSpatialTensor(np.zeros((3, 1, 100, 4))).values.shape == (3, 1, 100, 4)
        for bad in (np.zeros((100, 4)), np.zeros((3, 2, 100, 4))):
            with pytest.raises(ValueError, match="expected shape"):
                SpectralSpatialTensor(bad)
        stack = np.zeros((3, 1, 100, 4))
        stack[2, 0, 50, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            SpectralSpatialTensor(stack)


class TestSerialization:
    def test_round_trip(self, tmp_path):
        ts = small_set(seed=11)
        xf = fbcsp_fit(ts, BANK, u=4)
        path = tmp_path / "transform.json"
        save_transform(xf, path)
        back = load_transform(path)
        assert back.u == xf.u
        assert back.fitted_on == xf.fitted_on
        assert back.bank.bands == xf.bank.bands
        for wa, wb in zip(xf.per_band_filters, back.per_band_filters):
            np.testing.assert_allclose(wa, wb, rtol=1e-6)  # float32 storage


class TestOracleSeparability:
    def test_log_variance_discriminant_beats_90_percent(self):
        """The classical pipeline must already separate the synthetic
        classes on a held-out session; this pins the bar the network is
        later held to."""
        ts = generate_synthetic(SynthSpec())  # default: 2 subjects, 50/class/session
        accs = []
        for subj in (0, 1):
            mask = ts.subject_ids == subj
            train = np.where(mask & (ts.session_ids == 0))[0]
            test = np.where(mask & (ts.session_ids == 1))[0]
            acc, auc = oracle_fold_metrics(ts, train, test, BANK, u=4)
            accs.append(acc)
            assert auc >= 0.95
        assert np.mean(accs) >= 0.90
