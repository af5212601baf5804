"""CSP eigensystem checks, cross-validated against a Jacobi oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specblend.csp import (
    ClassCovariance,
    class_covariance,
    csp_apply,
    csp_fit,
)
from specblend.filterbank import design_bandpass, zero_phase_filter
from specblend.trialdata import SynthSpec, generate_synthetic
from tests.support.oracles import jacobi_eigh


def random_unit_trace_spd(rng, n):
    """Random SPD matrix scaled to trace 1."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    vals = rng.uniform(0.1, 10.0, size=n)
    m = (q * vals) @ q.T
    m = 0.5 * (m + m.T)
    return m / np.trace(m)


class TestClassCovariance:
    def test_orthogonal_equal_norm_rows_give_scaled_identity(self):
        """E with orthonormal-direction rows of equal norm: EE^T is a
        multiple of I, so the normalized covariance is I/N_c."""
        q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((6, 6)))
        e = 3.0 * q[:, :4].T  # 4 orthogonal rows of equal norm, length 6
        cov = class_covariance([e], class_label=0)
        np.testing.assert_allclose(cov.sigma, np.eye(4) / 4, atol=1e-12)

    def test_unit_trace(self):
        rng = np.random.default_rng(1)
        trials = rng.standard_normal((5, 8, 50))
        cov = class_covariance(trials, 1)
        assert abs(np.trace(cov.sigma) - 1.0) <= 1e-12

    def test_mean_of_per_trial_covariances(self):
        rng = np.random.default_rng(2)
        a, b = rng.standard_normal((2, 4, 30))
        cov = class_covariance([a, b], 0)
        expected = 0.5 * (
            a @ a.T / np.trace(a @ a.T) + b @ b.T / np.trace(b @ b.T)
        )
        np.testing.assert_allclose(cov.sigma, expected, atol=1e-14)

    def test_zero_trial_rejected(self):
        with pytest.raises(ValueError, match="zero energy"):
            class_covariance([np.zeros((4, 10))], 0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no trials"):
            class_covariance([], 0)


class TestCspFit:
    def test_diagonal_toy_case(self):
        """diag(0.75,0.25) vs diag(0.25,0.75): eigvals are exactly the
        diagonal of sigma1 and filters stay axis-aligned."""
        s1 = ClassCovariance(np.diag([0.75, 0.25]), 0, 1)
        s2 = ClassCovariance(np.diag([0.25, 0.75]), 1, 1)
        sol = csp_fit(s1, s2, u=2)
        np.testing.assert_allclose(sol.eigvals, [0.75, 0.25], atol=1e-12)
        np.testing.assert_allclose(
            sol.w_full.T @ (s1.sigma + s2.sigma) @ sol.w_full, np.eye(2), atol=1e-12
        )
        np.testing.assert_allclose(np.abs(sol.w_full), np.eye(2), atol=1e-12)

    def test_equal_covariances_flat_spectrum(self):
        s = random_unit_trace_spd(np.random.default_rng(3), 5)
        sol = csp_fit(ClassCovariance(s, 0, 1), ClassCovariance(s, 1, 1), u=4)
        np.testing.assert_allclose(sol.eigvals, 0.5, atol=1e-10)

    def test_diagonalization_against_jacobi_oracle(self):
        """The whitened-problem eigenvalues must match an independent
        Jacobi eigensolver route on random 6x6 SPD pairs."""
        rng = np.random.default_rng(4)
        for _ in range(20):
            s1 = random_unit_trace_spd(rng, 6)
            s2 = random_unit_trace_spd(rng, 6)
            sol = csp_fit(s1, s2, u=4)

            comp_vals, comp_vecs = jacobi_eigh(s1 + s2)
            whitener = comp_vecs / np.sqrt(comp_vals)
            lam_oracle, _ = jacobi_eigh(whitener.T @ s1 @ whitener)
            np.testing.assert_allclose(
                sol.eigvals, lam_oracle[::-1], atol=1e-10
            )
            # simultaneous diagonalization with co-spectra summing to I
            d1 = sol.w_full.T @ s1 @ sol.w_full
            d2 = sol.w_full.T @ s2 @ sol.w_full
            np.testing.assert_allclose(d1 + d2, np.eye(6), atol=1e-8)
            assert np.abs(d1 - np.diag(np.diag(d1))).max() < 1e-8

    def test_eigenvalue_pairing_under_class_swap(self):
        rng = np.random.default_rng(5)
        s1 = random_unit_trace_spd(rng, 7)
        s2 = random_unit_trace_spd(rng, 7)
        a = csp_fit(s1, s2, u=2)
        b = csp_fit(s2, s1, u=2)
        np.testing.assert_allclose(a.eigvals, (1.0 - b.eigvals)[::-1], atol=1e-10)

    def test_selected_columns_are_spectrum_ends(self):
        rng = np.random.default_rng(6)
        s1 = random_unit_trace_spd(rng, 8)
        s2 = random_unit_trace_spd(rng, 8)
        sol = csp_fit(s1, s2, u=4)
        np.testing.assert_array_equal(sol.w_selected[:, :2], sol.w_full[:, :2])
        np.testing.assert_array_equal(sol.w_selected[:, 2:], sol.w_full[:, -2:])

    def test_odd_u_rejected(self):
        rng = np.random.default_rng(7)
        s1 = random_unit_trace_spd(rng, 4)
        s2 = random_unit_trace_spd(rng, 4)
        with pytest.raises(ValueError, match="even"):
            csp_fit(s1, s2, u=3)

    def test_u_exceeding_channels_rejected(self):
        rng = np.random.default_rng(8)
        s1 = random_unit_trace_spd(rng, 4)
        s2 = random_unit_trace_spd(rng, 4)
        with pytest.raises(ValueError, match="exceeds"):
            csp_fit(s1, s2, u=6)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), n=st.integers(2, 10))
    def test_property_eigvals_bounded_and_paired(self, seed, n):
        """Generalized eigenvalues live in [0,1] and pair with their
        complement under class swap, any dimension up to 10."""
        rng = np.random.default_rng(seed)
        s1 = random_unit_trace_spd(rng, n)
        s2 = random_unit_trace_spd(rng, n)
        u = 2 * max(1, n // 2)
        u = min(u, n if n % 2 == 0 else n - 1)
        sol = csp_fit(s1, s2, u=u)
        assert np.all(sol.eigvals >= -1e-10)
        assert np.all(sol.eigvals <= 1.0 + 1e-10)
        assert np.all(np.diff(sol.eigvals) <= 1e-12)

    def test_scale_invariance(self):
        """Scaling every trial by a constant leaves the filters alone;
        trace normalization wipes the scale out."""
        rng = np.random.default_rng(9)
        t0 = rng.standard_normal((6, 5, 40))
        t1 = rng.standard_normal((6, 5, 40))
        sol_a = csp_fit(class_covariance(t0, 0), class_covariance(t1, 1), 4)
        sol_b = csp_fit(
            class_covariance(250.0 * t0, 0), class_covariance(250.0 * t1, 1), 4
        )
        np.testing.assert_allclose(sol_a.w_selected, sol_b.w_selected, atol=1e-9)


class TestCspApply:
    def test_identity_columns_select_rows(self):
        w = np.eye(5)[:, [0, 3]]
        block = np.random.default_rng(10).standard_normal((5, 20))
        np.testing.assert_array_equal(csp_apply(w, block), block[[0, 3]])

    def test_zero_trial(self):
        w = np.random.default_rng(11).standard_normal((4, 2))
        assert np.all(csp_apply(w, np.zeros((4, 9))) == 0.0)

    def test_stacked_blocks_project_one_by_one(self):
        rng = np.random.default_rng(12)
        w = rng.standard_normal((5, 2))
        stack = rng.standard_normal((3, 4, 5, 20))
        out = csp_apply(w, stack)
        assert out.shape == (3, 4, 2, 20)
        for i in range(3):
            for j in range(4):
                assert np.array_equal(out[i, j], csp_apply(w, stack[i, j]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="incompatible"):
            csp_apply(np.zeros((4, 2)), np.zeros((5, 9)))
        with pytest.raises(ValueError, match="incompatible"):
            csp_apply(np.zeros((4, 2)), np.zeros((3, 5, 9)))
        with pytest.raises(ValueError, match="incompatible"):
            csp_apply(np.zeros((4, 2)), np.zeros(4))

    def test_heldout_variance_ordering(self):
        """Fit on session 0, project session 1: the first component's
        variance separates the classes in >= 90% of cross-class pairs."""
        spec = SynthSpec(n_subjects=1, trials_per_class_per_session=30, seed=21)
        ts = generate_synthetic(spec)
        design = design_bandpass(8, 12, 5, spec.fs)

        def banded(idx):
            return [
                np.stack([zero_phase_filter(ch, design) for ch in ts.signals[i].astype(np.float64)])
                for i in idx
            ]

        fit_mask = ts.session_ids == 0
        c0 = class_covariance(banded(np.where(fit_mask & (ts.labels == 0))[0]), 0)
        c1 = class_covariance(banded(np.where(fit_mask & (ts.labels == 1))[0]), 1)
        sol = csp_fit(c0, c1, u=4)

        held = ts.session_ids == 1
        var0 = [
            csp_apply(sol.w_selected, b)[0].var()
            for b in banded(np.where(held & (ts.labels == 0))[0])
        ]
        var1 = [
            csp_apply(sol.w_selected, b)[0].var()
            for b in banded(np.where(held & (ts.labels == 1))[0])
        ]
        wins = sum(a > b for a in var0 for b in var1)
        assert wins / (len(var0) * len(var1)) >= 0.90
