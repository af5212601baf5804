"""Blend arithmetic: tangents, G/O measures, warm-up, worked examples."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specblend.blend import (
    BlendState,
    LossCurve,
    LossCurves,
    MissingReferenceError,
    TaskReference,
    compute_G,
    compute_O,
    export_curves_csv,
    line_fit_slope,
    moving_average,
    record_checkpoint,
    smoothed_tangent,
    update_weights,
)
from tests.support.oracles import loop_moving_average


def linear_curves(n_tasks, slopes, n_points, offset=10.0):
    """Curves with exact linear train/val tracks per task:
    slopes[m] = (train_slope, val_slope)."""
    curves = LossCurves(n_tasks)
    for m, (s_train, s_val) in enumerate(slopes):
        for n in range(1, n_points + 1):
            record_checkpoint(curves, m, n, offset + s_train * n, offset + s_val * n)
    return curves


class TestLineFit:
    def test_descending_unit_slope(self):
        assert line_fit_slope([3.0, 2.0, 1.0], [1, 2, 3]) == pytest.approx(-1.0, abs=1e-12)

    def test_constant_zero_slope(self):
        assert line_fit_slope([4.0, 4.0, 4.0], [1, 2, 3]) == pytest.approx(0.0, abs=1e-12)

    def test_ascending_unit_slope(self):
        assert line_fit_slope([1.0, 2.0, 3.0], [1, 2, 3]) == pytest.approx(1.0, abs=1e-12)

    def test_single_point_rejected(self):
        with pytest.raises(ValueError, match="2 points"):
            line_fit_slope([1.0], [1])


class TestMovingAverage:
    def test_trailing_partial_windows(self):
        out = moving_average([2.0, 4.0, 6.0, 8.0], window=3)
        np.testing.assert_allclose(out, [2.0, 3.0, 4.0, 6.0])

    def test_window_one_is_identity(self):
        v = np.array([3.0, 1.0, 4.0])
        np.testing.assert_array_equal(moving_average(v, 1), v)

    def test_linear_curve_slope_preserved_on_full_windows(self):
        """Once windows fill, the average of a linear curve is the same
        line shifted; the fitted slope is unchanged."""
        idx = np.arange(1, 9, dtype=float)
        sm = moving_average(2.0 - 0.5 * idx, window=2)
        assert line_fit_slope(sm[-3:], idx[-3:]) == pytest.approx(-0.5, abs=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(values=st.lists(st.floats(0.5, 5.0), min_size=0, max_size=60),
           window=st.integers(1, 6))
    def test_property_matches_index_loop(self, values, window):
        """The cumulative-sum windows equal the per-index means on
        loss-like curves."""
        np.testing.assert_allclose(
            moving_average(values, window), loop_moving_average(values, window),
            rtol=1e-12,
        )


class TestCurveRecording:
    def test_append_read_back(self):
        curves = LossCurves(3)
        record_checkpoint(curves, 1, 1, 0.5, 0.7)
        record_checkpoint(curves, 1, 2, 0.4, 0.6)
        assert curves[1].checkpoints == [1, 2]
        assert curves[1].train == [0.5, 0.4]
        assert curves[1].val == [0.7, 0.6]
        assert len(curves[0]) == 0  # tasks independent

    def test_duplicate_checkpoint_rejected(self):
        curve = LossCurve()
        curve.append(1, 0.5, 0.5)
        with pytest.raises(ValueError, match="beyond"):
            curve.append(1, 0.4, 0.4)

    def test_non_finite_rejected(self):
        curve = LossCurve()
        with pytest.raises(ValueError, match="finite"):
            curve.append(1, np.nan, 0.5)


class TestGAndO:
    def make_state_with_refs(self, n_tasks=2, window=2):
        state = BlendState(n_tasks=n_tasks, warmup=2, window=window)
        for m in range(n_tasks):
            state.refs[m] = TaskReference(n0=1, tan_train=-1.0, tan_val=-1.0)
        return state

    def test_worked_pair_one(self):
        """Reference tangents (-1, -1); now val -0.5, train -1:
        G = 0.5, O = 0.5."""
        state = self.make_state_with_refs()
        curves = linear_curves(2, [(-1.0, -0.5), (-1.0, 0.5)], n_points=3)
        assert compute_G(state, 0, curves, 3) == pytest.approx(0.5, abs=1e-12)
        assert compute_O(state, 0, curves, 3) == pytest.approx(0.5, abs=1e-12)

    def test_worked_pair_two(self):
        """Now val +0.5, train -1: G = 1.5, O = 1.5."""
        state = self.make_state_with_refs()
        curves = linear_curves(2, [(-1.0, -0.5), (-1.0, 0.5)], n_points=3)
        assert compute_G(state, 1, curves, 3) == pytest.approx(1.5, abs=1e-12)
        assert compute_O(state, 1, curves, 3) == pytest.approx(1.5, abs=1e-12)

    def test_reference_identity_floors(self):
        """Same tangents as the reference: G 0, O floored at eps."""
        state = self.make_state_with_refs()
        curves = linear_curves(2, [(-1.0, -1.0), (-1.0, -1.0)], n_points=3)
        assert compute_G(state, 0, curves, 3) == 0.0
        assert compute_O(state, 0, curves, 3) == state.eps

    def test_missing_reference_raises(self):
        state = BlendState(n_tasks=1, warmup=2, window=2)
        curves = linear_curves(1, [(-1.0, -1.0)], n_points=3)
        with pytest.raises(MissingReferenceError):
            compute_G(state, 0, curves, 3)


class TestUpdateWeights:
    def test_warmup_uniform_and_reference_dragged(self):
        state = BlendState(n_tasks=3, warmup=4, window=2)
        curves = linear_curves(3, [(-1.0, -0.5)] * 3, n_points=3)
        for n in (1, 2, 3):
            w = update_weights(state, curves, n)
            np.testing.assert_array_equal(w, np.full(3, 1.0 / 3.0))
        assert all(r.n0 == 3 for r in state.refs)
        assert all(r.usable for r in state.refs)

    def test_two_task_worked_example(self):
        """G/O pairs (0.5, 0.5) and (1.5, 1.5) with squared exponent:
        raw (2.0, 2/3), normalized (0.75, 0.25)."""
        state = BlendState(n_tasks=2, warmup=2, window=2)
        for m in range(2):
            state.refs[m] = TaskReference(n0=1, tan_train=-1.0, tan_val=-1.0)
        curves = linear_curves(2, [(-1.0, -0.5), (-1.0, 0.5)], n_points=3)
        w = update_weights(state, curves, 3)
        assert abs(w[0] - 0.75) <= 1e-12
        assert abs(w[1] - 0.25) <= 1e-12

    def test_exponent_one_variant(self):
        """Same curves under G/O instead of G/O^2: raw (1, 1) so the
        weights even out."""
        state = BlendState(n_tasks=2, warmup=2, window=2, exponent=1.0)
        for m in range(2):
            state.refs[m] = TaskReference(n0=1, tan_train=-1.0, tan_val=-1.0)
        curves = linear_curves(2, [(-1.0, -0.5), (-1.0, 0.5)], n_points=3)
        w = update_weights(state, curves, 3)
        np.testing.assert_allclose(w, [0.5, 0.5], atol=1e-12)

    def test_identical_tasks_stay_uniform(self):
        state = BlendState(n_tasks=3, warmup=3, window=2)
        curves = linear_curves(3, [(-1.0, -0.5)] * 3, n_points=6)
        for n in range(1, 7):
            w = update_weights(state, curves, n)
        np.testing.assert_allclose(w, 1.0 / 3.0, atol=1e-12)
        np.testing.assert_allclose(w.sum(), 1.0, atol=1e-12)

    def test_all_stalled_keeps_previous_weights(self):
        """Every G floored to zero: previous weights persist."""
        state = BlendState(n_tasks=2, warmup=2, window=2)
        for m in range(2):
            state.refs[m] = TaskReference(n0=1, tan_train=0.0, tan_val=5.0)
        curves = linear_curves(2, [(-1.0, -0.5), (-1.0, -0.5)], n_points=3)
        state.weights = np.array([0.9, 0.1])
        w = update_weights(state, curves, 3)
        np.testing.assert_array_equal(w, [0.9, 0.1])

    def test_post_warmup_weights_sum_to_one(self):
        rng = np.random.default_rng(0)
        state = BlendState(n_tasks=3, warmup=4, window=3)
        curves = LossCurves(3)
        for n in range(1, 13):
            for m in range(3):
                record_checkpoint(
                    curves, m, n,
                    2.0 / n + 0.05 * rng.standard_normal(),
                    2.5 / n + 0.05 * rng.standard_normal(),
                )
            w = update_weights(state, curves, n)
            assert np.all(w >= 0.0)
            assert abs(w.sum() - 1.0) <= 1e-12

    def test_reference_tangent_non_increasing(self):
        """From the final warm-up reference onward, the tracked best
        validation tangent never goes back up.  (During warm-up itself
        the reference is dragged along unconditionally.)"""
        rng = np.random.default_rng(1)
        state = BlendState(n_tasks=3, warmup=4, window=3)
        curves = LossCurves(3)
        history = [[] for _ in range(3)]
        for n in range(1, 20):
            for m in range(3):
                record_checkpoint(
                    curves, m, n,
                    1.0 / n + 0.1 * rng.standard_normal(),
                    1.5 / n + 0.1 * rng.standard_normal(),
                )
            update_weights(state, curves, n)
            if n >= state.warmup - 1:
                for m in range(3):
                    history[m].append(state.refs[m].tan_val)
        for m in range(3):
            diffs = np.diff(history[m])
            assert np.all(diffs <= 1e-15)

    def test_overfit_damping_direction(self):
        """With G fixed, a larger O must shrink the unnormalized weight."""
        state = BlendState(n_tasks=2, warmup=2, window=2)
        for m in range(2):
            state.refs[m] = TaskReference(n0=1, tan_train=-1.0, tan_val=-1.0)
        raws = []
        for extra_gap in (0.5, 1.5):
            # same val improvement, train tangent sinking -> bigger gap
            curves = linear_curves(
                2, [(-1.0 - extra_gap + 0.5, -0.5), (-1.0, 0.5)], n_points=3
            )
            g = compute_G(state, 0, curves, 3)
            o = compute_O(state, 0, curves, 3)
            raws.append(g / o**2)
            assert g == pytest.approx(0.5, abs=1e-12)
        assert raws[1] < raws[0]

    def test_later_checkpoints_are_invisible(self):
        """Updating at a middle checkpoint of a long curve gives the same
        weights and references as updating on the curve cut there."""
        rng = np.random.default_rng(2)
        checkpoints = np.cumsum(rng.integers(1, 4, size=30))
        full, cut = LossCurves(3), LossCurves(3)
        mid = checkpoints[17]
        for n in checkpoints:
            for m in range(3):
                pair = (1.0 / n + 0.1 * rng.standard_normal(),
                        1.5 / n + 0.1 * rng.standard_normal())
                record_checkpoint(full, m, n, *pair)
                if n <= mid:
                    record_checkpoint(cut, m, n, *pair)
        on_full = BlendState(n_tasks=3, warmup=8, window=3)
        on_cut = BlendState(n_tasks=3, warmup=8, window=3)
        for n in checkpoints[checkpoints <= mid]:
            np.testing.assert_array_equal(update_weights(on_full, full, n),
                                          update_weights(on_cut, cut, n))
            assert on_full.refs == on_cut.refs
        assert not np.allclose(on_full.weights, 1.0 / 3.0)

    def test_window_must_fit_in_warmup(self):
        with pytest.raises(ValueError, match="window"):
            BlendState(n_tasks=3, warmup=2, window=3)


class TestExport:
    def test_csv_round_trip(self, tmp_path):
        curves = linear_curves(3, [(-1.0, -0.5)] * 3, n_points=2)
        history = {1: np.full(3, 1 / 3), 2: np.array([0.5, 0.25, 0.25])}
        path = tmp_path / "curves.csv"
        export_curves_csv(curves, history, path, config_hash="abc123")
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "# config_hash=abc123"
        assert lines[1] == "checkpoint,task,train_loss,val_loss,weight"
        assert len(lines) == 2 + 3 * 2
        first = lines[2].split(",")
        assert first[0] == "1" and first[1] == "0"
        assert float(first[4]) == pytest.approx(1 / 3)
