"""Blend arithmetic: tangents, G/O measures, warm-up, worked examples."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specblend import blend
from specblend.blend import (
    BlendState,
    MissingReferenceError,
    TaskReference,
    compute_G,
    compute_O,
    line_fit_slope,
    moving_average,
    smoothed_tangent,
    update_weights,
)
from tests.support.oracles import loop_moving_average, recompute_update_weights


def linear_losses(slopes, n, offset=10.0):
    """Per-task (train, val) losses at checkpoint ``n`` of exact linear
    tracks: slopes[m] = (train_slope, val_slope)."""
    return ([offset + s_train * n for s_train, _ in slopes],
            [offset + s_val * n for _, s_val in slopes])


def linear_state(slopes, n_points, **kw):
    """A blend state holding checkpoints 1..n_points of linear tracks,
    recorded without any weight update."""
    state = BlendState(n_tasks=len(slopes), **kw)
    for n in range(1, n_points + 1):
        state.record(n, *linear_losses(slopes, n))
    return state


def noisy_losses(rng, n_tasks, n, train_scale=2.0, val_scale=2.5, noise=0.05):
    """Loss-like decaying (train, val) pairs with Gaussian noise."""
    return ([train_scale / n + noise * rng.standard_normal() for _ in range(n_tasks)],
            [val_scale / n + noise * rng.standard_normal() for _ in range(n_tasks)])


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
        state = BlendState(n_tasks=3, warmup=2, window=2)
        state.record(1, (0.9, 0.5, 0.3), (1.0, 0.7, 0.4))
        state.record(2, (0.8, 0.4, 0.2), (0.9, 0.6, 0.3))
        assert state.checkpoints == [1, 2]
        assert state.train[1] == [0.5, 0.4]
        assert state.val[1] == [0.7, 0.6]
        assert state.train[0] == [0.9, 0.8]  # tasks independent

    def test_duplicate_checkpoint_rejected(self):
        state = BlendState(n_tasks=1, warmup=2, window=2)
        state.record(1, [0.5], [0.5])
        with pytest.raises(ValueError, match="beyond"):
            state.record(1, [0.4], [0.4])

    def test_non_finite_rejected(self):
        state = BlendState(n_tasks=1, warmup=2, window=2)
        with pytest.raises(ValueError, match="finite"):
            state.record(1, [np.nan], [0.5])

    def test_one_loss_per_task(self):
        state = BlendState(n_tasks=3, warmup=2, window=2)
        with pytest.raises(ValueError, match="for 3 tasks"):
            state.record(1, [0.5, 0.5], [0.5, 0.5, 0.5])
        assert state.checkpoints == []

    def test_update_rejects_an_old_checkpoint(self):
        """``update_weights`` records first, so a repeated checkpoint
        raises before the weights or references move."""
        state = BlendState(n_tasks=2, warmup=3, window=2)
        for n in (1, 2, 3):
            update_weights(state, n, *linear_losses([(-1.0, -0.5), (-1.0, 0.5)], n))
        weights, refs = state.weights.copy(), list(state.refs)
        with pytest.raises(ValueError, match="beyond"):
            update_weights(state, 3, [1.0, 1.0], [1.0, 1.0])
        np.testing.assert_array_equal(state.weights, weights)
        assert state.refs == refs


REF = TaskReference(n0=1, tan_train=-1.0, tan_val=-1.0)


class TestGAndO:
    def test_worked_pair_one(self):
        """Reference tangents (-1, -1); now val -0.5, train -1:
        G = 0.5, O = 0.5."""
        state = linear_state([(-1.0, -0.5), (-1.0, 0.5)], 3, warmup=2, window=2)
        tan_train, tan_val = state.tangents(0)
        assert compute_G(REF, tan_val) == pytest.approx(0.5, abs=1e-12)
        o = compute_O(REF, tan_train, tan_val, state.eps)
        assert o == pytest.approx(0.5, abs=1e-12)

    def test_worked_pair_two(self):
        """Now val +0.5, train -1: G = 1.5, O = 1.5."""
        state = linear_state([(-1.0, -0.5), (-1.0, 0.5)], 3, warmup=2, window=2)
        tan_train, tan_val = state.tangents(1)
        assert compute_G(REF, tan_val) == pytest.approx(1.5, abs=1e-12)
        o = compute_O(REF, tan_train, tan_val, state.eps)
        assert o == pytest.approx(1.5, abs=1e-12)

    def test_reference_identity_floors(self):
        """Same tangents as the reference: G 0, O floored at eps."""
        state = linear_state([(-1.0, -1.0), (-1.0, -1.0)], 3, warmup=2, window=2)
        tan_train, tan_val = state.tangents(0)
        assert compute_G(REF, tan_val) == 0.0
        assert compute_O(REF, tan_train, tan_val, state.eps) == state.eps

    def test_missing_reference_raises(self):
        """Checkpoints recorded but never blended: the first update past
        the warm-up finds no reference."""
        state = linear_state([(-1.0, -1.0)], 2, warmup=2, window=2)
        with pytest.raises(MissingReferenceError):
            update_weights(state, 3, *linear_losses([(-1.0, -1.0)], 3))


class TestUpdateWeights:
    def test_warmup_uniform_and_reference_dragged(self):
        state = BlendState(n_tasks=3, warmup=4, window=2)
        for n in (1, 2, 3):
            w = update_weights(state, n, *linear_losses([(-1.0, -0.5)] * 3, n))
            np.testing.assert_array_equal(w, np.full(3, 1.0 / 3.0))
        assert all(r.n0 == 3 for r in state.refs)
        assert all(r.usable for r in state.refs)

    def test_two_task_worked_example(self):
        """G/O pairs (0.5, 0.5) and (1.5, 1.5) with squared exponent:
        raw (2.0, 2/3), normalized (0.75, 0.25)."""
        slopes = [(-1.0, -0.5), (-1.0, 0.5)]
        state = linear_state(slopes, 2, warmup=2, window=2)
        state.refs = [REF, REF]
        w = update_weights(state, 3, *linear_losses(slopes, 3))
        assert abs(w[0] - 0.75) <= 1e-12
        assert abs(w[1] - 0.25) <= 1e-12

    def test_exponent_one_variant(self):
        """Same curves under G/O instead of G/O^2: raw (1, 1) so the
        weights even out."""
        slopes = [(-1.0, -0.5), (-1.0, 0.5)]
        state = linear_state(slopes, 2, warmup=2, window=2, exponent=1.0)
        state.refs = [REF, REF]
        w = update_weights(state, 3, *linear_losses(slopes, 3))
        np.testing.assert_allclose(w, [0.5, 0.5], atol=1e-12)

    def test_identical_tasks_stay_uniform(self):
        state = BlendState(n_tasks=3, warmup=3, window=2)
        for n in range(1, 7):
            w = update_weights(state, n, *linear_losses([(-1.0, -0.5)] * 3, n))
        np.testing.assert_allclose(w, 1.0 / 3.0, atol=1e-12)
        np.testing.assert_allclose(w.sum(), 1.0, atol=1e-12)

    def test_all_stalled_keeps_previous_weights(self):
        """Every G floored to zero: previous weights persist."""
        slopes = [(-1.0, -0.5), (-1.0, -0.5)]
        state = linear_state(slopes, 2, warmup=2, window=2)
        state.refs = [TaskReference(n0=1, tan_train=0.0, tan_val=5.0)] * 2
        state.weights = np.array([0.9, 0.1])
        w = update_weights(state, 3, *linear_losses(slopes, 3))
        np.testing.assert_array_equal(w, [0.9, 0.1])

    def test_post_warmup_weights_sum_to_one(self):
        rng = np.random.default_rng(0)
        state = BlendState(n_tasks=3, warmup=4, window=3)
        for n in range(1, 13):
            w = update_weights(state, n, *noisy_losses(rng, 3, n))
            assert np.all(w >= 0.0)
            assert abs(w.sum() - 1.0) <= 1e-12

    def test_reference_tangent_non_increasing(self):
        """From the final warm-up reference onward, the tracked best
        validation tangent never goes back up.  (During warm-up itself
        the reference is dragged along unconditionally.)"""
        rng = np.random.default_rng(1)
        state = BlendState(n_tasks=3, warmup=4, window=3)
        history = [[] for _ in range(3)]
        for n in range(1, 20):
            update_weights(state, n, *noisy_losses(rng, 3, n, 1.0, 1.5, 0.1))
            if n >= state.warmup - 1:
                for m in range(3):
                    history[m].append(state.refs[m].tan_val)
        for m in range(3):
            diffs = np.diff(history[m])
            assert np.all(diffs <= 1e-15)

    def test_overfit_damping_direction(self):
        """With G fixed, a larger O must shrink the unnormalized weight."""
        raws = []
        for extra_gap in (0.5, 1.5):
            # same val improvement, train tangent sinking -> bigger gap
            state = linear_state([(-1.0 - extra_gap + 0.5, -0.5), (-1.0, 0.5)], 3,
                                 warmup=2, window=2)
            tan_train, tan_val = state.tangents(0)
            g = compute_G(REF, tan_val)
            o = compute_O(REF, tan_train, tan_val, state.eps)
            raws.append(g / o**2)
            assert g == pytest.approx(0.5, abs=1e-12)
        assert raws[1] < raws[0]

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_property_matches_the_cut_curve_oracle(self, data):
        """At every checkpoint of a curve with gaps in its indices, the
        streaming update equals the same rule refit on the whole curve
        cut there: the same weights bit for bit and equal references,
        or the same MissingReferenceError."""
        n_tasks = data.draw(st.integers(1, 4), label="n_tasks")
        warmup = data.draw(st.integers(2, 8), label="warmup")
        window = data.draw(st.integers(2, warmup), label="window")
        exponent = data.draw(st.sampled_from([0.5, 1.0, 2.0, 3.0]), label="exponent")
        first = data.draw(st.integers(0, 3), label="first")
        gaps = data.draw(st.lists(st.integers(1, 3), min_size=0, max_size=24),
                         label="gaps")
        checkpoints = [first]
        for gap in gaps:
            checkpoints.append(checkpoints[-1] + gap)
        size = 2 * n_tasks * len(checkpoints)
        flat = data.draw(st.lists(st.floats(0.05, 5.0), min_size=size, max_size=size),
                         label="losses")
        losses = np.array(flat).reshape(len(checkpoints), 2, n_tasks)
        curves = [(checkpoints, losses[:, 0, m].tolist(), losses[:, 1, m].tolist())
                  for m in range(n_tasks)]

        settings_ = dict(n_tasks=n_tasks, warmup=warmup, window=window, exponent=exponent)
        streaming, oracle = BlendState(**settings_), BlendState(**settings_)
        for i, n in enumerate(checkpoints):
            try:
                expected = recompute_update_weights(oracle, curves, n)
            except MissingReferenceError:
                with pytest.raises(MissingReferenceError):
                    update_weights(streaming, n, losses[i, 0], losses[i, 1])
                return
            got = update_weights(streaming, n, losses[i, 0], losses[i, 1])
            assert np.array_equal(got, expected)
            assert streaming.refs == oracle.refs

    def test_one_tangent_pair_per_task_per_update(self, monkeypatch):
        """A post-warm-up update fits each task's train and validation
        tangent once: 2 * n_tasks line fits."""
        rng = np.random.default_rng(3)
        state = BlendState(n_tasks=3, warmup=4, window=3)
        for n in range(1, 40):
            update_weights(state, n, *noisy_losses(rng, 3, n))
        calls = []

        def counted(*args):
            calls.append(args)
            return smoothed_tangent(*args)

        monkeypatch.setattr(blend, "smoothed_tangent", counted)
        update_weights(state, 40, *noisy_losses(rng, 3, 40))
        assert len(calls) == 2 * 3

    def test_window_must_fit_in_warmup(self):
        with pytest.raises(ValueError, match="window"):
            BlendState(n_tasks=3, warmup=2, window=3)
