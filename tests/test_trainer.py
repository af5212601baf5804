"""Trainer tests: Adam arithmetic, the plateau/early-stop controller,
batch planning, and short end-to-end loops on a tiny separable toy set.
"""

import numpy as np
import pytest

from specblend import trainer
from specblend.losses import weighted_total
from specblend.model import ModelDims, MultiTaskAE
from specblend.trainer import (
    Adam,
    PlateauController,
    TrainConfig,
    epoch_plan,
    load_model_state,
    save_model_state,
    train,
    write_train_log_csv,
)

TOY_DIMS = ModelDims(t=100, u=2, n_bands=2, latent=5)


def toy_data(n_per_class, noise=0.1, seed=0, t=100):
    """Two strongly separable waveform classes on 4 channels."""
    rng = np.random.default_rng(seed)
    tau = np.arange(t) / 100.0
    scales0 = np.array([1.0, 0.8, 0.6, 0.4])
    scales1 = scales0[::-1]
    p0 = np.outer(np.sin(2 * np.pi * 3.0 * tau), scales0)
    p1 = np.outer(np.sin(2 * np.pi * 7.0 * tau), scales1)
    xs, ys = [], []
    for cls, pattern in enumerate((p0, p1)):
        for _ in range(n_per_class):
            xs.append(pattern + noise * rng.standard_normal((t, 4)))
            ys.append(cls)
    order = rng.permutation(len(xs))
    x = np.stack(xs)[order][:, np.newaxis, :, :]
    y = np.asarray(ys, dtype=np.int64)[order]
    return x, y


def quick_config(**kw):
    base = dict(batch_size=8, max_epochs=4, margin=1.0,
                warmup_epochs=2, blend_window=2, seed=7)
    base.update(kw)
    return TrainConfig(**base)


class TestTrainConfig:
    def test_defaults_valid(self):
        cfg = TrainConfig()
        assert cfg.lr_init == 1e-3 and cfg.lr_min == 1e-4
        assert cfg.batch_size == 32 and cfg.max_epochs == 80

    @pytest.mark.parametrize("kw", [
        dict(lr_min=1e-2),            # above lr_init
        dict(lr_factor=0.0),
        dict(lr_patience=0),
        dict(early_stop_patience=0),
        dict(batch_size=1),
        dict(max_epochs=0),
        dict(margin=0.0),
        dict(warmup_epochs=0),
        dict(monitor="accuracy"),
        dict(blend_window=1),
        dict(warmup_epochs=2, blend_window=5),   # above 2 * warmup_epochs
    ])
    def test_rejects_bad_fields(self, kw):
        with pytest.raises(ValueError):
            TrainConfig(**kw)


class TestAdam:
    def test_first_unit_step_is_minus_lr(self):
        """Bias correction makes the first step lr/(1+eps) ~ lr."""
        p = {"w": np.zeros(3)}
        opt = Adam(p)
        opt.step(p, {"w": np.ones(3)}, lr=1e-3)
        assert np.allclose(p["w"], -1e-3, rtol=1e-6)

    def test_zero_grads_change_nothing_but_t(self):
        p = {"w": np.array([1.5, -2.0])}
        opt = Adam(p)
        opt.step(p, {"w": np.zeros(2)}, lr=0.1)
        assert np.array_equal(p["w"], [1.5, -2.0])
        assert np.all(opt.m["w"] == 0.0) and np.all(opt.v["w"] == 0.0)
        assert opt.t == 1

    def test_deterministic_trajectories(self):
        rng = np.random.default_rng(3)
        gs = [rng.standard_normal(4) for _ in range(10)]
        outs = []
        for _ in range(2):
            p = {"w": np.zeros(4)}
            opt = Adam(p)
            for g in gs:
                opt.step(p, {"w": g}, lr=1e-2)
            outs.append(p["w"].copy())
        assert np.array_equal(outs[0], outs[1])

    def test_nan_gradient_aborts(self):
        p = {"w": np.zeros(2)}
        opt = Adam(p)
        with pytest.raises(FloatingPointError, match="w"):
            opt.step(p, {"w": np.array([1.0, np.nan])}, lr=1e-3)

    def test_updates_in_place(self):
        arr = np.zeros(2)
        p = {"w": arr}
        Adam(p).step(p, {"w": np.ones(2)}, lr=1e-3)
        assert arr[0] != 0.0


class TestPlateauController:
    def test_two_triggers_quarter_lr(self):
        c = PlateauController(1e-3, 1e-4, 0.5, lr_patience=5,
                              stop_patience=100)
        c.observe(1.0)
        lr = None
        for _ in range(10):
            lr, _, _ = c.observe(1.0)
        assert lr == pytest.approx(2.5e-4)

    def test_lr_floor(self):
        c = PlateauController(1e-3, 1e-4, 0.5, lr_patience=1,
                              stop_patience=1000)
        c.observe(1.0)
        lr = None
        for _ in range(40):
            lr, _, _ = c.observe(1.0)
        assert lr == 1e-4

    def test_stop_at_exact_patience(self):
        c = PlateauController(1e-3, 1e-4, 0.5, lr_patience=50,
                              stop_patience=20)
        _, stop, improved = c.observe(5.0)
        assert improved and not stop
        for i in range(1, 21):
            _, stop, _ = c.observe(5.0)
            assert stop == (i == 20)

    def test_improvement_resets_counters(self):
        c = PlateauController(1e-3, 1e-4, 0.5, lr_patience=3,
                              stop_patience=5)
        c.observe(5.0)
        c.observe(5.0)
        c.observe(5.0)
        _, stop, improved = c.observe(4.0)
        assert improved and not stop
        assert c.bad_lr == 0 and c.bad_stop == 0
        lr, _, _ = c.observe(4.0)
        assert lr == 1e-3

    def test_equal_value_is_not_improvement(self):
        c = PlateauController(1e-3, 1e-4, 0.5, lr_patience=10,
                              stop_patience=2)
        c.observe(1.0)
        c.observe(1.0)
        _, stop, _ = c.observe(1.0)
        assert stop


class TestBatchPlan:
    @pytest.mark.parametrize("n,bs,expect", [
        (100, 32, 4),
        (64, 32, 2),
        (65, 32, 2),   # trailing singleton folded into last batch
        (33, 32, 1),
        (5, 32, 1),
        (2, 2, 1),
    ])
    def test_counts(self, n, bs, expect):
        bounds, _, _ = epoch_plan(n, TrainConfig(batch_size=bs))
        assert len(bounds) == expect

    @pytest.mark.parametrize("n,bs,expect", [
        (100, 32, [(0, 32), (32, 64), (64, 96), (96, 100)]),
        (65, 32, [(0, 32), (32, 65)]),
        (33, 32, [(0, 33)]),
    ])
    def test_bounds_cover_the_epoch_in_order(self, n, bs, expect):
        bounds, _, _ = epoch_plan(n, TrainConfig(batch_size=bs))
        assert bounds == expect

    def test_rejects_single_sample(self):
        with pytest.raises(ValueError):
            epoch_plan(1, TrainConfig())


class TestEpochPlan:
    @pytest.mark.parametrize("n, kw, steps, cpe, warmup", [
        (80, dict(batch_size=32, warmup_epochs=2), 3, 2, 4),
        (160, dict(batch_size=100), 2, 2, 10),
        (6, dict(batch_size=8, warmup_epochs=2, blend_window=2), 1, 1, 2),
    ])
    def test_plans(self, n, kw, steps, cpe, warmup):
        """Two checkpoints per epoch, one when an epoch is one step."""
        bounds, checkpoints, blend = epoch_plan(n, TrainConfig(**kw))
        assert (len(bounds), len(checkpoints), blend.warmup) == \
            (steps, cpe, warmup)
        assert blend.window == TrainConfig(**kw).blend_window

    @pytest.mark.parametrize("n, bs, expect", [
        (80, 32, (1, 3)),
        (160, 100, (1, 2)),
        (100, 20, (2, 5)),
        (6, 8, (1,)),
    ])
    def test_checkpoints_after_the_middle_and_last_step(self, n, bs, expect):
        _, checkpoints, _ = epoch_plan(
            n, TrainConfig(batch_size=bs, warmup_epochs=2, blend_window=2))
        assert checkpoints == expect

    @pytest.mark.parametrize("kw, match", [
        (dict(warmup_epochs=1, blend_window=2), "warm-up must span >= 2"),
        (dict(warmup_epochs=2, blend_window=3), "fit window 3 must lie in"),
    ])
    def test_single_step_epochs_that_cannot_warm_up(self, kw, match):
        with pytest.raises(ValueError, match=match):
            epoch_plan(6, TrainConfig(batch_size=8, **kw))


class TestTrainLoop:
    def test_loss_decreases_on_separable_toy(self):
        """Uniform-weighted train total falls across the first epochs."""
        x, y = toy_data(12)
        vx, vy = toy_data(6, seed=1)
        model = MultiTaskAE(TOY_DIMS, rng=np.random.default_rng(0))
        cfg = quick_config(max_epochs=5, warmup_epochs=5)
        result = train(model, x, y, vx, vy, cfg)
        end_rows = [r for r in result.log.rows
                    if r is result.log.rows[-1]
                    or result.log.rows[result.log.rows.index(r) + 1].epoch
                    != r.epoch]
        totals = [weighted_total(r.train_losses, [1 / 3] * 3)
                  for r in end_rows]
        assert len(totals) == 5
        assert all(b < a for a, b in zip(totals, totals[1:]))

    def test_warmup_rows_exactly_uniform(self):
        x, y = toy_data(8)
        vx, vy = toy_data(4, seed=1)
        model = MultiTaskAE(TOY_DIMS, rng=np.random.default_rng(0))
        cfg = quick_config(max_epochs=4, warmup_epochs=2)
        result = train(model, x, y, vx, vy, cfg)
        warmup_cp = result.blend.warmup
        for row in result.log.rows:
            if row.checkpoint < warmup_cp:
                assert row.weights == (1 / 3, 1 / 3, 1 / 3)

    def test_post_warmup_weights_sum_to_one(self):
        x, y = toy_data(8)
        vx, vy = toy_data(4, seed=1)
        model = MultiTaskAE(TOY_DIMS, rng=np.random.default_rng(0))
        cfg = quick_config(max_epochs=5, warmup_epochs=2)
        result = train(model, x, y, vx, vy, cfg)
        post = [r for r in result.log.rows
                if r.checkpoint >= result.blend.warmup]
        assert post
        for row in post:
            assert abs(sum(row.weights) - 1.0) < 1e-12
            assert all(w >= 0.0 for w in row.weights)

    def test_two_checkpoints_per_epoch_when_possible(self):
        x, y = toy_data(8)          # 16 samples, bs 8 -> 2 steps
        vx, vy = toy_data(4, seed=1)
        model = MultiTaskAE(TOY_DIMS, rng=np.random.default_rng(0))
        result = train(model, x, y, vx, vy, quick_config(max_epochs=2))
        assert [r.checkpoint for r in result.log.rows] == [0, 1, 2, 3]
        assert [r.epoch for r in result.log.rows] == [0, 0, 1, 1]

    def test_single_step_epoch_one_checkpoint(self):
        x, y = toy_data(3)          # 6 samples, bs 8 -> 1 step
        vx, vy = toy_data(3, seed=1)
        model = MultiTaskAE(TOY_DIMS, rng=np.random.default_rng(0))
        cfg = quick_config(max_epochs=3, warmup_epochs=2, blend_window=2)
        result = train(model, x, y, vx, vy, cfg)
        assert [r.checkpoint for r in result.log.rows] == [0, 1, 2]
        assert [r.epoch for r in result.log.rows] == [0, 1, 2]

    def test_early_stop_at_exact_patience(self):
        """With lr = 0 nothing changes, so the stop fires at exactly
        the patience boundary after the first epoch's improvement."""
        x, y = toy_data(8)
        vx, vy = toy_data(4, seed=1)
        model = MultiTaskAE(TOY_DIMS, rng=np.random.default_rng(0))
        cfg = quick_config(lr_init=0.0, lr_min=0.0, max_epochs=50,
                           early_stop_patience=3)
        result = train(model, x, y, vx, vy, cfg)
        assert result.log.stopped_epoch == 3
        assert result.log.best_epoch == 0

    def test_best_epoch_is_argmin_of_monitor(self):
        x, y = toy_data(10)
        vx, vy = toy_data(5, seed=1)
        model = MultiTaskAE(TOY_DIMS, rng=np.random.default_rng(0))
        cfg = quick_config(max_epochs=6)
        result = train(model, x, y, vx, vy, cfg)
        per_epoch = {}
        for row in result.log.rows:
            per_epoch[row.epoch] = row.val_total     # last row of epoch wins
        best = min(per_epoch, key=per_epoch.get)
        assert result.log.best_epoch == best

    def test_restores_best_parameters(self):
        x, y = toy_data(10)
        vx, vy = toy_data(5, seed=1)
        model = MultiTaskAE(TOY_DIMS, rng=np.random.default_rng(0))
        result = train(model, x, y, vx, vy, quick_config(max_epochs=4))
        now = model.state_dict()
        for k, v in result.state.items():
            assert np.array_equal(now[k], v)

    def test_single_class_batchs_skip_triplets(self):
        x, y = toy_data(6)
        y = np.zeros_like(y)        # all one class: no triplets ever
        vx, vy = toy_data(3, seed=1)
        vy = np.zeros_like(vy)
        model = MultiTaskAE(TOY_DIMS, rng=np.random.default_rng(0))
        result = train(model, x, y, vx, vy, quick_config(max_epochs=2))
        for row in result.log.rows:
            assert row.train_losses[1] == 0.0
            assert row.val_losses[1] == 0.0

    def test_non_finite_input_aborts(self):
        x, y = toy_data(6)
        x[0, 0, 0, 0] = np.nan
        vx, vy = toy_data(3, seed=1)
        model = MultiTaskAE(TOY_DIMS, rng=np.random.default_rng(0))
        with pytest.raises(FloatingPointError, match="non-finite"):
            train(model, x, y, vx, vy, quick_config(max_epochs=1))

    def test_calls_the_module_globals_on_schedule(self, monkeypatch):
        """The loop reaches ``_task_losses``, ``update_weights``,
        ``mine_semi_hard_triplets`` and ``Adam.step`` through the
        ``trainer`` module, once per checkpoint or step of the plan, so
        wrappers swapped in there see every call."""
        counts = {}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] = counts.get(name, 0) + 1
                return fn(*args, **kwargs)
            return wrapper

        for owner, name in ((trainer, "_task_losses"),
                            (trainer, "update_weights"),
                            (trainer, "mine_semi_hard_triplets"),
                            (trainer.Adam, "step")):
            monkeypatch.setattr(owner, name,
                                counting(name, vars(owner)[name]))
        x, y = toy_data(10)         # 20 samples, bs 8 -> 3 steps
        vx, vy = toy_data(4, seed=1)
        model = MultiTaskAE(TOY_DIMS, rng=np.random.default_rng(0))
        cfg = quick_config(max_epochs=3)
        result = train(model, x, y, vx, vy, cfg)
        bounds, checkpoints, _ = epoch_plan(len(x), cfg)
        assert (len(bounds), len(checkpoints)) == (3, 2)
        epochs = result.log.stopped_epoch + 1
        assert epochs == 3
        n_checkpoints = len(checkpoints) * epochs
        n_steps = len(bounds) * epochs
        assert len(result.log.rows) == n_checkpoints
        assert counts == {
            "_task_losses": n_checkpoints,
            "update_weights": n_checkpoints,
            # one mining per step, one per validation pass
            "mine_semi_hard_triplets": n_steps + n_checkpoints,
            "step": n_steps,
        }

    def test_shape_validation(self):
        x, y = toy_data(6)
        vx, vy = toy_data(3, seed=1)
        model = MultiTaskAE(TOY_DIMS, rng=np.random.default_rng(0))
        with pytest.raises(ValueError, match="tensors"):
            train(model, x[:, 0], y, vx, vy, quick_config())
        with pytest.raises(ValueError, match="lengths"):
            train(model, x, y[:-1], vx, vy, quick_config())


class TestReproducibility:
    def test_identical_runs_identical_csv(self, tmp_path):
        x, y = toy_data(8)
        vx, vy = toy_data(4, seed=1)
        paths = []
        for i in range(2):
            model = MultiTaskAE(TOY_DIMS, rng=np.random.default_rng(42))
            result = train(model, x, y, vx, vy,
                           quick_config(max_epochs=3))
            p = tmp_path / f"log{i}.csv"
            write_train_log_csv(result.log, p, config_hash="abc123")
            paths.append(p)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_csv_layout(self, tmp_path):
        x, y = toy_data(8)
        vx, vy = toy_data(4, seed=1)
        model = MultiTaskAE(TOY_DIMS, rng=np.random.default_rng(0))
        result = train(model, x, y, vx, vy, quick_config(max_epochs=2))
        p = tmp_path / "log.csv"
        write_train_log_csv(result.log, p, config_hash="deadbeef")
        lines = p.read_text().splitlines()
        assert lines[0] == "# config_hash=deadbeef"
        assert lines[1].startswith("checkpoint,epoch,lr,w_mse")
        assert len(lines) == 2 + len(result.log.rows) + 1
        first = lines[2].split(",")
        assert first[0] == "0" and first[1] == "0"


class TestModelStateIO:
    def test_roundtrip_exact_float64(self, tmp_path):
        model = MultiTaskAE(TOY_DIMS, rng=np.random.default_rng(5))
        state = model.state_dict()
        path = tmp_path / "model.npz"
        save_model_state(path, state, meta={"note": "toy"})
        loaded, meta = load_model_state(path)
        assert meta["kind"] == "model-state" and meta["note"] == "toy"
        assert set(loaded) == set(state)
        for k in state:
            assert state[k].dtype == loaded[k].dtype == np.float64, k
            assert np.array_equal(loaded[k], state[k]), k

    def test_rejects_other_manifests(self, tmp_path):
        from specblend import blobio
        path = tmp_path / "other.json"
        blobio.write_arrays(path, {"a": np.zeros(3, dtype=np.float32)},
                            meta={"kind": "something-else"})
        with pytest.raises(ValueError, match="model-state"):
            load_model_state(path)
