"""End-to-end acceptance gate for the pipeline.

Eight checks cover the filter bank, the spatial filter solver, the loss
values, the gradients, the adaptive blending rule, the full
subject-dependent protocol at realistic scale, the small-sample weight
shift, and artifact determinism.  Each test prints one verdict line
(``ACCEPTANCE <n> <label>: PASS`` or ``FAIL``) directly to the terminal
so the gate can be read off any run log.
"""

import time

import numpy as np
import pytest

from specblend.blend import (
    BlendState,
    TaskReference,
    smoothed_tangent,
    update_weights,
)
from specblend.csp import ClassCovariance, csp_fit
from specblend.evalmetrics import evaluate_fold, run_protocol, write_report_csv
from specblend.fbcsp import fbcsp_fit, transform_batch
from specblend.filterbank import DEFAULT_BANDS, make_filter_bank
from specblend import losses
from specblend.model import ModelDims, MultiTaskAE, mine_semi_hard_triplets
from specblend.nn import softmax
from specblend import nn
from specblend.trainer import TrainConfig, train, write_train_log_csv
from specblend.trialdata import SynthSpec, TrialSet, generate_synthetic, make_splits
from tests.support.oracle_classifier import oracle_fold_metrics
from tests.support.oracles import (
    ba_response,
    jacobi_eigh,
    sampled_coord_check,
    sos_to_ba,
)
from tests.test_nn import fd_check_layer


def _verdict(capsys, num, label, check):
    """Run ``check`` and print one unbuffered pass/fail line for it."""
    try:
        check()
    except BaseException:
        with capsys.disabled():
            print(f"\nACCEPTANCE {num} {label}: FAIL", flush=True)
        raise
    with capsys.disabled():
        print(f"\nACCEPTANCE {num} {label}: PASS", flush=True)


def test_1_filter_bank_response(capsys):
    """Every default band passes its own center at unit gain and
    rejects centers two or more bands away, judged by direct evaluation
    of the designed transfer polynomials."""

    def check():
        t0 = time.perf_counter()
        bank = make_filter_bank(100.0)
        centers = [0.5 * (lo + hi) for lo, hi in bank.bands]
        for i, design in enumerate(bank.designs):
            b, a = sos_to_ba(design.sos)

            def gain(freq):
                # forward-backward filtering squares the magnitude
                return abs(ba_response(b, a, freq, design.fs)) ** 2

            # the polynomial route carries ~1e-10 roundoff above unity
            assert 0.96 <= gain(centers[i]) <= 1.0 + 1e-9, f"band {i} center gain"
            for j, fc in enumerate(centers):
                if abs(i - j) >= 2:
                    assert gain(fc) <= 0.01, f"band {i} leaks at center {j}"
        assert time.perf_counter() - t0 < 1.0

    _verdict(capsys, 1, "filter bank response", check)


def test_2_spatial_filter_diagonalization(capsys):
    """The solver simultaneously diagonalizes 100 random SPD pairs with
    complementary spectra, agrees with an independent Jacobi eigensolver,
    and reproduces the diagonal toy problem exactly."""

    def check():
        rng = np.random.default_rng(2024)
        for _ in range(100):
            n = int(rng.integers(2, 11))
            q1, _ = np.linalg.qr(rng.standard_normal((n, n)))
            q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
            s1 = (q1 * rng.uniform(0.1, 10.0, n)) @ q1.T
            s2 = (q2 * rng.uniform(0.1, 10.0, n)) @ q2.T
            s1 = 0.5 * (s1 + s1.T) / np.trace(s1)
            s2 = 0.5 * (s2 + s2.T) / np.trace(s2)

            sol = csp_fit(s1, s2, u=2)
            d1 = sol.w_full.T @ s1 @ sol.w_full
            d2 = sol.w_full.T @ s2 @ sol.w_full
            assert np.abs(d1 - np.diag(np.diag(d1))).max() < 1e-8
            assert np.abs(d2 - np.diag(np.diag(d2))).max() < 1e-8
            assert np.abs(d1 + d2 - np.eye(n)).max() < 1e-8
            np.testing.assert_allclose(np.diag(d1), sol.eigvals, atol=1e-8)

            swapped = csp_fit(s2, s1, u=2)
            assert np.abs(sol.eigvals - (1.0 - swapped.eigvals)[::-1]).max() < 1e-10

            comp_vals, comp_vecs = jacobi_eigh(s1 + s2)
            whitener = comp_vecs / np.sqrt(comp_vals)
            lam_oracle, _ = jacobi_eigh(whitener.T @ s1 @ whitener)
            np.testing.assert_allclose(sol.eigvals, lam_oracle[::-1], atol=1e-8)

        toy = csp_fit(
            ClassCovariance(np.diag([0.75, 0.25]), 0, 1),
            ClassCovariance(np.diag([0.25, 0.75]), 1, 1),
            u=2,
        )
        np.testing.assert_allclose(toy.eigvals, [0.75, 0.25], atol=1e-12)

    _verdict(capsys, 2, "spatial filter diagonalization", check)


def test_3_loss_hand_values(capsys):
    """Each loss reproduces a value small enough to verify by hand."""

    def check():
        # unit residual on 2 channels x 3 samples: (1/2) * (3 + 3) = 3
        mse = losses.mse_loss(np.zeros((1, 1, 3, 2)), np.ones((1, 1, 3, 2)))
        assert abs(mse - 3.0) <= 1e-12

        # d(a,p)^2 = 1, d(a,n)^2 = 4, margin 5 -> impostor term 1
        tri = losses.triplet_loss(
            np.array([[0.0, 0.0]]),
            np.array([[1.0, 0.0]]),
            np.array([[0.0, 2.0]]),
            margin=5.0,
        )
        assert abs(tri - 1.0) <= 1e-12

        # fifty-fifty prediction on a binary label -> ln 2
        ce = losses.ce_loss(np.array([[1.0, 0.0]]), np.array([[0.5, 0.5]]))
        assert abs(ce - np.log(2.0)) <= 1e-12

    _verdict(capsys, 3, "loss hand values", check)


def test_4_gradient_verification(capsys):
    """Analytic gradients of every layer type, and of every loss pushed
    through the full network, match central finite differences."""

    def check():
        t0 = time.perf_counter()
        rng = np.random.default_rng(11)
        n_instances = 0

        def run(layer, shape, seed):
            nonlocal n_instances
            fd_check_layer(layer, rng.standard_normal(shape), seed=seed)
            n_instances += 1

        for i, (c_in, c_out, kw, stride, width) in enumerate(
            [(3, 4, 5, 1, 9), (2, 3, 4, 2, 8), (4, 2, 3, 3, 7), (5, 5, 6, 1, 10)]
        ):
            run(nn.Conv(c_in, c_out, kw, stride=stride, rng=rng),
                (3, 1, width, c_in), seed=i)
        for i, (c_in, c_out, kw, stride, width) in enumerate(
            [(3, 2, 5, 2, 6), (2, 4, 3, 1, 7), (4, 3, 4, 4, 5), (2, 2, 6, 2, 6)]
        ):
            run(nn.ConvTranspose(c_in, c_out, kw, stride=stride, rng=rng),
                (2, 1, width, c_in), seed=10 + i)
        for i, (n_in, n_out) in enumerate([(7, 4), (12, 3), (5, 9), (6, 6)]):
            run(nn.Dense(n_in, n_out, rng=rng), (5, n_in), seed=20 + i)
        for i, (c, t) in enumerate([(3, 6), (5, 8), (2, 4)]):
            run(nn.BatchNorm(c), (4, 1, t, c), seed=30 + i)
        run(nn.Elu(), (3, 1, 7, 2), seed=40)
        run(nn.Elu(), (2, 1, 11, 3), seed=41)
        run(nn.AvgPool(2), (3, 1, 8, 2), seed=50)
        run(nn.AvgPool(4), (2, 1, 12, 3), seed=51)
        run(nn.Flatten(), (3, 1, 5, 2), seed=60)
        run(nn.Reshape((1, 6, 2)), (2, 1, 3, 4), seed=61)
        assert n_instances >= 20

        # each loss through the whole network, sampled-coordinate FD
        dims = ModelDims(t=100, u=2, n_bands=2, latent=5)
        model = MultiTaskAE(dims, rng=np.random.default_rng(8))
        data_rng = np.random.default_rng(9)
        x = data_rng.standard_normal((4, 1, 100, 4))
        labels = np.array([0, 1, 0, 1])
        y_hot = losses.one_hot(labels, 2)
        check_rng = np.random.default_rng(10)

        for which in ("mse", "triplet", "ce"):
            z, xhat, logits = model.forward(x, train=True)
            batch = mine_semi_hard_triplets(z, labels, margin=1.0)
            model.zero_grads()
            dz = np.zeros_like(z)
            dxhat = np.zeros_like(xhat)
            dlogits = np.zeros_like(logits)
            if which == "mse":
                dxhat = losses.mse_grad(x, xhat)
            elif which == "triplet":
                dz = losses.triplet_latent_grad(z, batch)
            else:
                dlogits = losses.softmax_ce_grad(y_hot, softmax(logits))
            model.backward(dz, dxhat, dlogits)

            def f(which=which, batch=batch):
                z, xhat, logits = model.forward(x, train=True)
                if which == "mse":
                    return losses.mse_loss(x, xhat)
                if which == "triplet":
                    return losses.triplet_loss(
                        z[batch.anchors], z[batch.positives],
                        z[batch.negatives], batch.margin)
                return losses.ce_loss(y_hot, softmax(logits))

            grads = model.named_grads()
            params = model.named_parameters()
            for name in ("enc_conv1.kernel", "enc_bn1.gamma", "enc_fc.weight",
                         "dec_fc.weight", "dec_convt1.kernel", "cls_fc.weight"):
                if which != "ce" and name == "cls_fc.weight":
                    continue  # head untouched by these paths
                worst = sampled_coord_check(f, params[name], grads[name], check_rng)
                assert worst <= 1e-4, f"{which} grad mismatch at {name}: {worst}"

        assert time.perf_counter() - t0 < 120.0

    _verdict(capsys, 4, "gradient verification", check)


def test_5_adaptive_blending(capsys):
    """The blending rule reproduces a two-task worked example exactly,
    stays uniform through warm-up, keeps weights on the simplex after,
    and never lets a reference tangent increase over a real run."""

    def check():
        # two-task worked example: growths (0.5, 1.5), gaps (0.5, 1.5),
        # raw scores 0.5/0.25 = 2 and 1.5/2.25 = 2/3 -> weights 3/4, 1/4
        state = BlendState(n_tasks=2, warmup=2, window=2)
        slopes = [(-1.0, -0.5), (-1.0, 0.5)]
        for m in range(2):
            state.refs[m] = TaskReference(n0=1, tan_train=-1.0, tan_val=-1.0)

        def losses_at(n):
            return ([10.0 + slope_tr * n for slope_tr, _ in slopes],
                    [10.0 + slope_va * n for _, slope_va in slopes])

        for n in (1, 2):
            state.record(n, *losses_at(n))
        w = update_weights(state, 3, *losses_at(3))
        assert abs(w[0] - 0.75) <= 1e-12
        assert abs(w[1] - 0.25) <= 1e-12

        # a real training run on separable toy data
        from tests.test_trainer import TOY_DIMS, toy_data

        x, y = toy_data(16, noise=0.3, seed=2)
        cls0 = np.flatnonzero(y == 0)
        cls1 = np.flatnonzero(y == 1)
        train_idx = np.concatenate([cls0[:12], cls1[:12]])
        val_idx = np.concatenate([cls0[12:], cls1[12:]])
        config = TrainConfig(batch_size=8, max_epochs=12, margin=1.0,
                             warmup_epochs=2, blend_window=2,
                             early_stop_patience=12, seed=3)
        model = MultiTaskAE(TOY_DIMS, rng=np.random.default_rng(0))
        result = train(model, x[train_idx], y[train_idx],
                       x[val_idx], y[val_idx], config)

        warmup_cp = result.blend.warmup
        saw_post = False
        for row in result.log.rows:
            if row.checkpoint < warmup_cp:
                assert row.weights == (1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)
            else:
                saw_post = True
                assert abs(sum(row.weights) - 1.0) <= 1e-12
        assert saw_post

        # replay the logged losses through a fresh state and track the
        # reference tangents from the end of warm-up onward
        fresh = BlendState(n_tasks=3, warmup=warmup_cp,
                           window=config.blend_window,
                           exponent=config.blend_exponent)
        tails = []
        replayed = None
        for row in result.log.rows:
            n = row.checkpoint
            replayed = update_weights(fresh, n, row.train_losses, row.val_losses)
            if n >= fresh.warmup - 1:
                tails.append([fresh.refs[m].tan_val for m in range(3)])
        np.testing.assert_array_equal(replayed, result.blend.weights)
        for m in range(3):
            track = [row[m] for row in tails]
            for prev, nxt in zip(track, track[1:]):
                assert nxt <= prev, f"task {m} reference tangent rose"

    _verdict(capsys, 5, "adaptive blending", check)


@pytest.mark.slow
def test_6_subject_dependent_protocol(capsys):
    """At realistic scale the trained pipeline separates the two classes
    about as well as a spatial-filter + log-variance + linear oracle on
    the same folds, and collapses to chance when labels are shuffled."""

    def check():
        spec = SynthSpec(n_subjects=2, n_sessions=2,
                         trials_per_class_per_session=50,
                         n_channels=8, fs=100.0, duration=4.0,
                         noise_std=1.0, seed=20)
        ts = generate_synthetic(spec)
        bank = make_filter_bank(ts.fs)
        plan = make_splits(ts, "subject_dependent", k=2, seed=20)
        config = TrainConfig(batch_size=32, margin=5.0, u=4,
                             warmup_epochs=5, blend_window=3,
                             max_epochs=80, seed=20)
        latent = config.u * bank.n_bands
        assert latent == 36

        accs, aucs, oracle_accs = [], [], []
        for fi, fold in enumerate(plan.folds):
            t0 = time.perf_counter()
            train_set = ts.select(fold.train)
            xf = fbcsp_fit(train_set, bank, config.u)
            tx = transform_batch(xf, train_set)
            vx = transform_batch(xf, ts.select(fold.val))
            sx = transform_batch(xf, ts.select(fold.test))
            dims = ModelDims(t=tx.shape[2], u=config.u,
                             n_bands=bank.n_bands, latent=latent)
            model = MultiTaskAE(
                dims, rng=np.random.default_rng([config.seed, fi, 1]))
            train(model, tx, train_set.labels,
                  vx, ts.labels[fold.val], config,
                  rng=np.random.default_rng([config.seed, fi]))
            acc, _, auc = evaluate_fold(model, sx, ts.labels[fold.test])
            assert time.perf_counter() - t0 < 600.0, f"fold {fi} too slow"
            accs.append(acc)
            aucs.append(auc)
            oracle_accs.append(
                oracle_fold_metrics(ts, fold.train, fold.test, bank,
                                    config.u)[0])

        assert np.mean(oracle_accs) >= 0.90, "oracle bar not met by the data"
        assert np.mean(accs) >= 0.90
        assert all(a is not None for a in aucs)
        assert np.mean(aucs) >= 0.95

        # shuffled-label control: same pipeline, chance-level outcome
        shuffled = TrialSet(ts.signals,
                            np.random.default_rng(77).permutation(ts.labels),
                            ts.subject_ids, ts.session_ids, ts.fs)
        control_plan = make_splits(shuffled, "subject_dependent", k=2, seed=20)
        control_config = TrainConfig(batch_size=32, margin=5.0, u=4,
                                     warmup_epochs=5, blend_window=3,
                                     max_epochs=20, seed=20)
        control = run_protocol(shuffled, control_plan, control_config, bank)
        agg = control.aggregate()
        assert abs(agg["accuracy_mean"] - 0.5) <= 0.12
        assert abs(agg["auc_mean"] - 0.5) <= 0.12

    _verdict(capsys, 6, "subject-dependent protocol", check)


@pytest.mark.slow
def test_7_small_sample_weight_shift(capsys):
    """On a fold small enough for the classifier head to overfit, the
    blend pushes the classification weight below uniform while its
    validation loss is still worsening at the end of the run."""

    def check():
        spec = SynthSpec(n_subjects=1, n_sessions=2,
                         trials_per_class_per_session=20,
                         n_channels=8, fs=100.0, duration=4.0,
                         noise_std=3.0, seed=9)
        ts = generate_synthetic(spec)
        bank = make_filter_bank(ts.fs)
        plan = make_splits(ts, "subject_dependent", k=2, seed=9)
        fold = plan.folds[0]
        assert np.bincount(ts.labels[fold.train]).tolist() == [10, 10]

        config = TrainConfig(batch_size=10, margin=5.0, u=4,
                             warmup_epochs=2, blend_window=3,
                             max_epochs=40, early_stop_patience=200,
                             seed=9)
        train_set = ts.select(fold.train)
        xf = fbcsp_fit(train_set, bank, config.u)
        tx = transform_batch(xf, train_set)
        vx = transform_batch(xf, ts.select(fold.val))
        dims = ModelDims(t=tx.shape[2], u=config.u, n_bands=bank.n_bands,
                         latent=config.u * bank.n_bands)
        model = MultiTaskAE(dims, rng=np.random.default_rng([config.seed, 0, 1]))
        result = train(model, tx, train_set.labels,
                       vx, ts.labels[fold.val], config,
                       rng=np.random.default_rng([config.seed, 0]))

        rows = result.log.rows
        late_tangent = smoothed_tangent([r.val_losses[2] for r in rows],
                                        [r.checkpoint for r in rows],
                                        config.blend_window)
        assert late_tangent > 0.0, "classifier validation loss not worsening"
        assert result.log.rows[-1].weights[2] < 1.0 / 3.0

    _verdict(capsys, 7, "small-sample weight shift", check)


def test_8_deterministic_artifacts(capsys, tmp_path):
    """Two runs under one config and seed emit byte-identical training
    logs and evaluation reports."""

    def check():
        spec = SynthSpec(n_subjects=1, n_sessions=2,
                         trials_per_class_per_session=12,
                         n_channels=6, fs=100.0, duration=2.0,
                         noise_std=0.5, seed=5)
        ts = generate_synthetic(spec)
        bank = make_filter_bank(ts.fs, bands=((4.0, 8.0), (8.0, 12.0),
                                              (20.0, 24.0)))
        config = TrainConfig(batch_size=8, max_epochs=3, margin=1.0, u=4,
                             warmup_epochs=1, blend_window=2, seed=11)

        outputs = []
        for run_dir in ("a", "b"):
            root = tmp_path / run_dir
            root.mkdir()
            plan = make_splits(ts, "subject_dependent", k=2, seed=11)
            collected = []
            report = run_protocol(ts, plan, config, bank, collect=collected)
            blobs = []
            for fi, result in enumerate(collected):
                path = root / f"trainlog_{fi}.csv"
                write_train_log_csv(result.log, path, config_hash="feed")
                blobs.append(path.read_bytes())
            path = root / "report.csv"
            write_report_csv(report, path, config_hash="feed")
            blobs.append(path.read_bytes())
            outputs.append(blobs)

        assert len(outputs[0]) == len(outputs[1]) == 3
        for first, second in zip(*outputs):
            assert first == second

    _verdict(capsys, 8, "deterministic artifacts", check)
