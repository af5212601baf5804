"""Hand-computed loss values and gradient verification, including
finite differences through the whole model."""

import numpy as np
import pytest

from specblend import losses
from specblend.model import ModelDims, MultiTaskAE, mine_semi_hard_triplets
from tests.support.oracles import central_diff, max_rel_err, sampled_coord_check


class TestMse:
    def test_zero_residual(self):
        x = np.random.default_rng(0).standard_normal((2, 1, 5, 3))
        assert losses.mse_loss(x, x) == 0.0

    def test_hand_value_all_ones_residual(self):
        """Two channels, three time points, unit residual everywhere:
        (1/2) * (3 + 3) = 3."""
        x = np.zeros((1, 1, 3, 2))
        xhat = np.ones((1, 1, 3, 2))
        assert losses.mse_loss(x, xhat) == pytest.approx(3.0, abs=1e-12)

    def test_quadratic_scaling(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((2, 1, 6, 4))
        xhat = x + rng.standard_normal(x.shape)
        base = losses.mse_loss(x, xhat)
        scaled = losses.mse_loss(x, x + 3.0 * (xhat - x))
        assert scaled == pytest.approx(9.0 * base, rel=1e-12)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            losses.mse_loss(np.zeros((1, 1, 3, 2)), np.zeros((1, 1, 3, 3)))

    def test_gradient_matches_fd(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((3, 1, 4, 2))
        xhat = rng.standard_normal(x.shape)
        num = central_diff(lambda v: losses.mse_loss(x, v), xhat.copy())
        assert max_rel_err(losses.mse_grad(x, xhat), num) <= 1e-6


class TestTriplet:
    def test_anchor_equals_positive_inactive(self):
        a = np.array([[0.0, 0.0]])
        n = np.array([[0.0, 2.0]])
        assert losses.triplet_loss(a, a, n, margin=1.0) == 0.0

    def test_hand_value_one(self):
        a = np.array([[0.0, 0.0]])
        p = np.array([[1.0, 0.0]])
        n = np.array([[0.0, 2.0]])
        assert losses.triplet_loss(a, p, n, margin=5.0) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("margin", [0.1, 0.5, 1.0, 5.0, 10.0, 100.0])
    def test_margin_grid_accepted(self, margin):
        rng = np.random.default_rng(3)
        v = rng.standard_normal((4, 3))
        assert losses.triplet_loss(v, v[::-1], -v, margin) >= 0.0

    def test_zero_when_all_triplets_satisfied(self):
        a = np.zeros((3, 2))
        p = np.full((3, 2), 0.1)
        n = np.full((3, 2), 50.0)
        assert losses.triplet_loss(a, p, n, margin=1.0) == 0.0

    def test_empty_set_zero(self):
        empty = np.zeros((0, 4))
        assert losses.triplet_loss(empty, empty, empty, 1.0) == 0.0

    def test_latent_grad_matches_fd(self):
        rng = np.random.default_rng(4)
        latents = rng.standard_normal((8, 3))
        labels = rng.integers(0, 2, 8)
        batch = mine_semi_hard_triplets(latents, labels, margin=2.0)
        assert len(batch) > 0

        def loss_of(lv):
            return losses.triplet_loss(
                lv[batch.anchors], lv[batch.positives], lv[batch.negatives],
                batch.margin,
            )

        num = central_diff(loss_of, latents.copy())
        assert max_rel_err(losses.triplet_latent_grad(latents, batch), num) <= 1e-6

    def test_empty_set_zero_grad(self):
        latents = np.random.default_rng(5).standard_normal((4, 3))
        batch = mine_semi_hard_triplets(latents, np.zeros(4, dtype=int), 1.0)
        assert np.all(losses.triplet_latent_grad(latents, batch) == 0.0)


class TestCrossEntropy:
    def test_confident_correct_is_zero(self):
        y = np.array([[1.0, 0.0]])
        p = np.array([[1.0, 0.0]])
        assert losses.ce_loss(y, p) == pytest.approx(0.0, abs=1e-9)

    def test_hand_value_half(self):
        y = np.array([[1.0, 0.0]])
        p = np.array([[0.5, 0.5]])
        assert losses.ce_loss(y, p) == pytest.approx(np.log(2.0), abs=1e-12)

    def test_hand_value_three_quarters(self):
        y = np.array([[0.0, 1.0]])
        p = np.array([[0.25, 0.75]])
        assert losses.ce_loss(y, p) == pytest.approx(-np.log(0.75), abs=1e-12)

    def test_clip_prevents_infinity(self):
        y = np.array([[1.0, 0.0]])
        p = np.array([[0.0, 1.0]])
        assert losses.ce_loss(y, p) == pytest.approx(-np.log(losses.PROB_FLOOR))

    def test_batch_permutation_equivariant(self):
        rng = np.random.default_rng(6)
        y = losses.one_hot(rng.integers(0, 2, 10), 2)
        p = rng.dirichlet([1.0, 1.0], size=10)
        perm = rng.permutation(10)
        assert losses.ce_loss(y, p) == pytest.approx(
            losses.ce_loss(y[perm], p[perm]), rel=1e-12
        )

    def test_fused_softmax_grad_matches_fd(self):
        from specblend.nn import softmax

        rng = np.random.default_rng(7)
        logits = rng.standard_normal((5, 2))
        y = losses.one_hot(rng.integers(0, 2, 5), 2)
        num = central_diff(lambda v: losses.ce_loss(y, softmax(v)), logits.copy())
        analytic = losses.softmax_ce_grad(y, softmax(logits))
        assert max_rel_err(analytic, num) <= 1e-6


class TestWeightedTotal:
    def test_uniform_hand_value(self):
        value = losses.weighted_total(
            [3.0, 0.0, np.log(2.0)], [1 / 3, 1 / 3, 1 / 3]
        )
        assert value == pytest.approx(1.0 + np.log(2.0) / 3.0, abs=1e-12)

    def test_single_task_weight(self):
        assert losses.weighted_total([5.0, 7.0, 9.0], [1.0, 0.0, 0.0]) == 5.0

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            losses.weighted_total([1.0, 1.0, 1.0], [0.5, -0.1, 0.6])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="weights"):
            losses.weighted_total([1.0, 2.0], [1.0, 1.0, 1.0])


class TestLossThroughModel:
    """End-to-end gradient checks: each loss backpropagated through the
    full network against finite differences on sampled coordinates."""

    def setup_method(self):
        dims = ModelDims(t=100, u=2, n_bands=2, latent=5)
        self.model = MultiTaskAE(dims, rng=np.random.default_rng(8))
        rng = np.random.default_rng(9)
        self.x = rng.standard_normal((4, 1, 100, 4))
        self.labels = np.array([0, 1, 0, 1])
        self.y = losses.one_hot(self.labels, 2)

    def _grads_for(self, which):
        model, x = self.model, self.x
        z, xhat, logits = model.forward(x, train=True)
        from specblend.nn import softmax

        batch = mine_semi_hard_triplets(z, self.labels, margin=1.0)
        model.zero_grads()
        dz = np.zeros_like(z)
        dxhat = np.zeros_like(xhat)
        dlogits = np.zeros_like(logits)
        if which == "mse":
            dxhat = losses.mse_grad(x, xhat)
        elif which == "triplet":
            dz = losses.triplet_latent_grad(z, batch)
        else:
            dlogits = losses.softmax_ce_grad(self.y, softmax(logits))
        model.backward(dz, dxhat, dlogits)
        return batch

    def _loss_fn(self, which, batch):
        model, x = self.model, self.x

        def f():
            z, xhat, logits = model.forward(x, train=True)
            from specblend.nn import softmax

            if which == "mse":
                return losses.mse_loss(x, xhat)
            if which == "triplet":
                # mining frozen: differentiate at fixed triple indices
                return losses.triplet_loss(
                    z[batch.anchors], z[batch.positives], z[batch.negatives],
                    batch.margin,
                )
            return losses.ce_loss(self.y, softmax(logits))

        return f

    @pytest.mark.parametrize("which", ["mse", "triplet", "ce"])
    def test_model_gradient_sampled_fd(self, which):
        batch = self._grads_for(which)
        f = self._loss_fn(which, batch)
        grads = self.model.named_grads()
        params = self.model.named_parameters()
        rng = np.random.default_rng(10)
        for name in ("enc_conv1.kernel", "enc_bn1.gamma", "enc_fc.weight",
                     "dec_fc.weight", "dec_convt1.kernel", "cls_fc.weight"):
            if which != "ce" and name == "cls_fc.weight":
                continue  # head untouched by reconstruction/triplet paths
            worst = sampled_coord_check(f, params[name], grads[name], rng)
            assert worst <= 1e-4, f"{which} grad mismatch at {name}: {worst}"
