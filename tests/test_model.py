"""Model shape chain, triplet mining, and state round trips."""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specblend.model import (
    ModelDims,
    MultiTaskAE,
    TripletBatch,
    mine_semi_hard_triplets,
)
from specblend.nn import softmax
from tests.support.oracles import loop_semi_hard_triplets

TINY = ModelDims(t=100, u=2, n_bands=2, latent=6)


def tiny_model(seed=0):
    return MultiTaskAE(TINY, rng=np.random.default_rng(seed))


class TestShapes:
    def test_default_architecture_chain(self):
        """t=400, u=4, 9 bands: latent 36, flatten stage 450, decoder
        back to (1, 400, 36)."""
        dims = ModelDims(t=400, u=4, n_bands=9, latent=36)
        assert dims.channels == 36
        assert dims.flat == 450
        model = MultiTaskAE(dims, rng=np.random.default_rng(1))
        x = np.random.default_rng(2).standard_normal((3, 1, 400, 36))
        z = model.encode(x, train=False)
        assert z.shape == (3, 36)
        xhat = model.decode(z, train=False)
        assert xhat.shape == (3, 1, 400, 36)
        assert softmax(model.classify_logits(z, train=False)).shape == (3, 2)

    @pytest.mark.parametrize("u", [2, 4, 6, 8, 10])
    @pytest.mark.parametrize("latent", [8, 64])
    def test_grid_round_trip_shapes(self, u, latent):
        dims = ModelDims(t=400, u=u, n_bands=9, latent=latent)
        model = MultiTaskAE(dims, rng=np.random.default_rng(u + latent))
        x = np.zeros((2, 1, 400, dims.channels))
        z, xhat, logits = model.forward(x, train=False)
        assert z.shape == (2, latent)
        assert xhat.shape == x.shape
        assert logits.shape == (2, 2)

    def test_encoder_stage_widths(self):
        """Intermediate widths follow t -> 100 -> 25."""
        dims = ModelDims(t=400, u=4, n_bands=9, latent=36)
        model = MultiTaskAE(dims, rng=np.random.default_rng(3))
        x = np.random.default_rng(4).standard_normal((2, 1, 400, 36))
        stages = {}
        for name, layer in model.encoder:
            x = layer.forward(x, train=False)
            stages[name] = x.shape
        assert stages["enc_pool1"] == (2, 1, 100, 36)
        assert stages["enc_pool2"] == (2, 1, 25, 18)
        assert stages["enc_flat"] == (2, 450)

    def test_bad_dims_rejected(self):
        with pytest.raises(ValueError, match="multiple of 100"):
            ModelDims(t=350, u=4, n_bands=9, latent=8)
        with pytest.raises(ValueError, match="even"):
            ModelDims(t=400, u=3, n_bands=9, latent=8)
        with pytest.raises(ValueError, match="latent"):
            ModelDims(t=400, u=4, n_bands=9, latent=0)

    def test_input_shape_mismatch_rejected(self):
        model = tiny_model()
        with pytest.raises(ValueError, match="expected"):
            model.encode(np.zeros((2, 1, 100, 5)))


class TestHeads:
    def test_infer_mode_deterministic(self):
        model = tiny_model(5)
        x = np.random.default_rng(6).standard_normal((2, 1, 100, 4))
        z1 = model.encode(x, train=False)
        z2 = model.encode(x, train=False)
        np.testing.assert_array_equal(z1, z2)

    def test_zero_decoder_params_zero_output(self):
        model = tiny_model(7)
        for _, layer in model.decoder:
            for k in layer.params:
                layer.params[k][...] = 0.0
        xhat = model.decode(np.random.default_rng(8).standard_normal((3, 6)), train=False)
        assert np.all(xhat == 0.0)

    def test_zero_weight_head_uniform(self):
        model = tiny_model(9)
        head = dict(model.classifier)["cls_fc"]
        head.params["weight"][...] = 0.0
        head.params["bias"][...] = 0.0
        z = np.random.default_rng(10).standard_normal((4, 6))
        probs = softmax(model.classify_logits(z, train=False))
        np.testing.assert_allclose(probs, 0.5, atol=1e-15)

    def test_probability_rows_sum_to_one(self):
        model = tiny_model(11)
        z = np.random.default_rng(12).standard_normal((5, 6))
        probs = softmax(model.classify_logits(z, train=False))
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)


class TestMining:
    def test_worked_example_picks_semi_hard(self):
        """d(a,p)=1; negatives at d=4 (inside the margin window) and
        d=25 (outside): the semi-hard one wins."""
        latents = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0], [5.0, 0.0]])
        labels = np.array([0, 0, 1, 1])
        batch = mine_semi_hard_triplets(latents, labels, margin=5.0)
        picked = {
            (int(a), int(p)): int(n)
            for a, p, n in zip(batch.anchors, batch.positives, batch.negatives)
        }
        assert picked[(0, 1)] == 2

    def test_fallback_hardest_when_all_closer(self):
        """Every negative closer than the positive: hardest overall."""
        latents = np.array([[0.0], [10.0], [1.0], [2.0]])
        labels = np.array([0, 0, 1, 1])
        batch = mine_semi_hard_triplets(latents, labels, margin=1.0)
        picked = {
            (int(a), int(p)): int(n)
            for a, p, n in zip(batch.anchors, batch.positives, batch.negatives)
        }
        # anchor 0 with positive 1 at d=100; negatives at d=1, 4
        assert picked[(0, 1)] == 2

    def test_beyond_positive_fallback(self):
        """No negative inside the margin window but one beyond it."""
        latents = np.array([[0.0], [1.0], [10.0], [20.0]])
        labels = np.array([0, 0, 1, 1])
        batch = mine_semi_hard_triplets(latents, labels, margin=2.0)
        picked = {
            (int(a), int(p)): int(n)
            for a, p, n in zip(batch.anchors, batch.positives, batch.negatives)
        }
        # d(0,1)=1, negatives at 100 and 400; window (1,3) empty
        assert picked[(0, 1)] == 2

    def test_single_class_batch_empty(self):
        batch = mine_semi_hard_triplets(
            np.random.default_rng(13).standard_normal((4, 3)),
            np.zeros(4, dtype=int),
            margin=1.0,
        )
        assert len(batch) == 0

    def test_anchor_equals_positive_rejected_by_type(self):
        with pytest.raises(ValueError, match="differ"):
            TripletBatch(
                anchors=np.array([0]), positives=np.array([0]),
                negatives=np.array([1]), margin=1.0,
            )

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), size=st.integers(2, 12))
    def test_property_label_constraints(self, seed, size):
        """Mined triples always satisfy label(a)=label(p) != label(n)."""
        rng = np.random.default_rng(seed)
        latents = rng.standard_normal((size, 3))
        labels = rng.integers(0, 2, size=size)
        batch = mine_semi_hard_triplets(latents, labels, margin=1.0)
        for a, p, n in zip(batch.anchors, batch.positives, batch.negatives):
            assert labels[a] == labels[p]
            assert labels[a] != labels[n]
            assert a != p

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), size=st.integers(1, 24),
           n_classes=st.integers(1, 3), dim=st.integers(1, 3),
           margin=st.sampled_from([-1.0, 0.0, 0.5, 1.0, 4.0]))
    def test_matches_the_pair_loop_with_ties(self, seed, size, n_classes,
                                             dim, margin):
        """Identical index arrays to the pair-by-pair loop, on small
        integer latents where many distances tie."""
        rng = np.random.default_rng(seed)
        latents = rng.integers(-2, 3, size=(size, dim)).astype(float)
        labels = rng.integers(0, n_classes, size=size)
        got = mine_semi_hard_triplets(latents, labels, margin)
        want = loop_semi_hard_triplets(latents, labels, margin)
        for g, w in zip((got.anchors, got.positives, got.negatives), want):
            assert g.dtype == np.int64
            np.testing.assert_array_equal(g, w)

    def test_matches_the_pair_loop_on_a_batch(self):
        rng = np.random.default_rng(15)
        latents = rng.standard_normal((100, 8))
        labels = rng.integers(0, 2, size=100)
        got = mine_semi_hard_triplets(latents, labels, 1.0)
        want = loop_semi_hard_triplets(latents, labels, 1.0)
        for g, w in zip((got.anchors, got.positives, got.negatives), want):
            np.testing.assert_array_equal(g, w)

    def test_deterministic(self):
        rng = np.random.default_rng(14)
        latents = rng.standard_normal((10, 4))
        labels = rng.integers(0, 2, size=10)
        a = mine_semi_hard_triplets(latents, labels, 2.0)
        b = mine_semi_hard_triplets(latents, labels, 2.0)
        np.testing.assert_array_equal(a.negatives, b.negatives)


class TestState:
    def test_state_dict_round_trip(self):
        model = tiny_model(15)
        x = np.random.default_rng(16).standard_normal((4, 1, 100, 4))
        model.forward(x, train=True)  # move running stats off init
        state = model.state_dict()
        other = tiny_model(99)
        other.load_state_dict(state)
        np.testing.assert_array_equal(
            model.encode(x, train=False), other.encode(x, train=False)
        )

    def test_load_state_dict_refreshes_the_kernel_spectra(self):
        """An inference pass memoizes each convolution's kernel spectrum;
        loading another state afterwards gives that state's outputs."""
        model = tiny_model(30)
        x = np.random.default_rng(31).standard_normal((2, 1, 100, 4))
        model.forward(x, train=False)
        other = tiny_model(32)
        model.load_state_dict(other.state_dict())
        for got, want in zip(model.forward(x, train=False),
                             tiny_model(32).forward(x, train=False)):
            assert np.array_equal(got, want)

    def test_unknown_state_key_rejected(self):
        model = tiny_model(17)
        with pytest.raises(KeyError, match="unknown"):
            model.load_state_dict({"nope.weight": np.zeros(3)})

    def test_state_of_another_shape_rejected(self):
        """A latent-1 state would broadcast into a latent-6 model."""
        small = MultiTaskAE(ModelDims(t=100, u=2, n_bands=2, latent=1),
                            rng=np.random.default_rng(20))
        model = tiny_model(21)
        before = model.state_dict()
        with pytest.raises(ValueError,
                           match=r"enc_fc\.weight has shape \(\d+, 1\), "
                                 r"the model expects \(\d+, 6\)"):
            model.load_state_dict(small.state_dict())
        for key, value in model.state_dict().items():
            np.testing.assert_array_equal(value, before[key])

    @pytest.mark.parametrize("drop", ["cls_fc.", "enc_bn1.running_var"])
    def test_missing_state_entry_rejected(self, drop):
        state = {k: v for k, v in tiny_model(22).state_dict().items()
                 if not k.startswith(drop)}
        with pytest.raises(ValueError, match=f"{drop}.* is missing"):
            tiny_model(23).load_state_dict(state)

    def test_backward_skips_the_data_gradient(self):
        """The same gradients as every layer's full backward, without ever
        calling enc_conv1's input-gradient half; nothing is returned."""
        model = tiny_model(24)
        x = np.random.default_rng(25).standard_normal((3, 1, 100, 4))
        ref = copy.deepcopy(model)
        z, xhat, logits = model.forward(x, train=True)
        ref.forward(x, train=True)
        rng = np.random.default_rng(26)
        dz, dxhat, dlogits = (rng.standard_normal(v.shape) for v in (z, xhat, logits))

        g_z = dz.copy()
        g = dxhat
        for _, layer in reversed(ref.decoder):
            g = layer.backward(g)
        g_z += g
        g = dlogits
        for _, layer in reversed(ref.classifier):
            g = layer.backward(g)
        g_z += g
        for _, layer in reversed(ref.encoder):
            g_z = layer.backward(g_z)

        def no_input_grad(dy):
            raise AssertionError("enc_conv1.backward called")

        dict(model.encoder)["enc_conv1"].backward = no_input_grad
        assert model.backward(dz, dxhat, dlogits) is None
        want = ref.named_grads()
        for key, value in model.named_grads().items():
            assert np.array_equal(value, want[key]), key

    def test_backward_accumulates_into_all_heads(self):
        model = tiny_model(18)
        x = np.random.default_rng(19).standard_normal((3, 1, 100, 4))
        z, xhat, logits = model.forward(x, train=True)
        model.zero_grads()
        model.backward(np.ones_like(z), np.ones_like(xhat), np.ones_like(logits))
        grads = model.named_grads()
        for key in ("enc_conv1.kernel", "dec_convt2.kernel", "cls_fc.weight"):
            assert np.abs(grads[key]).max() > 0.0
