import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from allwas.barysample import (
    KDE_BANDWIDTH_FLOOR,
    AugmentationConfig,
    augment_l2_kde,
    augment_wasserstein,
    mix_labels,
)
from allwas.errors import AllwasError, ConfigError
from allwas.model import ExampleEmbedding, SoftLabel
from allwas.transport import barycenter_support_size


def labeled_set(rng, n=6, d=4, classes=2, tokens=(2, 5)):
    out = []
    for i in range(n):
        t = int(rng.integers(*tokens))
        emb = ExampleEmbedding(rng.standard_normal((t, d)))
        out.append((emb, SoftLabel.one_hot(i % classes, classes)))
    return out


class TestConfig:
    def test_negative_factor_rejected(self):
        with pytest.raises(ConfigError):
            AugmentationConfig(factor=-1)

    def test_group_size_minimum(self):
        with pytest.raises(ConfigError):
            AugmentationConfig(group_size=1)

    @pytest.mark.parametrize("alpha", [0.0, -1.0, float("nan")])
    def test_nonpositive_dirichlet_alpha_rejected(self, alpha):
        with pytest.raises(ConfigError, match="dirichlet_alpha"):
            AugmentationConfig(dirichlet_alpha=alpha)


class TestWasserstein:
    def test_identical_parents_reproduce_original(self, rng):
        tokens = rng.standard_normal((4, 3))
        labeled = [(ExampleEmbedding(tokens.copy()), SoftLabel.one_hot(0, 2))
                   for _ in range(3)]
        out = augment_wasserstein(labeled, AugmentationConfig(factor=2, seed=1))
        assert len(out) == 6
        for syn in out:
            np.testing.assert_allclose(syn.embedding.tokens, tokens, atol=1e-6)
            np.testing.assert_allclose(syn.label.probs, [1.0, 0.0], atol=1e-12)

    def test_single_token_midpoint(self, rng):
        u = rng.standard_normal(3)
        v = rng.standard_normal(3)
        labeled = [
            (ExampleEmbedding(u[None, :]), SoftLabel.one_hot(0, 2)),
            (ExampleEmbedding(v[None, :]), SoftLabel.one_hot(0, 2)),
        ]
        cfg = AugmentationConfig(factor=3, pairing="any-pair", seed=0)
        out = augment_wasserstein(labeled, cfg)
        for syn in out:
            lam = syn.lambdas
            first, second = syn.parent_ids
            ends = {0: u, 1: v}
            expected = lam[0] * ends[first] + lam[1] * ends[second]
            assert syn.embedding.tokens.shape == (1, 3)
            np.testing.assert_allclose(syn.embedding.tokens[0], expected, atol=1e-9)

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(data_seed=st.integers(0, 2**32 - 1),
           max_iter=st.sampled_from([1, 2, 5, 60]), outer_iter=st.sampled_from([1, 3]),
           group_size=st.integers(2, 3))
    def test_pooled_is_lambda_mix_of_parents(self, data_seed, max_iter, outer_iter,
                                             group_size):
        # Barycentric projection through feasible plans keeps the token mean:
        # mean_s cond_mean_s = sum_i lambda_i mean(X_i), whatever the budget.
        labeled = labeled_set(np.random.default_rng(data_seed), n=6, d=3, tokens=(1, 7))
        cfg = AugmentationConfig(factor=3, group_size=group_size, seed=data_seed,
                                 outer_iter=outer_iter, sinkhorn_max_iter=max_iter)
        for syn in augment_wasserstein(labeled, cfg):
            expected = sum(lam * labeled[i][0].pooled
                           for lam, i in zip(syn.lambdas, syn.parent_ids))
            np.testing.assert_allclose(syn.embedding.pooled, expected, rtol=0, atol=1e-12)

    def test_label_mixing_arithmetic(self):
        la = SoftLabel(np.array([1.0, 0.0]))
        lb = SoftLabel(np.array([0.0, 1.0]))
        mixed = mix_labels([la, lb], np.array([0.3, 0.7]))
        np.testing.assert_allclose(mixed.probs, [0.3, 0.7], atol=1e-15)

    def test_factor_zero_is_empty(self, rng):
        assert augment_wasserstein(labeled_set(rng), AugmentationConfig(factor=0)) == []

    def test_too_few_labeled_rejected(self, rng):
        labeled = labeled_set(rng, n=1)
        with pytest.raises(AllwasError):
            augment_wasserstein(labeled, AugmentationConfig(factor=1, group_size=2))

    def test_label_reconstructs_bitwise_from_provenance(self, rng):
        labeled = labeled_set(rng, n=8, classes=3)
        cfg = AugmentationConfig(factor=4, pairing="any-pair", group_size=3, seed=9)
        for syn in augment_wasserstein(labeled, cfg):
            recomputed = mix_labels([labeled[i][1] for i in syn.parent_ids], syn.lambdas)
            assert np.array_equal(syn.label.probs, recomputed.probs)
            assert all(0 <= i < len(labeled) for i in syn.parent_ids)

    def test_token_count_follows_support_size_rule(self, rng):
        labeled = labeled_set(rng, n=6)
        cfg = AugmentationConfig(factor=2, seed=4)
        for syn in augment_wasserstein(labeled, cfg):
            sizes = [labeled[i][0].n_tokens for i in syn.parent_ids]
            assert syn.embedding.n_tokens == barycenter_support_size(sizes, syn.lambdas)

    def test_seeded_determinism(self, rng):
        labeled = labeled_set(rng, n=6)
        cfg = AugmentationConfig(factor=3, seed=42)
        a = augment_wasserstein(labeled, cfg)
        b = augment_wasserstein(labeled, cfg)
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert np.array_equal(x.embedding.tokens, y.embedding.tokens)
            assert np.array_equal(x.label.probs, y.label.probs)
            assert x.parent_ids == y.parent_ids

    def test_minority_weighted_pairing_prefers_rare_class(self, rng):
        # 9 examples of class 0 vs 3 of class 1: inverse-frequency pairing
        # should source well over half the synthetics from class 1.
        labeled = []
        for i in range(12):
            cls = 0 if i < 9 else 1
            emb = ExampleEmbedding(rng.standard_normal((3, 4)))
            labeled.append((emb, SoftLabel.one_hot(cls, 2)))
        cfg = AugmentationConfig(factor=20, seed=7)
        out = augment_wasserstein(labeled, cfg)
        minority = sum(1 for syn in out if syn.label.probs[1] > 0.5)
        assert minority / len(out) > 0.6


class TestL2Kde:
    def test_repeated_point_floored_bandwidth(self, rng):
        point = rng.standard_normal(4)
        labeled = [(ExampleEmbedding(point[None, :]), SoftLabel.one_hot(0, 2))
                   for _ in range(4)]
        cfg = AugmentationConfig(factor=250, seed=3)
        with pytest.warns(UserWarning, match="floored"):
            out = augment_l2_kde(labeled, cfg)
        assert len(out) == 1000
        pooled = np.stack([syn.embedding.pooled for syn in out])
        # Gaussian tail bound: all draws within 5 floored bandwidths.
        assert np.all(np.abs(pooled - point) <= 5 * KDE_BANDWIDTH_FLOOR)

    def test_factor_zero_is_empty(self, rng):
        assert augment_l2_kde(labeled_set(rng), AugmentationConfig(factor=0)) == []

    def test_class_proportions_match_weights(self, rng):
        # 8 examples of class 0, 2 of class 1; inverse-frequency weights are
        # (1/8, 1/2) -> normalized (0.2, 0.8). Multinomial 3-sigma check.
        labeled = []
        for i in range(10):
            cls = 0 if i < 8 else 1
            labeled.append((ExampleEmbedding(rng.standard_normal((2, 3))),
                            SoftLabel.one_hot(cls, 2)))
        cfg = AugmentationConfig(factor=200, seed=11)
        out = augment_l2_kde(labeled, cfg)
        n = len(out)
        assert n == 2000
        minority = sum(1 for syn in out if syn.label.hard == 1)
        expect = 0.8 * n
        sigma = np.sqrt(n * 0.8 * 0.2)
        assert abs(minority - expect) <= 3 * sigma

    def test_hard_labels_and_single_row_tokens(self, rng):
        out = augment_l2_kde(labeled_set(rng), AugmentationConfig(factor=2, seed=5))
        for syn in out:
            assert syn.embedding.n_tokens == 1
            assert np.isclose(syn.label.probs.max(), 1.0)

    def test_seeded_determinism(self, rng):
        labeled = labeled_set(rng)
        cfg = AugmentationConfig(factor=2, seed=21)
        a = augment_l2_kde(labeled, cfg)
        b = augment_l2_kde(labeled, cfg)
        for x, y in zip(a, b):
            assert np.array_equal(x.embedding.tokens, y.embedding.tokens)
            assert x.parent_ids == y.parent_ids
