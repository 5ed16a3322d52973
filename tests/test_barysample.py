import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from allwas.barysample import (
    KDE_BANDWIDTH_FLOOR,
    AugmentationConfig,
    augment_l2_kde,
    augment_wasserstein,
    barycenter_tokens,
    mix_labels,
)
from allwas.errors import AllwasError, ConfigError
from allwas.model import ExampleEmbedding, SoftLabel, TrainingSet
from allwas.transport import barycenter_support_size


def labeled_set(rng, n=6, d=4, classes=2, tokens=(2, 5)):
    out = []
    for i in range(n):
        t = int(rng.integers(*tokens))
        emb = ExampleEmbedding(rng.standard_normal((t, d)))
        out.append((emb, SoftLabel.one_hot(i % classes, classes)))
    return out


def embeddings(labeled):
    return [emb for emb, _ in labeled]


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
        cfg = AugmentationConfig(factor=2, seed=1)
        out = augment_wasserstein(TrainingSet.from_pairs(labeled), cfg)
        assert len(out) == 6
        for cloud in barycenter_tokens(embeddings(labeled), out, cfg):
            np.testing.assert_allclose(cloud, tokens, atol=1e-6)
        np.testing.assert_allclose(out.labels, np.tile([1.0, 0.0], (6, 1)), atol=1e-12)

    def test_single_token_midpoint(self, rng):
        u = rng.standard_normal(3)
        v = rng.standard_normal(3)
        labeled = [
            (ExampleEmbedding(u[None, :]), SoftLabel.one_hot(0, 2)),
            (ExampleEmbedding(v[None, :]), SoftLabel.one_hot(0, 2)),
        ]
        cfg = AugmentationConfig(factor=3, pairing="any-pair", seed=0)
        out = augment_wasserstein(TrainingSet.from_pairs(labeled), cfg)
        ends = {0: u, 1: v}
        clouds = barycenter_tokens(embeddings(labeled), out, cfg)
        for cloud, lam, (first, second) in zip(clouds, out.lambdas, out.parents):
            expected = lam[0] * ends[first] + lam[1] * ends[second]
            assert cloud.shape == (1, 3)
            np.testing.assert_allclose(cloud[0], expected, atol=1e-9)

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(data_seed=st.integers(0, 2**32 - 1),
           max_iter=st.sampled_from([1, 2, 5, 60]), outer_iter=st.sampled_from([1, 3]),
           group_size=st.integers(2, 3))
    def test_pooled_is_lambda_mix_of_parents(self, data_seed, max_iter, outer_iter,
                                             group_size):
        # Barycentric projection through feasible plans keeps the token mean:
        # mean_s cond_mean_s = sum_i lambda_i mean(X_i), whatever the budget,
        # so the pooled rows are the barycenters' token means.
        labeled = labeled_set(np.random.default_rng(data_seed), n=6, d=3, tokens=(1, 7))
        cfg = AugmentationConfig(factor=3, group_size=group_size, seed=data_seed,
                                 outer_iter=outer_iter, sinkhorn_max_iter=max_iter)
        out = augment_wasserstein(TrainingSet.from_pairs(labeled), cfg)
        clouds = barycenter_tokens(embeddings(labeled), out, cfg)
        assert len(clouds) == len(out) == 18
        for cloud, pooled, lambdas, parents in zip(clouds, out.pooled, out.lambdas,
                                                   out.parents):
            expected = sum(lam * labeled[i][0].pooled for lam, i in zip(lambdas, parents))
            np.testing.assert_allclose(pooled, expected, rtol=0, atol=1e-12)
            np.testing.assert_allclose(cloud.mean(axis=0), pooled, rtol=0, atol=1e-12)

    def test_label_mixing_arithmetic(self):
        la = SoftLabel(np.array([1.0, 0.0]))
        lb = SoftLabel(np.array([0.0, 1.0]))
        mixed = mix_labels([la, lb], np.array([0.3, 0.7]))
        np.testing.assert_allclose(mixed.probs, [0.3, 0.7], atol=1e-15)

    def test_factor_zero_is_empty(self, rng):
        labeled = labeled_set(rng)
        cfg = AugmentationConfig(factor=0)
        out = augment_wasserstein(TrainingSet.from_pairs(labeled), cfg)
        assert len(out) == 0
        assert out.parents.shape == out.lambdas.shape == (0, 2)
        assert barycenter_tokens(embeddings(labeled), out, cfg) == []

    def test_too_few_labeled_rejected(self, rng):
        labeled = labeled_set(rng, n=1)
        with pytest.raises(AllwasError):
            augment_wasserstein(TrainingSet.from_pairs(labeled),
                                AugmentationConfig(factor=1, group_size=2))

    def test_label_reconstructs_bitwise_from_provenance(self, rng):
        # Soft labels, so every class sums g terms and member order matters.
        labeled = [(emb, SoftLabel(rng.dirichlet(np.ones(3))))
                   for emb, _ in labeled_set(rng, n=8, classes=3)]
        cfg = AugmentationConfig(factor=4, pairing="any-pair", group_size=3, seed=9)
        out = augment_wasserstein(TrainingSet.from_pairs(labeled), cfg)
        assert out.labels.shape == (32, 3)
        for label, parents, lambdas in zip(out.labels, out.parents, out.lambdas):
            recomputed = mix_labels([labeled[i][1] for i in parents], lambdas)
            assert np.array_equal(label, recomputed.probs)
            assert all(0 <= i < len(labeled) for i in parents)

    def test_token_count_follows_support_size_rule(self, rng):
        labeled = labeled_set(rng, n=6)
        cfg = AugmentationConfig(factor=2, seed=4)
        out = augment_wasserstein(TrainingSet.from_pairs(labeled), cfg)
        for cloud, parents, lambdas in zip(barycenter_tokens(embeddings(labeled), out, cfg),
                                           out.parents, out.lambdas):
            sizes = [labeled[i][0].n_tokens for i in parents]
            assert cloud.shape[0] == barycenter_support_size(sizes, lambdas)

    def test_seeded_determinism(self, rng):
        labeled = labeled_set(rng, n=6)
        cfg = AugmentationConfig(factor=3, seed=42)
        a = augment_wasserstein(TrainingSet.from_pairs(labeled), cfg)
        b = augment_wasserstein(TrainingSet.from_pairs(labeled), cfg)
        assert len(a) == len(b)
        for field in ("pooled", "labels", "parents", "lambdas"):
            assert np.array_equal(getattr(a, field), getattr(b, field))
        for x, y in zip(barycenter_tokens(embeddings(labeled), a, cfg),
                        barycenter_tokens(embeddings(labeled), b, cfg)):
            assert np.array_equal(x, y)

    def test_minority_weighted_pairing_prefers_rare_class(self, rng):
        # 9 examples of class 0 vs 3 of class 1: inverse-frequency pairing
        # should source well over half the synthetics from class 1.
        labeled = []
        for i in range(12):
            cls = 0 if i < 9 else 1
            emb = ExampleEmbedding(rng.standard_normal((3, 4)))
            labeled.append((emb, SoftLabel.one_hot(cls, 2)))
        cfg = AugmentationConfig(factor=20, seed=7)
        out = augment_wasserstein(TrainingSet.from_pairs(labeled), cfg)
        minority = np.sum(out.labels[:, 1] > 0.5)
        assert minority / len(out) > 0.6


class TestL2Kde:
    def test_repeated_point_floored_bandwidth(self, rng):
        point = rng.standard_normal(4)
        labeled = [(ExampleEmbedding(point[None, :]), SoftLabel.one_hot(0, 2))
                   for _ in range(4)]
        cfg = AugmentationConfig(factor=250, seed=3)
        with pytest.warns(UserWarning, match="floored"):
            out = augment_l2_kde(TrainingSet.from_pairs(labeled), cfg)
        assert len(out) == 1000
        # Gaussian tail bound: all draws within 5 floored bandwidths.
        assert np.all(np.abs(out.pooled - point) <= 5 * KDE_BANDWIDTH_FLOOR)

    def test_factor_zero_is_empty(self, rng):
        out = augment_l2_kde(TrainingSet.from_pairs(labeled_set(rng)),
                             AugmentationConfig(factor=0))
        assert len(out) == 0
        assert out.parents.shape == out.lambdas.shape == (0, 1)

    def test_class_proportions_match_weights(self, rng):
        # 8 examples of class 0, 2 of class 1; inverse-frequency weights are
        # (1/8, 1/2) -> normalized (0.2, 0.8). Multinomial 3-sigma check.
        labeled = []
        for i in range(10):
            cls = 0 if i < 8 else 1
            labeled.append((ExampleEmbedding(rng.standard_normal((2, 3))),
                            SoftLabel.one_hot(cls, 2)))
        cfg = AugmentationConfig(factor=200, seed=11)
        out = augment_l2_kde(TrainingSet.from_pairs(labeled), cfg)
        n = len(out)
        assert n == 2000
        minority = np.sum(out.labels.argmax(axis=1) == 1)
        expect = 0.8 * n
        sigma = np.sqrt(n * 0.8 * 0.2)
        assert abs(minority - expect) <= 3 * sigma

    def test_hard_labels_from_single_parent(self, rng):
        labeled = labeled_set(rng)
        out = augment_l2_kde(TrainingSet.from_pairs(labeled),
                             AugmentationConfig(factor=2, seed=5))
        assert out.pooled.shape == (12, 4)
        assert out.parents.shape == out.lambdas.shape == (12, 1)
        assert np.all(out.lambdas == 1.0)
        # One-hot on the parent's class.
        assert np.all(np.sort(out.labels, axis=1) == [0.0, 1.0])
        for label, (parent,) in zip(out.labels, out.parents):
            assert np.array_equal(label, labeled[parent][1].probs)

    def test_seeded_determinism(self, rng):
        labeled = labeled_set(rng)
        cfg = AugmentationConfig(factor=2, seed=21)
        a = augment_l2_kde(TrainingSet.from_pairs(labeled), cfg)
        b = augment_l2_kde(TrainingSet.from_pairs(labeled), cfg)
        for field in ("pooled", "labels", "parents", "lambdas"):
            assert np.array_equal(getattr(a, field), getattr(b, field))


class TestDrawStream:
    """The per-row draws use ``cdf.searchsorted(rng.random())`` and
    ``rng.integers(0, n)`` in place of ``rng.choice(n, p=p)`` and
    ``rng.choice(n)``; both pairs must give the very same stream."""

    @pytest.fixture
    def labeled(self, rng):
        # Three classes of 11, 4 and 1 rows: the singleton class samples its
        # group with replacement.
        classes = [0] * 11 + [1] * 4 + [2]
        pairs = [(ExampleEmbedding(rng.standard_normal((2, 3))), SoftLabel.one_hot(c, 3))
                 for c in classes]
        return TrainingSet.from_pairs(pairs)

    @staticmethod
    def choice_weights(labeled, pairing):
        classes = labeled.y.argmax(axis=1)
        members = {c: np.flatnonzero(classes == c) for c in np.unique(classes)}
        keys = np.array(sorted(members))
        counts = np.array([len(members[c]) for c in keys], dtype=np.float64)
        w = 1.0 / counts if pairing == "within-class-minority-weighted" else counts
        return members, keys, w / w.sum()

    @pytest.mark.filterwarnings("ignore:.*degenerate embedding spread")
    @pytest.mark.parametrize("pairing", ["within-class-minority-weighted", "any-pair"])
    def test_kde_matches_choice_stream(self, labeled, pairing):
        cfg = AugmentationConfig(factor=80, pairing=pairing, seed=13)
        members, keys, p = self.choice_weights(labeled, pairing)
        rng = np.random.default_rng(cfg.seed)
        classes, parents = [], []
        for _ in range(cfg.factor * len(labeled)):
            cls = keys[rng.choice(len(keys), p=p)]
            pool = members[cls]
            parents.append(pool[rng.choice(len(pool))])
            classes.append(cls)
            rng.standard_normal(labeled.x.shape[1])
        out = augment_l2_kde(labeled, cfg)
        assert np.array_equal(out.parents[:, 0], parents)
        assert np.array_equal(out.labels.argmax(axis=1), classes)

    def test_wasserstein_matches_choice_stream(self, labeled):
        cfg = AugmentationConfig(factor=80, group_size=3, seed=13)
        members, keys, p = self.choice_weights(labeled, cfg.pairing)
        rng = np.random.default_rng(cfg.seed)
        parents = []
        for _ in range(cfg.factor * len(labeled)):
            pool = members[keys[rng.choice(len(keys), p=p)]]
            replace = len(pool) < cfg.group_size
            parents.append(pool[rng.choice(len(pool), size=cfg.group_size, replace=replace)])
            rng.dirichlet(np.full(cfg.group_size, cfg.dirichlet_alpha))
        out = augment_wasserstein(labeled, cfg)
        assert np.array_equal(out.parents, parents)
