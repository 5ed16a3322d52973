from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from allwas import barysample
from allwas.barysample import (
    KDE_BANDWIDTH_FLOOR,
    AugmentationConfig,
    _class_members,
    _RawDraws,
    augment_l2_kde,
    augment_wasserstein,
    barycenter_tokens,
)
from allwas.errors import AllwasError, ConfigError
from allwas.model import TrainingSet
from allwas.transport import barycenter_support_size
from oracles import mix_labels


def labeled_rows(tokens, classes, n_classes=2):
    """The labeled set of token matrices with one-hot class labels."""
    return TrainingSet(np.stack([t.mean(axis=0) for t in tokens]), np.eye(n_classes)[classes])


def labeled_set(rng, n=6, d=4, classes=2, tokens=(2, 5)):
    """(token matrices, labeled set) of n rows cycling through the classes."""
    mats = [rng.standard_normal((int(rng.integers(*tokens)), d)) for _ in range(n)]
    return mats, labeled_rows(mats, np.arange(n) % classes, classes)


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
        mats = [tokens.copy() for _ in range(3)]
        cfg = AugmentationConfig(factor=2, seed=1)
        out = augment_wasserstein(labeled_rows(mats, [0, 0, 0]), cfg)
        assert len(out) == 6
        for cloud in barycenter_tokens(mats, out, cfg):
            np.testing.assert_allclose(cloud, tokens, atol=1e-6)
        np.testing.assert_allclose(out.labels, np.tile([1.0, 0.0], (6, 1)), atol=1e-12)

    def test_single_token_midpoint(self, rng):
        u = rng.standard_normal(3)
        v = rng.standard_normal(3)
        mats = [u[None, :], v[None, :]]
        cfg = AugmentationConfig(factor=3, pairing="any-pair", seed=0)
        out = augment_wasserstein(labeled_rows(mats, [0, 0]), cfg)
        ends = {0: u, 1: v}
        clouds = barycenter_tokens(mats, out, cfg)
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
        mats, labeled = labeled_set(np.random.default_rng(data_seed), n=6, d=3, tokens=(1, 7))
        cfg = AugmentationConfig(factor=3, group_size=group_size, seed=data_seed,
                                 outer_iter=outer_iter, sinkhorn_max_iter=max_iter)
        out = augment_wasserstein(labeled, cfg)
        clouds = barycenter_tokens(mats, out, cfg)
        assert len(clouds) == len(out) == 18
        for cloud, pooled, lambdas, parents in zip(clouds, out.pooled, out.lambdas,
                                                   out.parents):
            expected = sum(lam * mats[i].mean(axis=0) for lam, i in zip(lambdas, parents))
            np.testing.assert_allclose(pooled, expected, rtol=0, atol=1e-12)
            np.testing.assert_allclose(cloud.mean(axis=0), pooled, rtol=0, atol=1e-12)

    def test_label_mixing_arithmetic(self):
        mixed = mix_labels([np.array([1.0, 0.0]), np.array([0.0, 1.0])], np.array([0.3, 0.7]))
        np.testing.assert_allclose(mixed, [0.3, 0.7], atol=1e-15)

    def test_factor_zero_is_empty(self, rng):
        mats, labeled = labeled_set(rng)
        cfg = AugmentationConfig(factor=0)
        out = augment_wasserstein(labeled, cfg)
        assert len(out) == 0
        assert out.parents.shape == out.lambdas.shape == (0, 2)
        assert barycenter_tokens(mats, out, cfg) == []

    def test_too_few_labeled_rejected(self, rng):
        _, labeled = labeled_set(rng, n=1)
        with pytest.raises(AllwasError):
            augment_wasserstein(labeled, AugmentationConfig(factor=1, group_size=2))

    def test_label_reconstructs_bitwise_from_provenance(self, rng):
        # Soft labels, so every class sums g terms and member order matters.
        mats, _ = labeled_set(rng, n=8, classes=3)
        soft = np.stack([rng.dirichlet(np.ones(3)) for _ in mats])
        labeled = TrainingSet(np.stack([t.mean(axis=0) for t in mats]), soft)
        cfg = AugmentationConfig(factor=4, pairing="any-pair", group_size=3, seed=9)
        out = augment_wasserstein(labeled, cfg)
        assert out.labels.shape == (32, 3)
        for label, parents, lambdas in zip(out.labels, out.parents, out.lambdas):
            recomputed = mix_labels([soft[i] for i in parents], lambdas)
            assert np.array_equal(label, recomputed)
            assert all(0 <= i < len(labeled) for i in parents)

    def test_token_count_follows_support_size_rule(self, rng):
        mats, labeled = labeled_set(rng, n=6)
        cfg = AugmentationConfig(factor=2, seed=4)
        out = augment_wasserstein(labeled, cfg)
        for cloud, parents, lambdas in zip(barycenter_tokens(mats, out, cfg),
                                           out.parents, out.lambdas):
            sizes = [mats[i].shape[0] for i in parents]
            assert cloud.shape[0] == barycenter_support_size(sizes, lambdas)

    def test_seeded_determinism(self, rng):
        mats, labeled = labeled_set(rng, n=6)
        cfg = AugmentationConfig(factor=3, seed=42)
        a = augment_wasserstein(labeled, cfg)
        b = augment_wasserstein(labeled, cfg)
        assert len(a) == len(b)
        for field in ("pooled", "labels", "parents", "lambdas"):
            assert np.array_equal(getattr(a, field), getattr(b, field))
        for x, y in zip(barycenter_tokens(mats, a, cfg), barycenter_tokens(mats, b, cfg)):
            assert np.array_equal(x, y)

    def test_minority_weighted_pairing_prefers_rare_class(self, rng):
        # 9 examples of class 0 vs 3 of class 1: inverse-frequency pairing
        # should source well over half the synthetics from class 1.
        mats = [rng.standard_normal((3, 4)) for _ in range(12)]
        cfg = AugmentationConfig(factor=20, seed=7)
        out = augment_wasserstein(labeled_rows(mats, [0] * 9 + [1] * 3), cfg)
        minority = np.sum(out.labels[:, 1] > 0.5)
        assert minority / len(out) > 0.6


class TestL2Kde:
    def test_repeated_point_floored_bandwidth(self, rng):
        point = rng.standard_normal(4)
        labeled = labeled_rows([point[None, :]] * 4, [0] * 4)
        cfg = AugmentationConfig(factor=250, seed=3)
        with pytest.warns(UserWarning, match="floored"):
            out = augment_l2_kde(labeled, cfg)
        assert len(out) == 1000
        # Gaussian tail bound: all draws within 5 floored bandwidths.
        assert np.all(np.abs(out.pooled - point) <= 5 * KDE_BANDWIDTH_FLOOR)

    def test_single_row_floors_bandwidth(self, rng):
        # One parent per row, so one labeled row feeds the KDE, whatever
        # group_size says.
        point = rng.standard_normal(4)
        with pytest.warns(UserWarning, match="class 1: degenerate embedding spread"):
            out = augment_l2_kde(labeled_rows([point[None, :]], [1]),
                                 AugmentationConfig(factor=50, group_size=3, seed=2))
        assert len(out) == 50
        assert np.all(out.parents == 0) and np.all(out.labels == [0.0, 1.0])
        assert np.all(np.abs(out.pooled - point) <= 5 * KDE_BANDWIDTH_FLOOR)

    def test_factor_zero_is_empty(self, rng):
        out = augment_l2_kde(labeled_set(rng)[1], AugmentationConfig(factor=0))
        assert len(out) == 0
        assert out.parents.shape == out.lambdas.shape == (0, 1)

    def test_class_proportions_match_weights(self, rng):
        # 8 examples of class 0, 2 of class 1; inverse-frequency weights are
        # (1/8, 1/2) -> normalized (0.2, 0.8). Multinomial 3-sigma check.
        mats = [rng.standard_normal((2, 3)) for _ in range(10)]
        cfg = AugmentationConfig(factor=200, seed=11)
        out = augment_l2_kde(labeled_rows(mats, [0] * 8 + [1] * 2), cfg)
        n = len(out)
        assert n == 2000
        minority = np.sum(out.labels.argmax(axis=1) == 1)
        expect = 0.8 * n
        sigma = np.sqrt(n * 0.8 * 0.2)
        assert abs(minority - expect) <= 3 * sigma

    def test_hard_labels_from_single_parent(self, rng):
        _, labeled = labeled_set(rng)
        out = augment_l2_kde(labeled, AugmentationConfig(factor=2, seed=5))
        assert out.pooled.shape == (12, 4)
        assert out.parents.shape == out.lambdas.shape == (12, 1)
        assert np.all(out.lambdas == 1.0)
        # One-hot on the parent's class.
        assert np.all(np.sort(out.labels, axis=1) == [0.0, 1.0])
        for label, (parent,) in zip(out.labels, out.parents):
            assert np.array_equal(label, labeled.y[parent])

    def test_seeded_determinism(self, rng):
        _, labeled = labeled_set(rng)
        cfg = AugmentationConfig(factor=2, seed=21)
        a = augment_l2_kde(labeled, cfg)
        b = augment_l2_kde(labeled, cfg)
        for field in ("pooled", "labels", "parents", "lambdas"):
            assert np.array_equal(getattr(a, field), getattr(b, field))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(data=st.data(), n_classes=st.integers(2, 6))
def test_class_members_match_unique_form(data, n_classes):
    # Keys from bincount, in place of np.unique: the same values and dtype,
    # in the same order, with the same members, classes left out included.
    present = data.draw(st.sets(st.integers(0, n_classes - 1), min_size=1), label="present")
    labels = data.draw(st.lists(st.sampled_from(sorted(present)), min_size=1, max_size=40),
                       label="labels")
    labeled = TrainingSet(np.zeros((len(labels), 2)), np.eye(n_classes)[labels])
    classes = labeled.y.argmax(axis=1)
    expected = {c: np.flatnonzero(classes == c) for c in np.unique(classes)}
    members = _class_members(labeled)
    assert [(k.item(), k.dtype) for k in members] == [(k.item(), k.dtype) for k in expected]
    for got, want in zip(members.values(), expected.values()):
        assert got.dtype == want.dtype and np.array_equal(got, want)


class TestRawDraws:
    """The raw-word draws against the numpy calls they rebuild, draw by
    draw, and the generator's state after each sequence, the buffered
    32-bit half included."""

    @staticmethod
    def pair(seed):
        """Two generators of one seed, and the raw-word draws of the first."""
        ours = np.random.default_rng(seed)
        return ours, _RawDraws(ours), np.random.default_rng(seed)

    @staticmethod
    def assert_same_state(ours, draws, numpy_rng):
        draws.sync()
        assert ours.bit_generator.state == numpy_rng.bit_generator.state

    # The last two bounds reject about half and a quarter of Lemire's
    # 32-bit draws.
    @pytest.mark.parametrize("n", [1, 2, 3, 135, 10_000, 2**31 + 1, 3 * 2**30])
    @pytest.mark.parametrize("seed", range(3))
    def test_below_matches_integers(self, n, seed):
        ours, draws, want = self.pair(seed)
        # random() takes a whole word and leaves the buffered half alone.
        for double in np.random.default_rng(seed + 100).random(300) < 0.3:
            if double:
                assert draws.random() == want.random()
            else:
                assert draws.below(n) == want.integers(0, n)
        self.assert_same_state(ours, draws, want)

    @pytest.mark.parametrize("g", range(2, 7))
    def test_choice_matches_floyd_sample(self, g):
        for n in sorted({g, g + 1, g + 2, 2 * g + 1, 16, 135, 1000, 9999, 10_000}):
            ours, draws, want = self.pair(n * 10 + g)
            for _ in range(20):
                assert draws.choice(n, g) == want.choice(n, size=g, replace=False).tolist()
            self.assert_same_state(ours, draws, want)

    def test_numpy_branches_get_the_buffered_half(self):
        # With replacement, or numpy's tail shuffle of range(n): each draws
        # right after a bounded draw that left a half buffered.
        ours, draws, want = self.pair(5)
        for n, g in [(1, 3), (2, 5), (20_000, 500), (10_001, 201), (20_000, 3)]:
            assert draws.below(7) == want.integers(0, 7)
            assert draws.choice(n, g) == want.choice(n, size=g, replace=n < g).tolist()
            assert draws.below(7) == want.integers(0, 7)
        self.assert_same_state(ours, draws, want)

    def test_gamma_and_normal_draws_skip_the_buffered_half(self):
        ours, draws, want = self.pair(9)
        for _ in range(50):
            assert draws.below(135) == want.integers(0, 135)
            assert np.array_equal(ours.standard_gamma(0.7, size=3),
                                  want.standard_gamma(0.7, size=3))
            assert np.array_equal(ours.dirichlet([0.05, 0.05]), want.dirichlet([0.05, 0.05]))
            assert np.array_equal(ours.standard_normal(4), want.standard_normal(4))
        self.assert_same_state(ours, draws, want)


class TestDrawStream:
    """The per-row draws are rebuilt from the generator's raw words, in
    place of ``rng.choice(n, p=p)``, ``rng.choice(n)`` and ``rng.choice(n,
    size=g, replace=...)``; both must give the very same stream and leave
    the generator in the very same state."""

    @pytest.fixture
    def labeled(self, rng):
        # Three classes of 11, 4 and 1 rows: the singleton class samples its
        # group with replacement.
        classes = [0] * 11 + [1] * 4 + [2]
        return labeled_rows([rng.standard_normal((2, 3)) for _ in classes], classes, 3)

    @staticmethod
    def choice_weights(labeled, pairing):
        classes = labeled.y.argmax(axis=1)
        members = {c: np.flatnonzero(classes == c) for c in np.unique(classes)}
        keys = np.array(sorted(members))
        counts = np.array([len(members[c]) for c in keys], dtype=np.float64)
        w = 1.0 / counts if pairing == "within-class-minority-weighted" else counts
        return members, keys, w / w.sum()

    @staticmethod
    def drawn(augment, labeled, cfg):
        """``augment``'s output and the generator it drew from."""
        made = []
        default_rng = np.random.default_rng

        def spy(seed):
            made.append(default_rng(seed))
            return made[-1]

        with mock.patch.object(barysample.np.random, "default_rng", spy):
            out = augment(labeled, cfg)
        (rng,) = made
        return out, rng

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
        out, used = self.drawn(augment_l2_kde, labeled, cfg)
        assert np.array_equal(out.parents[:, 0], parents)
        assert np.array_equal(out.labels.argmax(axis=1), classes)
        # A buffered 32-bit half not handed back would show only in a later
        # draw.
        assert used.bit_generator.state == rng.bit_generator.state

    # The lambdas are standard_gamma draws normalized as Generator.dirichlet
    # normalizes them, or dirichlet itself below alpha 0.1, where it
    # switches to stick-breaking: bitwise its draws either way.
    @pytest.mark.parametrize("alpha", [0.05, 0.1, 0.5, 1.0, 2.5])
    @pytest.mark.parametrize("group_size", [2, 3, 4])
    @pytest.mark.parametrize("pairing", ["within-class-minority-weighted", "any-pair"])
    def test_wasserstein_matches_choice_stream(self, labeled, alpha, group_size, pairing):
        cfg = AugmentationConfig(factor=80, group_size=group_size, dirichlet_alpha=alpha,
                                 pairing=pairing, seed=13)
        members, keys, p = self.choice_weights(labeled, cfg.pairing)
        rng = np.random.default_rng(cfg.seed)
        parents, lambdas = [], []
        for _ in range(cfg.factor * len(labeled)):
            if pairing == "any-pair":
                pool = np.arange(len(labeled))
            else:
                pool = members[keys[rng.choice(len(keys), p=p)]]
            replace = len(pool) < cfg.group_size
            parents.append(pool[rng.choice(len(pool), size=cfg.group_size, replace=replace)])
            lambdas.append(rng.dirichlet(np.full(cfg.group_size, cfg.dirichlet_alpha)))
        out, used = self.drawn(augment_wasserstein, labeled, cfg)
        assert np.array_equal(out.parents, parents)
        assert np.array_equal(out.lambdas, lambdas)
        assert used.bit_generator.state == rng.bit_generator.state
