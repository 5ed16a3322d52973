import math
import tracemalloc

import numpy as np
import pytest

from allwas import strategies
from allwas.errors import AllwasError, ConfigError
from allwas.model import ClassifierHead, TrainingSet, predict_proba_batch, train
from allwas.strategies import (
    OTConfig,
    acquire,
    acquire_allwas,
    acquire_egl,
    acquire_kcenter,
    acquire_least_confidence,
    acquire_mc_dropout,
    acquire_random,
)


@pytest.fixture
def trained_head(rng):
    tokens = [rng.standard_normal((2, 6)) + (3.0 if i % 2 == 0 else -3.0) for i in range(60)]
    head = ClassifierHead(input_dim=6, n_classes=2, hidden_dim=16, seed=0, epochs=20)
    return train(head, TrainingSet(rows(*tokens), np.eye(2)[np.arange(60) % 2]))


def make_pool(rng, n, d=6, offset=0.0):
    """Ids 0..n-1 and their pooled rows."""
    return list(range(n)), rows(*(rng.standard_normal((2, d)) + offset for _ in range(n)))


def rows(*tokens):
    """The pooled rows of token matrices."""
    return np.stack([t.mean(axis=0) for t in tokens])


def no_rows(d=6):
    return [], np.zeros((0, d))


class TestRandom:
    def test_whole_pool(self, rng):
        ids, _ = make_pool(rng, 5)
        assert sorted(acquire_random(ids, 5, seed=1)) == [0, 1, 2, 3, 4]

    def test_seeded_repeatability(self, rng):
        ids, _ = make_pool(rng, 30)
        assert acquire_random(ids, 10, seed=7) == acquire_random(ids, 10, seed=7)

    def test_uniform_frequencies(self, rng):
        ids, _ = make_pool(rng, 10)
        counts = np.zeros(10)
        draws = 10000
        for s in range(draws):
            for i in acquire_random(ids, 1, seed=s):
                counts[i] += 1
        expected = draws / 10
        sigma = np.sqrt(draws * 0.1 * 0.9)
        assert np.all(np.abs(counts - expected) <= 3 * sigma)

    def test_k_too_large(self, rng):
        with pytest.raises(AllwasError):
            acquire_random(make_pool(rng, 3)[0], 4)


class TestLeastConfidence:
    def test_pool_of_one(self, trained_head, rng):
        ids, x = make_pool(rng, 1)
        assert acquire_least_confidence(trained_head, ids, x, 1) == [0]

    def test_uncertain_beats_confident(self, trained_head, rng):
        sure, unsure = np.full((1, 6), 3.0), np.zeros((1, 6))
        assert acquire_least_confidence(trained_head, [0, 1], rows(sure, unsure), 1) == [1]

    def test_matches_full_sort(self, trained_head, rng):
        for _ in range(100):
            ids, x = make_pool(rng, 12)
            got = acquire_least_confidence(trained_head, ids, x, 4)
            conf = [(predict_proba_batch(trained_head, row[None, :]).max(), i)
                    for i, row in zip(ids, x)]
            expected = [i for _, i in sorted(conf)][:4]
            assert got == expected


class TestMcDropout:
    def test_single_pass_no_dropout_equals_lc(self, rng):
        data = TrainingSet(rows(*(rng.standard_normal((1, 6)) + (3 if i % 2 else -3)
                                  for i in range(40))), np.eye(2)[np.arange(40) % 2])
        head = train(ClassifierHead(input_dim=6, n_classes=2, hidden_dim=8,
                                    dropout=0.0, seed=1, epochs=10), data)
        ids, x = make_pool(rng, 15)
        assert (acquire_mc_dropout(head, ids, x, 5, passes=1, seed=3)
                == acquire_least_confidence(head, ids, x, 5))

    def test_seeded_determinism(self, trained_head, rng):
        ids, x = make_pool(rng, 15)
        a = acquire_mc_dropout(trained_head, ids, x, 5, passes=4, seed=9)
        b = acquire_mc_dropout(trained_head, ids, x, 5, passes=4, seed=9)
        assert a == b

    def test_averaged_probs_normalized(self, trained_head, rng):
        from allwas.seeding import derive_seed
        _, x = make_pool(rng, 8)
        mean = np.zeros((8, 2))
        for t in range(10):
            mean += predict_proba_batch(trained_head, x, dropout_active=True,
                                        seed=derive_seed(4, "mc-pass", t))
        mean /= 10
        np.testing.assert_allclose(mean.sum(axis=1), 1.0, atol=1e-9)


class TestEgl:
    def test_confident_sample_scores_near_zero(self, trained_head):
        sure, unsure = np.full((1, 6), 3.0), np.zeros((1, 6))
        assert acquire_egl(trained_head, [0, 1], rows(sure, unsure), 1) == [1]

    def test_score_matches_hand_computation(self):
        head = ClassifierHead(input_dim=2, n_classes=2, hidden_dim=2,
                              dropout=0.0, seed=0)
        head.w1 = np.array([[1.0, 0.0], [0.0, 1.0]])
        head.b1 = np.zeros(2)
        head.w2 = np.array([[1.0, -1.0], [0.5, 0.5]])
        head.b2 = np.zeros(2)
        h = np.tanh(np.array([0.3, 0.4]))
        logits = h @ head.w2
        e = np.exp(logits - logits.max())
        p = e / e.sum()
        # g_c = W2 (p - e_c); score = sum_c p_c ||g_c||.
        score = 0.0
        for c in range(2):
            onehot = np.zeros(2)
            onehot[c] = 1.0
            score += p[c] * np.linalg.norm(head.w2 @ (p - onehot))
        from allwas.model import gradient_arrays
        grads, probs = gradient_arrays(head, np.array([[0.3, 0.4]]))
        got = float(np.einsum("c,c->", probs[0],
                              np.linalg.norm(grads[0], axis=1)))
        assert got == pytest.approx(score, rel=1e-12)

    def test_topk_matches_full_sort(self, trained_head, rng):
        from allwas.model import gradient_arrays
        ids, x = make_pool(rng, 20)
        got = acquire_egl(trained_head, ids, x, 6)
        grads, probs = gradient_arrays(trained_head, x)
        scores = np.einsum("nc,nc->n", probs, np.linalg.norm(grads, axis=2))
        expected = [i for i in sorted(range(20), key=lambda j: (-scores[j], j))][:6]
        assert got == expected


class TestKCenter:
    def test_two_clusters_one_each(self, rng):
        left = [rng.standard_normal((1, 4)) - 10 for _ in range(5)]
        right = [rng.standard_normal((1, 4)) + 10 for _ in range(5)]
        got = acquire_kcenter(list(range(10)), rows(*left, *right),
                              labeled_x=np.zeros((0, 4)), k=2)
        assert len({0, 1, 2, 3, 4} & set(got)) == 1
        assert len({5, 6, 7, 8, 9} & set(got)) == 1

    def test_farthest_from_labeled(self, rng):
        labeled_x = rows(np.zeros((1, 4)))
        near, far = np.full((1, 4), 0.1), np.full((1, 4), 5.0)
        assert acquire_kcenter([0, 1], rows(near, far), labeled_x, 1) == [1]

    def test_deterministic_tie_break(self):
        point = np.zeros((1, 4))
        assert acquire_kcenter([3, 1, 2], rows(point, point, point), np.zeros((0, 4)), 2) == [1, 2]

    def test_labeled_rows_without_broadcast(self, rng):
        # A broadcast (N, L, d) difference array would be 46 MB here; one
        # center at a time needs a few pool-sized arrays.
        x, labeled_x = rng.standard_normal((1500, 32)), rng.standard_normal((120, 32))
        tracemalloc.start()
        try:
            got = acquire_kcenter(list(range(1500)), x, labeled_x, k=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * x.nbytes
        dist = np.sqrt(((x[:, None, :] - labeled_x[None, :, :]) ** 2).sum(-1)).min(axis=1)
        assert got == [int(dist.argmax())]


class TestAllwas:
    def test_duplicate_of_labeled_never_first(self, trained_head, rng):
        shared = rng.standard_normal((2, 6))
        ids, x = make_pool(rng, 6, offset=1.0)
        x[0] = shared.mean(axis=0)
        labeled_x = rows(shared.copy())
        got = acquire_allwas(trained_head, ids, x, [100], labeled_x, k=1)
        assert got[0] != 0

    def test_whole_pool_in_greedy_order(self, trained_head, rng):
        ids, x = make_pool(rng, 6)
        got = acquire_allwas(trained_head, ids, x, *no_rows(), k=6)
        assert sorted(got) == [0, 1, 2, 3, 4, 5]
        assert len(set(got)) == 6

    def test_invariant_to_pool_order(self, trained_head, rng):
        assert_invariant_to_pool_order("allwas", trained_head, rng)

    def test_subsample_seeded(self, trained_head, rng):
        ids, x = make_pool(rng, 30)
        cfg = OTConfig(subsample=10)
        a = acquire_allwas(trained_head, ids, x, *no_rows(), k=3, ot=cfg, seed=5)
        b = acquire_allwas(trained_head, ids, x, *no_rows(), k=3, ot=cfg, seed=5)
        assert a == b
        assert len(set(a)) == 3

    @pytest.mark.parametrize("field, bad", [
        ("max_iter", -5), ("max_iter", 0), ("tol", -1.0), ("tol", 0.0),
        ("tol", float("nan")), ("subsample", 0), ("subsample", -3), ("p", 0.5),
        ("p", float("nan"))])
    def test_bad_values_rejected(self, field, bad):
        with pytest.raises(ConfigError, match=f"ot {field} must be"):
            OTConfig(**{field: bad})

    @pytest.mark.parametrize("p", [2.0, 1.0])
    def test_distance_path_by_p(self, trained_head, rng, monkeypatch, p):
        # At p = 2 the matrix comes from the probabilities and w2 alone;
        # other p build the gradient measures and the generic matrix.
        called = []

        def spy(name):
            real = getattr(strategies, name)

            def wrapped(*args, **kwargs):
                if p == 2:
                    raise AssertionError(f"{name} called at p = 2")
                called.append(name)
                return real(*args, **kwargs)
            return wrapped

        for name in ("gradient_arrays", "pairwise_wasserstein"):
            monkeypatch.setattr(strategies, name, spy(name))
        ids, x = make_pool(rng, 8)
        got = acquire_allwas(trained_head, ids, x, [100], rows(rng.standard_normal((2, 6))),
                             k=3, ot=OTConfig(p=p))
        assert len(set(got)) == 3
        assert called == ([] if p == 2 else ["gradient_arrays", "pairwise_wasserstein"])

    @pytest.mark.parametrize("subsample, n", [(None, 31), (10, 11)])
    def test_oversize_matrix_refused_before_any_work(self, trained_head, rng, monkeypatch,
                                                     subsample, n):
        # N is the (subsampled) pool plus the labeled row. One byte under
        # its N x N float64 matrix, nothing is predicted or computed.
        ids, x = make_pool(rng, 30)
        labeled = ([100], rows(rng.standard_normal((2, 6))))
        cfg = OTConfig(subsample=subsample)
        monkeypatch.setattr(strategies, "_MATRIX_BYTES", 8 * n * n)
        assert len(acquire_allwas(trained_head, ids, x, *labeled, k=3, ot=cfg)) == 3
        monkeypatch.setattr(strategies, "_MATRIX_BYTES", 8 * n * n - 1)
        for name in ("predict_proba_batch", "gradient_arrays", "pairwise_w2_exact",
                     "pairwise_wasserstein"):
            monkeypatch.setattr(strategies, name, None)
        with pytest.raises(ConfigError, match=rf"^ot\.subsample: .* N = {n} rows"):
            acquire_allwas(trained_head, ids, x, *labeled, k=3, ot=cfg)

    def test_head_past_vertex_cap_takes_generic_path(self, rng, monkeypatch):
        # Eight classes have 3432 dual vertices, past the cap of 924.
        head = ClassifierHead(input_dim=6, n_classes=8, hidden_dim=4, seed=0, epochs=1)
        head = train(head, TrainingSet(rng.standard_normal((16, 6)), np.eye(8)[np.arange(16) % 8]))
        assert math.comb(14, 7) > strategies._EXACT_MAX_VERTICES
        monkeypatch.setattr(strategies, "pairwise_w2_exact", None)
        ids, x = make_pool(rng, 5)
        assert len(acquire_allwas(head, ids, x, *no_rows(), k=2, ot=OTConfig(max_iter=5))) == 2


def assert_invariant_to_pool_order(name, head, rng):
    # String ids, every row twice: the picks and their order must follow
    # the rows and the ids, not the pool order, with ties to the lowest id.
    _, half = make_pool(rng, 6)
    x = np.concatenate([half, half])
    ids = [f"id{i:02d}" for i in range(12)]
    labeled_x = rows(rng.standard_normal((2, 6)))
    base = acquire(name, head, ids, x, ["lab"], labeled_x, k=4, seed=2)
    for _ in range(3):
        perm = rng.permutation(12)
        again = acquire(name, head, [ids[i] for i in perm], x[perm],
                        ["lab"], labeled_x, k=4, seed=2)
        assert again == base


@pytest.mark.parametrize("name", ["lc", "dropout", "egl", "kcenter"])
def test_invariant_to_pool_order(trained_head, rng, name):
    assert_invariant_to_pool_order(name, trained_head, rng)


class TestDispatch:
    def test_all_names_return_k_distinct_pool_ids(self, trained_head, rng):
        ids, x = make_pool(rng, 12)
        labeled_x = rows(rng.standard_normal((2, 6)))
        for name in ("random", "lc", "dropout", "egl", "kcenter", "allwas"):
            got = acquire(name, trained_head, ids, x, [100], labeled_x, k=4, seed=2)
            assert len(got) == 4
            assert len(set(got)) == 4
            assert set(got) <= set(ids)

    def test_unknown_name(self, trained_head, rng):
        with pytest.raises(ConfigError):
            acquire("mystery", trained_head, *make_pool(rng, 4), *no_rows(), k=1)
