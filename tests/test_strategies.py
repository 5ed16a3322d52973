import numpy as np
import pytest

from allwas.errors import AllwasError, ConfigError
from allwas.model import ClassifierHead, ExampleEmbedding, SoftLabel, train
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
    data = []
    for i in range(60):
        cls = i % 2
        center = 3.0 if cls == 0 else -3.0
        emb = ExampleEmbedding(rng.standard_normal((2, 6)) + center)
        data.append((emb, SoftLabel.one_hot(cls, 2)))
    head = ClassifierHead(input_dim=6, n_classes=2, hidden_dim=16, seed=0, epochs=20)
    return train(head, data)


def make_pool(rng, n, d=6, offset=0.0):
    return [(i, ExampleEmbedding(rng.standard_normal((2, d)) + offset))
            for i in range(n)]


class TestRandom:
    def test_whole_pool(self, rng):
        pool = make_pool(rng, 5)
        assert sorted(acquire_random(pool, 5, seed=1)) == [0, 1, 2, 3, 4]

    def test_seeded_repeatability(self, rng):
        pool = make_pool(rng, 30)
        assert acquire_random(pool, 10, seed=7) == acquire_random(pool, 10, seed=7)

    def test_uniform_frequencies(self, rng):
        pool = make_pool(rng, 10)
        counts = np.zeros(10)
        draws = 10000
        for s in range(draws):
            for i in acquire_random(pool, 1, seed=s):
                counts[i] += 1
        expected = draws / 10
        sigma = np.sqrt(draws * 0.1 * 0.9)
        assert np.all(np.abs(counts - expected) <= 3 * sigma)

    def test_k_too_large(self, rng):
        with pytest.raises(AllwasError):
            acquire_random(make_pool(rng, 3), 4)


class TestLeastConfidence:
    def test_pool_of_one(self, trained_head, rng):
        pool = make_pool(rng, 1)
        assert acquire_least_confidence(trained_head, pool, 1) == [0]

    def test_uncertain_beats_confident(self, trained_head, rng):
        sure = ExampleEmbedding(np.full((1, 6), 3.0))
        unsure = ExampleEmbedding(np.zeros((1, 6)))
        pool = [(0, sure), (1, unsure)]
        assert acquire_least_confidence(trained_head, pool, 1) == [1]

    def test_matches_full_sort(self, trained_head, rng):
        from allwas.model import predict_proba
        for _ in range(100):
            pool = make_pool(rng, 12)
            got = acquire_least_confidence(trained_head, pool, 4)
            conf = [(predict_proba(trained_head, emb).probs.max(), i)
                    for i, emb in pool]
            expected = [i for _, i in sorted(conf)][:4]
            assert got == expected


class TestMcDropout:
    def test_single_pass_no_dropout_equals_lc(self, rng):
        data = [(ExampleEmbedding(rng.standard_normal((1, 6)) + (3 if i % 2 else -3)),
                 SoftLabel.one_hot(i % 2, 2)) for i in range(40)]
        head = train(ClassifierHead(input_dim=6, n_classes=2, hidden_dim=8,
                                    dropout=0.0, seed=1, epochs=10), data)
        pool = make_pool(rng, 15)
        assert (acquire_mc_dropout(head, pool, 5, passes=1, seed=3)
                == acquire_least_confidence(head, pool, 5))

    def test_seeded_determinism(self, trained_head, rng):
        pool = make_pool(rng, 15)
        a = acquire_mc_dropout(trained_head, pool, 5, passes=4, seed=9)
        b = acquire_mc_dropout(trained_head, pool, 5, passes=4, seed=9)
        assert a == b

    def test_averaged_probs_normalized(self, trained_head, rng):
        from allwas.model import predict_proba_batch
        from allwas.seeding import derive_seed
        pool = make_pool(rng, 8)
        x = np.stack([emb.pooled for _, emb in pool])
        mean = np.zeros((8, 2))
        for t in range(10):
            mean += predict_proba_batch(trained_head, x, dropout_active=True,
                                        seed=derive_seed(4, "mc-pass", t))
        mean /= 10
        np.testing.assert_allclose(mean.sum(axis=1), 1.0, atol=1e-9)


class TestEgl:
    def test_confident_sample_scores_near_zero(self, trained_head):
        sure = ExampleEmbedding(np.full((1, 6), 3.0))
        unsure = ExampleEmbedding(np.zeros((1, 6)))
        pool = [(0, sure), (1, unsure)]
        assert acquire_egl(trained_head, pool, 1) == [1]

    def test_score_matches_hand_computation(self):
        head = ClassifierHead(input_dim=2, n_classes=2, hidden_dim=2,
                              dropout=0.0, seed=0)
        head.w1 = np.array([[1.0, 0.0], [0.0, 1.0]])
        head.b1 = np.zeros(2)
        head.w2 = np.array([[1.0, -1.0], [0.5, 0.5]])
        head.b2 = np.zeros(2)
        x = ExampleEmbedding(np.array([[0.3, 0.4]]))
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
        grads, probs = gradient_arrays(head, x.pooled[None, :])
        got = float(np.einsum("c,c->", probs[0],
                              np.linalg.norm(grads[0], axis=1)))
        assert got == pytest.approx(score, rel=1e-12)

    def test_topk_matches_full_sort(self, trained_head, rng):
        from allwas.model import gradient_arrays
        pool = make_pool(rng, 20)
        got = acquire_egl(trained_head, pool, 6)
        x = np.stack([emb.pooled for _, emb in pool])
        grads, probs = gradient_arrays(trained_head, x)
        scores = np.einsum("nc,nc->n", probs, np.linalg.norm(grads, axis=2))
        expected = [i for i in sorted(range(20), key=lambda j: (-scores[j], j))][:6]
        assert got == expected


class TestKCenter:
    def test_two_clusters_one_each(self, rng):
        left = [(i, ExampleEmbedding(rng.standard_normal((1, 4)) - 10))
                for i in range(5)]
        right = [(5 + i, ExampleEmbedding(rng.standard_normal((1, 4)) + 10))
                 for i in range(5)]
        pool = left + right
        got = acquire_kcenter(pool, labeled=[], k=2)
        assert len({0, 1, 2, 3, 4} & set(got)) == 1
        assert len({5, 6, 7, 8, 9} & set(got)) == 1

    def test_farthest_from_labeled(self, rng):
        labeled = [(100, ExampleEmbedding(np.zeros((1, 4))))]
        near = (0, ExampleEmbedding(np.full((1, 4), 0.1)))
        far = (1, ExampleEmbedding(np.full((1, 4), 5.0)))
        assert acquire_kcenter([near, far], labeled, 1) == [1]

    def test_deterministic_tie_break(self):
        emb = ExampleEmbedding(np.zeros((1, 4)))
        pool = [(3, emb), (1, emb), (2, emb)]
        assert acquire_kcenter(pool, [], 2) == [1, 2]


class TestAllwas:
    def test_duplicate_of_labeled_never_first(self, trained_head, rng):
        shared = ExampleEmbedding(rng.standard_normal((2, 6)))
        pool = [(0, shared)] + make_pool(rng, 6, offset=1.0)[1:]
        labeled = [(100, ExampleEmbedding(shared.tokens.copy()))]
        got = acquire_allwas(trained_head, pool, labeled, k=1)
        assert got[0] != 0

    def test_whole_pool_in_greedy_order(self, trained_head, rng):
        pool = make_pool(rng, 6)
        got = acquire_allwas(trained_head, pool, [], k=6)
        assert sorted(got) == [0, 1, 2, 3, 4, 5]
        assert len(set(got)) == 6

    def test_invariant_to_pool_order(self, trained_head, rng):
        pool = make_pool(rng, 9)
        labeled = [(50, ExampleEmbedding(rng.standard_normal((2, 6))))]
        base = acquire_allwas(trained_head, pool, labeled, k=3)
        shuffled = [pool[i] for i in rng.permutation(9)]
        again = acquire_allwas(trained_head, shuffled, labeled, k=3)
        assert base == again

    def test_subsample_seeded(self, trained_head, rng):
        pool = make_pool(rng, 30)
        cfg = OTConfig(subsample=10)
        a = acquire_allwas(trained_head, pool, [], k=3, ot=cfg, seed=5)
        b = acquire_allwas(trained_head, pool, [], k=3, ot=cfg, seed=5)
        assert a == b
        assert len(set(a)) == 3

    @pytest.mark.parametrize("field, bad", [
        ("eps", -1.0), ("eps", 0.0), ("max_iter", -5), ("max_iter", 0),
        ("tol", -1.0), ("tol", 0.0), ("tol", float("nan")), ("subsample", 0),
        ("p", 0.5), ("s0_cost", -0.1)])
    def test_bad_values_rejected(self, field, bad):
        with pytest.raises(ConfigError, match=f"ot {field} must be"):
            OTConfig(**{field: bad})

    def test_distance_dump(self, trained_head, rng, tmp_path):
        pool = make_pool(rng, 5)
        dump = tmp_path / "d.csv"
        cfg = OTConfig(dump_path=str(dump))
        acquire_allwas(trained_head, pool, [], k=2, ot=cfg)
        assert dump.exists()
        assert dump.read_text().startswith("id,")


class TestDispatch:
    def test_all_names_return_k_distinct_pool_ids(self, trained_head, rng):
        pool = make_pool(rng, 12)
        labeled = [(100, ExampleEmbedding(rng.standard_normal((2, 6))))]
        for name in ("random", "lc", "dropout", "egl", "kcenter", "allwas"):
            got = acquire(name, trained_head, pool, labeled, k=4, seed=2)
            assert len(got) == 4
            assert len(set(got)) == 4
            assert set(got) <= {i for i, _ in pool}

    def test_unknown_name(self, trained_head, rng):
        with pytest.raises(ConfigError):
            acquire("mystery", trained_head, make_pool(rng, 4), [], k=1)
