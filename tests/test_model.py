import numpy as np
import pytest

from allwas.errors import AllwasError, ShapeError
from allwas.model import (
    ClassifierHead,
    ExampleEmbedding,
    SoftLabel,
    TrainingSet,
    gradient_arrays,
    last_layer_gradients,
    load_head,
    predict_proba,
    save_head,
    train,
)


def blob_data(rng, n=200, d=8, sep=4.0):
    """Two linearly separable Gaussian blobs with one-hot labels."""
    half = n // 2
    x0 = rng.standard_normal((half, d)) + sep / 2
    x1 = rng.standard_normal((n - half, d)) - sep / 2
    data = []
    for row in x0:
        data.append((ExampleEmbedding(row[None, :]), SoftLabel.one_hot(0, 2)))
    for row in x1:
        data.append((ExampleEmbedding(row[None, :]), SoftLabel.one_hot(1, 2)))
    return data


def small_head(d=8, seed=3, **kw):
    return ClassifierHead(input_dim=d, n_classes=2, hidden_dim=16, seed=seed, **kw)


class TestEmbedding:
    def test_pooled_is_the_token_mean(self, rng):
        tokens = rng.standard_normal((4, 3))
        assert np.array_equal(ExampleEmbedding(tokens).pooled, tokens.mean(axis=0))

    def test_pooled_argument_rejected(self, rng):
        # pooled is derived from the tokens, never taken from the caller.
        with pytest.raises(TypeError):
            ExampleEmbedding(rng.standard_normal((4, 3)), pooled=np.zeros(3))


class TestTraining:
    def test_separable_blobs_accuracy(self, rng):
        data = blob_data(rng)
        # Margin-classifier oracle: the blobs are separable by the sign of
        # the mean coordinate, so a capable model should fit them.
        means = np.array([emb.pooled.mean() for emb, _ in data])
        labels = np.array([lbl.hard for _, lbl in data])
        oracle_acc = max(
            np.mean((means < 0).astype(int) == labels),
            np.mean((means > 0).astype(int) == labels),
        )
        assert oracle_acc >= 0.95

        head = train(small_head(epochs=30), data)
        preds = [predict_proba(head, emb).hard for emb, _ in data]
        acc = np.mean(np.array(preds) == labels)
        assert acc >= 0.95

    def test_single_example_memorized(self, rng):
        emb = ExampleEmbedding(rng.standard_normal((3, 8)))
        data = [(emb, SoftLabel.one_hot(1, 2))]
        head = train(small_head(epochs=50, lr=0.1), data)
        assert predict_proba(head, emb).probs[1] >= 0.9

    def test_default_hyperparameters_stable(self, rng):
        head = ClassifierHead(input_dim=8, n_classes=2)
        assert head.epochs == 5
        assert head.batch_size == 50
        assert head.lr == 1e-2
        trained = train(head, blob_data(rng))
        assert np.all(np.isfinite(trained.w1))
        assert np.all(np.isfinite(trained.w2))

    def test_empty_data_rejected(self):
        with pytest.raises(AllwasError):
            train(small_head(), [])

    def test_inconsistent_dims_rejected(self, rng):
        data = [
            (ExampleEmbedding(rng.standard_normal((2, 8))), SoftLabel.one_hot(0, 2)),
            (ExampleEmbedding(rng.standard_normal((2, 5))), SoftLabel.one_hot(1, 2)),
        ]
        with pytest.raises(ShapeError):
            train(small_head(), data)

    def test_arrays_train_like_pairs(self, rng):
        data = blob_data(rng, n=60)
        arrays = TrainingSet(np.stack([emb.pooled for emb, _ in data]),
                             np.stack([label.probs for _, label in data]))
        assert len(arrays) == 60
        h1 = train(small_head(seed=4), data)
        h2 = train(small_head(seed=4), arrays)
        assert np.array_equal(h1.w1, h2.w1)
        assert np.array_equal(h1.w2, h2.w2)
        assert h1.loss_history == h2.loss_history

    @pytest.mark.parametrize("x, y, error", [
        (np.zeros((0, 3)), np.zeros((0, 2)), AllwasError),                  # empty
        (np.zeros((2, 3)), np.array([[1.0, 0.0]]), ShapeError),             # row counts
        (np.zeros(3), np.array([[1.0, 0.0]]), ShapeError),                  # x not 2-D
        (np.array([[0.0, np.nan]]), np.array([[1.0, 0.0]]), AllwasError),   # non-finite
        (np.zeros((2, 3)), np.array([[1.0, 0.0], [0.6, 0.6]]), AllwasError),   # sum != 1
        (np.zeros((1, 3)), np.array([[1.5, -0.5]]), AllwasError)])           # negative
    def test_training_set_checks(self, x, y, error):
        with pytest.raises(error):
            TrainingSet(x, y)

    def test_retraining_is_bit_reproducible(self, rng):
        data = blob_data(rng, n=60)
        h1 = train(small_head(seed=11), data)
        h2 = train(small_head(seed=11), data)
        assert np.array_equal(h1.w1, h2.w1)
        assert np.array_equal(h1.w2, h2.w2)
        assert h1.loss_history == h2.loss_history

    def test_loss_mostly_non_increasing(self, rng):
        violations = 0
        transitions = 0
        for seed in range(10):
            data = blob_data(np.random.default_rng(seed), n=100)
            head = train(small_head(seed=seed, epochs=8), data)
            hist = head.loss_history
            transitions += len(hist) - 1
            violations += sum(1 for a, b in zip(hist, hist[1:]) if b > a)
        assert violations <= 0.05 * transitions


class TestPrediction:
    def test_deterministic_without_dropout(self, rng):
        head = train(small_head(), blob_data(rng, n=40))
        emb = ExampleEmbedding(rng.standard_normal((2, 8)))
        p1 = predict_proba(head, emb)
        p2 = predict_proba(head, emb)
        assert np.array_equal(p1.probs, p2.probs)

    def test_probs_sum_to_one(self, rng):
        head = train(small_head(), blob_data(rng, n=40))
        for _ in range(100):
            emb = ExampleEmbedding(rng.standard_normal((1, 8)))
            assert predict_proba(head, emb).probs.sum() == pytest.approx(1.0, abs=1e-9)

    def test_dropout_seeds_differ(self, rng):
        head = train(small_head(), blob_data(rng, n=40))
        emb = ExampleEmbedding(rng.standard_normal((1, 8)))
        pa = predict_proba(head, emb, dropout_active=True, seed=1)
        pb = predict_proba(head, emb, dropout_active=True, seed=2)
        assert not np.allclose(pa.probs, pb.probs)
        # Same seed reproduces.
        pc = predict_proba(head, emb, dropout_active=True, seed=1)
        assert np.array_equal(pa.probs, pc.probs)

    def test_untrained_head_rejected(self, rng):
        emb = ExampleEmbedding(rng.standard_normal((1, 8)))
        with pytest.raises(AllwasError):
            predict_proba(small_head(), emb)


class TestGradients:
    def test_confident_prediction_gives_zero_gradient(self, rng):
        # Train hard on one example so its prediction is nearly one-hot.
        emb = ExampleEmbedding(rng.standard_normal((2, 8)))
        head = train(small_head(epochs=300, lr=0.5, dropout=0.0),
                     [(emb, SoftLabel.one_hot(1, 2))])
        gm = last_layer_gradients(head, emb)
        k = int(np.argmax(gm.weights))
        assert k == 1
        assert gm.weights[k] >= 0.99
        assert np.linalg.norm(gm.support[k]) < 0.05

    def test_weights_equal_predicted_probs(self, rng):
        head = train(small_head(), blob_data(rng, n=40))
        emb = ExampleEmbedding(rng.standard_normal((3, 8)))
        gm = last_layer_gradients(head, emb)
        np.testing.assert_array_equal(gm.weights, predict_proba(head, emb).probs)

    def test_matches_finite_differences(self, rng):
        # Central differences of the per-class loss w.r.t. the hidden
        # activation, on many random heads and inputs.
        step = 1e-5
        for trial in range(50):
            r = np.random.default_rng(trial)
            d, h, c = 4, 6, int(r.integers(2, 5))
            head = ClassifierHead(input_dim=d, n_classes=c, hidden_dim=h, seed=trial)
            head = train(head, [
                (ExampleEmbedding(r.standard_normal((2, d))),
                 SoftLabel.one_hot(int(r.integers(c)), c))
                for _ in range(8)
            ])
            x = ExampleEmbedding(r.standard_normal((2, d)))
            gm = last_layer_gradients(head, x)
            hid = np.tanh(x.pooled @ head.w1 + head.b1)

            def loss(hvec, cls):
                logits = hvec @ head.w2 + head.b2
                shifted = logits - logits.max()
                logp = shifted - np.log(np.exp(shifted).sum())
                return -logp[cls]

            for cls in range(c):
                fd = np.empty(h)
                for j in range(h):
                    up, down = hid.copy(), hid.copy()
                    up[j] += step
                    down[j] -= step
                    fd[j] = (loss(up, cls) - loss(down, cls)) / (2 * step)
                analytic = gm.support[cls]
                denom = max(np.linalg.norm(fd), 1e-12)
                assert np.linalg.norm(analytic - fd) / denom < 1e-4

    def test_gradient_arrays_match_single(self, rng):
        head = train(small_head(), blob_data(rng, n=40))
        embs = [ExampleEmbedding(rng.standard_normal((2, 8))) for _ in range(5)]
        pooled = np.stack([e.pooled for e in embs])
        grads, probs = gradient_arrays(head, pooled)
        for i, emb in enumerate(embs):
            gm = last_layer_gradients(head, emb)
            np.testing.assert_allclose(grads[i], gm.support, atol=1e-12)
            np.testing.assert_allclose(probs[i], gm.weights, atol=1e-12)

    def test_untrained_rejected(self, rng):
        with pytest.raises(AllwasError):
            last_layer_gradients(small_head(), ExampleEmbedding(rng.standard_normal((1, 8))))


class TestCheckpoint:
    def test_round_trip(self, rng, tmp_path):
        head = train(small_head(), blob_data(rng, n=40))
        path = tmp_path / "head.alws"
        save_head(head, path)
        loaded = load_head(path)
        assert np.array_equal(loaded.w1, head.w1)
        assert np.array_equal(loaded.b1, head.b1)
        assert np.array_equal(loaded.w2, head.w2)
        assert np.array_equal(loaded.b2, head.b2)
        assert loaded.dropout == head.dropout
        emb = ExampleEmbedding(rng.standard_normal((2, 8)))
        np.testing.assert_array_equal(
            predict_proba(loaded, emb).probs, predict_proba(head, emb).probs)

    def test_magic_bytes(self, rng, tmp_path):
        head = train(small_head(), blob_data(rng, n=40))
        path = tmp_path / "head.alws"
        save_head(head, path)
        assert path.read_bytes()[:4] == b"ALWS"

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.alws"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(AllwasError):
            load_head(path)
