import numpy as np
import pytest

from allwas.errors import AllwasError, ShapeError
from allwas.model import (
    ClassifierHead,
    TrainingSet,
    gradient_arrays,
    load_head,
    predict_proba_batch,
    save_head,
    train,
)


def blob_data(rng, n=200, d=8, sep=4.0):
    """Two linearly separable Gaussian blobs with one-hot labels."""
    half = n // 2
    x0 = rng.standard_normal((half, d)) + sep / 2
    x1 = rng.standard_normal((n - half, d)) - sep / 2
    return TrainingSet(np.concatenate([x0, x1]), np.eye(2)[[0] * half + [1] * (n - half)])


def one_row(tokens, cls=None, n_classes=2):
    """The pooled row of a token matrix, as (1, d); with ``cls``, the
    one-row training set labeled with that class."""
    x = tokens.mean(axis=0)[None, :]
    return x if cls is None else TrainingSet(x, np.eye(n_classes)[[cls]])


def small_head(d=8, seed=3, **kw):
    return ClassifierHead(input_dim=d, n_classes=2, hidden_dim=16, seed=seed, **kw)


class TestTraining:
    def test_separable_blobs_accuracy(self, rng):
        data = blob_data(rng)
        # Margin-classifier oracle: the blobs are separable by the sign of
        # the mean coordinate, so a capable model should fit them.
        means = data.x.mean(axis=1)
        labels = data.y.argmax(axis=1)
        oracle_acc = max(
            np.mean((means < 0).astype(int) == labels),
            np.mean((means > 0).astype(int) == labels),
        )
        assert oracle_acc >= 0.95

        head = train(small_head(epochs=30), data)
        preds = [predict_proba_batch(head, row[None, :])[0].argmax() for row in data.x]
        acc = np.mean(np.array(preds) == labels)
        assert acc >= 0.95

    def test_single_example_memorized(self, rng):
        tokens = rng.standard_normal((3, 8))
        head = train(small_head(epochs=50, lr=0.1), one_row(tokens, 1))
        assert predict_proba_batch(head, one_row(tokens))[0, 1] >= 0.9

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
            train(small_head(), TrainingSet(np.zeros((0, 8)), np.zeros((0, 2))))

    def test_inconsistent_dims_rejected(self, rng):
        with pytest.raises(ShapeError):
            train(small_head(), one_row(rng.standard_normal((2, 5)), 1))
        with pytest.raises(ShapeError):
            train(small_head(), TrainingSet(np.zeros((1, 8)), np.ones((1, 3)) / 3))

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
        x = one_row(rng.standard_normal((2, 8)))
        assert np.array_equal(predict_proba_batch(head, x), predict_proba_batch(head, x))

    def test_probs_sum_to_one(self, rng):
        head = train(small_head(), blob_data(rng, n=40))
        for _ in range(100):
            x = one_row(rng.standard_normal((1, 8)))
            assert predict_proba_batch(head, x).sum() == pytest.approx(1.0, abs=1e-9)

    def test_dropout_seeds_differ(self, rng):
        head = train(small_head(), blob_data(rng, n=40))
        x = one_row(rng.standard_normal((1, 8)))
        pa = predict_proba_batch(head, x, dropout_active=True, seed=1)
        pb = predict_proba_batch(head, x, dropout_active=True, seed=2)
        assert not np.allclose(pa, pb)
        # Same seed reproduces.
        pc = predict_proba_batch(head, x, dropout_active=True, seed=1)
        assert np.array_equal(pa, pc)

    def test_untrained_head_rejected(self, rng):
        with pytest.raises(AllwasError):
            predict_proba_batch(small_head(), one_row(rng.standard_normal((1, 8))))


class TestGradients:
    def test_confident_prediction_gives_zero_gradient(self, rng):
        # Train hard on one example so its prediction is nearly one-hot.
        tokens = rng.standard_normal((2, 8))
        head = train(small_head(epochs=300, lr=0.5, dropout=0.0), one_row(tokens, 1))
        (support,), (weights,) = gradient_arrays(head, one_row(tokens))
        k = int(np.argmax(weights))
        assert k == 1
        assert weights[k] >= 0.99
        assert np.linalg.norm(support[k]) < 0.05

    def test_weights_equal_predicted_probs(self, rng):
        head = train(small_head(), blob_data(rng, n=40))
        x = one_row(rng.standard_normal((3, 8)))
        _, weights = gradient_arrays(head, x)
        np.testing.assert_array_equal(weights, predict_proba_batch(head, x))

    def test_matches_finite_differences(self, rng):
        # Central differences of the per-class loss w.r.t. the hidden
        # activation, on many random heads and inputs.
        step = 1e-5
        for trial in range(50):
            r = np.random.default_rng(trial)
            d, h, c = 4, 6, int(r.integers(2, 5))
            head = ClassifierHead(input_dim=d, n_classes=c, hidden_dim=h, seed=trial)
            rows = [(r.standard_normal((2, d)), int(r.integers(c))) for _ in range(8)]
            head = train(head, TrainingSet(np.stack([t.mean(axis=0) for t, _ in rows]),
                                           np.eye(c)[[cls for _, cls in rows]]))
            x = one_row(r.standard_normal((2, d)))
            (support,), _ = gradient_arrays(head, x)
            hid = np.tanh(x[0] @ head.w1 + head.b1)

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
                analytic = support[cls]
                denom = max(np.linalg.norm(fd), 1e-12)
                assert np.linalg.norm(analytic - fd) / denom < 1e-4

    def test_gradient_arrays_match_single(self, rng):
        head = train(small_head(), blob_data(rng, n=40))
        pooled = np.concatenate([one_row(rng.standard_normal((2, 8))) for _ in range(5)])
        grads, probs = gradient_arrays(head, pooled)
        for i in range(5):
            (support,), (weights,) = gradient_arrays(head, pooled[i:i + 1])
            np.testing.assert_allclose(grads[i], support, atol=1e-12)
            np.testing.assert_allclose(probs[i], weights, atol=1e-12)

    def test_untrained_rejected(self, rng):
        with pytest.raises(AllwasError):
            gradient_arrays(small_head(), one_row(rng.standard_normal((1, 8))))


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
        x = one_row(rng.standard_normal((2, 8)))
        np.testing.assert_array_equal(
            predict_proba_batch(loaded, x), predict_proba_batch(head, x))

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
