import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from allwas import model
from allwas.errors import AllwasError, ConfigError, ShapeError
from allwas.model import (
    ClassifierHead,
    TrainingSet,
    gradient_arrays,
    mean_dropout_proba,
    predict_proba_batch,
    train,
    train_stack,
)

SRC = Path(__file__).resolve().parent.parent / "src"


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


def reference_train(head, data):
    """The textbook one-head loop: per batch, a gather, one (m, H) dropout
    draw and 2-D products. The trainer must reproduce it bitwise.
    Returns (w1, b1, w2, b2, loss_history)."""
    x, y = data.x, data.y
    rng = np.random.default_rng(head.seed)
    d, h, c = head.input_dim, head.hidden_dim, head.n_classes
    w1 = rng.standard_normal((d, h)) / np.sqrt(d)
    b1 = np.zeros(h)
    w2 = rng.standard_normal((h, c)) / np.sqrt(h)
    b2 = np.zeros(c)
    n, keep = x.shape[0], 1.0 - head.dropout
    losses = []
    for _ in range(head.epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, head.batch_size):
            idx = order[start:start + head.batch_size]
            xb, yb = x[idx], y[idx]
            hid = np.tanh(xb @ w1 + b1)
            mask = None
            if head.dropout > 0:
                mask = (rng.random(hid.shape) >= head.dropout) / keep
            hid_d = hid if mask is None else hid * mask
            logits = hid_d @ w2 + b2
            shifted = logits - logits.max(axis=1, keepdims=True)
            log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
            epoch_loss += float(-(yb * log_probs).sum())
            dlogits = (np.exp(log_probs) - yb) / len(idx)
            dw2, db2 = hid_d.T @ dlogits, dlogits.sum(axis=0)
            dhid = dlogits @ w2.T
            if mask is not None:
                dhid = dhid * mask
            dz1 = dhid * (1.0 - hid * hid)
            w2 -= head.lr * dw2
            b2 -= head.lr * db2
            w1 -= head.lr * (xb.T @ dz1)
            b1 -= head.lr * dz1.sum(axis=0)
        losses.append(epoch_loss / n)
    return w1, b1, w2, b2, losses


def assert_same_head(got, want):
    """Bitwise equal parameters and loss history; ``want`` is a head or the
    tuple ``reference_train`` returns."""
    if isinstance(want, ClassifierHead):
        want = (want.w1, want.b1, want.w2, want.b2, want.loss_history)
    for a, b in zip((got.w1, got.b1, got.w2, got.b2), want[:4]):
        assert a.shape == b.shape and np.array_equal(a, b)
    assert got.loss_history == want[4]


def stack_case(seed, r, n, d, h, c, batch, dropout, epochs, lr=0.05):
    """R heads of one shape, different seeds, each with its own soft-labeled
    rows: n of them, or ``n[i]`` for head i when n is a list."""
    rng = np.random.default_rng(seed)
    heads = [ClassifierHead(input_dim=d, n_classes=c, hidden_dim=h, dropout=dropout,
                            epochs=epochs, batch_size=batch, lr=lr,
                            seed=int(rng.integers(2**31))) for _ in range(r)]
    datas = []
    for rows in (n if isinstance(n, list) else [n] * r):
        y = rng.random((rows, c)) + 0.05
        datas.append(TrainingSet(rng.standard_normal((rows, d)),
                                 y / y.sum(axis=1, keepdims=True)))
    return heads, datas


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

    @pytest.mark.parametrize("knobs, message", [
        ({"epochs": 0}, "epochs"), ({"epochs": -1}, "epochs"),
        ({"batch_size": 0}, "batch_size"), ({"lr": -0.5}, "lr"), ({"lr": 0.0}, "lr"),
        ({"lr": float("inf")}, "lr"), ({"lr": float("nan")}, "lr"),
        ({"epochs": 2.5}, "epochs"), ({"batch_size": 2.5}, "batch_size"),
        ({"hidden_dim": 4.0}, "hidden_dim"), ({"input_dim": 8.0}, "input_dim"),
        ({"n_classes": "2"}, "n_classes"), ({"seed": 1.5}, "seed"),
        ({"epochs": True}, "epochs"), ({"seed": False}, "seed"),
        ({"dropout": "0.1"}, "dropout"), ({"dropout": None}, "dropout"),
        ({"lr": "0.01"}, "lr"), ({"lr": True}, "lr")])
    def test_bad_training_hyperparameters_rejected(self, knobs, message):
        # With no epochs a head would never leave the training stack, so the
        # head is rejected when built, before anything trains it.
        with pytest.raises(ConfigError, match=message):
            ClassifierHead(**{"input_dim": 8, "n_classes": 2, "seed": 3, **knobs})

    def test_numpy_integer_sizes_accepted(self, rng):
        data = blob_data(rng, n=60)
        head = ClassifierHead(input_dim=np.int64(8), n_classes=np.int32(2),
                              hidden_dim=np.int64(16), epochs=np.int64(2),
                              lr=np.float64(0.05), seed=np.uint32(3))
        assert_same_head(train(head, data), train(small_head(epochs=2, lr=0.05), data))

    def test_numpy_scalars_accepted(self):
        head = ClassifierHead(input_dim=np.int64(8), n_classes=np.uint8(2),
                              dropout=np.float32(0.25), lr=np.float32(0.5), seed=np.uint8(1))
        assert (head.input_dim, head.n_classes, head.dropout, head.lr) == (8, 2, 0.25, 0.5)

    @pytest.mark.parametrize("knobs, message", [
        ({"epochs": True}, "epochs must be an int (got True)"),
        ({"epochs": np.True_}, f"epochs must be an int (got {np.True_!r})"),
        ({"epochs": 2.0}, "epochs must be an int (got 2.0)"),
        ({"lr": Fraction(1, 10)}, "lr must be a number (got Fraction(1, 10))")])
    def test_type_errors_name_the_field(self, knobs, message):
        # A head built directly reports the bare field name; the config
        # path adds the "model " prefix.
        with pytest.raises(ConfigError) as exc:
            ClassifierHead(**{"input_dim": 8, "n_classes": 2, **knobs})
        assert str(exc.value) == message

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


class TestLockstep:
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), ns=st.lists(st.integers(1, 40), min_size=1,
                                                       max_size=6),
           d=st.integers(1, 5), h=st.integers(1, 9), c=st.integers(2, 4),
           batch=st.integers(1, 12), dropout=st.sampled_from([0.0, 0.1, 0.5]),
           epochs=st.integers(1, 3), window_rows=st.sampled_from([1, 7, 30, 256]))
    @example(seed=1, ns=[23, 23, 23], d=4, h=5, c=3, batch=5, dropout=0.0, epochs=2,
             window_rows=256)
    @example(seed=2, ns=[26] * 5, d=3, h=6, c=2, batch=5, dropout=0.1, epochs=2,
             window_rows=256)
    @example(seed=3, ns=[3, 40, 17, 25, 9, 40], d=3, h=4, c=2, batch=5, dropout=0.1,
             epochs=3, window_rows=7)
    @example(seed=4, ns=[4, 11, 2], d=2, h=3, c=3, batch=12, dropout=0.0, epochs=2,
             window_rows=30)
    def test_stack_equals_solo_trains(self, seed, ns, d, h, c, batch, dropout, epochs,
                                      window_rows):
        # Row counts may differ (a ragged stack). The examples pin a partial
        # last batch (23 = 4 * 5 + 3, 26 = 5 * 5 + 1) with and without
        # dropout, a six-head ragged stack whose windows of steps end
        # mid-epoch, and heads with fewer rows than a batch.
        heads, datas = stack_case(seed, len(ns), ns, d, h, c, batch, dropout, epochs)
        with mock.patch.object(model, "_WINDOW_ROWS", window_rows):
            stacked = train_stack(heads, datas)
            solo = [train(head, data) for head, data in zip(heads, datas)]
        assert len(stacked) == len(ns)
        for head, data, got, alone in zip(heads, datas, stacked, solo):
            assert got.seed == head.seed
            assert_same_head(got, alone)
            assert_same_head(got, reference_train(head, data))

    @pytest.mark.parametrize("n, batch, dropout, c", [
        (23, 5, 0.1, 2), (23, 5, 0.0, 3), (40, 40, 0.5, 4), (9, 25, 0.1, 2)])
    def test_train_matches_per_batch_reference(self, n, batch, dropout, c):
        # One mask draw per epoch must give the per-batch draws' stream, so
        # results stay what the one-head loop gives.
        heads, datas = stack_case(7, 2, n, 6, 10, c, batch, dropout, epochs=3)
        for head, data, got in zip(heads, datas, train_stack(heads, datas)):
            assert_same_head(got, reference_train(head, data))
            assert_same_head(train(head, data), reference_train(head, data))

    def test_stack_equals_solo_with_blas_threads_unpinned(self):
        # Products big enough for a threaded BLAS to split them.
        script = (
            "import numpy as np, sys\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "from allwas.model import ClassifierHead, TrainingSet, train, train_stack\n"
            "rng = np.random.default_rng(3)\n"
            "heads = [ClassifierHead(input_dim=96, n_classes=3, hidden_dim=160, epochs=2,\n"
            "                        batch_size=300, lr=0.03, seed=s) for s in (4, 5, 6)]\n"
            "datas = [TrainingSet(rng.standard_normal((700, 96)),\n"
            "                     np.eye(3)[rng.integers(0, 3, 700)]) for _ in heads]\n"
            "for head, data, got in zip(heads, datas, train_stack(heads, datas)):\n"
            "    solo = train(head, data)\n"
            "    assert all(np.array_equal(getattr(got, k), getattr(solo, k))\n"
            "               for k in ('w1', 'b1', 'w2', 'b2'))\n"
            "    assert got.loss_history == solo.loss_history\n"
            "print('same')\n")
        pinned = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                  "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
        env = {k: v for k, v in os.environ.items() if k not in pinned}
        done = subprocess.run([sys.executable, "-c", script, str(SRC)], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "same"

    @pytest.mark.parametrize("ns", [[12, 12, 12], [12, 30, 7], [30, 12, 7]])
    def test_diverging_head_fails_alone(self, ns):
        # At lr 1e308 the updates of a head with gradients overflow (tanh
        # saturation keeps smaller rates finite). A head on all-zero rows
        # labeled with its own uniform prediction has exactly zero gradients
        # and stays finite beside it. In the ragged stacks the diverging
        # head has the most rows (it leaves the stack's first slot) or
        # neither the most nor the fewest.
        heads, datas = stack_case(5, 3, ns, 4, 6, 2, 5, 0.1, epochs=3, lr=1e308)
        for k in (0, 2):
            datas[k] = TrainingSet(np.zeros((ns[k], 4)), np.full((ns[k], 2), 0.5))
        with np.errstate(over="ignore", invalid="ignore"):
            stacked = train_stack(heads, datas)
            with pytest.raises(AllwasError, match="training diverged") as solo_error:
                train(heads[1], datas[1])
        assert type(stacked[1]) is AllwasError
        assert str(stacked[1]) == str(solo_error.value)
        for k in (0, 2):
            assert_same_head(stacked[k], train(heads[k], datas[k]))
            assert np.array_equal(stacked[k].w1, reference_train(heads[k], datas[k])[0])

    def test_returned_heads_own_their_parameters(self):
        # Each head copies its slots out of the stack's flat buffers: no head
        # shares memory with another, nor keeps the stack alive.
        d, h, c = 4, 6, 3
        heads, datas = stack_case(8, 3, [23, 40, 9], d, h, c, 5, 0.1, epochs=2)
        stacked = train_stack(heads, datas)
        params = [(got.w1, got.b1, got.w2, got.b2) for got in stacked]
        for arrays in params:
            for arr, shape in zip(arrays, [(d, h), (h,), (h, c), (c,)]):
                assert arr.shape == shape
                assert arr.flags.c_contiguous and arr.flags.owndata
        flat = [arr for arrays in params for arr in arrays]
        for k, arr in enumerate(flat):
            assert not any(np.shares_memory(arr, other) for other in flat[k + 1:])
        for head, data, got in zip(heads, datas, stacked):
            assert_same_head(got, train(head, data))

    def test_mismatched_heads_rejected(self):
        heads, datas = stack_case(0, 2, 10, 3, 4, 2, 5, 0.1, epochs=1)
        # Row counts may differ: each head of a ragged stack trains as alone.
        ragged = [datas[0], TrainingSet(datas[1].x[:9], datas[1].y[:9])]
        for head, data, got in zip(heads, ragged, train_stack(heads, ragged)):
            assert_same_head(got, reference_train(head, data))
        with pytest.raises(AllwasError, match="share dimensions"):
            train_stack([heads[0], small_head(d=3)], datas)
        with pytest.raises(AllwasError, match="one training set per head"):
            train_stack(heads, datas[:1])


class TestTrainingMemory:
    # The largest training shape of the acceptance cells: 150 labeled rows
    # plus 20x synthetic ones, d = 32, H = 64, batches of 25.
    N, D, H, C = 3150, 32, 64, 2

    def group(self, ns):
        return stack_case(0, len(ns), ns, self.D, self.H, self.C, 25, 0.1, epochs=1)

    @staticmethod
    def peak(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # An equal-row group and a ragged one: the six training sets of one
    # factor-20 repeat of 25 to 150 labeled rows.
    @pytest.mark.parametrize("ns", [[N] * 5, [525 * k for k in range(1, 7)]])
    @pytest.mark.parametrize("budget_heads", [None, 2])
    def test_lockstep_group_within_chunk_budget(self, monkeypatch, ns, budget_heads):
        heads, datas = self.group(ns)
        if budget_heads is not None:
            # Room for two of the largest heads: chunks of two or three.
            largest = max(range(len(ns)), key=ns.__getitem__)
            monkeypatch.setattr(model, "_CHUNK_BYTES", budget_heads * model.stack_bytes(
                heads[largest], datas[largest]))
        peak = self.peak(lambda: train_stack(heads, datas))
        assert peak <= model._CHUNK_BYTES
        # Each chunk holds one window of rows and dropout masks per head.
        window = model._window_steps(25) * 25 * (self.D + self.C + self.H) * 8
        assert peak >= min(budget_heads or len(ns), len(ns)) * window

    def test_one_head_adds_at_most_one_mask_buffer(self):
        heads, datas = self.group([self.N])
        reference_train(heads[0], datas[0])               # warm caches
        reference = self.peak(lambda: reference_train(heads[0], datas[0]))
        peak = self.peak(lambda: train(heads[0], datas[0]))
        assert peak - reference <= self.N * self.H * 8


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
        with pytest.raises(AllwasError):
            mean_dropout_proba(small_head(), one_row(rng.standard_normal((1, 8))), [0])

    @pytest.mark.parametrize("dropout", [0.0, 0.1, 0.5])
    def test_dropout_mean_equals_the_passes_bitwise(self, rng, dropout):
        # One hidden layer for every pass: each pass's mask and softmax
        # round as they do in a predict_proba_batch call of their own.
        head = train(small_head(dropout=dropout), blob_data(rng, n=40))
        x = rng.standard_normal((30, 8))
        seeds = [11, 3, 11, 2**40]
        mean = np.zeros((30, 2))
        for seed in seeds:
            mean += predict_proba_batch(head, x, dropout_active=True, seed=seed)
        mean /= len(seeds)
        assert mean_dropout_proba(head, x, seeds).tobytes() == mean.tobytes()


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

