import builtins
import json
import os
import re
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from allwas.data import (
    Corpus,
    FeaturizerConfig,
    SeedSpec,
    SynthSpec,
    build_seed,
    export_jsonl,
    featurize_text,
    ingest_jsonl,
    make_synthetic,
    train_val_split,
)
from allwas import data
from allwas.data import _pairwise_distance_percentile
from allwas.errors import ConfigError, DataError, ShapeError
from oracles import make_synthetic_rows, pairwise_distance_percentile


def write_jsonl(path, rows):
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")


def row_of(corpus):
    return {example_id: row for row, example_id in enumerate(corpus.ids)}


def columns(rng, n=4, d=3):
    """Keyword columns of a small valid corpus with its clouds."""
    tokens = tuple(rng.standard_normal((int(rng.integers(1, 5)), d)) for _ in range(n))
    return dict(ids=list(range(n)), pooled=np.stack([t.mean(axis=0) for t in tokens]),
                labels=np.arange(n) % 2, texts=[None] * n, class_names=("a", "b"),
                target_class=1, tokens=tokens)


def assert_pooled_is_the_token_mean(corpus):
    """Every ``pooled`` row bitwise its cloud's ``mean(axis=0)``."""
    assert len(corpus.tokens) == corpus.n
    for row, cloud in zip(corpus.pooled, corpus.tokens):
        assert row.tobytes() == cloud.mean(axis=0).tobytes()


class TestCorpus:
    def test_columns_stored_as_given(self, rng):
        cols = columns(rng)
        corpus = Corpus(**cols)
        assert corpus.pooled is cols["pooled"] and corpus.labels is cols["labels"]
        assert all(a is b for a, b in zip(corpus.tokens, cols["tokens"]))
        assert corpus.ids == (0, 1, 2, 3) and corpus.labels.dtype == np.intp
        assert Corpus(**{**cols, "tokens": None}).tokens is None

    @pytest.mark.parametrize("column, bad, error, message", [
        ("ids", [0, 1, 2, 0], DataError, "not unique"),
        ("ids", [], DataError, "no rows"),
        ("pooled", np.zeros(4), ShapeError, "one entry per id"),
        ("pooled", np.zeros((3, 3)), ShapeError, "one entry per id"),
        ("pooled", np.array([[0.0, 1.0, 2.0]] * 3 + [[0.0, np.inf, 1.0]]), DataError,
         "non-finite"),
        ("pooled", np.array([[0.0, 1.0, 2.0]] * 3 + [[0.0, np.nan, 1.0]]), DataError,
         "non-finite"),
        ("pooled", np.array([[0.0, 1.0, 2.0]] * 3 + [[-np.inf, 0.0, 1.0]]), DataError,
         "non-finite"),
        ("tokens", (np.zeros((2, 3)),) * 3, ShapeError, "one entry per id"),
        ("tokens", (np.zeros((2, 3)),) * 5, ShapeError, "one entry per id"),
        ("labels", [0, 1, 2, 0], DataError, "class indices"),
        ("labels", [0.0, 1.0, 0.0, 1.0], DataError, "class indices"),
        ("texts", [None] * 3, ShapeError, "one entry per id"),
        ("target_class", 2, ConfigError, "target_class 2")])
    def test_column_checks(self, rng, column, bad, error, message):
        cols = columns(rng)
        cols[column] = bad
        with pytest.raises(error, match=message):
            Corpus(**cols)

    def test_take_slices_every_column(self, rng):
        corpus = Corpus(**columns(rng, n=6))
        rows = [4, 0, 3]
        sub = corpus.take(rows)
        assert sub.ids == (4, 0, 3)
        assert sub.texts == (None,) * 3
        assert all(a is corpus.tokens[r] for a, r in zip(sub.tokens, rows))
        assert np.array_equal(sub.labels, corpus.labels[rows])
        assert sub.pooled.tobytes() == corpus.pooled[rows].tobytes()
        assert (sub.class_names, sub.target_class) == (corpus.class_names, corpus.target_class)
        with pytest.raises(DataError, match="distinct"):
            corpus.take([1, 1])

    def test_take_rejects_rows_outside_the_corpus(self):
        # A negative row once wrapped around: take([4, -1]) gave ids (4, 4).
        corpus = make_synthetic(SynthSpec(n=5, d=2))
        for rows in ([4, -1], [7], [0, 5, -6, -6]):
            with pytest.raises(DataError, match="rows in \\[0, 5\\)") as exc:
                corpus.take(rows)
            assert str(sorted({r for r in rows if not 0 <= r < 5})) in str(exc.value)

    def test_take_names_repeated_rows(self):
        corpus = make_synthetic(SynthSpec(n=5, d=2))
        with pytest.raises(DataError, match=r"repeated \[1, 3\]"):
            corpus.take([3, 1, 0, 3, 1])


def assert_same_columns(corpus, other):
    """Every column but ``tokens`` equal, ``pooled`` bitwise."""
    assert corpus.ids == other.ids and corpus.texts == other.texts
    assert (corpus.class_names, corpus.target_class) == (other.class_names, other.target_class)
    assert corpus.labels.dtype == other.labels.dtype
    assert np.array_equal(corpus.labels, other.labels)
    assert corpus.pooled.shape == other.pooled.shape
    assert corpus.pooled.tobytes() == other.pooled.tobytes()


class TestWithoutClouds:
    def test_synthetic_columns_equal_the_default_build(self):
        spec = SynthSpec(n=300, d=5, priors=(0.6, 0.3, 0.1), seed=8)
        free = make_synthetic(spec, keep_tokens=False)
        assert free.tokens is None
        full = make_synthetic(spec)
        assert_pooled_is_the_token_mean(full)
        assert_same_columns(full, free)

    @staticmethod
    def mixed_rows(rng):
        """Text rows and one- and multi-token embeddings, d = 4."""
        rows = []
        for i in range(30):
            if i % 3 == 0:
                rows.append({"id": f"t{i}", "text": f"row {i} about topic {i % 4}",
                             "label": "a" if i % 2 else "b"})
            else:
                emb = rng.standard_normal((int(rng.integers(1, 6)), 4))
                rows.append({"id": f"e{i}", "label": "a" if i % 2 else "b",
                             "embedding": (emb[0] if i % 5 == 1 else emb).tolist()})
        return rows

    def test_jsonl_columns_equal_the_default_build(self, tmp_path, rng):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, self.mixed_rows(rng))
        featurizer = FeaturizerConfig(d=4, seed=2)
        free = ingest_jsonl(path, featurizer=featurizer, keep_tokens=False)
        assert free.tokens is None
        full = ingest_jsonl(path, featurizer=featurizer)
        assert {t.shape[0] for t in full.tokens} != {1}
        assert_pooled_is_the_token_mean(full)
        assert_same_columns(full, free)

    @pytest.mark.parametrize("keep_tokens", [True, False])
    def test_jsonl_read_once_from_a_pipe(self, tmp_path, rng, keep_tokens):
        # A stream that cannot be read twice gives the file's columns.
        path, fifo = tmp_path / "c.jsonl", tmp_path / "pipe"
        write_jsonl(path, self.mixed_rows(rng))
        os.mkfifo(fifo)

        def feed():
            with open(fifo, "w") as out:
                out.write(path.read_text())

        writer = threading.Thread(target=feed, daemon=True)
        writer.start()
        featurizer = FeaturizerConfig(d=4, seed=2)
        piped = ingest_jsonl(fifo, featurizer=featurizer, keep_tokens=keep_tokens)
        writer.join(timeout=10)
        full = ingest_jsonl(path, featurizer=featurizer)
        assert_same_columns(full, piped)
        if not keep_tokens:
            assert piped.tokens is None
            return
        assert_pooled_is_the_token_mean(piped)
        for cloud, want in zip(piped.tokens, full.tokens):
            assert cloud.tobytes() == want.tobytes()

    @pytest.mark.parametrize("keep_tokens", [True, False])
    @pytest.mark.parametrize("change", ["grows", "shrinks"])
    def test_jsonl_changed_between_passes(self, tmp_path, monkeypatch, change, keep_tokens):
        # The file gains or loses a line between the count and the read.
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [{"id": i, "label": i % 2, "embedding": [[float(i), 1.0]]}
                           for i in range(4)])

        def changing_open(name, *args, **kwargs):
            fh = builtins.open(name, *args, **kwargs)
            seek = fh.seek

            def change_then_seek(*where):
                text = path.read_text()
                path.write_text(text + '{"id": 9, "label": 0, "embedding": [[9.0, 1.0]]}\n'
                                if change == "grows" else text[:text.rindex("{")])
                return seek(*where)

            fh.seek = change_then_seek
            return fh

        monkeypatch.setattr(data, "open", changing_open, raising=False)
        message = (r"line 5: more rows than the 4 non-blank lines first counted"
                   if change == "grows" else r"3 rows where 4 non-blank lines were first counted")
        with pytest.raises(DataError, match=message):
            ingest_jsonl(path, keep_tokens=keep_tokens)

    def test_jsonl_load_peaks_near_one_pooled_matrix(self, tmp_path, rng):
        # Each row's mean goes into one pooled-sized store as its line is
        # parsed: 1.31 measured. Holding each row's mean as its own (1, d)
        # array until the corpus copied them into a fresh matrix peaked at
        # 2.7.
        rows = [{"id": i, "label": int(i % 10 == 0),
                 "embedding": rng.standard_normal((int(rng.integers(1, 4)), 64)).tolist()}
                for i in range(2000)]
        path = tmp_path / "c.jsonl"
        write_jsonl(path, rows)
        ingest_jsonl(path, keep_tokens=False)                   # lazy imports
        tracemalloc.start()
        try:
            corpus = ingest_jsonl(path, keep_tokens=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert corpus.pooled.shape == (2000, 64)
        assert peak <= 1.5 * corpus.pooled.nbytes + corpus.labels.nbytes
        assert_same_columns(ingest_jsonl(path), corpus)

    @pytest.mark.parametrize("keep_tokens", [True, False])
    def test_width_off_the_first_rows_names_its_line(self, tmp_path, keep_tokens):
        # The featurizer fixes a text row's width; an embedding of another
        # width is a bad line whichever way the corpus is kept.
        rows = [{"id": 0, "text": "two words", "label": 0},
                {"id": 1, "embedding": [[0.0, 1.0]], "label": 1},
                {"id": 2, "embedding": [[0.0, 1.0, 2.0]], "label": 0}]
        path = tmp_path / "c.jsonl"
        write_jsonl(path, rows)
        with pytest.raises(DataError, match=r"line 2: mixed embedding dimensions in corpus: "
                                            r"\[2, 3\]") as exc:
            ingest_jsonl(path, featurizer=FeaturizerConfig(d=3), keep_tokens=keep_tokens)
        assert "line 3" not in str(exc.value)

    def test_take_carries_no_clouds(self):
        corpus = make_synthetic(SynthSpec(n=20, d=3), keep_tokens=False)
        sub = corpus.take([5, 2])
        assert sub.tokens is None and sub.ids == (5, 2)

    def test_export_refuses_a_corpus_without_clouds(self, tmp_path):
        corpus = make_synthetic(SynthSpec(n=20, d=3), keep_tokens=False)
        out = tmp_path / "out.jsonl"
        with pytest.raises(DataError, match="keep_tokens=True"):
            export_jsonl(corpus, out)
        assert not out.exists()


class TestFeaturize:
    def test_same_text_identical(self):
        a = featurize_text("The movie was good", d=16, seed=1)
        b = featurize_text("The movie was good", d=16, seed=1)
        np.testing.assert_array_equal(a, b)

    def test_repeated_token_repeats_row(self):
        tokens = featurize_text("good good", d=8, seed=0)
        assert tokens.shape == (2, 8)
        np.testing.assert_array_equal(tokens[0], tokens[1])

    def test_distinct_tokens_distinct_vectors(self):
        # Collision scan over a generated vocabulary.
        words = [f"w{i}x{i * 7}" for i in range(10_000)]
        seen = set()
        for w in words:
            seen.add(featurize_text(w, d=4, seed=0)[0].tobytes())
        assert len(seen) == len(words)

    def test_empty_text_zero_token(self):
        with pytest.warns(UserWarning, match="empty text"):
            tokens = featurize_text("...", d=8, seed=0)
        assert tokens.shape == (1, 8)
        assert np.all(tokens == 0)

    def test_seed_changes_vectors(self):
        a = featurize_text("good", d=8, seed=0)
        b = featurize_text("good", d=8, seed=1)
        assert not np.allclose(a, b)


class TestIngest:
    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text("")
        with pytest.raises(DataError, match="no examples"):
            ingest_jsonl(path)

    def test_round_trip_identity(self, tmp_path, rng):
        rows = [
            {"id": i, "embedding": rng.standard_normal((3, 4)).tolist(),
             "label": "pos" if i % 2 else "neg"}
            for i in range(6)
        ]
        src = tmp_path / "src.jsonl"
        write_jsonl(src, rows)
        corpus = ingest_jsonl(src)
        out = tmp_path / "out.jsonl"
        export_jsonl(corpus, out)
        again = ingest_jsonl(out)
        assert again.class_names == corpus.class_names
        assert again.ids == corpus.ids
        for a, b in zip(corpus.tokens, again.tokens):
            np.testing.assert_array_equal(a, b)
        assert np.array_equal(corpus.labels, again.labels)

    def test_embedding_wins_over_text(self, tmp_path):
        rows = [{"id": 0, "text": "hello there", "embedding": [[1.0, 2.0]],
                 "label": 0},
                {"id": 1, "embedding": [[0.0, 1.0]], "label": 1}]
        path = tmp_path / "c.jsonl"
        write_jsonl(path, rows)
        with pytest.warns(UserWarning, match="embedding wins"):
            corpus = ingest_jsonl(path, featurizer=FeaturizerConfig(d=2))
        np.testing.assert_array_equal(corpus.tokens[0], [[1.0, 2.0]])

    def test_duplicate_ids_rejected(self, tmp_path):
        rows = [{"id": 1, "embedding": [[0.0]], "label": 0},
                {"id": 1, "embedding": [[1.0]], "label": 0}]
        path = tmp_path / "c.jsonl"
        write_jsonl(path, rows)
        with pytest.raises(DataError, match="duplicate id"):
            ingest_jsonl(path)

    @pytest.mark.parametrize("ids, first_bad", [
        ([1, "s2", 3, "s4"], 2), (["a", "b", 3], 3), ([0, True], 2), ([False, 1], 1),
        ([None, 1], 1), ([1.5, 2.5], 1)])
    def test_ids_must_be_all_ints_or_all_strings(self, tmp_path, ids, first_bad):
        rows = [{"id": ex_id, "embedding": [[float(i)]], "label": 0}
                for i, ex_id in enumerate(ids)]
        path = tmp_path / "c.jsonl"
        write_jsonl(path, rows)
        with pytest.raises(DataError) as exc:
            ingest_jsonl(path)
        assert str(exc.value).splitlines()[1].strip().startswith(f"line {first_bad}: id")

    def test_unknown_label_rejected(self, tmp_path):
        rows = [{"id": 0, "embedding": [[0.0]], "label": "mystery"}]
        path = tmp_path / "c.jsonl"
        write_jsonl(path, rows)
        with pytest.raises(DataError, match="unknown label"):
            ingest_jsonl(path, class_names=["pos", "neg"])

    @pytest.mark.parametrize("embedding, message", [
        ([], "must be a vector or a matrix"), ([[]], "must be a vector or a matrix"),
        ([[0.0, float("nan")]], "has non-finite"), ([1.0, float("inf")], "has non-finite")])
    def test_empty_or_non_finite_embedding_is_a_bad_line(self, tmp_path, embedding, message):
        rows = [{"id": 0, "embedding": [[0.0, 1.0]], "label": 0},
                {"id": 1, "embedding": embedding, "label": 0}]
        path = tmp_path / "c.jsonl"
        write_jsonl(path, rows)
        with pytest.raises(DataError, match=f"line 2: embedding {message}"):
            ingest_jsonl(path)

    def test_mixed_dims_rejected(self, tmp_path):
        rows = [{"id": 0, "embedding": [[0.0, 1.0]], "label": 0},
                {"id": 1, "embedding": [[0.0, 1.0, 2.0]], "label": 0}]
        path = tmp_path / "c.jsonl"
        write_jsonl(path, rows)
        with pytest.raises(DataError, match="mixed embedding dimensions"):
            ingest_jsonl(path)

    def test_malformed_lines_collected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"id": 0, "embedding": [[1.0]], "label": 0}\n'
                        'not json at all\n'
                        '{"id": 2, "label": 0}\n')
        with pytest.raises(DataError) as exc:
            ingest_jsonl(path)
        msg = str(exc.value)
        assert "line 2" in msg and "line 3" in msg

    def test_featurized_text_rows(self, tmp_path):
        rows = [{"id": 0, "text": "good movie", "label": "pos"},
                {"id": 1, "text": "bad movie", "label": "neg"}]
        path = tmp_path / "c.jsonl"
        write_jsonl(path, rows)
        corpus = ingest_jsonl(path, featurizer=FeaturizerConfig(d=8, seed=3))
        assert corpus.dim == 8
        assert corpus.tokens[0].shape == (2, 8)

    def test_default_target_is_rarest(self, tmp_path):
        rows = ([{"id": i, "embedding": [[0.0]], "label": "big"} for i in range(4)]
                + [{"id": 9, "embedding": [[1.0]], "label": "small"}])
        path = tmp_path / "c.jsonl"
        write_jsonl(path, rows)
        corpus = ingest_jsonl(path)
        assert corpus.class_names[corpus.target_class] == "small"


    def test_normalized_export_warns_once(self, tmp_path):
        # An export writes text and embedding on every text row; loading it
        # warns once for the file, not once per row.
        path, out = tmp_path / "c.jsonl", tmp_path / "out.jsonl"
        write_jsonl(path, [{"id": i, "text": f"row {i}", "label": i % 2} for i in range(50)])
        export_jsonl(ingest_jsonl(path, featurizer=FeaturizerConfig(d=4)), out)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            ingest_jsonl(out)
        assert [str(w.message) for w in caught] == [
            "both text and embedding given on 50 line(s), the first line 1; embedding wins"]

    @pytest.mark.parametrize("keys, message", [
        ({"target_class": 0.6}, "target_class must be an int or a class name (got 0.6)"),
        ({"target_class": 1.9}, "target_class must be an int or a class name (got 1.9)"),
        ({"target_class": True}, "target_class must be an int or a class name (got True)"),
        ({"target_class": [1]}, "target_class must be an int or a class name (got [1])"),
        ({"class_names": "ab"}, "class_names must be a list of strings (got 'ab')"),
        ({"class_names": ["a", 1]}, "class_names must be a list of strings (got ['a', 1])"),
        ({"class_names": ["a", "a", "b"]}, "class_names repeats ['a'] (got ['a', 'a', 'b'])"),
        ({"class_names": ("b", "a", "b", "a", "c")},
         "class_names repeats ['a', 'b'] (got ['b', 'a', 'b', 'a', 'c'])")])
    def test_class_keys_checked_before_the_file_is_read(self, tmp_path, keys, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            ingest_jsonl(tmp_path / "missing.jsonl", **keys)

    @pytest.mark.parametrize("target", [1, np.int64(1), "small"])
    def test_target_class_by_index_or_name(self, tmp_path, target):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [{"id": 0, "embedding": [[0.0]], "label": "big"},
                           {"id": 1, "embedding": [[1.0]], "label": "small"}])
        corpus = ingest_jsonl(path, class_names=["big", "small"], target_class=target)
        assert corpus.target_class == 1


class TestSynthetic:
    def test_minority_count_within_3_sigma(self):
        spec = SynthSpec(n=2000, d=8, priors=(0.9, 0.1), seed=5)
        corpus = make_synthetic(spec)
        minority = np.sum(corpus.labels == 1)
        sigma = np.sqrt(2000 * 0.1 * 0.9)
        assert abs(minority - 200) <= 3 * sigma
        assert corpus.target_class == 1

    def test_zero_noise_separable_by_nearest_centroid(self):
        spec = SynthSpec(n=300, d=8, priors=(0.5, 0.5), noise=0.0,
                         clusters_per_class=2, seed=2)
        corpus = make_synthetic(spec)
        # Nearest-centroid oracle: centroids recovered from the data itself.
        pooled, labels = corpus.pooled, corpus.labels
        centroids, cent_labels = [], []
        seen = set()
        for row, lab in zip(pooled, labels):
            key = row.tobytes()
            if key not in seen:
                seen.add(key)
                centroids.append(row)
                cent_labels.append(lab)
        centroids = np.stack(centroids)
        cent_labels = np.array(cent_labels)
        dist = ((pooled[:, None, :] - centroids[None, :, :]) ** 2).sum(-1)
        preds = cent_labels[np.argmin(dist, axis=1)]
        assert np.mean(preds == labels) == 1.0

    def test_token_counts_in_range(self):
        corpus = make_synthetic(SynthSpec(n=50, d=4, seed=0))
        for tokens in corpus.tokens:
            assert 3 <= tokens.shape[0] <= 12

    def test_seeded_determinism(self):
        a = make_synthetic(SynthSpec(n=40, d=4, seed=7))
        b = make_synthetic(SynthSpec(n=40, d=4, seed=7))
        for xa, xb in zip(a.tokens, b.tokens):
            np.testing.assert_array_equal(xa, xb)

    def test_bad_priors_rejected(self):
        with pytest.raises(ConfigError):
            SynthSpec(priors=(0.5, 0.6))

    # Blocks of 32 rows at d = 32 and hi = 12, and of 307 rows at d = 1 and
    # hi = 40; neither row count is a multiple of its block.
    GRID = {
        "one-row": SynthSpec(n=1, d=4),
        "d32": SynthSpec(n=500, d=32, seed=1),
        "one-token": SynthSpec(n=300, d=5, token_count_range=(1, 1), seed=2),
        "twelve-tokens": SynthSpec(n=300, d=5, token_count_range=(12, 12), seed=3),
        "1-40-tokens": SynthSpec(n=300, d=5, token_count_range=(1, 40), seed=4),
        "d1": SynthSpec(n=1000, d=1, token_count_range=(1, 40), seed=5),
        "no-noise": SynthSpec(n=200, d=3, noise=0.0, seed=6),
        "signed-zeros": SynthSpec(n=50, d=3, noise=0, separation=0.0, seed=7),
        "three-classes": SynthSpec(n=400, d=6, priors=(0.5, 0.3, 0.2),
                                   clusters_per_class=3, seed=8),
    }

    @staticmethod
    def assert_equals_rows_build(spec, keep_tokens):
        corpus = make_synthetic(spec, keep_tokens=keep_tokens)
        rows = make_synthetic_rows(spec, keep_tokens=keep_tokens)
        assert_same_columns(corpus, rows)
        if not keep_tokens:
            assert corpus.tokens is None and rows.tokens is None
            return
        assert len(corpus.tokens) == len(rows.tokens) == spec.n
        assert_pooled_is_the_token_mean(corpus)
        for cloud, want in zip(corpus.tokens, rows.tokens):
            assert cloud.shape == want.shape and cloud.tobytes() == want.tobytes()

    @pytest.mark.parametrize("keep_tokens", [True, False])
    @pytest.mark.parametrize("name", sorted(GRID))
    def test_equals_the_row_by_row_build_bitwise(self, name, keep_tokens):
        self.assert_equals_rows_build(self.GRID[name], keep_tokens)

    @pytest.mark.parametrize("block_bytes", [1, 8 * 12 * 4 * 7])
    def test_equals_the_row_by_row_build_in_small_blocks(self, monkeypatch, block_bytes):
        # Blocks of one row, and of seven rows at d = 4 and hi = 12.
        monkeypatch.setattr(data, "_BLOCK_BYTES", block_bytes)
        self.assert_equals_rows_build(SynthSpec(n=100, d=4, seed=9), True)

    def test_kept_clouds_are_arrays_of_their_own(self):
        clouds = make_synthetic(SynthSpec(n=100, d=4)).tokens
        assert all(cloud.base is None and cloud.flags.c_contiguous for cloud in clouds)

    def test_build_peaks_near_the_corpus_it_keeps(self, monkeypatch):
        # The benchmark's corpus. Its clouds are built in blocks of 32 rows,
        # in two 96 KiB buffers reused from block to block; each buffer
        # stays under glibc's 128 KiB mmap threshold, so a block's buffers
        # come back from the heap and are not mapped afresh.
        spec = SynthSpec(n=2000, d=32, priors=(0.9, 0.1), clusters_per_class=4, noise=1.2,
                         separation=5.0, seed=1234)
        sizes = []

        def recorded(*shape):
            buffers = block_buffers(*shape)
            sizes.extend(b.nbytes for b in buffers)
            return buffers

        block_buffers = data._block_buffers
        monkeypatch.setattr(data, "_block_buffers", recorded)
        make_synthetic(SynthSpec(n=5, d=2), keep_tokens=False)    # lazy imports
        tracemalloc.start()
        try:
            corpus = make_synthetic(spec, keep_tokens=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(sizes) == 4 and max(sizes) < 128 * 2**10
        # pooled, labels and the per-row class, cluster and count draws;
        # the ids, the two buffers and each block's temporaries fit in four
        # 128 KiB buffers (1.02 MB measured against 1.10 MB).
        assert peak <= (corpus.pooled.nbytes + 4 * corpus.labels.nbytes
                        + 4 * 128 * 2**10)


class TestSeeds:
    def test_balanced_ratio_within_3_sigma(self):
        corpus = make_synthetic(SynthSpec(n=1000, d=4, priors=(0.5, 0.5), seed=1))
        spec = SeedSpec(setting="balanced", seed_size=30, seed=3)
        labeled, unlabeled = build_seed(corpus, spec)
        assert len(labeled) == 30
        assert set(labeled) | set(unlabeled) == set(corpus.ids)
        assert not set(labeled) & set(unlabeled)
        n_minority = sum(1 for i in labeled if corpus.labels[row_of(corpus)[i]] == 1)
        # Hypergeometric 3 sigma around 15.
        sigma = np.sqrt(30 * 0.5 * 0.5 * (1000 - 30) / 999)
        assert abs(n_minority - 15) <= 3 * sigma

    def test_imbalanced_minority_seeds_truly_minority(self):
        corpus = make_synthetic(SynthSpec(n=800, d=4, priors=(0.9, 0.1), seed=2))
        spec = SeedSpec(setting="imbalanced", seed_size=24, seed=5)
        labeled, _ = build_seed(corpus, spec)
        minors = [row_of(corpus)[i] for i in labeled[:12]]
        assert all(corpus.labels[r] == corpus.target_class for r in minors)

    def test_practical_seeds_more_concentrated(self):
        corpus = make_synthetic(SynthSpec(n=800, d=8, priors=(0.85, 0.15), seed=4))

        def minority_spread(setting, seed):
            spec = SeedSpec(setting=setting, seed_size=24, seed=seed)
            labeled, _ = build_seed(corpus, spec)
            picked = [row_of(corpus)[i] for i in labeled]
            rows = corpus.pooled[[r for r in picked
                                  if corpus.labels[r] == corpus.target_class]]
            diffs = rows[:, None, :] - rows[None, :, :]
            return np.sqrt((diffs ** 2).sum(-1)).mean()

        wins = 0
        for s in range(20):
            if minority_spread("imbalanced-practical", s) < minority_spread("imbalanced", s):
                wins += 1
        assert wins >= 15

    def test_partition_exact(self):
        corpus = make_synthetic(SynthSpec(n=100, d=4, seed=1))
        labeled, unlabeled = build_seed(corpus, SeedSpec(seed_size=10, seed=0))
        assert sorted(labeled + unlabeled) == sorted(corpus.ids)

    def test_seed_too_large_rejected(self):
        corpus = make_synthetic(SynthSpec(n=10, d=4, seed=1))
        with pytest.raises(DataError):
            build_seed(corpus, SeedSpec(seed_size=11))


class TestDistancePercentile:
    @staticmethod
    def brute_force(x, percentile):
        dist = np.sqrt(((x[:, None, :] - x[None, :, :]) ** 2).sum(-1))
        return np.percentile(dist[np.triu_indices(len(x), k=1)], percentile)

    @pytest.mark.parametrize("percentile", [0.0, 10.0, 50.0, 100.0])
    def test_matches_brute_force(self, percentile):
        x = np.random.default_rng(3).standard_normal((40, 6))
        got = _pairwise_distance_percentile(x, percentile, np.random.default_rng(0))
        assert got == pytest.approx(self.brute_force(x, percentile), rel=1e-12)

    @pytest.mark.parametrize("n, seed", [(2, 0), (60, 1), (1000, 2), (1600, 3)])
    @pytest.mark.parametrize("percentile", [0.0, 10.0, 37.5, 100.0])
    def test_equals_the_concatenating_reference_bitwise(self, n, seed, percentile):
        x = np.random.default_rng(seed).standard_normal((n, 8))
        got = _pairwise_distance_percentile(x, percentile, np.random.default_rng(seed + 10))
        want = pairwise_distance_percentile(x, percentile, np.random.default_rng(seed + 10))
        assert np.float64(got).tobytes() == np.float64(want).tobytes()

    def test_peak_is_one_distance_buffer(self):
        # The benchmark corpus's pool split, 1,600 rows: the radius reads
        # 1,000 seeded rows, whose 499,500 distances fill one buffer.
        corpus = make_synthetic(SynthSpec(n=2000, d=32, priors=(0.9, 0.1),
                                          clusters_per_class=4, noise=1.2,
                                          separation=5.0, seed=1234), keep_tokens=False)
        pooled = train_val_split(corpus, val_fraction=0.2, seed=100)[0].pooled
        assert pooled.shape[0] == 1600
        tracemalloc.start()
        try:
            _pairwise_distance_percentile(pooled, 10.0, np.random.default_rng(0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * 8 * (1000 * 999 // 2)

    def test_large_input_uses_seeded_subsample(self):
        x = np.random.default_rng(4).standard_normal((1200, 2))
        got = _pairwise_distance_percentile(x, 10.0, np.random.default_rng(7))
        pick = np.random.default_rng(7).choice(1200, size=1000, replace=False)
        assert got == pytest.approx(self.brute_force(x[pick], 10.0), rel=1e-12)


class TestSplit:
    def test_split_partition_and_determinism(self):
        corpus = make_synthetic(SynthSpec(n=100, d=4, seed=3))
        pool, val = train_val_split(corpus, val_fraction=0.2, seed=9)
        assert pool.n == 80 and val.n == 20
        assert set(pool.ids) | set(val.ids) == set(corpus.ids)
        pool2, val2 = train_val_split(corpus, val_fraction=0.2, seed=9)
        assert pool.ids == pool2.ids and val.ids == val2.ids

    def test_bad_fraction(self):
        corpus = make_synthetic(SynthSpec(n=10, d=4, seed=3))
        with pytest.raises(ConfigError):
            train_val_split(corpus, val_fraction=1.5)
