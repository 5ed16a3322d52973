"""Corpus ingestion, featurization, synthetic data, and labeling seeds.

JSONL is the single corpus format. One JSON object per line with fields:

    id         int or string, unique across the file; all of one type, since
               strategies sort and tie-break by id
    text       optional string
    embedding  optional; list of floats (one token) or list of rows
    label      class name (string) or class index (int)

Lines need text or embedding; when both are present the embedding wins, and
one warning per file counts such lines. Malformed lines are collected into
one error report and the whole ingest aborts if any line is bad.

Text featurization is deterministic across runs and machines: tokens are
lowercased alphanumeric runs, and each distinct token maps to a Gaussian
vector drawn from a generator seeded with fnv1a64(token) XOR seed.
"""

from __future__ import annotations

import json
import re
import warnings
from dataclasses import InitVar, dataclass, field

import numpy as np

from .errors import (ConfigError, DataError, ShapeError, _is_int, _is_real, check_simplex,
                     check_types)
from .seeding import fnv1a64, rng_for

_TOKEN_RE = re.compile(r"[a-z0-9]+")
_MASK64 = 0xFFFFFFFFFFFFFFFF


@dataclass(frozen=True)
class FeaturizerConfig:
    d: int = 64
    seed: int = 0

    def __post_init__(self):
        check_types(FeaturizerConfig, vars(self), "featurize ")
        if self.d < 1 or self.seed < 0:
            raise ConfigError(f"featurize needs d >= 1 and seed >= 0 "
                              f"(got d={self.d}, seed={self.seed})")


def _pool(clouds, n: int, keep: bool):
    """``(pooled, clouds)`` of ``n`` rows' clouds, read once in row order:
    each row's pooled vector is its cloud's token mean, and the clouds come
    back as a tuple when ``keep``, else None."""
    pooled = None
    kept = []
    count = 0
    for cloud in clouds:
        cloud = np.asarray(cloud, dtype=np.float64)
        if cloud.ndim != 2 or cloud.shape[0] == 0:
            raise DataError("every row's tokens must be a non-empty (n, d) matrix")
        if count == n:
            raise ShapeError("corpus columns need one entry per id", expected=n,
                             actual=f"more than {n} token matrices")
        if pooled is None:
            pooled = np.empty((n, cloud.shape[1]))
        elif cloud.shape[1] != pooled.shape[1]:
            raise DataError("mixed embedding dimensions in corpus: "
                            f"{sorted({pooled.shape[1], cloud.shape[1]})}")
        pooled[count] = cloud.mean(axis=0)
        if keep:
            kept.append(cloud)
        count += 1
    if count != n:
        raise ShapeError("corpus columns need one entry per id", expected=n,
                         actual=f"{count} token matrices")
    return pooled, tuple(kept) if keep else None


@dataclass(frozen=True)
class Corpus:
    """The corpus as columns, one entry per row: ``ids``, ``tokens`` (each an
    (n_i, d) token matrix, the row's cloud), ``labels`` (class indices) and
    ``texts`` (None for rows given as embeddings). ``pooled`` (N, d) holds
    each row's token mean; it is derived here from the clouds, never passed
    in. (``ingest_jsonl`` builds a corpus without clouds from the means it
    read, through ``_of_means``, with the same checks.)

    ``tokens`` may be any iterable; it is read once, in row order, and each
    cloud is pooled as it is read. With ``keep_tokens=False`` the clouds are
    dropped once pooled and ``tokens`` is None: the experiment loop reads
    pooled vectors only, so ``harness.load_corpus`` builds its corpora that
    way. Exporting a corpus (``export_jsonl``) and
    ``barysample.barycenter_tokens`` need the clouds kept."""

    ids: tuple
    tokens: tuple | None
    labels: np.ndarray
    texts: tuple
    class_names: tuple
    target_class: int
    pooled: np.ndarray = field(init=False, repr=False)
    keep_tokens: InitVar[bool] = True

    def __post_init__(self, keep_tokens):
        ids, labels, texts = self._rows()
        pooled, tokens = _pool(self.tokens, len(ids), keep_tokens)
        self._settle(ids, tokens, labels, texts, pooled)

    @classmethod
    def _of_means(cls, ids, pooled: np.ndarray, labels, texts, class_names,
                  target_class: int) -> "Corpus":
        """The corpus without clouds whose rows' token means are the rows of
        ``pooled`` (N, d), which becomes its ``pooled`` without a copy."""
        corpus = object.__new__(cls)
        for name, value in (("ids", ids), ("labels", labels), ("texts", texts),
                            ("class_names", class_names), ("target_class", target_class)):
            object.__setattr__(corpus, name, value)
        ids, labels, texts = corpus._rows()
        if pooled.ndim != 2 or len(pooled) != len(ids):
            raise ShapeError("corpus columns need one entry per id", expected=len(ids),
                             actual=pooled.shape)
        corpus._settle(ids, None, labels, texts, pooled)
        return corpus

    def _rows(self):
        """``ids``, ``labels`` and ``texts`` as stored, checked against
        each other."""
        ids, texts = tuple(self.ids), tuple(self.texts)
        labels = np.asarray(self.labels)
        n = len(ids)
        if n == 0:
            raise DataError("corpus has no rows")
        if not (len(texts) == n and labels.shape == (n,)):
            raise ShapeError("corpus columns need one entry per id", expected=n,
                             actual=(labels.shape, len(texts)))
        if len(set(ids)) != n:
            raise DataError("corpus ids are not unique")
        return ids, labels, texts

    def _settle(self, ids, tokens, labels, texts, pooled) -> None:
        """Check what is left and store every column."""
        # A non-finite token makes its row's mean non-finite, so this one
        # check covers every token.
        if not np.all(np.isfinite(pooled)):
            raise DataError("corpus token embeddings contain non-finite entries")
        class_names = tuple(self.class_names)
        if labels.dtype.kind not in "iu" or labels.min() < 0 or labels.max() >= len(class_names):
            raise DataError(f"corpus labels must be class indices below {len(class_names)}")
        if not (0 <= self.target_class < len(class_names)):
            raise ConfigError(f"target_class {self.target_class} out of range")
        for name, value in (("ids", ids), ("tokens", tokens), ("labels", labels.astype(np.intp)),
                            ("texts", texts), ("class_names", class_names),
                            ("pooled", pooled)):
            object.__setattr__(self, name, value)

    @property
    def n(self) -> int:
        return len(self.ids)

    @property
    def dim(self) -> int:
        return self.pooled.shape[1]

    @property
    def n_classes(self) -> int:
        return len(self.class_names)

    def take(self, rows) -> "Corpus":
        """The corpus of the given distinct row indices in ``[0, n)``, in that
        order. The columns, ``pooled`` included, are sliced (``tokens`` stays
        None on a corpus without clouds); nothing is re-derived or
        re-checked, since every check holds for a subset of rows."""
        rows = np.asarray(rows, dtype=np.intp)
        outside = rows[(rows < 0) | (rows >= self.n)]
        if len(outside):
            raise DataError(f"take needs rows in [0, {self.n}); "
                            f"got {sorted(set(outside.tolist()))}")
        values, counts = np.unique(rows, return_counts=True)
        if len(values) != len(rows):
            raise DataError(f"take needs distinct rows; repeated {values[counts > 1].tolist()}")
        tokens = None if self.tokens is None else tuple(self.tokens[r] for r in rows)
        sub = object.__new__(Corpus)
        for name, value in (("ids", tuple(self.ids[r] for r in rows)),
                            ("tokens", tokens),
                            ("labels", self.labels[rows]),
                            ("texts", tuple(self.texts[r] for r in rows)),
                            ("class_names", self.class_names),
                            ("target_class", self.target_class),
                            ("pooled", self.pooled[rows])):
            object.__setattr__(sub, name, value)
        return sub

    def class_priors(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.n_classes) / self.n


def featurize_text(text: str, d: int = 64, seed: int = 0) -> np.ndarray:
    """Deterministic pseudo-embedding, an (n, d) token matrix: one fixed
    Gaussian vector per distinct lowercase token. Empty text maps to a
    single zero token."""
    tokens = _TOKEN_RE.findall(text.lower())
    if not tokens:
        warnings.warn("empty text; using a single zero-vector token")
        return np.zeros((1, d))
    cache = {}
    rows = []
    for tok in tokens:
        if tok not in cache:
            gen = np.random.default_rng((fnv1a64(tok) ^ seed) & _MASK64)
            cache[tok] = gen.standard_normal(d)
        rows.append(cache[tok])
    return np.stack(rows)


def _parse_embedding(value, line_no: int):
    arr = np.asarray(value, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.size == 0:
        raise ValueError(f"line {line_no}: embedding must be a vector or a matrix")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"line {line_no}: embedding has non-finite entries")
    return arr


def check_class_keys(class_names, target_class) -> None:
    """Raise a ConfigError unless ``class_names`` is None or a list of
    distinct strings, and ``target_class`` is None, an int (not a bool) or
    a class name."""
    if class_names is not None:
        if not (isinstance(class_names, (list, tuple))
                and all(isinstance(c, str) for c in class_names)):
            raise ConfigError(f"class_names must be a list of strings (got {class_names!r})")
        repeats = sorted({c for c in class_names if class_names.count(c) > 1})
        if repeats:
            raise ConfigError(f"class_names repeats {repeats} (got {list(class_names)!r})")
    if not (target_class is None or _is_int(target_class) or isinstance(target_class, str)):
        raise ConfigError(f"target_class must be an int or a class name (got {target_class!r})")


def ingest_jsonl(
    path,
    featurizer: FeaturizerConfig | None = None,
    class_names=None,
    target_class=None,
    keep_tokens: bool = True,
) -> Corpus:
    """Read a JSONL corpus, featurizing text rows when no embedding is given.

    ``class_names`` fixes the label set (unknown labels become errors);
    otherwise names are inferred from the observed labels. ``target_class``
    may be an index or a class name; the default is the rarest class
    (lowest index on ties). Both are checked (``check_class_keys``) before
    the file is opened. Rows that give both text and embedding take the
    embedding, with one warning for the file.

    Every row must have the first row's width (a text row's is the
    featurizer's ``d``); a row that does not is a bad line. Text rows are
    featurized one at a time, after every line has passed. With
    ``keep_tokens=False`` (how ``harness.load_corpus`` reads a file) each
    row's token mean goes into one (N, d) store as its line is parsed, the
    rows counted by a first pass over the open file, which is then read
    again from the start: that store becomes ``pooled``, and the corpus
    holds no clouds. A stream that cannot be read twice (a pipe) is read
    once, its rows' means stacked at the end. ``allwas ingest --out`` keeps
    the clouds to export.
    """
    check_class_keys(class_names, target_class)
    ids, texts, labels, line_nos = [], [], [], []
    clouds = []                                 # the embeddings, or their means on a stream
    pooled = None                               # or the store of token means
    pending = []                                # text rows, pooled at the end
    width = None                                # the first row's dimension
    errors = []
    seen_ids = set()
    both = []                                   # line numbers of text + embedding rows
    with open(path, "r", encoding="utf-8") as fh:
        lines = None                            # the store's rows: non-blank lines
        if not keep_tokens and fh.seekable():
            lines = sum(1 for line in fh if line.strip())
            fh.seek(0)
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                if "id" not in obj or "label" not in obj:
                    raise ValueError(f"line {line_no}: missing id or label")
                ex_id = obj["id"]
                if type(ex_id) not in (int, str):
                    raise ValueError(f"line {line_no}: id must be an int or a string")
                if ids and type(ex_id) is not type(ids[0]):
                    raise ValueError(f"line {line_no}: id {ex_id!r} mixes ints and strings")
                if ex_id in seen_ids:
                    raise ValueError(f"line {line_no}: duplicate id {ex_id!r}")
                seen_ids.add(ex_id)
                text = obj.get("text")
                emb_raw = obj.get("embedding")
                if emb_raw is None and text is None:
                    raise ValueError(f"line {line_no}: needs text or embedding")
                if emb_raw is not None:
                    if text is not None:
                        both.append(line_no)
                    tokens = _parse_embedding(emb_raw, line_no)
                elif featurizer is None:
                    raise ValueError(
                        f"line {line_no}: text-only row but no featurizer configured")
                else:
                    tokens = None
                d = featurizer.d if tokens is None else tokens.shape[1]
                width = d if width is None else width
                if d != width:
                    raise ValueError(f"line {line_no}: mixed embedding dimensions in corpus: "
                                     f"{sorted({width, d})}")
            except (ValueError, TypeError, json.JSONDecodeError) as exc:
                errors.append(str(exc) if str(exc).startswith("line")
                              else f"line {line_no}: {exc}")
                continue
            if tokens is None:
                pending.append(len(ids))
            if keep_tokens:
                clouds.append(tokens)
            elif lines is None:
                clouds.append(None if tokens is None else tokens.mean(axis=0))
            else:
                if len(ids) == lines:
                    raise DataError(f"line {line_no}: more rows than the {lines} non-blank "
                                    f"lines first counted; the file changed while it was read")
                if pooled is None:
                    pooled = np.empty((lines, width))
                if tokens is not None:
                    pooled[len(ids)] = tokens.mean(axis=0)
            ids.append(ex_id)
            texts.append(text)
            labels.append(obj["label"])
            line_nos.append(line_no)
    del seen_ids                                # bookkeeping goes before the corpus is built
    if errors:
        raise DataError("bad corpus lines:\n  " + "\n  ".join(errors))
    if not ids:
        raise DataError("no examples in corpus file")
    if both:
        warnings.warn(f"both text and embedding given on {len(both)} line(s), the first "
                      f"line {both[0]}; embedding wins")

    if class_names is None:
        if all(isinstance(l, int) for l in labels):
            class_names = [str(i) for i in range(max(labels) + 1)]
        else:
            class_names = sorted({str(l) for l in labels})
    class_names = list(class_names)
    name_to_idx = {name: i for i, name in enumerate(class_names)}

    label_idx = []
    for label, line_no in zip(labels, line_nos):
        if isinstance(label, int) and not isinstance(label, bool):
            if not (0 <= label < len(class_names)):
                errors.append(f"line {line_no}: label index {label} out of range")
                continue
            label_idx.append(label)
        else:
            key = str(label)
            if key not in name_to_idx:
                errors.append(f"line {line_no}: unknown label {label!r}")
                continue
            label_idx.append(name_to_idx[key])
    del labels, line_nos
    if errors:
        raise DataError("bad corpus lines:\n  " + "\n  ".join(errors))

    if target_class is None:
        target_idx = int(np.argmin(np.bincount(label_idx, minlength=len(class_names))))
    elif isinstance(target_class, str):
        if target_class not in name_to_idx:
            raise ConfigError(f"unknown target_class {target_class!r}; "
                              f"classes are {class_names}")
        target_idx = name_to_idx[target_class]
    else:
        target_idx = int(target_class)
    if keep_tokens:
        clouds = (featurize_text(text, featurizer.d, featurizer.seed) if t is None else t
                  for text, t in zip(texts, clouds))
        return Corpus(ids, clouds, np.array(label_idx), texts, class_names, target_idx)
    if lines is not None and len(ids) != lines:
        raise DataError(f"{len(ids)} rows where {lines} non-blank lines were first counted; "
                        f"the file changed while it was read")
    means = clouds if lines is None else pooled
    for r in pending:
        means[r] = featurize_text(texts[r], featurizer.d, featurizer.seed).mean(axis=0)
    if lines is None:
        pooled = np.stack(clouds)
        del clouds, means
    return Corpus._of_means(ids, pooled, np.array(label_idx), texts, class_names, target_idx)


def export_jsonl(corpus: Corpus, path) -> None:
    """Write the corpus in the ingest schema; a round trip is an identity
    (embeddings are materialized). The corpus must hold its clouds: one
    built with ``keep_tokens=False``, as every experiment corpus is, is
    refused."""
    if corpus.tokens is None:
        raise DataError("this corpus holds no token clouds to export; rebuild it "
                        "with keep_tokens=True")
    with open(path, "w", encoding="utf-8") as fh:
        for ex_id, tokens, label, text in zip(corpus.ids, corpus.tokens, corpus.labels,
                                              corpus.texts):
            obj = {
                "id": ex_id,
                "embedding": [[float(v) for v in row] for row in tokens],
                "label": corpus.class_names[label],
            }
            if text is not None:
                obj["text"] = text
            fh.write(json.dumps(obj) + "\n")


@dataclass(frozen=True)
class SynthSpec:
    """Gaussian cluster-mixture corpus: per-class cluster centers with
    configurable priors and token noise."""

    n: int = 2000
    d: int = 32
    priors: tuple = (0.9, 0.1)
    clusters_per_class: int = 2
    noise: float = 1.0
    separation: float = 4.0
    seed: int = 0
    token_count_range: tuple = (3, 12)

    def __post_init__(self):
        for name, low in (("n", 1), ("d", 1), ("clusters_per_class", 1), ("seed", 0)):
            value = getattr(self, name)
            if not (_is_int(value) and value >= low):
                raise ConfigError(f"{name} must be an int >= {low} (got {value!r})")
        if not (isinstance(self.priors, (list, tuple, np.ndarray))
                and all(_is_real(p) for p in self.priors)):
            raise ConfigError(f"priors must be a list of numbers (got {self.priors!r})")
        priors = tuple(float(p) for p in self.priors)
        check_simplex(priors, ConfigError, "priors")
        # Each check is "not (valid)", so NaN fails too.
        if not all(p > 0 for p in priors):
            raise ConfigError(f"priors must be positive (got {priors!r})")
        if not (_is_real(self.noise) and 0 <= self.noise < np.inf):
            raise ConfigError(f"noise must be a finite number >= 0 (got {self.noise!r})")
        if not (_is_real(self.separation) and np.isfinite(self.separation)):
            raise ConfigError(f"separation must be a finite number (got {self.separation!r})")
        counts = self.token_count_range
        if not (isinstance(counts, (list, tuple)) and len(counts) == 2
                and all(_is_int(c) for c in counts) and 1 <= counts[0] <= counts[1]):
            raise ConfigError("token_count_range must be two ints lo, hi with "
                              f"1 <= lo <= hi (got {self.token_count_range!r})")
        object.__setattr__(self, "priors", priors)
        object.__setattr__(self, "token_count_range", tuple(counts))


def make_synthetic(spec: SynthSpec, keep_tokens: bool = True) -> Corpus:
    """Desk-scale corpus surrogate; ``noise=0`` makes classes separable by
    their nearest cluster centroid. Target class is the lowest prior.

    Each row's cloud is drawn just before the corpus pools it. With
    ``keep_tokens=False`` (how ``harness.load_corpus`` builds a spec) it is
    dropped once pooled and the corpus holds no clouds; ``allwas synth``
    keeps them to export."""
    rng = np.random.default_rng(spec.seed)
    n_classes = len(spec.priors)
    sigma = spec.separation / np.sqrt(2 * spec.d)
    centers = rng.standard_normal((n_classes, spec.clusters_per_class, spec.d)) * sigma

    classes = rng.choice(n_classes, size=spec.n, p=np.asarray(spec.priors))
    clusters = rng.integers(0, spec.clusters_per_class, size=spec.n)
    lo, hi = spec.token_count_range
    counts = rng.integers(lo, hi + 1, size=spec.n)

    clouds = (centers[classes[i], clusters[i]]
              + spec.noise * rng.standard_normal((counts[i], spec.d)) for i in range(spec.n))
    names = tuple(f"class{c}" for c in range(n_classes))
    target = int(np.argmin(spec.priors))
    return Corpus(range(spec.n), clouds, classes, (None,) * spec.n, names, target,
                  keep_tokens=keep_tokens)


SEED_SETTINGS = ("balanced", "imbalanced", "imbalanced-practical")


@dataclass(frozen=True)
class SeedSpec:
    """Initial labeled-set construction regime."""

    setting: str = "balanced"   # one of SEED_SETTINGS
    seed_size: int = 25
    seed: int = 0
    minority_fraction: float = 0.5
    radius_percentile: float = 10.0

    def __post_init__(self):
        check_types(SeedSpec, vars(self), "seed spec ")
        if self.setting not in SEED_SETTINGS:
            raise ConfigError(f"unknown seed setting {self.setting!r}")
        if self.seed_size < 1:
            raise ConfigError("seed_size must be >= 1")
        # Each check is "not (valid)", so NaN fails too.
        if not 0 <= self.minority_fraction <= 1:
            raise ConfigError(
                f"minority_fraction must be in [0, 1] (got {self.minority_fraction})")
        if not 0 <= self.radius_percentile <= 100:
            raise ConfigError(
                f"radius_percentile must be in [0, 100] (got {self.radius_percentile})")


def _pairwise_distance_percentile(pooled: np.ndarray, percentile: float,
                                  rng: np.random.Generator) -> float:
    """Percentile of pairwise row distances, over at most 1000 seeded rows.
    The distances fill one buffer, row by row, and the percentile partitions
    it in place."""
    n = pooled.shape[0]
    if n > 1000:
        pooled = pooled[rng.choice(n, size=1000, replace=False)]
        n = 1000
    dist = np.empty(n * (n - 1) // 2)
    start = 0
    for i in range(n - 1):
        stop = start + n - 1 - i
        np.sqrt(np.sum((pooled[i + 1:] - pooled[i]) ** 2, axis=1), out=dist[start:stop])
        start = stop
    return float(np.percentile(dist, percentile, overwrite_input=True))


def build_seed(corpus: Corpus, spec: SeedSpec):
    """Initial (labeled ids, unlabeled ids) partition of the corpus.

    balanced: uniform random seed. imbalanced: a minority_fraction share
    drawn from the true target class (a stand-in for a high-precision
    oracle), rest uniform from the remainder. imbalanced-practical:
    minority seeds come only from the neighbor ball around one random
    minority point (radius = the given percentile of pairwise pooled
    distances), simulating a biased keyword search; rest uniform.
    """
    if spec.seed_size > corpus.n:
        raise DataError(f"seed size {spec.seed_size} exceeds corpus ({corpus.n})")
    stratified = spec.setting != "balanced"
    if stratified and spec.seed_size < corpus.n_classes:
        raise ConfigError("seed size must cover at least one per class")
    rng = rng_for(spec.seed, "build-seed", spec.setting)
    ids = corpus.ids

    if spec.setting == "balanced":
        picked = rng.choice(corpus.n, size=spec.seed_size, replace=False)
        labeled = [ids[i] for i in picked]
    else:
        minority = np.flatnonzero(corpus.labels == corpus.target_class)
        if not len(minority):
            raise DataError("corpus has no examples of the target class")
        n_min = min(int(round(spec.seed_size * spec.minority_fraction)), len(minority))
        n_min = max(n_min, 1)
        if spec.setting == "imbalanced":
            chosen_min = rng.choice(len(minority), size=n_min, replace=False)
            min_ids = minority[chosen_min].tolist()
        else:
            pooled = corpus.pooled
            radius = _pairwise_distance_percentile(pooled, spec.radius_percentile, rng)
            anchor = minority[int(rng.integers(len(minority)))]
            dist = np.linalg.norm(pooled[minority] - pooled[anchor], axis=1)
            ball = minority[dist <= radius]
            if len(ball) < n_min:
                ball = minority[np.argsort(dist, kind="stable")[:n_min]]
            chosen = rng.choice(len(ball), size=n_min, replace=False)
            min_ids = ball[chosen].tolist()
        min_set = set(min_ids)
        rest_pool = [i for i in range(corpus.n) if i not in min_set]
        n_rest = spec.seed_size - len(min_ids)
        chosen_rest = rng.choice(len(rest_pool), size=n_rest, replace=False)
        labeled = [ids[i] for i in min_ids] + [ids[rest_pool[i]] for i in chosen_rest]

    labeled_set = set(labeled)
    unlabeled = [i for i in ids if i not in labeled_set]
    return labeled, unlabeled


def train_val_split(corpus: Corpus, val_fraction: float = 0.2, seed: int = 0):
    """Seeded shuffle split into (pool corpus, validation corpus)."""
    if not (0.0 < val_fraction < 1.0):
        raise ConfigError("val_fraction must be in (0, 1)")
    rng = rng_for(seed, "train-val-split")
    order = rng.permutation(corpus.n)
    n_val = max(1, int(round(corpus.n * val_fraction)))
    return corpus.take(np.sort(order[n_val:])), corpus.take(np.sort(order[:n_val]))
