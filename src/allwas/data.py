"""Corpus ingestion, featurization, synthetic data, and labeling seeds.

JSONL is the single corpus format. One JSON object per line with fields:

    id         int or string, unique across the file; all of one type, since
               strategies sort and tie-break by id
    text       optional string
    embedding  optional; list of floats (one token) or list of rows
    label      class name (string) or class index (int)

Lines need text or embedding; when both are present the embedding wins and
a warning is logged. Malformed lines are collected into one error report
and the whole ingest aborts if any line is bad.

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
    each row's token mean; it is derived here, never passed in.

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
        pooled, tokens = _pool(self.tokens, n, keep_tokens)
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
    (lowest index on ties).

    Text rows are featurized one at a time as the corpus pools them. With
    ``keep_tokens=False`` (how ``harness.load_corpus`` reads a file) each
    embedding is reduced to its token mean as its line is parsed, and the
    corpus holds no clouds; ``allwas ingest --out`` keeps them to export.
    """
    rows = []
    errors = []
    seen_ids = set()
    with open(path, "r", encoding="utf-8") as fh:
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
                if rows and type(ex_id) is not type(rows[0][0]):
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
                        warnings.warn(
                            f"line {line_no}: both text and embedding given; "
                            "embedding wins")
                    tokens = _parse_embedding(emb_raw, line_no)
                    if not keep_tokens:
                        tokens = tokens.mean(axis=0, keepdims=True)
                elif featurizer is None:
                    raise ValueError(
                        f"line {line_no}: text-only row but no featurizer configured")
                else:
                    tokens = None
                rows.append((ex_id, text, tokens, obj["label"], line_no))
            except (ValueError, TypeError, json.JSONDecodeError) as exc:
                errors.append(str(exc) if str(exc).startswith("line")
                              else f"line {line_no}: {exc}")
    if errors:
        raise DataError("bad corpus lines:\n  " + "\n  ".join(errors))
    if not rows:
        raise DataError("no examples in corpus file")

    labels = [r[3] for r in rows]
    if class_names is None:
        if all(isinstance(l, int) for l in labels):
            class_names = [str(i) for i in range(max(labels) + 1)]
        else:
            class_names = sorted({str(l) for l in labels})
    class_names = list(class_names)
    name_to_idx = {name: i for i, name in enumerate(class_names)}

    label_idx = []
    for _, _, _, label, line_no in rows:
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
    ids, texts, tokens, _, _ = zip(*rows)
    del rows                                    # the columns hold all the corpus needs
    clouds = (featurize_text(text, featurizer.d, featurizer.seed) if t is None else t
              for text, t in zip(texts, tokens))
    return Corpus(ids, clouds, np.array(label_idx), texts, class_names, target_idx,
                  keep_tokens=keep_tokens)


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
