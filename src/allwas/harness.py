"""Experiment orchestration: the labeled-pool loop across repeats,
paired sweeps, and append-safe result files.

One experiment cell = (corpus, seed setting, strategy, augmentation) run
for several repeats. Per repeat: split the corpus's rows into pool and
validation splits and build the labeling seed; then per iteration:
optionally augment the labeled rows, train a fresh head, evaluate on the
validation rows, acquire the next batch from the unlabeled rows, repeat
until the budget. The labeled and unlabeled sets are row-index arrays
into the pool split's columns.
Every random stage draws from a generator derived from
(master seed, repeat, iteration, stage name), so outputs are a pure
function of (config, master seed).

Each repeat is a generator of training requests that carry their own
scoring, so a block of runs (a cell's pending repeats, or every pending
repeat of a sweep worker's cells) advances in lockstep: each round,
``_lockstep`` trains the round's heads in one stacked call
(``model.train_stack``), bitwise as each would train alone, scores them,
and sends a head back only to a run whose strategy reads it. A run whose strategy never does
(``HEAD_FREE``) issues its requests without waiting, so once only such
runs are left, a round trains many iterations of each at once.

Results land in <out_dir>/<label>.csv with a sidecar meta file carrying
the config hash, written when the block ends; reruns with a matching hash
skip completed repeats and recompute partial or missing ones
(deterministic replay makes that exact). ``cell_csv`` renders a cell CSV
and ``read_cell`` is the one reader of both files.
"""

from __future__ import annotations

import hashlib
import json
import os
import traceback
from collections import Counter
from dataclasses import asdict, dataclass, field, replace
from functools import partial

import numpy as np

from .barysample import AugmentationConfig, augment_l2_kde, augment_wasserstein
from .data import (
    SEED_SETTINGS,
    Corpus,
    FeaturizerConfig,
    SeedSpec,
    SynthSpec,
    build_seed,
    check_class_keys,
    ingest_jsonl,
    make_synthetic,
    train_val_split,
)
from .errors import (AllwasError, ConfigError, DataError, check_keys, check_types,
                     config_from)
from .model import (
    ClassifierHead,
    TrainingSet,
    predict_proba_batch,
    stack_bytes,
    train,
    train_stack,
)
from .seeding import derive_seed
from .stats import f1_macro, f1_target
from .strategies import HEAD_FREE, STRATEGY_NAMES, OTConfig, acquire

SCHEMA_VERSION = 1
CSV_HEADER = "setting,strategy,seed,iteration,labeled,f1,seconds"

AUGMENTATION_MODES = ("none", "wasserstein", "l2-kde")

# Byte budget of the requests that one round pulls ahead from runs that
# do not wait for their heads: their training rows and what training them
# adds to a stack (memory guard).
_DRAIN_BYTES = 8 * 2**20

# Keys each nested config dict accepts: the corpus source's, the head's
# hyperparameters (the harness sets its dimensions and seed), and the
# augmentation mode plus AugmentationConfig's fields but the seed, which the
# harness derives per (master seed, repeat, iteration). The ``ot`` section's
# keys are OTConfig's fields, checked where ``ot_config`` builds it.
_NESTED_KEYS = {
    "corpus": ("synthetic", "path", "featurize", "class_names", "target_class"),
    "model": ("hidden_dim", "dropout", "epochs", "batch_size", "lr"),
    "augmentation": ("mode", *(f for f in AugmentationConfig.__dataclass_fields__
                               if f != "seed")),
}


def _plain(value):
    """``json.dumps`` hook: a numpy scalar or array as a plain value."""
    if isinstance(value, (np.generic, np.ndarray)):
        return value.tolist()
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


@dataclass(frozen=True)
class ExperimentConfig:
    corpus: dict
    out_dir: str
    label: str = "cell"
    setting: str = "balanced"
    seed_size: int = 25
    minority_fraction: float = 0.5
    radius_percentile: float = 10.0
    strategy: str = "random"
    budget: int = 150
    k: int = 25
    repeats: int = 5
    augmentation: dict = field(default_factory=lambda: {"mode": "none"})
    model: dict = field(default_factory=dict)
    ot: dict = field(default_factory=dict)
    metric: str = "target-f1"
    val_fraction: float = 0.2
    master_seed: int = 0
    mc_passes: int = 10

    def __post_init__(self):
        check_types(ExperimentConfig, vars(self))
        # The label names the cell's files inside out_dir.
        if self.label in ("", ".", "..") or self.label != os.path.basename(self.label):
            raise ConfigError(f"label must be a file name (got {self.label!r})")
        if self.strategy not in STRATEGY_NAMES:
            raise ConfigError(f"unknown strategy {self.strategy!r}")
        if self.k < 1 or self.k > self.budget:
            raise ConfigError("need 1 <= k <= budget")
        if self.repeats < 1:
            raise ConfigError("repeats must be >= 1")
        if self.budget < self.seed_size:
            raise ConfigError("budget must be >= seed size")
        for name, known in _NESTED_KEYS.items():
            check_keys(getattr(self, name), known, f"{name} config")
        mode = self.augmentation.get("mode", "none")
        if mode not in AUGMENTATION_MODES:
            raise ConfigError(f"unknown augmentation mode {mode!r}")
        # Check every value before any work; the head's dimensions here are
        # placeholders for the corpus's.
        _corpus_source(self.corpus)
        self.augmentation_config(seed=0)
        self.ot_config()
        self.seed_spec(seed=0)
        check_types(ClassifierHead, self.model, "model ")
        ClassifierHead(input_dim=1, n_classes=2, **self.model)
        if self.metric not in ("target-f1", "macro-f1"):
            raise ConfigError(f"unknown metric {self.metric!r}")
        if not 0 < self.val_fraction < 1:
            raise ConfigError(f"val_fraction must be in (0, 1) (got {self.val_fraction})")
        if not self.mc_passes >= 1:
            raise ConfigError(f"mc_passes must be >= 1 (got {self.mc_passes})")

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        with open(path) as fh:
            try:
                raw = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"bad config JSON: {exc}") from exc
        check_keys(raw, cls.__dataclass_fields__, "config")
        missing = {"corpus", "out_dir"} - set(raw)
        if missing:
            raise ConfigError(f"missing config keys: {sorted(missing)}")
        return cls(**raw)

    def to_canonical_json(self) -> str:
        """Sorted-key JSON of the config. numpy scalars and arrays, which the
        checks accept, are written as the plain numbers and lists they hold,
        so such a config hashes equal to its plain twin."""
        return json.dumps(asdict(self), sort_keys=True, separators=(",", ":"),
                          default=_plain)

    def config_hash(self) -> str:
        return hashlib.sha256(self.to_canonical_json().encode()).hexdigest()

    def augmentation_config(self, seed: int) -> AugmentationConfig:
        knobs = {k: v for k, v in self.augmentation.items() if k != "mode"}
        return AugmentationConfig(**knobs, seed=seed)

    def ot_config(self) -> OTConfig:
        return config_from(OTConfig, self.ot, "ot config")

    def seed_spec(self, seed: int) -> SeedSpec:
        return SeedSpec(setting=self.setting, seed_size=self.seed_size, seed=seed,
                        minority_fraction=self.minority_fraction,
                        radius_percentile=self.radius_percentile)

    def iterations_per_repeat(self) -> int:
        extra = max(0, self.budget - self.seed_size)
        return 1 + -(-extra // self.k)


@dataclass(frozen=True)
class RunRow:
    setting: str
    strategy: str
    seed: int
    iteration: int
    labeled: int
    f1: float
    seconds: float

    def to_csv(self) -> str:
        # repr round-trips doubles exactly, so resumed runs reload the very
        # values they wrote.
        return (f"{self.setting},{self.strategy},{self.seed},{self.iteration},"
                f"{self.labeled},{self.f1!r},{self.seconds:.3f}")

    @classmethod
    def from_csv(cls, line: str) -> "RunRow":
        setting, strategy, seed, iteration, labeled, f1, seconds = line.split(",")
        return cls(setting, strategy, int(seed), int(iteration), int(labeled),
                   float(f1), float(seconds))


@dataclass(frozen=True)
class RunRecord:
    label: str
    config_hash: str
    rows: tuple

    def curve(self, stat=np.mean):
        """labeled-count -> aggregated f1 across repeats."""
        by_labeled = {}
        for row in self.rows:
            by_labeled.setdefault(row.labeled, []).append(row.f1)
        return {n: float(stat(v)) for n, v in sorted(by_labeled.items())}


def _corpus_source(spec: dict):
    """A ``corpus`` entry's SynthSpec or, for a JSONL path, its
    FeaturizerConfig (None without ``featurize``), their keys checked."""
    if "synthetic" in spec:
        return config_from(SynthSpec, spec["synthetic"], "corpus synthetic")
    if "path" in spec:
        check_class_keys(spec.get("class_names"), spec.get("target_class"))
        feat = spec.get("featurize")
        return config_from(FeaturizerConfig, feat, "corpus featurize") if feat else None
    raise ConfigError("corpus config needs 'synthetic' or 'path'")


# The last synthetic corpus load_corpus built, as (SynthSpec, corpus); None
# when there is none.
_loaded = None


def load_corpus(spec: dict) -> Corpus:
    """Corpus from an experiment config's ``corpus`` entry, without its
    token clouds.

    The experiment loop reads pooled vectors only, so the corpus is built
    with ``keep_tokens=False``: it holds ``pooled``, ``labels``, ``ids``
    and ``texts``, and never more than one row's cloud at a time during
    the build (``barysample.barycenter_tokens`` needs a corpus built with
    its clouds, by ``make_synthetic`` or ``ingest_jsonl``).

    A synthetic corpus is a pure function of its checked ``SynthSpec``, so
    the process keeps the last one built here in one slot, and a call with
    an equal ``SynthSpec`` returns that same object: a caller that loads a
    spec and then sweeps it (``run_sweep`` loads through here) holds one
    corpus, not two. Every caller of the spec shares it, so its arrays
    (``pooled`` and ``labels``) are made read-only. The slot keeps its
    corpus alive after its callers drop it, until another synthetic spec
    replaces it; a failing build caches nothing. A ``path`` spec reads its
    file on every call.
    """
    global _loaded
    source = _corpus_source(spec)
    if not isinstance(source, SynthSpec):
        return ingest_jsonl(spec["path"], featurizer=source,
                            class_names=spec.get("class_names"),
                            target_class=spec.get("target_class"), keep_tokens=False)
    if _loaded is not None and _loaded[0] == source:
        return _loaded[1]
    _loaded = None                              # free the old corpus before the build
    corpus = make_synthetic(source, keep_tokens=False)
    corpus.pooled.flags.writeable = False
    corpus.labels.flags.writeable = False
    _loaded = source, corpus
    return corpus


def _augmented(cfg: ExperimentConfig, repeat: int, iteration: int,
               labeled: TrainingSet) -> TrainingSet:
    """The labeled rows followed by the cell's synthetic rows, if any."""
    mode = cfg.augmentation.get("mode", "none")
    aug_cfg = cfg.augmentation_config(
        derive_seed(cfg.master_seed, repeat, iteration, "augment"))
    if mode == "none" or aug_cfg.factor == 0:
        return labeled
    # The head reads only pooled vectors, and a Wasserstein synthetic's
    # pooled vector is exactly its barycenter's token mean, so no barycenter
    # is solved here. A head that reads tokens needs
    # barysample.barycenter_tokens for these rows.
    fn = augment_wasserstein if mode == "wasserstein" else augment_l2_kde
    synthetic = fn(labeled, aug_cfg)
    return TrainingSet(np.vstack([labeled.x, synthetic.pooled]),
                       np.vstack([labeled.y, synthetic.labels]))


def _prefixed(prefix: str, exc: AllwasError) -> AllwasError:
    """``exc`` with ``prefix`` on its message, caused by ``exc``."""
    error = type(exc)(f"{prefix}: {exc}")
    error.__cause__ = exc
    return error


def _run_repeat(cfg: ExperimentConfig, corpus: Corpus, repeat: int):
    """Deterministic replay of one repeat, as a generator.

    Each iteration yields its training request ``(head, data, score)``;
    ``_lockstep`` trains it and calls ``score`` with the trained head or
    the :class:`AllwasError` training raised, which returns the
    iteration's :class:`RunRow` or raises that error, prefixed with the
    repeat and iteration. The run is then sent what its strategy acquires
    from: the head, or None for a strategy in ``HEAD_FREE``, so its next
    request can be pulled at once. It raises its own augmentation or
    acquisition error, prefixed, when it meets it.
    """
    ms = cfg.master_seed
    pool_corpus, val_corpus = train_val_split(
        corpus, cfg.val_fraction, seed=derive_seed(ms, repeat, "split"))
    if cfg.budget > pool_corpus.n:
        raise ConfigError(f"budget {cfg.budget} exceeds pool of {pool_corpus.n}")
    labeled_ids, unlabeled_ids = build_seed(
        pool_corpus, cfg.seed_spec(derive_seed(ms, repeat, "seed")))
    ids = pool_corpus.ids
    x, y = pool_corpus.pooled, np.eye(corpus.n_classes)[pool_corpus.labels]
    val_x, val_truth = val_corpus.pooled, val_corpus.labels
    row_of = {example_id: row for row, example_id in enumerate(ids)}
    labeled = np.array([row_of[i] for i in labeled_ids], dtype=np.intp)
    unlabeled = np.array([row_of[i] for i in unlabeled_ids], dtype=np.intp)
    ot = cfg.ot_config()

    def score(iteration, count, trained):
        try:
            if isinstance(trained, AllwasError):
                raise trained
            preds = predict_proba_batch(trained, val_x).argmax(axis=1)
            if cfg.metric == "macro-f1":
                f1 = f1_macro(preds, val_truth, corpus.n_classes)
            else:
                f1 = f1_target(preds, val_truth, corpus.target_class)
        except AllwasError as exc:
            raise _prefixed(f"repeat {repeat}, iteration {iteration}", exc)
        return RunRow(cfg.setting, cfg.strategy, ms + repeat, iteration, count, f1, 0.0)

    iteration = 0
    while True:
        try:
            train_data = _augmented(cfg, repeat, iteration,
                                    TrainingSet(x[labeled], y[labeled]))
            head = ClassifierHead(
                input_dim=corpus.dim, n_classes=corpus.n_classes,
                seed=derive_seed(ms, repeat, iteration, "train"), **cfg.model)
            trained = yield head, train_data, partial(score, iteration, len(labeled))
            if len(labeled) >= cfg.budget:
                return
            picked = acquire(
                cfg.strategy, trained, [ids[r] for r in unlabeled], x[unlabeled],
                [ids[r] for r in labeled], x[labeled], min(cfg.k, cfg.budget - len(labeled)),
                seed=derive_seed(ms, repeat, iteration, "acquire"),
                ot=ot, passes=cfg.mc_passes)
        except AllwasError as exc:
            raise _prefixed(f"repeat {repeat}, iteration {iteration}", exc)
        picked = np.array([row_of[i] for i in picked], dtype=np.intp)
        labeled = np.concatenate([labeled, picked])
        unlabeled = unlabeled[~np.isin(unlabeled, picked)]
        iteration += 1


def _request_bytes(head: ClassifierHead, data: TrainingSet) -> int:
    return data.x.nbytes + data.y.nbytes + stack_bytes(head, data)


def _lockstep(runs: list, head_free: list) -> list:
    """Drive ``_run_repeat`` generators to their ends together;
    ``head_free[i]`` says whether run i's strategy is in ``HEAD_FREE``.

    Each round pulls every live run once, in run order, sending a run that
    reads its head the head trained for it in the round before; once no
    such run is left, it pulls more until its requests hold
    ``_DRAIN_BYTES``. It then trains the requests and scores every head. A
    block's cells share one corpus and model, so a round's heads train in
    one ``train_stack`` call, a ragged stack where row counts differ (a
    lone request calls ``train``), each bitwise what it would be trained
    alone. A run stops at its first failing score, which beats an error
    the run raised itself: a run issues its requests in iteration order.
    Returns, per run, its rows or its AllwasError.
    """
    rows = [[] for _ in runs]
    failed = [None] * len(runs)                 # the error a run's score raised
    raised = [None] * len(runs)                 # the error a run raised itself
    live = dict.fromkeys(range(len(runs)))      # run -> what it is sent next

    def pull(i) -> bool:
        """Add run i's next request to the round's; False once it ended."""
        try:
            requests.append((i, *runs[i].send(live[i])))
            return True
        except StopIteration:
            pass
        except AllwasError as exc:
            raised[i] = exc
        del live[i]
        return False

    while live:
        requests = []                           # (run, head, data, score), in order
        for i in list(live):
            pull(i)
        if all(head_free[i] for i in live):
            held = sum(_request_bytes(head, data) for _, head, data, _ in requests)
            for i in list(live):
                while held < _DRAIN_BYTES and pull(i):
                    held += _request_bytes(*requests[-1][1:3])
        if not requests:
            break
        owners, heads, datas, scores = zip(*requests)
        try:
            trained = ([train(heads[0], datas[0])] if len(requests) == 1
                       else train_stack(heads, datas))
        except AllwasError as exc:
            trained = [exc] * len(requests)
        for i, score, head in zip(owners, scores, trained):
            if failed[i] is not None:
                continue
            try:
                rows[i].append(score(head))
            except AllwasError as exc:
                failed[i] = exc
                runs[i].close()
                live.pop(i, None)
            else:
                if not head_free[i]:
                    live[i] = head
    return [failed[i] or raised[i] or rows[i] for i in range(len(runs))]


def _replace_file(path: str, text: str) -> None:
    """Write through a sibling .tmp and os.replace, so readers never see a
    partial file."""
    tmp = path + ".tmp"
    with open(tmp, "w", newline="") as fh:
        fh.write(text)
    os.replace(tmp, path)


def cell_csv(rows) -> str:
    """A cell CSV's text: the header, then ``rows`` by (seed, iteration)."""
    ordered = sorted(rows, key=lambda r: (r.seed, r.iteration))
    lines = [CSV_HEADER] + [row.to_csv() for row in ordered]
    return "".join(line + "\n" for line in lines)


def _write_rows(cfg: ExperimentConfig, rows) -> None:
    os.makedirs(cfg.out_dir, exist_ok=True)
    base = os.path.join(cfg.out_dir, cfg.label)
    _replace_file(base + ".csv", cell_csv(rows))
    meta = {"config_hash": cfg.config_hash(), "schema": SCHEMA_VERSION,
            "label": cfg.label, "config": json.loads(cfg.to_canonical_json())}
    _replace_file(base + ".meta.json", json.dumps(meta, indent=2, sort_keys=True) + "\n")


def read_cell(directory, label: str) -> RunRecord | None:
    """Cell ``label``'s record from its CSV and meta file under ``directory``
    (None when either is missing), or a DataError naming the cell unless
    both are well-formed and every row names a seed setting of
    ``SEED_SETTINGS`` and a strategy of ``STRATEGY_NAMES``."""
    base = os.path.join(directory, label)
    try:
        with open(base + ".csv") as rows_fh, open(base + ".meta.json") as meta_fh:
            lines, meta_text = rows_fh.read().splitlines(), meta_fh.read()
    except FileNotFoundError:
        return None
    where = f"cell {label!r}: {label}"
    if not lines or lines[0] != CSV_HEADER:
        raise DataError(f"{where}.csv does not start with the header {CSV_HEADER!r}")
    rows = []
    for number, line in enumerate(lines[1:], start=2):
        try:
            row = RunRow.from_csv(line)
        except ValueError:
            raise DataError(f"{where}.csv line {number} is not 7 fields that parse: "
                            f"{line!r}") from None
        if row.setting not in SEED_SETTINGS or row.strategy not in STRATEGY_NAMES:
            raise DataError(f"{where}.csv line {number} names an unknown seed setting "
                            f"or strategy: {line!r}")
        rows.append(row)
    try:
        meta = json.loads(meta_text)
        valid = (meta["schema"] == SCHEMA_VERSION
                 and all(isinstance(meta[key], str) for key in ("label", "config_hash")))
    except (ValueError, TypeError, KeyError):
        valid = False
    if not valid:
        raise DataError(f"{where}.meta.json is not a JSON object with string 'label' "
                        f"and 'config_hash' and schema {SCHEMA_VERSION}")
    return RunRecord(meta["label"], meta["config_hash"], tuple(rows))


def _load_existing(cfg: ExperimentConfig) -> tuple:
    """The rows already written for ``cfg``'s cell, () when there are none;
    a cell written by another config is a ConfigError."""
    record = read_cell(cfg.out_dir, cfg.label)
    if record is None:
        return ()
    if record.config_hash != cfg.config_hash():
        raise ConfigError(
            f"cell {cfg.label!r}: existing results in {cfg.out_dir} were produced "
            "by a different config; move them or change out_dir/label")
    return record.rows


def _run_cells(cells, corpus: Corpus) -> list:
    """Run (or resume) every pending repeat of ``cells`` as one block in
    lockstep, then write the results of each cell in which a repeat ran.

    Returns, per cell, its :class:`RunRecord` or the AllwasError, naming
    the cell, of its results on disk or its lowest failing repeat. A
    failing cell keeps the repeats that finished.
    """
    outcomes = [None] * len(cells)
    rows = [[] for _ in cells]
    runs, owners, head_free = [], [], []
    for k, cfg in enumerate(cells):
        try:
            existing = _load_existing(cfg)
        except AllwasError as exc:
            outcomes[k] = exc
            continue
        # A repeat is done once all its rows are written.
        count = Counter(row.seed for row in existing)
        done = {seed for seed, n in count.items() if n == cfg.iterations_per_repeat()}
        rows[k] = [row for row in existing if row.seed in done]
        for repeat in range(cfg.repeats):
            if cfg.master_seed + repeat not in done:
                runs.append(_run_repeat(cfg, corpus, repeat))
                owners.append(k)
                head_free.append(cfg.strategy in HEAD_FREE)

    ran = set()
    for k, result in zip(owners, _lockstep(runs, head_free)):
        if isinstance(result, AllwasError):
            if outcomes[k] is None:
                outcomes[k] = _prefixed(f"cell {cells[k].label!r}", result)
        else:
            rows[k].extend(result)
            ran.add(k)
    for k, cfg in enumerate(cells):
        if k in ran:
            _write_rows(cfg, rows[k])
        if outcomes[k] is None:
            ordered = tuple(sorted(rows[k], key=lambda r: (r.seed, r.iteration)))
            outcomes[k] = RunRecord(cfg.label, cfg.config_hash(), ordered)
    return outcomes


def _records(outcomes: list) -> list:
    """The records, or the first cell's error."""
    for outcome in outcomes:
        if isinstance(outcome, AllwasError):
            raise outcome
    return outcomes


def run_experiment(cfg: ExperimentConfig, corpus: Corpus | None = None) -> RunRecord:
    """Run (or resume) all repeats of one experiment cell, in lockstep.

    The pending repeats are one block: results are written once it ends,
    and a rerun resumes from the repeats that completed."""
    if corpus is None:
        corpus = load_corpus(cfg.corpus)
    return _records(_run_cells([cfg], corpus))[0]


SWEEP_AXES = ("augmentation-factor", "barycenter-group-size", "strategy")


# Augmentation axes: the AugmentationConfig field each sets and its label tag.
_AUGMENTATION_AXES = {"augmentation-factor": ("factor", "factor"),
                      "barycenter-group-size": ("group_size", "group")}


def _cell_for(base: ExperimentConfig, axis: str, value) -> ExperimentConfig:
    if axis in _AUGMENTATION_AXES:
        key, tag = _AUGMENTATION_AXES[axis]
        aug = dict(base.augmentation)
        if aug.get("mode", "none") == "none":
            aug["mode"] = "wasserstein"
        try:
            aug[key] = int(str(value))
        except ValueError:
            raise ConfigError(f"{axis} values must be integers (got {value!r})") from None
        return replace(base, augmentation=aug, label=f"{base.label}_{tag}{aug[key]}")
    if axis == "strategy":
        return replace(base, strategy=str(value),
                       label=f"{base.label}_{value}")
    raise ConfigError(f"unknown sweep axis {axis!r}; choose from {SWEEP_AXES}")


def thread_budget() -> int:
    raw = os.environ.get("ALLWAS_THREADS", "")
    try:
        n = int(raw) if raw else 1
    except ValueError:
        raise ConfigError(f"ALLWAS_THREADS must be an integer (got {raw!r})")
    if n < 1:
        raise ConfigError(f"ALLWAS_THREADS must be >= 1 (got {raw!r})")
    return n


def run_sweep(base: ExperimentConfig, axis: str, values) -> list:
    """Paired grid along one axis: every cell shares the base master seed,
    so per-repeat seeds (and the data they see) line up across cells.

    The cells are dealt into ``min(ALLWAS_THREADS, cells)`` blocks (cell i
    to block i mod blocks), and each block runs every pending repeat of its
    cells in lockstep (``_run_cells``). A single block runs in this
    process. Two or more each run in a worker process of their own, started
    with ``fork`` where the platform has it and ``spawn`` elsewhere, while
    this process only waits for them. The corpus comes from
    ``load_corpus``, so a caller that loaded the same spec shares it
    (forked workers inherit it too). Forking a process that
    runs other threads is unsafe, so call this from a single-threaded
    process. Under ``spawn`` each worker re-imports the caller's main
    module, which must guard its entry point with
    ``if __name__ == "__main__":``. The lowest-index failing cell's error
    is raised, as in a serial sweep.
    """
    values = list(values)
    if not values:
        raise ConfigError("sweep values must be non-empty")
    cells = [_cell_for(base, axis, v) for v in values]
    labels = [cell.label for cell in cells]
    clashes = sorted({label for label in labels if labels.count(label) > 1})
    if clashes:
        # Cells with one label would share (and race on) one CSV.
        raise ConfigError(f"sweep values give duplicate cell labels {clashes}")
    workers = min(thread_budget(), len(cells))
    corpus = load_corpus(base.corpus)
    if workers == 1:
        return _records(_run_cells(cells, corpus))
    # Imported here so that `import allwas` does not pay for multiprocessing.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor, wait

    # Pinned rather than left to the interpreter default, which changes in
    # Python 3.14. Under fork the workers inherit the corpus unpickled.
    method = "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
    pool = ProcessPoolExecutor(max_workers=workers,
                               mp_context=multiprocessing.get_context(method),
                               initializer=_init_worker, initargs=(corpus,))
    try:
        futures = [pool.submit(_run_block, cells[b::workers]) for b in range(workers)]
        wait(futures)
    finally:
        # Drops whatever an interrupt left pending and joins every worker,
        # so none outlives the sweep.
        pool.shutdown(cancel_futures=True)
    outcomes = [None] * len(cells)
    for b, future in enumerate(futures):
        block = future.result()
        for outcome, cause in block:
            if cause is not None:
                outcome.__cause__ = _WorkerTraceback(cause)
        outcomes[b::workers] = [outcome for outcome, _ in block]
    return _records(outcomes)


_worker_corpus = None


def _init_worker(corpus: Corpus) -> None:
    global _worker_corpus
    _worker_corpus = corpus


class _WorkerTraceback(Exception):
    """The formatted traceback behind a failing cell's error in a sweep
    worker, set as that error's cause in the calling process."""


def _run_block(cells: list) -> list:
    """``_run_cells`` in a worker, each outcome paired with the formatted
    traceback of an error's cause (None for a record): a pickled exception
    drops its ``__cause__``."""
    return [(outcome, "".join(traceback.format_exception(outcome.__cause__))
             if isinstance(outcome, AllwasError) else None)
            for outcome in _run_cells(cells, _worker_corpus)]
