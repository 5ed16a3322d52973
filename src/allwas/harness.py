"""Experiment orchestration: the labeled-pool loop across repeats,
paired sweeps, and append-safe result files.

One experiment cell = (corpus, seed setting, strategy, augmentation) run
for several repeats. Per repeat: split off the validation set, build the
labeling seed, and stack both splits into arrays once; then per
iteration: optionally augment the labeled rows, train a fresh head,
evaluate on the validation rows, acquire the next batch from the
unlabeled rows, repeat until the budget. The labeled and unlabeled sets
are row-index arrays into the pool split's matrices.
Every random stage draws from a generator derived from
(master seed, repeat, iteration, stage name), so outputs are a pure
function of (config, master seed).

Results land in <out_dir>/<label>.csv with a sidecar meta file carrying
the config hash; reruns with a matching hash skip completed repeats and
recompute partial ones (deterministic replay makes that exact).
"""

from __future__ import annotations

import hashlib
import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .barysample import AugmentationConfig, augment_l2_kde, augment_wasserstein
from .data import (
    Corpus,
    FeaturizerConfig,
    SeedSpec,
    SynthSpec,
    build_seed,
    ingest_jsonl,
    make_synthetic,
    train_val_split,
)
from .errors import AllwasError, ConfigError
from .model import ClassifierHead, TrainingSet, predict_proba_batch, train
from .seeding import derive_seed
from .stats import f1_macro, f1_target
from .strategies import STRATEGY_NAMES, OTConfig, acquire

SCHEMA_VERSION = 1
CSV_HEADER = "setting,strategy,seed,iteration,labeled,f1,seconds"

AUGMENTATION_MODES = ("none", "wasserstein", "l2-kde")

# Keys each nested config dict accepts: the head's hyperparameters (the
# harness sets its dimensions and seed), OTConfig's fields, and the
# augmentation mode plus AugmentationConfig's fields but the seed, which the
# harness derives per (master seed, repeat, iteration).
_NESTED_KEYS = {
    "model": ("hidden_dim", "dropout", "epochs", "batch_size", "lr"),
    "ot": tuple(OTConfig.__dataclass_fields__),
    "augmentation": ("mode", *(f for f in AugmentationConfig.__dataclass_fields__
                               if f != "seed")),
}


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
        if self.strategy not in STRATEGY_NAMES:
            raise ConfigError(f"unknown strategy {self.strategy!r}")
        if self.k < 1 or self.k > self.budget:
            raise ConfigError("need 1 <= k <= budget")
        if self.repeats < 1:
            raise ConfigError("repeats must be >= 1")
        if self.budget < self.seed_size:
            raise ConfigError("budget must be >= seed size")
        for name, known in _NESTED_KEYS.items():
            unknown = sorted(set(getattr(self, name)) - set(known))
            if unknown:
                raise ConfigError(f"unknown {name} config keys: {unknown}")
        mode = self.augmentation.get("mode", "none")
        if mode not in AUGMENTATION_MODES:
            raise ConfigError(f"unknown augmentation mode {mode!r}")
        # Check every value before any work; the head's dimensions here are
        # placeholders for the corpus's.
        self.augmentation_config(seed=0)
        self.ot_config()
        self.seed_spec(seed=0)
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
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        missing = {"corpus", "out_dir"} - set(raw)
        if missing:
            raise ConfigError(f"missing config keys: {sorted(missing)}")
        return cls(**raw)

    def to_canonical_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, separators=(",", ":"))

    def config_hash(self) -> str:
        return hashlib.sha256(self.to_canonical_json().encode()).hexdigest()

    def augmentation_config(self, seed: int) -> AugmentationConfig:
        knobs = {k: v for k, v in self.augmentation.items() if k != "mode"}
        return AugmentationConfig(**knobs, seed=seed)

    def ot_config(self) -> OTConfig:
        return OTConfig(**self.ot)

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
        parts = line.split(",")
        return cls(parts[0], parts[1], int(parts[2]), int(parts[3]),
                   int(parts[4]), float(parts[5]), float(parts[6]))


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


def load_corpus(spec: dict) -> Corpus:
    """Corpus from an experiment config's ``corpus`` entry."""
    if "synthetic" in spec:
        return make_synthetic(SynthSpec(**spec["synthetic"]))
    if "path" in spec:
        feat = spec.get("featurize")
        featurizer = FeaturizerConfig(**feat) if feat else None
        return ingest_jsonl(spec["path"], featurizer=featurizer,
                            class_names=spec.get("class_names"),
                            target_class=spec.get("target_class"))
    raise ConfigError("corpus config needs 'synthetic' or 'path'")


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


def _run_repeat(cfg: ExperimentConfig, corpus: Corpus, repeat: int):
    """Deterministic replay of one repeat; yields one row per iteration."""
    ms = cfg.master_seed
    pool_corpus, val_corpus = train_val_split(
        corpus, cfg.val_fraction, seed=derive_seed(ms, repeat, "split"))
    if cfg.budget > pool_corpus.n:
        raise ConfigError(f"budget {cfg.budget} exceeds pool of {pool_corpus.n}")
    labeled_ids, unlabeled_ids = build_seed(
        pool_corpus, cfg.seed_spec(derive_seed(ms, repeat, "seed")))
    # The one read of per-example objects: everything below works on rows.
    ids = pool_corpus.ids
    x, y = pool_corpus.pooled_matrix(), pool_corpus.label_matrix()
    val_x, val_truth = val_corpus.pooled_matrix(), val_corpus.label_matrix().argmax(axis=1)
    row_of = {example_id: row for row, example_id in enumerate(ids)}
    labeled = np.array([row_of[i] for i in labeled_ids], dtype=np.intp)
    unlabeled = np.array([row_of[i] for i in unlabeled_ids], dtype=np.intp)
    ot = cfg.ot_config()

    rows = []
    iteration = 0
    while True:
        try:
            train_data = _augmented(cfg, repeat, iteration,
                                    TrainingSet(x[labeled], y[labeled]))
            head = ClassifierHead(
                input_dim=corpus.dim, n_classes=corpus.n_classes,
                seed=derive_seed(ms, repeat, iteration, "train"), **cfg.model)
            head = train(head, train_data)
            preds = predict_proba_batch(head, val_x).argmax(axis=1)
            if cfg.metric == "macro-f1":
                f1 = f1_macro(preds, val_truth, corpus.n_classes)
            else:
                f1 = f1_target(preds, val_truth, corpus.target_class)
            rows.append(RunRow(cfg.setting, cfg.strategy, ms + repeat, iteration,
                               len(labeled), f1, 0.0))
            if len(labeled) >= cfg.budget:
                break
            picked = acquire(
                cfg.strategy, head, [ids[r] for r in unlabeled], x[unlabeled],
                [ids[r] for r in labeled], x[labeled], cfg.k,
                seed=derive_seed(ms, repeat, iteration, "acquire"),
                ot=ot, passes=cfg.mc_passes)
            picked = np.array([row_of[i] for i in picked], dtype=np.intp)
            labeled = np.concatenate([labeled, picked])
            unlabeled = unlabeled[~np.isin(unlabeled, picked)]
            iteration += 1
        except AllwasError as exc:
            raise type(exc)(
                f"repeat {repeat}, iteration {iteration}: {exc}") from exc
    return rows


def _rows_path(cfg: ExperimentConfig) -> str:
    return os.path.join(cfg.out_dir, f"{cfg.label}.csv")


def _meta_path(cfg: ExperimentConfig) -> str:
    return os.path.join(cfg.out_dir, f"{cfg.label}.meta.json")


def _replace_file(path: str, text: str) -> None:
    """Write through a sibling .tmp and os.replace, so readers never see a
    partial file."""
    tmp = path + ".tmp"
    with open(tmp, "w", newline="") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _write_rows(cfg: ExperimentConfig, rows) -> None:
    os.makedirs(cfg.out_dir, exist_ok=True)
    ordered = sorted(rows, key=lambda r: (r.seed, r.iteration))
    lines = [CSV_HEADER] + [row.to_csv() for row in ordered]
    _replace_file(_rows_path(cfg), "".join(line + "\n" for line in lines))
    meta = {"config_hash": cfg.config_hash(), "schema": SCHEMA_VERSION,
            "label": cfg.label, "config": json.loads(cfg.to_canonical_json())}
    _replace_file(_meta_path(cfg), json.dumps(meta, indent=2, sort_keys=True) + "\n")


def _load_existing(cfg: ExperimentConfig):
    path = _rows_path(cfg)
    meta = _meta_path(cfg)
    if not (os.path.exists(path) and os.path.exists(meta)):
        return []
    with open(meta) as fh:
        info = json.load(fh)
    if info.get("config_hash") != cfg.config_hash():
        raise ConfigError(
            f"existing results at {path} were produced by a different config; "
            "move them or change out_dir/label")
    with open(path) as fh:
        lines = fh.read().strip().splitlines()
    return [RunRow.from_csv(line) for line in lines[1:]]


def run_experiment(cfg: ExperimentConfig, corpus: Corpus | None = None) -> RunRecord:
    """Run (or resume) all repeats of one experiment cell."""
    if corpus is None:
        corpus = load_corpus(cfg.corpus)
    try:
        existing = _load_existing(cfg)
        per_repeat = cfg.iterations_per_repeat()
        by_repeat = {}
        for row in existing:
            by_repeat.setdefault(row.seed - cfg.master_seed, []).append(row)
        rows = []
        for repeat, got in by_repeat.items():
            if len(got) == per_repeat:
                rows.extend(got)
        done = {row.seed - cfg.master_seed for row in rows}
        for repeat in range(cfg.repeats):
            if repeat in done:
                continue
            rows.extend(_run_repeat(cfg, corpus, repeat))
            _write_rows(cfg, rows)
        _write_rows(cfg, rows)
    except AllwasError as exc:
        raise type(exc)(f"cell {cfg.label!r}: {exc}") from exc
    ordered = tuple(sorted(rows, key=lambda r: (r.seed, r.iteration)))
    return RunRecord(cfg.label, cfg.config_hash(), ordered)


SWEEP_AXES = ("augmentation-factor", "barycenter-group-size", "strategy")


def _cell_for(base: ExperimentConfig, axis: str, value) -> ExperimentConfig:
    if axis == "augmentation-factor":
        aug = dict(base.augmentation)
        if aug.get("mode", "none") == "none":
            aug["mode"] = "wasserstein"
        aug["factor"] = int(value)
        return replace(base, augmentation=aug,
                       label=f"{base.label}_factor{value}")
    if axis == "barycenter-group-size":
        aug = dict(base.augmentation)
        if aug.get("mode", "none") == "none":
            aug["mode"] = "wasserstein"
        aug["group_size"] = int(value)
        return replace(base, augmentation=aug,
                       label=f"{base.label}_group{value}")
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
    so per-repeat seeds (and the data they see) line up across cells."""
    values = list(values)
    if not values:
        raise ConfigError("sweep values must be non-empty")
    cells = [_cell_for(base, axis, v) for v in values]
    labels = [cell.label for cell in cells]
    clashes = sorted({label for label in labels if labels.count(label) > 1})
    if clashes:
        # Cells with one label would share (and race on) one CSV.
        raise ConfigError(f"sweep values give duplicate cell labels {clashes}")
    workers = thread_budget()
    corpus = load_corpus(base.corpus)
    if workers == 1:
        return [run_experiment(cell, corpus) for cell in cells]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(run_experiment, cell, corpus) for cell in cells]
        return [f.result() for f in futures]
