"""Over-sampling of labeled examples for augmentation.

Two augmenters behind one configuration: transport barycenters of token
clouds with mixed soft labels, and a per-class Gaussian KDE over pooled
embeddings as the plain-Euclidean baseline. Synthetic counts are
``factor`` times the labeled set; group pairing defaults to within-class
draws weighted toward rare classes, since augmentation is deployed
against imbalance. Both augmenters read the labeled set as a
:class:`TrainingSet` of arrays and return a :class:`SyntheticSet` of
arrays; only :func:`barycenter_tokens` reads token clouds. Everything is
deterministic for a fixed config seed.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import AllwasError, ConfigError
from .model import SoftLabel, TrainingSet
from .transport import barycenter_support_size, wasserstein_barycenter_batch

KDE_BANDWIDTH_FLOOR = 1e-3
# Barycenter solves for augmentation favor speed: a looser adaptive eps and
# Sinkhorn tolerance than the descent-grade barycenter defaults.
AUG_EPS_SCALE = 0.05
AUG_SINKHORN_TOL = 1e-6


@dataclass(frozen=True)
class AugmentationConfig:
    factor: int = 20
    group_size: int = 2
    # Lambdas are Dirichlet(alpha, ..., alpha) draws; alpha = 1 is uniform
    # on the simplex.
    dirichlet_alpha: float = 1.0
    pairing: str = "within-class-minority-weighted"   # or "any-pair"
    seed: int = 0
    # Budget of the barycenter solves in barycenter_tokens (fixed-point
    # passes, Sinkhorn sweeps); the augmenters' outputs do not depend on it.
    outer_iter: int = 3
    sinkhorn_max_iter: int = 60

    def __post_init__(self):
        if self.factor < 0:
            raise ConfigError("augmentation factor must be >= 0")
        if self.group_size < 2:
            raise ConfigError("group_size must be >= 2")
        if not self.dirichlet_alpha > 0:
            raise ConfigError(f"dirichlet_alpha must be > 0 (got {self.dirichlet_alpha})")
        if self.pairing not in ("within-class-minority-weighted", "any-pair"):
            raise ConfigError(f"unknown pairing mode {self.pairing!r}")


@dataclass(frozen=True)
class SyntheticSet:
    """Synthetic training rows as arrays.

    ``pooled`` (M, d) embeddings and ``labels`` (M, C) soft labels, with
    their provenance: ``parents`` (M, g) labeled row indices and
    ``lambdas`` (M, g) mixing weights (g = 1 and weight 1 for KDE draws).
    """

    pooled: np.ndarray
    labels: np.ndarray
    parents: np.ndarray
    lambdas: np.ndarray

    def __len__(self) -> int:
        return self.pooled.shape[0]


def mix_labels(labels, lambdas) -> SoftLabel:
    """Canonical lambda-weighted label average, summed in member order so
    provenance reconstructs the result bitwise."""
    acc = np.zeros_like(labels[0].probs)
    for lam, label in zip(lambdas, labels):
        acc = acc + lam * label.probs
    return SoftLabel(acc)


def _mix_rows(rows, parents, lambdas) -> np.ndarray:
    """Row r is sum_j lambdas[r, j] * rows[parents[r, j]], summed in member
    order as in :func:`mix_labels`, so each row equals it bitwise."""
    acc = np.zeros((parents.shape[0], rows.shape[1]))
    for j in range(parents.shape[1]):
        acc = acc + lambdas[:, j, None] * rows[parents[:, j]]
    return acc


def _class_members(labeled: TrainingSet, cfg) -> dict:
    """Row indices per hard class of a labeled set that can feed ``cfg``."""
    if len(labeled) < cfg.group_size:
        raise AllwasError(
            f"need at least group_size={cfg.group_size} labeled examples "
            f"(got {len(labeled)})")
    classes = labeled.y.argmax(axis=1)
    return {c: np.flatnonzero(classes == c) for c in np.unique(classes)}


def _class_cdf(members, pairing: str) -> tuple[np.ndarray, np.ndarray]:
    """Classes and the cdf of their sampling distribution for the pairing
    mode, built as ``Generator.choice(p=)`` builds it, so that
    ``cdf.searchsorted(rng.random(), side="right")`` draws its stream."""
    classes = np.array(sorted(members))
    counts = np.array([len(members[c]) for c in classes], dtype=np.float64)
    if pairing == "within-class-minority-weighted":
        w = 1.0 / counts
    else:
        w = counts
    cdf = (w / w.sum()).cumsum()
    cdf /= cdf[-1]
    return classes, cdf


def _draw_group(rng, cfg, members, classes_arr, cdf, n_labeled) -> np.ndarray:
    if cfg.pairing == "any-pair":
        return rng.choice(n_labeled, size=cfg.group_size, replace=False)
    pool = members[classes_arr[cdf.searchsorted(rng.random(), side="right")]]
    replace = len(pool) < cfg.group_size
    return pool[rng.choice(len(pool), size=cfg.group_size, replace=replace)]


def _no_rows(g: int) -> SyntheticSet:
    return SyntheticSet(np.zeros((0, 0)), np.zeros((0, 0)),
                        np.zeros((0, g), dtype=np.intp), np.zeros((0, g)))


def augment_wasserstein(labeled: TrainingSet, cfg: AugmentationConfig) -> SyntheticSet:
    """factor x |labeled| synthetic rows, each from a sampled group of
    labeled rows with Dirichlet lambdas and the matching mixed label.

    A row stands for the W_2 barycenter of its parents' token clouds, but
    only its pooled vector is computed: the lambda-mix of the parents'
    pooled vectors, which is exactly that barycenter's token mean (the
    barycentric projection through feasible plans keeps the mean).
    :func:`barycenter_tokens` solves the token clouds themselves.
    """
    if cfg.factor == 0:
        return _no_rows(cfg.group_size)
    members = _class_members(labeled, cfg)
    rng = np.random.default_rng(cfg.seed)
    classes_arr, cdf = _class_cdf(members, cfg.pairing)

    count = cfg.factor * len(labeled)
    parents = np.empty((count, cfg.group_size), dtype=np.intp)
    lambdas = np.empty((count, cfg.group_size))
    alpha = np.full(cfg.group_size, cfg.dirichlet_alpha)
    for r in range(count):
        parents[r] = _draw_group(rng, cfg, members, classes_arr, cdf, len(labeled))
        lambdas[r] = rng.dirichlet(alpha)
    return SyntheticSet(_mix_rows(labeled.x, parents, lambdas),
                        _mix_rows(labeled.y, parents, lambdas), parents, lambdas)


def barycenter_tokens(embeddings, synthetic: SyntheticSet, cfg: AugmentationConfig) -> list:
    """Token clouds of ``augment_wasserstein``'s rows: for each row the W_2
    barycenter of its parents' token clouds (uniform token weights) at its
    lambdas, with round(sum lambda_i n_i) tokens (at least one), solved in
    one padded batch on ``cfg``'s budget (``outer_iter``,
    ``sinkhorn_max_iter``). ``embeddings`` are the labeled rows'
    :class:`ExampleEmbedding` objects, in row order. Each cloud's token mean
    is the row's pooled vector, whatever the budget.
    """
    groups = [[embeddings[i].tokens for i in row] for row in synthetic.parents]
    sizes = [barycenter_support_size([t.shape[0] for t in tokens], lam)
             for tokens, lam in zip(groups, synthetic.lambdas)]
    return wasserstein_barycenter_batch(
        groups, synthetic.lambdas, sizes, outer_iter=cfg.outer_iter,
        sinkhorn_max_iter=cfg.sinkhorn_max_iter, sinkhorn_tol=AUG_SINKHORN_TOL,
        eps_scale=AUG_EPS_SCALE,
    )


def augment_l2_kde(labeled: TrainingSet, cfg: AugmentationConfig) -> SyntheticSet:
    """Euclidean baseline: per-class Gaussian KDE over pooled embeddings
    (Scott's rule, diagonal bandwidth), sampled with hard class labels in
    proportion to the pairing weights. Each row has one parent, the KDE
    centre, with lambda 1. Degenerate classes (one member or zero spread)
    get the bandwidth floor with a warning.
    """
    if cfg.factor == 0:
        return _no_rows(1)
    members = _class_members(labeled, cfg)
    rng = np.random.default_rng(cfg.seed)
    classes_arr, cdf = _class_cdf(members, cfg.pairing)

    d = labeled.x.shape[1]
    bandwidths = []
    for c in classes_arr:
        rows = labeled.x[members[c]]
        n_c = rows.shape[0]
        scott = n_c ** (-1.0 / (d + 4))
        spread = rows.std(axis=0, ddof=1) if n_c > 1 else np.zeros(d)
        bw = spread * scott
        if n_c == 1 or not np.any(bw > 0):
            warnings.warn(
                f"class {c}: degenerate embedding spread, bandwidth floored "
                f"at {KDE_BANDWIDTH_FLOOR}")
            bw = np.maximum(bw, KDE_BANDWIDTH_FLOOR)
        bandwidths.append(bw)
    bandwidths = np.array(bandwidths)

    # Draws stay per row, in the order class, parent, noise.
    count = cfg.factor * len(labeled)
    slot = np.empty(count, dtype=np.intp)
    parents = np.empty((count, 1), dtype=np.intp)
    noise = np.empty((count, d))
    for r in range(count):
        slot[r] = cdf.searchsorted(rng.random(), side="right")
        pool = members[classes_arr[slot[r]]]
        parents[r, 0] = pool[rng.integers(0, len(pool))]
        noise[r] = rng.standard_normal(d)
    labels = np.zeros((count, labeled.y.shape[1]))
    labels[np.arange(count), classes_arr[slot]] = 1.0
    points = labeled.x[parents[:, 0]] + noise * bandwidths[slot]
    return SyntheticSet(points, labels, parents, np.ones((count, 1)))
