"""Over-sampling of labeled examples for augmentation.

Two augmenters behind one configuration: transport barycenters of token
clouds with mixed soft labels, and a per-class Gaussian KDE over pooled
embeddings as the plain-Euclidean baseline. Synthetic counts are
``factor`` times the labeled set; group pairing defaults to within-class
draws weighted toward rare classes, since augmentation is deployed
against imbalance. Everything is deterministic for a fixed config seed.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import AllwasError, ConfigError
from .model import ExampleEmbedding, SoftLabel
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
    # Budget of the barycenter solves (fixed-point passes, Sinkhorn sweeps).
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
class SyntheticExample:
    embedding: ExampleEmbedding
    label: SoftLabel
    parent_ids: tuple
    lambdas: np.ndarray


def mix_labels(labels, lambdas) -> SoftLabel:
    """Canonical lambda-weighted label average, summed in member order so
    provenance reconstructs the result bitwise."""
    acc = np.zeros_like(labels[0].probs)
    for lam, label in zip(lambdas, labels):
        acc = acc + lam * label.probs
    return SoftLabel(acc)


def _class_index(labeled):
    """Hard class of each labeled example, plus member lists per class."""
    classes = np.array([label.hard for _, label in labeled])
    members = {c: np.flatnonzero(classes == c) for c in np.unique(classes)}
    return classes, members


def _class_weights(members, pairing: str) -> tuple[np.ndarray, np.ndarray]:
    """Sampling distribution over classes for the given pairing mode."""
    classes = np.array(sorted(members))
    counts = np.array([len(members[c]) for c in classes], dtype=np.float64)
    if pairing == "within-class-minority-weighted":
        w = 1.0 / counts
    else:
        w = counts
    return classes, w / w.sum()


def _draw_group(rng, cfg, members, classes_arr, class_probs, n_labeled) -> np.ndarray:
    if cfg.pairing == "any-pair":
        return rng.choice(n_labeled, size=cfg.group_size, replace=False)
    cls = classes_arr[rng.choice(len(classes_arr), p=class_probs)]
    pool = members[cls]
    replace = len(pool) < cfg.group_size
    return pool[rng.choice(len(pool), size=cfg.group_size, replace=replace)]


def augment_wasserstein(labeled, cfg: AugmentationConfig):
    """factor x |labeled| synthetic examples, each the W_2 barycenter of a
    sampled group of token clouds with the matching mixed label.

    Group token clouds carry uniform token weights; each synthetic token
    matrix has round(sum lambda_i n_i) rows (at least one). Barycenters for
    all groups are solved in one padded batch.
    """
    labeled = list(labeled)
    if cfg.factor == 0:
        return []
    if len(labeled) < cfg.group_size:
        raise AllwasError(
            f"need at least group_size={cfg.group_size} labeled examples "
            f"(got {len(labeled)})")
    rng = np.random.default_rng(cfg.seed)
    _, members = _class_index(labeled)
    classes_arr, class_probs = _class_weights(members, cfg.pairing)

    count = cfg.factor * len(labeled)
    groups, lamb_rows, sizes, parents = [], [], [], []
    for _ in range(count):
        idx = _draw_group(rng, cfg, members, classes_arr, class_probs, len(labeled))
        lam = rng.dirichlet(np.full(cfg.group_size, cfg.dirichlet_alpha))
        tokens = [labeled[i][0].tokens for i in idx]
        groups.append(tokens)
        lamb_rows.append(lam)
        sizes.append(barycenter_support_size([t.shape[0] for t in tokens], lam))
        parents.append(tuple(int(i) for i in idx))

    supports = wasserstein_barycenter_batch(
        groups, np.asarray(lamb_rows), sizes, outer_iter=cfg.outer_iter,
        sinkhorn_max_iter=cfg.sinkhorn_max_iter, sinkhorn_tol=AUG_SINKHORN_TOL,
        eps_scale=AUG_EPS_SCALE,
    )

    out = []
    for support, lam, idx in zip(supports, lamb_rows, parents):
        label = mix_labels([labeled[i][1] for i in idx], lam)
        out.append(SyntheticExample(ExampleEmbedding(support), label, idx, lam))
    return out


def augment_l2_kde(labeled, cfg: AugmentationConfig):
    """Euclidean baseline: per-class Gaussian KDE over pooled embeddings
    (Scott's rule, diagonal bandwidth), sampled with hard class labels in
    proportion to the pairing weights. Degenerate classes (one member or
    zero spread) get the bandwidth floor with a warning.
    """
    labeled = list(labeled)
    if cfg.factor == 0:
        return []
    if len(labeled) < cfg.group_size:
        raise AllwasError(
            f"need at least group_size={cfg.group_size} labeled examples "
            f"(got {len(labeled)})")
    rng = np.random.default_rng(cfg.seed)
    _, members = _class_index(labeled)
    classes_arr, class_probs = _class_weights(members, cfg.pairing)

    pooled = np.stack([emb.pooled for emb, _ in labeled])
    d = pooled.shape[1]
    bandwidths = {}
    for c in classes_arr:
        rows = pooled[members[c]]
        n_c = rows.shape[0]
        scott = n_c ** (-1.0 / (d + 4))
        spread = rows.std(axis=0, ddof=1) if n_c > 1 else np.zeros(d)
        bw = spread * scott
        if n_c == 1 or not np.any(bw > 0):
            warnings.warn(
                f"class {c}: degenerate embedding spread, bandwidth floored "
                f"at {KDE_BANDWIDTH_FLOOR}")
            bw = np.maximum(bw, KDE_BANDWIDTH_FLOOR)
        bandwidths[c] = bw

    out = []
    for _ in range(cfg.factor * len(labeled)):
        cls = int(classes_arr[rng.choice(len(classes_arr), p=class_probs)])
        pool = members[cls]
        parent = int(pool[rng.choice(len(pool))])
        noise = rng.standard_normal(d) * bandwidths[cls]
        point = pooled[parent] + noise
        label = SoftLabel.one_hot(cls, labeled[parent][1].n_classes)
        out.append(SyntheticExample(
            ExampleEmbedding(point[None, :]), label, (parent,), np.array([1.0])))
    return out
