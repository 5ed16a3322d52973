"""Acquisition strategies over the unlabeled pool.

All strategies share one calling convention: the pool as a sequence of
ids with the matching (N, d) matrix of pooled embeddings (row i is id i),
the trained head where needed, and the number of samples to pick;
``kcenter`` and ``allwas`` also read the labeled rows. They return exactly
k distinct pool ids and never see true labels; seeded strategies are
deterministic per seed, the rest are pure functions of their inputs. Ties
everywhere break to the lowest id.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coreset import default_s0_cost, greedy_select
from .errors import AllwasError, ConfigError
from .gradspace import pairwise_wasserstein, save_distance_csv
from .model import ClassifierHead, gradient_arrays, predict_proba_batch
from .seeding import derive_seed

STRATEGY_NAMES = ("random", "lc", "dropout", "egl", "kcenter", "allwas")


@dataclass(frozen=True)
class OTConfig:
    """Transport knobs for the coreset strategy.

    ``eps``, ``max_iter`` and ``tol`` configure Sinkhorn, which runs only
    for heads with more than two classes; two-class distances are exact.
    """

    p: float = 2.0
    eps: float | None = None
    subsample: int | None = 2000
    max_iter: int = 300
    tol: float = 1e-6
    s0_cost: float | None = None
    dump_path: str | None = None

    def __post_init__(self):
        # Each check is "not (valid)", so NaN fails too.
        if not self.p >= 1:
            raise ConfigError(f"ot p must be >= 1 (got {self.p})")
        if self.eps is not None and not self.eps > 0:
            raise ConfigError(f"ot eps must be > 0 or null (got {self.eps})")
        if self.subsample is not None and not self.subsample >= 1:
            raise ConfigError(f"ot subsample must be >= 1 or null (got {self.subsample})")
        if not self.max_iter >= 1:
            raise ConfigError(f"ot max_iter must be >= 1 (got {self.max_iter})")
        if not self.tol > 0:
            raise ConfigError(f"ot tol must be > 0 (got {self.tol})")
        if self.s0_cost is not None and not self.s0_cost >= 0:
            raise ConfigError(f"ot s0_cost must be >= 0 or null (got {self.s0_cost})")


def _check_k(ids, k: int) -> None:
    if k < 1:
        raise ConfigError("k must be >= 1")
    if k > len(ids):
        raise AllwasError(f"k={k} exceeds pool of {len(ids)}")


def _lowest(scores: np.ndarray, ids, k: int):
    """The k ids with the lowest score, ties to the lowest id."""
    order = sorted(range(len(ids)), key=lambda i: (scores[i], ids[i]))
    return [ids[i] for i in order[:k]]


def acquire_random(ids, k: int, seed: int = 0):
    """Seeded uniform sample without replacement."""
    _check_k(ids, k)
    rng = np.random.default_rng(seed)
    picked = rng.choice(len(ids), size=k, replace=False)
    return [ids[i] for i in picked]


def acquire_least_confidence(head: ClassifierHead, ids, x: np.ndarray, k: int):
    """Ids with the smallest top-class probability."""
    _check_k(ids, k)
    return _lowest(predict_proba_batch(head, x).max(axis=1), ids, k)


def acquire_mc_dropout(head: ClassifierHead, ids, x: np.ndarray, k: int,
                       passes: int = 10, seed: int = 0):
    """Least confidence on the average of dropout-active predictions."""
    _check_k(ids, k)
    if passes < 1:
        raise ConfigError("passes must be >= 1")
    mean = np.zeros((len(ids), head.n_classes))
    for t in range(passes):
        mean += predict_proba_batch(head, x, dropout_active=True,
                                    seed=derive_seed(seed, "mc-pass", t))
    mean /= passes
    return _lowest(mean.max(axis=1), ids, k)


def acquire_egl(head: ClassifierHead, ids, x: np.ndarray, k: int):
    """Largest expected gradient norm: sum_c p_c ||g_c||_2."""
    _check_k(ids, k)
    grads, probs = gradient_arrays(head, x)
    norms = np.linalg.norm(grads, axis=2)
    return _lowest(-np.einsum("nc,nc->n", probs, norms), ids, k)


def acquire_kcenter(ids, x: np.ndarray, labeled_x: np.ndarray, k: int):
    """Greedy k-center on pooled embeddings, centers seeded with the
    labeled rows; each step takes the id farthest from its nearest center."""
    _check_k(ids, k)
    # One center at a time: an (N, L, d) broadcast would be tens of MiB.
    dist = np.full(len(ids), np.inf)
    for center in labeled_x:
        dist = np.minimum(dist, np.sqrt(((x - center) ** 2).sum(-1)))
    chosen = []
    for _ in range(k):
        cands = np.flatnonzero(dist == dist.max())
        best = min(cands, key=lambda i: ids[i])
        chosen.append(ids[best])
        dist = np.minimum(dist, np.sqrt(((x - x[best]) ** 2).sum(-1)))
        dist[best] = -np.inf  # taken: never the max again
    return chosen


def _by_id(ids, x):
    order = sorted(range(len(ids)), key=lambda i: ids[i])
    return [ids[i] for i in order], x[order]


def acquire_allwas(head: ClassifierHead, ids, x: np.ndarray, labeled_ids,
                   labeled_x: np.ndarray, k: int, ot: OTConfig | None = None,
                   seed: int = 0):
    """Transport-coreset acquisition: per-class gradient measures for the
    pool and the labeled rows, pairwise transport distances, then greedy
    coverage maximization warm-started on the labeled ids.

    When the pool exceeds ``ot.subsample``, a seeded subsample of pool
    candidates caps the quadratic pair sweep; labeled points always stay.
    """
    _check_k(ids, k)
    ot = ot or OTConfig()
    ids, x = _by_id(ids, x)
    labeled_ids, labeled_x = _by_id(labeled_ids, labeled_x)

    if ot.subsample is not None and len(ids) > ot.subsample:
        rng = np.random.default_rng(derive_seed(seed, "allwas-subsample"))
        keep = np.sort(rng.choice(len(ids), size=ot.subsample, replace=False))
        ids, x = [ids[i] for i in keep], x[keep]
        if k > len(ids):
            raise AllwasError(f"k={k} exceeds subsampled pool of {len(ids)}")

    grads, probs = gradient_arrays(head, np.concatenate([x, labeled_x]))
    matrix = pairwise_wasserstein(grads, probs, p=ot.p, eps=ot.eps,
                                  ids=ids + labeled_ids, max_iter=ot.max_iter,
                                  tol=ot.tol)
    if ot.dump_path:
        save_distance_csv(matrix, ot.dump_path)
    s0 = ot.s0_cost if ot.s0_cost is not None else default_s0_cost(matrix)
    state = greedy_select(matrix, k=k, warm_start=labeled_ids, s0_cost=s0)
    return list(state.selected)


def acquire(name: str, head, ids, x: np.ndarray, labeled_ids, labeled_x: np.ndarray,
            k: int, seed: int = 0, ot: OTConfig | None = None, passes: int = 10):
    """Dispatch by strategy name (config string interface)."""
    if name == "random":
        return acquire_random(ids, k, seed)
    if name == "lc":
        return acquire_least_confidence(head, ids, x, k)
    if name == "dropout":
        return acquire_mc_dropout(head, ids, x, k, passes=passes, seed=seed)
    if name == "egl":
        return acquire_egl(head, ids, x, k)
    if name == "kcenter":
        return acquire_kcenter(ids, x, labeled_x, k)
    if name == "allwas":
        return acquire_allwas(head, ids, x, labeled_ids, labeled_x, k, ot=ot, seed=seed)
    raise ConfigError(f"unknown strategy {name!r}; choose from {STRATEGY_NAMES}")
