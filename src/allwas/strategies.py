"""Acquisition strategies over the unlabeled pool.

All strategies share one calling convention: a pool of (id, embedding)
pairs, the trained head where needed, and the number of samples to pick.
They return exactly k distinct pool ids and never see true labels; seeded
strategies are deterministic per seed, the rest are pure functions of
their inputs. Ties everywhere break to the lowest id.
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


def _check_k(pool, k: int) -> None:
    if k < 1:
        raise ConfigError("k must be >= 1")
    if k > len(pool):
        raise AllwasError(f"k={k} exceeds pool of {len(pool)}")


def _pooled(pool) -> np.ndarray:
    return np.stack([emb.pooled for _, emb in pool])


def acquire_random(pool, k: int, seed: int = 0):
    """Seeded uniform sample without replacement."""
    _check_k(pool, k)
    rng = np.random.default_rng(seed)
    picked = rng.choice(len(pool), size=k, replace=False)
    return [pool[i][0] for i in picked]


def acquire_least_confidence(head: ClassifierHead, pool, k: int):
    """Ids with the smallest top-class probability."""
    _check_k(pool, k)
    probs = predict_proba_batch(head, _pooled(pool))
    conf = probs.max(axis=1)
    order = sorted(range(len(pool)), key=lambda i: (conf[i], pool[i][0]))
    return [pool[i][0] for i in order[:k]]


def acquire_mc_dropout(head: ClassifierHead, pool, k: int,
                       passes: int = 10, seed: int = 0):
    """Least confidence on the average of dropout-active predictions."""
    _check_k(pool, k)
    if passes < 1:
        raise ConfigError("passes must be >= 1")
    x = _pooled(pool)
    mean = np.zeros((len(pool), head.n_classes))
    for t in range(passes):
        mean += predict_proba_batch(head, x, dropout_active=True,
                                    seed=derive_seed(seed, "mc-pass", t))
    mean /= passes
    conf = mean.max(axis=1)
    order = sorted(range(len(pool)), key=lambda i: (conf[i], pool[i][0]))
    return [pool[i][0] for i in order[:k]]


def acquire_egl(head: ClassifierHead, pool, k: int):
    """Largest expected gradient norm: sum_c p_c ||g_c||_2."""
    _check_k(pool, k)
    grads, probs = gradient_arrays(head, _pooled(pool))
    norms = np.linalg.norm(grads, axis=2)
    scores = np.einsum("nc,nc->n", probs, norms)
    order = sorted(range(len(pool)), key=lambda i: (-scores[i], pool[i][0]))
    return [pool[i][0] for i in order[:k]]


def acquire_kcenter(pool, labeled, k: int):
    """Greedy k-center on pooled embeddings, centers seeded with the
    labeled set; each step takes the id farthest from its nearest center."""
    _check_k(pool, k)
    x = _pooled(pool)
    if labeled:
        centers = np.stack([emb.pooled for _, emb in labeled])
        dist = np.sqrt(((x[:, None, :] - centers[None, :, :]) ** 2).sum(-1)).min(axis=1)
    else:
        dist = np.full(len(pool), np.inf)
    chosen = []
    taken = np.zeros(len(pool), dtype=bool)
    ids = [i for i, _ in pool]
    for _ in range(k):
        masked = np.where(taken, -np.inf, dist)
        top = masked.max()
        cands = np.flatnonzero(masked == top)
        best = min(cands, key=lambda i: ids[i])
        chosen.append(ids[best])
        taken[best] = True
        new_dist = np.sqrt(((x - x[best]) ** 2).sum(-1))
        dist = np.minimum(dist, new_dist)
    return chosen


def acquire_allwas(head: ClassifierHead, pool, labeled, k: int,
                   ot: OTConfig | None = None, seed: int = 0):
    """Transport-coreset acquisition: per-class gradient measures for the
    pool and the labeled set, pairwise transport distances, then greedy
    coverage maximization warm-started on the labeled ids.

    When the pool exceeds ``ot.subsample``, a seeded subsample of pool
    candidates caps the quadratic pair sweep; labeled points always stay.
    """
    _check_k(pool, k)
    ot = ot or OTConfig()
    pool = sorted(pool, key=lambda item: item[0])
    labeled = sorted(labeled, key=lambda item: item[0])

    if ot.subsample is not None and len(pool) > ot.subsample:
        rng = np.random.default_rng(derive_seed(seed, "allwas-subsample"))
        keep = np.sort(rng.choice(len(pool), size=ot.subsample, replace=False))
        pool = [pool[i] for i in keep]
        if k > len(pool):
            raise AllwasError(f"k={k} exceeds subsampled pool of {len(pool)}")

    ids = [i for i, _ in pool] + [i for i, _ in labeled]
    x = np.stack([emb.pooled for _, emb in pool]
                 + [emb.pooled for _, emb in labeled])
    grads, probs = gradient_arrays(head, x)
    matrix = pairwise_wasserstein(grads, probs, p=ot.p, eps=ot.eps, ids=ids,
                                  max_iter=ot.max_iter, tol=ot.tol)
    if ot.dump_path:
        save_distance_csv(matrix, ot.dump_path)
    s0 = ot.s0_cost if ot.s0_cost is not None else default_s0_cost(matrix)
    state = greedy_select(matrix, k=k, warm_start=[i for i, _ in labeled],
                          s0_cost=s0)
    return list(state.selected)


def acquire(name: str, head, pool, labeled, k: int, seed: int = 0,
            ot: OTConfig | None = None, passes: int = 10):
    """Dispatch by strategy name (config string interface)."""
    if name == "random":
        return acquire_random(pool, k, seed)
    if name == "lc":
        return acquire_least_confidence(head, pool, k)
    if name == "dropout":
        return acquire_mc_dropout(head, pool, k, passes=passes, seed=seed)
    if name == "egl":
        return acquire_egl(head, pool, k)
    if name == "kcenter":
        return acquire_kcenter(pool, labeled, k)
    if name == "allwas":
        return acquire_allwas(head, pool, labeled, k, ot=ot, seed=seed)
    raise ConfigError(f"unknown strategy {name!r}; choose from {STRATEGY_NAMES}")
