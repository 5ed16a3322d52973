"""Acquisition strategies over the unlabeled pool.

All strategies share one calling convention: the pool as a sequence of
ids with the matching (N, d) matrix of pooled embeddings (row i is id i),
the trained head where needed, and the number of samples to pick;
``kcenter`` and ``allwas`` also read the labeled rows. They return exactly
k distinct pool ids and never see true labels; seeded strategies are
deterministic per seed, the rest are pure functions of their inputs. Ties
everywhere break to the lowest id. ``allwas`` takes its transport distances
at p = 2 from the class probabilities and the head's ``w2`` (exact, for up
to seven classes), and otherwise from the per-class gradient measures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coreset import greedy_select
from .errors import AllwasError, ConfigError, check_types
from .gradspace import pairwise_w2_exact, pairwise_wasserstein
from .model import ClassifierHead, gradient_arrays, mean_dropout_proba, predict_proba_batch
from .seeding import derive_seed

STRATEGY_NAMES = ("random", "lc", "dropout", "egl", "kcenter", "allwas")

# Strategies that never read the trained head: ``acquire`` takes None for it.
HEAD_FREE = frozenset({"random", "kcenter"})

# The exact p = 2 path takes heads whose class cost has at most this many
# dual vertices (binom(2C - 2, C - 1): 924 at C = 7). Against
# pairwise_wasserstein on 406 samples of random heads, H = 64, one BLAS
# thread on a 2-core x86 host, it took 0.004 s vs 0.19-0.32 s at C = 2,
# 0.14 s vs 1.0 s at C = 6 and 0.44 s vs 1.2-1.4 s at C = 7, but 1.8-1.9 s
# vs 1.7-2.1 s at C = 8 (K = 3432), where it no longer wins.
_EXACT_MAX_VERTICES = 924

# The largest transport-distance matrix acquisition may build: N x N float64
# entries over the (subsampled) pool and the labeled rows (memory guard).
_MATRIX_BYTES = 2**30


@dataclass(frozen=True)
class OTConfig:
    """Transport knobs for the coreset strategy; its fields are the only
    keys of an experiment config's ``ot`` section.

    ``max_iter`` and ``tol`` configure Sinkhorn, which runs only for heads
    of more than two classes, and then only at ``p`` != 2 or past the exact
    path's vertex cap (more than seven classes); it runs at eps = 5% of
    each pair's median cost. Every other distance is exact. ``subsample``
    caps the pool rows the distances are taken over.
    """

    p: float = 2.0
    subsample: int | None = 2000
    max_iter: int = 300
    tol: float = 1e-6

    def __post_init__(self):
        check_types(OTConfig, vars(self), "ot ")
        # Each check is "not (valid)", so NaN fails too.
        if not self.p >= 1:
            raise ConfigError(f"ot p must be >= 1 (got {self.p})")
        if self.subsample is not None and not self.subsample >= 1:
            raise ConfigError(f"ot subsample must be >= 1 or null (got {self.subsample})")
        if not self.max_iter >= 1:
            raise ConfigError(f"ot max_iter must be >= 1 (got {self.max_iter})")
        if not self.tol > 0:
            raise ConfigError(f"ot tol must be > 0 (got {self.tol})")


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
    mean = mean_dropout_proba(head, x, [derive_seed(seed, "mc-pass", t) for t in range(passes)])
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
    order = sorted(range(len(ids)), key=ids.__getitem__)
    return [ids[i] for i in order], x[order]


def acquire_allwas(head: ClassifierHead, ids, x: np.ndarray, labeled_ids,
                   labeled_x: np.ndarray, k: int, ot: OTConfig | None = None,
                   seed: int = 0):
    """Transport-coreset acquisition: per-class gradient measures for the
    pool and the labeled rows, pairwise transport distances, then greedy
    coverage maximization warm-started on the labeled ids.

    At ``p = 2`` the distances are exact and come from the class
    probabilities and the head's ``w2`` alone (``pairwise_w2_exact``), for
    heads of up to seven classes; otherwise from the measures' supports
    (``pairwise_wasserstein``).

    When the pool exceeds ``ot.subsample``, a seeded subsample of pool
    candidates caps the quadratic pair sweep; labeled points always stay.
    A matrix over more rows than ``_MATRIX_BYTES`` holds is a ConfigError,
    raised before anything is computed.
    """
    _check_k(ids, k)
    ot = ot or OTConfig()
    n = len(labeled_ids) + (len(ids) if ot.subsample is None else min(len(ids), ot.subsample))
    if 8 * n * n > _MATRIX_BYTES:
        raise ConfigError(
            f"ot.subsample: the distance matrix over N = {n} rows (pool and labeled) "
            f"would take {8 * n * n / 2**20:.1f} MiB, over the {_MATRIX_BYTES / 2**20:g} MiB "
            f"cap; lower ot.subsample")
    ids, x = _by_id(ids, x)
    labeled_ids, labeled_x = _by_id(labeled_ids, labeled_x)

    if ot.subsample is not None and len(ids) > ot.subsample:
        rng = np.random.default_rng(derive_seed(seed, "allwas-subsample"))
        keep = np.sort(rng.choice(len(ids), size=ot.subsample, replace=False))
        ids, x = [ids[i] for i in keep], x[keep]
        if k > len(ids):
            raise AllwasError(f"k={k} exceeds subsampled pool of {len(ids)}")

    x = np.concatenate([x, labeled_x])
    c = head.n_classes
    if ot.p == 2 and math.comb(2 * c - 2, c - 1) <= _EXACT_MAX_VERTICES:
        matrix = pairwise_w2_exact(predict_proba_batch(head, x), head.w2,
                                   ids=ids + labeled_ids)
    else:
        grads, probs = gradient_arrays(head, x)
        matrix = pairwise_wasserstein(grads, probs, p=ot.p, ids=ids + labeled_ids,
                                      max_iter=ot.max_iter, tol=ot.tol)
    state = greedy_select(matrix, k=k, warm_start=labeled_ids)
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
