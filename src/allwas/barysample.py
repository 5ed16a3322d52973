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
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .errors import AllwasError, ConfigError, check_types
from .model import TrainingSet
from .transport import _sum_lead, barycenter_support_size, wasserstein_barycenter_batch

KDE_BANDWIDTH_FLOOR = 1e-3
# Barycenter solves for augmentation favor speed: a looser adaptive eps and
# Sinkhorn tolerance than the descent-grade barycenter defaults.
AUG_EPS_SCALE = 0.05
AUG_SINKHORN_TOL = 1e-6
# Below this alpha, Generator.dirichlet draws by stick-breaking rather
# than by normalizing one gamma draw per member.
_STICK_BREAKING_ALPHA = 0.1


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
        check_types(AugmentationConfig, vars(self), "augmentation ")
        if self.factor < 0:
            raise ConfigError("augmentation factor must be >= 0")
        if self.group_size < 2:
            raise ConfigError("group_size must be >= 2")
        if not self.dirichlet_alpha > 0:
            raise ConfigError(f"dirichlet_alpha must be > 0 (got {self.dirichlet_alpha})")
        if self.pairing not in ("within-class-minority-weighted", "any-pair"):
            raise ConfigError(f"unknown pairing mode {self.pairing!r}")
        if self.outer_iter < 1 or self.sinkhorn_max_iter < 1:
            raise ConfigError("augmentation outer_iter and sinkhorn_max_iter must be >= 1 "
                              f"(got {self.outer_iter}, {self.sinkhorn_max_iter})")


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


def _mix_rows(rows, parents, lambdas) -> np.ndarray:
    """Row r is sum_j lambdas[r, j] * rows[parents[r, j]], summed in member
    order from zero, so provenance reconstructs each row bitwise, as the
    one-row reference ``tests/oracles.mix_labels`` does."""
    acc = np.zeros((parents.shape[0], rows.shape[1]))
    for j in range(parents.shape[1]):
        acc = acc + lambdas[:, j, None] * rows[parents[:, j]]
    return acc


def _class_members(labeled: TrainingSet) -> dict:
    """Row indices per hard class of a labeled set, for the classes present,
    keyed in ascending order. The keys come from ``bincount``, as
    ``np.unique`` would load ``numpy.ma``."""
    classes = labeled.y.argmax(axis=1)
    return {c: np.flatnonzero(classes == c) for c in np.flatnonzero(np.bincount(classes))}


def _class_cdf(members, pairing: str) -> tuple[np.ndarray, list]:
    """Classes and the cdf of their sampling distribution for the pairing
    mode, built as ``Generator.choice(p=)`` builds it, so that
    ``bisect_right(cdf, rng.random())`` draws its stream."""
    classes = np.array(sorted(members))
    counts = np.array([len(members[c]) for c in classes], dtype=np.float64)
    if pairing == "within-class-minority-weighted":
        w = 1.0 / counts
    else:
        w = counts
    cdf = (w / w.sum()).cumsum()
    cdf /= cdf[-1]
    return classes, cdf.tolist()


class _RawDraws:
    """``Generator.random()``, ``integers(0, n)`` and ``choice(n, g,
    replace=n < g)`` streams of a PCG64 generator, rebuilt from its raw
    64-bit words as numpy makes them, without a numpy call per draw.

    A double is the top 53 bits of a word. A 32-bit draw is the low half
    of a fresh word, whose high half numpy buffers for the next one. A
    draw below n is Lemire's (2019) multiply-and-reject on 32-bit draws
    (n <= 2**32). ``choice`` without replacement is Floyd's sample
    (Bentley & Floyd 1987) and then the shuffle of its g entries, one draw
    below j + 1 per step. The buffered half is numpy's ``has_uint32`` and
    ``uinteger``: read when the draws start, and handed back by
    :meth:`sync` before any numpy call that reads it and when they end.
    Numpy calls that draw no 32-bit halves (``standard_gamma``,
    ``dirichlet``, ``standard_normal``) may come in between unsynced.
    """

    def __init__(self, rng: np.random.Generator):
        self._rng = rng
        self._raw = rng.bit_generator.random_raw
        self._load()

    def _load(self) -> None:
        state = self._rng.bit_generator.state
        self._has, self._half = state["has_uint32"], state["uinteger"]

    def sync(self) -> None:
        """Hand the buffered half back to the generator."""
        state = self._rng.bit_generator.state
        state["has_uint32"], state["uinteger"] = self._has, self._half
        self._rng.bit_generator.state = state

    def random(self) -> float:
        return (self._raw() >> 11) * 2.0**-53

    def below(self, n: int) -> int:
        """``rng.integers(0, n)``, which is a Floyd sample of one."""
        return self.choice(n, 1)[0]

    def choice(self, n: int, g: int) -> list:
        """``rng.choice(n, size=g, replace=n < g)`` as a list."""
        if n < g or (n > 10000 and g > n // 50):
            # numpy's other branches: draws with replacement, or a shuffle
            # of the tail of range(n).
            self.sync()
            picked = self._rng.choice(n, size=g, replace=n < g).tolist()
            self._load()
            return picked
        raw, has, half = self._raw, self._has, self._half
        picked = []
        # Floyd's steps j < n draw below j + 1; then the shuffle's steps
        # swap entry i = n + g - 1 - j with one drawn below i + 1.
        for j in range(n - g, n + g - 1):
            b = j + 1 if j < n else n + g - j
            v = 0
            if b > 1:
                threshold = 2**32 % b
                while True:
                    if has:
                        u, has = half, 0
                    else:
                        word = raw()
                        u, has, half = word & 0xFFFFFFFF, 1, word >> 32
                    m = u * b
                    if m & 0xFFFFFFFF >= threshold:
                        break
                v = m >> 32
            if j < n:
                picked.append(j if v in picked else v)
            else:
                i = b - 1
                picked[i], picked[v] = picked[v], picked[i]
        self._has, self._half = has, half
        return picked


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
    if len(labeled) < cfg.group_size:
        raise AllwasError(
            f"need at least group_size={cfg.group_size} labeled examples "
            f"(got {len(labeled)})")
    members = _class_members(labeled)
    rng = np.random.default_rng(cfg.seed)
    if cfg.pairing == "any-pair":
        cdf, pools = None, [range(len(labeled))]
    else:
        classes, cdf = _class_cdf(members, cfg.pairing)
        pools = [members[c].tolist() for c in classes]

    g, alpha = cfg.group_size, cfg.dirichlet_alpha
    count = cfg.factor * len(labeled)
    draws = _RawDraws(rng)
    parents = []
    lambdas = np.empty((count, g))
    for row in lambdas:
        pool = pools[0 if cdf is None else bisect_right(cdf, draws.random())]
        parents += [pool[i] for i in draws.choice(len(pool), g)]
        if alpha < _STICK_BREAKING_ALPHA:
            row[:] = rng.dirichlet(np.full(g, alpha))
        else:
            rng.standard_gamma(alpha, out=row)
    draws.sync()
    if alpha >= _STICK_BREAKING_ALPHA:
        # Each row to sum 1 as Generator.dirichlet does it (the gamma draws
        # summed in member order, times the reciprocal of the sum), so the
        # rows equal dirichlet draws bitwise.
        lambdas *= (1.0 / _sum_lead(lambdas, 1))[:, None]
    parents = np.array(parents, dtype=np.intp).reshape(count, g)
    return SyntheticSet(_mix_rows(labeled.x, parents, lambdas),
                        _mix_rows(labeled.y, parents, lambdas), parents, lambdas)


def barycenter_tokens(tokens, synthetic: SyntheticSet, cfg: AugmentationConfig) -> list:
    """Token clouds of ``augment_wasserstein``'s rows: for each row the W_2
    barycenter of its parents' token clouds (uniform token weights) at its
    lambdas, with round(sum lambda_i n_i) tokens (at least one), solved in
    one padded batch on ``cfg``'s budget (``outer_iter``,
    ``sinkhorn_max_iter``). ``tokens`` are the labeled rows' (n_i, d) token
    matrices, in row order: the ``tokens`` of a corpus that
    ``make_synthetic`` or ``ingest_jsonl`` built with ``keep_tokens=True``
    (each cloud's mean is then bitwise the row's ``pooled`` vector), since
    ``harness.load_corpus`` keeps none. Each barycenter's token mean is its
    row's pooled vector, whatever the budget.
    """
    groups = [[tokens[i] for i in row] for row in synthetic.parents]
    sizes = [barycenter_support_size([t.shape[0] for t in members], lam)
             for members, lam in zip(groups, synthetic.lambdas)]
    return wasserstein_barycenter_batch(
        groups, synthetic.lambdas, sizes, outer_iter=cfg.outer_iter,
        sinkhorn_max_iter=cfg.sinkhorn_max_iter, sinkhorn_tol=AUG_SINKHORN_TOL,
        eps_scale=AUG_EPS_SCALE,
    )


def augment_l2_kde(labeled: TrainingSet, cfg: AugmentationConfig) -> SyntheticSet:
    """Euclidean baseline: per-class Gaussian KDE over pooled embeddings
    (Scott's rule, diagonal bandwidth), sampled with hard class labels in
    proportion to the pairing weights. Each row has one parent, the KDE
    centre, with lambda 1, so one labeled row is enough. Degenerate
    classes (one member or zero spread) get the bandwidth floor with a
    warning.
    """
    if cfg.factor == 0:
        return _no_rows(1)
    members = _class_members(labeled)
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
    pools = [members[c].tolist() for c in classes_arr]
    draws = _RawDraws(rng)
    slots, parents = [], []
    noise = np.empty((count, d))
    for row in noise:
        slot = bisect_right(cdf, draws.random())
        pool = pools[slot]
        slots.append(slot)
        parents.append(pool[draws.below(len(pool))])
        rng.standard_normal(out=row)
    draws.sync()
    slots = np.array(slots, dtype=np.intp)
    parents = np.array(parents, dtype=np.intp)[:, None]
    labels = np.zeros((count, labeled.y.shape[1]))
    labels[np.arange(count), classes_arr[slots]] = 1.0
    points = labeled.x[parents[:, 0]] + noise * bandwidths[slots]
    return SyntheticSet(points, labels, parents, np.ones((count, 1)))
