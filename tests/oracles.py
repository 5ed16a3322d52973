"""Reference implementations that the tests compare the package against.

``exact_distance_oracle`` gives exact W_p^p where a closed form exists, for
the Sinkhorn and pairwise-distance checks. ``naive_greedy`` re-evaluates
every candidate each step, the selection that ``coreset.greedy_select``'s
lazy heap must reproduce. ``mix_labels`` rebuilds one synthetic row from
its provenance, as ``barysample`` mixes it. ``pairwise_distance_percentile``
is the seed radius as first written, per-row arrays concatenated, that
``data._pairwise_distance_percentile`` must equal bitwise. ``distinct_rows``
is ``gradspace._distinct_rows`` as first written, on ``np.unique``.
``objective_L`` is the coverage objective's loss and ``brute_force_opt``
its exact maximizer by enumeration, the optimum the greedy is measured
against. ``make_synthetic_rows`` is ``data.make_synthetic`` as first
written, one row's cloud at a time, which the block build must equal
bitwise.
"""

import itertools
import math

import numpy as np

from allwas.coreset import SelectionState, _gain, _minima, default_s0_cost
from allwas.data import Corpus
from allwas.errors import AllwasError, ConfigError
from allwas.transport import DiscreteMeasure, _check_pair, ground_cost

_BRUTE_FORCE_LIMIT = 2_000_000


def _is_uniform(m: DiscreteMeasure) -> bool:
    return bool(np.allclose(m.weights, 1.0 / m.n, atol=1e-12))


def exact_distance_oracle(a: DiscreteMeasure, b: DiscreteMeasure, p: float = 2.0) -> float:
    """Exact W_p^p for shapes where closed-form solutions exist.

    Supported: both measures 1D (sorted quantile coupling, any weights), or
    both uniform with equal support sizes n <= 64 (minimum-cost assignment).
    """
    _check_pair(a, b)
    if a.dim == 1:
        return _exact_1d(a, b, p)
    if _is_uniform(a) and _is_uniform(b) and a.n == b.n and a.n <= 64:
        from scipy.optimize import linear_sum_assignment

        cost = ground_cost(a, b, p)
        rows, cols = linear_sum_assignment(cost)
        return float(cost[rows, cols].sum() / a.n)
    raise AllwasError(
        "exact oracle supports only 1D measures or uniform equal-size measures "
        "with n <= 64; use sinkhorn_distance for general shapes"
    )


def _exact_1d(a: DiscreteMeasure, b: DiscreteMeasure, p: float) -> float:
    """Monotone (quantile) coupling, optimal in 1D for convex |x-y|^p."""
    ia = np.argsort(a.support[:, 0], kind="stable")
    ib = np.argsort(b.support[:, 0], kind="stable")
    xs, ws = a.support[ia, 0], a.weights[ia].copy()
    ys, vs = b.support[ib, 0], b.weights[ib].copy()
    cost = 0.0
    i = j = 0
    while i < len(xs) and j < len(ys):
        mass = min(ws[i], vs[j])
        if mass > 0:
            cost += mass * abs(xs[i] - ys[j]) ** p
        ws[i] -= mass
        vs[j] -= mass
        if ws[i] <= 1e-15:
            i += 1
        if vs[j] <= 1e-15:
            j += 1
    return float(cost)


def naive_greedy(matrix, k: int) -> SelectionState:
    """Greedy coverage selection that re-evaluates every candidate each
    step, ties to the lowest id. It prices s0, updates the minima and sums
    the value as ``greedy_select`` does, so the two values agree exactly."""
    s0_cost = default_s0_cost(matrix)
    minima = _minima(matrix, (), s0_cost)
    taken = set()
    selected = []
    for _ in range(k):
        best_id, best_gain = None, -1.0
        for cand in matrix.ids:
            if cand in taken:
                continue
            gain = _gain(minima, matrix.entries[:, matrix.index_of(cand)])
            if gain > best_gain:
                best_id, best_gain = cand, gain
        selected.append(best_id)
        taken.add(best_id)
        np.minimum(minima, matrix.entries[:, matrix.index_of(best_id)], out=minima)
    value = matrix.n * s0_cost - float(minima.sum())
    return SelectionState(tuple(selected), value)


def mix_labels(labels, lambdas) -> np.ndarray:
    """Canonical lambda-weighted average of label rows, summed in member
    order from zero, so provenance reconstructs the result bitwise."""
    acc = np.zeros_like(labels[0], dtype=np.float64)
    for lam, label in zip(lambdas, labels):
        acc = acc + lam * label
    return acc


def pairwise_distance_percentile(pooled, percentile: float, rng) -> float:
    """Percentile of pairwise row distances, over at most 1000 seeded rows:
    one distance array per row, concatenated, and ``np.percentile`` of a
    copy."""
    n = pooled.shape[0]
    if n > 1000:
        pooled = pooled[rng.choice(n, size=1000, replace=False)]
    dist = [np.sqrt(np.sum((pooled[i + 1:] - pooled[i]) ** 2, axis=1))
            for i in range(pooled.shape[0] - 1)]
    return float(np.percentile(np.concatenate(dist), percentile))


def distinct_rows(keys: np.ndarray):
    """The first occurrence of each distinct row of ``keys``, in order, and
    each row's index among them, from ``np.unique`` over rows."""
    _, first, inverse = np.unique(keys, axis=0, return_index=True, return_inverse=True)
    keep = np.sort(first)
    return keep, np.searchsorted(keep, first[inverse.reshape(-1)])


def objective_L(matrix, selected, s0_cost: float) -> float:
    """sum_i min(s0_cost, min_{j in selected} d(i, j)); |V| * s0_cost when
    the selection is empty."""
    if s0_cost <= 0:
        raise ConfigError("s0_cost must be positive")
    minima = _minima(matrix, selected, s0_cost)
    return float(minima.sum())


def brute_force_opt(matrix, k: int):
    """Exact maximizer of the coverage objective at ``default_s0_cost`` by
    subset enumeration.

    Returns (ids, value). Refuses instances with more than 2e6 subsets.
    """
    s0_cost = default_s0_cost(matrix)
    n = matrix.n
    if k < 1 or k > n:
        raise ConfigError(f"k={k} out of range for {n} elements")
    if math.comb(n, k) > _BRUTE_FORCE_LIMIT:
        raise AllwasError(f"C({n},{k}) exceeds the enumeration limit")
    entries = matrix.entries
    best_ids, best_value = None, -1.0
    base = np.full(n, float(s0_cost))
    for combo in itertools.combinations(range(n), k):
        minima = np.minimum(base, entries[:, combo].min(axis=1))
        value = n * s0_cost - float(minima.sum())
        if value > best_value:
            best_ids = combo
            best_value = value
    return tuple(matrix.ids[i] for i in best_ids), best_value


def make_synthetic_rows(spec, keep_tokens: bool = True) -> Corpus:
    """``data.make_synthetic`` drawing and pooling one row's cloud at a
    time: each cloud is drawn, then pooled with ``mean(axis=0)``."""
    rng = np.random.default_rng(spec.seed)
    n_classes = len(spec.priors)
    sigma = spec.separation / np.sqrt(2 * spec.d)
    centers = rng.standard_normal((n_classes, spec.clusters_per_class, spec.d)) * sigma

    classes = rng.choice(n_classes, size=spec.n, p=np.asarray(spec.priors))
    clusters = rng.integers(0, spec.clusters_per_class, size=spec.n)
    lo, hi = spec.token_count_range
    counts = rng.integers(lo, hi + 1, size=spec.n)

    clouds = [centers[classes[i], clusters[i]]
              + spec.noise * rng.standard_normal((counts[i], spec.d)) for i in range(spec.n)]
    pooled = np.stack([cloud.mean(axis=0) for cloud in clouds])
    names = tuple(f"class{c}" for c in range(n_classes))
    target = int(np.argmin(spec.priors))
    return Corpus(range(spec.n), pooled, classes, (None,) * spec.n, names, target,
                  tuple(clouds) if keep_tokens else None)
