"""Reference implementations that the tests compare the package against.

``exact_distance_oracle`` gives exact W_p^p where a closed form exists, for
the Sinkhorn and pairwise-distance checks. ``naive_greedy`` re-evaluates
every candidate each step, the selection that ``coreset.greedy_select``'s
lazy heap must reproduce. ``mix_labels`` rebuilds one synthetic row from
its provenance, as ``barysample`` mixes it. ``pairwise_distance_percentile``
is the seed radius as first written, per-row arrays concatenated, that
``data._pairwise_distance_percentile`` must equal bitwise.
"""

import numpy as np

from allwas.coreset import SelectionState, _gain, _minima, default_s0_cost
from allwas.errors import AllwasError
from allwas.transport import DiscreteMeasure, _check_pair, ground_cost


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


def naive_greedy(matrix, k: int, s0_cost: float | None = None) -> SelectionState:
    """Greedy coverage selection that re-evaluates every candidate each
    step, ties to the lowest id. It updates the minima and sums the value
    as ``greedy_select`` does, so the two values agree exactly."""
    if s0_cost is None:
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
    return SelectionState(tuple(selected), minima, value, float(s0_cost))


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
