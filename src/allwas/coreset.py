"""Submodular coverage objective over a distance matrix and its greedy
maximizer.

The coverage value of a selection S is the total distance saved relative
to an auxiliary element s0 that covers everything at a flat cost:
F(S) = L({s0}) - L(S ∪ {s0}) with L(S) = sum_i min_{j in S} d(i, j).
Selection always prices s0 at 1.01 x the largest entry
(``default_s0_cost``); in exact arithmetic any cost at or above the largest
entry gives the same picks.
F is monotone and submodular for any nonnegative matrix, so lazy greedy
with an upper-bound heap returns the same sequence as naive greedy while
skipping most gain evaluations.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .errors import AllwasError, ConfigError
from .gradspace import _BLOCK_CELLS, DistanceMatrix


@dataclass(frozen=True)
class SelectionState:
    """Greedy selection result: chosen ids in order and the objective
    value reached."""

    selected: tuple
    value: float


def default_s0_cost(matrix: DistanceMatrix) -> float:
    """Flat coverage cost of the auxiliary element: just above the largest
    pairwise distance, so any real element strictly improves on it."""
    top = float(matrix.entries.max()) if matrix.n else 0.0
    return 1.01 * top if top > 0 else 1.0


def _minima(matrix: DistanceMatrix, selected, s0_cost: float) -> np.ndarray:
    minima = np.full(matrix.n, float(s0_cost))
    for sample_id in selected:
        col = matrix.entries[:, matrix.index_of(sample_id)]
        np.minimum(minima, col, out=minima)
    return minima


def _gain(minima: np.ndarray, col: np.ndarray, out: np.ndarray | None = None) -> float:
    """Marginal gain of adding the element with distance column ``col``,
    worked out in ``out`` (the shape of ``minima``) when one is given."""
    diff = np.subtract(minima, col, out=out)
    return float(np.maximum(diff, 0.0, out=diff).sum())


def _first_gains(matrix: DistanceMatrix, minima: np.ndarray, candidates) -> list:
    """``_gain`` of every candidate, a block of candidates at a time: a
    block's columns are gathered as the rows of one array of at most
    ``_BLOCK_CELLS`` entries, and each row sums as ``_gain`` sums its
    column, so the gains are the same."""
    positions = np.array([matrix.index_of(i) for i in candidates], dtype=np.intp)
    step = max(1, _BLOCK_CELLS // max(matrix.n, 1))
    gains = []
    for lo in range(0, len(positions), step):
        rows = matrix.entries.T[positions[lo:lo + step]]
        np.subtract(minima, rows, out=rows)
        gains += np.maximum(rows, 0.0, out=rows).sum(axis=1).tolist()
    return gains


def greedy_select(matrix: DistanceMatrix, k: int, warm_start=()) -> SelectionState:
    """Append k elements greedily, each maximizing the marginal coverage
    gain given the warm start (already-selected ids) and the auxiliary
    element, whose cost is ``default_s0_cost`` (1.01 x the largest entry).
    Ties break to the lowest id. A lazy heap of upper bounds skips most
    gain evaluations and selects what naive greedy would.
    """
    if k < 1:
        raise ConfigError("k must be >= 1")
    warm_start = list(warm_start)
    if k + len(warm_start) > matrix.n:
        raise AllwasError(
            f"cannot select {k} beyond warm start of {len(warm_start)} "
            f"from {matrix.n} elements")
    s0_cost = default_s0_cost(matrix)
    minima = _minima(matrix, warm_start, s0_cost)
    taken = set(warm_start)
    candidates = [i for i in matrix.ids if i not in taken]
    selected = []

    # Heap of (-upper bound, id, stamp), stamped with the round the bound
    # was computed for: a popped entry of the current round is the exact
    # argmax, and the (-gain, id) order gives naive greedy's lowest-id ties.
    heap = [(-gain, i, 1) for gain, i in zip(_first_gains(matrix, minima, candidates),
                                             candidates)]
    heapq.heapify(heap)
    work = np.empty_like(minima)
    for round_no in range(1, k + 1):
        while True:
            neg_gain, cand, stamp = heapq.heappop(heap)
            if cand in taken:
                continue
            col = matrix.entries[:, matrix.index_of(cand)]
            if stamp == round_no:
                selected.append(cand)
                taken.add(cand)
                np.minimum(minima, col, out=minima)
                break
            heapq.heappush(heap, (-_gain(minima, col, work), cand, round_no))

    value = matrix.n * s0_cost - float(minima.sum())
    return SelectionState(tuple(selected), value)
