"""Gradient-space geometry for acquisition.

Each pool sample is a measure over its per-candidate-class gradients,
weighted by the predicted class probabilities, as arrays (supports
(N, C, H), weights (N, C)) from ``model.gradient_arrays``. Their pairwise
transport distances (exact for C = 2, rounded Sinkhorn plans otherwise)
form the matrix the submodular selector consumes; the caller caps the pair
count by subsampling (``strategies.acquire_allwas``).
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass, field

import numpy as np

from .errors import AllwasError, ShapeError
from .transport import (
    EPS_FLOOR,
    EPS_MEDIAN_SCALE,
    _pairwise_sq,
    checked_weights,
    sinkhorn_plans_batched,
)

logger = logging.getLogger(__name__)

# Byte budget for one chunk of pair problems (memory guard).
_CHUNK_BYTES = 64 * 2**20


def _pairs_per_chunk(c: int) -> int:
    """Pairs whose working arrays fit in ``_CHUNK_BYTES``: per pair, three
    temporaries of up to two (C, C) squared-distance blocks, the gathered
    cost, about ten (C, C) arrays for a Sinkhorn solve, and a few scalars."""
    per_pair = 8 * (17 * c * c + 8)
    return max(1, _CHUNK_BYTES // per_pair)


@dataclass(frozen=True)
class DistanceMatrix:
    """Symmetric pairwise W_p^p matrix with a map back to sample ids."""

    entries: np.ndarray
    ids: tuple
    _index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=np.float64)
        n = entries.shape[0]
        if entries.shape != (n, n):
            raise ShapeError("distance matrix must be square", actual=entries.shape)
        if len(self.ids) != n:
            raise ShapeError("one id per row", expected=n, actual=len(self.ids))
        if np.abs(np.diag(entries)).max(initial=0.0) > 1e-8:
            raise AllwasError("distance matrix diagonal must be zero")
        # Compared in row blocks, so the check's temporaries stay small
        # next to the matrix.
        step = max(1, n // 8)
        for r0 in range(0, n, step):
            block = entries[r0:r0 + step]
            if np.abs(block - entries[:, r0:r0 + step].T).max() > 1e-6:
                raise AllwasError("distance matrix must be symmetric")
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "ids", tuple(self.ids))
        index = {}
        for i, sample_id in enumerate(self.ids):
            index.setdefault(sample_id, i)
        object.__setattr__(self, "_index", index)

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    def index_of(self, sample_id) -> int:
        try:
            return self._index[sample_id]
        except KeyError:
            raise AllwasError(f"sample id {sample_id!r} not in distance matrix") from None


def _two_class_exact(cost: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact W_p^p of 2x2 problems, cost (P, 2, 2) and marginals (P, 2): a
    coupling has one free entry t = P[0, 0] in [max(0, b0 - a1), min(a0, b0)]
    and a cost linear in t, so the optimum is the endpoint the slope picks."""
    a0, a1, b0 = a[:, 0], a[:, 1], b[:, 0]
    m00, m01, m10, m11 = cost[:, 0, 0], cost[:, 0, 1], cost[:, 1, 0], cost[:, 1, 1]
    slope = m00 - m01 - m10 + m11
    t = np.where(slope > 0, np.maximum(0.0, b0 - a1), np.minimum(a0, b0))
    return t * m00 + (a0 - t) * m01 + (b0 - t) * m10 + (a1 - b0 + t) * m11


def pairwise_wasserstein(
    supports,
    weights,
    p: float = 2.0,
    eps: float | None = None,
    ids=None,
    max_iter: int = 300,
    tol: float = 1e-6,
) -> DistanceMatrix:
    """Symmetric W_p^p matrix between N measures: supports (N, C, H), and
    weights (N, C) whose rows are nonnegative and sum to 1.

    With C = 2 each entry is exact (closed form, ``eps``, ``max_iter`` and
    ``tol`` unused). Otherwise each is the cost of a Sinkhorn plan at
    ``eps`` (``None``: 5% of the pair's median cost) within ``max_iter``
    and ``tol``; ``sinkhorn_plans_batched`` rounds every plan onto the
    transport polytope, so each entry is a feasible plan's cost and at
    least the exact W_p^p.
    Identical measures are merged up front and lie exactly 0 apart.
    """
    supports = np.asarray(supports, dtype=np.float64)
    if supports.size == 0:
        raise AllwasError("no gradient measures given")
    if supports.ndim != 3:
        raise ShapeError("supports must be (N, C, H)", actual=supports.shape)
    weights = checked_weights(supports, np.asarray(weights, dtype=np.float64))
    n, c, h = supports.shape
    ids = list(range(n)) if ids is None else list(ids)
    if len(ids) != n:
        raise ShapeError("one id per measure", expected=n, actual=len(ids))

    # Solve between distinct measures only, kept in first-occurrence order.
    keys = np.concatenate([supports.reshape(n, -1), weights], axis=1)
    _, first, inverse = np.unique(keys, axis=0, return_index=True, return_inverse=True)
    keep = np.sort(first)
    inverse = np.searchsorted(keep, first[inverse.reshape(-1)])
    rows = supports[keep].reshape(-1, h)           # (u * C, H)
    weights = weights[keep]
    u = len(keep)

    dist = np.zeros((u, u))
    # Pair k of the row-major upper triangle is (i, j) with row i starting
    # at first[i]; each chunk builds only its own pairs.
    first = np.arange(u) * (2 * u - np.arange(u) - 1) // 2
    pairs = u * (u - 1) // 2
    chunk = _pairs_per_chunk(c)
    unconverged = 0
    for start in range(0, pairs, chunk):
        sj = np.arange(start, min(start + chunk, pairs))
        si = np.searchsorted(first, sj, side="right")
        si -= 1
        sj -= first[si]
        sj += si + 1
        # One Gram product: this chunk's rows against every later sample.
        r0, r1, j0 = si[0], si[-1] + 1, si[0] + 1
        sq = _pairwise_sq(rows[r0 * c:r1 * c], rows[j0 * c:])
        sq = sq.reshape(r1 - r0, c, u - j0, c)[si - r0, :, sj - j0, :]
        cost = sq if p == 2 else sq ** (p / 2.0)
        a, b = weights[si], weights[sj]
        if c == 2:
            vals = _two_class_exact(cost, a, b)
        else:
            eps_arr = eps
            if eps is None:
                med = np.median(cost.reshape(len(si), -1), axis=1)
                eps_arr = np.maximum(EPS_MEDIAN_SCALE * med, EPS_FLOOR)
            with np.errstate(divide="ignore"):
                plans, err, _, _, _ = sinkhorn_plans_batched(
                    np.log(a), np.log(b), cost, eps_arr, max_iter=max_iter, tol=tol)
            unconverged += int(np.count_nonzero(err > tol))
            vals = np.einsum("bcd,bcd->b", plans, cost)
        dist[si, sj] = dist[sj, si] = vals
    logger.debug("pairwise_wasserstein: %d pairs in %d chunks, unconverged %.4f",
                 pairs, -(-pairs // chunk), unconverged / max(pairs, 1))

    np.clip(dist, 0.0, None, out=dist)
    return DistanceMatrix(dist if u == n else dist[np.ix_(inverse, inverse)], tuple(ids))


def save_distance_csv(matrix: DistanceMatrix, path) -> None:
    """Debug dump: header row of ids, then one row per sample."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id"] + [str(i) for i in matrix.ids])
        for sample_id, row in zip(matrix.ids, matrix.entries):
            writer.writerow([str(sample_id)] + [f"{v:.9g}" for v in row])
