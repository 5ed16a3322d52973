"""Gradient-space geometry for acquisition.

Each pool sample is represented by a discrete measure over its
per-candidate-class gradient vectors; the pairwise transport distances
between those measures form the matrix the submodular selector consumes.
Distances are computed once per acquisition round (the selector only
reads the matrix) and batched over pairs for speed. Capping the
quadratic pair count by subsampling the pool is the caller's job
(``strategies.acquire_allwas``).
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
    DiscreteMeasure,
    sinkhorn_plans_batched,
)

logger = logging.getLogger(__name__)

# Byte budget for one chunk of pair problems (memory guard).
_CHUNK_BYTES = 64 * 2**20


def _pairs_per_chunk(c: int, h: int) -> int:
    """Pairs whose working arrays fit in ``_CHUNK_BYTES``.

    Per pair: the two (C, H) support gathers plus one (C, H) square
    temporary, and about ten (C, C) float arrays (the einsum, the cost
    terms, the Sinkhorn kernel, its work buffer and the plans).
    """
    per_pair = 8 * (3 * c * h + 10 * c * c)
    return max(1, _CHUNK_BYTES // per_pair)


@dataclass(frozen=True)
class GradientMeasure:
    """Discrete measure whose support rows are per-class gradient vectors
    and whose weights are the predicted class probabilities."""

    measure: DiscreteMeasure

    @property
    def n_classes(self) -> int:
        return self.measure.n

    @property
    def grad_dim(self) -> int:
        return self.measure.dim

    @property
    def support(self) -> np.ndarray:
        return self.measure.support

    @property
    def weights(self) -> np.ndarray:
        return self.measure.weights


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
        if n and np.abs(entries - entries.T).max() > 1e-6:
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


def pairwise_wasserstein(
    grads,
    p: float = 2.0,
    eps: float | None = None,
    ids=None,
    max_iter: int = 300,
    tol: float = 1e-6,
) -> DistanceMatrix:
    """Symmetric matrix of Sinkhorn W_p^p values between gradient measures.

    ``eps=None`` adapts the regularization per pair (5% of that pair's
    median cost). Identical measures are detected exactly and get distance
    zero without iteration; the diagonal is forced to zero.
    """
    grads = list(grads)
    if not grads:
        raise AllwasError("no gradient measures given")
    if ids is None:
        ids = list(range(len(grads)))
    ids = list(ids)
    if len(ids) != len(grads):
        raise ShapeError("one id per measure", expected=len(grads), actual=len(ids))
    c = grads[0].n_classes
    h = grads[0].grad_dim
    for gm in grads:
        if gm.n_classes != c or gm.grad_dim != h:
            raise ShapeError("gradient measures must share class count and dimension",
                             expected=(c, h), actual=(gm.n_classes, gm.grad_dim))

    n = len(grads)
    supports = np.stack([gm.support for gm in grads])   # (n, C, H)
    weights = np.stack([gm.weights for gm in grads])    # (n, C)
    entries = np.zeros((n, n))
    iu, ju = np.triu_indices(n, k=1)
    if len(iu) == 0:
        return DistanceMatrix(entries, tuple(ids))

    with np.errstate(divide="ignore"):
        log_w = np.log(weights)

    chunk = _pairs_per_chunk(c, h)
    costs_out = np.empty(len(iu))
    unconverged = 0
    for start in range(0, len(iu), chunk):
        si, sj = iu[start:start + chunk], ju[start:start + chunk]
        xa, xb = supports[si], supports[sj]
        same = np.all(xa == xb, axis=(1, 2)) & np.all(weights[si] == weights[sj], axis=1)
        sq = (
            np.sum(xa * xa, axis=2)[:, :, None]
            + np.sum(xb * xb, axis=2)[:, None, :]
            - 2.0 * np.einsum("bch,bdh->bcd", xa, xb)
        )
        np.clip(sq, 0.0, None, out=sq)
        cost = sq if p == 2 else sq ** (p / 2.0)
        if eps is None:
            med = np.median(cost.reshape(len(si), -1), axis=1)
            eps_arr = np.maximum(EPS_MEDIAN_SCALE * med, EPS_FLOOR)
        else:
            eps_arr = np.full(len(si), float(eps))
        plans, err, _, _, _ = sinkhorn_plans_batched(
            log_w[si], log_w[sj], cost, eps_arr, max_iter=max_iter, tol=tol)
        unconverged += int(np.count_nonzero(err > tol))
        vals = np.einsum("bcd,bcd->b", plans, cost)
        vals[same] = 0.0
        costs_out[start:start + chunk] = vals
    logger.debug("pairwise_wasserstein: %d pairs in %d chunks, unconverged %.4f",
                 len(iu), -(-len(iu) // chunk), unconverged / len(iu))

    entries[iu, ju] = costs_out
    entries[ju, iu] = costs_out
    np.fill_diagonal(entries, 0.0)
    np.clip(entries, 0.0, None, out=entries)
    return DistanceMatrix(entries, tuple(ids))


def save_distance_csv(matrix: DistanceMatrix, path) -> None:
    """Debug dump: header row of ids, then one row per sample."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id"] + [str(i) for i in matrix.ids])
        for sample_id, row in zip(matrix.ids, matrix.entries):
            writer.writerow([str(sample_id)] + [f"{v:.9g}" for v in row])
