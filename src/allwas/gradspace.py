"""Gradient-space geometry for acquisition.

Each pool sample is a measure over its per-candidate-class gradients,
weighted by the predicted class probabilities. Their pairwise transport
distances form the matrix the submodular selector consumes; the caller
caps the pair count by subsampling (``strategies.acquire_allwas``). Two
functions build it:

- ``pairwise_w2_exact`` (W_2^2): exact, from the probabilities (N, C) and
  the head's ``w2`` alone. All pairs share one C x C class cost; a pivot
  walk finds the vertices of its transport dual once per call, and each
  entry is summed from the plan of the vertex that attains it.
- ``pairwise_wasserstein`` (any p): from the measures as arrays (supports
  (N, C, H), weights (N, C)) from ``model.gradient_arrays``; exact for
  C = 2, rounded Sinkhorn plans otherwise. It is the generic function and
  the exact path's test oracle.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .errors import AllwasError, ShapeError
from .transport import (
    _log_weights,
    _pairwise_sq,
    checked_simplex,
    checked_weights,
    default_epsilon,
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


def _distinct_rows(keys: np.ndarray):
    """The first occurrence of each distinct row of ``keys``, in order, and
    each row's index among them."""
    _, first, inverse = np.unique(keys, axis=0, return_index=True, return_inverse=True)
    keep = np.sort(first)
    return keep, np.searchsorted(keep, first[inverse.reshape(-1)])


def _expanded(dist: np.ndarray, inverse: np.ndarray, ids) -> DistanceMatrix:
    """The matrix over every input of the distances ``dist`` (u, u) between
    the distinct ones (``_distinct_rows``), floored at 0 in place."""
    np.maximum(dist, 0.0, out=dist)
    if len(ids) > len(dist):
        dist = dist[np.ix_(inverse, inverse)]
    return DistanceMatrix(dist, tuple(ids))


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
    ``eps`` (``None``: ``default_epsilon`` of the pair's cost) within ``max_iter``
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

    # Solve between distinct measures only.
    keep, inverse = _distinct_rows(np.concatenate([supports.reshape(n, -1), weights], axis=1))
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
            plans, err, _, _, _ = sinkhorn_plans_batched(
                _log_weights(a), _log_weights(b), cost,
                default_epsilon(cost) if eps is None else eps, max_iter=max_iter, tol=tol)
            unconverged += int(np.count_nonzero(err > tol))
            vals = np.einsum("bcd,bcd->b", plans, cost)
        dist[si, sj] = dist[sj, si] = vals
    logger.debug("pairwise_wasserstein: %d pairs in %d chunks, unconverged %.4f",
                 pairs, -(-pairs // chunk), unconverged / max(pairs, 1))
    return _expanded(dist, inverse, ids)


def _lexmin(rows: np.ndarray) -> int:
    """Index of the lexicographically smallest row of an integer matrix."""
    best = np.flatnonzero(rows[:, 0] == rows[:, 0].min())
    if len(best) > 1:
        best = best[np.lexsort(rows[best].T[::-1])]
    return int(best[0])


def _rooted(tree, c: int):
    """A spanning tree of K_{C,C} (rows are nodes 0..C-1, columns C..2C-1,
    edge i*C + j joins row i and column j): its nodes in breadth-first
    order from row 0, and each node's edge to its parent."""
    adjacent = [[] for _ in range(2 * c)]
    for e in tree:
        i, j = divmod(e, c)
        adjacent[i].append((c + j, e))
        adjacent[c + j].append((i, e))
    order, up = [0], [-1] * (2 * c)
    for node in order:
        for other, e in adjacent[node]:
            if other and up[other] < 0:
                up[other] = e
                order.append(other)
    return order, up


def _tree_duals(order, up, values: np.ndarray, c: int) -> np.ndarray:
    """Duals (2C, ...) with row 0's at 0 and f_i + g_j = values[i*C + j]
    on every edge of the rooted tree."""
    duals = np.zeros((2 * c,) + values.shape[1:], values.dtype)
    for node in order[1:]:
        i, j = divmod(up[node], c)
        duals[node] = values[up[node]] - duals[i if node >= c else c + j]
    return duals


def _dual_vertices(cost: np.ndarray):
    """The vertices of the dual polytope {f_i + g_j <= cost[i, j]} of C x C
    transport, normalised to f_0 = 0, and the number of spanning trees
    walked to find them. For marginals a and b, the exact transport cost
    is max_k f_k . a + g_k . b.

    A vertex is a spanning tree of K_{C,C} whose edges are tight. The walk
    runs on the cost perturbed by eps^(1 + i*C + j) at entry (i, j) for an
    infinitesimal eps, which is generic whatever the cost is, so its tight
    trees are the binom(2C - 2, C - 1) cells of one triangulation of the
    product of two simplices (Develin & Sturmfels 2004; De Loera, Rambau &
    Santos 2010). Slacks are integer vectors (the cost on a grid of 2^-50
    of its largest entry, then the eps coefficients) compared
    lexicographically, so every pivot is exact. A pivot is a dual simplex
    step: drop a tree edge, shift the duals of the side holding its row
    down until the first crossing edge goes tight, and add that edge.
    Each tree's duals are then evaluated on the unperturbed cost, and a
    vertex that several trees share is kept once, with its first tree.

    Returns f (K, C), g (K, C), each vertex's tree as edges i*C + j
    (K, 2C - 1), the flows (K, 2C - 1, 2C) that give the plan on those
    edges as flows @ [a, b], and the number of trees walked.
    """
    c = cost.shape[0]
    top = cost.max()
    grid = np.rint(cost * (2.0 ** 50 / top)) if top > 0 else np.zeros_like(cost)
    lifted = np.concatenate([grid.reshape(-1, 1).astype(np.int64),
                             np.eye(c * c, dtype=np.int64)], axis=1)
    flat = cost.ravel()
    signs = np.repeat([1.0, -1.0], c)

    # A first vertex: every row tight to column 0, then each later column
    # tight to the row of its smallest slack.
    f = lifted[::c] - lifted[0]
    start = [i * c for i in range(c)]
    start += [_lexmin(lifted[j::c] - f) * c + j for j in range(1, c)]
    queue = [frozenset(start)]
    seen = set(queue)
    vertices = {}
    never = np.iinfo(np.int64).max
    for tree in queue:
        order, up = _rooted(tree, c)
        below = np.eye(2 * c, dtype=bool)       # below[x]: x and its subtree
        for node in reversed(order[1:]):
            i, j = divmod(up[node], c)
            below[i if node >= c else c + j] |= below[node]
        # Cutting the edge from node q to its parent leaves two sides;
        # side[q] is the one holding the edge's row.
        nodes = np.array(order[1:])
        side = below[nodes] ^ (nodes >= c)[:, None]
        duals = _tree_duals(order, up, lifted, c)
        key = duals[:, 0].tobytes()
        if key not in vertices:
            # The edge carries the row side's mass less its columns' mass,
            # or, in fewer terms, the same from the other side.
            small = side.sum(axis=1) <= c
            flows = np.where(small[:, None], side, ~side) * signs
            flows[~small] *= -1.0
            vertices[key] = (_tree_duals(order, up, flat, c),
                             [up[q] for q in order[1:]], flows)
        # One pivot per tree edge: the entering edge leaves the other
        # side's rows for this side's columns.
        slack = lifted - (duals[:c, None] + duals[None, c:]).reshape(c * c, -1)
        crossing = (~side[:, :c, None] & side[:, None, c:]).reshape(len(nodes), -1)
        first = np.where(crossing, slack[:, 0], never)
        low = first.min(axis=1)
        for q, enter in enumerate(first.argmin(axis=1)):
            if low[q] == never:
                continue                        # an unbounded edge
            tied = np.flatnonzero(first[q] == low[q])
            if len(tied) > 1:
                enter = tied[_lexmin(slack[tied])]
            step = tree - {up[nodes[q]]} | {int(enter)}
            if step not in seen:
                seen.add(step)
                queue.append(step)
    duals, edges, flows = zip(*vertices.values())
    duals = np.stack(duals)
    return (duals[:, :c], duals[:, c:], np.array(edges, dtype=np.intp).reshape(len(duals), -1),
            np.stack(flows), len(queue))


def _attaining_vertex(probs, f, g, rows, cols) -> np.ndarray:
    """For each pair (rows[p], cols[p]), the vertex k with the largest
    f_k . p_row + g_k . p_col, one vertex at a time."""
    top = np.take(probs @ f[0], rows) + np.take(probs @ g[0], cols)
    best = np.zeros(len(rows), dtype=np.min_scalar_type(len(f) - 1))
    for k in range(1, len(f)):
        value = np.take(probs @ f[k], rows)
        value += np.take(probs @ g[k], cols)
        np.copyto(best, k, where=value > top)
        np.maximum(top, value, out=top)
    return best


def pairwise_w2_exact(probs, w2, ids=None) -> DistanceMatrix:
    """Exact W_2^2 matrix between the gradient measures of N samples under
    one head, from their class probabilities (N, C) and the head's
    last-layer weights ``w2`` (H, C), without building the measures.

    Sample n's measure puts mass p_n[c] on t_n - u_c, with u_c column c of
    ``w2`` and t_n = sum_c p_n[c] u_c (``model.gradient_arrays``). Every
    coupling of two such measures moves them by t_n - t_m on average, so
    W_2^2(mu_n, mu_m) = OT_D(p_n, p_m) - ||t_n - t_m||^2, where the class
    cost D[c, c'] = ||u_c - u_c'||^2 is shared by every pair. OT_D is a max
    over the vertices of D's transport dual (``_dual_vertices``), so a pass
    over the vertices finds the one that attains it for each pair. The
    entry is then summed from the plan on that vertex's tree, with flows
    pi_s on its edges and steps e_s = u_i - u_j, as the variance of the
    steps under the plan (their mean is t_n - t_m):
    sum over s < s' of pi_s pi_s' ||e_s - e_s'||^2. Its terms are
    nonnegative, where OT_D - ||t_n - t_m||^2 loses digits to cancellation
    when most of the mass moves. Duplicate probability rows lie exactly 0
    apart, and the working set is a few (N, N) arrays.
    """
    probs = np.asarray(probs, dtype=np.float64)
    w2 = np.asarray(w2, dtype=np.float64)
    if probs.ndim != 2 or probs.shape[0] == 0:
        raise ShapeError("probs must be a non-empty (N, C) matrix", actual=probs.shape)
    n, c = probs.shape
    if w2.ndim != 2 or w2.shape[1] != c:
        raise ShapeError("w2 must be (H, C)", expected=f"(H, {c})", actual=w2.shape)
    if not np.all(np.isfinite(w2)):
        raise AllwasError("w2 contains non-finite entries")
    probs = checked_simplex(probs)
    ids = list(range(n)) if ids is None else list(ids)
    if len(ids) != n:
        raise ShapeError("one id per row", expected=n, actual=len(ids))

    keep, inverse = _distinct_rows(probs)
    probs = probs[keep]
    u = len(keep)
    steps = (w2.T[:, None, :] - w2.T[None, :, :]).reshape(c * c, -1)
    f, g, edges, flows, walked = _dual_vertices((steps ** 2).sum(axis=1).reshape(c, c))
    logger.debug("pairwise_w2_exact: %d classes, %d dual vertices from %d trees",
                 c, len(f), walked)

    # The pairs n < m, sorted by the vertex that attains their OT_D.
    rows, cols = np.triu_indices(u, 1)
    best = _attaining_vertex(probs, f, g, rows, cols)
    by_vertex = np.argsort(best, kind="stable")
    rows, cols = np.take(rows, by_vertex), np.take(cols, by_vertex)
    bounds = np.searchsorted(np.take(best, by_vertex), np.arange(len(f) + 1))
    del best, by_vertex

    # Each pair from its vertex's plan, in slices of about (N, N) floats.
    entries = np.empty(len(rows))
    width = max(1, u * u // (4 * edges.shape[1]))
    for k in range(len(f)):
        gaps = ((steps[edges[k], None] - steps[None, edges[k]]) ** 2).sum(axis=-1)
        out_flow, in_flow = probs @ flows[k, :, :c].T, probs @ flows[k, :, c:].T
        for lo in range(bounds[k], bounds[k + 1], width):
            hi = min(lo + width, bounds[k + 1])
            plan = np.take(out_flow, rows[lo:hi], axis=0)
            plan += np.take(in_flow, cols[lo:hi], axis=0)
            entries[lo:hi] = np.einsum("ps,ps->p", plan @ gaps, plan) / 2
    dist = np.zeros((u, u))
    np.put(dist, rows * u + cols, entries)
    np.put(dist, cols * u + rows, entries)
    return _expanded(dist, inverse, ids)

