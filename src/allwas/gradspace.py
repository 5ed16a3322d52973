"""Gradient-space geometry for acquisition.

Each pool sample is a measure over its per-candidate-class gradients,
weighted by the predicted class probabilities. Their pairwise transport
distances form the matrix the submodular selector consumes; the caller
caps the pair count by subsampling (``strategies.acquire_allwas``). Two
functions build it:

- ``pairwise_w2_exact`` (W_2^2): exact, from the probabilities (N, C) and
  the head's ``w2`` alone. All pairs share one C x C class cost; a pivot
  walk finds the vertices of its transport dual once per call, and each
  entry is summed from the plan of the vertex that attains it (at C = 2
  for every pair of a block at once, blending the two vertices' plans).
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
    _DIFF_BYTES,
    _log_weights,
    checked_simplex,
    checked_weights,
    default_epsilon,
    sinkhorn_plans_batched,
)

logger = logging.getLogger(__name__)

# Byte budget for one chunk of pair problems (memory guard).
_CHUNK_BYTES = 64 * 2**20

# Cells of an (N, N) matrix that one block of row-blocked work covers: the
# exact matrix's blocks of pairs and the symmetry check's blocks of rows.
# An exact block's traced peak is 25-31 bytes per cell at C = 3-7 (its
# sort order, its entries, a byte-wide mask and one slice's plans), so at
# most about 0.36 MiB whatever N is; the two-class pass covers half as
# many cells a block, through buffers of 48 bytes a cell (0.28 MiB).
_BLOCK_CELLS = 12288


def _pairs_per_chunk(c: int) -> int:
    """Pairs whose working arrays fit in ``_CHUNK_BYTES``. Two
    ``_DIFF_BYTES`` go to one block of support differences and the supports
    gathered for it (``_pair_sq_distances``); the rest to, per pair, the
    (C, C) squared distances and cost, about ten (C, C) arrays for a
    Sinkhorn solve, and a few scalars."""
    per_pair = 8 * (12 * c * c + 8)
    return max(1, (_CHUNK_BYTES - 2 * _DIFF_BYTES) // per_pair)


def _pair_sq_distances(supports: np.ndarray, si: np.ndarray, sj: np.ndarray) -> np.ndarray:
    """Squared distances (P, C, C) between the support points of measures
    si[k] and sj[k] of supports (N, C, H), summed from their differences
    within ``_DIFF_BYTES`` a block of pairs at a time, so that close
    supports keep their digits."""
    _, c, h = supports.shape
    out = np.empty((len(si), c, c))
    step = max(1, _DIFF_BYTES // (8 * c * c * h))
    for lo in range(0, len(si), step):
        diff = supports[si[lo:lo + step], :, None] - supports[sj[lo:lo + step], None]
        np.einsum("pijh,pijh->pij", diff, diff, out=out[lo:lo + step])
    return out


@dataclass(frozen=True)
class DistanceMatrix:
    """Symmetric pairwise W_p^p matrix, finite with a zero diagonal, with
    a map back to sample ids."""

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
        # Compared in blocks of rows, through one buffer of about
        # _BLOCK_CELLS entries (one row at least). A non-finite entry gives
        # a NaN or infinite gap, which the max carries.
        step = max(1, _BLOCK_CELLS // max(n, 1))
        gap = np.empty((min(step, n), n))
        for r0 in range(0, n, step):
            block = gap[:min(step, n - r0)]
            with np.errstate(invalid="ignore"):  # inf - inf
                np.subtract(entries[r0:r0 + step], entries[:, r0:r0 + step].T, out=block)
            worst = np.abs(block, out=block).max()
            if not np.isfinite(worst):
                raise AllwasError("distance matrix has non-finite entries")
            if worst > 1e-6:
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
    # A stable sort of the rows puts each distinct row's copies together,
    # its first occurrence leading.
    order = np.lexsort(keys.T)
    ordered = keys[order]
    starts = np.ones(len(keys), dtype=bool)
    starts[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    first = order[starts]
    keep = np.sort(first)
    inverse = np.empty(len(keys), dtype=np.intp)
    inverse[order] = np.searchsorted(keep, first)[np.cumsum(starts) - 1]
    return keep, inverse


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
    least the exact W_p^p. The ground costs come from the supports'
    differences (``_pair_sq_distances``), not a Gram product, so
    close supports keep their digits.
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
    supports, weights = supports[keep], weights[keep]
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
        sq = _pair_sq_distances(supports, si, sj)
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


def _attaining_vertex(probs, f, g, r0: int, r1: int) -> np.ndarray:
    """For the pairs (i, j) of rows r0 <= i < r1 and columns j > r0, as an
    (r1 - r0, N - r0 - 1) array, the vertex k with the largest
    f_k . p_i + g_k . p_j, the first on ties, one vertex at a time."""
    # Row 0 of ``left`` holds f_k . p and row 1 of ``right`` g_k . p for
    # every row p, the other rows are ones, so the pair values are one
    # rank-2 product, each entry rounded once as the sum of the two is.
    # The products run over the whole pool, because BLAS rounds them by
    # row count: so the vertex chosen does not depend on the block.
    n = len(probs)
    left, right = np.ones((2, n)), np.ones((2, n))
    block = (left[:, r0:r1].T, right[:, r0 + 1:])
    top, value = np.empty((2, r1 - r0, n - r0 - 1))
    best = np.zeros(top.shape, dtype=np.min_scalar_type(len(f)))
    ahead = np.empty_like(best)
    for k in range(len(f)):
        np.matmul(probs, f[k], out=left[0])
        np.matmul(probs, g[k], out=right[1])
        np.matmul(*block, out=value if k else top)
        if k:
            # Vertices come in increasing k, so k is above every index
            # stored so far.
            np.greater(value, top, out=ahead)
            np.maximum(top, value, out=top)
            np.multiply(ahead, k, out=ahead)
            np.maximum(best, ahead, out=best)
    return best


def _exact_block(dist, probs, r0: int, r1: int, f, g, flows, gaps) -> None:
    """Write the entries of the pairs i < j with r0 <= i < r1 into both
    halves of ``dist`` (``pairwise_w2_exact``)."""
    # The block is the rectangle of rows [r0, r1) and columns (r0, N); its
    # pairs are the cells on or above its diagonal. They are grouped by the
    # vertex that attains their OT_D, the other cells by one past the last.
    width, c = len(probs) - r0 - 1, probs.shape[1]
    upper = np.arange(width) >= np.arange(r1 - r0)[:, None]
    best = _attaining_vertex(probs, f, g, r0, r1)
    best[~upper] = len(f)
    by_vertex = np.argsort(best, axis=None, kind="stable")
    bounds = np.searchsorted(best.ravel()[by_vertex], np.arange(len(f) + 1)).tolist()
    del best
    # A vertex's pairs go through its plan in slices, so their
    # (pairs, 2C - 1) temporaries stay a fraction of the block's working set
    # when one vertex takes most of the block; each slice's halved sums go
    # straight to their cells.
    entries = np.empty(upper.shape)
    below, beyond = probs[r0:], probs[r0 + 1:]
    step = max(1, _BLOCK_CELLS // 8)
    for k in np.flatnonzero(np.diff(bounds)).tolist():
        for lo in range(bounds[k], bounds[k + 1], step):
            cells = by_vertex[lo:min(lo + step, bounds[k + 1])]
            i = cells // width
            plan = below.take(i, axis=0) @ flows[k, :, :c].T
            plan += beyond.take(cells - i * width, axis=0) @ flows[k, :, c:].T
            entries.ravel()[cells] = np.einsum("ps,ps->p", plan @ gaps[k], plan) / 2
    np.copyto(dist[r0:r1, r0 + 1:], entries, where=upper)
    np.copyto(dist[r0 + 1:, r0:r1].T, entries, where=upper)


def _vertex_fill(dist, probs, f, g, flows, gaps) -> None:
    """Write every entry of ``dist`` (``pairwise_w2_exact``) through
    ``_exact_block``, in blocks of whole rows covering at most
    ``_BLOCK_CELLS`` cells of the upper triangle."""
    u, r0 = len(dist), 0
    while r0 < u - 1:
        r1 = min(u - 1, r0 + max(1, _BLOCK_CELLS // (u - r0 - 1)))
        _exact_block(dist, probs, r0, r1, f, g, flows, gaps)
        r0 = r1


def _two_class_fill(dist, probs, f, g, flows, gaps) -> None:
    """Write every entry of ``dist`` at C = 2 (``pairwise_w2_exact``), the
    same entries, bitwise, as ``_exact_block`` writes, without grouping the
    pairs by vertex.

    A two-class cost has at most two dual vertices, and ``gaps`` is the
    gap matrix their trees share. Each rectangle of rows [r0, r1) and
    columns (r0, N) is computed whole, as (3, rows, columns) planes:

    - the vertex values f_k . p_i + g_k . p_j are sums of one product per
      row and one per column, as ``_attaining_vertex`` forms them, and a
      pair takes vertex 1 where its value is strictly higher;
    - each edge's flow is its row's share plus its column's share (one of
      them a single probability, the other a probability or zero), so it
      rounds once, as a plan product does; the two vertices' flows are
      blended as v_0 (1 - s) + v_1 s with s = 0 or 1, which is exact;
    - the gap products are one BLAS product with ``gaps`` per block, each
      entry the same fused sum over the edges as a plan row's;
    - the three terms add up in the order ``_exact_block``'s einsum adds
      a plan row of three: the first and the third, then the second (the
      tests check the two paths' entries bitwise).

    Blocks cover at most half of ``_BLOCK_CELLS`` cells, so the two
    (3, cells) buffers that serve them all (48 bytes a cell) hold about
    0.28 MiB.
    """
    u, c = dist.shape[0], probs.shape[1]
    block = _BLOCK_CELLS // 2
    values = [(probs @ f[k], probs @ g[k]) for k in range(len(f))]
    shares = [(np.ascontiguousarray((probs @ flows[k, :, :c].T).T),
               np.ascontiguousarray((probs @ flows[k, :, c:].T).T)) for k in range(len(f))]
    plans, products = np.empty((2, 3 * max(block, u - 1)))
    r0 = 0
    while r0 < u - 1:
        r1 = min(u - 1, r0 + max(1, block // (u - r0 - 1)))
        rows, cols = slice(r0, r1), slice(r0 + 1, u)
        shape = (r1 - r0, u - r0 - 1)
        cells = shape[0] * shape[1]
        plan = plans[:3 * cells].reshape(3, *shape)
        terms = products[:3 * cells].reshape(3, cells)
        for s in range(3):
            np.add(shares[0][0][s, rows, None], shares[0][1][s, None, cols], out=plan[s])
        if len(values) == 2:
            # The vertex masks and the other vertex's flows use the
            # product buffer until the product is taken.
            second, first, other = terms.reshape(3, *shape)
            np.add(values[1][0][rows, None], values[1][1][None, cols], out=second)
            np.add(values[0][0][rows, None], values[0][1][None, cols], out=first)
            np.greater(second, first, out=second)
            np.subtract(1.0, second, out=first)
            for s in range(3):
                plan[s] *= first
                np.add(shares[1][0][s, rows, None], shares[1][1][s, None, cols], out=other)
                other *= second
                plan[s] += other
        plan = plan.reshape(3, cells)
        np.matmul(gaps.T, plan, out=terms)
        terms *= plan
        entries = plans[:cells]
        np.add(terms[0], terms[2], out=entries)
        entries += terms[1]
        entries /= 2
        entries = entries.reshape(shape)
        # The first r1 - r0 columns hold the block's diagonal: the cells on
        # and above it are pairs. The rest are all pairs.
        square = r1 - r0
        upper = np.arange(square) >= np.arange(square)[:, None]
        np.copyto(dist[rows, r0 + 1:r1 + 1], entries[:, :square], where=upper)
        np.copyto(dist[r0 + 1:r1 + 1, rows].T, entries[:, :square], where=upper)
        dist[rows, r1 + 1:] = entries[:, square:]
        dist[r1 + 1:, rows] = entries[:, square:].T
        r0 = r1


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
    apart. A ``w2`` whose class cost overflows is refused before the walk.

    The upper triangle is walked in blocks of whole rows covering at most
    ``_BLOCK_CELLS`` cells, and each block's entries go straight into both
    halves of the matrix, so the matrix is the only (N, N) array: the rest
    of the working set is one block's (a few dozen bytes per cell) and a
    few arrays per dual vertex (at most 924 of them). Beyond two classes a
    block groups its pairs by vertex (``_exact_block``); at C = 2 it blends
    the two vertices' plans for all its pairs at once (``_two_class_fill``),
    which gives the same entries bitwise in a third of the time.
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
    with np.errstate(over="ignore"):
        cost = (steps ** 2).sum(axis=1).reshape(c, c)
    if not np.all(np.isfinite(cost)):
        raise AllwasError("w2 is too large: its class cost ||u_c - u_c'||^2 overflows")
    f, g, edges, flows, walked = _dual_vertices(cost)
    # ||e_s - e_s'||^2 between the steps of each vertex's tree (K, 2C - 1, 2C - 1).
    gaps = np.stack([((steps[e, None] - steps[None, e]) ** 2).sum(axis=-1) for e in edges])
    logger.debug("pairwise_w2_exact: %d classes, %d dual vertices from %d trees%s",
                 c, len(f), walked, f", {u} rows in one blended pass" if c == 2 else "")

    dist = np.zeros((u, u))
    if c == 2:
        # Both two-class trees hold the diagonal edges, whose steps are 0,
        # and a third edge whose step is +-(u_0 - u_1), so they share
        # their gap matrix.
        _two_class_fill(dist, probs, f, g, flows, gaps[0])
    else:
        _vertex_fill(dist, probs, f, g, flows, gaps)
    return _expanded(dist, inverse, ids)
