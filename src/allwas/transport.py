"""Discrete optimal transport over weighted point clouds.

Provides Euclidean ground costs, entropically regularized transport plans
via log-domain Sinkhorn iterations (stable for small regularization), and
free-support barycenters computed by fixed-point iteration.

All costs are reported as W_p^p (no p-th root); callers needing the
distance proper take the root themselves. Barycenters are W_2^2 only: their
barycentric-projection update is the fixed point of the squared Euclidean
cost.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import AllwasError, ConfigError, ShapeError, check_simplex

logger = logging.getLogger(__name__)

EPS_FLOOR = 1e-6
EPS_MEDIAN_SCALE = 0.05
# Barycenter fixed points use tighter regularization: the objective-descent
# contract needs update plans close to exact transport.
BARY_EPS_SCALE = 0.01
# A barycenter stops early once no support row moves by this much.
_DISPLACEMENT_TOL = 1e-7
# Sinkhorn materialises plans for its marginal check every this many sweeps.
_CHECK_EVERY = 10


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------


def checked_weights(support: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Weights (..., n) of supports (..., n, d), clipped at 0, once the
    support is finite and every weight row is a probability vector
    (``checked_simplex``); an AllwasError otherwise."""
    if not np.all(np.isfinite(support)):
        raise AllwasError("measure support contains non-finite coordinates")
    if weights.shape != support.shape[:-1]:
        raise ShapeError("weights must match support rows",
                         expected=support.shape[:-1], actual=weights.shape)
    return checked_simplex(weights)


def checked_simplex(weights: np.ndarray) -> np.ndarray:
    """Weights (..., n), clipped at 0, once every row passes
    ``errors.check_simplex``; an AllwasError otherwise."""
    check_simplex(weights, AllwasError, "measure weights")
    return np.clip(weights, 0.0, None)


@dataclass(frozen=True)
class DiscreteMeasure:
    """Weighted point cloud in R^d: support (n, d) and weights summing to 1."""

    support: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        support = np.asarray(self.support, dtype=np.float64)
        if support.ndim == 1:
            support = support[:, None]
        if support.ndim != 2 or support.shape[0] < 1:
            raise ShapeError("measure support must be a non-empty (n, d) matrix",
                             expected="(n, d)", actual=support.shape)
        weights = checked_weights(support, np.asarray(self.weights, dtype=np.float64).ravel())
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "weights", weights)

    @property
    def n(self) -> int:
        return self.support.shape[0]

    @property
    def dim(self) -> int:
        return self.support.shape[1]

    @classmethod
    def uniform(cls, support) -> "DiscreteMeasure":
        n = len(support)
        return cls(support, np.full(n, 1.0 / n))

    @classmethod
    def dirac(cls, point) -> "DiscreteMeasure":
        return cls(np.atleast_2d(np.asarray(point, dtype=np.float64)), np.array([1.0]))


@dataclass(frozen=True)
class TransportPlan:
    """Coupling between two measures plus its transport cost W_p^p."""

    coupling: np.ndarray
    cost: float
    converged: bool
    iterations: int

    def marginal_violation(self, a: DiscreteMeasure, b: DiscreteMeasure) -> float:
        row = np.abs(self.coupling.sum(axis=1) - a.weights).max()
        col = np.abs(self.coupling.sum(axis=0) - b.weights).max()
        return float(max(row, col))


# ---------------------------------------------------------------------------
# Ground cost
# ---------------------------------------------------------------------------


def _check_pair(a: DiscreteMeasure, b: DiscreteMeasure) -> None:
    if a.dim != b.dim:
        raise ShapeError("measures live in different dimensions",
                         expected=a.dim, actual=b.dim)


def _pairwise_sq(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between rows of x and rows of y."""
    sq = (
        np.sum(x * x, axis=-1)[..., :, None]
        + np.sum(y * y, axis=-1)[..., None, :]
        - 2.0 * (x @ np.swapaxes(y, -1, -2))
    )
    return np.clip(sq, 0.0, None)


def ground_cost(a: DiscreteMeasure, b: DiscreteMeasure, p: float = 2.0) -> np.ndarray:
    """Matrix (n, m) of ||x_j - y_k||_2^p between the two supports."""
    _check_pair(a, b)
    if p < 1:
        raise ConfigError(f"ground cost order p must be >= 1 (got {p})")
    sq = _pairwise_sq(a.support, b.support)
    return sq if p == 2 else sq ** (p / 2.0)


def default_epsilon(cost: np.ndarray, scale: float = EPS_MEDIAN_SCALE):
    """Scale-adaptive entropic regularization of each cost matrix in the
    last two axes: ``scale`` times its median cost, floored at
    ``EPS_FLOOR``. NaN cells (padding) stay out of the median. A (n, m)
    matrix gives a scalar, a (B, n, m) batch a (B,) array."""
    cost = np.asarray(cost)
    med = np.nanmedian(cost.reshape(cost.shape[:-2] + (-1,)), axis=-1)
    return np.maximum(scale * med, EPS_FLOOR)


# ---------------------------------------------------------------------------
# Log-domain Sinkhorn (batched core)
# ---------------------------------------------------------------------------


# Floor for exp() arguments in the Sinkhorn kernel. numpy's vectorised exp
# drops to a scalar path, several times slower, for -inf arguments and for
# arguments whose result underflows (below about -708). A floored term is
# under e^-700 < 1e-304.
_EXP_FLOOR = -700.0


def _sum_lead(x: np.ndarray, axis: int) -> np.ndarray:
    """Sum of a batch-last array over a leading axis, in index order.

    Every batch lane gets the same sequence of additions whatever the batch
    size, so a problem's result does not depend on the batch it sits in.
    """
    parts = x.swapaxes(0, axis)
    acc = parts[0].copy()
    for part in parts[1:]:
        acc += part
    return acc


def _lse_lead(work: np.ndarray, axis: int) -> np.ndarray:
    """Log-sum-exp of a batch-last array over a leading axis; overwrites
    ``work``. A slice that is all -inf (zero-weight padding) gives -inf."""
    top = work.max(axis=axis)
    finite = np.isfinite(top)
    shift = np.where(finite, top, 0.0)
    np.subtract(work, np.expand_dims(shift, axis), out=work)
    np.maximum(work, _EXP_FLOOR, out=work)
    np.exp(work, out=work)
    out = np.log(_sum_lead(work, axis))
    out += shift
    out[~finite] = -np.inf
    return out


def _marginal_error(plans: np.ndarray, a_w: np.ndarray, b_w: np.ndarray) -> np.ndarray:
    """Per-lane max marginal violation of batch-last plans (n, m, B)."""
    row_err = np.abs(_sum_lead(plans, 1) - a_w).max(axis=0)
    col_err = np.abs(_sum_lead(plans, 0) - b_w).max(axis=0)
    return np.maximum(row_err, col_err)


def _round_to_polytope(plans: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Rescale rows/cols below their marginals, then patch the deficit
    with a rank-one correction; the result satisfies both marginals exactly
    up to float roundoff. Batch-last: plans (n, m, B), a (n, B), b (m, B)."""
    row = _sum_lead(plans, 1)
    x = np.where(row > 0, np.minimum(a / np.where(row > 0, row, 1.0), 1.0), 1.0)
    plans = plans * x[:, None, :]
    col = _sum_lead(plans, 0)
    y = np.where(col > 0, np.minimum(b / np.where(col > 0, col, 1.0), 1.0), 1.0)
    plans = plans * y[None, :, :]
    err_a = np.clip(a - _sum_lead(plans, 1), 0.0, None)
    err_b = np.clip(b - _sum_lead(plans, 0), 0.0, None)
    deficit = _sum_lead(err_a, 0)
    scale = np.where(deficit > 0, 1.0 / np.where(deficit > 0, deficit, 1.0), 0.0)
    return plans + err_a[:, None, :] * err_b[None, :, :] * scale


def sinkhorn_plans_batched(
    log_a: np.ndarray,
    log_b: np.ndarray,
    cost: np.ndarray,
    eps,
    max_iter: int = 1000,
    tol: float = 1e-6,
    f_init: np.ndarray | None = None,
    g_init: np.ndarray | None = None,
):
    """Solve a batch of entropic OT problems in the log domain.

    log_a: (B, n) log source weights, -inf marking padded atoms.
    log_b: (B, m) log target weights.
    cost:  (B, n, m) ground costs (finite; padded entries arbitrary finite).
    eps:   scalar or (B,) regularization strengths.

    ``f_init``/``g_init`` warm-start the dual potentials, useful when
    re-solving a slightly perturbed problem (barycenter fixed points).

    Internally the batch is the last, contiguous axis: the kernel is held
    as (n, m, B) and the potentials as (n, B) and (m, B), so each
    half-iteration's log-sum-exp reduces over a leading axis and runs
    numpy's inner loops along the batch rather than along 2-12-atom rows.
    Each half-iteration writes into one work buffer per solve, remade only
    when converged problems leave the active set. Sums run in index order
    per lane, so a problem's result does not depend on its batch.

    Arguments of exp() are floored at -700 (numpy's exp is several times
    slower on -inf and on arguments that underflow). Inside a log-sum-exp
    every slice is shifted by its max, so it holds a term e^0 = 1 and the
    floored terms, each below 1e-304, do not change the sum; an all -inf
    slice still gives -inf. When a plan is materialised, cells below the
    floor are set to exactly 0, so padded cells are exact zeros.

    Every returned plan is the lane's last iterate projected onto the
    transport polytope (Altschuler et al. 2017), so it meets both marginals
    to machine precision however early the lane stopped. The violations
    describe the solve: each is the lane's marginal error when it stopped,
    measured before that rounding, so a lane above ``tol`` ran out of
    ``max_iter``.

    Returns (plans (B, n, m), violations (B,), iterations, f, g).
    """
    log_a = np.asarray(log_a, dtype=np.float64)
    log_b = np.asarray(log_b, dtype=np.float64)
    cost = np.asarray(cost, dtype=np.float64)
    nbatch, n, m = cost.shape
    eps_b = np.broadcast_to(np.asarray(eps, dtype=np.float64).reshape(-1), (nbatch,))
    if np.any(eps_b <= 0):
        raise ConfigError("entropic regularization eps must be positive")

    kern = np.empty((n, m, nbatch))
    np.divide(cost.transpose(1, 2, 0), -eps_b, out=kern)
    plans_out = np.zeros_like(kern)
    err_out = np.full(nbatch, np.inf)
    la, lb = np.ascontiguousarray(log_a.T), np.ascontiguousarray(log_b.T)
    a_w, b_w = np.exp(la), np.exp(lb)
    # Potentials are carried in eps-scaled form (f / eps); warm starts and
    # returns use the same convention. A cold start gives padded target
    # atoms -inf, so padding does not enter even the first half-iteration.
    u_out = np.zeros((n, nbatch)) if f_init is None else np.array(f_init, dtype=np.float64).T
    v_out = (np.where(np.isfinite(lb), 0.0, -np.inf) if g_init is None
             else np.array(g_init, dtype=np.float64).T)

    # Active-set working copies: converged problems are frozen and dropped
    # from subsequent sweeps so slow stragglers do not cost the whole batch.
    active = np.arange(nbatch)
    u, v = u_out.copy(), v_out.copy()
    work = np.empty_like(kern)

    it = 0
    while it < max_iter and active.size:
        it += 1
        np.add(kern, v[None, :, :], out=work)
        u = la - _lse_lead(work, axis=1)
        np.add(kern, u[:, None, :], out=work)
        v = lb - _lse_lead(work, axis=0)
        # Marginal checks materialize the plan; only do so periodically.
        if it % _CHECK_EVERY == 0 or it == max_iter:
            np.add(kern, u[:, None, :], out=work)
            work += v[None, :, :]
            below = work < _EXP_FLOOR
            np.maximum(work, _EXP_FLOOR, out=work)
            np.exp(work, out=work)
            np.copyto(work, 0.0, where=below)
            err = _marginal_error(work, a_w, b_w)
            done = err < tol
            if it == max_iter:
                done = np.ones_like(done)
            if np.any(done):
                idx = active[done]
                plans_out[:, :, idx] = work[:, :, done]
                err_out[idx] = err[done]
                u_out[:, idx] = u[:, done]
                v_out[:, idx] = v[:, done]
                keep = ~done
                active = active[keep]
                # compress() keeps the batch axis contiguous; fancy indexing
                # on the last axis would not.
                kern, la, lb, a_w, b_w, u, v = (
                    np.compress(keep, x, axis=-1) for x in (kern, la, lb, a_w, b_w, u, v))
                work = np.empty_like(kern)

    plans_out = _round_to_polytope(plans_out, np.exp(log_a.T), np.exp(log_b.T))
    return (np.ascontiguousarray(plans_out.transpose(2, 0, 1)), err_out, it,
            np.ascontiguousarray(u_out.T), np.ascontiguousarray(v_out.T))


def _log_weights(weights: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.log(weights)


def sinkhorn_distance(
    a: DiscreteMeasure,
    b: DiscreteMeasure,
    p: float = 2.0,
    eps: float | None = None,
    max_iter: int = 1000,
    tol: float = 1e-6,
) -> TransportPlan:
    """Entropically regularized optimal transport between two measures.

    Returns the coupling P_eps that minimises <C, P> - eps*H(P) and its sharp
    transport cost <C, P_eps> (entropy term excluded, no 1/p root).
    ``eps=None`` picks the scale-adaptive default.

    The cost is the entropic plan's, not the exact W_p^p: for a converged,
    feasible plan it sits above W_p^p by at most eps*(H(P_eps) - H(P*)),
    which is at most eps*log(n*m), and at most eps*log(n) for uniform
    measures of equal size n (an optimal plan is then a permutation).

    The coupling is always feasible: ``sinkhorn_plans_batched`` rounds it
    onto the transport polytope. ``converged`` says whether the solve
    reached ``tol`` before that rounding, within ``max_iter`` iterations.

    Two exact shortcuts bypass the iteration: identical measures (identity
    coupling, zero cost) and single-atom measures, whose coupling is forced
    by the marginal constraints.
    """
    cost = ground_cost(a, b, p)
    if eps is not None and eps <= 0:
        raise ConfigError(f"eps must be positive (got {eps})")
    if not np.all(np.isfinite(cost)):
        raise AllwasError("non-finite cost entries")

    if (
        a.support.shape == b.support.shape
        and np.array_equal(a.support, b.support)
        and np.array_equal(a.weights, b.weights)
    ):
        coupling = np.diag(a.weights)
        return TransportPlan(coupling, 0.0, converged=True, iterations=0)

    if a.n == 1 or b.n == 1:
        coupling = np.outer(a.weights, b.weights)
        return TransportPlan(coupling, float(np.sum(coupling * cost)),
                             converged=True, iterations=0)

    if eps is None:
        eps = default_epsilon(cost)
    plans, err, iters, _, _ = sinkhorn_plans_batched(
        _log_weights(a.weights)[None, :],
        _log_weights(b.weights)[None, :],
        cost[None, :, :],
        eps,
        max_iter=max_iter,
        tol=tol,
    )
    coupling = plans[0]
    return TransportPlan(
        coupling,
        float(np.sum(coupling * cost)),
        converged=bool(err[0] <= tol),
        iterations=iters,
    )


# ---------------------------------------------------------------------------
# Free-support barycenters
# ---------------------------------------------------------------------------


def barycenter_support_size(sizes, lambdas) -> int:
    """Support size for a barycenter of point clouds: round(sum lambda_i n_i).

    Ties round half to even; result is at least 1.
    """
    total = float(np.dot(np.asarray(lambdas, dtype=np.float64),
                         np.asarray(sizes, dtype=np.float64)))
    return max(1, int(np.rint(total)))


def wasserstein_barycenter(
    measures,
    lambdas,
    support_size: int | None = None,
    outer_iter: int = 10,
    sinkhorn_max_iter: int = 2000,
    sinkhorn_tol: float = 1e-9,
    trace: list | None = None,
) -> DiscreteMeasure:
    """Free-support barycenter minimizing sum_i lambda_i W_2^2(mu, nu_i).

    The one-group case of :func:`wasserstein_barycenter_batch`, except that
    each input keeps its own weights instead of uniform ones. The returned
    measure is uniform over ``support_size`` rows (default
    :func:`barycenter_support_size`). When ``trace`` is a list, the weighted
    plan costs are appended as floats.
    """
    measures = list(measures)
    if len(measures) < 2:
        raise ConfigError("barycenter needs at least two measures")
    lambdas = np.asarray(lambdas, dtype=np.float64).ravel()
    if lambdas.shape[0] != len(measures):
        raise ShapeError("one lambda per measure", expected=len(measures),
                         actual=lambdas.shape[0])
    if support_size is None:
        support_size = barycenter_support_size([m.n for m in measures], lambdas)

    objectives = None if trace is None else []
    support = _barycenter_fixed_point(
        [[m.support for m in measures]], [[m.weights for m in measures]],
        lambdas[None, :], [support_size], outer_iter,
        sinkhorn_max_iter, sinkhorn_tol, objectives, BARY_EPS_SCALE,
    )[0]
    if trace is not None:
        trace.extend(float(obj[0]) for obj in objectives)
    return DiscreteMeasure.uniform(support)


def wasserstein_barycenter_batch(
    groups,
    lambdas: np.ndarray,
    support_sizes,
    outer_iter: int = 10,
    sinkhorn_max_iter: int = 2000,
    sinkhorn_tol: float = 1e-9,
    trace: list | None = None,
    eps_scale: float = BARY_EPS_SCALE,
):
    """Free-support barycenters of many uniform point-cloud groups at once.

    groups: length-B list of length-g lists of (n, d) support arrays, each
    treated as a uniform measure (token clouds). lambdas: (B, g) simplex
    rows. support_sizes: length-B target sizes. Returns a length-B list of
    (s_b, d) supports, each to be read as a uniform measure. Each group
    minimizes sum_i lambda_i W_2^2(mu, nu_i).

    Fixed-point iteration (Cuturi & Doucet 2014): Sinkhorn couplings from
    the current support to every member, then a support update by
    lambda-weighted barycentric projection. That update is the fixed point
    of the squared Euclidean cost (Agueh & Carlier 2011), so the ground
    cost is W_2^2 only; under another order it can raise the objective.
    A group's support starts from a copy of its dominant member (largest
    lambda, ties to the lowest index), cycled to ``s_b`` rows. Member i of
    group b is lane b*g + i of one zero-weight-padded stack, so a pass is
    one Sinkhorn call for the whole batch.

    Regularization is resolved once per member at the initial support and
    held fixed: ``eps_scale`` times the median cost, by default a tighter
    fraction than plain distances use so the update plans stay near-exact.
    Successive solves warm-start from the member's previous potentials. A
    member with uniform weights that equals the current support exactly
    gets the identity coupling, keeping barycenters of identical clouds
    exact. A group stops once no coordinate of its support moves by 1e-7,
    while the rest of the batch moves on, so each group's barycenter is
    that of its solo solve. When ``trace`` is a list, a (B,) array of
    weighted plan costs is appended at the initial supports and after every
    outer iteration (a stopped group repeats its last value); it is
    non-increasing up to small entropic slack.

    Raises ConfigError when a lambda row is off the simplex or a support
    size is below 1, and ShapeError when the shapes disagree or the
    members are not (n, d) matrices of one dimension d.
    """
    return _barycenter_fixed_point(
        groups, None, lambdas, support_sizes, outer_iter,
        sinkhorn_max_iter, sinkhorn_tol, trace, eps_scale)


def _barycenter_fixed_point(groups, weights, lambdas, support_sizes, outer_iter,
                            sinkhorn_max_iter, sinkhorn_tol, trace, eps_scale):
    """The fixed point behind both barycenter functions, and the one place
    their inputs are checked. ``weights`` is None (uniform members) or, like
    ``groups``, a B x g nesting of weight vectors."""
    B = len(groups)
    if B == 0:
        return []
    g = len(groups[0])
    lambdas = np.asarray(lambdas, dtype=np.float64)
    if lambdas.shape != (B, g) or any(len(group) != g for group in groups):
        raise ShapeError("lambdas must be (groups, members) with g members in every group",
                         expected=(B, g), actual=lambdas.shape)
    check_simplex(lambdas, ConfigError, "lambdas")
    lambdas = np.clip(lambdas, 0.0, None)
    sizes = np.asarray(support_sizes, dtype=np.int64)
    if sizes.shape != (B,):
        raise ShapeError("one support size per group", expected=(B,), actual=sizes.shape)
    if np.any(sizes < 1):
        raise ConfigError("support_size must be >= 1")
    members = [m for group in groups for m in group]
    dim = members[0].shape[-1]
    for m in members:
        if m.shape[1:] != (dim,):
            raise ShapeError("measures live in different dimensions",
                             expected=f"(n, {dim})", actual=m.shape)
    s_max = int(sizes.max())

    # Padded barycenter state: invalid rows carry zero weight, so their plan
    # rows and updates are zero and they stay at zero.
    supports = np.zeros((B, s_max, dim))
    for b, group in enumerate(groups):
        base = group[int(np.argmax(lambdas[b]))]
        supports[b, : sizes[b]] = base[np.arange(sizes[b]) % base.shape[0]]

    # Member i of group b is lane b*g + i of one stack padded to the largest
    # token count. Members with exactly uniform weights keep -log(count).
    member_w = [w for ws in weights for w in ws] if weights is not None else [None] * B * g
    counts = np.array([m.shape[0] for m in members])
    X = np.zeros((B * g, int(counts.max()), dim))
    log_w = np.full(X.shape[:2], -np.inf)
    uniform = np.ones(B * g, dtype=bool)
    for lane, (m, w) in enumerate(zip(members, member_w)):
        n = counts[lane]
        X[lane, :n] = m
        uniform[lane] = w is None or np.array_equal(w, np.full(n, 1.0 / n))
        log_w[lane, :n] = -np.log(n) if uniform[lane] else _log_weights(w)
    lane_sizes = np.repeat(sizes, g)
    bary_rows = np.arange(s_max) < lane_sizes[:, None]
    log_bary_w = np.where(bary_rows, -np.log(lane_sizes)[:, None], -np.inf)
    # A lane gets the identity coupling when it is uniform over as many
    # tokens as its support has rows and equals it (padding is zero on both).
    identity_ok = uniform & (counts == lane_sizes)
    width = min(s_max, X.shape[1])
    # eps is resolved per lane at the initial support, then held fixed. The
    # potentials start cold, as in the core, and warm-start the next pass.
    valid = bary_rows[:, :, None] & (np.arange(X.shape[1]) < counts[:, None])[:, None, :]
    cost = np.where(valid, _pairwise_sq(np.repeat(supports, g, axis=0), X), np.nan)
    eps = default_epsilon(cost, eps_scale)
    warm_f = np.zeros(log_bary_w.shape)
    warm_g = np.where(np.isfinite(log_w), 0.0, -np.inf)

    # A group is solved while it moves, plus (when tracing) one objective
    # pass at its returned support; it stops on its own step alone.
    moving = np.ones(B, dtype=bool)
    needed = moving.copy()
    obj = np.zeros(B)
    for it in range(outer_iter + 1):
        moving &= it < outer_iter
        grp = np.flatnonzero(moving if trace is None else needed)
        if grp.size == 0:
            break
        lanes = (grp[:, None] * g + np.arange(g)).ravel()
        S, Xl = np.repeat(supports[grp], g, axis=0), X[lanes]
        cost = _pairwise_sq(S, Xl)
        plans, err, _, warm_f[lanes], warm_g[lanes] = sinkhorn_plans_batched(
            log_bary_w[lanes], log_w[lanes], cost, eps[lanes],
            max_iter=sinkhorn_max_iter, tol=sinkhorn_tol,
            f_init=warm_f[lanes], g_init=warm_g[lanes],
        )
        same = identity_ok[lanes] & np.all(S[:, :width] == Xl[:, :width], axis=(1, 2))
        plans[same] = np.eye(s_max, X.shape[1]) * np.exp(log_bary_w[lanes[same], :, None])
        logger.debug("barycenter pass %d: %d of %d member solves above tol",
                     it, np.count_nonzero(err > sinkhorn_tol), lanes.size)
        # Sums over members run in member order, as a loop over members would.
        lam = lambdas[grp]
        obj[grp] = _sum_lead(lam * np.einsum("lsn,lsn->l", plans, cost).reshape(-1, g), 1)
        if trace is not None:
            trace.append(obj.copy())
        row_mass = plans.sum(axis=2, keepdims=True)
        cond_mean = (plans @ Xl) / np.where(row_mass > 0, row_mass, 1.0)
        new = _sum_lead(lam[:, :, None, None] * cond_mean.reshape(-1, g, s_max, dim), 1)
        moves = moving[grp]
        needed = moving.copy()
        moving[grp] &= ~(np.abs(new - supports[grp]).max(axis=(1, 2)) < _DISPLACEMENT_TOL)
        supports[grp[moves]] = new[moves]

    return [supports[b, : sizes[b]].copy() for b in range(B)]
