import logging
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from allwas import transport
from allwas.barysample import AUG_EPS_SCALE, AUG_SINKHORN_TOL, AugmentationConfig
from allwas.errors import AllwasError, ConfigError, ShapeError
from allwas.transport import (
    DiscreteMeasure,
    barycenter_support_size,
    default_epsilon,
    ground_cost,
    sinkhorn_distance,
    sinkhorn_plans_batched,
    wasserstein_barycenter,
    wasserstein_barycenter_batch,
)
from conftest import random_measure
from oracles import exact_distance_oracle


class TestGroundCost:
    def test_single_pair_euclidean(self):
        a = DiscreteMeasure.dirac([0.0])
        b = DiscreteMeasure.dirac([3.0])
        cost = ground_cost(a, b, p=2)
        assert cost.shape == (1, 1)
        assert cost[0, 0] == pytest.approx(9.0, abs=1e-12)

    def test_identity_zero_diagonal(self, rng):
        a = random_measure(rng, 5, 3)
        cost = ground_cost(a, a, p=2)
        assert np.all(np.abs(np.diag(cost)) < 1e-12)

    def test_matches_double_loop(self, rng):
        a = random_measure(rng, 3, 2)
        b = random_measure(rng, 3, 2)
        for p in (1.0, 2.0, 3.0):
            cost = ground_cost(a, b, p=p)
            expected = np.empty((3, 3))
            for j in range(3):
                for k in range(3):
                    expected[j, k] = np.linalg.norm(a.support[j] - b.support[k]) ** p
            np.testing.assert_allclose(cost, expected, rtol=1e-10, atol=1e-12)

    def test_dimension_mismatch_names_both(self, rng):
        a = random_measure(rng, 3, 2)
        b = random_measure(rng, 3, 4)
        with pytest.raises(ShapeError, match=r"2.*4"):
            ground_cost(a, b)

    def test_p_below_one_rejected(self, rng):
        a = random_measure(rng, 2, 2)
        with pytest.raises(ConfigError):
            ground_cost(a, a, p=0.5)


class TestMeasureValidation:
    def test_weights_must_normalize(self):
        with pytest.raises(AllwasError):
            DiscreteMeasure(np.zeros((2, 1)), np.array([0.6, 0.6]))

    def test_nonfinite_support_rejected(self):
        with pytest.raises(AllwasError):
            DiscreteMeasure(np.array([[np.inf]]), np.array([1.0]))

    def test_1d_input_promoted(self):
        m = DiscreteMeasure.uniform(np.array([0.0, 1.0]))
        assert m.support.shape == (2, 1)

    @pytest.mark.parametrize("build", [
        lambda: DiscreteMeasure(np.zeros((0, 2)), []),
        lambda: DiscreteMeasure(np.zeros((2, 2, 2)), [0.5, 0.5]),
        lambda: DiscreteMeasure.uniform(np.zeros((0, 2)))])
    def test_empty_or_misshapen_support_is_a_shape_error(self, build):
        with pytest.raises(ShapeError, match="non-empty"):
            build()


class TestSinkhorn:
    def test_identical_measures_zero_cost(self, rng):
        a = random_measure(rng, 6, 3)
        plan = sinkhorn_distance(a, a)
        assert plan.cost == pytest.approx(0.0, abs=1e-8)
        assert plan.converged
        assert plan.marginal_violation(a, a) < 1e-9

    def test_eps_nonpositive_rejected(self, rng):
        a = random_measure(rng, 3, 2)
        b = random_measure(rng, 3, 2)
        with pytest.raises(ConfigError):
            sinkhorn_distance(a, b, eps=0.0)

    def test_1d_uniform_matches_quantile_oracle(self, rng):
        for _ in range(10):
            n = int(rng.integers(3, 12))
            a = DiscreteMeasure.uniform(np.sort(rng.standard_normal(n)))
            b = DiscreteMeasure.uniform(np.sort(rng.standard_normal(n)))
            exact = exact_distance_oracle(a, b, p=2)
            cost = ground_cost(a, b, p=2)
            eps = max(0.01 * np.median(cost), 1e-9)
            plan = sinkhorn_distance(a, b, p=2, eps=eps,
                                     max_iter=20000, tol=1e-7)
            assert plan.marginal_violation(a, b) <= 1e-12
            # Entropic bias of a uniform n-vs-n plan is at most eps*log(n).
            assert exact - 1e-9 <= plan.cost <= exact + eps * np.log(n)

    def test_uniform_pair_bounded_below_by_assignment(self, rng):
        a = random_measure(rng, 4, 2, uniform=True)
        b = random_measure(rng, 4, 2, uniform=True)
        exact = exact_distance_oracle(a, b, p=2)
        base_eps = default_epsilon(ground_cost(a, b))
        gaps = []
        for eps in (base_eps, base_eps / 10, base_eps / 100):
            plan = sinkhorn_distance(a, b, eps=eps, max_iter=50000, tol=1e-9)
            assert plan.cost >= exact - 1e-9
            gaps.append(plan.cost - exact)
        assert gaps[-1] <= gaps[0] + 1e-12
        assert gaps[-1] <= 0.02 * exact + 1e-9

    def test_symmetry_and_nonnegativity(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 6))
            m = int(rng.integers(2, 6))
            a = random_measure(rng, n, 2)
            b = random_measure(rng, m, 2)
            ab = sinkhorn_distance(a, b, max_iter=20000, tol=1e-10)
            ba = sinkhorn_distance(b, a, max_iter=20000, tol=1e-10)
            assert ab.cost >= 0.0
            assert abs(ab.cost - ba.cost) < 1e-6

    def test_marginal_feasibility(self, rng):
        for _ in range(20):
            a = random_measure(rng, 5, 3)
            b = random_measure(rng, 7, 3)
            plan = sinkhorn_distance(a, b, max_iter=5000, tol=1e-7)
            assert plan.converged
            assert plan.marginal_violation(a, b) < 1e-6

    def test_stopped_solve_unconverged_but_feasible(self, rng):
        # 300 sweeps stop this pair between tol and 1e-4: the flag reports
        # the solve, and the returned plan is still rounded to feasibility.
        a = random_measure(rng, 5, 3)
        b = random_measure(rng, 7, 3)
        cost = ground_cost(a, b)
        _, err, _, _, _ = sinkhorn_plans_batched(
            np.log(a.weights)[None], np.log(b.weights)[None], cost[None],
            default_epsilon(cost), max_iter=300, tol=1e-7)
        assert 1e-7 < err[0] < 1e-4
        plan = sinkhorn_distance(a, b, max_iter=300, tol=1e-7)
        assert plan.iterations == 300
        assert not plan.converged
        assert plan.marginal_violation(a, b) <= 1e-12

    def test_cost_monotone_in_eps(self, rng):
        a = random_measure(rng, 6, 2)
        b = random_measure(rng, 6, 2)
        base = default_epsilon(ground_cost(a, b))
        costs = [
            sinkhorn_distance(a, b, eps=base / 4**i, max_iter=100000, tol=1e-10).cost
            for i in range(3)
        ]
        assert costs[1] <= costs[0] + 1e-8
        assert costs[2] <= costs[1] + 1e-8

    @pytest.mark.parametrize("scale", [transport.EPS_MEDIAN_SCALE, transport.BARY_EPS_SCALE])
    def test_default_epsilon_per_problem_of_padded_batch(self, rng, scale):
        # One eps per problem of a NaN-padded batch, each the scalar rule on
        # that problem's own cells; the last problem's costs are tiny, so
        # the floor binds there.
        shapes = [(3, 5), (6, 2), (4, 4), (2, 3)]
        cost = np.full((len(shapes), 6, 5), np.nan)
        for k, (n, m) in enumerate(shapes):
            cost[k, :n, :m] = rng.exponential(size=(n, m)) * (1e-7 if k == 3 else 10.0 ** k)
        eps = default_epsilon(cost, scale)
        assert eps.shape == (len(shapes),)
        for k, (n, m) in enumerate(shapes):
            valid = cost[k, :n, :m]
            assert eps[k] == max(scale * float(np.median(valid)), transport.EPS_FLOOR)
            assert eps[k] == default_epsilon(valid, scale)
        assert eps[-1] == transport.EPS_FLOOR

    def test_single_atom_closed_form(self):
        a = DiscreteMeasure.dirac([0.0, 0.0])
        b = DiscreteMeasure.uniform(np.array([[1.0, 0.0], [3.0, 0.0]]))
        plan = sinkhorn_distance(a, b, p=2)
        assert plan.iterations == 0
        assert plan.cost == pytest.approx((1.0 + 9.0) / 2)

    def test_batched_padding_matches_single(self, rng):
        # Two problems of different sizes solved in one padded batch.
        a1 = random_measure(rng, 3, 2)
        b1 = random_measure(rng, 4, 2)
        a2 = random_measure(rng, 2, 2)
        b2 = random_measure(rng, 2, 2)
        eps = 0.1
        singles = [
            sinkhorn_distance(a1, b1, eps=eps, max_iter=5000, tol=1e-8),
            sinkhorn_distance(a2, b2, eps=eps, max_iter=5000, tol=1e-8),
        ]
        log_a = np.full((2, 3), -np.inf)
        log_b = np.full((2, 4), -np.inf)
        cost = np.zeros((2, 3, 4))
        log_a[0] = np.log(a1.weights)
        log_b[0] = np.log(b1.weights)
        cost[0] = ground_cost(a1, b1)
        log_a[1, :2] = np.log(a2.weights)
        log_b[1, :2] = np.log(b2.weights)
        cost[1, :2, :2] = ground_cost(a2, b2)
        plans, err, _, _, _ = sinkhorn_plans_batched(log_a, log_b, cost, eps,
                                               max_iter=5000, tol=1e-8)
        assert err.max() < 1e-8
        np.testing.assert_allclose(plans[0], singles[0].coupling, atol=1e-7)
        np.testing.assert_allclose(plans[1, :2, :2], singles[1].coupling, atol=1e-7)
        assert np.all(plans[1, 2:, :] == 0) and np.all(plans[1, :, 2:] == 0)


def _padded_batch(rng, shapes, dim=3):
    """Random problems of the given (n, m) shapes, zero-weight padded into
    one batch; returns the batch and the unpadded problems."""
    n_max = max(n for n, _ in shapes)
    m_max = max(m for _, m in shapes)
    log_a = np.full((len(shapes), n_max), -np.inf)
    log_b = np.full((len(shapes), m_max), -np.inf)
    cost = np.zeros((len(shapes), n_max, m_max))
    singles = []
    for k, (n, m) in enumerate(shapes):
        a = random_measure(rng, n, dim)
        b = random_measure(rng, m, dim)
        c = ground_cost(a, b)
        log_a[k, :n] = np.log(a.weights)
        log_b[k, :m] = np.log(b.weights)
        cost[k, :n, :m] = c
        singles.append((np.log(a.weights)[None], np.log(b.weights)[None], c[None]))
    return log_a, log_b, cost, singles


class TestBatchedCore:
    SHAPES = [(3, 4), (12, 2), (2, 2), (9, 11), (5, 12), (12, 12), (7, 3)]

    def test_padded_batch_equals_single_solves_bitwise(self, rng):
        # Per-problem independence: padding and batch size leave no trace.
        log_a, log_b, cost, singles = _padded_batch(rng, self.SHAPES)
        eps = 0.02 * np.median(cost, axis=(1, 2)) + 0.01
        plans, err, _, f, g = sinkhorn_plans_batched(
            log_a, log_b, cost, eps, max_iter=400, tol=1e-9)
        for k, ((n, m), single) in enumerate(zip(self.SHAPES, singles)):
            p1, e1, _, f1, g1 = sinkhorn_plans_batched(
                *single, eps[k], max_iter=400, tol=1e-9)
            assert np.array_equal(plans[k, :n, :m], p1[0])
            assert err[k] == e1[0]
            assert np.array_equal(f[k, :n], f1[0])
            assert np.array_equal(g[k, :m], g1[0])

    def test_padded_cells_exactly_zero(self, rng):
        log_a, log_b, cost, _ = _padded_batch(rng, self.SHAPES)
        for max_iter in (5, 400):   # stopped early and converged
            plans, err, _, f, g = sinkhorn_plans_batched(
                log_a, log_b, cost, 0.05, max_iter=max_iter, tol=1e-9)
            if max_iter == 5:
                # Violations report the stopped solve, not the rounded plan.
                assert np.all(err > 1e-9)
            assert np.abs(plans.sum(axis=2) - np.exp(log_a)).max() <= 1e-12
            assert np.abs(plans.sum(axis=1) - np.exp(log_b)).max() <= 1e-12
            padded = ~(np.isfinite(log_a)[:, :, None] & np.isfinite(log_b)[:, None, :])
            assert np.all(plans[padded] == 0.0)
            assert np.all(np.isneginf(f[~np.isfinite(log_a)]))
            assert np.all(np.isneginf(g[~np.isfinite(log_b)]))

    def test_small_eps_underflow_regime(self, rng):
        # At eps = 1e-3 x median cost, kernel arguments fall far below -745,
        # where exp() underflows; the solve must stay finite and feasible.
        problems = []
        for _ in range(6):
            n = int(rng.integers(3, 9))
            a = DiscreteMeasure.uniform(np.sort(rng.standard_normal(n)))
            b = DiscreteMeasure.uniform(np.sort(rng.standard_normal(n)))
            c = ground_cost(a, b)
            problems.append((n, a, b, c, 1e-3 * float(np.median(c))))
        n_max = max(pr[0] for pr in problems)
        log_a = np.full((len(problems), n_max), -np.inf)
        cost = np.zeros((len(problems), n_max, n_max))
        eps = np.array([pr[4] for pr in problems])
        for k, (n, _, _, c, _) in enumerate(problems):
            log_a[k, :n] = -np.log(n)
            cost[k, :n, :n] = c
        assert (cost / eps[:, None, None]).max() > 745
        tol = 1e-7
        plans, err, _, f, g = sinkhorn_plans_batched(
            log_a, log_a, cost, eps, max_iter=20000, tol=tol)
        valid = np.isfinite(log_a)
        assert np.all(np.isfinite(plans))
        assert np.all(np.isfinite(f[valid])) and np.all(np.isfinite(g[valid]))
        w = np.exp(log_a)
        assert np.abs(plans.sum(axis=2) - w).max() <= 1e-12
        assert np.abs(plans.sum(axis=1) - w).max() <= 1e-12
        for k, (n, a, b, c, e) in enumerate(problems):
            exact = exact_distance_oracle(a, b, p=2)
            value = float(np.sum(plans[k, :n, :n] * c))
            assert exact - 1e-9 <= value <= exact + e * np.log(n)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       shapes=st.lists(st.tuples(st.integers(1, 8), st.integers(1, 8)), max_size=4),
       uniform_sizes=st.lists(st.integers(1, 8), min_size=1, max_size=4),
       eps_scale=st.sampled_from([0.05, 0.2, 1.0]), max_iter=st.sampled_from([1, 5, 3000]))
def test_batched_plans_feasible_and_within_entropic_bias(seed, shapes, uniform_sizes,
                                                         eps_scale, max_iter):
    # One padded batch of lanes of mixed (n, m) shapes, padding costs
    # arbitrary but finite. Each of the uniform lanes pairs two uniform 1-D
    # measures of n atoms, whose exact W_2^2 the quantile oracle gives; a
    # converged lane's plan then costs at most exact + eps log n.
    rng = np.random.default_rng(seed)
    pairs = ([(random_measure(rng, n, 3), random_measure(rng, m, 3), False)
              for n, m in shapes]
             + [(DiscreteMeasure.uniform(rng.standard_normal((n, 1))),
                 DiscreteMeasure.uniform(rng.standard_normal((n, 1))), True)
                for n in uniform_sizes])
    n_max = max(a.n for a, _, _ in pairs)
    m_max = max(b.n for _, b, _ in pairs)
    log_a = np.full((len(pairs), n_max), -np.inf)
    log_b = np.full((len(pairs), m_max), -np.inf)
    cost = rng.uniform(0.0, 10.0, (len(pairs), n_max, m_max))
    eps = np.empty(len(pairs))
    for k, (a, b, _) in enumerate(pairs):
        log_a[k, :a.n], log_b[k, :b.n] = np.log(a.weights), np.log(b.weights)
        cost[k, :a.n, :b.n] = ground_cost(a, b)
        eps[k] = eps_scale * np.median(cost[k, :a.n, :b.n]) + 1e-3
    tol = 1e-9
    plans, err, _, _, _ = sinkhorn_plans_batched(log_a, log_b, cost, eps,
                                                 max_iter=max_iter, tol=tol)
    assert np.all(plans >= 0.0)
    assert np.abs(plans.sum(axis=2) - np.exp(log_a)).max() <= 1e-12
    assert np.abs(plans.sum(axis=1) - np.exp(log_b)).max() <= 1e-12
    for k, (a, b, uniform_1d) in enumerate(pairs):
        if uniform_1d:
            exact = exact_distance_oracle(a, b, p=2)
            value = float(np.sum(plans[k, :a.n, :a.n] * cost[k, :a.n, :a.n]))
            # Both ends allow 1e-9 of roundoff: a one-atom lane's bound is
            # exact itself.
            assert value >= exact - 1e-9
            if err[k] <= tol:
                assert value <= exact + eps[k] * np.log(a.n) + 1e-9


@settings(derandomize=True, max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6), m=st.integers(1, 6),
       dim=st.integers(1, 3), eps_scale=st.sampled_from([None, 0.05, 1.0]),
       same=st.booleans())
def test_single_solve_symmetric(seed, n, m, dim, eps_scale, same):
    # Solving b -> a transposes the a -> b solve: at convergence the plans
    # agree up to the tolerance and so do their costs, and the exact
    # shortcuts (identical measures, single atoms) are symmetric outright.
    rng = np.random.default_rng(seed)
    a = random_measure(rng, n, dim)
    b = a if same else random_measure(rng, m, dim)
    eps = None
    if eps_scale is not None:
        eps = eps_scale * float(np.median(ground_cost(a, b))) + 1e-3
    ab = sinkhorn_distance(a, b, eps=eps, max_iter=20000, tol=1e-11)
    ba = sinkhorn_distance(b, a, eps=eps, max_iter=20000, tol=1e-11)
    assert ab.converged and ba.converged
    assert ab.cost >= 0.0 and ba.cost >= 0.0
    assert abs(ab.cost - ba.cost) <= 1e-8 * (1.0 + ab.cost)
    assert np.abs(ab.coupling - ba.coupling.T).max() <= 1e-9
    if same:
        assert ab.cost == ba.cost == 0.0


class TestBarycenter:
    def test_two_dirac_midpoint(self):
        a = DiscreteMeasure.dirac([0.0, 0.0])
        b = DiscreteMeasure.dirac([2.0, 0.0])
        bary = wasserstein_barycenter([a, b], [0.5, 0.5], support_size=1)
        np.testing.assert_allclose(bary.support, [[1.0, 0.0]], atol=1e-6)

    def test_degenerate_lambda_recovers_input(self, rng):
        a = random_measure(rng, 4, 2, uniform=True)
        b = random_measure(rng, 3, 2, uniform=True)
        trace = []
        bary = wasserstein_barycenter([a, b], [1.0, 0.0], trace=trace)
        assert bary.n == 4
        np.testing.assert_allclose(bary.support, a.support, atol=1e-9)
        assert trace[-1] < 1e-6

    def test_separated_1d_diracs_land_between(self):
        # Two well-separated 1D points: the transport barycenter sits between
        # them, where an L2 density mode would sit on one of the two.
        good = DiscreteMeasure.dirac([-3.0])
        bad = DiscreteMeasure.dirac([3.0])
        bary = wasserstein_barycenter([good, bad], [0.5, 0.5], support_size=1)
        x = bary.support[0, 0]
        assert -3.0 < x < 3.0
        assert x == pytest.approx(0.0, abs=1e-6)

    def test_objective_descent_batch(self, rng):
        # Support scale 0.1 keeps solver noise well inside the absolute
        # slack; the descent property itself is scale-free.
        groups, lambdas, sizes = [], [], []
        for _ in range(6):
            g = [0.1 * rng.standard_normal((int(rng.integers(2, 6)), 2))
                 for _ in range(3)]
            lam = rng.random(3) + 0.1
            lam /= lam.sum()
            groups.append(g)
            lambdas.append(lam)
            sizes.append(barycenter_support_size([x.shape[0] for x in g], lam))
        trace = []
        wasserstein_barycenter_batch(groups, np.array(lambdas), sizes, outer_iter=6,
                                     sinkhorn_max_iter=20000, sinkhorn_tol=1e-10,
                                     trace=trace)
        for before, after in zip(trace, trace[1:]):
            assert np.all(after <= before + 1e-6)

    def test_logs_unconverged_member_solves(self, rng, caplog, monkeypatch):
        # Two Sinkhorn sweeps leave most member solves above tol. Each pass
        # solves all six members in one call, and its log line counts them.
        solve = transport.sinkhorn_plans_batched
        counts = []

        def counting(*args, **kwargs):
            out = solve(*args, **kwargs)
            counts.append(int(np.count_nonzero(out[1] > kwargs["tol"])))
            return out

        monkeypatch.setattr(transport, "sinkhorn_plans_batched", counting)
        groups = [[rng.standard_normal((4, 2)) for _ in range(3)] for _ in range(2)]
        with caplog.at_level(logging.DEBUG, logger="allwas.transport"):
            wasserstein_barycenter_batch(groups, np.full((2, 3), 1.0 / 3.0), [4, 4],
                                         outer_iter=2, sinkhorn_max_iter=2,
                                         sinkhorn_tol=1e-12)
        lines = [r.getMessage() for r in caplog.records if r.name == "allwas.transport"]
        assert len(counts) == 2 and sum(counts) > 0
        assert lines == [f"barycenter pass {it}: {counts[it]} "
                         "of 6 member solves above tol" for it in range(2)]

    def test_group_independent_of_batch(self, rng):
        # Each group's barycenter is its solo solve whatever shares its
        # batch. Two cases have members wider than the batch's largest
        # support: identical members beside a group with a 6-token member,
        # and a dominant member whose token count equals the support size
        # beside an 8-token member. In the random batches, groups stop at
        # different passes.
        same = rng.standard_normal((4, 3))
        dominant = rng.standard_normal((3, 3))
        cases = [
            ([[same, same.copy()], [rng.standard_normal((6, 3)), rng.standard_normal((2, 3))]],
             [[0.5, 0.5], [0.5, 0.5]]),
            ([[dominant, rng.standard_normal((2, 3))], [rng.standard_normal((8, 3)),
                                                        rng.standard_normal((5, 3))]],
             [[0.9, 0.1], [0.5, 0.5]]),
        ]
        for _ in range(3):
            B, g = int(rng.integers(1, 7)), int(rng.integers(2, 4))
            groups = [[rng.standard_normal((int(rng.integers(1, 9)), 3)) for _ in range(g)]
                      for _ in range(B)]
            cases.append((groups, rng.dirichlet(np.ones(g), size=B)))
        cfg = AugmentationConfig()
        budgets = [{}, dict(outer_iter=cfg.outer_iter, sinkhorn_max_iter=cfg.sinkhorn_max_iter,
                            sinkhorn_tol=AUG_SINKHORN_TOL, eps_scale=AUG_EPS_SCALE)]
        for groups, lambdas in cases:
            lambdas = np.asarray(lambdas)
            sizes = [barycenter_support_size([x.shape[0] for x in grp], lam)
                     for grp, lam in zip(groups, lambdas)]
            for budget in budgets:
                batch = wasserstein_barycenter_batch(groups, lambdas, sizes, **budget)
                for b, got in enumerate(batch):
                    solo = wasserstein_barycenter_batch([groups[b]], lambdas[b:b + 1],
                                                        sizes[b:b + 1], **budget)[0]
                    np.testing.assert_allclose(got, solo, rtol=0, atol=1e-12)

    def test_objective_descent_single(self, rng):
        for _ in range(1):
            measures = [
                DiscreteMeasure.uniform(0.1 * rng.standard_normal((int(rng.integers(2, 6)), 2)))
                for _ in range(3)
            ]
            lam = rng.random(3) + 0.1
            lam /= lam.sum()
            trace = []
            wasserstein_barycenter(measures, lam, outer_iter=6,
                                   sinkhorn_max_iter=20000, sinkhorn_tol=1e-10,
                                   trace=trace)
            for before, after in zip(trace, trace[1:]):
                assert after <= before + 1e-6

    def test_single_atom_is_weighted_mean_of_weighted_members(self, rng):
        # At support_size=1 every coupling is forced (all mass of the one
        # atom goes to nu_i by its weights), so the fixed point is
        # sum_i lambda_i w_i^T X_i, and a zero-lambda member adds nothing.
        for _ in range(5):
            g = int(rng.integers(2, 5))
            measures = [random_measure(rng, int(rng.integers(2, 7)), 3)
                        for _ in range(g)]
            lam = rng.random(g) + 0.1
            lam /= lam.sum()
            expected = sum(w * (m.weights @ m.support) for w, m in zip(lam, measures))
            bary = wasserstein_barycenter(measures, lam, support_size=1)
            np.testing.assert_allclose(bary.support[0], expected, rtol=0, atol=1e-9)
            extra = random_measure(rng, 4, 3)
            padded = wasserstein_barycenter(measures + [extra], np.append(lam, 0.0),
                                            support_size=1)
            np.testing.assert_allclose(padded.support[0], expected, rtol=0, atol=1e-9)

    def test_support_size_rule(self):
        assert barycenter_support_size([1, 2], [0.5, 0.5]) == 2
        assert barycenter_support_size([4, 4], [0.5, 0.5]) == 4
        assert barycenter_support_size([1, 1], [0.5, 0.5]) == 1
        assert barycenter_support_size([10, 2], [1.0, 0.0]) == 10

    def test_requires_two_measures(self, rng):
        with pytest.raises(ConfigError):
            wasserstein_barycenter([random_measure(rng, 3, 2)], [1.0])

    def test_lambda_off_simplex_rejected(self, rng):
        a = random_measure(rng, 3, 2)
        b = random_measure(rng, 3, 2)
        with pytest.raises(ConfigError):
            wasserstein_barycenter([a, b], [0.7, 0.7])

    @pytest.mark.parametrize("lambdas, sizes, dims, error", [
        ([[0.7, 0.7]], [2], (2, 2), ConfigError),
        ([[1.5, -0.5]], [2], (2, 2), ConfigError),
        ([[np.nan, 0.5]], [2], (2, 2), ConfigError),
        ([[0.5, 0.5]], [0], (2, 2), ConfigError),
        ([[0.5, 0.5]], [2, 2], (2, 2), ShapeError),
        ([[0.5, 0.5]], [2], (2, 3), ShapeError)])
    def test_batch_rejects_what_single_rejects(self, rng, lambdas, sizes, dims, error):
        # Both barycenter functions check their inputs in one place.
        groups = [[rng.standard_normal((3, d)) for d in dims]]
        with pytest.raises(error):
            wasserstein_barycenter_batch(groups, np.array(lambdas), sizes)

    def test_batch_matches_single(self, rng):
        groups = []
        lambdas = []
        sizes = []
        for _ in range(5):
            g = [rng.standard_normal((int(rng.integers(2, 7)), 3)) for _ in range(2)]
            lam = rng.random(2) + 0.1
            lam /= lam.sum()
            groups.append(g)
            lambdas.append(lam)
            sizes.append(barycenter_support_size([x.shape[0] for x in g], lam))
        batch = wasserstein_barycenter_batch(groups, np.array(lambdas), sizes,
                                             outer_iter=5)
        for g, lam, size, got in zip(groups, lambdas, sizes, batch):
            single = wasserstein_barycenter(
                [DiscreteMeasure.uniform(x) for x in g], lam,
                support_size=size, outer_iter=5)
            np.testing.assert_allclose(got, single.support, atol=1e-6)

    def test_batch_identical_members_exact(self, rng):
        tokens = rng.standard_normal((4, 3))
        groups = [[tokens.copy(), tokens.copy()]]
        out = wasserstein_barycenter_batch(groups, np.array([[0.3, 0.7]]), [4])
        np.testing.assert_allclose(out[0], tokens, atol=1e-6)

    def test_batch_peak_memory_at_augmentation_knobs(self, rng):
        # The augment-wasserstein knobs: pairs of 3-12-token clouds in 32
        # dimensions, 3 outer passes of at most 60 Sinkhorn sweeps. The unit
        # is one padded (B * g, n_max, s_max) float64 stack, the size of the
        # batch's cost or kernel; the peak measured 21.4-22.2 units at 50, 200
        # and 800 groups, so it grows with the batch and no faster.
        groups = [[rng.standard_normal((rng.integers(3, 13), 32)) for _ in range(2)]
                  for _ in range(300)]
        lambdas = rng.dirichlet([1.0, 1.0], len(groups))
        sizes = [barycenter_support_size([m.shape[0] for m in g], lam)
                 for g, lam in zip(groups, lambdas)]
        knobs = dict(outer_iter=3, sinkhorn_max_iter=60, sinkhorn_tol=AUG_SINKHORN_TOL,
                     eps_scale=AUG_EPS_SCALE)
        wasserstein_barycenter_batch(groups[:2], lambdas[:2], sizes[:2], **knobs)
        tracemalloc.start()
        try:
            wasserstein_barycenter_batch(groups, lambdas, sizes, **knobs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        n_max = max(m.shape[0] for g in groups for m in g)
        unit = len(groups) * 2 * n_max * max(sizes) * 8
        assert peak <= 24 * unit
