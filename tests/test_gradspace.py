import itertools
import logging
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import linprog

from allwas import gradspace
from allwas.errors import AllwasError, ShapeError
from allwas.gradspace import DistanceMatrix, pairwise_w2_exact, pairwise_wasserstein
from allwas.transport import DiscreteMeasure, ground_cost, sinkhorn_distance
from oracles import distinct_rows, exact_distance_oracle


def random_gradient_measure(rng, c, h):
    support = rng.standard_normal((c, h))
    w = rng.random(c) + 0.1
    return DiscreteMeasure(support, w / w.sum())


def stack(measures):
    """(supports (N, C, H), weights (N, C)) of gradient measures."""
    return (np.stack([gm.support for gm in measures]),
            np.stack([gm.weights for gm in measures]))


def lp_oracle(a: DiscreteMeasure, b: DiscreteMeasure, p: float) -> float:
    """Exact W_p^p as the transport linear program."""
    cost = ground_cost(a, b, p)
    n, m = cost.shape
    rows = np.kron(np.eye(n), np.ones(m))
    cols = np.kron(np.ones(n), np.eye(m))
    res = linprog(cost.ravel(), A_eq=np.vstack([rows, cols]),
                  b_eq=np.concatenate([a.weights, b.weights]), bounds=(0, None),
                  method="highs")
    assert res.status == 0
    return float(res.fun)


def pair_oracles(supports, weights, p):
    n = len(supports)
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            out[i, j] = out[j, i] = lp_oracle(DiscreteMeasure(supports[i], weights[i]),
                                              DiscreteMeasure(supports[j], weights[j]), p)
    return out


class TestDistanceMatrixType:
    def test_requires_zero_diagonal(self):
        entries = np.array([[0.5, 1.0], [1.0, 0.0]])
        with pytest.raises(AllwasError):
            DistanceMatrix(entries, ids=(0, 1))

    def test_requires_symmetry(self):
        entries = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(AllwasError):
            DistanceMatrix(entries, ids=(0, 1))

    @pytest.mark.parametrize("cell", [(0, 1), (2, 3), (4, 3)])
    def test_symmetry_checked_in_every_row_block(self, rng, monkeypatch, cell):
        # Blocks of one row (7 cells over 5 columns): an asymmetric pair in
        # the first, a middle or the last block is found.
        monkeypatch.setattr(gradspace, "_BLOCK_CELLS", 7)
        entries = rng.random((5, 5))
        entries += entries.T
        np.fill_diagonal(entries, 0.0)
        DistanceMatrix(entries, ids=tuple(range(5)))
        entries[cell] += 1e-3
        with pytest.raises(AllwasError, match="symmetric"):
            DistanceMatrix(entries, ids=tuple(range(5)))

    def test_index_lookup(self):
        m = DistanceMatrix(np.zeros((2, 2)), ids=(7, 9))
        assert m.index_of(9) == 1
        with pytest.raises(AllwasError):
            m.index_of(8)


class TestPairwise:
    def test_identical_measures_zero_entry(self, rng):
        gm = random_gradient_measure(rng, 3, 5)
        clone = DiscreteMeasure(gm.support.copy(), gm.weights.copy())
        out = pairwise_wasserstein(*stack([gm, clone, random_gradient_measure(rng, 3, 5)]))
        assert out.entries[0, 1] < 1e-6
        assert out.entries[0, 2] > 1e-6

    def test_single_class_reduces_to_point_distance(self, rng):
        for p in (1.0, 2.0):
            a = DiscreteMeasure(rng.standard_normal((1, 4)), [1.0])
            b = DiscreteMeasure(rng.standard_normal((1, 4)), [1.0])
            out = pairwise_wasserstein(*stack([a, b]), p=p)
            expected = np.linalg.norm(a.support[0] - b.support[0]) ** p
            assert out.entries[0, 1] == pytest.approx(expected, rel=1e-9)

    def test_matches_transport_oracles(self, rng):
        # Uniform-weight measures are oracle-eligible (equal sizes).
        grads = []
        for _ in range(5):
            support = rng.standard_normal((3, 4))
            grads.append(DiscreteMeasure.uniform(support))
        out = pairwise_wasserstein(*stack(grads), eps=1e-3, max_iter=20000, tol=1e-9)
        for i in range(5):
            for j in range(i + 1, 5):
                exact = exact_distance_oracle(grads[i], grads[j], p=2)
                assert out.entries[i, j] == pytest.approx(exact, rel=0.02, abs=1e-9)

    def test_symmetry_and_zero_diagonal(self, rng):
        grads = [random_gradient_measure(rng, 3, 4) for _ in range(6)]
        out = pairwise_wasserstein(*stack(grads))
        assert np.abs(np.diag(out.entries)).max() < 1e-12
        np.testing.assert_allclose(out.entries, out.entries.T, atol=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(AllwasError):
            pairwise_wasserstein(np.empty((0, 2, 3)), np.empty((0, 2)))

    def test_inconsistent_shapes_rejected(self, rng):
        with pytest.raises(ShapeError):
            pairwise_wasserstein(rng.standard_normal((2, 3, 3)), np.full((2, 2), 0.5))

    def test_triangle_inequality_w1(self, rng, caplog):
        # W_1 is a metric; entropic bias may perturb it slightly, so allow
        # 5% relative slack, log the rest, and require violations be rare.
        grads = [random_gradient_measure(rng, 3, 4) for _ in range(8)]
        out = pairwise_wasserstein(*stack(grads), p=1.0, max_iter=5000, tol=1e-8)
        violations = 0
        checked = 0
        with caplog.at_level(logging.WARNING):
            for i in range(8):
                for j in range(8):
                    for k in range(8):
                        if len({i, j, k}) < 3:
                            continue
                        checked += 1
                        lhs = out.entries[i, j]
                        rhs = out.entries[i, k] + out.entries[k, j]
                        if lhs > rhs * 1.05:
                            violations += 1
                            logging.getLogger(__name__).warning(
                                "triangle violation at (%d, %d, %d)", i, j, k)
        assert violations <= 0.05 * checked

    def test_chunked_matrix_equals_single_chunk(self, rng, monkeypatch, caplog):
        grads = [random_gradient_measure(rng, 3, 6) for _ in range(12)]
        whole = pairwise_wasserstein(*stack(grads))
        # A budget this small leaves a few pairs per chunk.
        monkeypatch.setattr(gradspace, "_CHUNK_BYTES", 3000)
        monkeypatch.setattr(gradspace, "_DIFF_BYTES", 500)
        per_chunk = gradspace._pairs_per_chunk(3)
        assert per_chunk < 66
        with caplog.at_level(logging.DEBUG, logger="allwas.gradspace"):
            chunked = pairwise_wasserstein(*stack(grads))
        assert np.array_equal(chunked.entries, whole.entries)
        assert f"66 pairs in {-(-66 // per_chunk)} chunks" in caplog.text

    def test_peak_memory_within_chunk_budget(self, rng, monkeypatch):
        # 4950 pairs at C = 3 would take about 55 output matrices in one
        # chunk. Chunked, the working set is one chunk's budget on top of
        # the output matrix: each chunk builds only its own pair indices,
        # and the symmetry check runs in row blocks (1.3 output matrices
        # measured; all pair indices at once and a whole-matrix check made
        # it 2.3).
        supports, weights = stack([random_gradient_measure(rng, 3, 4) for _ in range(100)])
        pairwise_wasserstein(supports[:5], weights[:5], max_iter=2)   # lazy imports
        monkeypatch.setattr(gradspace, "_CHUNK_BYTES", 2**18)
        monkeypatch.setattr(gradspace, "_DIFF_BYTES", 2**15)
        assert gradspace._pairs_per_chunk(3) < 4950 // 20
        tracemalloc.start()
        try:
            out = pairwise_wasserstein(supports, weights, max_iter=20)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= gradspace._CHUNK_BYTES + 2 * out.entries.nbytes

    @pytest.mark.parametrize("c", [2, 3, 4])
    @pytest.mark.parametrize("p", [1.0, 2.0])
    def test_entries_match_long_double_between_close_supports(self, rng, monkeypatch, c, p):
        # Supports 1e-3 apart and 10 from the origin: costs taken from a
        # Gram product put errors of 7e-9 to 4e-8 into the entries. Each is
        # priced against the long-double cost of its pair: the closed form
        # at C = 2, the plan Sinkhorn returned beyond.
        n = 12
        supports = 10.0 + 1e-3 * rng.standard_normal((n, c, 16))
        weights = rng.dirichlet(np.ones(c), n)
        if c == 2:
            weights = confident_two_class(rng, n)
        plans = []
        solve = gradspace.sinkhorn_plans_batched

        def spy(*args, **kwargs):
            out = solve(*args, **kwargs)
            plans.append(out[0])
            return out

        monkeypatch.setattr(gradspace, "sinkhorn_plans_batched", spy)
        entries = pairwise_wasserstein(supports, weights, p=p).entries
        i, j = np.triu_indices(n, 1)
        s = supports.astype(np.longdouble)
        cost = ((s[i][:, :, None] - s[j][:, None]) ** 2).sum(axis=-1) ** (p / 2)
        if c == 2:
            w = weights.astype(np.longdouble)
            reference = gradspace._two_class_exact(cost, w[i], w[j])
        else:
            (plan,) = plans
            reference = np.einsum("bcd,bcd->b", plan.astype(np.longdouble), cost)
        assert np.max(np.abs(entries[i, j] - reference) / reference) <= 1e-14


class TestInputChecks:
    def test_nonfinite_support_rejected(self, rng):
        supports, weights = stack([random_gradient_measure(rng, 2, 3) for _ in range(3)])
        supports[1, 0, 2] = np.nan
        with pytest.raises(AllwasError):
            pairwise_wasserstein(supports, weights)

    @pytest.mark.parametrize("row", [[0.6, 0.6], [1.2, -0.2]])
    def test_weight_rows_off_simplex_rejected(self, rng, row):
        supports, weights = stack([random_gradient_measure(rng, 2, 3) for _ in range(3)])
        weights[2] = row
        with pytest.raises(AllwasError):
            pairwise_wasserstein(supports, weights)

    def test_supports_must_be_three_dimensional(self, rng):
        with pytest.raises(ShapeError):
            pairwise_wasserstein(rng.standard_normal((3, 4)), np.full((3, 4), 0.25))

    def test_one_id_per_measure(self, rng):
        with pytest.raises(ShapeError):
            pairwise_wasserstein(*stack([random_gradient_measure(rng, 2, 3)] * 2),
                                 ids=[1, 2, 3])


class TestTwoClassExact:
    @pytest.mark.parametrize("p", [1.0, 2.0])
    def test_matches_linear_program(self, rng, p):
        supports, weights = stack([random_gradient_measure(rng, 2, 5) for _ in range(9)])
        out = pairwise_wasserstein(supports, weights, p=p)
        np.testing.assert_allclose(out.entries, pair_oracles(supports, weights, p),
                                   rtol=1e-9, atol=1e-12)

    def test_one_hot_rows(self, rng):
        supports = rng.standard_normal((4, 2, 3))
        weights = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.3, 0.7]])
        out = pairwise_wasserstein(supports, weights)
        # Two Diracs: the coupling is forced.
        d01 = np.sum((supports[0, 0] - supports[1, 1]) ** 2)
        assert out.entries[0, 1] == pytest.approx(d01, rel=1e-12)
        np.testing.assert_allclose(out.entries, pair_oracles(supports, weights, 2.0),
                                   rtol=1e-9, atol=1e-12)

    def test_duplicate_rows_exactly_zero(self, rng):
        supports, weights = stack([random_gradient_measure(rng, 2, 4) for _ in range(3)])
        order = [0, 1, 0, 2, 1]
        out = pairwise_wasserstein(supports[order], weights[order], ids=list("abcde"))
        assert out.entries[0, 2] == 0.0 and out.entries[1, 4] == 0.0
        assert np.all(out.entries[0, [1, 3, 4]] > 0)
        distinct = pairwise_wasserstein(supports, weights)
        np.testing.assert_array_equal(out.entries, distinct.entries[np.ix_(order, order)])

    def test_symmetric_and_order_free(self, rng):
        supports, weights = stack([random_gradient_measure(rng, 2, 4) for _ in range(7)])
        out = pairwise_wasserstein(supports, weights)
        np.testing.assert_array_equal(out.entries, out.entries.T)
        perm = rng.permutation(7)
        shuffled = pairwise_wasserstein(supports[perm], weights[perm])
        np.testing.assert_allclose(shuffled.entries, out.entries[np.ix_(perm, perm)],
                                   rtol=1e-12, atol=1e-15)

    def test_never_calls_sinkhorn(self, rng, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("two-class pairs must not run Sinkhorn")
        monkeypatch.setattr(gradspace, "sinkhorn_plans_batched", refuse)
        pairwise_wasserstein(*stack([random_gradient_measure(rng, 2, 3) for _ in range(5)]))

    @settings(derandomize=True, max_examples=80, deadline=None)
    @given(supports=arrays(np.float64, (2, 2, 3), elements=st.floats(-4.0, 4.0)),
           a0=st.floats(0.0, 1.0), b0=st.floats(0.0, 1.0), p=st.sampled_from([1.0, 2.0]))
    def test_property_exact_and_below_feasible_plans(self, supports, a0, b0, p):
        weights = np.array([[a0, 1.0 - a0], [b0, 1.0 - b0]])
        value = pairwise_wasserstein(supports, weights, p=p).entries[0, 1]
        a = DiscreteMeasure(supports[0], weights[0])
        b = DiscreteMeasure(supports[1], weights[1])
        assert value == pytest.approx(lp_oracle(a, b, p), rel=1e-9, abs=1e-12)
        plan = sinkhorn_distance(a, b, p=p)
        if plan.marginal_violation(a, b) <= 1e-12:
            assert value <= plan.cost + 1e-12


class TestManyClasses:
    def test_unconverged_plans_rounded_to_feasible_costs(self, rng):
        # Two sweeps leave every plan far off its marginals; the rounded
        # plan's cost can only sit above the exact value.
        supports, weights = stack([random_gradient_measure(rng, 3, 4) for _ in range(8)])
        out = pairwise_wasserstein(supports, weights, max_iter=2)
        exact = pair_oracles(supports, weights, 2.0)
        assert np.all(out.entries >= exact - 1e-12)


def gradient_supports(probs, w2):
    """The measures' supports (N, C, H), as ``model.gradient_arrays`` builds
    them from a head's probabilities and last-layer weights."""
    return (probs @ w2.T)[:, None, :] - w2.T[None, :, :]


def class_cost(w2):
    centers = w2.T
    return ((centers[:, None] - centers[None]) ** 2).sum(axis=-1)


def brute_force_vertices(cost):
    """Every vertex of the transport dual {f_i + g_j <= cost}, with f_0 = 0,
    from all (2C - 1)-edge subsets of K_{C,C} (small C only)."""
    c = len(cost)
    trees = np.array(list(itertools.combinations(range(c * c), 2 * c - 1)))
    system = np.zeros((len(trees), 2 * c, 2 * c))
    rhs = np.zeros((len(trees), 2 * c))
    for slot in range(2 * c - 1):
        i, j = np.divmod(trees[:, slot], c)
        system[np.arange(len(trees)), slot, i] = 1.0
        system[np.arange(len(trees)), slot, c + j] = 1.0
        rhs[:, slot] = cost[i, j]
    system[:, -1, 0] = 1.0
    spanning = np.abs(np.linalg.det(system)) > 0.5
    duals = np.linalg.solve(system[spanning], rhs[spanning][..., None])[..., 0]
    slack = cost - duals[:, :c, None] - duals[:, None, c:]
    return np.unique(np.round(duals[slack.min(axis=(1, 2)) > -1e-9], 9), axis=0)


def long_double_two_class(probs, w2):
    """Exact two-class W_2^2 matrix in long double, from the supports."""
    p = probs.astype(np.longdouble)
    centers = w2.T.astype(np.longdouble)
    supports = (p @ centers)[:, None, :] - centers[None]
    cost = ((supports[:, None, :, None] - supports[None, :, None, :]) ** 2).sum(axis=-1)
    a0, a1, b0 = p[:, None, 0], p[:, None, 1], p[None, :, 0]
    m00, m01, m10, m11 = (cost[..., i, j] for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)))
    t = np.where(m00 - m01 - m10 + m11 > 0, np.maximum(0, b0 - a1), np.minimum(a0, b0))
    return t * m00 + (a0 - t) * m01 + (b0 - t) * m10 + (a1 - b0 + t) * m11


def confident_two_class(rng, n):
    """Two-class probability rows of a confident head, on a dyadic grid so
    that each row sums to exactly 1."""
    p0 = np.round(2.0 ** 40 / (1.0 + np.exp(3.0 * rng.standard_normal(n)))) / 2.0 ** 40
    return np.stack([p0, 1.0 - p0], axis=1)


class TestDualVertices:
    @pytest.mark.parametrize("c", [1, 2, 3, 4, 5, 6])
    def test_generic_cost_has_binomial_count(self, rng, c):
        cost = class_cost(rng.standard_normal((8, c)))
        f, g, edges, flows, walked = gradspace._dual_vertices(cost)
        assert len(f) == walked == math.comb(2 * c - 2, c - 1)
        # Feasible, and tight on each vertex's tree.
        assert np.all(f[:, :, None] + g[:, None, :] <= cost + 1e-12)
        i, j = np.divmod(edges, c)
        tight = np.take_along_axis(f, i, 1) + np.take_along_axis(g, j, 1)
        np.testing.assert_allclose(tight, cost[i, j], atol=1e-12)

    @pytest.mark.parametrize("c", [3, 4])
    @pytest.mark.parametrize("centers", ["generic", "equal columns", "zero", "square"])
    def test_vertex_set_equals_brute_force(self, rng, c, centers):
        w2 = {"generic": rng.standard_normal((3, c)),
              "equal columns": rng.standard_normal((3, c))[:, [0, 0] + list(range(2, c))],
              "zero": np.zeros((3, c)),
              "square": np.array([[0.0, 1.0, 0.0, 1.0], [0.0, 0.0, 1.0, 1.0]])[:, :c]}[centers]
        cost = class_cost(w2)
        f, g, _, _, walked = gradspace._dual_vertices(cost)
        assert walked == math.comb(2 * c - 2, c - 1)
        found = np.unique(np.round(np.concatenate([f, g], axis=1), 9), axis=0)
        np.testing.assert_array_equal(found, brute_force_vertices(cost))

    def test_plan_flows_meet_the_marginals(self, rng):
        c = 4
        cost = class_cost(rng.standard_normal((5, c)))
        _, _, edges, flows, _ = gradspace._dual_vertices(cost)
        a, b = rng.dirichlet(np.ones(c)), rng.dirichlet(np.ones(c))
        for tree, flow in zip(edges, flows):
            plan = np.zeros(c * c)
            plan[tree] = flow @ np.concatenate([a, b])
            plan = plan.reshape(c, c)
            np.testing.assert_allclose(plan.sum(axis=1), a, atol=1e-12)
            np.testing.assert_allclose(plan.sum(axis=0), b, atol=1e-12)


class TestExactW2:
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(data=st.data())
    def test_property_matches_linear_program(self, data):
        c = data.draw(st.integers(2, 5), label="classes")
        w2 = data.draw(arrays(np.float64, (3, c), elements=st.floats(-3.0, 3.0)), label="w2")
        raw = data.draw(arrays(np.float64, (3, c), elements=st.floats(0.0, 1.0)), label="raw")
        raw[raw.sum(axis=1) == 0] = 1.0
        probs = raw / raw.sum(axis=1, keepdims=True)
        out = pairwise_w2_exact(probs, w2).entries
        expected = pair_oracles(gradient_supports(probs, w2), probs, 2.0)
        np.testing.assert_allclose(out, expected, rtol=1e-9,
                                   atol=1e-10 * (1.0 + class_cost(w2).max()))

    @pytest.mark.parametrize("c", [3, 4, 5])
    def test_at_or_below_sinkhorn_plans(self, rng, c):
        # Every rounded Sinkhorn plan is feasible, so its cost bounds the
        # exact value from above.
        w2, probs = rng.standard_normal((6, c)), rng.dirichlet(np.ones(c), 12)
        exact = pairwise_w2_exact(probs, w2).entries
        plans = pairwise_wasserstein(gradient_supports(probs, w2), probs).entries
        assert np.all(exact <= plans + 1e-12)

    @pytest.mark.parametrize("centers", ["equal columns", "zero"])
    def test_degenerate_cost_matches_linear_program(self, rng, centers):
        c = 6
        w2 = rng.standard_normal((4, c))
        w2 = w2[:, [0, 0, 2, 3, 4, 5]] if centers == "equal columns" else 0.0 * w2
        probs = rng.dirichlet(np.full(c, 0.5), 6)
        out = pairwise_w2_exact(probs, w2).entries
        expected = pair_oracles(gradient_supports(probs, w2), probs, 2.0)
        np.testing.assert_allclose(out, expected, rtol=1e-9, atol=1e-12)
        if centers == "zero":
            assert np.all(out == 0.0)

    def test_two_classes_agree_with_closed_form(self, rng):
        # The reference is pairwise_wasserstein's two-class solver
        # (_two_class_exact) on the measures' supports.
        w2, probs = rng.standard_normal((64, 2)), confident_two_class(rng, 60)
        probs[:20] = rng.dirichlet([1.0, 1.0], 20)
        exact = pairwise_w2_exact(probs, w2).entries
        closed = pairwise_wasserstein(gradient_supports(probs, w2), probs).entries
        assert np.abs(exact - closed).max() <= 1e-12 * closed.max()

    @pytest.mark.parametrize("seed", range(3))
    def test_long_double_error_no_worse_than_closed_form(self, seed):
        # On a confident head, most pairs move most of their mass. The exact
        # path sums nonnegative terms; the reference it must not trail,
        # pairwise_wasserstein's _two_class_exact, prices each pair from the
        # measures' support differences.
        rng = np.random.default_rng(seed)
        w2, probs = rng.standard_normal((64, 2)), confident_two_class(rng, 80)
        reference = long_double_two_class(probs, w2)
        exact = pairwise_w2_exact(probs, w2).entries
        closed = pairwise_wasserstein(gradient_supports(probs, w2), probs).entries
        for summary in (np.max, np.mean):
            assert summary(np.abs(exact - reference)) <= summary(np.abs(closed - reference))

    @pytest.mark.parametrize("width", [1, 2, 5])
    def test_distinct_rows_match_unique_form(self, rng, width):
        # Repeated rows, rows equal in a prefix only, and -0.0 beside 0.0
        # (equal values, so one row).
        for _ in range(50):
            n = int(rng.integers(1, 40))
            keys = rng.integers(0, 3, size=(n, width)).astype(float)
            keys[rng.random((n, width)) < 0.2] = -0.0
            keep, inverse = gradspace._distinct_rows(keys)
            want_keep, want_inverse = distinct_rows(keys)
            assert np.array_equal(keep, want_keep) and np.array_equal(inverse, want_inverse)
            assert inverse.dtype == want_inverse.dtype

    def test_duplicates_zero_diagonal_and_exact_symmetry(self, rng):
        w2, probs = rng.standard_normal((5, 3)), rng.dirichlet(np.ones(3), 4)
        order = [0, 1, 0, 2, 3, 1, 2]
        out = pairwise_w2_exact(probs[order], w2, ids=list("abcdefg")).entries
        assert out[0, 2] == out[1, 5] == out[3, 6] == 0.0
        assert np.all(np.diag(out) == 0.0)
        assert np.array_equal(out, out.T)
        distinct = pairwise_w2_exact(probs, w2).entries
        np.testing.assert_array_equal(out, distinct[np.ix_(order, order)])
        assert np.all(distinct[~np.eye(4, dtype=bool)] > 0)

    def test_logs_vertices_and_walk(self, rng, caplog):
        with caplog.at_level(logging.DEBUG, logger="allwas.gradspace"):
            pairwise_w2_exact(rng.dirichlet(np.ones(4), 5), rng.standard_normal((3, 4)))
        assert "4 classes, 20 dual vertices from 20 trees" in caplog.text

    def test_logs_two_class_pass(self, rng, caplog):
        # One line, with the distinct rows the matrix is built over.
        probs = rng.dirichlet(np.ones(2), 6)
        with caplog.at_level(logging.DEBUG, logger="allwas.gradspace"):
            pairwise_w2_exact(probs[[0, 1, 2, 3, 4, 5, 0]], rng.standard_normal((3, 2)))
        assert caplog.messages == [
            "pairwise_w2_exact: 2 classes, 2 dual vertices from 2 trees, 6 rows in one blended pass"]

    @pytest.mark.parametrize("case", ["dirichlet", "confident", "one-hot", "repeated",
                                      "equal-columns", "one-row", "one-feature"])
    def test_two_class_pass_equals_vertex_blocks(self, rng, monkeypatch, case):
        # The blended pass writes bitwise the entries that grouping the
        # pairs by their attaining vertex (_exact_block) writes.
        n, h = (1 if case == "one-row" else 381), (1 if case == "one-feature" else 64)
        w2, probs = rng.standard_normal((h, 2)), rng.dirichlet(np.ones(2), n)
        if case == "confident":
            probs = confident_two_class(rng, n)
        elif case == "one-hot":
            probs[::3] = np.eye(2)[rng.integers(0, 2, len(probs[::3]))]
        elif case == "repeated":
            probs[rng.integers(0, n, 150)] = probs[0]
        elif case == "equal-columns":
            w2[:, 1] = w2[:, 0]
        blended = pairwise_w2_exact(probs, w2).entries
        monkeypatch.setattr(gradspace, "_two_class_fill",
                            lambda dist, probs, f, g, flows, gap: gradspace._vertex_fill(
                                dist, probs, f, g, flows, np.stack([gap] * len(f))))
        assert pairwise_w2_exact(probs, w2).entries.tobytes() == blended.tobytes()

    def test_two_class_entries_depend_only_on_their_pair(self, rng):
        # Any 20 rows of a 381-row pool, kept in pool order, give bitwise
        # the full matrix's entries for their pairs: an entry is its pair's
        # alone, given which of the two rows comes first.
        w2, probs = rng.standard_normal((64, 2)), rng.dirichlet(np.ones(2), 381)
        probs[:100] = confident_two_class(rng, 100)
        full = pairwise_w2_exact(probs, w2).entries
        sub = np.sort(rng.choice(381, size=20, replace=False))
        part = pairwise_w2_exact(probs[sub], w2).entries
        assert np.array_equal(part, full[np.ix_(sub, sub)])

    @pytest.mark.parametrize("c", [2, 5])
    @pytest.mark.parametrize("cells", [1, 97])
    def test_independent_of_block_size(self, rng, monkeypatch, c, cells):
        # Blocks of one row, and of a prime number of cells (so blocks
        # straddle no fixed row count), against the default: at C = 2 each
        # entry is a function of its pair alone (and of which row comes
        # first), so bitwise the same; beyond, a vertex's plan products may
        # round differently with the number of pairs it has in a block.
        w2, probs = rng.standard_normal((16, c)), rng.dirichlet(np.ones(c), 90)
        if c == 2:
            probs[:40] = confident_two_class(rng, 40)
        whole = pairwise_w2_exact(probs, w2).entries
        monkeypatch.setattr(gradspace, "_BLOCK_CELLS", cells)
        blocked = pairwise_w2_exact(probs, w2).entries
        if c == 2:
            assert np.array_equal(blocked, whole)
        else:
            np.testing.assert_allclose(blocked, whole, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("c", [2, 5])
    def test_peak_memory_at_default_scale(self, rng, c):
        # The default acquisition compares a 256-row subsample with up to
        # 150 labeled rows. The matrix is the only (N, N) array, blocks of
        # at most _BLOCK_CELLS cells hold the rest, and the peak measured
        # 1.36 (C = 2) and 1.32 (C = 5) output matrices; one (N, N, C) or
        # (N, N, K) array alone would be 5 or 70 at C = 5.
        n = 406
        w2, probs = rng.standard_normal((64, c)), rng.dirichlet(np.ones(c), n)
        pairwise_w2_exact(probs[:5], w2)
        tracemalloc.start()
        try:
            out = pairwise_w2_exact(probs, w2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * out.entries.nbytes


class TestExactW2Inputs:
    def test_w2_columns_must_match_classes(self, rng):
        with pytest.raises(ShapeError):
            pairwise_w2_exact(np.full((3, 2), 0.5), rng.standard_normal((4, 3)))

    def test_nonfinite_w2_rejected(self, rng):
        w2 = rng.standard_normal((4, 2))
        w2[1, 1] = np.inf
        with pytest.raises(AllwasError):
            pairwise_w2_exact(np.full((3, 2), 0.5), w2)

    @pytest.mark.parametrize("row", [[0.6, 0.6], [1.2, -0.2]])
    def test_rows_off_simplex_rejected(self, rng, row):
        probs = np.full((3, 2), 0.5)
        probs[1] = row
        with pytest.raises(AllwasError):
            pairwise_w2_exact(probs, rng.standard_normal((4, 2)))

    def test_empty_and_id_count_rejected(self, rng):
        with pytest.raises(ShapeError):
            pairwise_w2_exact(np.empty((0, 2)), rng.standard_normal((4, 2)))
        with pytest.raises(ShapeError):
            pairwise_w2_exact(np.full((3, 2), 0.5), rng.standard_normal((4, 2)), ids=[1, 2])
