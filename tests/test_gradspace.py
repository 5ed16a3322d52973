import logging
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import linprog

from allwas import gradspace
from allwas.errors import AllwasError, ShapeError
from allwas.gradspace import (
    DistanceMatrix,
    pairwise_wasserstein,
    save_distance_csv,
)
from allwas.transport import (
    DiscreteMeasure,
    exact_distance_oracle,
    ground_cost,
    sinkhorn_distance,
)


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
        assert gradspace._pairs_per_chunk(3) < 4950 // 20
        tracemalloc.start()
        try:
            out = pairwise_wasserstein(supports, weights, max_iter=20)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= gradspace._CHUNK_BYTES + 2 * out.entries.nbytes

    def test_csv_dump(self, rng, tmp_path):
        grads = [random_gradient_measure(rng, 2, 3) for _ in range(3)]
        out = pairwise_wasserstein(*stack(grads), ids=[4, 5, 6])
        path = tmp_path / "dist.csv"
        save_distance_csv(out, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "id,4,5,6"
        assert len(lines) == 4


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
