import itertools

import numpy as np
import pytest

from allwas import coreset
from allwas.coreset import default_s0_cost, greedy_select
from allwas.errors import AllwasError
from allwas.gradspace import DistanceMatrix
from oracles import brute_force_opt, naive_greedy, objective_L


def line_matrix():
    """Four points on a line at 0, 1, 10, 11 with squared distances."""
    xs = np.array([0.0, 1.0, 10.0, 11.0])
    entries = (xs[:, None] - xs[None, :]) ** 2
    return DistanceMatrix(entries, ids=(0, 1, 2, 3))


def random_matrix(rng, n):
    pts = rng.standard_normal((n, 2))
    entries = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1)
    return DistanceMatrix(entries, ids=tuple(range(n)))


class TestObjective:
    def test_full_selection_is_zero(self):
        m = line_matrix()
        assert objective_L(m, [0, 1, 2, 3], s0_cost=7.0) == pytest.approx(0.0)

    def test_empty_selection(self):
        m = line_matrix()
        assert objective_L(m, [], s0_cost=7.0) == pytest.approx(28.0)

    def test_hand_enumerated_minima(self):
        # selected = points at 0 and 10: minima are 0, 1, 0, 1.
        m = line_matrix()
        assert objective_L(m, [0, 2], s0_cost=1e9) == pytest.approx(2.0)

    def test_invalid_id(self):
        with pytest.raises(AllwasError):
            objective_L(line_matrix(), [99], s0_cost=1.0)


class TestGreedy:
    def test_line_instance_covers_both_clusters(self):
        m = line_matrix()
        state = greedy_select(m, k=2)
        assert len(set(state.selected) & {0, 1}) == 1
        assert len(set(state.selected) & {2, 3}) == 1
        # Brute force over all 2-subsets agrees this is optimal coverage.
        best = min(
            objective_L(m, list(combo), default_s0_cost(m))
            for combo in itertools.combinations(m.ids, 2)
        )
        assert objective_L(m, state.selected, default_s0_cost(m)) == pytest.approx(best)

    def test_select_everything_reaches_max(self):
        m = line_matrix()
        s0 = default_s0_cost(m)
        state = greedy_select(m, k=4)
        assert state.value == pytest.approx(4 * s0)
        assert objective_L(m, state.selected, s0) == pytest.approx(0.0)

    def test_nemhauser_bound(self, rng):
        for _ in range(200):
            m = random_matrix(rng, 8)
            state = greedy_select(m, k=3)
            _, opt = brute_force_opt(m, k=3)
            assert state.value >= (1 - 1 / np.e) * opt - 1e-9

    def test_lazy_equals_naive(self, rng):
        for _ in range(100):
            n = int(rng.integers(4, 12))
            k = int(rng.integers(1, n))
            m = random_matrix(rng, n)
            lazy = greedy_select(m, k=k)
            naive = naive_greedy(m, k=k)
            assert lazy.selected == naive.selected
            assert lazy.value == naive.value

    @pytest.mark.parametrize("cells", [1, 30])
    def test_first_gains_are_each_columns_gain(self, rng, monkeypatch, cells):
        # A block of candidates at a time, each from its column: the matrix
        # is symmetric only to 1e-9 here.
        monkeypatch.setattr(coreset, "_BLOCK_CELLS", cells)
        for _ in range(30):
            n = int(rng.integers(2, 25))
            entries = random_matrix(rng, n).entries + rng.uniform(0, 1e-9, (n, n))
            np.fill_diagonal(entries, 0.0)
            m = DistanceMatrix(entries, ids=tuple(range(n)))
            minima = coreset._minima(m, [0], coreset.default_s0_cost(m))
            candidates = list(rng.permutation(n)[:int(rng.integers(1, n + 1))])
            assert coreset._first_gains(m, minima, candidates) == [
                coreset._gain(minima, entries[:, i]) for i in candidates]

    def test_warm_start_covers_neighbors(self):
        m = line_matrix()
        # With 10 and 11 already labeled, greedy favors the left cluster.
        state = greedy_select(m, k=1, warm_start=[2, 3])
        assert state.selected[0] in (0, 1)

    def test_k_exceeding_pool_rejected(self):
        with pytest.raises(AllwasError):
            greedy_select(line_matrix(), k=3, warm_start=[0, 1])

    def test_value_non_decreasing_along_trajectory(self, rng):
        m = random_matrix(rng, 10)
        values = [greedy_select(m, k=k).value for k in range(1, 10)]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
        assert all(v >= 0 for v in values)

    def test_ties_break_to_lowest_id(self):
        entries = np.ones((4, 4)) - np.eye(4)
        m = DistanceMatrix(entries, ids=(0, 1, 2, 3))
        state = greedy_select(m, k=2)
        assert state.selected == (0, 1)


class TestBruteForce:
    def test_k1_on_line_instance(self):
        m = line_matrix()
        ids, value = brute_force_opt(m, k=1)
        s0 = default_s0_cost(m)
        expected = {i: objective_L(m, [i], s0) for i in m.ids}
        best_id = min(expected, key=lambda i: (expected[i], i))
        assert objective_L(m, list(ids), s0) == pytest.approx(expected[best_id])

    def test_full_k_gives_total_cover(self):
        m = line_matrix()
        s0 = default_s0_cost(m)
        _, value = brute_force_opt(m, k=4)
        assert value == pytest.approx(4 * s0)

    def test_agrees_with_greedy_on_symmetric_instance(self):
        entries = 3.0 * (np.ones((5, 5)) - np.eye(5))
        m = DistanceMatrix(entries, ids=tuple(range(5)))
        state = greedy_select(m, k=2)
        _, opt = brute_force_opt(m, k=2)
        assert state.value == pytest.approx(opt)

    def test_rejects_huge_instances(self, rng):
        m = random_matrix(rng, 40)
        with pytest.raises(AllwasError):
            brute_force_opt(m, k=20)


class TestSubmodularProperties:
    def test_monotone_decrease_and_diminishing_returns(self, rng):
        # Lemma-style monotonicity, trajectory monotonicity of the
        # complement objective, and diminishing returns, all on shared
        # random instances.
        for _ in range(1000):
            n = int(rng.integers(3, 9))
            m = random_matrix(rng, n)
            s0 = default_s0_cost(m)
            ids = list(m.ids)
            size_b = int(rng.integers(1, n))
            b = sorted(rng.choice(ids, size=size_b, replace=False).tolist())
            size_a = int(rng.integers(0, len(b) + 1))
            a = sorted(rng.choice(b, size=size_a, replace=False).tolist()) if size_a else []
            outside = [i for i in ids if i not in b]
            if not outside:
                continue
            e = int(rng.choice(outside))

            # Adding an element never increases the coverage objective.
            assert objective_L(m, b + [e], s0) <= objective_L(m, b, s0) + 1e-12

            # Diminishing returns: gain at the subset dominates.
            def f(sel):
                return n * s0 - objective_L(m, sel, s0)

            gain_a = f(a + [e]) - f(a)
            gain_b = f(b + [e]) - f(b)
            assert gain_a >= gain_b - 1e-12
