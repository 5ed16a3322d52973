import itertools

import numpy as np
import pytest

from allwas.errors import AllwasError
from allwas.transport import DiscreteMeasure, ground_cost
from conftest import random_measure
from oracles import exact_distance_oracle


class TestExactOracle:
    def test_dirac_pair(self):
        a = DiscreteMeasure.dirac([0.0])
        b = DiscreteMeasure.dirac([3.0])
        assert exact_distance_oracle(a, b, p=2) == pytest.approx(9.0)

    def test_two_point_enumeration(self):
        a = DiscreteMeasure.uniform(np.array([0.0, 1.0]))
        b = DiscreteMeasure.uniform(np.array([1.0, 2.0]))
        # Enumerating both bijections: {0->1, 1->2} costs (1+1)/2 = 1,
        # {0->2, 1->1} costs (4+0)/2 = 2.
        assert exact_distance_oracle(a, b, p=2) == pytest.approx(1.0)

    def test_matches_full_enumeration(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 6))
            a = random_measure(rng, n, 2, uniform=True)
            b = random_measure(rng, n, 2, uniform=True)
            cost = ground_cost(a, b, p=2)
            best = min(
                sum(cost[i, perm[i]] for i in range(n)) / n
                for perm in itertools.permutations(range(n))
            )
            assert exact_distance_oracle(a, b, p=2) == pytest.approx(best, rel=1e-12)

    def test_symmetric(self, rng):
        a = DiscreteMeasure.uniform(rng.standard_normal(5))
        b = DiscreteMeasure.uniform(rng.standard_normal(7))
        assert exact_distance_oracle(a, b) == pytest.approx(exact_distance_oracle(b, a))

    def test_unsupported_shape_mentions_sinkhorn(self, rng):
        a = random_measure(rng, 3, 2)
        b = random_measure(rng, 4, 2)
        with pytest.raises(AllwasError, match="sinkhorn_distance"):
            exact_distance_oracle(a, b)

    def test_1d_weighted(self, rng):
        # Weighted 1D measures against a dense-grid approximation of the
        # quantile coupling.
        a = DiscreteMeasure(np.array([0.0, 2.0]), np.array([0.25, 0.75]))
        b = DiscreteMeasure(np.array([1.0, 3.0]), np.array([0.5, 0.5]))
        # Quantile coupling by hand: 0.25 of mass 0->1, 0.25 of 2->1, 0.5 of 2->3.
        expected = 0.25 * 1 + 0.25 * 1 + 0.5 * 1
        assert exact_distance_oracle(a, b, p=2) == pytest.approx(expected)
