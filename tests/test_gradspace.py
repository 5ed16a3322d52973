import logging

import numpy as np
import pytest

from allwas import gradspace
from allwas.errors import AllwasError, ShapeError
from allwas.gradspace import (
    DistanceMatrix,
    GradientMeasure,
    pairwise_wasserstein,
    save_distance_csv,
)
from allwas.transport import DiscreteMeasure, exact_distance_oracle


def random_gradient_measure(rng, c, h):
    support = rng.standard_normal((c, h))
    w = rng.random(c) + 0.1
    return GradientMeasure(DiscreteMeasure(support, w / w.sum()))


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
        clone = GradientMeasure(DiscreteMeasure(gm.support.copy(), gm.weights.copy()))
        out = pairwise_wasserstein([gm, clone, random_gradient_measure(rng, 3, 5)])
        assert out.entries[0, 1] < 1e-6
        assert out.entries[0, 2] > 1e-6

    def test_single_class_reduces_to_point_distance(self, rng):
        for p in (1.0, 2.0):
            a = GradientMeasure(DiscreteMeasure(rng.standard_normal((1, 4)), [1.0]))
            b = GradientMeasure(DiscreteMeasure(rng.standard_normal((1, 4)), [1.0]))
            out = pairwise_wasserstein([a, b], p=p)
            expected = np.linalg.norm(a.support[0] - b.support[0]) ** p
            assert out.entries[0, 1] == pytest.approx(expected, rel=1e-9)

    def test_matches_transport_oracles(self, rng):
        # Uniform-weight measures are oracle-eligible (equal sizes).
        grads = []
        for _ in range(5):
            support = rng.standard_normal((3, 4))
            grads.append(GradientMeasure(DiscreteMeasure.uniform(support)))
        out = pairwise_wasserstein(grads, eps=1e-3, max_iter=20000, tol=1e-9)
        for i in range(5):
            for j in range(i + 1, 5):
                exact = exact_distance_oracle(
                    grads[i].measure, grads[j].measure, p=2)
                assert out.entries[i, j] == pytest.approx(exact, rel=0.02, abs=1e-9)

    def test_symmetry_and_zero_diagonal(self, rng):
        grads = [random_gradient_measure(rng, 3, 4) for _ in range(6)]
        out = pairwise_wasserstein(grads)
        assert np.abs(np.diag(out.entries)).max() < 1e-12
        np.testing.assert_allclose(out.entries, out.entries.T, atol=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(AllwasError):
            pairwise_wasserstein([])

    def test_inconsistent_shapes_rejected(self, rng):
        with pytest.raises(ShapeError):
            pairwise_wasserstein([
                random_gradient_measure(rng, 2, 3),
                random_gradient_measure(rng, 3, 3),
            ])

    def test_triangle_inequality_w1(self, rng, caplog):
        # W_1 is a metric; entropic bias may perturb it slightly, so allow
        # 5% relative slack, log the rest, and require violations be rare.
        grads = [random_gradient_measure(rng, 3, 4) for _ in range(8)]
        out = pairwise_wasserstein(grads, p=1.0, max_iter=5000, tol=1e-8)
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
        whole = pairwise_wasserstein(grads)
        # A budget this small leaves a few pairs per chunk.
        monkeypatch.setattr(gradspace, "_CHUNK_BYTES", 3000)
        per_chunk = gradspace._pairs_per_chunk(3, 6)
        assert per_chunk < 66
        with caplog.at_level(logging.DEBUG, logger="allwas.gradspace"):
            chunked = pairwise_wasserstein(grads)
        assert np.array_equal(chunked.entries, whole.entries)
        assert f"66 pairs in {-(-66 // per_chunk)} chunks" in caplog.text

    def test_csv_dump(self, rng, tmp_path):
        grads = [random_gradient_measure(rng, 2, 3) for _ in range(3)]
        out = pairwise_wasserstein(grads, ids=[4, 5, 6])
        path = tmp_path / "dist.csv"
        save_distance_csv(out, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "id,4,5,6"
        assert len(lines) == 4
