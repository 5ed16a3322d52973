"""The benchmark's tracer (perfbench/layers.py) wraps allwas functions by
module attribute and reads their arguments and results by name. This test
runs its ``install`` on tiny traced runs, so an API move that would break
the traced benchmark fails here first. perfbench/ is imported, not changed.
"""

import importlib
from pathlib import Path

import numpy as np
import pytest

from allwas import barysample, harness, model
from allwas.harness import ExperimentConfig
from allwas.model import ExampleEmbedding, TrainingSet

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
FACTOR = 3
EPOCHS = 2


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("layers"), importlib.import_module("spans")


def cell(tmp_path, label, strategy, mode):
    # Three classes, so allwas acquisition runs Sinkhorn too.
    return ExperimentConfig(
        corpus={"synthetic": {"n": 160, "d": 5, "priors": [0.5, 0.3, 0.2],
                              "noise": 0.8, "seed": 4}},
        out_dir=str(tmp_path), label=label, seed_size=10, budget=20, k=10,
        repeats=1, strategy=strategy, model={"hidden_dim": 8, "epochs": EPOCHS},
        augmentation={"mode": mode, "factor": FACTOR})


def test_traced_runs_bind_every_layer(perfbench, tmp_path):
    layers, spans = perfbench
    tracer = spans.Tracer()
    tracer.sample = "sample0"
    layers.install(tracer)
    try:
        with tracer.span(layers.SAMPLE):
            # Through the harness attribute, as the benchmark's worker calls it.
            wass = harness.run_experiment(cell(tmp_path, "wass", "allwas", "wasserstein"))
            kde = harness.run_experiment(cell(tmp_path, "kde", "random", "l2-kde"))
            # The experiment loop solves no barycenter; the token clouds of
            # one small synthetic set cover the transport.barycenter layer.
            rng = np.random.default_rng(0)
            embeddings = [ExampleEmbedding(rng.standard_normal((3, 5))) for _ in range(4)]
            labeled = TrainingSet(np.stack([emb.pooled for emb in embeddings]),
                                  np.eye(2)[[0, 1, 0, 1]])
            aug = barysample.AugmentationConfig(factor=1, outer_iter=1,
                                                sinkhorn_max_iter=5)
            barysample.barycenter_tokens(
                embeddings, barysample.augment_wasserstein(labeled, aug), aug)
    finally:
        tracer.restore()
    # restore() puts the originals back.
    assert harness.train is model.train
    assert harness.augment_wasserstein is barysample.augment_wasserstein

    for layer, extra in layers.LAYERS.items():
        mine = [s for s in tracer.spans if s.name == layer]
        assert mine, f"layer {layer} recorded no span"
        for span in mine:
            assert "errors" not in span.counts, layer
            assert set(extra) <= set(span.counts), (layer, span.counts)

    for record, layer in ((wass, "barysample.wasserstein"), (kde, "barysample.kde")):
        synthetic = [s.counts["synthetic"] for s in tracer.spans if s.name == layer]
        assert synthetic == [FACTOR * row.labeled for row in record.rows]
    trained = [s.counts["rows"] for s in tracer.spans if s.name == "model.train"]
    assert trained == [(1 + FACTOR) * row.labeled * EPOCHS
                       for row in wass.rows + kde.rows]

    metrics = layers.summarize(tracer.spans, repeats=1, workers=1)
    assert metrics["barysample.wasserstein.synthetic"] == FACTOR * sum(
        row.labeled for row in wass.rows)
    assert metrics["transport.barycenter.groups"] == 4
