"""Tests of the benchmark's span bookkeeping.

    python3 -m pytest perfbench/test_spans.py
"""

import threading
import types

import pytest

from layers import summarize
from spans import Span, Tracer, self_times


def _span(id, parent, start, end, name="x"):
    return Span(id=id, name=name, parent=parent, sample="s", start=start, end=end)


def test_self_time_subtracts_nested_children():
    # root [0, 10] > a [1, 4] > a1 [2, 3];  root > b [5, 9]
    spans = [_span(0, None, 0.0, 10.0), _span(1, 0, 1.0, 4.0),
             _span(2, 1, 2.0, 3.0), _span(3, 0, 5.0, 9.0)]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 3.0 - 4.0)
    assert own[1] == pytest.approx(3.0 - 1.0)
    assert own[2] == pytest.approx(1.0)
    assert own[3] == pytest.approx(4.0)
    # Self times of a tree partition the root's duration.
    assert sum(own.values()) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once():
    # Two cells run in parallel threads under one sweep span.
    spans = [_span(0, None, 0.0, 10.0), _span(1, 0, 1.0, 6.0), _span(2, 0, 2.0, 8.0)]
    assert self_times(spans)[0] == pytest.approx(10.0 - 7.0)


def test_self_time_clips_children_to_parent():
    spans = [_span(0, None, 0.0, 4.0), _span(1, 0, 3.0, 6.0), _span(2, 0, 5.0, 7.0)]
    assert self_times(spans)[0] == pytest.approx(3.0)


def test_wrap_records_parents_counts_errors_and_restores():
    module = types.SimpleNamespace()

    def leaf(x, scale=2):
        if x < 0:
            raise ValueError("negative")
        return x * scale

    def outer(x):
        return module.leaf(x) + 1

    module.leaf, module.outer = leaf, outer
    tracer = Tracer()
    tracer.sample = "s0"
    tracer.wrap(module, "leaf", "L", lambda a, r: {"scale": a["scale"], "out": r})
    tracer.wrap(module, "outer", "O")
    assert module.outer(3) == 7
    with pytest.raises(ValueError):
        module.leaf(-1)
    tracer.restore()
    assert module.leaf is leaf and module.outer is outer

    o, l1, l2 = tracer.spans
    assert (o.name, o.parent) == ("O", None)
    assert (l1.name, l1.parent, l1.counts) == ("L", o.id, {"scale": 2, "out": 6})
    assert l2.parent is None and l2.counts == {"errors": 1}
    assert all(s.sample == "s0" and s.end >= s.start for s in tracer.spans)


def test_pool_thread_spans_hang_off_the_blocked_main_thread_span():
    tracer = Tracer()
    with tracer.span("sweep") as sweep:
        def cell():
            with tracer.span("cell"):
                pass

        worker = threading.Thread(target=cell)
        worker.start()
        worker.join(timeout=5)
        assert not worker.is_alive()
    cell = next(s for s in tracer.spans if s.name == "cell")
    assert cell.parent == sweep.id


def test_summarize_per_repeat_and_sweep_metrics():
    spans = [
        Span(0, "data.load_corpus", None, "setup", 0.0, 1.0),
        Span(1, "sample", None, "sample1", 2.0, 12.0),
        Span(2, "harness.sweep", 1, "sample1", 2.0, 12.0),
        Span(3, "harness", 2, "sample1", 3.0, 9.0),
        Span(4, "harness", 2, "sample1", 3.0, 11.0),
        Span(5, "model.train", 3, "sample1", 4.0, 8.0, counts={"rows": 100}),
        Span(6, "transport.sinkhorn", 4, "sample1", 4.0, 5.0,
             counts={"problems": 4, "sweeps": 10, "unconverged": 1}),
    ]
    out = summarize(spans, repeats=1, workers=2)
    assert out["data.load_corpus.self_s"] == pytest.approx(1.0)
    assert out["data.load_corpus.calls"] == 0
    assert out["harness.calls"] == 2
    assert out["harness.self_s"] == pytest.approx((6.0 - 4.0) + (8.0 - 1.0))
    assert out["model.train.rows"] == 100
    assert out["transport.sinkhorn.unconverged_frac"] == pytest.approx(0.25)
    assert out["transport.barycenter.pad_efficiency"] == 0.0
    assert out["harness.cell_wait_s"] == pytest.approx(1.0)
    assert out["harness.sweep_efficiency"] == pytest.approx((6.0 + 8.0) / (10.0 * 2))
