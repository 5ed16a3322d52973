"""The traced layers of allwas and the per-layer metrics built from them.

Each layer is a span name recorded around one or more public functions,
wrapped at the module attribute their callers look them up by. The table
in README.md says which end-to-end metric each layer metric should move
on which workload.
"""

from __future__ import annotations

import numpy as np

from spans import Tracer, self_times


def _sinkhorn_counts(a, r):
    _, err, iterations, _, _ = r
    return {"problems": int(a["cost"].shape[0]), "sweeps": int(iterations),
            "unconverged": int(np.sum(err > a["tol"]))}


def _barycenter_counts(a, r):
    groups, sizes = a["groups"], list(a["support_sizes"])
    s_max = max(sizes)
    valid = padded = 0
    for i in range(len(groups[0])):
        counts = [group[i].shape[0] for group in groups]
        valid += sum(s * n for s, n in zip(sizes, counts))
        padded += len(groups) * s_max * max(counts)
    return {"groups": len(groups), "valid_cells": valid, "padded_cells": padded}


def install(tracer: Tracer) -> None:
    """Wrap every traced function of allwas; ``tracer.restore()`` undoes it."""
    from allwas import barysample, gradspace, harness, strategies, transport

    for module in (gradspace, transport):
        tracer.wrap(module, "sinkhorn_plans_batched", "transport.sinkhorn",
                    _sinkhorn_counts)
    tracer.wrap(barysample, "wasserstein_barycenter_batch", "transport.barycenter",
                _barycenter_counts)
    tracer.wrap(strategies, "pairwise_wasserstein", "gradspace.pairwise",
                lambda a, r: {"pairs": r.n * (r.n - 1) // 2})
    tracer.wrap(strategies, "greedy_select", "coreset.greedy")
    tracer.wrap(strategies, "gradient_arrays", "model.gradients")
    for module in (harness, strategies):
        tracer.wrap(module, "predict_proba_batch", "model.predict")
    tracer.wrap(harness, "train", "model.train",
                lambda a, r: {"rows": len(a["data"]) * a["head"].epochs})
    tracer.wrap(harness, "augment_wasserstein", "barysample.wasserstein",
                lambda a, r: {"synthetic": len(r)})
    tracer.wrap(harness, "augment_l2_kde", "barysample.kde",
                lambda a, r: {"synthetic": len(r)})
    tracer.wrap(harness, "acquire", "strategies.acquire")
    tracer.wrap(harness, "load_corpus", "data.load_corpus")
    tracer.wrap(harness, "build_seed", "data.build_seed")
    tracer.wrap(harness, "train_val_split", "data.split")
    tracer.wrap(harness, "run_experiment", "harness")


# layer -> counts it reports besides calls, self_s and errors
LAYERS = {
    "gradspace.pairwise": ("pairs",),
    "transport.sinkhorn": ("problems", "sweeps"),
    "transport.barycenter": ("groups",),
    "coreset.greedy": (),
    "model.train": ("rows",),
    "model.predict": (),
    "model.gradients": (),
    "barysample.wasserstein": ("synthetic",),
    "barysample.kde": ("synthetic",),
    "strategies.acquire": (),
    "data.load_corpus": (),
    "data.build_seed": (),
    "data.split": (),
    "harness": (),
}

SWEEP = "harness.sweep"
SAMPLE = "sample"
SETUP = "setup"


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def summarize(spans, repeats: int, workers: int) -> dict:
    """Per-layer metrics, each a total over the traced samples divided by
    the number of repeats they ran.

    ``data.load_corpus.self_s`` is the set-up load (the one inside
    ``setup_s``); loads made inside a sample (``run_sweep`` reloads its
    corpus) are ``data.load_corpus.sample_s`` per repeat.
    """
    own = self_times(spans)
    sampled = [s for s in spans if s.sample not in (None, SETUP)]
    out = {}
    for layer, extra in LAYERS.items():
        mine = [s for s in sampled if s.name == layer]
        totals = {key: sum(s.counts.get(key, 0) for s in mine)
                  for key in extra + ("errors", "unconverged", "valid_cells",
                                      "padded_cells")}
        out[f"{layer}.calls"] = len(mine) / repeats
        out[f"{layer}.self_s"] = sum(own[s.id] for s in mine) / repeats
        out[f"{layer}.errors"] = totals["errors"]
        for key in extra:
            out[f"{layer}.{key}"] = totals[key] / repeats
        if layer == "transport.sinkhorn":
            out[f"{layer}.unconverged_frac"] = _ratio(totals["unconverged"],
                                                      totals["problems"])
        if layer == "transport.barycenter":
            out[f"{layer}.pad_efficiency"] = _ratio(totals["valid_cells"],
                                                    totals["padded_cells"])

    setup_loads = [s for s in spans if s.sample == SETUP and s.name == "data.load_corpus"]
    out["data.load_corpus.sample_s"] = out["data.load_corpus.self_s"]
    out["data.load_corpus.self_s"] = sum(own[s.id] for s in setup_loads)
    out["data.load_corpus.errors"] += sum(s.counts.get("errors", 0) for s in setup_loads)

    # A sweep's cells hang off the sweep span; a single cell off its sample.
    waits, efficiencies = [], []
    for outer in (s for s in sampled if s.name in (SWEEP, SAMPLE)):
        cells = [s for s in sampled if s.name == "harness" and s.parent == outer.id]
        if not cells:
            continue
        waits += [c.start - outer.start for c in cells]
        busy = sum(c.end - c.start for c in cells)
        efficiencies.append(busy / ((outer.end - outer.start) * workers))
    out["harness.cell_wait_s"] = float(np.mean(waits)) if waits else 0.0
    out["harness.sweep_efficiency"] = float(np.mean(efficiencies)) if efficiencies else 0.0
    return out
