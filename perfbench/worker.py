"""One benchmark process: set up allwas, then run one workload's samples.

Started by run.py. It prints ``ready`` once set-up (import
plus ``load_corpus``) is done, so the parent can time set-up from process
start. In ``--setup-only`` mode it exits there. Otherwise it starts
samples until ``--seconds`` have passed and enough have run (see
``samples_done``; the last one runs to its end), checks each sample's
output, and prints one JSON line describing them.

A sample is one ``run_experiment`` call, or one ``run_sweep`` call for
``kde-sweep``, with ``repeats=1``, into a fresh output directory so that
nothing is resumed. With ``--trace 1`` traced samples run with every
layer wrapped (layers.py), and the spans go to ``--out``/spans.jsonl.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time
from contextlib import nullcontext

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

# The acceptance-suite scale: CORPUS_SPEC, E2E_BASE and AUG_KNOBS of
# tests/test_acceptance.py. The workload seed offsets the corpus seed and
# the master seed, so seed 0 is exactly the acceptance configuration.
CORPUS_SEED = 1234
MASTER_SEED = 100
SYNTH = {"n": 2000, "d": 32, "priors": [0.9, 0.1], "clusters_per_class": 4,
         "noise": 1.2, "separation": 5.0}
BASE = dict(
    setting="imbalanced",
    seed_size=25,
    budget=150,
    k=25,
    repeats=1,
    val_fraction=0.2,
    model={"hidden_dim": 64, "dropout": 0.1, "epochs": 30,
           "batch_size": 25, "lr": 0.03},
    ot={"subsample": 256, "max_iter": 120, "tol": 1e-6},
)
AUG_KNOBS = {"group_size": 2, "outer_iter": 3, "sinkhorn_max_iter": 60}
SWEEP_STRATEGIES = ["random", "lc", "dropout", "egl", "kcenter"]
# A repeat of augment-wasserstein or kde-sweep takes 13-21 s on a 2-core
# box, so the run length alone would leave some runs with one sample.
MIN_SAMPLES = 2

# workload -> (ALLWAS_THREADS, cell overrides); kde-sweep sweeps "strategy".
WORKLOADS = {
    "acquire-allwas": (1, {"strategy": "allwas", "augmentation": {"mode": "none"}}),
    "augment-wasserstein": (1, {"strategy": "random", "augmentation": {
        "mode": "wasserstein", "factor": 20, **AUG_KNOBS}}),
    "kde-sweep": (2, {"strategy": "random", "augmentation": {
        "mode": "l2-kde", "factor": 20}}),
}


def corpus_spec(seed: int) -> dict:
    return {"synthetic": {**SYNTH, "seed": CORPUS_SEED + seed}}


def cell_config(workload: str, seed: int, out_dir: str):
    from allwas.harness import ExperimentConfig

    _, overrides = WORKLOADS[workload]
    return ExperimentConfig(corpus=corpus_spec(seed), out_dir=out_dir, label=workload,
                            master_seed=MASTER_SEED + seed, **BASE, **overrides)


def f1_aulc(rows, budget: int, seed_size: int) -> float:
    """Mean over repeats of the trapezoid area under F1 vs labeled count,
    divided by budget - seed_size."""
    by_repeat = {}
    for row in rows:
        by_repeat.setdefault(row.seed, []).append((row.labeled, row.f1))
    areas = []
    for points in by_repeat.values():
        points.sort()
        area = sum((x1 - x0) * (y0 + y1) / 2
                   for (x0, y0), (x1, y1) in zip(points, points[1:]))
        areas.append(area / (budget - seed_size))
    return sum(areas) / len(areas)


def check_cell(cfg, record) -> list:
    """Output problems of one cell of ``cfg``: row count and F1 range."""
    problems = []
    want = cfg.repeats * cfg.iterations_per_repeat()
    if len(record.rows) != want:
        problems.append(f"{record.label}: {len(record.rows)} rows, want {want}")
    bad = [row.f1 for row in record.rows if not 0.0 <= row.f1 <= 1.0]
    if bad:
        problems.append(f"{record.label}: f1 outside [0, 1]: {bad[:3]}")
    return problems


def run_sample(workload: str, seed: int, corpus, out_dir: str, tracer=None) -> dict:
    """Run one sample and check its outputs."""
    from allwas import harness

    base = cell_config(workload, seed, out_dir)
    started = time.perf_counter()
    if workload == "kde-sweep":
        span = tracer.span("harness.sweep") if tracer else nullcontext()
        with span:
            records = harness.run_sweep(base, "strategy", SWEEP_STRATEGIES)
    else:
        records = [harness.run_experiment(base, corpus)]
    seconds = time.perf_counter() - started

    problems, digest = [], hashlib.sha256()
    for record in records:
        problems += check_cell(base, record)
        with open(os.path.join(out_dir, f"{record.label}.csv"), "rb") as fh:
            digest.update(fh.read())
    aulc = [f1_aulc(r.rows, base.budget, base.seed_size) for r in records]
    return {"seconds": seconds, "repeats": base.repeats, "sha256": digest.hexdigest(),
            "f1_aulc": sum(aulc) / len(aulc), "problems": problems}


def schedule(trace: bool):
    """Kinds of the samples to run, in order.

    Untraced runs time every sample. A traced run starts with an untimed
    warm-up (the first repeat in a process is slower), then alternates
    traced and untraced samples, whose difference is the tracing overhead.
    """
    if not trace:
        while True:
            yield "timed"
    yield "warmup"
    while True:
        yield "traced"
        yield "untraced"


def samples_done(samples, trace: bool, started: float, seconds: float) -> bool:
    """True once --seconds have passed and each kind has its minimum
    count: MIN_SAMPLES timed samples, or one traced and one untraced."""
    needed = {"traced": 1, "untraced": 1} if trace else {"timed": MIN_SAMPLES}
    enough = all(sum(s["kind"] == kind for s in samples) >= count
                 for kind, count in needed.items())
    return enough and time.perf_counter() - started >= seconds


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, SRC)
    import allwas  # noqa: F401  (set-up includes the package import)
    from allwas import harness

    tracer = None
    if args.trace and not args.setup_only:
        from layers import SETUP, install
        from spans import Tracer

        tracer = Tracer()
        tracer.sample = SETUP
        install(tracer)
    corpus = harness.load_corpus(corpus_spec(args.seed))
    if tracer:
        tracer.restore()
    print("ready", flush=True)
    if args.setup_only:
        return 0

    samples = []
    started = time.perf_counter()
    for index, kind in enumerate(schedule(tracer is not None)):
        if samples_done(samples, tracer is not None, started, args.seconds):
            break
        traced = kind == "traced"
        out_dir = os.path.join(args.out, f"sample{index}")
        try:
            if traced:
                tracer.sample = f"sample{index}"
                install(tracer)
                with tracer.span("sample"):
                    result = run_sample(args.workload, args.seed, corpus, out_dir, tracer)
            else:
                result = run_sample(args.workload, args.seed, corpus, out_dir)
        except Exception as exc:  # a failed sample is counted, not fatal
            result = {"seconds": None, "repeats": 0, "sha256": None, "f1_aulc": None,
                      "problems": [f"{type(exc).__name__}: {exc}"]}
        finally:
            if traced:
                tracer.restore()
        result["kind"] = kind
        samples.append(result)

    import numpy
    import scipy

    report = {"samples": samples,
              "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__},
              "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if tracer is not None:
        from layers import summarize

        tracer.write(os.path.join(args.out, "spans.jsonl"))
        repeats = sum(s["repeats"] for s in samples if s["kind"] == "traced") or 1
        report["layers"] = summarize(tracer.spans, repeats, harness.thread_budget())
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
