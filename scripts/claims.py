"""The acceptance suite's end-to-end comparisons across master seeds.

Runs the cells of criteria 7, 8 and 11 of ``tests/test_acceptance.py`` at
master seeds 100-111, with the suite's corpus, knobs and checks unchanged
(only ``master_seed`` varies), and prints one JSON line. For each
comparison (c07a, c07b, c07c, c08, c11) it gives the number of seeds it
holds at, each seed's margin (the first mean less the second) and p value
(null where the criterion runs no test; c11's is the larger of its budget
and learning-curve p values), and their medians.

    python3 scripts/claims.py

Seeds run in ``ALLWAS_THREADS`` worker processes (default 1), each seed's
cells serially in one of them. A seed takes about 11 s on one core.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import sys
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

import test_acceptance as acceptance  # noqa: E402
from allwas.harness import thread_budget  # noqa: E402

MASTER_SEEDS = range(100, 112)


def seed_comparisons(master_seed: int) -> dict:
    """Every comparison at one master seed, as name -> (holds, margin, p)."""
    os.environ["ALLWAS_THREADS"] = "1"          # this seed's cells serially
    with tempfile.TemporaryDirectory() as out:
        e2e_dir, c11_dir = os.path.join(out, "e2e"), os.path.join(out, "c11")
        records = acceptance._e2e_cells(e2e_dir, master_seed)
        found = {**acceptance.c07_comparisons(records),
                 "c08": acceptance.c08_comparison(records),
                 "c11": acceptance.c11_comparison(acceptance._c11_cells(c11_dir, master_seed))}
    return {name: (bool(ok), float(margin), None if p is None else float(p))
            for name, (ok, margin, p, _) in found.items()}


def report(per_seed: list) -> dict:
    """The JSON report of the per-seed comparisons, seeds in order."""
    out = {"master_seeds": list(MASTER_SEEDS)}
    for name in per_seed[0]:
        holds, margins, ps = zip(*(seed[name] for seed in per_seed))
        out[name] = {
            "pass": sum(holds),
            "of": len(holds),
            "margins": [round(m, 4) for m in margins],
            "median_margin": round(float(np.median(margins)), 4),
            "p": None if ps[0] is None else [round(p, 4) for p in ps],
            "median_p": None if ps[0] is None else round(float(np.median(ps)), 4),
        }
    return out


def main() -> None:
    workers = min(thread_budget(), len(MASTER_SEEDS))
    if workers == 1:
        per_seed = [seed_comparisons(seed) for seed in MASTER_SEEDS]
    else:
        with multiprocessing.get_context("spawn").Pool(workers) as pool:
            per_seed = pool.map(seed_comparisons, MASTER_SEEDS, chunksize=1)
    print(json.dumps(report(per_seed)))


if __name__ == "__main__":
    main()
