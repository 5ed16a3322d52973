"""allwas benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload acquire-allwas --seed 0 --seconds 35 --trace 0

Run from the root of a source checkout; allwas is imported from ``src/``.
Set-up is timed in fresh processes (``--setup-only`` workers plus the
measuring worker); the samples run in one worker process with BLAS and
OpenMP pinned to one thread and ``ALLWAS_THREADS`` set per workload.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. The
line before it (``perfbench-info``) records the environment, the CSV
digest, the sample counts and ``failed_frac``. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

from worker import CORPUS_SEED, MASTER_SEED, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

SETUP_PROBES = 4          # set-up-only processes before an untraced run
WORKER_TIMEOUT_S = 170.0  # whole run, so the benchmark exits within 180 s
PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
          "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def git_commit(root: str) -> str:
    """HEAD's commit id read from .git, or "unknown" outside a repository."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_lines(root: str) -> int:
    total = 0
    for dirpath, _, files in os.walk(os.path.join(root, "src", "allwas")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name)) as fh:
                    total += sum(1 for line in fh if line.strip())
    return total


def start_worker(args, extra, env, deadline):
    """Start a worker, return (process, seconds from start to "ready")."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)] + extra
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter() - started
    if line.strip() != "ready":
        finish(proc, deadline)
        raise RuntimeError(f"worker did not set up (exit {proc.returncode})")
    return proc, ready


def finish(proc, deadline) -> str:
    """Wait for a worker until the deadline and return its remaining output."""
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("worker timed out")
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return out


def _per_repeat(samples: list, kind: str) -> list:
    return [s["seconds"] / s["repeats"] for s in samples
            if s["kind"] == kind and s["seconds"] is not None]


def end_to_end(setup: list, samples: list, peak_rss_mib: float) -> dict:
    aulc = [s["f1_aulc"] for s in samples if s["f1_aulc"] is not None]
    return {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "repeat_s": {"value": statistics.median(_per_repeat(samples, "timed")), "unit": "s"},
        "peak_rss_mib": {"value": peak_rss_mib, "unit": "MiB"},
        "f1_aulc": {"value": aulc[0], "unit": "ratio"},
    }


def per_layer(layers: dict, samples: list) -> dict:
    metrics = {name: {"value": value, "unit": _unit(name)}
               for name, value in sorted(layers.items())}
    overhead = (statistics.median(_per_repeat(samples, "traced"))
                - statistics.median(_per_repeat(samples, "untraced")))
    metrics["trace_overhead_s"] = {"value": overhead, "unit": "s"}
    return metrics


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_frac", "_efficiency")):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.perf_counter() + WORKER_TIMEOUT_S

    if not os.path.isfile(os.path.join(ROOT, "src", "allwas", "__init__.py")):
        print(f"perfbench: no allwas sources under {ROOT}/src", file=sys.stderr)
        return 2

    out = os.path.join(ROOT, ".bench_build", "perfbench",
                       f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    threads, _ = WORKLOADS[args.workload]
    env = dict(os.environ, ALLWAS_THREADS=str(threads))
    env.update({name: "1" for name in PINNED})

    setup = []
    for _ in range(0 if args.trace else SETUP_PROBES):
        proc, ready = start_worker(args, ["--out", out, "--setup-only"], env, deadline)
        finish(proc, deadline)
        setup.append(ready)
    proc, ready = start_worker(args, ["--out", out], env, deadline)
    setup.append(ready)
    report = json.loads(finish(proc, deadline).strip().splitlines()[-1])
    with open(os.path.join(out, "worker.json"), "w") as fh:
        json.dump(report, fh, indent=1)

    samples = report["samples"]
    reference = samples[0]["sha256"]
    failures = [s for s in samples
                if s["problems"] or s["sha256"] is None or s["sha256"] != reference]
    for s in failures:
        print(f"perfbench: failed sample: {s['problems'] or 'CSV differs'}",
              file=sys.stderr)
    if args.trace:
        metrics = per_layer(report["layers"], samples)
    else:
        metrics = end_to_end(setup, samples, report["peak_rss_mib"])

    info = {
        "workload": args.workload, "seed": args.seed,
        "corpus_seed": CORPUS_SEED + args.seed, "master_seed": MASTER_SEED + args.seed,
        "allwas_threads": threads, "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), **report["versions"],
        "commit": git_commit(ROOT), "src_lines": src_lines(ROOT),
        "csv_sha256": reference, "setup_samples": len(setup),
        "samples": {kind: sum(s["kind"] == kind for s in samples)
                    for kind in sorted({s["kind"] for s in samples})},
        "failed_frac": len(failures) / len(samples),
        "out_dir": os.path.relpath(out, ROOT),
    }
    print("perfbench-info " + json.dumps(info, sort_keys=True))
    print(json.dumps({"correct": not failures, "attempted": len(samples),
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
