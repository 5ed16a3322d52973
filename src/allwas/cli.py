"""Command-line interface.

    allwas ingest <jsonl> [--featurize d=64,seed=0] [--out normalized.jsonl]
    allwas synth <spec.json> [--out corpus.jsonl]
    allwas run <config.json>
    allwas sweep <config.json> --axis <axis> --values v1,v2,...
    allwas report <run-dir> [--out <dir>]
    allwas stats <run-dir> --pairs labelA:labelB[,labelC:labelD...]

Exit codes: 0 ok, 2 config error, 3 data error, 4 runtime failure.
A cell's results are <label>.csv and <label>.meta.json: run resumes from
them, report and stats read them, and a malformed one is a data error.
report refuses to write over a cell's CSV (a config error): pass --out.
stats prints significance.csv's rows for the given pairs (Bonferroni over them).
ALLWAS_THREADS is the number of worker processes a sweep runs its cells in
(default 1: serial); they start with fork where the platform has it, else
spawn. Each worker runs its block of cells in lockstep, and results are
written when a block ends.
"""

from __future__ import annotations

import argparse
import json
import sys

from .data import FeaturizerConfig, SynthSpec, export_jsonl, ingest_jsonl, make_synthetic
from .errors import AllwasError, ConfigError, DataError, config_from
from .harness import SWEEP_AXES, ExperimentConfig, run_experiment, run_sweep
from .report import load_records, report, significance_table


def _parse_kv(text: str) -> dict:
    out = {}
    for part in text.split(","):
        if not part:
            continue
        if "=" not in part:
            raise ConfigError(f"expected key=value, got {part!r}")
        key, value = part.split("=", 1)
        try:
            out[key.strip()] = int(value)
        except ValueError:
            raise ConfigError(f"expected an integer value, got {part!r}") from None
    return out


def _cmd_ingest(args) -> int:
    featurizer = None
    if args.featurize:
        featurizer = config_from(FeaturizerConfig, _parse_kv(args.featurize), "featurize")
    class_names = args.class_names.split(",") if args.class_names else None
    corpus = ingest_jsonl(args.path, featurizer=featurizer, class_names=class_names)
    print(f"ingested {corpus.n} examples, d={corpus.dim}, "
          f"classes={list(corpus.class_names)}, "
          f"target={corpus.class_names[corpus.target_class]}")
    if args.out:
        export_jsonl(corpus, args.out)
        print(f"wrote {args.out}")
    return 0


def _cmd_synth(args) -> int:
    with open(args.spec) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"bad synth spec JSON: {exc}") from exc
    corpus = make_synthetic(config_from(SynthSpec, raw, "synth spec"))
    out = args.out or "corpus.jsonl"
    export_jsonl(corpus, out)
    priors = ", ".join(f"{p:.3f}" for p in corpus.class_priors())
    print(f"wrote {out}: {corpus.n} examples, d={corpus.dim}, priors [{priors}]")
    return 0


def _cmd_run(args) -> int:
    cfg = ExperimentConfig.from_json(args.config)
    record = run_experiment(cfg)
    final = list(record.curve().values())[-1]
    print(f"cell {record.label}: {len(record.rows)} rows, "
          f"final mean f1 {final:.4f} -> {cfg.out_dir}")
    return 0


def _cmd_sweep(args) -> int:
    cfg = ExperimentConfig.from_json(args.config)
    values = [v for v in args.values.split(",") if v]
    records = run_sweep(cfg, args.axis, values)
    for rec in records:
        final = list(rec.curve().values())[-1]
        print(f"cell {rec.label}: final mean f1 {final:.4f}")
    return 0


def _cmd_report(args) -> int:
    records = load_records(args.directory)
    out = args.out or args.directory
    for path in report(records, out):
        print(f"wrote {path}")
    return 0


def _cmd_stats(args) -> int:
    records = load_records(args.directory)
    labels = {rec.label for rec in records}
    pairs = [chunk.split(":", 1) for chunk in args.pairs.split(",") if chunk]
    if not pairs:
        raise ConfigError("no pairs given")
    for pair in pairs:
        if len(pair) != 2:
            raise ConfigError(f"expected labelA:labelB, got {pair[0]!r}")
        for name in pair:
            if name not in labels:
                raise DataError(f"no cell named {name!r} in {args.directory}")
    significance_table(records, sys.stdout, pairs)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="allwas",
                                     description=__doc__.strip().splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="validate a JSONL corpus")
    p.add_argument("path")
    p.add_argument("--featurize", help="featurizer knobs, e.g. d=64,seed=0")
    p.add_argument("--class-names", help="comma-separated class names")
    p.add_argument("--out", help="write the normalized corpus here")
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("synth", help="generate a synthetic corpus")
    p.add_argument("spec")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("run", help="run one experiment cell")
    p.add_argument("config")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("sweep", help="paired sweep along one axis")
    p.add_argument("config")
    p.add_argument("--axis", required=True, choices=SWEEP_AXES)
    p.add_argument("--values", required=True)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("report", help="render CSV/SVG reports for a run dir")
    p.add_argument("directory")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("stats", help="pairwise significance for named cells")
    p.add_argument("directory")
    p.add_argument("--pairs", required=True)
    p.set_defaults(func=_cmd_stats)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except (AllwasError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
