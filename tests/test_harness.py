import importlib
import json
import multiprocessing
import os
import pickle
import subprocess
import sys
import tracemalloc
import xml.etree.ElementTree as ET
from dataclasses import replace

import numpy as np
import pytest

from allwas import harness
from allwas.cli import main as cli_main
from allwas.errors import AllwasError, ConfigError, DataError, ShapeError
from allwas.data import (FeaturizerConfig, SynthSpec, ingest_jsonl, make_synthetic,
                         train_val_split)
from allwas.harness import ExperimentConfig, load_corpus, run_experiment, run_sweep
from allwas.seeding import derive_seed
from allwas.stats import f1_macro, f1_target, wilcoxon_signed_rank
from allwas.strategies import STRATEGY_NAMES
from allwas.report import (
    EXACT_WILCOXON_LIMIT,
    learning_curve_svg,
    load_records,
    paired_f1,
    report,
    significance_table,
    validate_svg,
)

# The module: the package's ``report`` attribute is the function.
report_module = importlib.import_module("allwas.report")

SMALL_CORPUS = {"synthetic": {"n": 260, "d": 6, "priors": [0.7, 0.3],
                              "noise": 0.8, "seed": 11}}


def small_cfg(tmp_path, **kw):
    base = dict(
        corpus=SMALL_CORPUS,
        out_dir=str(tmp_path / "runs"),
        label="cell",
        setting="balanced",
        seed_size=10,
        strategy="random",
        budget=30,
        k=10,
        repeats=2,
        model={"hidden_dim": 8, "epochs": 2},
        master_seed=5,
    )
    base.update(kw)
    return ExperimentConfig(**base)


class TestConfig:
    def test_k_bounds(self, tmp_path):
        with pytest.raises(ConfigError):
            small_cfg(tmp_path, k=40, budget=30)

    def test_unknown_strategy(self, tmp_path):
        with pytest.raises(ConfigError):
            small_cfg(tmp_path, strategy="magic")

    def test_unknown_keys_in_json(self, tmp_path):
        # record_timing is retired: wall time never goes into the CSVs.
        for key, value in (("bogus_knob", 1), ("record_timing", True)):
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps({"corpus": SMALL_CORPUS, "out_dir": ".",
                                        key: value}))
            with pytest.raises(ConfigError, match=key):
                ExperimentConfig.from_json(path)

    def test_hash_of_unset_keys_is_stable(self):
        # The acceptance allwas cell: retiring a key it does not set must
        # leave its hash, and so a resume of its run directory, alone.
        cfg = ExperimentConfig(
            label="allwas", strategy="allwas", out_dir="runs",
            augmentation={"mode": "none"},
            corpus={"synthetic": {"n": 2000, "d": 32, "priors": [0.9, 0.1],
                                  "clusters_per_class": 4, "noise": 1.2,
                                  "separation": 5.0, "seed": 1234}},
            setting="imbalanced", seed_size=25, budget=150, k=25, repeats=10,
            master_seed=100, val_fraction=0.2,
            model={"hidden_dim": 64, "dropout": 0.1, "epochs": 30, "batch_size": 25,
                   "lr": 0.03},
            ot={"subsample": 256, "max_iter": 120, "tol": 1e-6})
        assert cfg.config_hash() == (
            "e437af60077084ba0b4609c75f67738ec0b576fc72be516af07b072415e2b6e1")

    def test_config_json_must_be_an_object(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("5")
        with pytest.raises(ConfigError, match="config must be a JSON object"):
            ExperimentConfig.from_json(path)

    @pytest.mark.parametrize("section, bad, message", [
        ("model", {"dropout": 1.5}, "dropout"),
        # No epoch or an empty batch would never end training.
        ("model", {"epochs": 0}, "epochs"), ("model", {"epochs": -2}, "epochs"),
        ("model", {"batch_size": 0}, "batch_size"), ("model", {"lr": -0.5}, "lr"),
        ("model", {"lr": 0}, "lr"), ("model", {"lr": float("inf")}, "lr"),
        ("model", {"lr": float("nan")}, "lr"),
        ("augmentation", {"mode": "l2-kde", "factor": -1}, "factor")])
    def test_bad_nested_value_rejected_at_build(self, tmp_path, section, bad, message):
        with pytest.raises(ConfigError, match=message):
            small_cfg(tmp_path, **{section: bad})

    @pytest.mark.parametrize("label", ["", ".", "..", "../escaped", "a/b", "/abs"])
    def test_label_must_be_a_file_name(self, tmp_path, label):
        with pytest.raises(ConfigError, match="label must be a file name"):
            small_cfg(tmp_path, label=label)

    @pytest.mark.parametrize("key, value", [("priors", np.array([0.7, 0.3])),
                                            ("n", np.int64(260))])
    def test_numpy_values_hash_as_plain_values(self, tmp_path, key, value):
        # The checks accept numpy values; the canonical JSON writes them as
        # the plain numbers and lists they hold.
        plain = small_cfg(tmp_path, repeats=1)
        cfg = small_cfg(tmp_path, repeats=1,
                        corpus={"synthetic": {**SMALL_CORPUS["synthetic"], key: value}})
        assert cfg.to_canonical_json() == plain.to_canonical_json()
        assert cfg.config_hash() == plain.config_hash()
        assert run_experiment(cfg).rows == run_experiment(
            replace(plain, out_dir=str(tmp_path / "plain"))).rows

    def test_iterations_per_repeat(self, tmp_path):
        cfg = small_cfg(tmp_path)
        assert cfg.iterations_per_repeat() == 3
        cfg2 = small_cfg(tmp_path, budget=10, k=5)
        assert cfg2.iterations_per_repeat() == 1


class TestRunExperiment:
    def test_budget_equals_seed_single_round(self, tmp_path):
        cfg = small_cfg(tmp_path, budget=10, k=5)
        record = run_experiment(cfg)
        assert len(record.rows) == cfg.repeats
        assert all(row.labeled == 10 and row.iteration == 0 for row in record.rows)

    def test_labeled_grows_by_k(self, tmp_path):
        cfg = small_cfg(tmp_path)
        record = run_experiment(cfg)
        for repeat in range(cfg.repeats):
            rows = [r for r in record.rows if r.seed == cfg.master_seed + repeat]
            assert [r.labeled for r in rows] == [10, 20, 30]
            assert [r.iteration for r in rows] == [0, 1, 2]

    def test_two_runs_identical_csv_bytes(self, tmp_path):
        cfg_a = small_cfg(tmp_path, out_dir=str(tmp_path / "a"))
        cfg_b = small_cfg(tmp_path, out_dir=str(tmp_path / "b"))
        run_experiment(cfg_a)
        run_experiment(cfg_b)
        a = (tmp_path / "a" / "cell.csv").read_bytes()
        b = (tmp_path / "b" / "cell.csv").read_bytes()
        assert a == b

    def test_random_improves_on_learnable_task(self, tmp_path):
        cfg = small_cfg(tmp_path, repeats=5, budget=60, k=25, seed_size=10,
                        corpus={"synthetic": {"n": 400, "d": 6,
                                              "priors": [0.5, 0.5],
                                              "noise": 0.5, "seed": 3}},
                        model={"hidden_dim": 16, "epochs": 5})
        record = run_experiment(cfg)
        first = np.mean([r.f1 for r in record.rows if r.iteration == 0])
        last_it = max(r.iteration for r in record.rows)
        last = np.mean([r.f1 for r in record.rows if r.iteration == last_it])
        assert last >= first

    def test_resume_skips_completed_repeats(self, tmp_path, monkeypatch):
        cfg = small_cfg(tmp_path)
        record = run_experiment(cfg)
        calls = []
        import allwas.harness as harness_mod
        original = harness_mod._run_repeat

        def spy(cfg_, corpus_, repeat_):
            calls.append(repeat_)
            return original(cfg_, corpus_, repeat_)

        monkeypatch.setattr(harness_mod, "_run_repeat", spy)
        again = run_experiment(cfg)
        assert calls == []
        assert again.rows == record.rows

    def test_resume_recomputes_partial_repeat(self, tmp_path):
        cfg = small_cfg(tmp_path)
        record = run_experiment(cfg)
        # Drop the last row of the second repeat to simulate a crash.
        path = tmp_path / "runs" / "cell.csv"
        lines = path.read_text().strip().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")
        again = run_experiment(cfg)
        assert again.rows == record.rows

    def test_config_change_guard(self, tmp_path):
        cfg = small_cfg(tmp_path)
        run_experiment(cfg)
        changed = small_cfg(tmp_path, master_seed=6)
        with pytest.raises(ConfigError, match="different config"):
            run_experiment(changed)

    def test_last_acquisition_stops_at_budget(self, tmp_path):
        cfg = small_cfg(tmp_path, k=15)
        record = run_experiment(cfg)
        for repeat in range(cfg.repeats):
            rows = [r for r in record.rows if r.seed == cfg.master_seed + repeat]
            assert [r.labeled for r in rows] == [10, 25, 30]

    def test_budget_of_the_whole_pool_labels_it(self, tmp_path):
        # The pool split holds 208 of the 260 rows; the last of nine
        # acquisitions takes the 23 rows left.
        cfg = small_cfg(tmp_path, k=25, budget=208, repeats=1)
        record = run_experiment(cfg)
        assert [r.labeled for r in record.rows] == [10 + 25 * i for i in range(8)] + [208]
        assert len(record.rows) == cfg.iterations_per_repeat()

    def test_rerun_of_a_complete_cell_writes_nothing(self, tmp_path, monkeypatch):
        cfg = small_cfg(tmp_path)
        record = run_experiment(cfg)

        def refuse(cfg_, rows_):
            raise AssertionError("a complete cell was rewritten")

        monkeypatch.setattr(harness, "_write_rows", refuse)
        assert run_experiment(cfg) == record

    def test_budget_exceeding_pool_rejected(self, tmp_path):
        cfg = small_cfg(tmp_path, budget=250, k=10)
        with pytest.raises(ConfigError, match="exceeds pool"):
            run_experiment(cfg)

    def test_timing_zero_by_default(self, tmp_path):
        cfg = small_cfg(tmp_path)
        record = run_experiment(cfg)
        assert all(row.seconds == 0.0 for row in record.rows)

    def test_augmented_cell_runs(self, tmp_path):
        cfg = small_cfg(tmp_path, label="aug",
                        augmentation={"mode": "wasserstein", "factor": 2,
                                      "group_size": 2, "outer_iter": 2,
                                      "sinkhorn_max_iter": 50},
                        budget=20, k=10)
        record = run_experiment(cfg)
        assert len(record.rows) == 2 * cfg.repeats

    def test_wasserstein_cell_solves_no_barycenter(self, tmp_path, monkeypatch):
        def solve(*args, **kwargs):
            raise AssertionError("barycenter solved")

        monkeypatch.setattr("allwas.barysample.wasserstein_barycenter_batch", solve)
        cfg = small_cfg(tmp_path, augmentation={"mode": "wasserstein", "factor": 3},
                        budget=20, k=10)
        record = run_experiment(cfg)
        assert len(record.rows) == 2 * cfg.repeats


    @pytest.mark.parametrize("mode", ["wasserstein", "l2-kde"])
    @pytest.mark.parametrize("strategy", ["random", "lc", "dropout", "egl",
                                          "kcenter", "allwas"])
    def test_loop_grows_labeled_rows_for_every_strategy_and_augmenter(self, tmp_path,
                                                                       strategy, mode):
        cfg = small_cfg(tmp_path, strategy=strategy, repeats=1,
                        augmentation={"mode": mode, "factor": 2})
        record = run_experiment(cfg)
        assert [row.labeled for row in record.rows] == [10, 20, 30]


def write_jsonl(path, rows) -> None:
    path.write_text("".join(json.dumps({"id": i, "embedding": emb, "label": label}) + "\n"
                            for i, (emb, label) in enumerate(rows)))


class TestCorpusCache:
    def test_equal_spec_returns_the_same_corpus(self):
        first = load_corpus(SMALL_CORPUS)
        tracemalloc.start()
        try:
            again = load_corpus(json.loads(json.dumps(SMALL_CORPUS)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert again is first
        assert peak < 64 * 2**10

    def test_other_seed_loads_a_new_corpus(self):
        first = load_corpus(SMALL_CORPUS)
        other = load_corpus({"synthetic": {**SMALL_CORPUS["synthetic"], "seed": 12}})
        assert other is not first
        assert not np.array_equal(other.pooled, first.pooled)

    def test_path_spec_reads_its_file_each_time(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        write_jsonl(path, [([0.0, 1.0], "a"), ([1.0, 0.0], "b")])
        spec = {"path": str(path)}
        first = load_corpus(spec)
        write_jsonl(path, [([0.0, 2.0], "a"), ([2.0, 0.0], "b")])
        assert load_corpus(spec).pooled.tolist() == [[0.0, 2.0], [2.0, 0.0]]
        assert first.pooled.tolist() == [[0.0, 1.0], [1.0, 0.0]]

    def test_rejected_spec_leaves_the_slot(self):
        first = load_corpus(SMALL_CORPUS)
        with pytest.raises(ConfigError):
            load_corpus({"synthetic": {**SMALL_CORPUS["synthetic"], "n": 0}})
        assert load_corpus(SMALL_CORPUS) is first

    @pytest.mark.parametrize("column", ["pooled", "labels"])
    def test_loaded_arrays_are_read_only(self, column):
        corpus = load_corpus(SMALL_CORPUS)
        with pytest.raises(ValueError, match="read-only"):
            getattr(corpus, column)[0] = 0
        # A corpus built by a library caller stays writeable, clouds too.
        built = make_synthetic(SynthSpec(n=20, d=2))
        assert built.pooled.flags.writeable and built.tokens[0].flags.writeable

    def test_loaded_corpus_holds_no_clouds(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        write_jsonl(path, [([[0.0, 1.0], [2.0, 3.0]], "a"), ([1.0, 0.0], "b")])
        for spec in (SMALL_CORPUS, {"path": str(path)}):
            assert load_corpus(spec).tokens is None

    def test_numpy_values_in_the_spec_load(self):
        spec = {"synthetic": {**SMALL_CORPUS["synthetic"], "priors": np.array([0.7, 0.3]),
                              "n": np.int64(260)}}
        corpus = load_corpus(spec)
        assert load_corpus(spec) is corpus
        assert load_corpus(SMALL_CORPUS) is corpus
        assert corpus.pooled.shape == (260, 6)


class TestCorpusWithoutClouds:
    """Experiment corpora are built without their token clouds."""

    @pytest.mark.parametrize("mode", ["none", "wasserstein", "l2-kde"])
    def test_csvs_do_not_depend_on_the_clouds(self, tmp_path, mode):
        spec = SynthSpec(**SMALL_CORPUS["synthetic"])
        built = {"clouds": make_synthetic(spec), "free": make_synthetic(spec, keep_tokens=False)}
        assert built["free"].tokens is None
        for strategy in STRATEGY_NAMES:
            written = []
            for name, corpus in built.items():
                cfg = small_cfg(tmp_path, out_dir=str(tmp_path / name), strategy=strategy,
                                label=f"{strategy}-{mode}",
                                augmentation={"mode": mode, "factor": 2, "group_size": 2})
                run_experiment(cfg, corpus)
                written.append((tmp_path / name / f"{cfg.label}.csv").read_bytes())
            assert written[0] == written[1], strategy

    def test_synthetic_load_peaks_under_two_corpora(self, monkeypatch):
        # The benchmark's corpus: its clouds are drawn, pooled and dropped
        # a block of rows at a time, so the build peaks under twice what the
        # corpus keeps
        # (5.6 MiB when it kept its clouds). A small build first does the
        # imports a process's first build makes.
        monkeypatch.setattr(harness, "_loaded", None)
        load_corpus(SMALL_CORPUS)
        spec = {"synthetic": {"n": 2000, "d": 32, "priors": [0.9, 0.1],
                              "clusters_per_class": 4, "noise": 1.2,
                              "separation": 5.0, "seed": 1234}}
        tracemalloc.start()
        try:
            corpus = load_corpus(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert corpus.tokens is None
        assert peak < 2 * (corpus.pooled.nbytes + corpus.labels.nbytes)
        built = make_synthetic(SynthSpec(**spec["synthetic"]))
        assert corpus.pooled.tobytes() == built.pooled.tobytes()

    def test_jsonl_load_holds_one_cloud_at_a_time(self, tmp_path):
        # Each line's cloud is pooled as it is parsed, so a file of 50-token
        # rows peaks above the file of those rows' means by one line's
        # parse, under two pooled matrices here; holding the clouds would
        # add 49.
        rng = np.random.default_rng(6)
        clouds = [rng.standard_normal((50, 16)) for _ in range(500)]
        labels = ["a" if i % 3 else "b" for i in range(len(clouds))]
        peaks, loaded = [], []
        for name, rows in (("clouds", clouds), ("means", [c.mean(axis=0) for c in clouds])):
            path = tmp_path / f"{name}.jsonl"
            write_jsonl(path, [(row.tolist(), label) for row, label in zip(rows, labels)])
            tracemalloc.start()
            try:
                loaded.append(load_corpus({"path": str(path)}))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        pooled = loaded[0].pooled
        assert loaded[0].tokens is None
        assert pooled.tobytes() == loaded[1].pooled.tobytes()
        assert pooled.tobytes() == ingest_jsonl(tmp_path / "clouds.jsonl").pooled.tobytes()
        assert peaks[0] - peaks[1] < 2 * pooled.nbytes


# Run by a fresh interpreter: a sweep after a load of its spec, then the
# calling process's traced memory over three more sweeps (its forked
# workers stop tracing). Prints the corpus's bytes and the measurements.
SWEEP_MEMORY = """
import gc, json, os, sys, tracemalloc
from dataclasses import replace
from allwas.harness import ExperimentConfig, load_corpus, run_sweep

cfg = ExperimentConfig(**json.loads(sys.argv[1]))
corpus = load_corpus(cfg.corpus)

def sweep(name):
    run_sweep(replace(cfg, out_dir=os.path.join(cfg.out_dir, name)), "strategy", ["random", "lc"])

sweep("warm-up")                        # imports the process pool
os.register_at_fork(after_in_child=tracemalloc.stop)
tracemalloc.start()
sweep("first")
gc.collect()                            # the pool's reference cycles
current, peak = tracemalloc.get_traced_memory()
sweep("second")
sweep("third")
gc.collect()
after = tracemalloc.get_traced_memory()[0]
print(json.dumps({"shared": load_corpus(cfg.corpus) is corpus, "peak": peak,
                  "growth": after - current,
                  "corpus": corpus.pooled.nbytes + corpus.labels.nbytes}))
"""


def test_sweep_shares_the_loaded_corpus(tmp_path):
    # Two workers, so the calling process only waits: its traced peak over
    # a sweep stays below one corpus (its 1.2 MiB of pooled vectors and
    # labels: a loaded corpus holds no clouds), and two more sweeps
    # leave its traced memory where one left it, but for a few KiB of the
    # interpreter's and numpy's own caches.
    cfg = small_cfg(tmp_path, budget=20, k=10, repeats=1,
                    corpus={"synthetic": {"n": 1000, "d": 160, "priors": [0.7, 0.3], "seed": 4}})
    src = os.path.dirname(os.path.dirname(os.path.abspath(harness.__file__)))
    done = subprocess.run([sys.executable, "-c", SWEEP_MEMORY, cfg.to_canonical_json()],
                          env=dict(os.environ, PYTHONPATH=src, ALLWAS_THREADS="2"),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    measured = json.loads(done.stdout.splitlines()[-1])
    assert measured["shared"]
    assert measured["corpus"] > 2**20
    assert measured["peak"] < measured["corpus"]
    assert measured["growth"] < 16 * 2**10


class TestSweep:
    def test_strategy_axis_shares_seeds(self, tmp_path):
        cfg = small_cfg(tmp_path, budget=20, k=10)
        records = run_sweep(cfg, "strategy", ["random", "lc"])
        assert [rec.label for rec in records] == ["cell_random", "cell_lc"]
        # Iteration-0 rows are paired: same seed, same labeled seed set,
        # same training seed -> identical f1 at the start.
        a = {r.seed: r.f1 for r in records[0].rows if r.iteration == 0}
        b = {r.seed: r.f1 for r in records[1].rows if r.iteration == 0}
        assert a == b

    def test_factor_axis_zero_matches_none(self, tmp_path):
        cfg = small_cfg(tmp_path, budget=20, k=10,
                        augmentation={"mode": "wasserstein", "factor": 2,
                                      "group_size": 2, "outer_iter": 2,
                                      "sinkhorn_max_iter": 50})
        records = run_sweep(cfg, "augmentation-factor", [0, 2])
        assert [rec.label for rec in records] == ["cell_factor0", "cell_factor2"]

    def test_empty_values_rejected(self, tmp_path):
        cfg = small_cfg(tmp_path)
        with pytest.raises(ConfigError):
            run_sweep(cfg, "strategy", [])

    def test_duplicate_labels_rejected_before_work(self, tmp_path, monkeypatch):
        cfg = small_cfg(tmp_path)
        monkeypatch.setenv("ALLWAS_THREADS", "2")
        monkeypatch.setattr("allwas.harness.load_corpus",
                            lambda spec: pytest.fail("corpus loaded"))
        with pytest.raises(ConfigError, match="cell_factor10"):
            run_sweep(cfg, "augmentation-factor", [10, 10])
        assert not (tmp_path / "runs").exists()

    def test_bad_value_rejected_before_work(self, tmp_path, monkeypatch):
        cfg = small_cfg(tmp_path)
        monkeypatch.setattr("allwas.harness.load_corpus",
                            lambda spec: pytest.fail("corpus loaded"))
        with pytest.raises(ConfigError, match="group_size"):
            run_sweep(cfg, "barycenter-group-size", [2, 1])
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_thread_budget_below_one_rejected(self, tmp_path, monkeypatch, threads):
        monkeypatch.setenv("ALLWAS_THREADS", threads)
        with pytest.raises(ConfigError, match="ALLWAS_THREADS must be >= 1"):
            run_sweep(small_cfg(tmp_path), "strategy", ["random", "lc"])
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("axis, values, augmentation", [
        ("strategy", ["random", "lc", "kcenter"], {"mode": "none"}),
        # Mixed row counts: each factor gives its own, so a block of several
        # head-free cells trains ragged stacks.
        ("augmentation-factor", [0, 2, 3], {"mode": "l2-kde"})])
    @pytest.mark.parametrize("method", ["fork", "spawn"])
    def test_parallel_cells_match_serial(self, tmp_path, monkeypatch, method, axis, values,
                                         augmentation):
        # Three cells on two workers, so a worker runs a block of two cells.
        # spawn stands in for platforms without fork and pickles the corpus.
        if method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"no {method} on this platform")
        cfg = small_cfg(tmp_path, budget=20, k=10, repeats=2, augmentation=augmentation)
        serial = run_sweep(cfg, axis, values)
        run_dir = tmp_path / "runs"
        written = {path.name: path.read_bytes() for path in run_dir.iterdir()}
        run_dir.rename(tmp_path / "serial")
        used = []
        get_context = multiprocessing.get_context
        monkeypatch.setattr(multiprocessing, "get_context",
                            lambda name: used.append(name) or get_context(name))
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: [method])
        monkeypatch.setenv("ALLWAS_THREADS", "2")
        parallel = run_sweep(cfg, axis, values)
        assert used == [method]
        assert [p.rows for p in parallel] == [s.rows for s in serial]
        assert sorted(written) == sorted(f"{record.label}.{ext}" for record in serial
                                         for ext in ("csv", "meta.json"))
        assert {path.name: path.read_bytes() for path in run_dir.iterdir()} == written

    def test_lockstep_matches_one_run_at_a_time(self, tmp_path, monkeypatch):
        # A serial sweep is one block: two cells of three repeats train in
        # stacks of six. Driving each run alone trains every head solo.
        cfg = small_cfg(tmp_path, budget=20, k=10, repeats=3,
                        augmentation={"mode": "l2-kde", "factor": 2})
        stacks = []
        train_stack = harness.train_stack
        monkeypatch.setattr(harness, "train_stack",
                            lambda heads, datas: stacks.append(len(heads))
                            or train_stack(heads, datas))
        lockstep = run_sweep(cfg, "strategy", ["random", "lc"])
        assert stacks == [6, 6]
        run_dir = tmp_path / "runs"
        written = {path.name: path.read_bytes() for path in run_dir.iterdir()}
        run_dir.rename(tmp_path / "lockstep")
        drive = harness._lockstep
        monkeypatch.setattr(harness, "_lockstep", lambda runs, free: [
            drive([run], [alone])[0] for run, alone in zip(runs, free)])
        monkeypatch.setattr(harness, "_DRAIN_BYTES", 0)
        alone = run_sweep(cfg, "strategy", ["random", "lc"])
        assert stacks == [6, 6]
        assert [a.rows for a in alone] == [b.rows for b in lockstep]
        assert {path.name: path.read_bytes() for path in run_dir.iterdir()} == written
        assert len(written) == 4

    def test_training_error_fails_its_own_run_only(self, tmp_path, monkeypatch):
        # The head of repeat 1, iteration 1 fails inside one ragged stack of
        # all nine requests: random runs issue them without waiting for
        # heads, so repeat 1's iteration 2 is already out when it fails.
        cfg = small_cfg(tmp_path, repeats=3)
        clean = run_experiment(replace(cfg, out_dir=str(tmp_path / "clean")))
        failing = derive_seed(cfg.master_seed, 1, 1, "train")
        train_stack = harness.train_stack
        stacks = []

        def flaky(heads, datas):
            stacks.append({head.seed for head in heads})
            out = train_stack(heads, datas)
            return [AllwasError("training diverged to non-finite parameters")
                    if head.seed == failing else got for head, got in zip(heads, out)]

        monkeypatch.setattr(harness, "train_stack", flaky)
        with pytest.raises(AllwasError) as info:
            run_experiment(cfg)
        assert stacks == [{derive_seed(cfg.master_seed, r, i, "train")
                           for r in range(3) for i in range(3)}]
        assert type(info.value) is AllwasError
        assert str(info.value) == ("cell 'cell': repeat 1, iteration 1: "
                                   "training diverged to non-finite parameters")
        # The other repeats finished and were written; a rerun adds repeat 1.
        rows = (tmp_path / "runs" / "cell.csv").read_text().splitlines()[1:]
        assert {int(line.split(",")[2]) for line in rows} == {cfg.master_seed,
                                                              cfg.master_seed + 2}
        monkeypatch.setattr(harness, "train_stack", train_stack)
        assert run_experiment(cfg).rows == clean.rows

    def test_lone_training_error_fails_the_run(self, tmp_path, monkeypatch):
        # A one-repeat lc cell trains one head per round, through ``train``,
        # which raises where ``train_stack`` returns the error.
        def fail(head, data):
            raise AllwasError("training diverged to non-finite parameters")

        monkeypatch.setattr(harness, "train", fail)
        with pytest.raises(AllwasError) as info:
            run_experiment(small_cfg(tmp_path, strategy="lc", repeats=1))
        assert str(info.value) == ("cell 'cell': repeat 0, iteration 0: "
                                   "training diverged to non-finite parameters")
        assert not (tmp_path / "runs" / "cell.csv").exists()

    def test_parallel_failure_keeps_error_type_and_cell(self, tmp_path, monkeypatch, capsys):
        # Every cell fails in its first repeat (the pool split has 208 rows); the
        # first cell's error is raised, and no worker process is left over.
        monkeypatch.setenv("ALLWAS_THREADS", "2")
        cfg = small_cfg(tmp_path, budget=250)
        message = "cell 'cell_random': budget 250 exceeds pool of 208"
        with pytest.raises(ConfigError) as info:
            run_sweep(cfg, "strategy", ["random", "lc", "kcenter"])
        assert type(info.value) is ConfigError and str(info.value) == message
        # As in a serial sweep, the error's cause is the failure in the cell:
        # here the worker's formatted traceback.
        assert "_run_repeat" in str(info.value.__cause__)
        assert multiprocessing.active_children() == []
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(cfg.to_canonical_json())
        assert cli_main(["sweep", str(cfg_path), "--axis", "strategy",
                         "--values", "random,lc,kcenter"]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert multiprocessing.active_children() == []


def spy_stacks(monkeypatch) -> list:
    """Record the head seeds of every ``train_stack`` call the harness
    makes, one list per call."""
    stacks = []
    train_stack = harness.train_stack

    def spy(heads, datas):
        stacks.append([head.seed for head in heads])
        return train_stack(heads, datas)

    monkeypatch.setattr(harness, "train_stack", spy)
    return stacks


class TestHeadFree:
    """random and kcenter never read the head: their runs issue requests
    without waiting for heads, and once no run that reads its head is left
    in a block, many of their iterations train in one ragged stack."""

    @pytest.mark.parametrize("augmentation", [
        {"mode": "none"}, {"mode": "wasserstein", "factor": 2},
        {"mode": "l2-kde", "factor": 2}], ids=lambda aug: aug["mode"])
    @pytest.mark.parametrize("strategy", ["random", "kcenter"])
    def test_drained_cell_matches_one_request_per_round(self, tmp_path, monkeypatch,
                                                        strategy, augmentation):
        # Three repeats of four iterations. Drained, all twelve requests
        # train in one stack; under a budget of a few requests, rounds
        # mix runs' first and later iterations; with no budget, each round
        # trains one request per run. Every way writes the same bytes.
        cfg = small_cfg(tmp_path, strategy=strategy, repeats=3, budget=40,
                        augmentation=augmentation)
        stacks = spy_stacks(monkeypatch)
        seeds = {derive_seed(cfg.master_seed, r, i, "train")
                 for r in range(3) for i in range(4)}
        # About five first-iteration requests.
        few = 5 * harness._request_bytes(
            harness.ClassifierHead(input_dim=6, n_classes=2, **cfg.model),
            harness.TrainingSet(np.zeros((10, 6)), np.eye(2)[[0] * 10]))
        run_dir = tmp_path / "runs"
        written = []
        for drain in (harness._DRAIN_BYTES, few, 0):
            monkeypatch.setattr(harness, "_DRAIN_BYTES", drain)
            stacks.clear()
            run_experiment(cfg)
            written.append({path.name: path.read_bytes() for path in run_dir.iterdir()})
            run_dir.rename(tmp_path / f"drain{drain}")
            assert {seed for stack in stacks for seed in stack} == seeds
            if drain == few:
                assert 1 < len(stacks) < 4
            elif drain:
                assert len(stacks) == 1
            else:
                assert stacks == [[derive_seed(cfg.master_seed, r, i, "train")
                                   for r in range(3)] for i in range(4)]
        assert written[0] == written[1] == written[2]
        assert len(written[0]) == 2

    def test_mixed_block_keeps_head_free_run_at_one_request_per_round(self, tmp_path,
                                                                       monkeypatch):
        # One block: a random cell of five iterations and an lc cell of
        # three. While lc runs, random issues one request per round; then
        # its last two train as one ragged stack.
        random_cell = small_cfg(tmp_path, label="random", budget=50, repeats=1)
        lc_cell = small_cfg(tmp_path, label="lc", strategy="lc", repeats=1)
        stacks = spy_stacks(monkeypatch)
        records = harness._run_cells([random_cell, lc_cell], load_corpus(SMALL_CORPUS))
        assert [len(record.rows) for record in records] == [5, 3]
        seed = [derive_seed(random_cell.master_seed, 0, i, "train") for i in range(5)]
        assert stacks == [[seed[0]] * 2, [seed[1]] * 2, [seed[2]] * 2, [seed[3], seed[4]]]

    def test_round_pulls_live_runs_in_run_order(self, tmp_path, monkeypatch):
        # As above, but the lc cell has its own master seed, so each stack
        # shows its order: every round pulls the live runs in run order,
        # whether or not they read their heads.
        random_cell = small_cfg(tmp_path, label="random", budget=50, repeats=1)
        lc_cell = small_cfg(tmp_path, label="lc", strategy="lc", repeats=1, master_seed=6)
        stacks = spy_stacks(monkeypatch)
        harness._run_cells([random_cell, lc_cell], load_corpus(SMALL_CORPUS))
        r = [derive_seed(random_cell.master_seed, 0, i, "train") for i in range(5)]
        lc = [derive_seed(lc_cell.master_seed, 0, i, "train") for i in range(3)]
        assert stacks == [[r[0], lc[0]], [r[1], lc[1]], [r[2], lc[2]], [r[3], r[4]]]

    @pytest.mark.parametrize("strategy", ["random", "lc"])
    @pytest.mark.parametrize("train_fails", [True, False])
    @pytest.mark.parametrize("drain", [True, False])
    def test_run_reports_its_lowest_failing_iteration(self, tmp_path, monkeypatch,
                                                      train_fails, drain, strategy):
        # Repeat 1's acquisition fails at iteration 2. A random run meets it
        # after (drained) or before (one request per round) its iteration-1
        # head trains; an lc run, which reads its heads, always after. If
        # that training fails too, its error is the run's either way.
        cfg = small_cfg(tmp_path, budget=40, strategy=strategy)
        if not drain:
            monkeypatch.setattr(harness, "_DRAIN_BYTES", 0)
        acquire = harness.acquire

        def failing_acquire(*args, seed, **kwargs):
            if seed == derive_seed(cfg.master_seed, 1, 2, "acquire"):
                raise AllwasError("no candidates left")
            return acquire(*args, seed=seed, **kwargs)

        monkeypatch.setattr(harness, "acquire", failing_acquire)
        train_stack = harness.train_stack
        failing = derive_seed(cfg.master_seed, 1, 1, "train")

        def flaky(heads, datas):
            out = train_stack(heads, datas)
            return [AllwasError("training diverged to non-finite parameters")
                    if train_fails and head.seed == failing else got
                    for head, got in zip(heads, out)]

        monkeypatch.setattr(harness, "train_stack", flaky)
        with pytest.raises(AllwasError) as info:
            run_experiment(cfg)
        cause = ("iteration 1: training diverged to non-finite parameters" if train_fails
                 else "iteration 2: no candidates left")
        assert str(info.value) == f"cell 'cell': repeat 1, {cause}"

    @pytest.mark.parametrize("strategy", ["random", "lc"])
    @pytest.mark.parametrize("drain", [True, False])
    def test_scoring_error_names_its_repeat_and_iteration(self, tmp_path, monkeypatch,
                                                          drain, strategy):
        # The head of repeat 1, iteration 1 trains, but evaluating it fails.
        cfg = small_cfg(tmp_path, strategy=strategy)
        if not drain:
            monkeypatch.setattr(harness, "_DRAIN_BYTES", 0)
        predict = harness.predict_proba_batch
        failing = derive_seed(cfg.master_seed, 1, 1, "train")

        def flaky(head, pooled, **kwargs):
            if head.seed == failing:
                raise AllwasError("validation rows unreadable")
            return predict(head, pooled, **kwargs)

        monkeypatch.setattr(harness, "predict_proba_batch", flaky)
        with pytest.raises(AllwasError) as info:
            run_experiment(cfg)
        assert type(info.value) is AllwasError
        assert str(info.value) == ("cell 'cell': repeat 1, iteration 1: "
                                   "validation rows unreadable")

    def test_drained_rounds_stay_within_byte_budget(self, tmp_path, monkeypatch):
        # A 10-repeat factor-20 random cell of three iterations, drained
        # under a budget of half its requests' bytes, so in two rounds:
        # each round holds the budget plus at most one request per run, and
        # the cell's traced peak is at most the budget above that of one
        # request per run and round.
        cfg = small_cfg(tmp_path, repeats=10, model={"hidden_dim": 16, "epochs": 1},
                        augmentation={"mode": "wasserstein", "factor": 20})
        head = harness.ClassifierHead(input_dim=6, n_classes=2, **cfg.model)
        # Iteration i trains 10 (i + 1) labeled rows and 20 synthetic ones each.
        request = [harness._request_bytes(head, harness.TrainingSet(
            np.zeros((n, 6)), np.eye(2)[[0] * n])) for n in (210, 420, 630)]
        budget = cfg.repeats * sum(request) // 2
        loaded = load_corpus(SMALL_CORPUS)
        held = []
        train_stack = harness.train_stack

        def spy(heads, datas):
            held.append(sum(harness._request_bytes(*pair) for pair in zip(heads, datas)))
            return train_stack(heads, datas)

        monkeypatch.setattr(harness, "train_stack", spy)
        peaks = {}
        for drain in (budget, 0):
            monkeypatch.setattr(harness, "_DRAIN_BYTES", drain)
            held.clear()
            tracemalloc.start()
            try:
                run_experiment(replace(cfg, out_dir=str(tmp_path / f"drain{drain}")), loaded)
                peaks[drain] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert sum(held) == cfg.repeats * sum(request)
            if drain:
                assert len(held) == 2
                assert max(held) <= budget + cfg.repeats * request[-1]
        assert peaks[budget] <= peaks[0] + budget


@pytest.mark.parametrize("error", [
    *(cls("cell 'c': boom") for cls in (AllwasError, *AllwasError.__subclasses__())),
    ShapeError("one id per row", expected=3, actual=2)], ids=repr)
def test_errors_survive_pickle(error):
    # Sweep workers send a failing cell's error back to the caller pickled.
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is type(error) and str(copy) == str(error)


class TestReport:
    @pytest.fixture
    def records(self, tmp_path):
        cfg = small_cfg(tmp_path, budget=20, k=10)
        return run_sweep(cfg, "strategy", ["random", "lc"])

    def test_csv_row_counts(self, records, tmp_path):
        out = tmp_path / "report"
        report(records, out)
        for rec in records:
            lines = (out / f"cell_{rec.label}.csv").read_text().strip().splitlines()
            assert len(lines) - 1 == 2 * 2  # repeats x iterations

    def test_significance_symmetric_with_direction(self, records, tmp_path):
        out = tmp_path / "report"
        results = significance_table(records)
        assert len(results) == 1
        a, b, n, stat, p, p_adj, better = results[0]
        assert {a, b} == {"cell_random", "cell_lc"}
        assert p_adj >= p
        assert better in (a, b, "none")

    def test_svg_well_formed(self, records):
        svg = learning_curve_svg(records, "demo")
        validate_svg(svg)

    def test_report_files_and_load_records(self, records, tmp_path):
        out = tmp_path / "report"
        paths = report(records, out)
        assert any(str(p).endswith("significance.csv") for p in paths)
        svgs = [p for p in paths if str(p).endswith(".svg")]
        assert svgs
        for p in svgs:
            validate_svg(open(p).read())
        loaded = load_records(tmp_path / "runs")
        assert {rec.label for rec in loaded} == {"cell_random", "cell_lc"}

    def test_paired_alignment(self, records):
        xs, ys = paired_f1(records[0], records[1])
        assert len(xs) == len(ys) == 4


class TestCli:
    def test_synth_run_report_stats_pipeline(self, tmp_path, capsys):
        spec = tmp_path / "synth.json"
        spec.write_text(json.dumps({"n": 200, "d": 5, "priors": [0.7, 0.3],
                                    "seed": 2}))
        corpus_path = tmp_path / "corpus.jsonl"
        assert cli_main(["synth", str(spec), "--out", str(corpus_path)]) == 0
        assert corpus_path.exists()

        assert cli_main(["ingest", str(corpus_path)]) == 0

        run_dir = tmp_path / "runs"
        cfg = {
            "corpus": {"path": str(corpus_path)},
            "out_dir": str(run_dir),
            "label": "demo",
            "seed_size": 8,
            "budget": 16,
            "k": 8,
            "repeats": 2,
            "strategy": "random",
            "model": {"hidden_dim": 8, "epochs": 2},
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert cli_main(["run", str(cfg_path)]) == 0
        assert (run_dir / "demo.csv").exists()

        cfg2 = dict(cfg, label="demo2", master_seed=1)
        cfg2_path = tmp_path / "cfg2.json"
        cfg2_path.write_text(json.dumps(cfg2))
        assert cli_main(["run", str(cfg2_path)]) == 0

        assert cli_main(["report", str(run_dir)]) == 0
        assert (run_dir / "significance.csv").exists()

        code = cli_main(["stats", str(run_dir), "--pairs", "demo:demo2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "demo,demo2" in out
        # stats and the report's table run the same pair test.
        printed = out.strip().splitlines()[-1].split(",")
        by_label = {rec.label: rec for rec in load_records(run_dir)}
        (_, _, n, _, p, _, _), = significance_table(
            [by_label["demo"], by_label["demo2"]])
        assert printed[:3] == ["demo", "demo2", str(n)]
        assert printed[4] == f"{p:.10g}"

    def test_ingest_out_round_trip(self, tmp_path, capsys):
        # Featurized text rows and embedding rows: the normalized file loads
        # to the same columns, and exporting it again is byte-identical.
        source, out, again = (tmp_path / name for name in ("c.jsonl", "out.jsonl",
                                                           "again.jsonl"))
        source.write_text("".join(json.dumps(
            {"id": f"r{i}", "text": f"row {i} of {i % 3}", "label": "ab"[i % 2]}
            if i % 3 else
            {"id": f"r{i}", "embedding": [[0.5 * i, -1.0, 2.0], [1.0, 0.25, i / 3]],
             "label": "ab"[i % 2]}) + "\n" for i in range(12)))
        assert cli_main(["ingest", str(source), "--featurize", "d=3,seed=4",
                         "--out", str(out)]) == 0
        with pytest.warns(UserWarning, match="embedding wins"):
            assert cli_main(["ingest", str(out), "--out", str(again)]) == 0
        assert f"wrote {out}" in capsys.readouterr().out
        original = ingest_jsonl(source, featurizer=FeaturizerConfig(d=3, seed=4))
        with pytest.warns(UserWarning, match="embedding wins"):
            loaded = ingest_jsonl(out)
        assert loaded.ids == original.ids and loaded.texts == original.texts
        assert loaded.texts[1] == "row 1 of 1" and loaded.texts[0] is None
        assert np.array_equal(loaded.labels, original.labels)
        assert loaded.pooled.tobytes() == original.pooled.tobytes()
        assert again.read_bytes() == out.read_bytes()

    @pytest.mark.parametrize("key, bad, message", [
        ("target_class", 0.6, "target_class must be an int or a class name (got 0.6)"),
        ("target_class", 1.9, "target_class must be an int or a class name (got 1.9)"),
        ("target_class", True, "target_class must be an int or a class name (got True)"),
        ("target_class", [1], "target_class must be an int or a class name (got [1])"),
        ("class_names", "ab", "class_names must be a list of strings (got 'ab')"),
        ("class_names", ["a", "a", "b"], "class_names repeats ['a'] (got ['a', 'a', 'b'])")])
    def test_bad_class_key_exits_2_before_corpus_loads(self, tmp_path, capsys, monkeypatch,
                                                       key, bad, message):
        corpus = {"path": str(tmp_path / "c.jsonl"), key: bad}
        assert self.run_before_corpus_loads(tmp_path, monkeypatch, corpus=corpus) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"

    def test_exit_code_config_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert cli_main(["run", str(bad)]) == 2

    @pytest.mark.parametrize("section, key, bad", [
        ("model", "hiddendim", {"hiddendim": 8}),
        ("model", "seed", {"seed": 3}),   # set by the harness, not the config
        ("ot", "maxiter", {"maxiter": 10}),
        ("augmentation", "lamda_scheme", {"mode": "wasserstein", "lamda_scheme": "dirichlet"}),
        ("augmentation", "seed", {"mode": "l2-kde", "seed": 1}),   # derived by the harness
        ("augmentation", "p", {"mode": "wasserstein", "p": 1.0}),
        ("augmentation", "eps_scale", {"mode": "wasserstein", "eps_scale": 0.01})])
    def test_unknown_nested_key_exits_2_without_output(self, tmp_path, capsys,
                                                       section, key, bad):
        run_dir = tmp_path / "runs"
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "corpus": SMALL_CORPUS, "out_dir": str(run_dir), "label": "bad",
            "seed_size": 10, "budget": 30, "k": 10, "repeats": 1,
            "strategy": "allwas", section: bad}))
        assert cli_main(["run", str(cfg_path)]) == 2
        assert f"unknown {section} config keys: ['{key}']" in capsys.readouterr().err
        assert not run_dir.exists()

    @staticmethod
    def run_before_corpus_loads(tmp_path, monkeypatch, **entries):
        """Exit code of ``allwas run`` on a config with ``entries``, with the
        corpus loader patched to fail; no output directory may appear."""
        monkeypatch.setattr("allwas.harness.load_corpus",
                            lambda spec: pytest.fail("corpus loaded"))
        run_dir = tmp_path / "runs"
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "corpus": SMALL_CORPUS, "out_dir": str(run_dir), "label": "bad",
            "seed_size": 10, "budget": 30, "k": 10, "repeats": 1,
            "strategy": "allwas", **entries}))
        code = cli_main(["run", str(cfg_path)])
        assert not run_dir.exists()
        return code

    @pytest.mark.parametrize("field, bad", [
        ("max_iter", -5), ("tol", -1.0), ("tol", 0.0), ("subsample", 0),
        ("p", 0.5), ("p", "2"), ("p", True), ("subsample", 10.5), ("max_iter", 2.5)])
    def test_bad_ot_value_exits_2_before_corpus_loads(self, tmp_path, capsys,
                                                      monkeypatch, field, bad):
        assert self.run_before_corpus_loads(tmp_path, monkeypatch, ot={field: bad}) == 2
        assert f"ot {field} must be" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [("eps", 0.01), ("s0_cost", 1.0)])
    def test_retired_ot_key_exits_2_before_corpus_loads(self, tmp_path, capsys,
                                                        monkeypatch, key, value):
        # Sinkhorn's eps is adaptive and the coverage cost the default: a
        # config that sets either names an unknown key.
        assert self.run_before_corpus_loads(tmp_path, monkeypatch, ot={key: value}) == 2
        assert f"unknown ot config keys: ['{key}']" in capsys.readouterr().err

    def test_oversize_distance_matrix_exits_2(self, tmp_path, capsys, monkeypatch):
        # Acquisition refuses a matrix over its byte cap as a config error.
        monkeypatch.setattr("allwas.strategies._MATRIX_BYTES", 2**10)
        cfg_path = _write_cell_config(tmp_path, strategy="allwas")
        assert cli_main(["run", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: cell 'demo': repeat 0, iteration 0: "
                              "ot.subsample: the distance matrix over N = 208 rows")

    @pytest.mark.parametrize("label", ["../escaped", "a/b"])
    def test_label_that_is_not_a_file_name_exits_2(self, tmp_path, capsys, monkeypatch,
                                                   label):
        assert self.run_before_corpus_loads(tmp_path, monkeypatch, label=label) == 2
        assert "label must be a file name" in capsys.readouterr().err
        assert [path.name for path in tmp_path.iterdir()] == ["cfg.json"]

    @pytest.mark.parametrize("values", ["2,abc", "1.5"])
    def test_non_integer_sweep_value_exits_2(self, tmp_path, capsys, monkeypatch, values):
        monkeypatch.setattr("allwas.harness.load_corpus",
                            lambda spec: pytest.fail("corpus loaded"))
        cfg_path = _write_cell_config(tmp_path)
        assert cli_main(["sweep", str(cfg_path), "--axis", "augmentation-factor",
                         "--values", values]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: augmentation-factor values must be integers")
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "runs").exists()

    def test_sweep_values_equal_as_integers_exit_2(self, tmp_path, capsys, monkeypatch):
        # A cell is labelled with the integer it sets, so 3 and 03 clash.
        monkeypatch.setattr("allwas.harness.load_corpus",
                            lambda spec: pytest.fail("corpus loaded"))
        cfg_path = _write_cell_config(tmp_path)
        assert cli_main(["sweep", str(cfg_path), "--axis", "augmentation-factor",
                         "--values", "3,03"]) == 2
        assert "duplicate cell labels ['demo_factor3']" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    def test_retired_distance_dump_exits_2_before_corpus_loads(self, tmp_path, capsys,
                                                               monkeypatch):
        # The distance dump is retired: its config key and its flag are
        # both config errors.
        assert self.run_before_corpus_loads(tmp_path, monkeypatch, ot={"dump_path": "x"}) == 2
        assert "unknown ot config keys: ['dump_path']" in capsys.readouterr().err
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"corpus": SMALL_CORPUS, "out_dir": str(tmp_path / "o")}))
        with pytest.raises(SystemExit) as exc:
            cli_main(["run", str(cfg_path), "--dump-distances"])
        assert exc.value.code == 2
        assert "--dump-distances" in capsys.readouterr().err

    @pytest.mark.parametrize("section, knobs, message", [
        ("model", {"dropout": "0.1"}, "model dropout must be a number"),
        ("model", {"hidden_dim": "8"}, "model hidden_dim must be an int"),
        ("model", {"hidden_dim": True}, "model hidden_dim must be an int"),
        ("model", {"epochs": 2.5}, "model epochs must be an int"),
        ("model", {"batch_size": 2.5}, "model batch_size must be an int"),
        ("model", {"lr": "0.1"}, "model lr must be a number"),
        ("model", {"epochs": 0}, "epochs and batch_size must be >= 1"),
        ("model", {"batch_size": 0}, "epochs and batch_size must be >= 1"),
        ("model", {"lr": -0.5}, "lr must be a finite number > 0"),
        ("augmentation", {"factor": "3"}, "augmentation factor must be an int"),
        ("augmentation", {"factor": 1.5}, "augmentation factor must be an int"),
        ("augmentation", {"group_size": 2.5}, "augmentation group_size must be an int"),
        ("augmentation", {"dirichlet_alpha": "1"}, "augmentation dirichlet_alpha must be a number"),
        ("augmentation", {"outer_iter": -3}, "outer_iter and sinkhorn_max_iter must be >= 1"),
        ("augmentation", {"sinkhorn_max_iter": 0}, "outer_iter and sinkhorn_max_iter must be >= 1"),
        ("featurize", {"d": "8"}, "featurize d must be an int"),
        ("featurize", {"d": 8.5}, "featurize d must be an int"),
        ("featurize", {"seed": False}, "featurize seed must be an int"),
        ("featurize", {"d": 0}, "featurize needs d >= 1 and seed >= 0"),
        ("featurize", {"seed": -1}, "featurize needs d >= 1 and seed >= 0")])
    def test_bad_nested_value_exits_2_before_corpus_loads(self, tmp_path, capsys, monkeypatch,
                                                          section, knobs, message):
        if section == "featurize":
            entries = {"corpus": {"path": str(tmp_path / "c.jsonl"), "featurize": knobs}}
        elif section == "augmentation":
            entries = {section: {"mode": "wasserstein", **knobs}}
        else:
            entries = {section: knobs}
        assert self.run_before_corpus_loads(tmp_path, monkeypatch, **entries) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("knobs", ["d=0", "d=-3", "seed=-1"])
    def test_bad_featurize_value_exits_2_at_ingest(self, tmp_path, capsys, knobs):
        corpus_path = tmp_path / "c.jsonl"
        corpus_path.write_text("".join(json.dumps({"id": i, "text": f"row {i}", "label": i % 2})
                                       + "\n" for i in range(6)))
        assert cli_main(["ingest", str(corpus_path), "--featurize", knobs]) == 2
        assert "featurize needs d >= 1 and seed >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("field, bad", [
        ("minority_fraction", 1.5), ("radius_percentile", 150), ("val_fraction", 1.0),
        ("setting", "skewed"), ("mc_passes", 0), ("model", 5), ("ot", 0.5),
        ("augmentation", None), ("corpus", 7), ("k", "5"), ("repeats", 1.5),
        ("budget", True), ("seed_size", None), ("master_seed", "0"), ("mc_passes", 2.0),
        ("minority_fraction", "0.5"), ("radius_percentile", None), ("val_fraction", True),
        ("out_dir", 5), ("label", 3), ("setting", ["balanced"]), ("strategy", 1),
        ("metric", None)])
    def test_bad_value_exits_2_before_corpus_loads(self, tmp_path, capsys,
                                                   monkeypatch, field, bad):
        assert self.run_before_corpus_loads(tmp_path, monkeypatch, **{field: bad}) == 2
        assert field in capsys.readouterr().err

    def test_exit_code_data_error(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert cli_main(["ingest", str(empty)]) == 3

    def test_mixed_id_types_exit_3(self, tmp_path, capsys):
        # Acquisition sorts ids, so a corpus mixing int and string ids fails
        # at ingest rather than in the first allwas acquisition.
        corpus_path = tmp_path / "mixed.jsonl"
        corpus_path.write_text("".join(
            json.dumps({"id": i if i % 2 else f"s{i}", "label": i % 2,
                        "embedding": [[float(i), 1.0]]}) + "\n" for i in range(40)))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "corpus": {"path": str(corpus_path)}, "out_dir": str(tmp_path / "runs"),
            "seed_size": 4, "budget": 8, "k": 4, "repeats": 1, "strategy": "allwas"}))
        assert cli_main(["ingest", str(corpus_path)]) == 3
        assert cli_main(["run", str(cfg_path)]) == 3
        assert "line 2: id 1 mixes ints and strings" in capsys.readouterr().err

    @pytest.mark.parametrize("case, message", [
        ("synthetic key", "unknown corpus synthetic keys: ['size']"),
        ("featurize key", "unknown corpus featurize keys: ['dim']"),
        ("corpus key", "unknown corpus config keys: ['paht']"),
        ("target_class", "unknown target_class 'nope'"),
        ("--featurize value", "expected an integer value, got 'd=abc'"),
        ("synthetic section", "corpus synthetic must be a JSON object (got 5)"),
        ("n type", "n must be an int >= 1 (got 'abc')"),
        ("token_count_range zero", "1 <= lo <= hi (got [0, 0])"),
        ("token_count_range reversed", "1 <= lo <= hi (got [5, 2])"),
        ("noise nan", "noise must be a finite number >= 0 (got nan)")])
    def test_corpus_spec_mistake_exits_2(self, tmp_path, capsys, case, message):
        corpus_path = tmp_path / "c.jsonl"
        corpus_path.write_text("".join(json.dumps({"id": i, "text": f"row {i}", "label": i % 2})
                                       + "\n" for i in range(6)))
        text = {"path": str(corpus_path), "featurize": {"d": 4}}
        corpus = {"synthetic key": {"synthetic": {**SMALL_CORPUS["synthetic"], "size": 5}},
                  "featurize key": {"path": str(corpus_path), "featurize": {"dim": 4}},
                  "corpus key": {**text, "paht": str(corpus_path)},
                  "target_class": {**text, "target_class": "nope"},
                  "synthetic section": {"synthetic": 5}}
        for case_name, key, value in (("n type", "n", "abc"),
                                      ("token_count_range zero", "token_count_range", [0, 0]),
                                      ("token_count_range reversed", "token_count_range", [5, 2]),
                                      ("noise nan", "noise", float("nan"))):
            corpus[case_name] = {"synthetic": {**SMALL_CORPUS["synthetic"], key: value}}
        if case == "--featurize value":
            argv = ["ingest", str(corpus_path), "--featurize", "d=abc"]
        else:
            cfg_path = tmp_path / "cfg.json"
            cfg_path.write_text(json.dumps({
                "corpus": corpus[case], "out_dir": str(tmp_path / "runs"), "label": "bad",
                "seed_size": 2, "budget": 4, "k": 2, "repeats": 1}))
            argv = ["run", str(cfg_path)]
        assert cli_main(argv) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    def test_sweep_command(self, tmp_path):
        corpus_path = tmp_path / "c.jsonl"
        spec = tmp_path / "s.json"
        spec.write_text(json.dumps({"n": 150, "d": 4, "priors": [0.5, 0.5],
                                    "seed": 1}))
        cli_main(["synth", str(spec), "--out", str(corpus_path)])
        cfg = {
            "corpus": {"path": str(corpus_path)},
            "out_dir": str(tmp_path / "sweep"),
            "label": "s",
            "seed_size": 6,
            "budget": 12,
            "k": 6,
            "repeats": 1,
            "model": {"hidden_dim": 8, "epochs": 1},
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert cli_main(["sweep", str(cfg_path), "--axis", "strategy",
                         "--values", "random,lc"]) == 0
        assert (tmp_path / "sweep" / "s_random.csv").exists()
        assert (tmp_path / "sweep" / "s_lc.csv").exists()


def _write_cell_config(tmp_path, label="demo", **kw):
    cfg_path = tmp_path / f"{label}.json"
    cfg_path.write_text(json.dumps({
        "corpus": SMALL_CORPUS, "out_dir": str(tmp_path / "runs"), "label": label,
        "seed_size": 10, "budget": 20, "k": 10, "repeats": 1,
        "model": {"hidden_dim": 4, "epochs": 1}, **kw}))
    return cfg_path


def _drop_key(key):
    def edit(meta):
        data = json.loads(meta)
        del data[key]
        return json.dumps(data)
    return edit


# Each way a cell's files can be malformed: (edit of the CSV text, edit of
# the meta file's text).
MALFORMED_CELLS = {
    "wrong header": (lambda csv: csv.replace("seconds", "secs", 1), None),
    "no header": (lambda csv: "", None),
    "truncated row": (lambda csv: csv[:csv.rstrip().rindex(",")] + "\n", None),
    "extra field": (lambda csv: csv.rstrip() + ",1\n", None),
    "unparseable field": (lambda csv: csv.replace(",0,", ",zero,", 1), None),
    # report() names a curves file after the setting.
    "unknown setting": (lambda csv: csv.replace("\nbalanced,", "\n../../escaped,", 1), None),
    "unknown strategy": (lambda csv: csv.replace(",random,", ",greedy,", 1), None),
    "meta not JSON": (None, lambda meta: meta[:-5]),
    "meta not an object": (None, lambda meta: "[1, 2]\n"),
    "meta lacks label": (None, _drop_key("label")),
    "meta lacks config_hash": (None, _drop_key("config_hash")),
    "meta lacks schema": (None, _drop_key("schema")),
    "meta of another schema": (None, lambda meta: meta.replace('"schema": 1', '"schema": 2')),
}


class TestCellFiles:
    """harness.read_cell is the one reader of a cell's CSV and meta file,
    for resume, report and stats alike."""

    @pytest.mark.parametrize("case", MALFORMED_CELLS)
    def test_malformed_cell_exits_3_naming_it(self, tmp_path, capsys, case):
        cfg_path = _write_cell_config(tmp_path)
        assert cli_main(["run", str(cfg_path)]) == 0
        run_dir = tmp_path / "runs"
        for suffix, edit in zip((".csv", ".meta.json"), MALFORMED_CELLS[case]):
            path = run_dir / f"demo{suffix}"
            if edit is not None:
                edited = edit(path.read_text())
                assert edited != path.read_text()
                path.write_text(edited)
        with pytest.raises(DataError, match="cell 'demo': demo"):
            harness.read_cell(run_dir, "demo")
        capsys.readouterr()
        for argv in (["run", str(cfg_path)], ["report", str(run_dir)],
                     ["stats", str(run_dir), "--pairs", "demo:demo"]):
            assert cli_main(argv) == 3
            err = capsys.readouterr().err
            assert err.startswith("data error: cell 'demo': demo")
            assert "Traceback" not in err

    def test_cell_of_another_config_still_exits_2(self, tmp_path, capsys):
        assert cli_main(["run", str(_write_cell_config(tmp_path))]) == 0
        capsys.readouterr()
        assert cli_main(["run", str(_write_cell_config(tmp_path, master_seed=9))]) == 2
        assert "config error: cell 'demo': existing results" in capsys.readouterr().err

    def test_missing_file_reads_as_no_cell(self, tmp_path):
        assert cli_main(["run", str(_write_cell_config(tmp_path))]) == 0
        assert harness.read_cell(tmp_path / "runs", "other") is None
        (tmp_path / "runs" / "demo.meta.json").unlink()
        assert harness.read_cell(tmp_path / "runs", "demo") is None

    def test_report_never_overwrites_a_cell(self, tmp_path, capsys):
        # report writes cell_<label>.csv and significance.csv, which are
        # also the CSVs of cells labeled so.
        for label in ("demo", "cell_demo", "significance"):
            assert cli_main(["run", str(_write_cell_config(tmp_path, label))]) == 0
        run_dir = tmp_path / "runs"
        before = {path.name: path.read_bytes() for path in run_dir.iterdir()}
        capsys.readouterr()
        assert cli_main(["report", str(run_dir)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "cell 'cell_demo'" in err
        assert "--out" in err
        assert {path.name: path.read_bytes() for path in run_dir.iterdir()} == before
        assert cli_main(["report", str(run_dir), "--out", str(tmp_path / "report")]) == 0
        assert ((tmp_path / "report" / "cell_cell_demo.csv").read_bytes()
                == before["cell_demo.csv"])

    def test_report_escapes_labels_and_writes_nothing_on_failure(self, tmp_path,
                                                                 monkeypatch):
        assert cli_main(["run", str(_write_cell_config(tmp_path, "a&b"))]) == 0
        run_dir, out = tmp_path / "runs", tmp_path / "report"
        assert cli_main(["report", str(run_dir), "--out", str(out)]) == 0
        svg = ET.parse(out / "curves_balanced.svg").getroot()
        assert "a&b" in [text.text for text in svg.iter("{http://www.w3.org/2000/svg}text")]

        def fail(text):
            raise AllwasError("SVG is not well-formed XML")

        monkeypatch.setattr(report_module, "validate_svg", fail)
        empty = tmp_path / "empty"
        empty.mkdir()
        assert cli_main(["report", str(run_dir), "--out", str(empty)]) == 4
        assert list(empty.iterdir()) == []

    def test_report_copies_cell_csv_byte_for_byte(self, tmp_path):
        cfg = small_cfg(tmp_path, budget=20, k=10)
        records = run_sweep(cfg, "strategy", ["random", "lc"])
        report(load_records(tmp_path / "runs"), tmp_path / "report")
        for rec in records:
            written = (tmp_path / "runs" / f"{rec.label}.csv").read_bytes()
            assert (tmp_path / "report" / f"cell_{rec.label}.csv").read_bytes() == written
            assert harness.read_cell(tmp_path / "runs", rec.label) == rec


def _record(label, f1s):
    rows = tuple(harness.RunRow("balanced", "random", seed, 0, 10, float(f1), 0.0)
                 for seed, f1 in enumerate(f1s))
    return harness.RunRecord(label, f"hash-{label}", rows)


class TestSignificance:
    """The signed-rank test through report's table and ``allwas stats``,
    on records with enough differing cells to run it."""

    @pytest.mark.parametrize("n, mode", [(12, "exact"),
                                         (EXACT_WILCOXON_LIMIT + 20, "normal-approx")])
    def test_table_and_stats_match_signed_rank_test(self, tmp_path, capsys, monkeypatch,
                                                    n, mode):
        rng = np.random.default_rng(n)
        base = rng.uniform(0.2, 0.8, n)
        records = [_record("a", base), _record("b", base + rng.normal(0.02, 0.05, n)),
                   _record("c", base - rng.uniform(0.001, 0.02, n))]
        by_label = {rec.label: rec for rec in records}
        modes = []
        real = report_module.wilcoxon_signed_rank
        monkeypatch.setattr(report_module, "wilcoxon_signed_rank",
                            lambda x, y, mode: modes.append(mode) or real(x, y, mode=mode))

        def expected(a, b, m):
            xs, ys = paired_f1(by_label[a], by_label[b])
            stat, p = wilcoxon_signed_rank(xs, ys, mode=mode)
            better = a if np.mean(xs - ys) > 0 else b
            return (a, b, n, stat, p, min(1.0, m * p), better)

        results = significance_table(records)
        assert results == [expected(a, b, 3) for a, b in ("ab", "ac", "bc")]
        assert modes == [mode] * 3

        run_dir = tmp_path / "runs"
        run_dir.mkdir()
        for rec in records:
            (run_dir / f"{rec.label}.csv").write_text(harness.cell_csv(rec.rows))
            (run_dir / f"{rec.label}.meta.json").write_text(json.dumps(
                {"label": rec.label, "config_hash": rec.config_hash,
                 "schema": harness.SCHEMA_VERSION}))
        assert load_records(run_dir) == records
        report(records, tmp_path / "report")
        table = (tmp_path / "report" / "significance.csv").read_text()
        capsys.readouterr()
        # Over every pair, stats prints the report's table exactly.
        assert cli_main(["stats", str(run_dir), "--pairs", "a:b,a:c,b:c"]) == 0
        assert capsys.readouterr().out == table
        # Over some pairs, it corrects for those pairs only.
        assert cli_main(["stats", str(run_dir), "--pairs", "b:a,a:c"]) == 0
        header, *lines = capsys.readouterr().out.splitlines()
        assert header == table.splitlines()[0]
        for line, (a, b) in zip(lines, ("ba", "ac"), strict=True):
            _, _, _, stat, p, p_adj, better = expected(a, b, 2)
            assert line == f"{a},{b},{n},{stat:.10g},{p:.10g},{p_adj:.10g},{better}"


def test_macro_f1_metric_scores_each_head_on_macro_f1(tmp_path, monkeypatch):
    # Each row's f1 is f1_macro of its head's validation predictions, over
    # all three classes; target-class F1 is never scored.
    calls = []

    def spy(preds, truth, n_classes):
        calls.append((preds, truth, n_classes, f1_macro(preds, truth, n_classes)))
        return calls[-1][-1]

    monkeypatch.setattr(harness, "f1_macro", spy)
    monkeypatch.setattr(harness, "f1_target", lambda *a: pytest.fail("target F1 scored"))
    corpus = {"synthetic": {"n": 240, "d": 5, "priors": [0.4, 0.3, 0.3],
                            "noise": 0.8, "seed": 4}}
    cfg = small_cfg(tmp_path, corpus=corpus, metric="macro-f1", strategy="lc", repeats=1)
    record = run_experiment(cfg)
    assert [row.f1 for row in record.rows] == [f1 for *_, f1 in calls]
    _, val = train_val_split(load_corpus(corpus), cfg.val_fraction,
                             seed=derive_seed(cfg.master_seed, 0, "split"))
    for preds, truth, n_classes, _ in calls:
        assert n_classes == 3 and np.array_equal(truth, val.labels)
        assert preds.shape == truth.shape
    assert any(f1 != f1_target(preds, truth, 0) for preds, truth, _, f1 in calls)


def test_result_csvs_independent_of_blas_threads(tmp_path):
    # At this scale OpenBLAS splits the larger products (the head on the
    # whole pool) between two threads; an allwas cell (exact acquisition
    # distances) and a random cell with Wasserstein augmentation must
    # write the same bytes either way.
    corpus = {"synthetic": {"n": 1000, "d": 32, "priors": [0.8, 0.2],
                            "clusters_per_class": 4, "noise": 1.2, "seed": 7}}
    base = {"corpus": corpus, "out_dir": "runs", "seed_size": 20, "budget": 70, "k": 25,
            "repeats": 1, "model": {"hidden_dim": 64, "epochs": 10},
            "ot": {"subsample": 256}}
    cells = {"allwas": {"strategy": "allwas"},
             "random_wasserstein": {"strategy": "random",
                                    "augmentation": {"mode": "wasserstein", "factor": 5}}}
    src = os.path.dirname(os.path.dirname(os.path.abspath(harness.__file__)))
    csvs = []
    for threads in ("1", "2"):
        work = tmp_path / f"blas{threads}"
        work.mkdir()
        for label, cell in cells.items():
            (work / f"{label}.json").write_text(json.dumps({**base, "label": label, **cell}))
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads)
        done = subprocess.run(
            [sys.executable, "-c",
             "import sys\nfrom allwas.cli import main\n"
             "sys.exit(max(main(['run', f'{label}.json']) for label in sys.argv[1:]))",
             *cells], cwd=work, env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        csvs.append({label: (work / "runs" / f"{label}.csv").read_bytes() for label in cells})
    assert csvs[0] == csvs[1]
