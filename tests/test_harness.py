import json
import os

import numpy as np
import pytest

from allwas.cli import main as cli_main
from allwas.errors import ConfigError
from allwas.data import Corpus
from allwas.harness import ExperimentConfig, load_corpus, run_experiment, run_sweep
from allwas.report import (
    learning_curve_svg,
    load_records,
    paired_f1,
    report,
    significance_table,
    validate_svg,
)

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

    @pytest.mark.parametrize("section, bad, message", [
        ("model", {"dropout": 1.5}, "dropout"),
        ("augmentation", {"mode": "l2-kde", "factor": -1}, "factor")])
    def test_bad_nested_value_rejected_at_build(self, tmp_path, section, bad, message):
        with pytest.raises(ConfigError, match=message):
            small_cfg(tmp_path, **{section: bad})

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
    def test_loop_reads_no_example_by_id(self, tmp_path, monkeypatch, strategy, mode):
        # The loop works on the rows stacked once per repeat.
        def lookup(self, example_id):
            raise AssertionError(f"example {example_id!r} read by id")

        monkeypatch.setattr(Corpus, "__getitem__", lookup)
        cfg = small_cfg(tmp_path, strategy=strategy, repeats=1,
                        augmentation={"mode": mode, "factor": 2})
        record = run_experiment(cfg)
        assert [row.labeled for row in record.rows] == [10, 20, 30]


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

    def test_parallel_cells_match_serial(self, tmp_path, monkeypatch):
        cfg = small_cfg(tmp_path, budget=20, k=10, out_dir=str(tmp_path / "ser"))
        serial = run_sweep(cfg, "strategy", ["random", "lc"])
        monkeypatch.setenv("ALLWAS_THREADS", "2")
        cfg2 = small_cfg(tmp_path, budget=20, k=10, out_dir=str(tmp_path / "par"))
        parallel = run_sweep(cfg2, "strategy", ["random", "lc"])
        for s, p in zip(serial, parallel):
            assert s.rows == p.rows


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
        ("eps", -1.0), ("max_iter", -5), ("tol", -1.0), ("subsample", 0),
        ("p", 0.5), ("s0_cost", -1.0)])
    def test_bad_ot_value_exits_2_before_corpus_loads(self, tmp_path, capsys,
                                                      monkeypatch, field, bad):
        assert self.run_before_corpus_loads(tmp_path, monkeypatch, ot={field: bad}) == 2
        assert f"ot {field} must be" in capsys.readouterr().err

    @pytest.mark.parametrize("field, bad", [
        ("minority_fraction", 1.5), ("radius_percentile", 150), ("val_fraction", 1.0),
        ("setting", "skewed"), ("mc_passes", 0)])
    def test_bad_value_exits_2_before_corpus_loads(self, tmp_path, capsys,
                                                   monkeypatch, field, bad):
        assert self.run_before_corpus_loads(tmp_path, monkeypatch, **{field: bad}) == 2
        assert field in capsys.readouterr().err

    def test_exit_code_data_error(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert cli_main(["ingest", str(empty)]) == 3

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
