"""Unit tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import EXPERIMENTS, build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_requires_known_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "table99"])

    def test_all_experiments_registered(self):
        assert set(EXPERIMENTS) == {"table1", "table2", "table3", "table6", "fig3", "fig4", "fig5", "fig6"}

    def test_scale_choices(self):
        args = build_parser().parse_args(["run", "table2", "--scale", "smoke"])
        assert args.scale == "smoke"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "table2", "--scale", "huge"])


class TestCommands:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "table1" in output and "syn_8_8_8_2" in output

    def test_ood_command(self, capsys):
        assert main(["ood", "--benchmark", "syn_8_8_8_2", "--num-samples", "300", "--seed", "1"]) == 0
        output = capsys.readouterr().out
        assert "OOD level" in output
        assert "severity" in output

    @pytest.mark.slow
    def test_run_table2_smoke(self, capsys):
        assert main(["run", "table2", "--scale", "smoke"]) == 0
        output = capsys.readouterr().out
        assert "Table II" in output

    def test_save_requires_output(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["save"])

    def test_predict_requires_model(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["predict"])

    def test_serve_bench_defaults(self):
        args = build_parser().parse_args(["serve-bench"])
        assert args.model is None and args.rows == 2000

    @pytest.mark.parametrize(
        "argv",
        [["train-bench"], ["bench-autodiff"], ["online-bench"], ["serve-bench", "--sustained"]],
    )
    def test_benchmark_records_have_no_cli_verb(self, argv):
        # The scripts in benchmarks/ are the one front door to each record.
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("argv", [["--rows", "0"], ["--requests", "-3"]])
    def test_serve_bench_rejects_counts_below_one(self, argv, capsys):
        # Rejected while parsing, before any model is trained.
        with pytest.raises(SystemExit) as excinfo:
            main(["serve-bench", *argv])
        assert excinfo.value.code == 2
        assert "must be at least 1" in capsys.readouterr().err

    def test_scenarios_defaults(self):
        args = build_parser().parse_args(["scenarios"])
        assert not args.smoke
        assert args.scenario_names is None and args.severities is None
        assert args.replications == 1 and args.n_jobs == 1
        assert args.cache_dir is None and args.shard is None

    @pytest.mark.parametrize(
        "argv",
        [
            ["scenarios", "--checkpoint", "grid.jsonl"],
            ["scenarios", "--resume", "grid.jsonl"],
            ["scenarios-merge", "shard1.jsonl"],
        ],
    )
    def test_scenarios_checkpoint_flags_and_merge_verb_are_gone(self, argv):
        # The result cache is the one store of grid outcomes: resume with
        # the same --cache-dir, assemble shards from the union of caches.
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("argv", [["--replications", "0"], ["--num-samples", "0"]])
    def test_scenarios_rejects_counts_below_one(self, argv, capsys):
        # Rejected while parsing, before any unit is planned.
        with pytest.raises(SystemExit) as excinfo:
            main(["scenarios", "--smoke", "--scenario", "overlap", *argv])
        assert excinfo.value.code == 2
        assert "must be at least 1" in capsys.readouterr().err

    def test_scenarios_smoke_writes_json(self, capsys, tmp_path):
        import json

        output = str(tmp_path / "scenarios.json")
        assert main([
            "scenarios", "--smoke", "--scenario", "overlap",
            "--num-samples", "150", "--output", output,
        ]) == 0
        out = capsys.readouterr().out
        assert "Scenario: overlap" in out and "degradation" in out and "wrote" in out
        record = json.loads(open(output).read())
        assert record["benchmark"] == "scenario-matrix"
        assert record["scenarios"]["overlap"]["severities"] == [0.0, 1.0]
        assert set(record["scenarios"]["overlap"]["degradation"]) == {"CFR", "CFR+SBRL-HAP"}

    def test_scenarios_rejects_unknown_scenario(self):
        from repro.registry import UnknownComponentError

        with pytest.raises(UnknownComponentError):
            main(["scenarios", "--smoke", "--scenario", "no-such-axis", "--num-samples", "80"])

    def test_scenarios_cache_flags_parse(self):
        args = build_parser().parse_args(
            ["scenarios", "--cache-dir", ".cache", "--shard", "2/4"]
        )
        assert args.cache_dir == ".cache"
        assert args.shard == (2, 4)

    def test_scenarios_bad_shard_is_a_clean_error(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["scenarios", "--shard", "5/2"])
        assert "1 <= K <= N" in capsys.readouterr().err

    def test_scenarios_shard_requires_cache_dir(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["scenarios", "--smoke", "--scenario", "overlap", "--shard", "1/2"])
        assert excinfo.value.code == 2
        assert "--shard requires --cache-dir" in capsys.readouterr().err

    def test_scenarios_cache_warm_run_serves_from_cache(self, capsys, tmp_path):
        import json

        cache_dir = str(tmp_path / "cache")
        output = str(tmp_path / "scenarios.json")
        base = [
            "scenarios", "--smoke", "--scenario", "overlap",
            "--num-samples", "120", "--cache-dir", cache_dir, "--output", output,
        ]
        assert main(base) == 0
        cold = json.loads(open(output).read())
        assert cold["cache"] == dict(cold["cache"], enabled=True, hits=0, misses=4)
        assert main(base) == 0
        warm = json.loads(open(output).read())
        assert warm["cache"] == dict(warm["cache"], hits=4, misses=0, hit_rate=1.0)
        out = capsys.readouterr().out
        assert "cache: 4 hits / 0 misses (100% hit rate)" in out
        assert "stages:" in out
        assert warm["scenarios"] == cold["scenarios"]

    def test_scenarios_shards_assemble_from_a_cache_union(self, capsys, tmp_path):
        import json
        import shutil

        from repro.experiments.scenario_suite import compare_scenario_records

        output = str(tmp_path / "record.json")
        base = ["scenarios", "--smoke", "--scenario", "overlap", "--num-samples", "120"]
        assert main(base + ["--output", output]) == 0
        unsharded = json.loads(open(output).read())

        # Each host writes its shard into its own cache; copying the
        # entries into one directory unions them.
        union = tmp_path / "union"
        union.mkdir()
        for index in (1, 2):
            cache_dir = tmp_path / f"shard{index}"
            assert main(base + ["--shard", f"{index}/2", "--cache-dir", str(cache_dir)]) == 0
            for entry in cache_dir.iterdir():
                shutil.copy(str(entry), str(union))
        capsys.readouterr()

        assert main(base + ["--cache-dir", str(union), "--output", output]) == 0
        assert "cache: 4 hits / 0 misses (100% hit rate)" in capsys.readouterr().out
        assembled = json.loads(open(output).read())
        assert compare_scenario_records(unsharded, assembled) == []

    def test_scenarios_resume_from_a_partial_cache(self, capsys, tmp_path):
        import json
        import os

        from repro.experiments.scenario_suite import compare_scenario_records

        cache_dir = tmp_path / "cache"
        output = str(tmp_path / "record.json")
        base = [
            "scenarios", "--smoke", "--scenario", "overlap", "--num-samples", "120",
            "--cache-dir", str(cache_dir), "--output", output,
        ]
        assert main(base) == 0
        uninterrupted = json.loads(open(output).read())
        # An interrupted run left two of its four entries behind.
        for entry in sorted(os.listdir(str(cache_dir)))[2:]:
            os.unlink(str(cache_dir / entry))
        capsys.readouterr()

        assert main(base) == 0
        assert "cache: 2 hits / 2 misses (50% hit rate)" in capsys.readouterr().out
        resumed = json.loads(open(output).read())
        assert compare_scenario_records(uninterrupted, resumed) == []

    def test_scenarios_assembly_computes_what_no_shard_cached(self, capsys, tmp_path):
        import os

        # Only shard 1 of 2 reached the cache: the unsharded run still
        # exits 0, computes shard 2's units and counts them as misses.
        cache_dir = tmp_path / "cache"
        base = [
            "scenarios", "--smoke", "--scenario", "overlap", "--num-samples", "120",
            "--cache-dir", str(cache_dir),
        ]
        assert main(base + ["--shard", "1/2"]) == 0
        cached = len(os.listdir(str(cache_dir)))
        assert 0 < cached < 4
        capsys.readouterr()

        assert main(base) == 0
        assert f"cache: {cached} hits / {4 - cached} misses" in capsys.readouterr().out
        assert len(os.listdir(str(cache_dir))) == 4

    def test_scenarios_fully_failed_grid_exits_nonzero(self, capsys):
        from repro.registry import scenarios as scenario_registry
        from repro.scenarios import Scenario

        class AlwaysFailing(Scenario):
            name = "cli-always-failing"
            axis = "raises at every severity"

            def apply(self, train, tests, severity, seed):
                raise RuntimeError("nothing works")

        scenario_registry.register("cli-always-failing", AlwaysFailing)
        try:
            code = main([
                "scenarios", "--smoke", "--scenario", "cli-always-failing",
                "--num-samples", "100",
            ])
        finally:
            scenario_registry.unregister("cli-always-failing")
        assert code == 1
        err = capsys.readouterr().err
        assert "cells reported errors" in err and "every cell" in err

    def test_train_bench_smoke_writes_json(self, capsys, tmp_path):
        import importlib.util
        import json
        import pathlib

        path = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "bench_training.py"
        spec = importlib.util.spec_from_file_location("bench_training_script", path)
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        output = str(tmp_path / "bench.json")
        assert script.main(["--smoke", "--output", output]) == 0
        out = capsys.readouterr().out
        assert "Minibatch engine" in out and "wrote" in out
        record = json.loads(open(output).read())
        assert record["mode"] == "smoke"
        assert record["minibatch"]["full_batch"]["seconds"] > 0

    @pytest.mark.slow
    def test_save_predict_serve_bench_pipeline(self, capsys, tmp_path):
        artifact = str(tmp_path / "model")
        assert main([
            "save", "--output", artifact, "--benchmark", "syn_8_8_8_2",
            "--num-samples", "300", "--scale", "smoke", "--seed", "1",
        ]) == 0
        assert "saved to" in capsys.readouterr().out

        assert main([
            "predict", "--model", artifact, "--benchmark", "syn_8_8_8_2",
            "--num-samples", "200", "--seed", "2",
        ]) == 0
        output = capsys.readouterr().out
        assert "predicted ATE" in output

        out_csv = str(tmp_path / "predictions.csv")
        assert main([
            "predict", "--model", artifact, "--benchmark", "syn_8_8_8_2",
            "--num-samples", "200", "--seed", "2", "--output", out_csv,
        ]) == 0
        header = open(out_csv).readline().strip()
        assert header == "mu0,mu1,ite"

        assert main([
            "serve-bench", "--model", artifact, "--rows", "400", "--requests", "40",
            "--seed", "3",
        ]) == 0
        output = capsys.readouterr().out
        assert "microbatched predict_many" in output

    @pytest.mark.slow
    def test_quickstart_smoke(self, capsys):
        assert main(
            ["quickstart", "--benchmark", "ihdp", "--scale", "smoke", "--seed", "1"]
        ) == 0
        output = capsys.readouterr().out
        assert "Quickstart on ihdp" in output
        assert "CFR+SBRL-HAP" in output
