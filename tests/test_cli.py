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

    def test_train_bench_defaults(self):
        args = build_parser().parse_args(["train-bench"])
        # None defers to the library defaults, so explicit flags are never
        # clobbered by --smoke.
        assert not args.smoke and args.batch_size is None and args.n_jobs is None

    def test_scenarios_defaults(self):
        args = build_parser().parse_args(["scenarios"])
        assert not args.smoke
        assert args.scenario_names is None and args.severities is None
        assert args.replications == 1 and args.n_jobs == 1
        assert args.checkpoint is None and args.resume is None

    def test_scenarios_scheduler_flags_parse(self):
        args = build_parser().parse_args(
            ["scenarios", "--checkpoint", "grid.jsonl", "--resume", "grid.jsonl"]
        )
        assert args.checkpoint == "grid.jsonl"
        assert args.resume == "grid.jsonl"

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

    def test_scenarios_cross_cell_with_checkpoint(self, capsys, tmp_path):
        import json

        output = str(tmp_path / "scenarios.json")
        checkpoint = str(tmp_path / "grid.jsonl")
        assert main([
            "scenarios", "--smoke", "--scenario", "overlap",
            "--num-samples", "120",
            "--checkpoint", checkpoint, "--output", output,
        ]) == 0
        record = json.loads(open(output).read())
        assert record["suite"]["checkpoint"] == checkpoint
        # The checkpoint recorded the grid: header + one line per unit.
        lines = open(checkpoint).read().splitlines()
        assert len(lines) == 1 + 2 * 2  # 2 severities x 2 default methods
        # --resume picks the finished checkpoint straight back up.
        assert main([
            "scenarios", "--smoke", "--scenario", "overlap",
            "--num-samples", "120", "--resume", checkpoint, "--output", output,
        ]) == 0
        resumed = json.loads(open(output).read())
        assert resumed["scenarios"] == record["scenarios"]

    def test_scenarios_resume_requires_existing_checkpoint(self, tmp_path):
        with pytest.raises(SystemExit, match="does not exist"):
            main([
                "scenarios", "--smoke", "--scenario", "overlap",
                "--resume", str(tmp_path / "missing.jsonl"),
            ])

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

    def test_scenarios_shard_requires_cache_or_checkpoint(self):
        with pytest.raises(SystemExit, match="cache-dir"):
            main(["scenarios", "--smoke", "--scenario", "overlap", "--shard", "1/2"])

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

    def test_scenarios_merge_roundtrip(self, capsys, tmp_path):
        import json

        output = str(tmp_path / "record.json")
        base = ["scenarios", "--smoke", "--scenario", "overlap", "--num-samples", "120"]
        assert main(base + ["--output", output]) == 0
        unsharded = json.loads(open(output).read())

        checkpoints = []
        for index in (1, 2):
            checkpoint = str(tmp_path / f"shard{index}.jsonl")
            checkpoints.append(checkpoint)
            assert main(base + ["--shard", f"{index}/2", "--checkpoint", checkpoint]) == 0

        merged_output = str(tmp_path / "merged.json")
        assert main(
            ["scenarios-merge", *checkpoints, "--output", merged_output]
        ) == 0
        merged = json.loads(open(merged_output).read())
        from repro.experiments.scenario_suite import compare_scenario_records

        assert compare_scenario_records(unsharded, merged) == []
        assert merged["suite"]["merged_from"] == checkpoints

    def test_scenarios_merge_incomplete_shards_exit_2(self, capsys, tmp_path):
        checkpoint = str(tmp_path / "shard1.jsonl")
        assert main([
            "scenarios", "--smoke", "--scenario", "overlap", "--num-samples", "120",
            "--shard", "1/2", "--checkpoint", checkpoint,
        ]) == 0
        capsys.readouterr()
        assert main(["scenarios-merge", checkpoint]) == 2
        assert "missing" in capsys.readouterr().err

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
        import json

        output = str(tmp_path / "bench.json")
        assert main(["train-bench", "--smoke", "--output", output]) == 0
        out = capsys.readouterr().out
        assert "Minibatch engine" in out and "wrote" in out
        record = json.loads(open(output).read())
        assert record["mode"] == "smoke"
        assert record["parallel_grid"]["identical_results"] is True
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
