"""Tests for the scenario-matrix suite runner and its aggregates."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.experiments import MethodSpec
from repro.experiments.reporting import write_record
from repro.experiments.scenario_suite import (
    ScenarioSuiteConfig,
    degradation_slope,
    format_scenario_suite,
    run_scenario_suite,
)
from repro.registry import UnknownComponentError


class TestDegradationSlope:
    def test_exact_on_linear_profile(self):
        severities = [0.0, 0.5, 1.0]
        values = [1.0, 2.0, 3.0]  # slope 2 per unit severity
        assert degradation_slope(severities, values) == pytest.approx(2.0)

    def test_zero_on_flat_profile(self):
        assert degradation_slope([0.0, 1.0], [0.7, 0.7]) == pytest.approx(0.0)

    def test_single_severity_is_defined_as_zero(self):
        assert degradation_slope([0.5], [3.0]) == 0.0
        assert degradation_slope([0.5, 0.5], [1.0, 3.0]) == 0.0

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            degradation_slope([0.0, 1.0], [1.0])

    def test_least_squares_on_noisy_profile(self):
        rng = np.random.default_rng(0)
        severities = np.linspace(0, 1, 20)
        values = 0.3 + 1.7 * severities + 0.01 * rng.normal(size=20)
        assert degradation_slope(severities, values) == pytest.approx(1.7, abs=0.05)


@pytest.fixture(scope="module")
def tiny_suite_result(fast_config_session):
    """One two-scenario suite run shared by the structural tests."""
    spec = MethodSpec(
        backbone="cfr", framework="vanilla", config=fast_config_session, seed=0
    )
    config = ScenarioSuiteConfig(
        scenario_names=["overlap", "flip-noise"],
        severities=(0.0, 1.0),
        num_samples=150,
        replications=1,
        n_jobs=1,
        seed=7,
        methods=[spec],
    )
    return run_scenario_suite(config)


@pytest.fixture(scope="module")
def fast_config_session():
    """Module-scoped clone of the ``fast_config`` fixture (which is
    function-scoped and therefore unusable from module-scoped fixtures)."""
    from repro.core.config import (
        BackboneConfig,
        RegularizerConfig,
        SBRLConfig,
        TrainingConfig,
    )

    return SBRLConfig(
        backbone=BackboneConfig(rep_layers=2, rep_units=12, head_layers=2, head_units=8),
        regularizers=RegularizerConfig(
            alpha=1e-2, gamma1=1.0, gamma2=1e-2, gamma3=1e-2, max_pairs_per_layer=6
        ),
        training=TrainingConfig(
            iterations=15,
            learning_rate=1e-2,
            weight_update_every=5,
            weight_steps_per_iteration=1,
            evaluation_interval=10,
            early_stopping_patience=None,
            seed=0,
        ),
    )


class TestRunScenarioSuite:
    def test_record_structure(self, tiny_suite_result):
        result = tiny_suite_result
        assert result["benchmark"] == "scenario-matrix"
        assert set(result["scenarios"]) == {"overlap", "flip-noise"}
        assert result["suite"]["scenarios"] == ["overlap", "flip-noise"]
        for record in result["scenarios"].values():
            assert record["severities"] == [0.0, 1.0]
            # one cell per (severity, method)
            assert len(record["cells"]) == 2
            for cell in record["cells"]:
                assert cell["pehe_mean"] >= 0.0
                assert cell["ate_error_mean"] >= 0.0
                assert cell["replications"] == 1
                assert set(cell["per_environment"]) == {"rho=2.5", "rho=-2.5"}

    def test_degradation_summary_per_method(self, tiny_suite_result):
        for record in tiny_suite_result["scenarios"].values():
            assert set(record["degradation"]) == {"CFR"}
            slopes = record["degradation"]["CFR"]
            assert {"pehe_slope", "ate_error_slope", "pehe_at_zero", "pehe_at_max"} <= set(
                slopes
            )
            # The slope must tie out with the cells it summarises.
            cells = sorted(record["cells"], key=lambda cell: cell["severity"])
            expected = degradation_slope(
                [cell["severity"] for cell in cells],
                [cell["pehe_mean"] for cell in cells],
            )
            assert slopes["pehe_slope"] == pytest.approx(expected)

    def test_json_serialisable_and_writable(self, tiny_suite_result, tmp_path):
        json.dumps(tiny_suite_result)  # must not raise
        path = write_record(tiny_suite_result, str(tmp_path / "bench.json"))
        with open(path, encoding="utf-8") as handle:
            assert json.load(handle)["benchmark"] == "scenario-matrix"

    def test_format_produces_tables(self, tiny_suite_result):
        text = format_scenario_suite(tiny_suite_result)
        assert "Scenario: overlap" in text
        assert "Cross-severity degradation" in text
        assert "CFR" in text

    def test_replications_aggregate(self, fast_config_session):
        spec = MethodSpec(
            backbone="cfr", framework="vanilla", config=fast_config_session, seed=0
        )
        config = ScenarioSuiteConfig(
            scenario_names=["flip-noise"],
            severities=(1.0,),
            num_samples=120,
            replications=2,
            seed=3,
            methods=[spec],
        )
        result = run_scenario_suite(config)
        (record,) = result["scenarios"].values()
        (cell,) = record["cells"]
        assert cell["replications"] == 2

    def test_alias_resolution(self):
        config = ScenarioSuiteConfig(scenario_names=["positivity"])
        assert config.resolved_scenarios() == ["overlap"]

    def test_default_scenarios_cover_all_registered(self):
        from repro.scenarios import available_scenarios

        assert ScenarioSuiteConfig().resolved_scenarios() == available_scenarios()

    def test_unknown_scenario_raises(self):
        with pytest.raises(UnknownComponentError):
            ScenarioSuiteConfig(scenario_names=["no-such-axis"]).resolved_scenarios()

    def test_invalid_severity_raises(self, fast_config_session):
        spec = MethodSpec(
            backbone="cfr", framework="vanilla", config=fast_config_session, seed=0
        )
        config = ScenarioSuiteConfig(
            scenario_names=["overlap"],
            severities=(2.0,),
            num_samples=100,
            methods=[spec],
        )
        with pytest.raises(ValueError, match="severity"):
            run_scenario_suite(config)

    def test_empty_severities_raise(self, fast_config_session):
        spec = MethodSpec(
            backbone="cfr", framework="vanilla", config=fast_config_session, seed=0
        )
        config = ScenarioSuiteConfig(
            scenario_names=["overlap"], severities=(), num_samples=100, methods=[spec]
        )
        with pytest.raises(ValueError, match="severity"):
            run_scenario_suite(config)

    def test_default_methods_are_vanilla_vs_sbrl_hap(self):
        specs = ScenarioSuiteConfig().resolved_methods(seed=0)
        assert [spec.name for spec in specs] == ["CFR", "CFR+SBRL-HAP"]


class TestFromOptions:
    """`from_options` is the single smoke-policy shared by the CLI verb and
    benchmarks/bench_scenarios.py — pin it so the entry points can't drift."""

    def test_smoke_defaults(self):
        config = ScenarioSuiteConfig.from_options(smoke=True)
        assert config.num_samples == 250
        assert tuple(config.severities) == (0.0, 1.0)
        assert config.scale == "smoke"

    def test_full_defaults(self):
        config = ScenarioSuiteConfig.from_options(smoke=False)
        assert config.num_samples == 500
        assert config.severities is None  # defer to each scenario's grid
        assert config.scale == "default"

    def test_explicit_values_beat_smoke_defaults(self):
        config = ScenarioSuiteConfig.from_options(
            smoke=True, num_samples=99, severities=(0.5,), n_jobs=3, seed=1
        )
        assert config.num_samples == 99
        assert tuple(config.severities) == (0.5,)
        assert config.n_jobs == 3 and config.seed == 1

    def test_scheduler_and_checkpoint_are_rejected(self):
        # Every grid runs the work-unit queue and stores its outcomes in the
        # result cache: there is no scheduler to pick and no checkpoint to
        # write, and a stale caller asking for one gets an error, not a
        # silent no-op.
        config = ScenarioSuiteConfig.from_options(smoke=True)
        assert not hasattr(config, "scheduler") and not hasattr(config, "checkpoint")
        with pytest.raises(TypeError, match="scheduler"):
            ScenarioSuiteConfig.from_options(smoke=True, scheduler="cross-cell")
        with pytest.raises(TypeError, match="checkpoint"):
            ScenarioSuiteConfig.from_options(smoke=True, checkpoint="grid.jsonl")

    def test_scheduler_defaults_unset(self):
        config = ScenarioSuiteConfig.from_options(smoke=True)
        assert config.cache_dir is None and config.shard is None

    def test_cache_and_shard_pass_through(self):
        config = ScenarioSuiteConfig.from_options(
            smoke=True, cache_dir=".cache", shard="2/3"
        )
        assert config.cache_dir == ".cache"
        assert config.shard == (2, 3)  # "K/N" strings are normalised
        assert (
            ScenarioSuiteConfig.from_options(smoke=True, shard=(1, 2)).shard == (1, 2)
        )
