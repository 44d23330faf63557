"""Tests for the cross-cell scenario scheduler.

The scheduler's contract: at a fixed suite seed the work-unit queue is
bit-for-bit identical (apart from measured wall-clock) to a per-cell
reference — one in-process ``run_replications`` call per (scenario,
severity) cell — at ``n_jobs=1`` and ``n_jobs=2`` alike; one diverging
unit reports an error row instead of killing the grid; and an interrupted
run resumes from its result cache to the exact record an uninterrupted
run produces.
"""

from __future__ import annotations

import json
import os
from dataclasses import replace
from typing import Dict

import pytest

from repro.core.config import BackboneConfig, RegularizerConfig, SBRLConfig, TrainingConfig
from repro.experiments import MethodSpec
from repro.experiments import scheduler as scheduler_module
from repro.experiments.runner import run_replications
from repro.experiments.scenario_suite import (
    ScenarioSuiteConfig,
    _aggregate_cell,
    _scenario_records,
    compare_scenario_records,
    run_scenario_suite,
    scenario_cell_metrics,
)
from repro.experiments.cache import ResultCache
from repro.experiments.scheduler import plan_units, run_cross_cell, unit_key
from repro.registry import scenarios as SCENARIO_REGISTRY
from repro.scenarios import Scenario, build_scenario, rebuild_dataset


@pytest.fixture(scope="module")
def scheduler_config():
    """A training configuration that fits in well under a second."""
    return SBRLConfig(
        backbone=BackboneConfig(rep_layers=2, rep_units=12, head_layers=2, head_units=8),
        regularizers=RegularizerConfig(
            alpha=1e-2, gamma1=1.0, gamma2=1e-2, gamma3=1e-2, max_pairs_per_layer=6
        ),
        training=TrainingConfig(
            iterations=10,
            learning_rate=1e-2,
            weight_update_every=5,
            weight_steps_per_iteration=1,
            evaluation_interval=10,
            early_stopping_patience=None,
            seed=0,
        ),
    )


def per_cell_reference(config: ScenarioSuiteConfig) -> Dict[str, object]:
    """The grid computed one (scenario, severity) cell at a time.

    One in-process ``run_replications`` call per cell, each replication's
    dataset built from its spawned seed, then ``_aggregate_cell`` per
    method: the bit-identity reference the work-unit queue must match.
    """
    specs = config.resolved_methods(config.seed)
    items = []
    cells_by_scenario = {}
    for name in config.resolved_scenarios():
        scenario = build_scenario(name, dims=config.dims)
        cells = []
        for severity in config.severities:

            def build_protocol(replication, replication_seed, _severity=severity):
                cell = scenario.build(
                    config.num_samples, _severity, seed=replication_seed % (2 ** 31)
                )
                return cell.as_protocol()

            per_replication = run_replications(
                specs, build_protocol, replications=config.replications, seed=config.seed
            )
            for index, spec in enumerate(specs):
                method_results = [results[index] for results in per_replication]
                cells.append(_aggregate_cell(name, severity, spec.name, method_results))
        cells_by_scenario[name] = cells
        items.append((name, scenario.describe(), config.severities))
    return {
        "scenarios": _scenario_records(
            items, [spec.name for spec in specs], cells_by_scenario
        )
    }


def suite_config(scheduler_config, **overrides) -> ScenarioSuiteConfig:
    spec = MethodSpec(backbone="cfr", framework="vanilla", config=scheduler_config, seed=0)
    options = dict(
        scenario_names=["overlap", "flip-noise"],
        severities=(0.0, 1.0),
        num_samples=120,
        replications=2,
        n_jobs=1,
        seed=11,
        methods=[spec],
    )
    options.update(overrides)
    return ScenarioSuiteConfig(**options)


class TestPlanUnits:
    def test_grid_is_fully_flattened(self, scheduler_config):
        config = suite_config(scheduler_config)
        specs = config.resolved_methods(config.seed)
        units = plan_units(
            {"overlap": (0.0, 1.0), "flip-noise": (0.0, 1.0)},
            specs,
            replications=2,
            seed=config.seed,
            num_samples=config.num_samples,
            dims=config.dims,
        )
        assert len(units) == 2 * 2 * 2 * len(specs)
        assert len({unit.key for unit in units}) == len(units)
        # Every replication index shares its seed across cells, exactly as
        # the serial path's repeated run_replications calls see them.
        seeds = {
            (unit.replication, unit.replication_seed) for unit in units
        }
        assert len(seeds) == 2

    def test_empty_inputs_raise(self, scheduler_config):
        config = suite_config(scheduler_config)
        specs = config.resolved_methods(config.seed)
        with pytest.raises(ValueError, match="scenario"):
            plan_units({}, specs, 1, 0, 100, config.dims)
        with pytest.raises(ValueError, match="severity"):
            plan_units({"overlap": ()}, specs, 1, 0, 100, config.dims)
        with pytest.raises(ValueError, match="method"):
            plan_units({"overlap": (0.0,)}, [], 1, 0, 100, config.dims)
        with pytest.raises(ValueError, match="num_samples"):
            plan_units({"overlap": (0.0,)}, specs, 1, 0, 0, config.dims)

    @pytest.mark.parametrize("n_jobs", [1, 2])
    def test_bad_sample_count_raises_before_any_unit_runs(self, scheduler_config, n_jobs):
        # Units build their datasets themselves, so without the plan-time
        # check every unit would fail alone and come back as an error row.
        config = suite_config(scheduler_config, num_samples=0, n_jobs=n_jobs)
        with pytest.raises(ValueError, match="num_samples"):
            run_scenario_suite(config)


class TestParallelEqualsSerial:
    """The acceptance gate: per-cell reference == n_jobs=1 == n_jobs=2."""

    @pytest.fixture(scope="class")
    def records(self, scheduler_config):
        config = suite_config(scheduler_config)
        return (
            per_cell_reference(config),
            run_scenario_suite(config),
            run_scenario_suite(replace(config, n_jobs=2)),
        )

    def test_cell_metrics_bit_identical(self, records):
        reference, serial, parallel = records
        assert compare_scenario_records(reference, serial) == []
        assert compare_scenario_records(serial, parallel) == []
        # Spot-check that the comparison actually saw float metrics.
        rows = scenario_cell_metrics(reference)
        assert rows and all("pehe_mean" in row for row in rows.values())
        for key, row in rows.items():
            assert row == scenario_cell_metrics(serial)[key]
            assert row == scenario_cell_metrics(parallel)[key]

    def test_comparison_detects_differences(self, records):
        _, serial, parallel = records
        mutated = json.loads(json.dumps(parallel))
        first = mutated["scenarios"]["overlap"]["cells"][0]
        first["pehe_mean"] = first["pehe_mean"] + 1.0
        differences = compare_scenario_records(serial, mutated)
        assert any("pehe_mean" in difference for difference in differences)


class TestCheckpointResume:
    """The result cache is the resume store: re-running a grid with the
    same cache directory computes only the units it does not hold."""

    def test_interrupted_grid_resumes_to_identical_record(
        self, scheduler_config, tmp_path
    ):
        cache_dir = str(tmp_path / "cache")
        config = suite_config(scheduler_config, cache_dir=cache_dir)
        uninterrupted = run_scenario_suite(config)

        # Simulate a kill mid-run: of the 8 completed units keep two, tear
        # the write of a third and drop the rest.
        entries = sorted(os.listdir(cache_dir))
        assert len(entries) == 8
        for name in entries[3:]:
            os.unlink(os.path.join(cache_dir, name))
        torn = os.path.join(cache_dir, entries[2])
        with open(torn, encoding="utf-8") as handle:
            text = handle.read()
        with open(torn, "w", encoding="utf-8") as handle:
            handle.write(text[: len(text) // 2])

        resumed = run_scenario_suite(config)
        assert compare_scenario_records(uninterrupted, resumed) == []
        assert resumed["cache"]["hits"] == 2 and resumed["cache"]["misses"] == 6
        # The resumed run rewrote the torn entry: a third run is all hits.
        replayed = run_scenario_suite(config)
        assert replayed["cache"]["hits"] == 8 and replayed["cache"]["misses"] == 0
        assert compare_scenario_records(uninterrupted, replayed) == []

    def test_completed_units_are_replayed_not_recomputed(
        self, scheduler_config, tmp_path
    ):
        cache_dir = str(tmp_path / "cache")
        config = suite_config(scheduler_config)
        specs = config.resolved_methods(config.seed)
        units = plan_units(
            {"overlap": (0.0, 1.0), "flip-noise": (0.0, 1.0)},
            specs,
            replications=config.replications,
            seed=config.seed,
            num_samples=config.num_samples,
            dims=config.dims,
        )
        first = run_cross_cell(units, n_jobs=1, cache=ResultCache(cache_dir))
        assert all(not outcome.from_cache for outcome in first.values())
        second = run_cross_cell(units, n_jobs=1, cache=ResultCache(cache_dir))
        assert all(outcome.from_cache for outcome in second.values())
        for key, outcome in second.items():
            reference = first[key].result
            assert outcome.result.per_environment == reference.per_environment
            assert outcome.result.stability.mean == reference.stability.mean

    def test_changed_method_config_is_recomputed(self, scheduler_config, tmp_path):
        # The key sees through a same-named method: a spec trained at a
        # different scale (or seed, or ablation) is a different grid even
        # though its display name is still "CFR", so the changed grid
        # resumes nothing and both grids' entries live side by side.
        cache_dir = str(tmp_path / "cache")
        original = run_scenario_suite(suite_config(scheduler_config, cache_dir=cache_dir))
        retrained = replace(
            scheduler_config,
            training=replace(scheduler_config.training, iterations=20),
        )
        spec = MethodSpec(backbone="cfr", framework="vanilla", config=retrained, seed=0)
        assert spec.name == "CFR"
        changed = run_scenario_suite(
            suite_config(scheduler_config, cache_dir=cache_dir, methods=[spec])
        )
        assert changed["cache"]["hits"] == 0 and changed["cache"]["misses"] == 8
        assert compare_scenario_records(original, changed) != []
        assert len(os.listdir(cache_dir)) == 16
        again = run_scenario_suite(suite_config(scheduler_config, cache_dir=cache_dir))
        assert again["cache"]["hits"] == 8
        assert compare_scenario_records(original, again) == []


class _ExplodingScenario(Scenario):
    """Builds fine at severity 0 and raises beyond it."""

    name = "exploding-test-scenario"
    axis = "raises at positive severity"

    def apply(self, train, tests, severity, seed):
        if severity > 0.0:
            raise RuntimeError("synthetic divergence")
        return train, tests, {}


class _WorkerKillingScenario(Scenario):
    """Kills its worker process outright (simulating an OOM-kill)."""

    name = "worker-killing-test-scenario"
    axis = "dies without raising"

    def apply(self, train, tests, severity, seed):
        import os

        os._exit(17)


class _PlainScenario(Scenario):
    """The base population, unperturbed."""

    name = "memo-test-scenario"
    axis = "none"

    def apply(self, train, tests, severity, seed):
        return train, tests, {}


class _FlippedScenario(_PlainScenario):
    """The base population with every recorded training treatment flipped."""

    def apply(self, train, tests, severity, seed):
        return rebuild_dataset(train, treatment=1.0 - train.treatment), tests, {}


class TestFailureIsolation:
    def test_diverging_cell_reports_error_row(self, scheduler_config):
        SCENARIO_REGISTRY.register("exploding-test-scenario", _ExplodingScenario)
        try:
            config = suite_config(
                scheduler_config,
                scenario_names=["overlap", "exploding-test-scenario"],
                replications=1,
            )
            record = run_scenario_suite(config)
        finally:
            SCENARIO_REGISTRY.unregister("exploding-test-scenario")

        # The healthy scenario is untouched by its neighbour's divergence.
        for cell in record["scenarios"]["overlap"]["cells"]:
            assert cell["error"] is None
            assert cell["pehe_mean"] >= 0.0

        exploding = record["scenarios"]["exploding-test-scenario"]
        by_severity = {cell["severity"]: cell for cell in exploding["cells"]}
        assert by_severity[0.0]["error"] is None
        assert "synthetic divergence" in by_severity[1.0]["error"]
        assert by_severity[1.0]["pehe_mean"] is None

        # Degradation summarises the finite cells only (a single severity
        # survives, so the slope degenerates to 0 by definition), and the
        # max-severity anchor is withheld rather than letting the surviving
        # severity-0 value masquerade as "PEHE at max".
        slopes = exploding["degradation"]["CFR"]
        assert slopes["pehe_at_zero"] == by_severity[0.0]["pehe_mean"]
        assert slopes["pehe_at_max"] is None
        assert slopes["pehe_slope"] == 0.0

    def test_failed_units_are_not_cached_and_rerun(self, scheduler_config, tmp_path):
        SCENARIO_REGISTRY.register("exploding-test-scenario", _ExplodingScenario)
        try:
            config = suite_config(
                scheduler_config,
                scenario_names=["exploding-test-scenario"],
                replications=1,
                cache_dir=str(tmp_path / "cache"),
            )
            run_scenario_suite(config)
            rerun = run_scenario_suite(config)
        finally:
            SCENARIO_REGISTRY.unregister("exploding-test-scenario")
        # Severity 0 is served from the cache; severity 1 failed, was not
        # stored, and ran (and failed) again.
        assert rerun["cache"]["hits"] == 1 and rerun["cache"]["misses"] == 1
        cells = rerun["scenarios"]["exploding-test-scenario"]["cells"]
        assert cells[0]["error"] is None
        assert "synthetic divergence" in cells[1]["error"]

    def test_fully_failed_method_gets_null_degradation(self, scheduler_config):
        SCENARIO_REGISTRY.register("exploding-test-scenario", _ExplodingScenario)
        try:
            config = suite_config(
                scheduler_config,
                scenario_names=["exploding-test-scenario"],
                severities=(0.5, 1.0),
                replications=1,
            )
            record = run_scenario_suite(config)
        finally:
            SCENARIO_REGISTRY.unregister("exploding-test-scenario")
        slopes = record["scenarios"]["exploding-test-scenario"]["degradation"]["CFR"]
        assert slopes == {
            "pehe_slope": None,
            "ate_error_slope": None,
            "pehe_at_zero": None,
            "pehe_at_max": None,
        }

    def test_pool_collapse_raises_instead_of_error_rows(self, scheduler_config):
        # A dying worker process (OOM-kill, segfault) is an infrastructure
        # failure: the scheduler must surface it, not stamp the rest of
        # the grid as diverging cells and let the run exit 0.
        SCENARIO_REGISTRY.register("worker-killing-test-scenario", _WorkerKillingScenario)
        try:
            config = suite_config(scheduler_config, replications=1)
            specs = config.resolved_methods(config.seed)
            units = plan_units(
                {"worker-killing-test-scenario": (0.0, 1.0)},
                specs,
                replications=1,
                seed=config.seed,
                num_samples=config.num_samples,
                dims=config.dims,
            )
            with pytest.raises(RuntimeError, match="pool collapsed"):
                run_cross_cell(units, n_jobs=2)
        finally:
            SCENARIO_REGISTRY.unregister("worker-killing-test-scenario")

    def test_error_keys_match_unit_keys(self):
        assert (
            unit_key("overlap", 0.25, 3, 1)
            == "overlap|severity=0.25|replication=3|method=1"
        )


class TestProtocolCache:
    def test_units_differing_only_in_method_share_one_build(self, scheduler_config):
        config = suite_config(scheduler_config)
        specs = [
            MethodSpec(backbone="cfr", framework="vanilla", config=scheduler_config, seed=0),
            MethodSpec(backbone="tarnet", framework="vanilla", config=scheduler_config, seed=0),
        ]
        units = plan_units(
            {"overlap": (1.0,)},
            specs,
            replications=1,
            seed=config.seed,
            num_samples=80,
            dims=config.dims,
        )
        scheduler_module._PROTOCOL_CACHE.clear()
        first = scheduler_module._build_unit_protocol(units[0])
        second = scheduler_module._build_unit_protocol(units[1])
        assert first is second  # same (scenario, severity, replication) build
        different = plan_units(
            {"overlap": (0.0,)}, specs, 1, config.seed, 80, config.dims
        )
        assert scheduler_module._build_unit_protocol(different[0]) is not first

    def test_memo_does_not_outlive_a_run(self, scheduler_config):
        # The memo is keyed by scenario name: a scenario re-registered
        # between two in-process runs must be rebuilt, not served stale.
        config = suite_config(scheduler_config)
        units = plan_units(
            {"memo-test-scenario": (0.0,)},
            config.resolved_methods(config.seed),
            replications=1,
            seed=config.seed,
            num_samples=config.num_samples,
            dims=config.dims,
        )
        SCENARIO_REGISTRY.register("memo-test-scenario", _PlainScenario)
        try:
            before = run_cross_cell(units, n_jobs=1)
            SCENARIO_REGISTRY.register(
                "memo-test-scenario", _FlippedScenario, overwrite=True
            )
            after = run_cross_cell(units, n_jobs=1)
        finally:
            SCENARIO_REGISTRY.unregister("memo-test-scenario")
        (key,) = before
        assert before[key].ok and after[key].ok
        assert before[key].result.per_environment != after[key].result.per_environment
        assert not scheduler_module._PROTOCOL_CACHE  # the run kept no datasets
