"""Unit tests for the experiment runner, protocols and reporting helpers."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.experiments.protocols import (
    SCALES,
    experiment_config,
    get_scale,
    ihdp_protocol,
    synthetic_protocol,
    twins_protocol,
)
from repro.experiments.reporting import (
    format_matrix,
    format_series,
    format_table,
    machine_block,
    write_record,
)
from repro.experiments.runner import MethodSpec, default_method_grid, run_method, run_methods


class TestScales:
    def test_known_scales(self):
        assert set(SCALES) == {"smoke", "default", "paper"}
        assert get_scale("smoke").iterations < get_scale("paper").iterations

    def test_unknown_scale(self):
        with pytest.raises(ValueError):
            get_scale("huge")

    def test_experiment_config_respects_scale(self):
        config = experiment_config(get_scale("smoke"))
        assert config.training.iterations == SCALES["smoke"].iterations
        assert config.backbone.rep_units == SCALES["smoke"].rep_units


class TestProtocols:
    def test_synthetic_protocol_structure(self):
        protocol = synthetic_protocol(dims=(4, 4, 4, 2), scale=get_scale("smoke"), bias_rates=(2.5, -2.5))
        assert protocol["name"] == "Syn_4_4_4_2"
        assert set(protocol["test_environments"]) == {2.5, -2.5}
        assert len(protocol["train"]) == SCALES["smoke"].num_samples

    def test_twins_protocol_structure(self):
        protocol = twins_protocol(scale=get_scale("smoke"))
        assert set(protocol["test_environments"]) == {"train", "validation", "test"}
        assert protocol["train"].num_features == 43

    def test_ihdp_protocol_structure(self):
        protocol = ihdp_protocol(scale=get_scale("smoke"))
        assert protocol["train"].num_features == 25
        assert not protocol["train"].binary_outcome


class TestMethodSpec:
    def test_names(self, fast_config):
        assert MethodSpec(backbone="cfr", framework="vanilla").name == "CFR"
        assert MethodSpec(backbone="tarnet", framework="sbrl").name == "TARNet+SBRL"
        assert MethodSpec(backbone="dercfr", framework="sbrl-hap").name == "DeR-CFR+SBRL-HAP"
        assert MethodSpec(backbone="der-cfr", framework="sbrl-hap").name == "DeR-CFR+SBRL-HAP"
        assert MethodSpec(label="custom").name == "custom"

    def test_name_resolves_registered_custom_backbone(self):
        # Regression test: the display name used to come from a hardcoded
        # dict that raised KeyError for backbones plugged in via the
        # registry; it must now fall back to the registry's display name.
        from repro.core.backbones import TARNet
        from repro.registry import backbones

        backbones.register("enginetestnet", TARNet, display_name="EngineTestNet")
        try:
            assert MethodSpec(backbone="enginetestnet", framework="vanilla").name == "EngineTestNet"
            assert (
                MethodSpec(backbone="enginetestnet", framework="sbrl-hap").name
                == "EngineTestNet+SBRL-HAP"
            )
        finally:
            backbones.unregister("enginetestnet")

    def test_default_method_grid(self, fast_config):
        grid = default_method_grid(config=fast_config)
        assert len(grid) == 9
        names = [spec.name for spec in grid]
        assert "CFR+SBRL-HAP" in names and "TARNet" in names
        tarnet_specs = [spec for spec in grid if spec.backbone == "tarnet"]
        assert all(not spec.use_balance for spec in tarnet_specs)

    def test_grid_subsets(self, fast_config):
        grid = default_method_grid(config=fast_config, backbones=("cfr",), frameworks=("vanilla",))
        assert len(grid) == 1


class TestRunner:
    def test_run_method_produces_metrics(self, fast_config, small_train, small_ood, small_protocol):
        spec = MethodSpec(backbone="cfr", framework="sbrl", config=fast_config, seed=0)
        environments = {"id": small_protocol["test_environments"][2.5], "ood": small_ood}
        result = run_method(spec, small_train, environments)
        assert set(result.per_environment) == {"id", "ood"}
        assert result.metric("ood", "pehe") >= 0
        assert result.training_seconds > 0
        assert "pehe" in result.stability.mean

    def test_run_method_requires_environments(self, fast_config, small_train):
        spec = MethodSpec(config=fast_config)
        with pytest.raises(ValueError):
            run_method(spec, small_train, {})

    def test_run_methods_ordering(self, fast_config, small_train, small_ood):
        specs = [
            MethodSpec(backbone="tarnet", framework="vanilla", config=fast_config, seed=0),
            MethodSpec(backbone="cfr", framework="vanilla", config=fast_config, seed=0),
        ]
        results = run_methods(specs, small_train, {"ood": small_ood})
        assert [result.name for result in results] == ["TARNet", "CFR"]


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table(["method", "pehe"], [["CFR", 0.5], ["TARNet", 0.25]], title="demo")
        lines = text.splitlines()
        assert lines[0] == "demo"
        assert "CFR" in text and "0.250" in text

    def test_format_series(self):
        text = format_series("CFR", {"rho=2.5": 0.4, "rho=-3": 0.7})
        assert text.startswith("CFR:") and "rho=-3=0.700" in text

    def test_format_matrix(self):
        text = format_matrix(["a", "b"], ["x", "y"], [[1.0, 2.0], [3.0, 4.0]])
        assert "a" in text and "4.000" in text

    def test_write_record_writes_json_dumps_indent_2_and_a_newline(self, tmp_path):
        record = {
            "benchmark": "demo",
            "mode": "smoke",
            "machine": machine_block(),
            "z": {"b": [1, 2.5, None], "a": "µs"},
            "a": 1e-07,
        }
        path = write_record(record, str(tmp_path / "record.json"))
        with open(path, "rb") as handle:
            assert handle.read() == (json.dumps(record, indent=2) + "\n").encode("utf-8")
        assert sorted(record["machine"]) == ["cpu_count", "platform", "python"]
