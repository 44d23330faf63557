"""Schema tests for the online-serving benchmark (``benchmarks/bench_online.py``)."""

from __future__ import annotations

import copy
import importlib.util
import json
import pathlib

import pytest

from repro.experiments.online_benchmark import (
    LATENCY_RATIO_CEILING,
    RECOVERY_FLOOR,
    benchmark_online,
    format_online_benchmark,
)
from repro.experiments.reporting import write_record


@pytest.fixture(scope="module")
def record():
    """One tiny smoke run shared by every schema assertion.

    Sizes are far below the smoke defaults so the gates are *not* expected
    to pass here — these tests pin the record's shape, not its quality.
    The real gates run in CI via ``benchmarks/bench_online.py --smoke``.
    """
    return benchmark_online(
        smoke=True,
        num_samples=250,
        num_steps=8,
        batch_rows=48,
        refit_epochs=5,
        seed=7,
    )


class TestRecordSchema:
    def test_top_level(self, record):
        assert record["benchmark"] == "online-serving"
        assert record["mode"] == "smoke"
        assert "smoke_reference" not in record
        assert set(record["schedules"]) == {"recurring", "abrupt"}

    def test_config_echoes_overrides(self, record):
        config = record["config"]
        assert config["num_samples"] == 250
        assert config["num_steps"] == 8
        assert config["batch_rows"] == 48
        assert config["refit_epochs"] == 5
        assert config["backbone"] == "tarnet"
        assert config["framework"] == "sbrl-hap"

    def test_tradeoff_curve(self, record):
        tradeoff = record["tradeoff"]
        assert tradeoff["cold_seconds"] > 0
        assert tradeoff["window_rows"] == 2 * 48
        epochs = [entry["epochs"] for entry in tradeoff["curve"]]
        assert epochs == sorted(epochs)
        assert 5 in epochs  # the chosen refit budget is always on the curve
        for entry in tradeoff["curve"]:
            assert entry["warm_seconds"] > 0
            assert entry["latency_ratio"] == pytest.approx(
                entry["warm_seconds"] / tradeoff["cold_seconds"]
            )

    def test_loop_phase_schema(self, record):
        for phase in record["schedules"].values():
            assert phase["schedule"]["num_steps"] == 8
            assert phase["batch_rows"] == 48
            assert phase["window_bound_steps"] >= 1
            assert len(phase["pehe_by_step"]) == 8
            assert len(phase["steps"]) == 8
            assert phase["failed_requests"] == 0
            assert phase["frontend_failed_requests"] == 0
            assert phase["deploys"] >= 1  # at least the initial deploy

    def test_gates_structure(self, record):
        gates = record["gates"]
        assert gates["warm_recovery"]["floor"] == RECOVERY_FLOOR
        assert gates["warm_latency_ratio"]["ceiling"] == LATENCY_RATIO_CEILING
        assert isinstance(gates["drift_detected_within_window"], bool)
        assert isinstance(gates["zero_failed_requests"], bool)
        assert gates["all_passed"] == (
            gates["drift_detected_within_window"]
            and gates["warm_recovery"]["passed"]
            and gates["warm_latency_ratio"]["passed"]
            and gates["zero_failed_requests"]
        )

    def test_json_round_trip(self, record, tmp_path):
        path = write_record(record, str(tmp_path / "BENCH_online.json"))
        with open(path) as handle:
            loaded = json.load(handle)
        assert loaded["gates"].keys() == record["gates"].keys()

    def test_format_renders_every_section(self, record):
        text = format_online_benchmark(record)
        assert "recurring" in text and "abrupt" in text
        assert "recovery" in text
        assert "PASS" in text or "FAIL" in text


def test_refit_epochs_added_to_grid():
    """An off-grid refit budget must still appear on the tradeoff curve."""
    record = benchmark_online(
        smoke=True,
        num_samples=250,
        num_steps=8,
        batch_rows=48,
        refit_epochs=7,
        seed=7,
    )
    epochs = [entry["epochs"] for entry in record["tradeoff"]["curve"]]
    assert 7 in epochs


class TestScriptAppliesTheRules:
    """``benchmarks/bench_online.py`` applies the module's acceptance gates:
    one failed request fails it."""

    @pytest.fixture()
    def failed(self, record):
        canned = copy.deepcopy(record)
        canned["gates"].update(
            drift_detected_within_window=True, zero_failed_requests=False, all_passed=False
        )
        canned["gates"]["warm_recovery"]["passed"] = True
        canned["gates"]["warm_latency_ratio"]["passed"] = True
        return canned

    def test_script_fails_on_a_failed_request(self, failed, tmp_path, monkeypatch, capsys):
        path = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "bench_online.py"
        spec = importlib.util.spec_from_file_location("bench_online_script", path)
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        monkeypatch.setattr(script, "benchmark_online", lambda **kwargs: failed)
        assert script.main(["--smoke", "--output", str(tmp_path / "r.json")]) == 1
        assert "gate zero_failed_requests" in capsys.readouterr().out
