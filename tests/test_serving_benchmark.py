"""Tests for the sustained-load serving benchmark and its CI gate wiring."""

from __future__ import annotations

import copy
import importlib.util
import json
import pathlib

import pytest

from repro.experiments.perf_gate import check_perf_regression
from repro.experiments.reporting import write_record
from repro.experiments.serving_benchmark import (
    PERF_GATES,
    benchmark_serving,
    format_serving_benchmark,
)


@pytest.fixture(scope="module")
def record():
    """One tiny smoke run shared by every schema/contract assertion."""
    return benchmark_serving(
        smoke=True,
        num_samples=150,
        concurrency=4,
        requests_per_thread=10,
        sweep_concurrencies=(1, 4),
        sweep_requests_per_thread=6,
        swap_requests_per_thread=12,
        num_workers=2,
        seed=7,
    )


class TestBenchmarkRecord:
    def test_schema(self, record):
        assert record["benchmark"] == "serving-frontend"
        assert record["mode"] == "smoke"
        assert "smoke_reference" not in record  # full runs only
        sustained = record["sustained"]
        for label in ("direct", "coalesced"):
            entry = sustained[label]
            for key in (
                "requests",
                "failed_requests",
                "throughput_rps",
                "seconds_per_1k_requests",
                "latency_p50_ms",
                "latency_p95_ms",
                "latency_p99_ms",
            ):
                assert key in entry
        assert sustained["direct"]["requests"] == 40
        assert sustained["coalesced"]["failed_requests"] == 0
        assert sustained["coalescing_speedup"] > 0
        assert isinstance(sustained["coalesced"]["batch_size_histogram"], dict)
        sweep = record["saturation"]["by_concurrency"]
        assert [entry["concurrency"] for entry in sweep] == [1, 4]
        assert record["saturation"]["saturation_throughput_rps"] == max(
            entry["throughput_rps"] for entry in sweep
        )

    def test_correctness_contracts(self, record):
        assert record["coalesced_matches_direct"] is True
        swap = record["hot_swap"]
        assert swap["failed_requests"] == 0
        assert swap["frontend_failed_requests"] == 0
        assert swap["old_version_drained"] is True
        assert swap["new_version_drained"] is True
        assert swap["deploys"] == 2 and swap["rollbacks"] == 1
        # Both artifact versions were deployed from disk with fingerprints.
        fingerprints = [entry["fingerprint"] for entry in swap["versions"]]
        assert len(fingerprints) == 2 and all(fingerprints)
        assert fingerprints[0] != fingerprints[1]

    def test_format_and_write(self, record, tmp_path):
        text = format_serving_benchmark(record)
        assert "coalescing speedup" in text
        assert "Hot swap under load" in text
        path = write_record(record, str(tmp_path / "BENCH_serving.json"))
        with open(path, "r", encoding="utf-8") as handle:
            assert json.load(handle)["benchmark"] == "serving-frontend"

    def test_invalid_arrival_rejected(self):
        with pytest.raises(ValueError, match="arrival"):
            benchmark_serving(smoke=True, arrival="poisson")


class TestPerfGateWiring:
    @staticmethod
    def _smoke_record(direct: float, coalesced: float) -> dict:
        return {
            "mode": "smoke",
            "sustained": {
                "direct": {"seconds_per_1k_requests": direct},
                "coalesced": {"seconds_per_1k_requests": coalesced},
            },
        }

    def _baseline(self, tmp_path, direct: float, coalesced: float) -> str:
        path = tmp_path / "BENCH_serving.json"
        path.write_text(
            json.dumps(
                {
                    "mode": "full",
                    "smoke_reference": {
                        "direct_seconds_per_1k_requests": direct,
                        "coalesced_seconds_per_1k_requests": coalesced,
                    },
                }
            )
        )
        return str(path)

    def test_within_budget_passes(self, tmp_path):
        baseline = self._baseline(tmp_path, direct=0.1, coalesced=0.05)
        result = self._smoke_record(direct=0.15, coalesced=0.06)
        assert check_perf_regression(result, baseline, PERF_GATES) == 0

    def test_regression_fails(self, tmp_path):
        baseline = self._baseline(tmp_path, direct=0.1, coalesced=0.05)
        result = self._smoke_record(direct=0.5, coalesced=0.06)
        assert check_perf_regression(result, baseline, PERF_GATES) == 1

    def test_full_mode_records_are_not_gated(self, tmp_path):
        baseline = self._baseline(tmp_path, direct=0.1, coalesced=0.05)
        result = self._smoke_record(direct=9.9, coalesced=9.9)
        result["mode"] = "full"
        assert check_perf_regression(result, baseline, PERF_GATES) == 0


class TestFrontDoorsShareTheRules:
    """``repro serve-bench --sustained`` and ``benchmarks/bench_serving.py``
    apply the same checks: one undrained version fails both."""

    @pytest.fixture()
    def undrained(self, record, monkeypatch):
        canned = copy.deepcopy(record)
        canned["hot_swap"]["old_version_drained"] = False
        import repro.experiments.serving_benchmark as module

        monkeypatch.setattr(module, "benchmark_serving", lambda **kwargs: canned)
        return canned

    def test_cli_fails_on_an_undrained_version(self, undrained, tmp_path, capsys):
        from repro.cli import main

        code = main(["serve-bench", "--sustained", "--smoke", "--output", str(tmp_path / "r.json")])
        assert code == 1
        assert "did not drain" in capsys.readouterr().out

    def test_script_fails_on_an_undrained_version(self, undrained, tmp_path, monkeypatch, capsys):
        path = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "bench_serving.py"
        spec = importlib.util.spec_from_file_location("bench_serving_script", path)
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        monkeypatch.setattr(script, "benchmark_serving", lambda **kwargs: undrained)
        assert script.main(["--smoke", "--output", str(tmp_path / "r.json")]) == 1
        assert "did not drain" in capsys.readouterr().out
