"""Schema and sanity tests for the autodiff hot-path benchmark.

Runs the benchmark at miniature sizes: the point is that every section
produces the documented record shape (the CI perf gate and the committed
``BENCH_autodiff.json`` depend on it), not that the numbers are large.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.experiments.autodiff_benchmark import (
    PR4_UNFUSED_GRAPH_NODES,
    benchmark_autodiff,
    format_autodiff_benchmark,
)
from repro.experiments.reporting import write_record


@pytest.fixture(scope="module")
def smoke_result():
    return benchmark_autodiff(
        smoke=True, num_samples=200, iterations=2, seed=0, include_smoke_reference=False
    )


def test_record_schema(smoke_result):
    assert smoke_result["benchmark"] == "autodiff-hot-path"
    assert smoke_result["mode"] == "smoke"
    assert set(smoke_result["per_op"]) == set(PR4_UNFUSED_GRAPH_NODES)
    for op, unfused_nodes in PR4_UNFUSED_GRAPH_NODES.items():
        stats = smoke_result["per_op"][op]
        assert set(stats) == {"fused", "node_reduction"}
        assert stats["fused"]["graph_nodes"] <= unfused_nodes
        assert stats["fused"]["seconds_per_call"] > 0
        assert stats["node_reduction"] == unfused_nodes / stats["fused"]["graph_nodes"]
        assert stats["node_reduction"] >= 1.0
    step = smoke_result["training_step"]
    assert step["iterations"] == 2
    assert step["seconds_per_iteration"] > 0
    assert step["tensor_allocations_per_iteration"] > 0
    assert np.isfinite(step["pehe"])


def test_fused_kernels_collapse_the_decorrelation_graph(smoke_result):
    """The headline claim: >10x node reduction on the HSIC pairwise loss."""
    stats = smoke_result["per_op"]["pairwise_decorrelation_loss"]
    assert stats["node_reduction"] > 10.0


def test_serving_section_reports_compiled_speedup(smoke_result):
    serving = smoke_result["serving"]
    assert serving["service_single_row_seconds"] > 0
    for stats in serving["backbone_predict"].values():
        assert stats["compiled_seconds"] > 0
        assert stats["graph_seconds"] > 0
        # Compiled inference must never be slower than the graph path by
        # more than noise at any batch size.
        assert stats["speedup"] > 0.5


def test_graph_replay_section(smoke_result):
    replay = smoke_result["graph_replay"]
    step = replay["network_step"]
    assert step["eager_seconds_per_step"] > 0
    assert step["replay_seconds_per_step"] > 0
    # Replaying must never build a graph: zero tensors per replayed step.
    assert step["tensor_allocs_per_replay"] == 0
    assert step["graph_nodes"] > 0
    # The headline is the single-program ratio; no stacked block is written.
    assert replay["replay_speedup"] == step["speedup"]
    assert "stacked_replications" not in replay


def test_dtype_section_present(smoke_result):
    dtype = smoke_result["dtype"]
    assert dtype["float64"]["seconds_per_iteration"] > 0
    assert dtype["float32"]["dtype"] == "float32"
    assert dtype["float32"]["seconds_per_iteration"] > 0


def test_format_and_write_roundtrip(smoke_result, tmp_path):
    text = format_autodiff_benchmark(smoke_result)
    assert "Fused kernels" in text
    assert "Compiled inference" in text
    path = write_record(smoke_result, str(tmp_path / "bench.json"))
    with open(path, "r", encoding="utf-8") as handle:
        assert json.load(handle)["benchmark"] == "autodiff-hot-path"


def test_committed_record_matches_schema():
    """The committed BENCH_autodiff.json must carry the CI gate reference."""
    import os

    root = os.path.join(os.path.dirname(__file__), os.pardir)
    path = os.path.join(root, "BENCH_autodiff.json")
    with open(path, "r", encoding="utf-8") as handle:
        record = json.load(handle)
    assert record["mode"] == "full"
    reference = record["smoke_reference"]
    assert reference["training_step_seconds_per_iteration"] > 0
    assert reference["service_single_row_seconds"] > 0
    # The acceptance targets of the overhaul, pinned on the committed record.
    assert record["training_step"]["speedup_vs_pr2"] >= 2.0
    assert record["serving"]["service_latency_reduction_vs_pr2"] >= 3.0
    # Graph-replay acceptance: the committed replayed step beats its eager
    # equivalent by >= 1.5x (the committed 1.62 is the PR-10 stacked ratio).
    assert record["graph_replay"]["replay_speedup"] >= 1.5
