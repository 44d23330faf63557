"""Tests of the benchmark's own helpers and of BENCHMARK.json's consistency."""

from __future__ import annotations

import json
import os
import threading

import pytest

from perfbench.catalogue import ALWAYS, END_TO_END, LAYERS_BY_WORKLOAD, PER_LAYER, WORKLOADS
from perfbench.measure import failed_ratio, percentile, stability, union_seconds
from perfbench.tracing import Span, Tracer, self_times

BENCHMARK_JSON = os.path.join(os.path.dirname(os.path.dirname(__file__)), "BENCHMARK.json")


def test_percentile_reports_value_and_sample_count():
    values = list(range(1, 101))
    median = percentile(values, 50)
    assert median == {"value": 50.5, "count": 100, "beyond": 50}
    tail = percentile(values, 99)
    assert tail["value"] == pytest.approx(99.01)
    assert tail["count"] == 100
    assert tail["beyond"] == 1
    assert percentile([7.0], 99) == {"value": 7.0, "count": 1, "beyond": 0}


def test_percentile_rejects_empty_sample_and_bad_rank():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


def test_union_seconds_merges_overlapping_and_nested_intervals():
    assert union_seconds([]) == 0.0
    assert union_seconds([(0.0, 1.0), (2.0, 3.0)]) == pytest.approx(2.0)
    # Overlap, nesting and a zero-length wait (picked up on time).
    intervals = [(0.0, 2.0), (1.0, 3.0), (1.5, 1.7), (5.0, 5.0), (4.0, 4.5)]
    assert union_seconds(intervals) == pytest.approx(3.5)
    # Order does not matter.
    assert union_seconds(list(reversed(intervals))) == pytest.approx(3.5)


def test_self_times_subtract_direct_children_only():
    ms = 1_000_000
    spans = [
        Span(1, "root", 0, 10 * ms, tid=1, parent=None),
        Span(2, "child", 2 * ms, 5 * ms, tid=1, parent=1),
        Span(3, "grandchild", 3 * ms, 4 * ms, tid=1, parent=2),
        Span(4, "child", 6 * ms, 8 * ms, tid=1, parent=1),
    ]
    totals = self_times(spans)
    assert totals["root"] == (pytest.approx(0.005), 1)
    assert totals["child"] == (pytest.approx(0.004), 2)
    assert totals["grandchild"] == (pytest.approx(0.001), 1)
    assert sum(seconds for seconds, _ in totals.values()) == pytest.approx(0.010)


class _Worker:
    def outer(self):
        return self.inner() + 1

    def inner(self):
        return 1


def test_tracer_wrap_records_parents_per_thread_and_unwraps(tmp_path):
    tracer = Tracer()
    original = _Worker.__dict__["inner"]
    tracer.wrap(_Worker, "outer", "outer")
    tracer.wrap(_Worker, "inner", "inner", on_result=lambda value: tracer.count("ones", value))
    assert _Worker().outer() == 2
    thread = threading.Thread(target=_Worker().inner)
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive()
    tracer.unwrap_all()
    assert _Worker.__dict__["inner"] is original

    outer, = tracer.by_name("outer")
    inners = tracer.by_name("inner")
    assert [span.parent for span in inners] == [outer.span_id, None]
    assert tracer.counts == {"ones": 2}
    path = tracer.write_chrome_trace(str(tmp_path / "trace.json"))
    with open(path, encoding="utf-8") as handle:
        events = json.load(handle)["traceEvents"]
    assert sorted(event["name"] for event in events) == ["inner", "inner", "outer"]
    assert all(event["ph"] == "X" and event["dur"] >= 0 for event in events)


def test_failed_ratio():
    assert failed_ratio(0, 10) == 0.0
    assert failed_ratio(3, 12) == 0.25
    assert failed_ratio(0, 0) == 0.0
    with pytest.raises(ValueError):
        failed_ratio(3, 2)


def test_stability_is_mean_squared_deviation():
    assert stability([1.0, 3.0]) == pytest.approx(1.0)
    assert stability([2.0, 2.0, 2.0]) == 0.0


def test_benchmark_json_matches_catalogue():
    with open(BENCHMARK_JSON, encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [workload["name"] for workload in spec["workloads"]] == list(WORKLOADS)
    assert all(workload["why"] and "\n" not in workload["why"] for workload in spec["workloads"])

    end_to_end = {metric["name"]: metric for metric in spec["end_to_end"]}
    assert list(end_to_end) == list(END_TO_END)
    for name, (unit, better, _) in END_TO_END.items():
        assert end_to_end[name]["unit"] == unit and end_to_end[name]["better"] == better
        assert 0 < end_to_end[name]["bound"] <= 0.25
    assert end_to_end["setup_s"]["bound"] == max(metric["bound"] for metric in spec["end_to_end"])

    per_layer = {metric["name"]: metric for metric in spec["per_layer"]}
    assert list(per_layer) == list(PER_LAYER)
    for name, (unit, better, _, _) in PER_LAYER.items():
        assert per_layer[name]["unit"] == unit and per_layer[name]["better"] == better


def test_every_metric_has_a_unit_and_a_workload():
    for name, (unit, _, meaning) in END_TO_END.items():
        assert unit and meaning, name
    exercised = set(ALWAYS).union(*LAYERS_BY_WORKLOAD.values())
    assert set(LAYERS_BY_WORKLOAD) == set(WORKLOADS)
    for name, (unit, _, timed, moves) in PER_LAYER.items():
        assert unit and timed and moves, name
        assert name in exercised, f"{name} belongs to no workload"
