"""``scripts/perfbench_pairs.py``: the summary of interleaved pairs.

Canned metric values stand in for perfbench runs, and a stub stands in
for one run of ``perfbench/run.py``, so these tests run no benchmark.
"""

from __future__ import annotations

import importlib.util
import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]

END_TO_END = [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.24},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.15},
    {"name": "throughput", "unit": "1/s", "better": "higher", "bound": 0.1},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
]


@pytest.fixture(scope="module")
def pairs():
    path = ROOT / "scripts" / "perfbench_pairs.py"
    spec = importlib.util.spec_from_file_location("perfbench_pairs_script", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _runs(**columns):
    """Per-run metric dicts from per-metric columns."""
    names = list(columns)
    return [dict(zip(names, values)) for values in zip(*columns.values())]


def test_summary_counts_wins_ties_and_losses_under_each_metrics_better(pairs):
    parent = _runs(
        wall_s=[2.0, 2.0, 2.0, 2.0, 2.0],
        peak_rss_mb=[157.0, 156.0, 158.0, 157.0, 156.0],
        throughput=[10.0, 10.0, 10.0, 10.0, 10.0],
    )
    change = _runs(
        wall_s=[1.0, 2.0, 3.0, 1.5, 2.5],
        peak_rss_mb=[125.0, 126.0, 125.0, 159.0, 124.0],
        throughput=[11.0, 9.0, 10.0, 12.0, 10.0],
    )
    rows = {row["metric"]: row for row in pairs.summarize(END_TO_END, parent, change)}
    # setup_s is in no run, so it gets no row.
    assert list(rows) == ["wall_s", "peak_rss_mb", "throughput"]
    assert (rows["wall_s"]["wins"], rows["wall_s"]["ties"], rows["wall_s"]["losses"]) == (2, 1, 2)
    rss = rows["peak_rss_mb"]
    assert (rss["wins"], rss["ties"], rss["losses"]) == (4, 0, 1)
    assert rss["parent"] == (156.0, 157.0, 157.0)
    assert rss["change"] == (125.0, 125.0, 126.0)
    assert rss["parent_iqr"] == 1.0
    assert rss["ratio"] == pytest.approx(125.0 / 157.0)
    # Higher is better: 11 and 12 beat 10.
    tp = rows["throughput"]
    assert (tp["wins"], tp["ties"], tp["losses"]) == (2, 2, 1)


def test_one_pair_has_every_quartile_at_its_value(pairs):
    rows = pairs.summarize(END_TO_END[:1], _runs(wall_s=[3.0]), _runs(wall_s=[2.0]))
    assert rows[0]["parent"] == (3.0, 3.0, 3.0) and rows[0]["parent_iqr"] == 0.0
    text = pairs.format_summary(rows, 1)
    assert "wall_s" in text and "1/0/0" in text


def _stub_runs(pairs, monkeypatch, results):
    """Each call of ``run_once`` returns the next canned result (None: failed)."""
    calls = []

    def run_once(directory, workload, seed, seconds):
        calls.append((directory, seed, seconds))
        return results[len(calls) - 1]

    monkeypatch.setattr(pairs, "run_once", run_once)
    return calls


def _trees(tmp_path):
    for side, seconds in (("parent", 7), ("change", 30)):
        (tmp_path / side).mkdir()
        (tmp_path / side / "BENCHMARK.json").write_text(
            json.dumps({"run_seconds": seconds, "end_to_end": END_TO_END})
        )
    return ["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change")]


def test_pairs_alternate_the_first_side_and_take_one_seed_each(pairs, monkeypatch, tmp_path, capsys):
    result = {"correct": True, "metrics": {"wall_s": {"value": 1.0, "unit": "s"}}}
    calls = _stub_runs(pairs, monkeypatch, [result] * 6)
    argv = _trees(tmp_path) + ["--workload", "grid", "--pairs", "3", "--first-seed", "40"]
    assert pairs.main(argv) == 0
    sides = [pathlib.Path(directory).name for directory, _, _ in calls]
    assert sides == ["parent", "change", "change", "parent", "parent", "change"]
    assert [seed for _, seed, _ in calls] == [40, 40, 41, 41, 42, 42]
    # Both sides run for the parent's benchmark length; no flag changes it.
    assert {seconds for _, _, seconds in calls} == {7}
    with pytest.raises(SystemExit):
        pairs.main(argv + ["--seconds", "5"])
    assert "0/3/0" in capsys.readouterr().out
    assert sorted(path.name for path in tmp_path.rglob("*") if path.is_file()) == [
        "BENCHMARK.json", "BENCHMARK.json",
    ]


def test_a_failed_run_exits_non_zero(pairs, monkeypatch, tmp_path, capsys):
    ok = {"correct": True, "metrics": {"wall_s": {"value": 1.0, "unit": "s"}}}
    _stub_runs(pairs, monkeypatch, [ok, ok, None])
    argv = _trees(tmp_path) + ["--workload", "grid", "--pairs", "2"]
    assert pairs.main(argv) == 1
    assert "failed" in capsys.readouterr().err


def test_a_run_reporting_incorrect_counts_as_failed(pairs, monkeypatch, tmp_path):
    class Done:
        returncode = 1
        stdout = json.dumps({"correct": False, "metrics": {}}) + "\n"

    monkeypatch.setattr(pairs.subprocess, "run", lambda *args, **kwargs: Done())
    assert pairs.run_once(str(tmp_path), "grid", 1, 15) is None
    Done.returncode = 0
    assert pairs.run_once(str(tmp_path), "grid", 1, 15) is None
