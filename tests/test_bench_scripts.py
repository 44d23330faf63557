"""Where the benchmark scripts write their records.

``benchmarks/bench_{autodiff,training,serving,online}.py`` are each the one
producer of a committed ``BENCH_*.json``.  A full run with no ``--output``
rewrites that record; a ``--smoke`` run writes only where ``--output``
points, so a local smoke run cannot replace the committed full record (and
its ``smoke_reference`` block, the CI perf gate's baseline).

The measurements are replaced by a canned record: these tests pin only the
scripts' output rule.
"""

from __future__ import annotations

import importlib.util
import pathlib

import pytest

from repro.experiments import reporting

ROOT = pathlib.Path(__file__).resolve().parents[1]

#: Script suffix -> (measure, format, check) names ``main`` calls; the
#: training and autodiff scripts check only under ``--check-against``.
SCRIPTS = {
    "autodiff": ("benchmark_autodiff", "format_autodiff_benchmark", None),
    "training": ("benchmark_training", "format_benchmark", None),
    "serving": ("benchmark_serving", "format_serving_benchmark", "check_serving_benchmark"),
    "online": ("benchmark_online", "format_online_benchmark", "check_online_benchmark"),
}


@pytest.fixture(params=sorted(SCRIPTS))
def script(request, monkeypatch):
    """The loaded script, measuring nothing, with ``written`` listing the
    paths it would write."""
    name = request.param
    path = ROOT / "benchmarks" / f"bench_{name}.py"
    spec = importlib.util.spec_from_file_location(f"bench_{name}_script", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    measure, render, check = SCRIPTS[name]
    monkeypatch.setattr(
        module, measure, lambda **kwargs: {"mode": "smoke" if kwargs["smoke"] else "full"}
    )
    monkeypatch.setattr(module, render, lambda result: "")
    if check is not None:
        monkeypatch.setattr(module, check, lambda result, baseline: [])
    module.written = []
    monkeypatch.setattr(
        reporting, "write_record", lambda record, target: module.written.append(target) or target
    )
    module.committed = ROOT / f"BENCH_{name}.json"
    return module


def test_smoke_run_leaves_the_committed_record_alone(script):
    before = script.committed.read_bytes()
    assert script.main(["--smoke"]) == 0
    assert script.written == []
    assert script.committed.read_bytes() == before


def test_smoke_run_writes_where_output_points(script, tmp_path):
    target = str(tmp_path / "smoke.json")
    assert script.main(["--smoke", "--output", target]) == 0
    assert script.written == [target]


def test_full_run_rewrites_the_committed_record(script):
    assert script.main([]) == 0
    assert [pathlib.Path(path).resolve() for path in script.written] == [script.committed]
