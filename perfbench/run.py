"""Benchmark entry point: one workload, measured in fresh processes.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fit-fullbatch --seed 1 --seconds 15 --trace 0

``--trace 0`` runs the workload once, untraced, and reports every
end-to-end metric.  ``--trace 1`` runs it untraced and then traced, each in
its own process, and reports the per-layer metrics of the traced run, its
tracing overhead, and whether both runs produced identical outputs; the
trace itself is written to ``perfbench/out/<workload>-seed<seed>.trace.json``
as Chrome trace-event JSON (open it in Perfetto).

Human-readable lines go first; the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  The exit code is
0 when every output check passed, 1 when one failed, and 2 when the
workload could not run at all (no result is printed then).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
from typing import Dict, Optional, Sequence

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench.catalogue import (  # noqa: E402 - needs ROOT on sys.path
    ALWAYS,
    END_TO_END,
    LAYERS_BY_WORKLOAD,
    PER_LAYER,
    WORKLOADS,
)
from perfbench.measure import failed_ratio  # noqa: E402

#: Every workload process runs with BLAS pinned to one thread: on a 2-CPU
#: host a second OpenBLAS thread bought no wall-clock on an n=3000 full-batch
#: fit, used ~60% more CPU, and would oversubscribe the cores the grid's
#: workers and the serving threads use.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
#: A child that runs longer than this is killed (with its workers); two
#: children (a traced run) still end within the 180 s a run may take.
CHILD_TIMEOUT_S = 85


class BenchmarkError(RuntimeError):
    """The workload could not run; no result is reported."""


def _run_child(workload: str, seed: int, seconds: int, trace: int) -> Dict[str, object]:
    """Run one measurement in a fresh process group; return its JSON result."""
    command = [
        sys.executable, "-m", "perfbench.workloads",
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    if trace:
        trace_file = os.path.join(ROOT, "perfbench", "out", f"{workload}-seed{seed}.trace.json")
        command += ["--trace-file", trace_file]
    env = dict(os.environ, **PINNED_ENV)
    env["PYTHONPATH"] = os.pathsep.join([ROOT, os.path.join(ROOT, "src")])
    process = subprocess.Popen(
        command, cwd=ROOT, env=env, stdout=subprocess.PIPE, start_new_session=True, text=True
    )
    try:
        stdout, _ = process.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise BenchmarkError(f"{workload} ran longer than {CHILD_TIMEOUT_S} s and was killed")
    finally:
        # Reap anything the child left behind (grid workers) in its group.
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    lines = stdout.strip().splitlines()
    if process.returncode != 0 or not lines:
        raise BenchmarkError(f"{workload} exited with code {process.returncode}")
    return json.loads(lines[-1])


def _figures(run: Dict[str, object]) -> Dict[str, float]:
    """A run's end-to-end figures, gated and printed."""
    printed = {name: entry["value"] for name, entry in run.get("printed", {}).items()}
    return {**run["metrics"], **printed}


def _report(workload: str, seed: int, seconds: int, trace: int) -> Dict[str, object]:
    runs = [_run_child(workload, seed, seconds, 0)]
    if trace:
        runs.append(_run_child(workload, seed, seconds, 1))
    untraced, traced = runs[0], runs[-1]
    info = untraced["info"]
    checks = dict(untraced["checks"])
    lines = [
        f"workload {workload} seed {seed} seconds {seconds} trace {trace}",
        "info: " + ", ".join(f"{key}={info[key]}" for key in sorted(info)),
    ]
    if trace:
        checks.update({f"traced: {key}": value for key, value in traced["checks"].items()})
        checks["traced and untraced runs give the same outputs"] = (
            "fingerprint" in untraced and traced.get("fingerprint") == untraced["fingerprint"]
        )
        before, after = _figures(untraced), _figures(traced)
        ratios = {name: after[name] / value for name, value in before.items() if value and name in after}
        lines += [f"overhead {name}: traced/untraced = {ratio:.4f}" for name, ratio in ratios.items()]
        layers = dict(traced.get("layers", {}))
        layers["trace.overhead_ratio"] = ratios.get("fit_s", 0.0)
        layers["host.steal_ticks"] = traced["info"]["steal_ticks"]
        exercised = set(LAYERS_BY_WORKLOAD[workload]) | set(ALWAYS)
        values = {name: layers.get(name, 0.0) if name in exercised else 0.0 for name in PER_LAYER}
        units = {name: spec[0] for name, spec in PER_LAYER.items()}
    else:
        values = untraced["metrics"]
        units = {name: spec[0] for name, spec in END_TO_END.items()}
    metrics = {
        name: {"value": float(values[name]), "unit": unit}
        for name, unit in units.items()
        if name in values
    }
    attempted = sum(int(run["attempted"]) for run in runs)
    failed = sum(int(run["failed"]) for run in runs)
    lines += [f"{name} = {entry['value']:.6g} {entry['unit']}" for name, entry in metrics.items()]
    # End-to-end figures printed for the reader but not gated (see catalogue).
    for name, entry in untraced.get("printed", {}).items():
        counts = f"samples={entry['count']}, above={entry['beyond']}; " if "count" in entry else ""
        lines.append(f"{name} = {entry['value']:.6g} {entry['unit']} ({counts}not gated)")
    lines.append(
        f"failed_ratio = {failed_ratio(failed, attempted):.6g} ratio "
        f"({failed}/{attempted}; not gated, see correct)"
    )
    lines += [f"check {'PASS' if passed else 'FAIL'}: {name}" for name, passed in checks.items()]
    correct = all(checks.values()) and len(metrics) == len(units)
    return {
        "lines": lines,
        "result": {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics},
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: no program to measure under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    try:
        report = _report(args.workload, args.seed, args.seconds, args.trace)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for line in report["lines"]:
        print(line)
    print(json.dumps(report["result"]))
    return 0 if report["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
