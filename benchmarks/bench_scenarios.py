#!/usr/bin/env python
"""Run the scenario-matrix stress test and record the degradation profiles.

Writes ``BENCH_scenarios.json`` with per-(scenario, severity, method)
PEHE / ATE-error aggregates and cross-severity degradation slopes for every
registered scenario — the original six axes (overlap violation, hidden
confounding, outcome-noise pathologies, sparse high-dimensional covariates,
nonlinear surfaces, label flip noise) plus instrument decay, covariate
measurement error, temporal drift, selection on the outcome and the
compound overlap x hidden-confounding interaction.

Run from the repository root::

    PYTHONPATH=src python benchmarks/bench_scenarios.py            # full-severity run
    PYTHONPATH=src python benchmarks/bench_scenarios.py --smoke    # CI seconds-scale run

    # parallel==serial gate (CI scheduler-smoke): compare cell metrics
    # against a previously written record and fail on any difference
    PYTHONPATH=src python benchmarks/bench_scenarios.py --smoke \
        --n-jobs 2 --check-against BENCH_scenarios_smoke.json

    # grid-level wall-clock comparison: run the grid at n_jobs=1 AND at
    # n_jobs=N at the same seed, verify equality, record both
    PYTHONPATH=src python benchmarks/bench_scenarios.py --compare-scheduler-jobs 4

    # cache-smoke gate (CI): cold + warm run against a result cache (warm
    # must be 100% hits and >= 5x faster), then a 2-shard run whose merge
    # must match the unsharded record bit for bit
    PYTHONPATH=src python benchmarks/bench_scenarios.py --smoke \
        --scenario overlap --scenario flip-noise --cache-selftest

Like ``bench_training.py`` this is a plain script executed in CI on every
push; the JSON is uploaded as an artifact so the robustness trajectory is
tracked per PR.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

# Allow running straight from a checkout without installation.
_SRC = os.path.abspath(os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))
if os.path.isdir(_SRC) and _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from dataclasses import replace  # noqa: E402

from repro.experiments.reporting import write_record  # noqa: E402
from repro.experiments.scenario_suite import (  # noqa: E402
    ScenarioSuiteConfig,
    compare_scenario_records,
    format_scenario_suite,
    format_suite_summary,
    merge_scenario_shards,
    report_error_cells,
    run_scenario_suite,
)


def _timed_run(config: ScenarioSuiteConfig):
    start = time.perf_counter()
    result = run_scenario_suite(config)
    return result, time.perf_counter() - start


def _cache_selftest(config: ScenarioSuiteConfig, output: str) -> int:
    """CI cache-smoke gate: cold run, 100%-hit warm run, shard-merge parity.

    Runs the grid cold against a result cache, re-runs it warm (every unit
    must be a cache hit and the run must be at least 5x faster), then runs
    the same grid as two shards against the same cache and verifies the
    ``merge_scenario_shards`` union is bit-identical to the unsharded run.
    Writes the cold record (with a ``cache_smoke`` block) to ``output``.
    """
    import tempfile

    workdir = None
    cache_dir = config.cache_dir
    if cache_dir is None:
        workdir = tempfile.mkdtemp(prefix="scenario-cache-smoke-")
        cache_dir = os.path.join(workdir, "cache")
    shard_dir = workdir if workdir is not None else os.path.dirname(
        os.path.abspath(cache_dir)
    )

    base = replace(config, cache_dir=cache_dir, shard=None, checkpoint=None)
    print(f"cache selftest: cold run against {cache_dir}...")
    cold, cold_seconds = _timed_run(base)
    print(format_suite_summary(cold))
    print(f"cold run: {cold_seconds:.2f}s; warm re-run...")
    warm, warm_seconds = _timed_run(base)
    print(format_suite_summary(warm))
    speedup = cold_seconds / warm_seconds if warm_seconds > 0 else float("inf")
    print(f"warm run: {warm_seconds:.2f}s ({speedup:.1f}x vs cold)")

    failures = 0
    warm_cache = warm["cache"]
    if warm_cache["misses"] != 0 or warm_cache["hits"] == 0:
        print(
            f"FAIL: warm run was not served entirely from cache "
            f"({warm_cache['hits']} hits, {warm_cache['misses']} misses)",
            file=sys.stderr,
        )
        failures += 1
    if speedup < 5.0:
        print(
            f"FAIL: warm run only {speedup:.1f}x faster than cold (need >= 5x)",
            file=sys.stderr,
        )
        failures += 1
    differences = compare_scenario_records(cold, warm)
    if differences:
        print("FAIL: warm cells differ from cold cells:", file=sys.stderr)
        for difference in differences:
            print(f"  {difference}", file=sys.stderr)
        failures += 1

    print("running the grid as two shards against the same cache...")
    checkpoints = []
    for index in (1, 2):
        checkpoint = os.path.join(shard_dir, f"cache-smoke-shard{index}.jsonl")
        if os.path.exists(checkpoint):
            os.unlink(checkpoint)
        checkpoints.append(checkpoint)
        run_scenario_suite(
            replace(base, shard=(index, 2), checkpoint=checkpoint)
        )
    merged = merge_scenario_shards(checkpoints)
    differences = compare_scenario_records(cold, merged)
    if differences:
        print("FAIL: merged shards differ from the unsharded run:", file=sys.stderr)
        for difference in differences:
            print(f"  {difference}", file=sys.stderr)
        failures += 1
    else:
        print("merged shard record identical to the unsharded run")

    cold["cache_smoke"] = {
        "cold_seconds": cold_seconds,
        "warm_seconds": warm_seconds,
        "speedup": speedup,
        "warm_cache": warm_cache,
        "shard_merge_identical": not differences,
        "passed": failures == 0,
    }
    print(f"\nwrote {write_record(cold, output)}")
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true", help="seconds-scale run for CI (two severities)"
    )
    parser.add_argument(
        "--scenario",
        action="append",
        default=None,
        dest="scenario_names",
        help="restrict to one scenario (repeatable; default: all registered)",
    )
    parser.add_argument("--severities", type=float, nargs="+", default=None)
    parser.add_argument("--num-samples", type=int, default=None, help="default: 500 (250 with --smoke)")
    parser.add_argument("--replications", type=int, default=1)
    parser.add_argument("--n-jobs", type=int, default=1)
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument(
        "--checkpoint",
        default=None,
        help="JSONL checkpoint to write (and resume from, if it exists)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="content-addressed result cache directory (see 'repro scenarios')",
    )
    parser.add_argument(
        "--shard",
        default=None,
        metavar="K/N",
        help="run only shard K of N; requires --checkpoint and/or --cache-dir",
    )
    parser.add_argument(
        "--cache-selftest",
        action="store_true",
        help="CI cache-smoke gate: run the grid cold then warm against a "
        "result cache (asserting 100%% hits and a >= 5x speedup), then run "
        "it as two shards and verify the merged record matches the "
        "unsharded run bit for bit",
    )
    parser.add_argument(
        "--check-against",
        default=None,
        metavar="RECORD",
        help="fail if cell metrics differ from this previously written record "
        "(the CI parallel==serial scheduler gate)",
    )
    parser.add_argument(
        "--compare-scheduler-jobs",
        type=int,
        default=None,
        metavar="N",
        help="also run the grid serially and at N jobs, verify their cells "
        "agree, and record both wall-clocks",
    )
    parser.add_argument(
        "--output",
        default=os.path.join(os.path.dirname(_SRC), "BENCH_scenarios.json"),
        help="where to write the JSON record (default: repo root)",
    )
    args = parser.parse_args(argv)

    if args.shard is not None and args.checkpoint is None and args.cache_dir is None:
        parser.error("--shard requires --checkpoint and/or --cache-dir")

    config = ScenarioSuiteConfig.from_options(
        smoke=args.smoke,
        scenario_names=args.scenario_names,
        severities=args.severities,
        num_samples=args.num_samples,
        replications=args.replications,
        n_jobs=args.n_jobs,
        seed=args.seed,
        checkpoint=args.checkpoint,
        cache_dir=args.cache_dir,
        shard=args.shard,
    )

    if args.cache_selftest:
        return _cache_selftest(config, args.output)

    if args.compare_scheduler_jobs is not None:
        # Both comparison legs must actually execute the grid — a resumed
        # checkpoint or a warm cache would replay units from disk and time
        # JSON parsing instead of the scheduler.
        serial_config = replace(config, n_jobs=1, checkpoint=None, cache_dir=None)
        parallel_config = replace(serial_config, n_jobs=args.compare_scheduler_jobs)
        print("running the grid serially...")
        result, serial_seconds = _timed_run(serial_config)
        print(f"serial grid: {serial_seconds:.1f}s; re-running at "
              f"n_jobs={args.compare_scheduler_jobs}...")
        parallel_result, parallel_seconds = _timed_run(parallel_config)
        differences = compare_scenario_records(result, parallel_result)
        if differences:
            print("the parallel grid diverged from the serial grid:", file=sys.stderr)
            for difference in differences:
                print(f"  {difference}", file=sys.stderr)
            return 1
        result["scheduler_comparison"] = {
            "serial_seconds": serial_seconds,
            "cross_cell_seconds": parallel_seconds,
            "cross_cell_n_jobs": args.compare_scheduler_jobs,
            "speedup": serial_seconds / parallel_seconds,
            "cells_identical": True,
        }
        print(
            f"parallel grid: {parallel_seconds:.1f}s "
            f"({serial_seconds / parallel_seconds:.2f}x vs serial, cells identical)"
        )
    else:
        result, _ = _timed_run(config)

    print(format_scenario_suite(result))

    if args.check_against is not None:
        with open(args.check_against, encoding="utf-8") as handle:
            reference = json.load(handle)
        differences = compare_scenario_records(reference, result)
        if differences:
            print(
                f"cell metrics diverged from {args.check_against}:", file=sys.stderr
            )
            for difference in differences:
                print(f"  {difference}", file=sys.stderr)
            return 1
        print(f"cell metrics identical to {args.check_against}")

    path = write_record(result, args.output)
    print(f"\nwrote {path}")
    return report_error_cells(result)


if __name__ == "__main__":
    sys.exit(main())
