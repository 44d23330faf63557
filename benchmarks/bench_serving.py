#!/usr/bin/env python
"""Benchmark the serving tier under sustained multi-threaded load.

Writes ``BENCH_serving.json`` recording, for a :class:`ServingFrontend`
serving a saved CFR artifact:

* per-request dispatch vs cross-request coalescing (throughput, p50/p95/p99
  end-to-end latency, coalesced-batch-size histogram, coalescing speedup),
* a concurrency sweep giving the saturation throughput,
* a hot-swap-under-load phase (deploy v2, roll back to v1, all while the
  load generator is running) with the swap-window durations and the failed
  request count — the zero-downtime contract requires exactly zero.

Run from the repository root::

    PYTHONPATH=src python benchmarks/bench_serving.py           # full run
    PYTHONPATH=src python benchmarks/bench_serving.py --smoke   # CI seconds-scale run

The script exits non-zero if any request failed during the hot swap or the
coalesced answers diverge from direct estimator predictions, so CI gates
correctness as well as performance.
"""

from __future__ import annotations

import argparse
import os
import sys

# Allow running straight from a checkout without installation.
_SRC = os.path.abspath(os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))
if os.path.isdir(_SRC) and _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.experiments.perf_gate import check_perf_regression  # noqa: E402
from repro.experiments.reporting import write_record  # noqa: E402
from repro.experiments.serving_benchmark import (  # noqa: E402
    benchmark_serving,
    format_serving_benchmark,
)


def check_regression(result: dict, baseline_path: str) -> int:
    """Gate this benchmark's smoke timings against a committed baseline."""
    return check_perf_regression(
        result,
        baseline_path,
        (
            (
                "direct seconds/1k requests",
                lambda record: record["sustained"]["direct"]["seconds_per_1k_requests"],
                "direct_seconds_per_1k_requests",
            ),
            (
                "coalesced seconds/1k requests",
                lambda record: record["sustained"]["coalesced"]["seconds_per_1k_requests"],
                "coalesced_seconds_per_1k_requests",
            ),
        ),
    )


def check_correctness(result: dict) -> int:
    """Hard gates that hold in every mode (smoke and full)."""
    failures = 0
    if not result["coalesced_matches_direct"]:
        print("FAIL: coalesced frontend answers diverge from direct predictions")
        failures += 1
    swap = result["hot_swap"]
    total_failed = swap["failed_requests"] + swap["frontend_failed_requests"]
    if total_failed:
        print(f"FAIL: {total_failed} request(s) failed during the hot-swap phase")
        failures += 1
    if not (swap["old_version_drained"] and swap["new_version_drained"]):
        print("FAIL: a superseded version did not drain its in-flight batches")
        failures += 1
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true", help="seconds-scale run for CI (tiny sizes)"
    )
    parser.add_argument(
        "--concurrency", type=int, default=None, help="client threads (default: 16; 8 with --smoke)"
    )
    parser.add_argument(
        "--requests-per-thread", type=int, default=None,
        help="sustained-phase requests per client (default: 400; 60 with --smoke)",
    )
    parser.add_argument(
        "--num-workers", type=int, default=None, help="frontend worker threads (default: 2)"
    )
    parser.add_argument(
        "--max-wait-ms", type=float, default=2.0, help="batching deadline in milliseconds"
    )
    parser.add_argument(
        "--arrival", choices=("closed", "burst"), default="closed",
        help="load pattern: closed loop (1 outstanding/thread) or bursts",
    )
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument(
        "--check-against",
        default=None,
        metavar="BASELINE_JSON",
        help="fail on a >2x per-request-time regression against this committed record",
    )
    parser.add_argument(
        "--output",
        default=os.path.join(os.path.dirname(_SRC), "BENCH_serving.json"),
        help="where to write the JSON record (default: repo root)",
    )
    args = parser.parse_args(argv)

    result = benchmark_serving(
        smoke=args.smoke,
        concurrency=args.concurrency,
        requests_per_thread=args.requests_per_thread,
        num_workers=args.num_workers,
        max_wait_ms=args.max_wait_ms,
        arrival=args.arrival,
        seed=args.seed,
    )
    print(format_serving_benchmark(result))
    path = write_record(result, args.output)
    print(f"\nwrote {path}")
    failures = check_correctness(result)
    if args.check_against is not None:
        failures += check_regression(result, args.check_against)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
