#!/usr/bin/env python
"""Benchmark the autodiff hot path: fused kernels, compiled serving, dtype.

Writes ``BENCH_autodiff.json`` recording

* per-op graph-node counts and wall-clock of the fused VJP kernels against
  the unfused op compositions they replaced,
* seconds / tensor allocations per full-batch training iteration at the
  ``BENCH_training.json`` setting (directly comparable to the PR 2 80 s
  baseline),
* ``backbone.predict`` (the compiled forward over the op table) vs the
  autodiff forward it equals bit for bit, and end-to-end single-row
  latency of in-process ``ModelRegistry.predict``,
* float64 vs opt-in float32 training throughput.

Run from the repository root::

    PYTHONPATH=src python benchmarks/bench_autodiff.py            # full run
    PYTHONPATH=src python benchmarks/bench_autodiff.py --smoke    # CI seconds-scale run

CI additionally passes ``--check-against BENCH_autodiff.json``: the smoke
run then fails (exit 1) when its training-step time regresses by more than
2x against the committed baseline's ``smoke_reference`` block.
"""

from __future__ import annotations

import argparse
import os
import sys

# Allow running straight from a checkout without installation.
_SRC = os.path.abspath(os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))
if os.path.isdir(_SRC) and _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.experiments.autodiff_benchmark import (  # noqa: E402
    benchmark_autodiff,
    format_autodiff_benchmark,
)
from repro.experiments.perf_gate import check_perf_regression  # noqa: E402
from repro.experiments.reporting import write_record  # noqa: E402


def check_regression(result: dict, baseline_path: str) -> int:
    """Gate this benchmark's smoke timings against a committed baseline."""
    return check_perf_regression(
        result,
        baseline_path,
        (
            (
                "training step s/iter",
                lambda record: record["training_step"]["seconds_per_iteration"],
                "training_step_seconds_per_iteration",
            ),
            (
                "service single-row s",
                lambda record: record["serving"]["service_single_row_seconds"],
                "service_single_row_seconds",
            ),
            # Hardware-independent: catches a de-fused regularizer graph
            # even when CI-runner timing noise masks the slowdown.
            (
                "decorrelation graph nodes",
                lambda record: record["per_op"]["pairwise_decorrelation_loss"]["fused"][
                    "graph_nodes"
                ],
                "decorrelation_fused_graph_nodes",
            ),
        ),
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true", help="seconds-scale run for CI (tiny sizes)"
    )
    parser.add_argument("--num-samples", type=int, default=None, help="default: 4000 (600 with --smoke)")
    parser.add_argument("--iterations", type=int, default=None, help="default: 40 (4 with --smoke)")
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument(
        "--check-against",
        default=None,
        metavar="BASELINE_JSON",
        help="fail on a >2x step-time regression against this committed record",
    )
    parser.add_argument(
        "--output",
        default=os.path.join(os.path.dirname(_SRC), "BENCH_autodiff.json"),
        help="where to write the JSON record (default: repo root)",
    )
    args = parser.parse_args(argv)

    result = benchmark_autodiff(
        smoke=args.smoke,
        num_samples=args.num_samples,
        iterations=args.iterations,
        seed=args.seed,
    )
    print(format_autodiff_benchmark(result))
    path = write_record(result, args.output)
    print(f"\nwrote {path}")
    if args.check_against is not None:
        return check_regression(result, args.check_against)
    return 0


if __name__ == "__main__":
    sys.exit(main())
