#!/usr/bin/env python
"""Benchmark the minibatch training engine and the optimizer/schedule choice.

Writes ``BENCH_training.json`` recording wall-clock and PEHE for

* full-batch SBRL-HAP training (exact O(n²) RBF-MMD / HSIC regularizers),
* minibatch training (stratified batches + anchor-subsampled regularizers),
* steps to a target PEHE per registered optimizer/schedule combination.

Run from the repository root::

    PYTHONPATH=src python benchmarks/bench_training.py            # full run
    PYTHONPATH=src python benchmarks/bench_training.py --smoke    # CI seconds-scale run

A full run rewrites the committed ``BENCH_training.json`` at the repository root;
a ``--smoke`` run writes a record only where ``--output`` points.

Unlike the ``bench_table*`` / ``bench_fig*`` pytest benchmarks this is a
plain script: it is executed in CI on every push and the JSON is uploaded
as an artifact, so the performance trajectory is tracked per PR.
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
from repro.experiments.reporting import write_script_record  # noqa: E402
from repro.experiments.training_benchmark import (  # noqa: E402
    benchmark_training,
    format_benchmark,
)


def check_regression(result: dict, baseline_path: str) -> int:
    """Gate this benchmark's smoke timings against a committed baseline."""
    return check_perf_regression(
        result,
        baseline_path,
        (
            (
                "full-batch seconds",
                lambda record: record["minibatch"]["full_batch"]["seconds"],
                "full_batch_seconds",
            ),
            (
                "minibatch seconds",
                lambda record: record["minibatch"]["minibatch"]["seconds"],
                "minibatch_seconds",
            ),
            (
                "optimizer comparison seconds",
                lambda record: record["optimizer_comparison"]["seconds"],
                "optimizer_comparison_seconds",
            ),
        ),
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true", help="seconds-scale run for CI (tiny sizes)"
    )
    parser.add_argument("--num-samples", type=int, default=None, help="default: 4000 (600 with --smoke)")
    parser.add_argument("--batch-size", type=int, default=None, help="default: 256 (128 with --smoke)")
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument(
        "--check-against",
        default=None,
        metavar="BASELINE_JSON",
        help="fail on a >2x step-time regression against this committed record",
    )
    parser.add_argument(
        "--output",
        default=None,
        help="where to write the JSON record (default: BENCH_training.json at the repo "
        "root; a --smoke run writes nothing unless given)",
    )
    args = parser.parse_args(argv)

    result = benchmark_training(
        smoke=args.smoke,
        num_samples=args.num_samples,
        batch_size=args.batch_size,
        seed=args.seed,
    )
    print(format_benchmark(result))
    write_script_record(
        result, args.output, args.smoke, os.path.join(os.path.dirname(_SRC), "BENCH_training.json")
    )
    if args.check_against is not None:
        return check_regression(result, args.check_against)
    return 0


if __name__ == "__main__":
    sys.exit(main())
