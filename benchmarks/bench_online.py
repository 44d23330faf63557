#!/usr/bin/env python
"""Benchmark the drift-aware online serving loop.

Writes ``BENCH_online.json`` recording, for the monitor -> warm refit ->
hot swap loop of :mod:`repro.serve.online`:

* the refit-latency vs PEHE-recovery tradeoff curve (warm
  ``refit(init="fitted", epochs=k)`` across an epoch grid vs a cold
  full-budget refit on the same drifted window),
* the full online loop replayed over a recurring-drift and an abrupt-shift
  schedule: detection delay, refit/rollback counts, failed requests and
  the per-step PEHE trace,
* the acceptance gates: the monitor fires within one window of the
  injected shift, warm refit recovers >= 80% of the PEHE degradation at
  < 25% of cold wall-clock, and the swap phase serves zero failed requests.

Run from the repository root::

    PYTHONPATH=src python benchmarks/bench_online.py           # full run
    PYTHONPATH=src python benchmarks/bench_online.py --smoke   # CI run

The script exits non-zero if any acceptance gate fails, so CI pins the
online-serving contract as well as its performance.
"""

from __future__ import annotations

import argparse
import os
import sys

# Allow running straight from a checkout without installation.
_SRC = os.path.abspath(os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))
if os.path.isdir(_SRC) and _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.experiments.online_benchmark import (  # noqa: E402
    benchmark_online,
    check_online_benchmark,
    format_online_benchmark,
)
from repro.experiments.reporting import write_record  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true", help="tens-of-seconds run for CI (small sizes)"
    )
    parser.add_argument(
        "--num-samples", type=int, default=None, help="default: 1200 (600 with --smoke)"
    )
    parser.add_argument(
        "--steps", type=int, default=None,
        help="stream length in batches (default: 24; 16 with --smoke)",
    )
    parser.add_argument(
        "--batch-rows", type=int, default=None,
        help="rows per stream batch (default: 192; 128 with --smoke)",
    )
    parser.add_argument(
        "--refit-epochs", type=int, default=None,
        help="warm-refit epoch budget (default: 40; 20 with --smoke)",
    )
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument(
        "--check-against",
        default=None,
        metavar="BASELINE_JSON",
        help="fail on a >2x refit-latency regression against this committed record",
    )
    parser.add_argument(
        "--output",
        default=os.path.join(os.path.dirname(_SRC), "BENCH_online.json"),
        help="where to write the JSON record (default: repo root)",
    )
    args = parser.parse_args(argv)

    result = benchmark_online(
        smoke=args.smoke,
        num_samples=args.num_samples,
        num_steps=args.steps,
        batch_rows=args.batch_rows,
        refit_epochs=args.refit_epochs,
        seed=args.seed,
    )
    print(format_online_benchmark(result))
    path = write_record(result, args.output)
    print(f"\nwrote {path}")
    return 1 if check_online_benchmark(result, args.check_against) else 0


if __name__ == "__main__":
    sys.exit(main())
