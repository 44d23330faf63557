"""Shared CI performance gate for the benchmark scripts.

The ``benchmarks/bench_*.py`` scripts (and the serving and online CLI verbs)
run in ``--smoke`` mode and compare their timings against the
``smoke_reference`` block of the committed full-run record.  The comparison
logic lives here once so the gate (budget factor, smoke-mode guard, output
format) cannot drift between them.
"""

from __future__ import annotations

import json
import sys
from typing import Callable, Sequence, Tuple

__all__ = ["REGRESSION_FACTOR", "check_perf_regression"]

#: A smoke run slower than this factor times the committed baseline fails.
REGRESSION_FACTOR = 2.0

#: ``(label, extractor(result) -> seconds, smoke_reference_key)`` triples.
#: Extractors are callables so nothing is read off the record until the
#: smoke-mode guard has passed.
Check = Tuple[str, Callable[[dict], float], str]


def check_perf_regression(
    result: dict, baseline_path: str, checks: Sequence[Check]
) -> int:
    """Compare a smoke run against a committed baseline; 0 = within budget.

    Only smoke-mode records are gated: full runs measure different sizes, so
    comparing them against smoke references would always "regress" — the
    gate reports and skips instead of failing a half-hour run spuriously.
    Baselines without a ``smoke_reference`` block are skipped likewise.
    """
    if result.get("mode") != "smoke":
        print(
            f"note: perf gate only applies to --smoke runs "
            f"(this record is mode={result.get('mode')!r}); skipping"
        )
        return 0
    with open(baseline_path, "r", encoding="utf-8") as handle:
        baseline = json.load(handle)
    reference = baseline.get("smoke_reference")
    if not reference:
        print(f"note: {baseline_path} has no smoke_reference block; skipping perf gate")
        return 0
    failures = []
    for label, extractor, reference_key in checks:
        if reference_key not in reference:
            # Baseline predates this gate metric; it will appear on the next
            # full-run refresh.
            print(f"note: baseline has no {reference_key!r}; skipping that check")
            continue
        measured = extractor(result)
        committed = reference[reference_key]
        ratio = measured / committed
        status = "FAIL" if ratio > REGRESSION_FACTOR else "ok"
        print(
            f"perf gate: {label}: {measured:.6f} vs baseline {committed:.6f} "
            f"({ratio:.2f}x, limit {REGRESSION_FACTOR:.1f}x) [{status}]"
        )
        if ratio > REGRESSION_FACTOR:
            failures.append(label)
    if failures:
        print(f"error: perf regression on: {', '.join(failures)}", file=sys.stderr)
        return 1
    return 0
