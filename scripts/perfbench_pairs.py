"""Compare two checkouts on one perfbench workload over interleaved pairs.

Each pair runs ``perfbench/run.py --trace 0`` once in the parent directory
and once in the change directory, on the pair's own seed, alternating which
side runs first.  Both directories must be prepared the same way (for
example two ``git archive`` exports): the peak RSS moves by a few MB with
how a tree was laid out, not only with the code.  Run from anywhere::

    python3 scripts/perfbench_pairs.py --parent /tmp/parent --change /tmp/change \\
        --workload fit-fullbatch --pairs 10 --first-seed 101

Both sides run for the parent's ``BENCHMARK.json`` ``run_seconds``, the
length the benchmark itself uses.  For every end-to-end metric of that
file that both sides report, it prints each side's median and quartiles,
the parent's interquartile range, the ratio of the medians and the
change's wins, ties and losses under the metric's ``better``.  It writes
no file, and exits 1 when any run fails or reports ``correct: false``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List, Optional, Sequence

#: A run is killed after this long; perfbench itself stops a child at 85 s
#: and a traced-off run has one child.
RUN_TIMEOUT_S = 200


def quartiles(values: Sequence[float]) -> tuple:
    """``(q1, median, q3)`` of ``values`` (inclusive method; one value is all three)."""
    if len(values) == 1:
        return (values[0],) * 3
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(
    end_to_end: Sequence[dict], parent: Sequence[dict], change: Sequence[dict]
) -> List[dict]:
    """One row per end-to-end metric that every run of both sides reports.

    ``parent[i]`` and ``change[i]`` map each metric of pair ``i``'s runs to its value.
    """
    rows = []
    for spec in end_to_end:
        name = spec["name"]
        if not all(name in run for run in list(parent) + list(change)):
            continue
        old = [float(run[name]) for run in parent]
        new = [float(run[name]) for run in change]
        sign = 1.0 if spec["better"] == "lower" else -1.0
        wins = sum(sign * (b - a) < 0 for a, b in zip(old, new))
        ties = sum(a == b for a, b in zip(old, new))
        old_q, new_q = quartiles(old), quartiles(new)
        rows.append({
            "metric": name,
            "unit": spec.get("unit", ""),
            "better": spec["better"],
            "parent": old_q,
            "change": new_q,
            "parent_iqr": old_q[2] - old_q[0],
            "ratio": new_q[1] / old_q[1] if old_q[1] else float("nan"),
            "wins": wins,
            "ties": ties,
            "losses": len(old) - wins - ties,
        })
    return rows


def format_summary(rows: Sequence[dict], pairs: int) -> str:
    """The rows as a fixed-width table."""
    lines = [
        f"{pairs} pairs; quartiles q1 / median / q3",
        f"{'metric':16s} {'better':6s} {'parent':>30s} {'change':>30s} "
        f"{'parent IQR':>11s} {'ratio':>7s}  wins/ties/losses",
    ]
    for row in rows:
        old = " / ".join(f"{value:.6g}" for value in row["parent"])
        new = " / ".join(f"{value:.6g}" for value in row["change"])
        lines.append(
            f"{row['metric']:16s} {row['better']:6s} {old:>30s} {new:>30s} "
            f"{row['parent_iqr']:11.4g} {row['ratio']:7.4f}  "
            f"{row['wins']}/{row['ties']}/{row['losses']}"
        )
    return "\n".join(lines)


def run_once(directory: str, workload: str, seed: int, seconds: int) -> Optional[dict]:
    """The last JSON line of one perfbench run in ``directory`` (``None`` if it failed)."""
    command = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    try:
        done = subprocess.run(
            command, cwd=directory, capture_output=True, text=True, timeout=RUN_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return None
    lines = [line for line in done.stdout.splitlines() if line.strip()]
    if done.returncode != 0 or not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    return result if result.get("correct") is True else None


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="the parent's prepared tree")
    parser.add_argument("--change", required=True, help="the change's prepared tree")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=101, help="pair i runs seed first+i")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    with open(os.path.join(args.parent, "BENCHMARK.json"), encoding="utf-8") as handle:
        benchmark = json.load(handle)
    end_to_end, seconds = benchmark["end_to_end"], benchmark["run_seconds"]
    sides = {"parent": args.parent, "change": args.change}
    metrics: Dict[str, List[dict]] = {"parent": [], "change": []}
    for index in range(args.pairs):
        seed = args.first_seed + index
        order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
        for side in order:
            result = run_once(sides[side], args.workload, seed, seconds)
            if result is None:
                print(f"pair {index + 1}: the {side} run on seed {seed} failed", file=sys.stderr)
                return 1
            metrics[side].append({name: entry["value"] for name, entry in result["metrics"].items()})
        print(f"pair {index + 1}/{args.pairs} (seed {seed}, {order[0]} first): " + ", ".join(
            f"{name} {metrics['parent'][-1][name]:.6g} -> {metrics['change'][-1][name]:.6g}"
            for name in sorted(metrics["parent"][-1]) if name in metrics["change"][-1]
        ), flush=True)
    print(format_summary(summarize(end_to_end, metrics["parent"], metrics["change"]), args.pairs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
