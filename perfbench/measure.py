"""Small measurement helpers shared by the workloads and their tests."""

from __future__ import annotations

import math
import resource
import statistics
from typing import Dict, Iterable, Sequence, Tuple


def percentile(values: Sequence[float], q: float) -> Dict[str, float]:
    """The ``q``-th percentile (0-100, linear interpolation) with its sample count.

    ``beyond`` is the number of samples strictly above the percentile, so a
    reader can see whether a tail percentile rests on enough samples.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q must be in [0, 100], got {q}")
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    value = ordered[low] + (ordered[high] - ordered[low]) * (position - low)
    return {"value": value, "count": len(ordered), "beyond": sum(1 for v in ordered if v > value)}


def union_seconds(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by the union of ``[start, end]`` intervals."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted((s, e) for s, e in intervals if e > s):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def failed_ratio(failed: int, attempted: int) -> float:
    """Failed over attempted operations (0 when nothing was attempted)."""
    if failed < 0 or attempted < 0 or failed > attempted:
        raise ValueError(f"need 0 <= failed <= attempted, got {failed}/{attempted}")
    return failed / attempted if attempted else 0.0


def stability(values: Sequence[float]) -> float:
    """The paper's stability: mean squared deviation from the mean."""
    mean = statistics.fmean(values)
    return statistics.fmean((value - mean) ** 2 for value in values)


def steal_ticks() -> int:
    """Cumulative CPU steal ticks of the host (``/proc/stat``); 0 when unavailable."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = handle.readline().split()
    except OSError:
        return 0
    return int(fields[8]) if len(fields) > 8 and fields[0] == "cpu" else 0


def peak_rss_mb(include_children: bool = False) -> float:
    """Peak resident memory of this process (or its largest reaped child) in MB."""
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        peak_kb = max(peak_kb, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak_kb / 1024.0
