"""Per-version latency / throughput counters of the serving tier.

Latencies are kept in a bounded window so long-running servers report
recent percentiles without unbounded memory growth; totals (requests, rows,
seconds) accumulate over the version's lifetime.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict

import numpy as np

__all__ = ["ModelStats"]


class ModelStats:
    """Counters for one served model."""

    def __init__(self, window: int = 1024) -> None:
        if window <= 0:
            raise ValueError("window must be positive")
        self.requests = 0
        self.rows = 0
        self.batches = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.total_seconds = 0.0
        self._latencies: Deque[float] = deque(maxlen=window)

    def record(
        self,
        rows: int,
        seconds: float,
        *,
        requests: int = 1,
        batches: int = 0,
        cache_hits: int = 0,
        cache_misses: int = 0,
    ) -> None:
        """Record one prediction call covering ``rows`` rows in ``seconds``."""
        self.requests += requests
        self.rows += rows
        self.batches += batches
        self.cache_hits += cache_hits
        self.cache_misses += cache_misses
        self.total_seconds += seconds
        self._latencies.append(seconds)

    @property
    def throughput_rows_per_second(self) -> float:
        """Served rows per second of predict time."""
        return self.rows / self.total_seconds if self.total_seconds > 0 else 0.0

    @property
    def cache_hit_rate(self) -> float:
        """Cache hits over total lookups (0 when empty)."""
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    def latency_percentile(self, quantile: float) -> float:
        """Latency quantile (seconds) over the recent window; 0 when empty."""
        if not self._latencies:
            return 0.0
        return float(np.quantile(np.asarray(self._latencies), quantile))

    def summary(self) -> Dict[str, float]:
        """Flat numeric summary suitable for logging or tables."""
        return {
            "requests": float(self.requests),
            "rows": float(self.rows),
            "batches": float(self.batches),
            "cache_hits": float(self.cache_hits),
            "cache_misses": float(self.cache_misses),
            "cache_hit_rate": self.cache_hit_rate,
            "total_seconds": self.total_seconds,
            "throughput_rows_per_second": self.throughput_rows_per_second,
            "latency_p50_seconds": self.latency_percentile(0.50),
            "latency_p95_seconds": self.latency_percentile(0.95),
        }
