"""Bounded LRU cache for per-row prediction results.

Keys are opaque (:meth:`ModelVersion.predict_rows
<repro.serve.registry.ModelVersion.predict_rows>` hashes covariate rows into
digests); values are small tuples of floats.  Eviction is least-recently-used, where both ``get``
hits and ``put`` insertions refresh recency.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Hashable, Optional

__all__ = ["LRUCache"]


class LRUCache:
    """A dict with a maximum size and least-recently-used eviction."""

    def __init__(self, capacity: int) -> None:
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        self.capacity = capacity
        self._store: "OrderedDict[Hashable, Any]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: Hashable) -> Optional[Any]:
        """Return the cached value or ``None``; hits refresh recency."""
        if self.capacity == 0:
            self.misses += 1
            return None
        try:
            value = self._store[key]
        except KeyError:
            self.misses += 1
            return None
        self._store.move_to_end(key)
        self.hits += 1
        return value

    def put(self, key: Hashable, value: Any) -> None:
        """Insert (or refresh) a value, evicting the oldest entry if full."""
        if self.capacity == 0:
            return
        if key in self._store:
            self._store.move_to_end(key)
        self._store[key] = value
        if len(self._store) > self.capacity:
            self._store.popitem(last=False)
            self.evictions += 1

    def clear(self) -> None:
        """Drop every cached entry."""
        self._store.clear()

    def __len__(self) -> int:
        return len(self._store)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._store

    @property
    def hit_rate(self) -> float:
        """Hits over total lookups (0 when empty)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
