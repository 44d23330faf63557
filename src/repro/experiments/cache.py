"""Content-addressed result cache for scenario-grid work units.

Every work unit of the cross-cell scheduler is a pure function of
``(method spec, scenario, severity, dataset seed, sample count, dims)`` —
the same purity that makes parallel == serial bit-for-bit also means a
unit's outcome can be *cached* and reused across processes, invocations
and machines.  Bit for bit, a reused outcome equals a recompute only on
hosts whose BLAS runs the same kernels: OpenBLAS picks its kernels by CPU,
and an entry from a host where it picked others agrees with a local
recompute within rounding, not bitwise.  This module provides the two
halves of that contract:

* :func:`unit_cache_key` — a blake2b digest over the full
  :class:`~repro.experiments.runner.MethodSpec` repr, the scenario name,
  the round-trip-exact ``repr(float(severity))``, the replication's
  dataset seed, the sample count and dims, and a code-relevant version
  tag (``repro.__version__`` plus a cache schema number).  Anything that
  could change the unit's result changes the key; anything that cannot
  (the replication *index*, the grid it is embedded in, scheduling
  order) is excluded, so re-runs of unchanged cells are free.
* :class:`ResultCache` — a directory of one JSON file per key, written
  atomically (temp file + ``os.replace``) so concurrent writers on a
  shared filesystem can never expose a torn entry.  Corrupt, truncated
  or foreign files are treated as misses, never as errors: a damaged
  entry costs one recomputation, never the run.

The cache is the one store of unit outcomes.  Re-running a grid with the
same directory resumes it, and shards of one grid written to separate
directories are unioned by copying their ``*.json`` entries into one:
keys are content hashes, so a union cannot conflict.  The cached payload
is :func:`~repro.experiments.scheduler.serialize_method_result` of the
unit's :class:`~repro.experiments.runner.MethodResult` (Python's ``json``
round-trips floats via shortest repr), so a cache hit aggregates to the
bit-identical suite record a recomputation with the same BLAS kernels
would produce — pinned by ``tests/test_result_cache.py`` and the CI
cache-smoke gate.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, Mapping, Optional

from .. import __version__

__all__ = [
    "CACHE_KIND",
    "CACHE_SCHEMA_VERSION",
    "ResultCache",
    "default_version_tag",
    "unit_cache_key",
]

#: ``kind`` field of every cache entry; foreign JSON files are misses.
CACHE_KIND = "scenario-result-cache"

#: Bump to invalidate every existing cache entry when the semantics of a
#: work unit's execution change (dataset construction, training, metric
#: definitions) without a package version bump.
CACHE_SCHEMA_VERSION = 1


def default_version_tag() -> str:
    """The code-relevant version tag mixed into every cache key.

    Covers the package version and the cache schema number: releasing a
    new ``repro`` version or bumping :data:`CACHE_SCHEMA_VERSION`
    invalidates the whole cache, which is the safe default for "the code
    that computes results changed".
    """
    return f"{__version__}+cache{CACHE_SCHEMA_VERSION}"


def unit_cache_key(unit, version_tag: Optional[str] = None) -> str:
    """Content hash of one work unit's inputs (hex blake2b digest).

    ``unit`` is any object with the :class:`WorkUnit` fields (duck-typed
    so this module has no import cycle with the scheduler).  The
    replication *index* is deliberately excluded — the outcome depends
    on the replication only through its dataset seed, so regridding the
    replication axis never invalidates entries.  Severity uses
    ``repr(float(...))``, which round-trips exactly: two severities that
    differ in the 7th significant digit get distinct keys.
    """
    tag = version_tag if version_tag is not None else default_version_tag()
    material = "\n".join(
        (
            CACHE_KIND,
            tag,
            f"scenario={unit.scenario}",
            f"severity={float(unit.severity)!r}",
            f"seed={unit.replication_seed}",
            f"num_samples={unit.num_samples}",
            f"dims={tuple(unit.dims)}",
            f"spec={unit.spec!r}",
        )
    )
    return hashlib.blake2b(material.encode("utf-8"), digest_size=20).hexdigest()


class ResultCache:
    """Directory-backed content-addressed store of unit result payloads.

    One JSON file per key, named ``<key>.json`` inside ``root``.  Writes
    go through a per-process temp file and ``os.replace``, so a reader
    (or a concurrent shard on a shared filesystem) either sees the whole
    entry or none of it.  Reads treat *any* malformed file — torn write
    from a killed process, truncation, foreign JSON, wrong ``kind`` — as
    a miss and leave repair to the next :meth:`put`.
    """

    def __init__(self, root: str) -> None:
        self.root = str(root)
        os.makedirs(self.root, exist_ok=True)

    def _path(self, key: str) -> str:
        if not key or os.sep in key or key != os.path.basename(key):
            raise ValueError(f"invalid cache key {key!r}")
        return os.path.join(self.root, f"{key}.json")

    def get(self, key: str) -> Optional[Dict[str, object]]:
        """The payload stored under ``key``, or ``None`` on any miss."""
        try:
            with open(self._path(key), "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except (FileNotFoundError, json.JSONDecodeError, UnicodeDecodeError, OSError):
            return None
        if not isinstance(payload, dict) or payload.get("kind") != CACHE_KIND:
            return None
        return payload

    def put(self, key: str, payload: Mapping[str, object]) -> str:
        """Atomically store ``payload`` under ``key``; returns the path."""
        record = dict(payload)
        record.setdefault("kind", CACHE_KIND)
        path = self._path(key)
        tmp = f"{path}.tmp.{os.getpid()}"
        try:
            with open(tmp, "w", encoding="utf-8") as handle:
                json.dump(record, handle)
                handle.write("\n")
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):  # a failed dump must not litter the dir
                os.unlink(tmp)
        return path
