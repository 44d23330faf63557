"""Versioned model registry: in-process serving, hot swap and rollback.

:class:`ModelRegistry` is the model store of the serving tier and its
in-process prediction path.  It tracks every deployment of every model
name as an immutable :class:`ModelVersion` — the estimator plus that
version's own row cache, counters and in-flight lease count — and keeps
the *live pointer* per name:

* :meth:`deploy` loads an artifact (or accepts a fitted estimator), appends
  it as the next version and atomically swaps the live pointer.  Requests
  that already hold a lease on the old version keep using it; the old
  version counts as *drained* only once its last in-flight lease is
  released, so a hot swap never drops or fails an in-flight request.
* :meth:`rollback` re-activates whichever version was live before the
  current one (deploy/rollback history is a stack, so rolling back after a
  bad deploy always lands on the version that was actually serving).
* :meth:`predict` / :meth:`predict_many` answer requests in the caller:
  they lease the live version, fuse the requests' rows into chunked
  forward passes (:meth:`ModelVersion.predict_rows`, row-cached), split
  the result per request and count it on the version.  The concurrent
  :class:`~repro.serve.server.ServingFrontend` runs each coalesced batch
  through the same :meth:`predict_many`.
* :meth:`acquire` / :meth:`release` are the lease protocol around every
  fused batch; :meth:`ModelVersion.wait_drained` lets operators (and tests)
  confirm an old version has fully retired.

Artifact deployments are fingerprinted via
:func:`repro.persistence.artifact_fingerprint`, so :meth:`model_report`
can show exactly which bytes each version was built from.
"""

from __future__ import annotations

import hashlib
import os
import threading
import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.estimator import HTEEstimator
from ..data.dataset import covariate_matrix
from .cache import LRUCache
from .stats import ModelStats

__all__ = ["ModelRegistry", "ModelVersion", "as_request_matrix"]

ModelSource = Union[HTEEstimator, str, "os.PathLike[str]"]
ArrayLike = Union[np.ndarray, Sequence[Sequence[float]], Sequence[float]]


class ModelVersion:
    """One immutable deployment of one model name.

    Owns the estimator snapshot plus the per-version row cache, counters
    and lock; the registry adds lease accounting on top.  Requests hold a
    reference to exactly one version for their whole lifetime, so a
    concurrent deploy / rollback / undeploy can never crash them.
    """

    def __init__(
        self,
        name: str,
        version: int,
        estimator: HTEEstimator,
        *,
        source: str,
        fingerprint: Optional[str] = None,
        cache_size: int = 8192,
        latency_window: int = 1024,
    ) -> None:
        self.name = name
        self.version = version
        self.estimator = estimator
        self.source = source
        self.fingerprint = fingerprint
        self.num_features = estimator.num_features
        self.dtype = estimator.fitted_dtype
        self.cache = LRUCache(cache_size)
        self.stats = ModelStats(window=latency_window)
        #: Guards cache and counter mutation (not the lease count — that is
        #: registry state, guarded by the registry lock).
        self.lock = threading.Lock()
        self.inflight = 0
        self.live = False
        self._drained = threading.Event()
        self._drained.set()

    def wait_drained(self, timeout: Optional[float] = None) -> bool:
        """Block until this version is retired with no in-flight leases."""
        return self._drained.wait(timeout)

    @property
    def state(self) -> str:
        """Lifecycle state: ``live``, ``draining`` or ``retired``."""
        if self.live:
            return "live"
        return "draining" if self.inflight > 0 else "retired"

    def describe(self) -> Dict[str, object]:
        """JSON-friendly snapshot of this version (no arrays)."""
        with self.lock:
            summary = self.stats.summary()
        return {
            "name": self.name,
            "version": self.version,
            "state": self.state,
            "source": self.source,
            "fingerprint": self.fingerprint,
            "num_features": self.num_features,
            "dtype": str(self.dtype),
            "inflight": self.inflight,
            "stats": summary,
        }

    # ------------------------------------------------------------------ #
    # Prediction engine (run by ModelRegistry.predict_many)
    # ------------------------------------------------------------------ #
    def predict_rows(
        self, matrix: np.ndarray, max_batch_size: int
    ) -> Tuple[Dict[str, np.ndarray], int, int, int]:
        """Row-cached, chunked prediction of one fused ``(n, d)`` matrix.

        Returns ``(result, cache_hits, cache_misses, forward_batches)``.
        The matrix must already be coerced to this version's fitted dtype
        (see :func:`as_request_matrix`), so the digest keys are dtype-stable.
        """
        if max_batch_size <= 0:
            # No chunk would run, and the empty outputs would be cached.
            raise ValueError("max_batch_size must be positive")
        n = len(matrix)
        mu0 = np.empty(n, dtype=self.dtype)
        mu1 = np.empty(n, dtype=self.dtype)

        # Hash outside the lock — digesting thousands of rows is pure CPU
        # work that must not serialise concurrent requests.
        digests = [
            hashlib.blake2b(matrix[index].tobytes(), digest_size=16).digest()
            for index in range(n)
        ]
        miss_indices: List[int] = []
        with self.lock:
            for index, digest in enumerate(digests):
                cached = self.cache.get(digest)
                if cached is None:
                    miss_indices.append(index)
                else:
                    mu0[index], mu1[index] = cached
        hits = n - len(miss_indices)

        batches = 0
        if miss_indices:
            miss_matrix = matrix[miss_indices]
            for chunk_start in range(0, len(miss_matrix), max_batch_size):
                chunk = miss_matrix[chunk_start : chunk_start + max_batch_size]
                outputs = self.estimator.predict_potential_outcomes(chunk)
                batches += 1
                rows = miss_indices[chunk_start : chunk_start + len(chunk)]
                mu0[rows] = outputs["mu0"]
                mu1[rows] = outputs["mu1"]
            with self.lock:
                for index in miss_indices:
                    self.cache.put(digests[index], (mu0[index], mu1[index]))

        return {"mu0": mu0, "mu1": mu1, "ite": mu1 - mu0}, hits, len(miss_indices), batches


def as_request_matrix(covariates: ArrayLike, version: ModelVersion) -> np.ndarray:
    """Coerce one request payload to a contiguous ``(n, d)`` request matrix.

    The matrix is cast to the model's *fitted* dtype, so the row-cache
    digest is taken over the bytes actually served.  Rank and width go
    through :func:`~repro.data.dataset.covariate_matrix`, the check every
    prediction entry point runs, and its errors name the model and version.
    """
    model = f"model {version.name!r} (v{version.version})"
    return covariate_matrix(covariates, version.num_features, version.dtype, model)


class _ModelEntry:
    """All versions of one model name plus the live-pointer history."""

    __slots__ = ("versions", "live_index", "history")

    def __init__(self) -> None:
        self.versions: List[ModelVersion] = []
        self.live_index: int = -1
        #: Stack of live indices superseded by deploys; rollback pops it.
        self.history: List[int] = []


class ModelRegistry:
    """Thread-safe ``(name, version)`` model store with atomic hot swap."""

    def __init__(self, cache_size: int = 8192, latency_window: int = 1024) -> None:
        self.cache_size = cache_size
        self.latency_window = latency_window
        self._models: Dict[str, _ModelEntry] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def deploy(self, name: str, source: ModelSource) -> ModelVersion:
        """Deploy ``source`` as the next version of ``name`` and make it live.

        ``source`` is either a fitted :class:`HTEEstimator` or an artifact
        directory written by :meth:`HTEEstimator.save`.  Loading and
        validation happen *outside* the registry lock; only the pointer
        swap itself is serialised, so a deploy never stalls serving.  The
        previous live version (if any) starts draining immediately.
        """
        estimator, origin, fingerprint = self._resolve_source(name, source)
        with self._lock:
            entry = self._models.setdefault(name, _ModelEntry())
            version = ModelVersion(
                name,
                len(entry.versions) + 1,
                estimator,
                source=origin,
                fingerprint=fingerprint,
                cache_size=self.cache_size,
                latency_window=self.latency_window,
            )
            entry.versions.append(version)
            if entry.live_index >= 0:
                entry.history.append(entry.live_index)
                self._retire(entry.versions[entry.live_index])
            entry.live_index = len(entry.versions) - 1
            version.live = True
            version._drained.clear()
        return version

    def rollback(self, name: str) -> ModelVersion:
        """Re-activate the version that was live before the current one."""
        with self._lock:
            entry = self._require_entry(name)
            if not entry.history:
                raise ValueError(
                    f"cannot roll back model {name!r}: no previous version "
                    f"(only v{entry.versions[entry.live_index].version} was ever live)"
                )
            self._retire(entry.versions[entry.live_index])
            entry.live_index = entry.history.pop()
            target = entry.versions[entry.live_index]
            target.live = True
            target._drained.clear()
            return target

    def undeploy(self, name: str) -> None:
        """Remove a model name entirely; its versions start draining."""
        with self._lock:
            entry = self._require_entry(name)
            del self._models[name]
            for version in entry.versions:
                if version.live or version.inflight == 0:
                    self._retire(version)

    def _retire(self, version: ModelVersion) -> None:
        version.live = False
        if version.inflight == 0:
            version._drained.set()

    def _resolve_source(
        self, name: str, source: ModelSource
    ) -> Tuple[HTEEstimator, str, Optional[str]]:
        if isinstance(source, HTEEstimator):
            if not source.is_fitted:
                raise ValueError(f"model {name!r} is not fitted; fit or load it first")
            return source, "<memory>", None
        if isinstance(source, (str, bytes)) or hasattr(source, "__fspath__"):
            from ..persistence import artifact_fingerprint

            path = os.fspath(source)
            estimator = HTEEstimator.load(path)
            return estimator, path, artifact_fingerprint(path)
        raise TypeError(
            f"expected an HTEEstimator or artifact path, got {type(source).__name__}"
        )

    # ------------------------------------------------------------------ #
    # Lookup / lease protocol
    # ------------------------------------------------------------------ #
    @property
    def names(self) -> List[str]:
        """Names with at least one deployed version."""
        with self._lock:
            return list(self._models)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._models

    def _require_entry(self, name: Optional[str]) -> _ModelEntry:
        if name is None:
            if len(self._models) == 1:
                return next(iter(self._models.values()))
            raise ValueError(
                f"model name required when serving {len(self._models)} models; "
                f"available: {list(self._models)}"
            )
        try:
            return self._models[name]
        except KeyError:
            raise ValueError(
                f"unknown model {name!r}; available: {list(self._models)}"
            ) from None

    def live(self, name: Optional[str] = None) -> ModelVersion:
        """The live version of ``name`` (the only model when ``None``)."""
        with self._lock:
            entry = self._require_entry(name)
            return entry.versions[entry.live_index]

    def acquire(self, name: Optional[str] = None) -> ModelVersion:
        """Lease the live version: it cannot drain until :meth:`release`."""
        with self._lock:
            entry = self._require_entry(name)
            version = entry.versions[entry.live_index]
            version.inflight += 1
            return version

    def release(self, version: ModelVersion) -> None:
        """Return a lease taken with :meth:`acquire`."""
        with self._lock:
            version.inflight -= 1
            if not version.live and version.inflight == 0:
                version._drained.set()

    # ------------------------------------------------------------------ #
    # In-process prediction
    # ------------------------------------------------------------------ #
    def predict(
        self, covariates: ArrayLike, model: Optional[str] = None, max_batch_size: int = 2048
    ) -> Dict[str, np.ndarray]:
        """Predict ``{"mu0", "mu1", "ite"}`` for one block of covariates."""
        return self.predict_many([covariates], model, max_batch_size)[0]

    def predict_many(
        self,
        requests: Iterable[ArrayLike],
        model: Optional[str] = None,
        max_batch_size: int = 2048,
    ) -> List[Dict[str, np.ndarray]]:
        """Answer many requests on the live version of ``model``, in the caller.

        Every request is coerced and width-checked before any forward runs.
        All rows are then predicted as one matrix in ``max_batch_size``
        chunks, so the per-call overhead is paid once per *chunk* instead
        of once per *request*, and split back in request order, each with
        the keys of :meth:`predict`.  The version leased at the start
        serves the whole call and counts it.
        """
        version = self.acquire(model)
        try:
            matrices = [as_request_matrix(request, version) for request in requests]
            if not matrices:
                return []
            start = time.perf_counter()
            fused = np.concatenate(matrices, axis=0) if len(matrices) > 1 else matrices[0]
            fused_result, hits, misses, batches = version.predict_rows(fused, max_batch_size)
            elapsed = time.perf_counter() - start

            results: List[Dict[str, np.ndarray]] = []
            offset = 0
            for matrix in matrices:
                end = offset + len(matrix)
                results.append({key: value[offset:end] for key, value in fused_result.items()})
                offset = end

            with version.lock:
                version.stats.record(
                    rows=len(fused),
                    seconds=elapsed,
                    requests=len(matrices),
                    batches=batches,
                    cache_hits=hits,
                    cache_misses=misses,
                )
        finally:
            self.release(version)
        return results

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def stats(self, name: Optional[str] = None) -> Dict[str, Dict[str, float]]:
        """``{name: live-version counter summary}`` for one or all models."""
        with self._lock:
            if name is not None:
                entry = self._require_entry(name)
                targets = {name: entry.versions[entry.live_index]}
            else:
                targets = {
                    model_name: entry.versions[entry.live_index]
                    for model_name, entry in self._models.items()
                }
        result = {}
        for model_name, version in targets.items():
            with version.lock:
                result[model_name] = version.stats.summary()
        return result

    def model_report(self, name: str) -> List[Dict[str, object]]:
        """Per-version description of one model (state, source, stats)."""
        with self._lock:
            entry = self._require_entry(name)
            versions = list(entry.versions)
        return [version.describe() for version in versions]

    def reset_stats(self) -> None:
        """Fresh cache and counters on every version of every model."""
        with self._lock:
            versions = [
                version for entry in self._models.values() for version in entry.versions
            ]
        for version in versions:
            with version.lock:
                version.cache = LRUCache(self.cache_size)
                version.stats = ModelStats(window=self.latency_window)
