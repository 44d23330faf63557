"""Concurrent serving frontend with cross-request batch coalescing.

:class:`ServingFrontend` is the traffic-facing layer of the serving tier.
Where :meth:`ModelRegistry.predict_many
<repro.serve.registry.ModelRegistry.predict_many>` fuses the rows of the
requests one caller hands it, the frontend fuses rows *across concurrent
callers*:

* :meth:`submit` validates and enqueues a request on its model's queue and
  immediately returns a :class:`concurrent.futures.Future`.
* A per-model **batcher** thread coalesces queued requests into one fused
  matrix, closing a batch when it holds ``max_batch_size`` rows or when
  ``max_wait_ms`` has elapsed since the batch's first request arrived —
  the classic batching-deadline trade between latency and throughput.
* A shared **worker pool** runs each coalesced batch through the
  registry's :meth:`~repro.serve.registry.ModelRegistry.predict_many` (the
  compiled forwards over the op table, which release no locks of ours and
  spend their time in BLAS), then sets each request's result slice on its
  future in submission order.

Model lifecycle is the registry's: :meth:`deploy` / :meth:`rollback` swap
the live version atomically while traffic is flowing.  Requests lease a
version only when their batch *executes*, so a queued request always runs
on the version that is live at execution time and an old version drains —
never aborts — its in-flight batches.  The frontend never fails a request
because of a swap; zero dropped requests during the swap window is pinned
by ``tests/test_serve_server.py`` and measured by
``benchmarks/bench_serving.py``.
"""

from __future__ import annotations

import queue
import threading
import time
from collections import Counter
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Dict, List, Optional

import numpy as np

from .registry import ArrayLike, ModelRegistry, ModelSource, ModelVersion, as_request_matrix
from .stats import ModelStats

__all__ = ["ServingFrontend", "FrontendStats"]

#: Sentinel enqueued once per batcher to make it drain and exit.
_SHUTDOWN = object()


class _Request:
    """One enqueued prediction request."""

    __slots__ = ("matrix", "future", "enqueued_at")

    def __init__(self, matrix: np.ndarray) -> None:
        self.matrix = matrix
        self.future: "Future[Dict[str, np.ndarray]]" = Future()
        self.enqueued_at = time.perf_counter()


class FrontendStats:
    """Frontend-wide counters: request latency and coalescing behaviour.

    Request latency here is end-to-end (enqueue -> result scattered),
    i.e. it includes queueing and the batching deadline — the number a
    client actually experiences — unlike the per-version
    :class:`~repro.serve.stats.ModelStats`, whose latencies cover only the
    fused forward passes.
    """

    def __init__(self, latency_window: int = 4096) -> None:
        self._lock = threading.Lock()
        self._latency = ModelStats(window=latency_window)
        self.batch_sizes: Counter = Counter()
        self.failed_requests = 0
        self.deploys = 0
        self.rollbacks = 0

    def record_batch(self, rows: int, latencies: List[float]) -> None:
        """Count one fused batch and its request latencies."""
        with self._lock:
            self.batch_sizes[rows] += 1
            # Each record() call counts one request; rows/batches are
            # accounted once per batch below, not once per request.
            for seconds in latencies:
                self._latency.record(rows=0, seconds=seconds)
            self._latency.rows += rows
            self._latency.batches += 1

    def record_failures(self, count: int) -> None:
        """Count ``count`` failed requests."""
        with self._lock:
            self.failed_requests += count

    def record_deploy(self) -> None:
        """Count one deploy."""
        with self._lock:
            self.deploys += 1

    def record_rollback(self) -> None:
        """Count one rollback."""
        with self._lock:
            self.rollbacks += 1

    def summary(self) -> Dict[str, object]:
        """Aggregate counters and latency percentiles as a dict."""
        with self._lock:
            batches = sum(self.batch_sizes.values())
            rows = sum(size * count for size, count in self.batch_sizes.items())
            return {
                "requests": self._latency.requests,
                "rows": rows,
                "batches": batches,
                "mean_batch_rows": (rows / batches) if batches else 0.0,
                "batch_size_histogram": {
                    str(size): count for size, count in sorted(self.batch_sizes.items())
                },
                "failed_requests": self.failed_requests,
                "deploys": self.deploys,
                "rollbacks": self.rollbacks,
                "latency_p50_seconds": self._latency.latency_percentile(0.50),
                "latency_p95_seconds": self._latency.latency_percentile(0.95),
                "latency_p99_seconds": self._latency.latency_percentile(0.99),
            }


class ServingFrontend:
    """Multi-worker prediction server with cross-request batch coalescing.

    Parameters
    ----------
    registry:
        The :class:`ModelRegistry` to serve from (a private one is created
        when omitted); deploy models through :meth:`deploy` or directly on
        the registry.
    num_workers:
        Threads executing fused batches.  The compiled forwards do their
        heavy lifting inside BLAS, so on multi-core hosts several batches
        (for the same or different models) make progress concurrently.
    max_batch_size:
        Row cap per coalesced batch; one request is never split across
        batches, so a single request larger than the cap forms its own
        batch (and is chunked inside the forward pass as usual).
    max_wait_ms:
        Batching deadline: the longest a forming batch may wait for more
        requests after its first request arrived.  Batches also dispatch
        *early* whenever a worker is idle — waiting would then only add
        latency, whereas lingering while every worker is busy is free (the
        batch could not run yet anyway, so it might as well grow).  0
        disables lingering entirely.
    coalesce:
        ``False`` turns coalescing off — every request becomes its own
        batch (the per-request dispatch baseline that
        ``benchmarks/bench_serving.py`` compares against).
    """

    def __init__(
        self,
        registry: Optional[ModelRegistry] = None,
        *,
        num_workers: int = 4,
        max_batch_size: int = 2048,
        max_wait_ms: float = 2.0,
        coalesce: bool = True,
        cache_size: int = 8192,
        latency_window: int = 1024,
    ) -> None:
        if num_workers <= 0:
            raise ValueError("num_workers must be positive")
        if max_batch_size <= 0:
            raise ValueError("max_batch_size must be positive")
        if max_wait_ms < 0:
            raise ValueError("max_wait_ms must be non-negative")
        self.registry = (
            registry
            if registry is not None
            else ModelRegistry(cache_size=cache_size, latency_window=latency_window)
        )
        self.num_workers = num_workers
        self.max_batch_size = max_batch_size
        self.max_wait_ms = max_wait_ms
        self.coalesce = coalesce
        self.stats = FrontendStats()
        self._pool = ThreadPoolExecutor(
            max_workers=num_workers, thread_name_prefix="serve-worker"
        )
        self._queues: Dict[str, "queue.Queue[object]"] = {}
        self._batchers: Dict[str, threading.Thread] = {}
        self._lock = threading.Lock()
        self._inflight_lock = threading.Lock()
        self._inflight_batches = 0
        self._closed = False

    # ------------------------------------------------------------------ #
    # Model lifecycle (delegated to the registry)
    # ------------------------------------------------------------------ #
    def deploy(self, name: str, source: ModelSource) -> ModelVersion:
        """Deploy (or hot-swap) a model; safe while traffic is flowing."""
        version = self.registry.deploy(name, source)
        self.stats.record_deploy()
        return version

    def rollback(self, name: str) -> ModelVersion:
        """Re-activate the previously live version; safe under load."""
        version = self.registry.rollback(name)
        self.stats.record_rollback()
        return version

    # ------------------------------------------------------------------ #
    # Request path
    # ------------------------------------------------------------------ #
    def submit(
        self, covariates: ArrayLike, model: Optional[str] = None
    ) -> "Future[Dict[str, np.ndarray]]":
        """Enqueue one request; returns a future of ``{"mu0","mu1","ite"}``.

        Validation (model existence, covariate width, dtype coercion) runs
        synchronously against the currently live version, so malformed
        requests raise here rather than poisoning a fused batch.
        """
        if self._closed:
            raise RuntimeError("frontend is stopped; no new requests accepted")
        version = self.registry.live(model)
        request = _Request(as_request_matrix(covariates, version))
        if not self.coalesce:
            self._dispatch(version.name, [request])
        else:
            self._batch_queue(version.name).put(request)
        return request.future

    def predict(
        self,
        covariates: ArrayLike,
        model: Optional[str] = None,
        timeout: Optional[float] = None,
    ) -> Dict[str, np.ndarray]:
        """Blocking convenience wrapper around :meth:`submit`."""
        return self.submit(covariates, model=model).result(timeout)

    def predict_ite(
        self,
        covariates: ArrayLike,
        model: Optional[str] = None,
        timeout: Optional[float] = None,
    ) -> np.ndarray:
        """Blocking convenience wrapper: submit one request and wait for its ITE."""
        return self.predict(covariates, model=model, timeout=timeout)["ite"]

    # ------------------------------------------------------------------ #
    # Batcher / worker internals
    # ------------------------------------------------------------------ #
    def _batch_queue(self, name: str) -> "queue.Queue[object]":
        with self._lock:
            if self._closed:
                raise RuntimeError("frontend is stopped; no new requests accepted")
            existing = self._queues.get(name)
            if existing is not None:
                return existing
            requests: "queue.Queue[object]" = queue.Queue()
            batcher = threading.Thread(
                target=self._batcher_loop,
                args=(name, requests),
                name=f"serve-batcher-{name}",
                daemon=True,
            )
            self._queues[name] = requests
            self._batchers[name] = batcher
            batcher.start()
            return requests

    def _dispatch(self, name: str, batch: List[_Request]) -> None:
        with self._inflight_lock:
            self._inflight_batches += 1
        self._pool.submit(self._run_batch, name, batch)

    def _batcher_loop(self, name: str, requests: "queue.Queue[object]") -> None:
        """Coalesce queued requests into fused batches until shut down.

        A batch closes when it reaches ``max_batch_size`` rows, when
        ``max_wait_ms`` has elapsed since its first request, or — the
        common case under load — when the queue is momentarily empty while
        a worker sits idle (waiting longer would add latency without
        adding throughput; see the class docstring).
        """
        shutting_down = False
        while not shutting_down:
            item = requests.get()
            if item is _SHUTDOWN:
                break
            batch = [item]
            rows = len(item.matrix)
            deadline = time.monotonic() + self.max_wait_ms / 1000.0
            while rows < self.max_batch_size:
                try:
                    extra = requests.get_nowait()
                except queue.Empty:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        break
                    with self._inflight_lock:
                        busy = self._inflight_batches >= self.num_workers
                    if not busy:
                        # An idle worker can run this batch right now.
                        break
                    try:
                        extra = requests.get(timeout=remaining)
                    except queue.Empty:
                        break
                if extra is _SHUTDOWN:
                    shutting_down = True
                    break
                batch.append(extra)
                rows += len(extra.matrix)
            self._dispatch(name, batch)
        # Drain whatever arrived between the shutdown signal and now so
        # stop() never strands a submitted request.
        leftovers: List[_Request] = []
        while True:
            try:
                item = requests.get_nowait()
            except queue.Empty:
                break
            if item is not _SHUTDOWN:
                leftovers.append(item)
        if leftovers:
            self._dispatch(name, leftovers)

    def _run_batch(self, name: str, batch: List[_Request]) -> None:
        """Execute one fused batch on the live version and scatter results."""
        try:
            self._run_batch_inner(name, batch)
        finally:
            with self._inflight_lock:
                self._inflight_batches -= 1

    def _run_batch_inner(self, name: str, batch: List[_Request]) -> None:
        active = [
            request for request in batch if request.future.set_running_or_notify_cancel()
        ]
        if not active:
            return
        try:
            # Leases the version live now, so a request coerced for an
            # older one has its width checked again against this one.
            results = self.registry.predict_many(
                [request.matrix for request in active], name, self.max_batch_size
            )
        except BaseException as exc:  # noqa: BLE001 — must reach the futures
            for request in active:
                request.future.set_exception(exc)
            self.stats.record_failures(len(active))
            return
        done = time.perf_counter()
        for request, result in zip(active, results):
            request.future.set_result(result)
        self.stats.record_batch(
            sum(len(request.matrix) for request in active),
            [done - request.enqueued_at for request in active],
        )

    # ------------------------------------------------------------------ #
    # Shutdown
    # ------------------------------------------------------------------ #
    def stop(self, drain: bool = True) -> None:
        """Stop accepting requests and shut the batchers and workers down.

        With ``drain=True`` (default) every already-submitted request is
        still executed and its future completed before the pool exits; with
        ``drain=False`` queued requests fail fast with ``RuntimeError``.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            queues = dict(self._queues)
            batchers = dict(self._batchers)
        if not drain:
            for name, requests in queues.items():
                while True:
                    try:
                        item = requests.get_nowait()
                    except queue.Empty:
                        break
                    if item is not _SHUTDOWN and item.future.set_running_or_notify_cancel():
                        item.future.set_exception(RuntimeError("frontend stopped"))
        for requests in queues.values():
            requests.put(_SHUTDOWN)
        for batcher in batchers.values():
            batcher.join()
        self._pool.shutdown(wait=True)

    def __enter__(self) -> "ServingFrontend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop(drain=True)
