"""Serving subsystem: load saved estimators and answer prediction traffic.

Two layers, bottom to top:

* :class:`ModelRegistry` — versioned ``(name, version)`` model store with
  atomic zero-downtime hot swap (:meth:`~ModelRegistry.deploy`) and
  :meth:`~ModelRegistry.rollback`, built on :mod:`repro.persistence`.  Its
  :meth:`~ModelRegistry.predict` / :meth:`~ModelRegistry.predict_many`
  serve in process: request microbatching, a per-row LRU result cache and
  latency/throughput counters per version.
* :class:`ServingFrontend` — concurrent multi-worker server that coalesces
  *cross-request* traffic into fused batches under a batching deadline and
  runs each batch through the registry's ``predict_many``.

On top of those sits the drift-aware online layer (:mod:`repro.serve.online`):
:class:`DriftMonitor` watches a sliding window of served covariates against
the live model's training population, and :class:`OnlineServingLoop` reacts
to its triggers with a warm incremental refit, a registry hot swap, and an
automatic rollback when the post-swap drift score is worse than the one
that triggered the refit.  See ``docs/online-serving.md``.

Quickstart::

    from repro.serve import ServingFrontend

    frontend = ServingFrontend(num_workers=4, max_wait_ms=2.0)
    frontend.deploy("uplift", "artifacts/uplift")       # version 1 goes live
    future = frontend.submit(covariate_rows, model="uplift")
    result = future.result()                            # {"mu0","mu1","ite"}
    frontend.deploy("uplift", "artifacts/uplift-v2")    # hot swap under load
    frontend.rollback("uplift")                         # back to version 1
    frontend.stop()
"""

from .cache import LRUCache
from .online import (
    DriftCheck,
    DriftMonitor,
    DriftSchedule,
    DriftStream,
    OnlineEvent,
    OnlineRunReport,
    OnlineServingLoop,
    OnlineStepRecord,
    StreamBatch,
    drift_stream,
)
from .registry import ModelRegistry, ModelVersion
from .server import FrontendStats, ServingFrontend
from .stats import ModelStats

__all__ = [
    "ServingFrontend",
    "FrontendStats",
    "ModelRegistry",
    "ModelVersion",
    "LRUCache",
    "ModelStats",
    "DriftSchedule",
    "DriftStream",
    "StreamBatch",
    "drift_stream",
    "DriftMonitor",
    "DriftCheck",
    "OnlineServingLoop",
    "OnlineStepRecord",
    "OnlineEvent",
    "OnlineRunReport",
]
