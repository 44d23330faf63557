"""Sustained-load serving benchmark: the measurement half of the serving tier.

Drives a :class:`~repro.serve.server.ServingFrontend` with a closed-loop
multi-threaded load generator and records:

* **sustained** — per-request dispatch vs cross-request coalescing at a
  fixed concurrency: throughput, p50/p95/p99 end-to-end latency and the
  coalesced-batch-size histogram.  The coalescing speedup here is the
  headline number (the acceptance gate requires >= 2x at concurrency >= 8).
* **saturation** — a concurrency sweep of the coalesced frontend; the
  saturation throughput is the best sustained rate observed.
* **hot swap** — a deploy of a second artifact version *while the load is
  running*, followed by a rollback, counting failed requests (the zero-
  downtime contract requires exactly zero) and timing the swap window
  (deploy call until the old version drained its last in-flight batch).

``benchmarks/bench_serving.py`` wraps this module as a CI script writing
``BENCH_serving.json`` (with a ``--check-against`` perf gate mirroring the
training/autodiff ones); ``repro serve-bench --sustained`` exposes it from
the CLI.
"""

from __future__ import annotations

import os
import tempfile
import threading
import time
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..core.config import BackboneConfig, SBRLConfig, TrainingConfig
from ..core.estimator import HTEEstimator
from ..data.synthetic import SyntheticConfig, SyntheticGenerator
from ..serve import ServingFrontend
from .perf_gate import check_perf_regression
from .reporting import format_table, machine_block

__all__ = ["PERF_GATES", "benchmark_serving", "check_serving_benchmark", "format_serving_benchmark"]

#: (num_samples, train_iterations, concurrency, requests_per_thread,
#:  sweep_concurrencies, sweep_requests_per_thread, swap_requests_per_thread,
#:  num_workers) — one source of truth per mode, shared by the --smoke
#: defaults and the smoke_reference block the CI gate reads.
SMOKE_DEFAULTS = (300, 30, 8, 60, (1, 4, 8), 30, 60, 2)
FULL_DEFAULTS = (800, 80, 16, 400, (1, 2, 4, 8, 16), 120, 300, 2)

#: Batching deadline used by every coalesced phase (milliseconds).
DEFAULT_MAX_WAIT_MS = 2.0


def _serving_config(iterations: int, seed: int) -> SBRLConfig:
    return SBRLConfig(
        backbone=BackboneConfig(rep_layers=2, rep_units=24, head_layers=2, head_units=12),
        training=TrainingConfig(
            iterations=iterations,
            learning_rate=1e-2,
            evaluation_interval=max(10, iterations // 3),
            early_stopping_patience=None,
            seed=seed,
        ),
    )


def _train_model(num_samples: int, iterations: int, seed: int) -> HTEEstimator:
    generator = SyntheticGenerator(SyntheticConfig(seed=seed))
    protocol = generator.generate_train_test_protocol(
        num_samples=num_samples, train_rho=2.5, test_rhos=(2.5,), seed=seed
    )
    estimator = HTEEstimator(
        backbone="cfr", framework="vanilla", config=_serving_config(iterations, seed), seed=seed
    )
    return estimator.fit(protocol["train"])


class _LoadResult:
    __slots__ = ("seconds", "latencies", "failures")

    def __init__(self, seconds: float, latencies: np.ndarray, failures: int) -> None:
        self.seconds = seconds
        self.latencies = latencies
        self.failures = failures

    @property
    def requests(self) -> int:
        return len(self.latencies) + self.failures

    @property
    def throughput(self) -> float:
        return self.requests / self.seconds if self.seconds > 0 else 0.0

    def summary(self) -> Dict[str, float]:
        quantile = (
            lambda q: float(np.quantile(self.latencies, q) * 1000.0)
            if len(self.latencies)
            else 0.0
        )
        return {
            "requests": self.requests,
            "failed_requests": self.failures,
            "seconds": self.seconds,
            "throughput_rps": self.throughput,
            "seconds_per_1k_requests": (
                1000.0 * self.seconds / self.requests if self.requests else 0.0
            ),
            "latency_p50_ms": quantile(0.50),
            "latency_p95_ms": quantile(0.95),
            "latency_p99_ms": quantile(0.99),
        }


def _drive_load(
    frontend: ServingFrontend,
    model: str,
    rows: np.ndarray,
    concurrency: int,
    requests_per_thread: int,
    arrival: str = "closed",
    burst: int = 4,
    on_progress=None,
) -> _LoadResult:
    """Closed-loop load generator: ``concurrency`` threads, blocking clients.

    ``arrival="closed"`` keeps exactly one request outstanding per thread
    (classic closed loop); ``arrival="burst"`` has each thread submit
    ``burst`` requests back to back and wait for all of them, modelling
    bursty clients that exercise deeper coalescing.  ``on_progress`` (when
    given) is called with the cumulative completed-request count — the hot
    swap phase uses it to trigger mid-load deploys at known points.
    """
    if arrival not in ("closed", "burst"):
        raise ValueError(f"arrival must be 'closed' or 'burst', got {arrival!r}")
    num_features = rows.shape[1]
    per_thread: List[List[float]] = [[] for _ in range(concurrency)]
    failures = [0] * concurrency
    completed = threading.Semaphore(0)
    total = concurrency * requests_per_thread
    barrier = threading.Barrier(concurrency + 1)

    def client(thread_index: int) -> None:
        # Per-thread request stream: distinct rows, so the row cache is not
        # what is being measured.
        rng = np.random.default_rng((thread_index + 1) * 9973)
        requests = [
            rows[rng.integers(0, len(rows))].reshape(1, num_features)
            + rng.normal(scale=1e-6, size=(1, num_features))
            for _ in range(requests_per_thread)
        ]
        barrier.wait()
        latencies = per_thread[thread_index]
        index = 0
        while index < requests_per_thread:
            chunk = 1 if arrival == "closed" else min(burst, requests_per_thread - index)
            start = time.perf_counter()
            futures = [
                frontend.submit(requests[index + offset], model=model)
                for offset in range(chunk)
            ]
            for future in futures:
                try:
                    future.result(timeout=60.0)
                    latencies.append(time.perf_counter() - start)
                except Exception:
                    failures[thread_index] += 1
                completed.release()
            index += chunk

    threads = [
        threading.Thread(target=client, args=(index,), name=f"loadgen-{index}")
        for index in range(concurrency)
    ]
    for thread in threads:
        thread.start()
    barrier.wait()
    start = time.perf_counter()
    if on_progress is not None:
        done = 0
        while done < total:
            completed.acquire()
            done += 1
            on_progress(done)
    for thread in threads:
        thread.join()
    seconds = time.perf_counter() - start
    merged = np.asarray([value for bucket in per_thread for value in bucket])
    return _LoadResult(seconds, merged, sum(failures))


def _sustained_phase(
    estimator: HTEEstimator,
    rows: np.ndarray,
    concurrency: int,
    requests_per_thread: int,
    num_workers: int,
    max_wait_ms: float,
    arrival: str,
    burst: int,
) -> Dict[str, object]:
    """Per-request dispatch vs coalesced serving at one concurrency."""
    results: Dict[str, object] = {}
    for label, coalesce in (("direct", False), ("coalesced", True)):
        frontend = ServingFrontend(
            num_workers=num_workers,
            max_wait_ms=max_wait_ms,
            coalesce=coalesce,
            cache_size=0,  # measure forwards, not cache hits
        )
        frontend.deploy("bench", estimator)
        try:
            load = _drive_load(
                frontend, "bench", rows, concurrency, requests_per_thread, arrival, burst
            )
        finally:
            frontend.stop()
        summary = load.summary()
        if coalesce:
            frontend_summary = frontend.stats.summary()
            summary["mean_batch_rows"] = frontend_summary["mean_batch_rows"]
            summary["batch_size_histogram"] = frontend_summary["batch_size_histogram"]
        results[label] = summary
    results["coalescing_speedup"] = (
        results["coalesced"]["throughput_rps"] / results["direct"]["throughput_rps"]
        if results["direct"]["throughput_rps"]
        else 0.0
    )
    results["concurrency"] = concurrency
    results["requests_per_thread"] = requests_per_thread
    results["arrival"] = arrival
    return results


def _saturation_phase(
    estimator: HTEEstimator,
    rows: np.ndarray,
    concurrencies: Sequence[int],
    requests_per_thread: int,
    num_workers: int,
    max_wait_ms: float,
) -> Dict[str, object]:
    sweep = []
    for concurrency in concurrencies:
        frontend = ServingFrontend(
            num_workers=num_workers, max_wait_ms=max_wait_ms, cache_size=0
        )
        frontend.deploy("bench", estimator)
        try:
            load = _drive_load(frontend, "bench", rows, concurrency, requests_per_thread)
        finally:
            frontend.stop()
        summary = load.summary()
        summary["concurrency"] = concurrency
        summary["mean_batch_rows"] = frontend.stats.summary()["mean_batch_rows"]
        sweep.append(summary)
    return {
        "by_concurrency": sweep,
        "saturation_throughput_rps": max(entry["throughput_rps"] for entry in sweep),
    }


def _hot_swap_phase(
    artifact_v1: str,
    artifact_v2: str,
    rows: np.ndarray,
    concurrency: int,
    requests_per_thread: int,
    num_workers: int,
    max_wait_ms: float,
) -> Dict[str, object]:
    """Deploy v2 then roll back to v1, both under sustained coalesced load."""
    frontend = ServingFrontend(
        num_workers=num_workers, max_wait_ms=max_wait_ms, cache_size=0
    )
    version1 = frontend.deploy("bench", artifact_v1)
    total = concurrency * requests_per_thread
    swap_at, rollback_at = total // 3, (2 * total) // 3
    swap_state: Dict[str, object] = {}

    def on_progress(done: int) -> None:
        # Runs on the coordinator thread, so deploy/rollback never block a
        # client; both happen while all clients are mid-flight.
        if done == swap_at:
            started = time.perf_counter()
            version2 = frontend.deploy("bench", artifact_v2)
            drained = version1.wait_drained(timeout=60.0)
            swap_state["deploy_window_seconds"] = time.perf_counter() - started
            swap_state["old_version_drained"] = drained
            swap_state["version2"] = version2
        elif done == rollback_at:
            started = time.perf_counter()
            frontend.rollback("bench")
            drained = swap_state["version2"].wait_drained(timeout=60.0)
            swap_state["rollback_window_seconds"] = time.perf_counter() - started
            swap_state["new_version_drained"] = drained

    try:
        load = _drive_load(
            frontend,
            "bench",
            rows,
            concurrency,
            requests_per_thread,
            on_progress=on_progress,
        )
        report = frontend.stats.summary()
        versions = frontend.registry.model_report("bench")
    finally:
        frontend.stop()
    summary = load.summary()
    summary.update(
        {
            "deploys": report["deploys"],
            "rollbacks": report["rollbacks"],
            "frontend_failed_requests": report["failed_requests"],
            "deploy_window_seconds": swap_state.get("deploy_window_seconds"),
            "rollback_window_seconds": swap_state.get("rollback_window_seconds"),
            "old_version_drained": swap_state.get("old_version_drained"),
            "new_version_drained": swap_state.get("new_version_drained"),
            "versions": [
                {key: value for key, value in entry.items() if key != "stats"}
                for entry in versions
            ],
        }
    )
    return summary


def _correctness_check(estimator: HTEEstimator, rows: np.ndarray) -> bool:
    """Coalesced frontend answers == direct estimator predictions."""
    frontend = ServingFrontend(num_workers=2, max_wait_ms=1.0, cache_size=0)
    frontend.deploy("bench", estimator)
    try:
        block = rows[:64]
        futures = [frontend.submit(row.reshape(1, -1), model="bench") for row in block]
        served = np.concatenate([future.result(timeout=60.0)["ite"] for future in futures])
    finally:
        frontend.stop()
    expected = estimator.predict_potential_outcomes(block)["ite"]
    return bool(np.allclose(served, expected))


def benchmark_serving(
    smoke: bool = False,
    *,
    num_samples: Optional[int] = None,
    concurrency: Optional[int] = None,
    requests_per_thread: Optional[int] = None,
    sweep_concurrencies: Optional[Sequence[int]] = None,
    sweep_requests_per_thread: Optional[int] = None,
    swap_requests_per_thread: Optional[int] = None,
    num_workers: Optional[int] = None,
    max_wait_ms: float = DEFAULT_MAX_WAIT_MS,
    arrival: str = "closed",
    burst: int = 4,
    seed: int = 2024,
) -> Dict[str, object]:
    """Run every serving-benchmark phase and return one JSON-friendly dict.

    ``smoke=True`` shrinks the *default* of every unset knob so the whole
    run takes seconds (the CI mode); explicitly passed arguments always win
    over the smoke defaults.  The committed ``BENCH_serving.json`` comes
    from a full run with the defaults.
    """
    if arrival not in ("closed", "burst"):
        raise ValueError(f"arrival must be 'closed' or 'burst', got {arrival!r}")
    defaults = SMOKE_DEFAULTS if smoke else FULL_DEFAULTS
    num_samples = num_samples if num_samples is not None else defaults[0]
    train_iterations = defaults[1]
    concurrency = concurrency if concurrency is not None else defaults[2]
    requests_per_thread = (
        requests_per_thread if requests_per_thread is not None else defaults[3]
    )
    sweep_concurrencies = (
        tuple(sweep_concurrencies) if sweep_concurrencies is not None else defaults[4]
    )
    sweep_requests_per_thread = (
        sweep_requests_per_thread if sweep_requests_per_thread is not None else defaults[5]
    )
    swap_requests_per_thread = (
        swap_requests_per_thread if swap_requests_per_thread is not None else defaults[6]
    )
    num_workers = num_workers if num_workers is not None else defaults[7]

    estimator_v1 = _train_model(num_samples, train_iterations, seed)
    estimator_v2 = _train_model(num_samples, train_iterations, seed + 1)
    rng = np.random.default_rng(seed)
    rows = rng.normal(size=(4096, estimator_v1.num_features))

    sustained = _sustained_phase(
        estimator_v1,
        rows,
        concurrency,
        requests_per_thread,
        num_workers,
        max_wait_ms,
        arrival,
        burst,
    )
    saturation = _saturation_phase(
        estimator_v1,
        rows,
        sweep_concurrencies,
        sweep_requests_per_thread,
        num_workers,
        max_wait_ms,
    )
    with tempfile.TemporaryDirectory(prefix="repro-serve-bench-") as artifacts:
        artifact_v1 = estimator_v1.save(os.path.join(artifacts, "v1"))
        artifact_v2 = estimator_v2.save(os.path.join(artifacts, "v2"))
        hot_swap = _hot_swap_phase(
            artifact_v1,
            artifact_v2,
            rows,
            concurrency,
            swap_requests_per_thread,
            num_workers,
            max_wait_ms,
        )

    result: Dict[str, object] = {
        "benchmark": "serving-frontend",
        "mode": "smoke" if smoke else "full",
        "machine": machine_block(),
        "model": {
            "backbone": "cfr",
            "framework": "vanilla",
            "num_samples": num_samples,
            "num_features": estimator_v1.num_features,
            "dtype": str(estimator_v1.fitted_dtype),
            "seed": seed,
        },
        "frontend": {
            "num_workers": num_workers,
            "max_wait_ms": max_wait_ms,
            "cache_size": 0,
        },
        "coalesced_matches_direct": _correctness_check(estimator_v1, rows),
        "sustained": sustained,
        "saturation": saturation,
        "hot_swap": hot_swap,
    }
    if not smoke:
        # Smoke-sized timings measured on the same machine as the full run:
        # the CI perf gate compares its own --smoke numbers against these.
        smoke_sustained = _sustained_phase(
            estimator_v1,
            rows,
            SMOKE_DEFAULTS[2],
            SMOKE_DEFAULTS[3],
            SMOKE_DEFAULTS[7],
            max_wait_ms,
            "closed",
            burst,
        )
        result["smoke_reference"] = {
            "direct_seconds_per_1k_requests": smoke_sustained["direct"][
                "seconds_per_1k_requests"
            ],
            "coalesced_seconds_per_1k_requests": smoke_sustained["coalesced"][
                "seconds_per_1k_requests"
            ],
        }
    return result


#: ``(label, extractor, smoke_reference_key)`` triples the perf gate reads.
PERF_GATES = tuple(
    (
        f"{phase} seconds/1k requests",
        lambda record, phase=phase: record["sustained"][phase]["seconds_per_1k_requests"],
        f"{phase}_seconds_per_1k_requests",
    )
    for phase in ("direct", "coalesced")
)


def check_serving_benchmark(result: Dict[str, object], baseline_path: Optional[str] = None) -> int:
    """This benchmark's pass/fail rules: the correctness checks in every mode,
    and with ``baseline_path`` the smoke perf gate.  Prints each failure and
    returns how many failed."""
    failures = 0
    if not result["coalesced_matches_direct"]:
        print("FAIL: coalesced frontend answers diverge from direct predictions")
        failures += 1
    swap = result["hot_swap"]
    total_failed = swap["failed_requests"] + swap["frontend_failed_requests"]
    if total_failed:
        print(f"FAIL: {total_failed} request(s) failed during the hot-swap phase")
        failures += 1
    if not (swap["old_version_drained"] and swap["new_version_drained"]):
        print("FAIL: a superseded version did not drain its in-flight batches")
        failures += 1
    if baseline_path is not None:
        failures += check_perf_regression(result, baseline_path, PERF_GATES)
    return failures


def format_serving_benchmark(result: Dict[str, object]) -> str:
    """Human-readable tables for the CLI / script output."""
    sustained = result["sustained"]
    rows = []
    for label in ("direct", "coalesced"):
        entry = sustained[label]
        rows.append(
            [
                label,
                entry["throughput_rps"],
                entry["latency_p50_ms"],
                entry["latency_p95_ms"],
                entry["latency_p99_ms"],
                entry.get("mean_batch_rows", 1.0),
            ]
        )
    text = format_table(
        ["dispatch", "req/s", "p50 ms", "p95 ms", "p99 ms", "batch rows"],
        rows,
        title=(
            f"Sustained load: concurrency {sustained['concurrency']}, "
            f"{sustained['arrival']} loop "
            f"(coalescing speedup {sustained['coalescing_speedup']:.2f}x)"
        ),
    )
    sweep_rows = [
        [entry["concurrency"], entry["throughput_rps"], entry["latency_p95_ms"],
         entry["mean_batch_rows"]]
        for entry in result["saturation"]["by_concurrency"]
    ]
    text += "\n" + format_table(
        ["concurrency", "req/s", "p95 ms", "batch rows"],
        sweep_rows,
        title=(
            "Saturation sweep (best: "
            f"{result['saturation']['saturation_throughput_rps']:.0f} req/s)"
        ),
    )
    swap = result["hot_swap"]
    text += "\n" + format_table(
        ["metric", "value"],
        [
            ["requests", swap["requests"]],
            ["failed requests", swap["failed_requests"]],
            ["deploys / rollbacks", f"{swap['deploys']} / {swap['rollbacks']}"],
            ["deploy window (s)", swap["deploy_window_seconds"]],
            ["rollback window (s)", swap["rollback_window_seconds"]],
            ["old version drained", swap["old_version_drained"]],
        ],
        title="Hot swap under load",
    )
    return text
