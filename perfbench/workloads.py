"""Run one benchmark workload in this process and print its result as JSON.

``run.py`` starts this module in a fresh process per measurement, with BLAS
pinned to one thread through the environment, so one workload never warms
caches for the next.  Usage::

    python -m perfbench.workloads --workload grid --seed 3 --seconds 15 --trace 0

The last line of standard output is one JSON object: end-to-end metric
values, attempted and failed operation counts, correctness checks, a
fingerprint of the outputs that must be identical between a traced and an
untraced run, and (with ``--trace 1``) the per-layer figures.

Each workload fixes its population, so PEHE is a deterministic quality
guard; ``--seed`` draws the traffic over it: the training-row order
(fit-*), the scenario and severity order of the grid (grid), and the rows
and arrival phase of the background requests (serve-drift).
"""

from __future__ import annotations

import argparse
import concurrent.futures
import contextlib
import gc
import json
import math
import os
import statistics
import sys
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.core import sbrl
from repro.core.config import BackboneConfig, RegularizerConfig, SBRLConfig, TrainingConfig
from repro.core.estimator import HTEEstimator
from repro.core.regularizers.hierarchical import HierarchicalAttentionLoss
from repro.data import batching
from repro.data.synthetic import PAPER_BIAS_RATES, SyntheticConfig, SyntheticGenerator
from repro.experiments import scenario_suite
from repro.experiments.runner import spawn_replication_seeds
from repro.experiments.scenario_suite import ScenarioSuiteConfig, count_error_cells
from repro.nn import optim, tape
from repro.nn.tensor import tensor_alloc_count
from repro.scenarios import build_scenario
from repro.serve import online, registry, server
from repro.serve.online import DriftMonitor, DriftSchedule, OnlineServingLoop
from repro.serve.server import ServingFrontend

from perfbench.catalogue import WORKLOADS
from perfbench.measure import peak_rss_mb, percentile, stability, steal_ticks, union_seconds
from perfbench.tracing import Tracer, self_times

#: Set-ups per run; setup_s is their median.  The grid's set-up takes
#: milliseconds, so it is repeated more for a steady median.
SETUPS = {"fit-fullbatch": 3, "fit-minibatch": 3, "grid": 15, "serve-drift": 3}
POPULATION_SEED = 2024

FIT_SAMPLES = 4000
VALIDATION_SAMPLES = 1000
FULLBATCH_ITERATIONS = 12
MINIBATCH_ITERATIONS = 64  # four epochs of 16 stratified 256-row batches
MINIBATCH_SIZE = 256
#: Nominal seconds of one pass on a 2-CPU x86 host; a run makes
#: round(seconds / nominal) passes (at least one), a count that does not
#: depend on how fast the host happens to be.
NOMINAL_PASS_S = {"fit-fullbatch": 14.0, "fit-minibatch": 2.3, "grid": 13.0}

GRID_SCENARIOS = ("overlap", "hidden-confounding")
GRID_SEVERITIES = (0.0, 0.5, 1.0)
GRID_SAMPLES = 300
GRID_JOBS = 2

STREAM_SAMPLES = 600
STREAM_STEPS = 96
STREAM_CYCLE = 16
STREAM_ROWS = 128
#: Share of the run the stream's schedule spans; inline refits stretch it.
STREAM_SPAN = 0.6
#: Background 1-row requests per second: far below saturation, yet enough
#: that the 99th percentile rests on tens of samples.
REQUEST_RATE = 600.0
INITIAL_ITERATIONS = 50
REFIT_EPOCHS = 20
REFIT_COOLDOWN = 6
CHECK_ROWS = 64
#: The fixed stream makes the loop refit and roll back the same number of
#: times on every run; a different count means its decisions changed.
EXPECTED_REFITS = 13
EXPECTED_ROLLBACKS = 0


# --------------------------------------------------------------------------- #
# Shared pieces
# --------------------------------------------------------------------------- #
def _timed(function: Callable[[], object]):
    """``(seconds, result)`` of one call, after a full garbage collection."""
    gc.collect()
    start = time.perf_counter()
    result = function()
    return time.perf_counter() - start, result


def _setups(workload: str, function: Callable[[], object], tracer: Optional[Tracer]):
    """Run the set-up ``SETUPS`` times: ``(median seconds, last result, layers)``."""
    repeats = SETUPS[workload]
    start_ns = time.perf_counter_ns()
    seconds = []
    for _ in range(repeats):
        elapsed, result = _timed(function)
        seconds.append(elapsed)
    layers = {}
    if tracer is not None:
        spans = _window(tracer.spans, start_ns, time.perf_counter_ns())
        generate, calls = self_times(spans).get("data.generate", (0.0, 0))
        layers = {"data.generate_s": generate / repeats, "data.generate_calls": calls / repeats}
    return statistics.median(seconds), result, layers


def _passes(workload: str, seconds: int) -> int:
    return max(1, round(seconds / NOMINAL_PASS_S[workload]))


def _latency(values_s: Sequence[float]) -> Dict[str, object]:
    """Median, 95th and 99th percentile in ms, each with its sample count."""
    ms = [value * 1e3 for value in values_s]
    return {f"latency_p{q}_ms": dict(percentile(ms, q), unit="ms") for q in (50, 95, 99)}


def _window(spans, start_ns: int, end_ns: int):
    return [span for span in spans if start_ns <= span.start_ns and span.end_ns <= end_ns]


def _median_ms(spans, name: str) -> float:
    durations = [span.seconds * 1e3 for span in spans if span.name == name]
    return statistics.median(durations) if durations else 0.0


def _result(attempted: int, failed: int) -> Dict[str, object]:
    return {"attempted": attempted, "failed": failed, "checks": {}, "metrics": {}, "info": {}}


#: Spans around the trainer phases and the kernels beneath them; each gives
#: the per-layer metrics ``<name>_s`` and ``<name>_calls``.
_TRAINER_SPANS = (
    "core.sbrl.network_step",
    "core.sbrl.weight_step",
    "core.regularizers.weight_objective",
    "core.sbrl.eval",
    "nn.tape.replay",
    "nn.optim.step",
    "data.batching.batch",
)


def _wrap_trainer(tracer: Tracer) -> None:
    tracer.wrap(sbrl.SBRLTrainer, "_network_step", "core.sbrl.network_step")
    tracer.wrap(sbrl.SBRLTrainer, "_update_weights", "core.sbrl.weight_step")
    tracer.wrap(sbrl.SBRLTrainer, "_evaluation_loss", "core.sbrl.eval")
    tracer.wrap(HierarchicalAttentionLoss, "__call__", "core.regularizers.weight_objective")
    tracer.wrap(tape.ReplayProgram, "run", "nn.tape.replay")
    tracer.wrap(optim.Optimizer, "step", "nn.optim.step")
    tracer.wrap(batching.StratifiedBatchSampler, "epoch", "data.batching.batch")
    tracer.wrap(batching.DataLoader, "_materialize", "data.batching.batch")


def _trainer_layers(totals, passes: int) -> Dict[str, float]:
    layers: Dict[str, float] = {}
    for name in _TRAINER_SPANS:
        seconds, calls = totals.get(name, (0.0, 0))
        layers[f"{name}_s"] = seconds / passes
        layers[f"{name}_calls"] = calls / passes
    return layers


# --------------------------------------------------------------------------- #
# fit-fullbatch / fit-minibatch
# --------------------------------------------------------------------------- #
def _fit_config(minibatch: bool) -> SBRLConfig:
    """CFR+SBRL-HAP with exact RBF-MMD balancing (anchored in minibatches)."""
    return SBRLConfig(
        backbone=BackboneConfig(rep_layers=3, rep_units=48, head_layers=3, head_units=24),
        regularizers=RegularizerConfig(
            alpha=1e-3,
            gamma1=1.0,
            gamma2=1e-3,
            gamma3=1e-3,
            ipm_kind="mmd_rbf",
            max_pairs_per_layer=24,
            subsample_threshold=4 * MINIBATCH_SIZE if minibatch else None,
            num_anchors=256,
        ),
        training=TrainingConfig(
            iterations=MINIBATCH_ITERATIONS if minibatch else FULLBATCH_ITERATIONS,
            learning_rate=1e-3,
            weight_update_every=5,
            weight_steps_per_iteration=2,
            weight_learning_rate=5e-2,
            weight_clip=(1e-3, 3.0),
            evaluation_interval=8 if minibatch else 5,
            early_stopping_patience=None,
            seed=POPULATION_SEED,
            batch_size=MINIBATCH_SIZE if minibatch else None,
        ),
    )


def run_fit(workload: str, seed: int, seconds: int, tracer: Optional[Tracer]) -> Dict[str, object]:
    minibatch = workload == "fit-minibatch"
    config = _fit_config(minibatch)
    if tracer is not None:
        _wrap_trainer(tracer)
        tracer.wrap(SyntheticGenerator, "generate", "data.generate")

    def setup():
        generator = SyntheticGenerator(SyntheticConfig(seed=POPULATION_SEED))
        protocol = generator.generate_train_test_protocol(FIT_SAMPLES, seed=POPULATION_SEED)
        validation = generator.generate(VALIDATION_SAMPLES, 2.5, seed=POPULATION_SEED + 7)
        order = np.random.default_rng(seed).permutation(FIT_SAMPLES)
        train = protocol["train"].subset(order)
        tests = [protocol["test_environments"][rho] for rho in PAPER_BIAS_RATES]
        return train, validation, tests

    setup_s, (train, validation, tests), setup_layers = _setups(workload, setup, tracer)

    fits, walls, fingerprints = [], [], []
    hits = misses = allocs = iterations = attempted = failed = 0
    pass_start = time.perf_counter_ns()
    for _ in range(_passes(workload, seconds)):
        attempted += 1
        estimator = HTEEstimator(backbone="cfr", framework="sbrl-hap", config=config, seed=POPULATION_SEED)
        gc.collect()
        allocs_before = tensor_alloc_count()
        start = time.perf_counter()
        try:
            with tracer.span("fit") if tracer is not None else contextlib.nullcontext():
                estimator.fit(train, validation)
            fit_seconds = time.perf_counter() - start
            allocs += tensor_alloc_count() - allocs_before
            pehe = [float(estimator.evaluate(env)["pehe"]) for env in tests]
        except Exception as exc:  # noqa: BLE001 - a failed fit is counted, not fatal
            print(f"fit failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            failed += 1
            continue
        walls.append(time.perf_counter() - start)
        if not all(math.isfinite(value) for value in pehe):
            failed += 1
            continue
        fits.append(fit_seconds)
        fingerprints.append(pehe)
        iterations += config.training.iterations
        replay = estimator.trainer._replay
        stats = replay.stats if replay is not None else {}
        hits += stats.get("hits", 0)
        misses += stats.get("misses", 0)
    pass_end = time.perf_counter_ns()

    result = _result(attempted, failed)
    result["checks"]["every fit finished with finite PEHE"] = failed == 0 and bool(fits)
    if not fits:
        return result
    result["checks"]["repeated fits give bit-identical PEHE"] = all(
        pehe == fingerprints[0] for pehe in fingerprints
    )
    pehe = fingerprints[0]
    result["metrics"] = {
        "setup_s": setup_s,
        "wall_s": statistics.median(walls),
        "pehe_mean": statistics.fmean(pehe),
        "pehe_stability": stability(pehe),
        "peak_rss_mb": peak_rss_mb(),
    }
    result["printed"] = {"fit_s": {"value": statistics.median(fits), "unit": "s"}}
    result["info"]["passes"] = len(fits)
    result["fingerprint"] = pehe
    if tracer is not None:
        passes = len(fits)
        totals = self_times(_window(tracer.spans, pass_start, pass_end))
        layers = _trainer_layers(totals, passes)
        layers["core.loop.other_s"] = totals.get("fit", (0.0, 0))[0] / passes
        layers["nn.tape.replay_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        layers["nn.tensor.allocs_per_iter"] = allocs / iterations
        layers.update(setup_layers)
        result["layers"] = layers
    return result


# --------------------------------------------------------------------------- #
# grid
# --------------------------------------------------------------------------- #
def _cell_rows(record) -> List[tuple]:
    """The cells' identities and quality metrics, in a canonical order."""
    return sorted(
        (cell["scenario"], cell["severity"], cell["method"], cell["pehe_mean"], cell["pehe_stability"])
        for scenario in record["scenarios"].values()
        for cell in scenario["cells"]
    )


def run_grid(workload: str, seed: int, seconds: int, tracer: Optional[Tracer]) -> Dict[str, object]:
    rng = np.random.default_rng(seed)
    scenario_names = [GRID_SCENARIOS[i] for i in rng.permutation(len(GRID_SCENARIOS))]
    severities = [GRID_SEVERITIES[i] for i in rng.permutation(len(GRID_SEVERITIES))]
    if tracer is not None:
        tracer.wrap(SyntheticGenerator, "generate", "data.generate")

    def setup():
        config = ScenarioSuiteConfig(
            scenario_names=scenario_names,
            severities=severities,
            num_samples=GRID_SAMPLES,
            n_jobs=GRID_JOBS,
            seed=POPULATION_SEED,
            scale="default",
        )
        config.resolved_methods(config.seed)
        # The cells the workers will build, materialised once to check them.
        cell_seed = spawn_replication_seeds(config.seed, 1)[0] % (2 ** 31)
        for name in scenario_names:
            scenario = build_scenario(name, dims=config.dims)
            for severity in severities:
                train = scenario.build(GRID_SAMPLES, severity, seed=cell_seed).train
                if not 0 < train.treatment.sum() < len(train):
                    raise ValueError(f"{name}@{severity}: a treatment arm is empty")
        return config

    setup_s, config, setup_layers = _setups(workload, setup, tracer)
    if tracer is not None:
        # Workers fork from this process: only wrap what the parent runs.
        tracer.unwrap_all()
        tracer.wrap(scenario_suite, "run_cross_cell", "experiments.scheduler.execute")

    walls, records = [], []
    for _ in range(_passes(workload, seconds)):
        wall, record = _timed(lambda: scenario_suite.run_scenario_suite(config))
        walls.append(wall)
        records.append(record)

    cells = [cell for record in records for s in record["scenarios"].values() for cell in s["cells"]]
    errors = sum(count_error_cells(record)[0] for record in records)
    result = _result(len(cells), errors)
    healthy = [cell for cell in cells if cell["error"] is None]
    result["checks"]["zero error cells"] = errors == 0
    result["checks"]["every cell has finite PEHE"] = bool(healthy) and all(
        math.isfinite(cell["pehe_mean"]) for cell in healthy
    )
    if not result["checks"]["every cell has finite PEHE"]:
        return result
    rows = _cell_rows(records[0])
    result["checks"]["repeated passes give bit-identical cells"] = all(
        _cell_rows(record) == rows for record in records
    )
    stages = [record["stages"] for record in records]
    unit_fit = sum(stage["fit_seconds"] for stage in stages)
    result["metrics"] = {
        "setup_s": setup_s,
        "wall_s": statistics.median(walls),
        "pehe_mean": statistics.fmean(row[3] for row in rows),
        "pehe_stability": statistics.fmean(row[4] for row in rows),
        "peak_rss_mb": peak_rss_mb(include_children=True),
    }
    result["printed"] = {"fit_s": {"value": unit_fit / len(cells), "unit": "s"}}
    result["info"].update(passes=len(records), units=len(rows))
    result["fingerprint"] = rows
    if tracer is not None:
        passes = len(records)
        execute = sum(span.seconds for span in tracer.by_name("experiments.scheduler.execute"))
        materialise = sum(stage["materialise_seconds"] for stage in stages)
        evaluate = sum(stage["evaluate_seconds"] for stage in stages)
        result["layers"] = {
            "scenarios.materialise_s": materialise / passes,
            "experiments.runner.unit_fit_s": unit_fit / passes,
            "experiments.runner.unit_eval_s": evaluate / passes,
            "experiments.scheduler.execute_s": execute / passes,
            "experiments.scheduler.units": len(rows),
            "experiments.scheduler.pool_efficiency": (
                (materialise + unit_fit + evaluate) / (GRID_JOBS * execute)
            ),
            "experiments.suite.other_s": (sum(walls) - execute) / passes,
            **setup_layers,
        }
    return result


# --------------------------------------------------------------------------- #
# serve-drift
# --------------------------------------------------------------------------- #
def _online_config() -> SBRLConfig:
    return SBRLConfig(
        backbone=BackboneConfig(rep_layers=2, rep_units=24, head_layers=2, head_units=12),
        training=TrainingConfig(
            iterations=INITIAL_ITERATIONS,
            learning_rate=1e-2,
            evaluation_interval=max(10, INITIAL_ITERATIONS // 3),
            early_stopping_patience=None,
            seed=POPULATION_SEED,
        ),
    )


class _LoadGenerator(threading.Thread):
    """Open-loop sender of 1-row requests at a fixed rate.

    Request ``i`` is due at ``origin + i / rate`` whether or not earlier
    ones have finished, until ``end`` (when the stream's schedule ends); its
    latency runs from that due time to the moment its result is set, so a
    stall that delays sending is counted.
    """

    def __init__(
        self, frontend, model: str, rows: np.ndarray, start: float, end: float, seed: int
    ) -> None:
        super().__init__(name="perfbench-loadgen", daemon=True)
        self.frontend = frontend
        self.model = model
        self.rows = rows
        self.rng = np.random.default_rng(seed)
        self.origin = start + float(self.rng.uniform(0.0, 1.0 / REQUEST_RATE))
        self.end = end
        self.stop_event = threading.Event()
        self.futures: List[concurrent.futures.Future] = []
        self.latencies: List[float] = []
        self.late: List[float] = []

    def run(self) -> None:
        index = 0
        while not self.stop_event.is_set():
            due = self.origin + index / REQUEST_RATE
            if due >= self.end:
                break
            wait = due - time.perf_counter()
            if wait > 0 and self.stop_event.wait(wait):
                break
            self.late.append(time.perf_counter() - due)
            row = int(self.rng.integers(len(self.rows)))
            future = self.frontend.submit(self.rows[row : row + 1], model=self.model)
            future.add_done_callback(
                lambda _, due=due: self.latencies.append(time.perf_counter() - due)
            )
            self.futures.append(future)
            index += 1


class _PacedStream:
    """Hands stream batches to the loop on a fixed step period.

    Batch ``k`` is due at ``start + k * period``.  The loop picks it up when
    it asks for the next batch; the time it waited past its due time is a
    stall.
    """

    def __init__(self, batches, start: float, period: float) -> None:
        self.batches = list(batches)
        self.start = start
        self.period = period
        self.waits: List[tuple] = []

    def __iter__(self):
        for step, batch in enumerate(self.batches):
            due = self.start + step * self.period
            now = time.perf_counter()
            if now < due:
                time.sleep(due - now)
            self.waits.append((due, max(now, due)))
            yield batch


def _wrap_serving(tracer: Tracer) -> None:
    def count_cache(result) -> None:
        tracer.count("row_cache_hits", result[1])
        tracer.count("row_cache_misses", result[2])

    tracer.wrap(server.ServingFrontend, "submit", "serve.server.submit")
    tracer.wrap(registry.ModelVersion, "predict_rows", "serve.registry.predict_rows", count_cache)
    tracer.wrap(registry.ModelRegistry, "deploy", "serve.registry.deploy")
    tracer.wrap(registry.ModelRegistry, "rollback", "serve.registry.deploy")
    tracer.wrap(HTEEstimator, "refit", "core.estimator.refit")
    tracer.wrap(DriftMonitor, "check", "diagnostics.ood.monitor_check")
    tracer.wrap(online, "drift_stream", "data.generate")
    tracer.wrap(SyntheticGenerator, "generate", "data.generate")


def _serve_pass(stream, frontend, loop, seed: int, seconds: int) -> Dict[str, object]:
    """Replay the stream beside the background load once; stops the frontend."""
    traffic = np.concatenate([batch.dataset.covariates for batch in stream])
    gc.collect()
    start = time.perf_counter() + 0.05
    paced = _PacedStream(stream, start, STREAM_SPAN * seconds / STREAM_STEPS)
    end = start + STREAM_STEPS * paced.period
    generator = _LoadGenerator(frontend, loop.model, traffic, start, end, seed)
    start_ns = time.perf_counter_ns()
    generator.start()
    try:
        report = loop.run(paced)
        wall = time.perf_counter() - start
    finally:
        generator.stop_event.set()
        generator.join()
    done, pending = concurrent.futures.wait(generator.futures, timeout=30)
    end_ns = time.perf_counter_ns()
    sent = len(generator.futures)
    background_failed = len(pending) + sum(1 for f in done if f.exception() is not None)

    check_rows = stream.train.covariates[
        np.random.default_rng(seed).choice(len(stream.train), size=CHECK_ROWS, replace=False)
    ]
    try:
        served = frontend.predict(check_rows, model=loop.model, timeout=30)
    finally:
        frontend.stop()
    expected = loop.estimator.predict_potential_outcomes(check_rows)
    return {
        "report": report,
        "waits": paced.waits,
        "wall": wall,
        "period": paced.period,
        "latencies": generator.latencies,
        "late": generator.late,
        "background_requests": sent,
        "background_failed": background_failed,
        "summary": frontend.stats.summary(),
        "matches": all(np.array_equal(served[key], expected[key]) for key in ("mu0", "mu1")),
        "window": (start_ns, end_ns),
    }


def run_serve(workload: str, seed: int, seconds: int, tracer: Optional[Tracer]) -> Dict[str, object]:
    if tracer is not None:
        _wrap_trainer(tracer)
        _wrap_serving(tracer)
    built = []

    def setup():
        stream = online.drift_stream(
            DriftSchedule(kind="recurring", num_steps=STREAM_STEPS, period=STREAM_CYCLE),
            num_samples=STREAM_SAMPLES,
            batch_rows=STREAM_ROWS,
            seed=POPULATION_SEED,
        )
        estimator = HTEEstimator(
            backbone="tarnet", framework="sbrl-hap", config=_online_config(), seed=POPULATION_SEED
        ).fit(stream.train)
        monitor = DriftMonitor(
            stream.train, window_size=256, min_window=64, auc_threshold=0.70, seed=POPULATION_SEED
        )
        frontend = ServingFrontend(num_workers=2, max_wait_ms=1.0)
        loop = OnlineServingLoop(
            frontend,
            estimator,
            monitor,
            model="hte",
            refit_epochs=REFIT_EPOCHS,
            refit_window_batches=2,
            cooldown_steps=REFIT_COOLDOWN,
            request_rows=32,
        )
        built.append((stream, frontend, loop))

    setup_s, _, setup_layers = _setups(workload, setup, tracer)
    for _, spare, _ in built[:-1]:
        spare.stop()
    system = built.pop()
    built.clear()
    record = _serve_pass(*system, seed, seconds)
    del system
    report = record["report"]
    lost = report.failed_requests + record["background_failed"]
    result = _result(
        sum(step.requests for step in report.steps) + record["background_requests"], lost
    )
    result["checks"].update({
        "no request failed": lost == 0 and record["summary"]["failed_requests"] == 0,
        "served answers equal predict_potential_outcomes after the last swap": record["matches"],
        f"refits == {EXPECTED_REFITS} and rollbacks == {EXPECTED_ROLLBACKS}": (
            (report.refits, report.rollbacks) == (EXPECTED_REFITS, EXPECTED_ROLLBACKS)
        ),
    })
    if not report.refit_seconds:
        return result
    pehe = report.pehe_by_step()
    latency = _latency(record["latencies"])
    stall = union_seconds(record["waits"])
    result["metrics"] = {
        "setup_s": setup_s,
        "wall_s": record["wall"],
        "pehe_mean": statistics.fmean(pehe),
        "pehe_stability": stability(pehe),
        "peak_rss_mb": peak_rss_mb(),
    }
    result["printed"] = {
        "fit_s": {"value": statistics.median(report.refit_seconds), "unit": "s"},
        **latency,
        "stall_s": {"value": stall, "unit": "s"},
    }
    result["info"].update(
        refits=report.refits,
        rollbacks=report.rollbacks,
        stream_requests=sum(step.requests for step in report.steps),
        background_requests=record["background_requests"],
        request_rate_per_s=REQUEST_RATE,
        step_period_s=record["period"],
    )
    # Fused batches mix stream and background rows as timing dictates, and
    # BLAS may round a row differently in a different batch shape, so the
    # served PEHE is compared to 9 significant digits, not bit for bit.
    result["fingerprint"] = [report.refits, report.rollbacks, f"{statistics.fmean(pehe):.9g}"]
    if tracer is not None:
        spans = _window(tracer.spans, *record["window"])
        totals = self_times(spans)
        submit_us = _median_ms(spans, "serve.server.submit") * 1e3
        predict_ms = _median_ms(spans, "serve.registry.predict_rows")
        hits = tracer.counts.get("row_cache_hits", 0)
        lookups = hits + tracer.counts.get("row_cache_misses", 0)
        layers = _trainer_layers(totals, 1)
        layers.update({
            "serve.server.submit_us": submit_us,
            "serve.server.submit_calls": totals.get("serve.server.submit", (0, 0))[1],
            "serve.registry.predict_rows_ms": predict_ms,
            "serve.registry.predict_rows_calls": totals.get("serve.registry.predict_rows", (0, 0))[1],
            "serve.registry.row_cache_hit_ratio": hits / lookups if lookups else 0.0,
            "serve.server.batch_rows_mean": record["summary"]["mean_batch_rows"],
            "serve.server.wait_ms": (
                latency["latency_p50_ms"]["value"] - submit_us / 1e3 - predict_ms
            ),
            "core.estimator.refit_s": _median_ms(spans, "core.estimator.refit") / 1e3,
            "core.estimator.refit_calls": totals.get("core.estimator.refit", (0, 0))[1],
            "serve.registry.deploy_ms": _median_ms(spans, "serve.registry.deploy"),
            "serve.registry.deploy_calls": totals.get("serve.registry.deploy", (0, 0))[1],
            "diagnostics.ood.monitor_check_ms": _median_ms(spans, "diagnostics.ood.monitor_check"),
            "diagnostics.ood.monitor_check_calls": totals.get(
                "diagnostics.ood.monitor_check", (0, 0)
            )[1],
            "serve.online.stall_s": stall,
            "serve.online.refits": report.refits,
            "serve.online.rollbacks": report.rollbacks,
            "loadgen.late_ms": percentile([value * 1e3 for value in record["late"]], 99)["value"],
            **setup_layers,
        })
        result["layers"] = layers
    return result


# --------------------------------------------------------------------------- #
# Entry point
# --------------------------------------------------------------------------- #
RUNNERS = {
    "fit-fullbatch": run_fit,
    "fit-minibatch": run_fit,
    "grid": run_grid,
    "serve-drift": run_serve,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-file", default=None)
    args = parser.parse_args(argv)

    tracer = Tracer() if args.trace else None
    steal_before = steal_ticks()
    result = RUNNERS[args.workload](args.workload, args.seed, args.seconds, tracer)
    result["info"].update(
        steal_ticks=steal_ticks() - steal_before,
        cpu_count=os.cpu_count(),
        blas_threads=os.environ.get("OPENBLAS_NUM_THREADS"),
        switch_interval_s=sys.getswitchinterval(),
    )
    if tracer is not None:
        tracer.unwrap_all()
        if args.trace_file:
            tracer.write_chrome_trace(args.trace_file)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
