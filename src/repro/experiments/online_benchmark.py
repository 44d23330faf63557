"""Online-serving benchmark: drift detection, warm-refit recovery, rollback.

Measures the drift-aware serving loop (:mod:`repro.serve.online`) end to
end and produces the committed ``BENCH_online.json``:

* **tradeoff** — the refit-latency vs PEHE-recovery curve: a stale model is
  confronted with a drifted window, then refit either **cold** (fresh
  parameters, full training budget) or **warm**
  (``refit(window, init="fitted", epochs=k)``) across a grid of epoch
  budgets.  Recovery is the recovered fraction of the stale-model PEHE
  degradation, ``(pehe_stale - pehe_warm) / (pehe_stale - pehe_cold)``.
* **schedules** — the full monitor → refit → hot-swap loop replayed over a
  recurring-drift and an abrupt-shift schedule, recording detection delay,
  refit/rollback counts, failed requests and the per-step PEHE trace.
* **gates** — the acceptance criteria evaluated on the record: the monitor
  fires within one window of the injected shift, warm refit recovers
  >= 80% of the degradation at < 25% of cold wall-clock, and the swap
  phase serves zero failed requests.  ``benchmarks/bench_online.py`` fails
  when a gate fails, so CI pins the contract.
"""

from __future__ import annotations

import copy
import math
import time
from typing import Dict, List, Optional, Sequence

from ..core.config import BackboneConfig, SBRLConfig, TrainingConfig
from ..core.estimator import HTEEstimator
from ..serve import DriftMonitor, DriftSchedule, OnlineServingLoop, ServingFrontend
from ..serve.online import DriftStream, concat_datasets, drift_stream, pehe_against_truth
from .perf_gate import check_perf_regression
from .reporting import format_table, machine_block

__all__ = [
    "benchmark_online",
    "check_online_benchmark",
    "format_online_benchmark",
    "PERF_GATES",
    "RECOVERY_FLOOR",
    "LATENCY_RATIO_CEILING",
]

#: Acceptance gates: warm refit must recover at least this fraction of the
#: stale-model PEHE degradation ...
RECOVERY_FLOOR = 0.80
#: ... in at most this fraction of the cold-refit wall-clock.
LATENCY_RATIO_CEILING = 0.25

#: (num_samples, train_iterations, num_steps, batch_rows, period,
#:  window_size, min_window, refit_epochs, epochs_grid) — one source of
#: truth per mode, shared by the --smoke defaults and the smoke_reference
#: block the CI perf gate reads.
SMOKE_DEFAULTS = (600, 150, 16, 128, 8, 256, 64, 20, (5, 10, 20, 40))
FULL_DEFAULTS = (1200, 300, 24, 192, 12, 384, 96, 40, (10, 20, 40, 80, 150))

#: Monitor trigger threshold used by every phase.  Calibrated against the
#: null distribution of the domain AUC at the smoke window size (~0.57
#: +- 0.02 without drift, >= 0.75 with the unstable-covariate shift).
DEFAULT_AUC_THRESHOLD = 0.70


def _online_config(iterations: int, seed: int) -> SBRLConfig:
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


def _train_initial(stream: DriftStream, iterations: int, seed: int) -> HTEEstimator:
    estimator = HTEEstimator(
        backbone="tarnet",
        framework="sbrl-hap",
        config=_online_config(iterations, seed),
        seed=seed,
    )
    return estimator.fit(stream.train)


# --------------------------------------------------------------------------- #
# Tradeoff phase
# --------------------------------------------------------------------------- #
def _tradeoff_phase(
    estimator: HTEEstimator,
    stream: DriftStream,
    epochs_grid: Sequence[int],
) -> Dict[str, object]:
    """Refit-latency vs PEHE-recovery curve on an abrupt-shift stream.

    ``stream`` must be an abrupt schedule: the refit window is the first
    two post-shift batches, the evaluation set every later drifted batch —
    the window a production refit would actually have, scored on traffic it
    has not seen.
    """
    onset = stream.schedule.injected_step
    if onset is None:
        raise ValueError("tradeoff phase needs a schedule with an injection point")
    window = concat_datasets(
        [stream[onset].dataset, stream[onset + 1].dataset], environment="refit-window"
    )
    eval_batches = [batch.dataset for batch in stream.batches[onset + 2 :]]
    if not eval_batches:
        raise ValueError("stream too short: no drifted batches left for evaluation")
    evaluation = concat_datasets(eval_batches, environment="drift-eval")

    pehe_stale = pehe_against_truth(estimator.predict_ite(evaluation.covariates), evaluation)
    cold = HTEEstimator(
        backbone=estimator.backbone_name,
        framework=estimator.framework,
        config=estimator.config,
        seed=estimator.seed,
    )
    started = time.perf_counter()
    cold.fit(window)
    cold_seconds = time.perf_counter() - started
    pehe_cold = pehe_against_truth(cold.predict_ite(evaluation.covariates), evaluation)
    degradation = pehe_stale - pehe_cold

    curve: List[Dict[str, float]] = []
    for epochs in epochs_grid:
        warm = copy.deepcopy(estimator)
        started = time.perf_counter()
        warm.refit(window, init="fitted", epochs=int(epochs))
        warm_seconds = time.perf_counter() - started
        pehe_warm = pehe_against_truth(warm.predict_ite(evaluation.covariates), evaluation)
        curve.append(
            {
                "epochs": int(epochs),
                "warm_seconds": warm_seconds,
                "latency_ratio": warm_seconds / cold_seconds if cold_seconds else 0.0,
                "pehe_warm": pehe_warm,
                "recovery": (pehe_stale - pehe_warm) / max(degradation, 1e-9),
            }
        )
    return {
        "window_rows": len(window),
        "evaluation_rows": len(evaluation),
        "pehe_stale": pehe_stale,
        "pehe_cold": pehe_cold,
        "cold_seconds": cold_seconds,
        "curve": curve,
    }


# --------------------------------------------------------------------------- #
# Online-loop phase
# --------------------------------------------------------------------------- #
def _loop_phase(
    estimator: HTEEstimator,
    stream: DriftStream,
    *,
    window_size: int,
    min_window: int,
    refit_epochs: int,
    auc_threshold: float,
    seed: int,
) -> Dict[str, object]:
    """Replay one schedule through the full monitor → refit → swap loop."""
    monitor = DriftMonitor(
        stream.train,
        window_size=window_size,
        min_window=min_window,
        auc_threshold=auc_threshold,
        seed=seed,
    )
    frontend = ServingFrontend(num_workers=2, max_wait_ms=1.0)
    loop = OnlineServingLoop(
        frontend,
        copy.deepcopy(estimator),
        monitor,
        model="online",
        refit_epochs=refit_epochs,
        refit_window_batches=2,
        cooldown_steps=2,
        request_rows=max(16, len(stream[0].dataset) // 4),
    )
    try:
        report = loop.run(stream)
    finally:
        frontend.stop()

    injected = stream.schedule.injected_step
    batch_rows = len(stream[0].dataset)
    # "Within one window" in steps: the window must be able to turn over.
    window_bound_steps = max(1, math.ceil(window_size / batch_rows))
    first_trigger = (
        report.first_trigger_step(after=injected) if injected is not None else None
    )
    detection_delay = (
        first_trigger - injected if (injected is not None and first_trigger is not None) else None
    )
    frontend_summary = frontend.stats.summary()
    return {
        "schedule": {
            "kind": stream.schedule.kind,
            "num_steps": stream.schedule.num_steps,
            "amplitude": stream.schedule.amplitude,
            "period": stream.schedule.period,
            "injected_step": injected,
        },
        "batch_rows": batch_rows,
        "window_bound_steps": window_bound_steps,
        "first_trigger_step": first_trigger,
        "detection_delay_steps": detection_delay,
        "detected_within_window": (
            detection_delay is not None and 0 <= detection_delay <= window_bound_steps
        ),
        "refits": report.refits,
        "rollbacks": report.rollbacks,
        "failed_requests": report.failed_requests,
        "frontend_failed_requests": frontend_summary["failed_requests"],
        "deploys": frontend_summary["deploys"],
        "refit_seconds": report.refit_seconds,
        "pehe_by_step": report.pehe_by_step(),
        "steps": [record.as_dict() for record in report.steps],
        "events": [event.as_dict() for event in report.events],
    }


# --------------------------------------------------------------------------- #
# Entry point
# --------------------------------------------------------------------------- #
def benchmark_online(
    smoke: bool = False,
    *,
    num_samples: Optional[int] = None,
    num_steps: Optional[int] = None,
    batch_rows: Optional[int] = None,
    refit_epochs: Optional[int] = None,
    auc_threshold: float = DEFAULT_AUC_THRESHOLD,
    seed: int = 2024,
) -> Dict[str, object]:
    """Run every online-serving phase and return one JSON-friendly dict.

    ``smoke=True`` shrinks the *default* of every unset knob so the whole
    run takes tens of seconds (the CI mode); explicitly passed arguments
    win over the smoke defaults.  The committed ``BENCH_online.json`` comes
    from a full run with the defaults.
    """
    defaults = SMOKE_DEFAULTS if smoke else FULL_DEFAULTS
    num_samples = num_samples if num_samples is not None else defaults[0]
    train_iterations = defaults[1]
    num_steps = num_steps if num_steps is not None else defaults[2]
    batch_rows = batch_rows if batch_rows is not None else defaults[3]
    period = defaults[4]
    window_size = defaults[5]
    min_window = defaults[6]
    refit_epochs = refit_epochs if refit_epochs is not None else defaults[7]
    epochs_grid = tuple(defaults[8])
    if refit_epochs not in epochs_grid:
        epochs_grid = tuple(sorted(set(epochs_grid) | {refit_epochs}))

    recurring = drift_stream(
        DriftSchedule(kind="recurring", num_steps=num_steps, period=period),
        num_samples=num_samples,
        batch_rows=batch_rows,
        seed=seed,
    )
    abrupt = drift_stream(
        DriftSchedule(kind="abrupt", num_steps=num_steps, shift_step=period // 2),
        num_samples=num_samples,
        batch_rows=batch_rows,
        seed=seed,
    )
    estimator = _train_initial(recurring, train_iterations, seed)

    tradeoff = _tradeoff_phase(estimator, abrupt, epochs_grid)
    loop_kwargs = dict(
        window_size=window_size,
        min_window=min_window,
        refit_epochs=refit_epochs,
        auc_threshold=auc_threshold,
        seed=seed,
    )
    schedules = {
        "recurring": _loop_phase(estimator, recurring, **loop_kwargs),
        "abrupt": _loop_phase(estimator, abrupt, **loop_kwargs),
    }

    chosen = next(
        entry for entry in tradeoff["curve"] if entry["epochs"] == refit_epochs
    )
    gates = {
        "drift_detected_within_window": bool(
            schedules["recurring"]["detected_within_window"]
        ),
        "warm_recovery": {
            "measured": chosen["recovery"],
            "floor": RECOVERY_FLOOR,
            "passed": chosen["recovery"] >= RECOVERY_FLOOR,
        },
        "warm_latency_ratio": {
            "measured": chosen["latency_ratio"],
            "ceiling": LATENCY_RATIO_CEILING,
            "passed": chosen["latency_ratio"] < LATENCY_RATIO_CEILING,
        },
        "zero_failed_requests": all(
            phase["failed_requests"] == 0 and phase["frontend_failed_requests"] == 0
            for phase in schedules.values()
        ),
    }
    gates["all_passed"] = (
        gates["drift_detected_within_window"]
        and gates["warm_recovery"]["passed"]
        and gates["warm_latency_ratio"]["passed"]
        and gates["zero_failed_requests"]
    )

    result: Dict[str, object] = {
        "benchmark": "online-serving",
        "mode": "smoke" if smoke else "full",
        "machine": machine_block(),
        "config": {
            "num_samples": num_samples,
            "train_iterations": train_iterations,
            "num_steps": num_steps,
            "batch_rows": batch_rows,
            "period": period,
            "window_size": window_size,
            "min_window": min_window,
            "refit_epochs": refit_epochs,
            "auc_threshold": auc_threshold,
            "backbone": "tarnet",
            "framework": "sbrl-hap",
            "seed": seed,
        },
        "tradeoff": tradeoff,
        "schedules": schedules,
        "gates": gates,
    }
    if not smoke:
        # Smoke-sized timings measured on the same machine as the full run:
        # the CI perf gate compares its own --smoke numbers against these.
        smoke_abrupt = drift_stream(
            DriftSchedule(
                kind="abrupt", num_steps=SMOKE_DEFAULTS[2], shift_step=SMOKE_DEFAULTS[4] // 2
            ),
            num_samples=SMOKE_DEFAULTS[0],
            batch_rows=SMOKE_DEFAULTS[3],
            seed=seed,
        )
        smoke_estimator = _train_initial(smoke_abrupt, SMOKE_DEFAULTS[1], seed)
        smoke_tradeoff = _tradeoff_phase(
            smoke_estimator, smoke_abrupt, (SMOKE_DEFAULTS[7],)
        )
        result["smoke_reference"] = {
            "cold_refit_seconds": smoke_tradeoff["cold_seconds"],
            "warm_refit_seconds": smoke_tradeoff["curve"][0]["warm_seconds"],
        }
    return result


#: ``(label, extractor, smoke_reference_key)`` triples the perf gate reads.
PERF_GATES = (
    (
        "warm refit seconds",
        lambda record: next(
            entry["warm_seconds"]
            for entry in record["tradeoff"]["curve"]
            if entry["epochs"] == record["config"]["refit_epochs"]
        ),
        "warm_refit_seconds",
    ),
    ("cold refit seconds", lambda record: record["tradeoff"]["cold_seconds"], "cold_refit_seconds"),
)


def check_online_benchmark(result: Dict[str, object], baseline_path: Optional[str] = None) -> int:
    """This benchmark's pass/fail rules: every acceptance gate in every mode,
    and with ``baseline_path`` the smoke perf gate.  Prints each failure and
    returns how many failed."""
    failures = 0
    for name, gate in result["gates"].items():
        if name != "all_passed" and not (gate["passed"] if isinstance(gate, dict) else gate):
            print(f"FAIL: online-serving gate {name}: {gate}")
            failures += 1
    if baseline_path is not None:
        failures += check_perf_regression(result, baseline_path, PERF_GATES)
    return failures


def format_online_benchmark(result: Dict[str, object]) -> str:
    """Human-readable tables for the script output."""
    tradeoff = result["tradeoff"]
    rows = [
        [
            entry["epochs"],
            entry["warm_seconds"],
            entry["latency_ratio"],
            entry["pehe_warm"],
            entry["recovery"],
        ]
        for entry in tradeoff["curve"]
    ]
    text = format_table(
        ["epochs", "seconds", "vs cold", "pehe", "recovery"],
        rows,
        title=(
            f"Warm-refit tradeoff (stale pehe {tradeoff['pehe_stale']:.3f}, "
            f"cold {tradeoff['cold_seconds']:.2f}s -> pehe {tradeoff['pehe_cold']:.3f})"
        ),
    )
    schedule_rows = []
    for kind, phase in result["schedules"].items():
        schedule_rows.append(
            [
                kind,
                phase["schedule"]["injected_step"],
                phase["first_trigger_step"],
                phase["refits"],
                phase["rollbacks"],
                phase["failed_requests"],
            ]
        )
    text += "\n" + format_table(
        ["schedule", "injected", "first trigger", "refits", "rollbacks", "failed"],
        schedule_rows,
        title="Online loop by schedule",
    )
    gates = result["gates"]
    text += "\n" + format_table(
        ["gate", "value", "passed"],
        [
            [
                "detected within window",
                result["schedules"]["recurring"]["detection_delay_steps"],
                gates["drift_detected_within_window"],
            ],
            [
                "warm recovery >= 0.80",
                f"{gates['warm_recovery']['measured']:.2f}",
                gates["warm_recovery"]["passed"],
            ],
            [
                "latency ratio < 0.25",
                f"{gates['warm_latency_ratio']['measured']:.2f}",
                gates["warm_latency_ratio"]["passed"],
            ],
            ["zero failed requests", "-", gates["zero_failed_requests"]],
        ],
        title=f"Acceptance gates ({'PASS' if gates['all_passed'] else 'FAIL'})",
    )
    return text
