"""Names, units and meaning of every workload and metric the benchmark reports.

``BENCHMARK.json`` lists the same names and bounds; the tests check that
the two agree.  Each per-layer entry records which end-to-end metric it
should move and on which workload, so a later change can cite the names.
"""

from __future__ import annotations

from typing import Dict, Tuple

WORKLOADS: Tuple[str, ...] = ("fit-fullbatch", "fit-minibatch", "grid", "serve-drift")

#: name -> (unit, better, meaning).  Every workload reports every one of
#: these; "pass" is the workload's timed unit of work: one HTEEstimator fit
#: (fit-*), one run_scenario_suite call (grid), one stream replay through
#: OnlineServingLoop.run (serve-drift).
END_TO_END: Dict[str, Tuple[str, str, str]] = {
    "setup_s": (
        "s", "lower",
        "median of several set-ups (3; 15 on grid): input generation and model "
        "preparation; on serve-drift it includes fitting the initial model",
    ),
    "wall_s": (
        "s", "lower",
        "wall-clock of one pass: fit plus 8-environment evaluation (fit-*), "
        "the suite call (grid), the stream replay from its first due batch "
        "until OnlineServingLoop.run returns (serve-drift)",
    ),
    "pehe_mean": (
        "pehe", "lower",
        "mean PEHE over the 8 PAPER_BIAS_RATES test environments (fit-*), "
        "over cells (grid), over stream steps as served (serve-drift)",
    ),
    "pehe_stability": (
        "pehe2", "lower",
        "the paper's stability, the mean squared deviation of PEHE across "
        "the same environments, cells or stream steps",
    ),
    "peak_rss_mb": (
        "MB", "lower",
        "peak resident memory; on grid the largest of the parent and its workers",
    ),
}

#: End-to-end figures printed beside the gated ones but not gated.  On a
#: shared 2-CPU host, CPU steal moved them far beyond any bound the benchmark
#: may set between runs of identical code: serve-drift's median refit by
#: 1.9x, its request latencies by up to 3x (garbage-collection pauses decide
#: the tail); on fit-* fit_s duplicates wall_s.  stall_s and failed_ratio
#: can legitimately read 0.
PRINTED: Dict[str, str] = {
    "fit_s": "one estimator fit: HTEEstimator.fit at the fixed budget (fit-*), "
    "mean work-unit fit stage clock (grid), median inline refit (serve-drift)",
    "latency_p50_ms": "serve-drift: median latency of the open-loop 1-row "
    "requests, each timed from when it was due, with its sample count",
    "latency_p95_ms": "serve-drift: their 95th percentile, with its sample count",
    "latency_p99_ms": "serve-drift: their 99th percentile, with its sample count",
    "stall_s": "serve-drift: union of the [due, picked-up] intervals of stream "
    "batches; about the sum of the inline refits today",
    "failed_ratio": "every workload: failed over attempted operations (fits, "
    "work units, stream and background requests)",
}

_FIT = "wall_s on fit-fullbatch and fit-minibatch"

#: name -> (unit, better, what is timed or counted, what it should move).
#: Layer times of fit-* and grid are self seconds per pass; serve-drift's
#: per-call figures are medians of inclusive call durations.
PER_LAYER: Dict[str, Tuple[str, str, str, str]] = {
    "core.sbrl.network_step_s": (
        "s", "lower", "SBRLTrainer._network_step self time per pass", _FIT),
    "core.sbrl.network_step_calls": ("count", "lower", "its calls per pass", _FIT),
    "core.sbrl.weight_step_s": (
        "s", "lower", "SBRLTrainer._update_weights self time per pass",
        "wall_s on fit-fullbatch; setup_s and the printed fit_s on serve-drift"),
    "core.sbrl.weight_step_calls": ("count", "lower", "its calls per pass", "as weight_step_s"),
    "core.regularizers.weight_objective_s": (
        "s", "lower", "HierarchicalAttentionLoss.__call__ (Eq. 11 forward) self time per pass",
        "as weight_step_s"),
    "core.regularizers.weight_objective_calls": (
        "count", "lower", "its calls per pass", "as weight_step_s"),
    "core.sbrl.eval_s": ("s", "lower", "SBRLTrainer._evaluation_loss self time per pass", _FIT),
    "core.sbrl.eval_calls": ("count", "lower", "its calls per pass", _FIT),
    "core.loop.other_s": (
        "s", "lower", "fit time outside the network, weight and eval phases and "
        "the batching and replay spans under it: the unattributed remainder", _FIT),
    "nn.tape.replay_s": (
        "s", "lower", "ReplayProgram.run self time per pass",
        "wall_s on fit-fullbatch; the printed fit_s on serve-drift"),
    "nn.tape.replay_calls": ("count", "lower", "its calls per pass", "wall_s on fit-fullbatch"),
    "nn.tape.replay_hit_ratio": (
        "ratio", "higher", "hits/(hits+misses) of NetworkStepReplay.stats",
        "wall_s on fit-fullbatch; 0 on fit-minibatch today"),
    "nn.optim.step_s": ("s", "lower", "Optimizer.step self time per pass", _FIT),
    "nn.optim.step_calls": ("count", "lower", "its calls per pass", _FIT),
    "nn.tensor.allocs_per_iter": (
        "count", "lower", "tensor_alloc_count() delta per training iteration",
        "wall_s and peak_rss_mb on fit-minibatch"),
    "data.batching.batch_s": (
        "s", "lower", "StratifiedBatchSampler.epoch plus DataLoader batch "
        "materialisation, self time per pass", "wall_s on fit-minibatch"),
    "data.batching.batch_calls": ("count", "lower", "their calls per pass", "wall_s on fit-minibatch"),
    "data.generate_s": (
        "s", "lower", "SyntheticGenerator.generate and drift_stream per set-up",
        "setup_s on every workload"),
    "data.generate_calls": ("count", "lower", "their calls per set-up", "setup_s on every workload"),
    "scenarios.materialise_s": (
        "s", "lower", "summed per-unit materialise stage clock of the suite record", "wall_s on grid"),
    "experiments.runner.unit_fit_s": (
        "s", "lower", "summed per-unit fit stage clock", "wall_s on grid"),
    "experiments.runner.unit_eval_s": (
        "s", "lower", "summed per-unit evaluate stage clock", "wall_s on grid"),
    "experiments.scheduler.execute_s": (
        "s", "lower", "wall-clock of run_cross_cell", "wall_s on grid"),
    "experiments.scheduler.units": ("count", "lower", "work units per pass", "wall_s on grid"),
    "experiments.scheduler.pool_efficiency": (
        "ratio", "higher", "summed unit time / (n_jobs x execute_s)", "wall_s on grid"),
    "experiments.suite.other_s": (
        "s", "lower", "suite wall-clock outside run_cross_cell (plan, aggregate): "
        "the unattributed remainder", "wall_s on grid"),
    "serve.server.submit_us": (
        "us", "lower", "median ServingFrontend.submit call", "printed latency_p50_ms on serve-drift"),
    "serve.server.submit_calls": ("count", "lower", "its calls per pass", "printed latency_p50_ms on serve-drift"),
    "serve.registry.predict_rows_ms": (
        "ms", "lower", "median ModelVersion.predict_rows call (one fused batch)",
        "printed latency_p50_ms on serve-drift"),
    "serve.registry.predict_rows_calls": (
        "count", "lower", "its calls per pass", "printed latency_p50_ms on serve-drift"),
    "serve.registry.row_cache_hit_ratio": (
        "ratio", "higher", "hits/(hits+misses) returned by predict_rows",
        "printed latency_p50_ms on serve-drift"),
    "serve.server.batch_rows_mean": (
        "rows", "higher", "mean fused batch rows from FrontendStats.summary()",
        "printed latency_p50_ms on serve-drift"),
    "serve.server.wait_ms": (
        "ms", "lower", "latency_p50_ms minus the submit and predict_rows medians: "
        "queueing, batch forming, scatter and GIL waits, the unattributed remainder",
        "printed latency_p50_ms and latency_p95_ms on serve-drift"),
    "core.estimator.refit_s": (
        "s", "lower", "median HTEEstimator.refit call",
        "the printed fit_s and stall_s on serve-drift"),
    "core.estimator.refit_calls": (
        "count", "lower", "its calls per pass", "the printed stall_s on serve-drift"),
    "serve.registry.deploy_ms": (
        "ms", "lower", "median ModelRegistry.deploy or rollback call", "wall_s on serve-drift"),
    "serve.registry.deploy_calls": ("count", "lower", "their calls per pass", "wall_s on serve-drift"),
    "diagnostics.ood.monitor_check_ms": (
        "ms", "lower", "median DriftMonitor.check call", "wall_s on serve-drift"),
    "diagnostics.ood.monitor_check_calls": (
        "count", "lower", "its calls per pass", "wall_s on serve-drift"),
    "serve.online.stall_s": (
        "s", "lower", "union of the [due, picked-up] intervals of stream batches; "
        "about the sum of the inline refits today", "printed latency_p95_ms on serve-drift"),
    "serve.online.refits": (
        "count", "lower", "refits kept, from the loop's run report; must repeat exactly",
        "nothing: a correctness count"),
    "serve.online.rollbacks": (
        "count", "lower", "rollbacks, from the loop's run report; must repeat exactly",
        "nothing: a correctness count"),
    "loadgen.late_ms": (
        "ms", "lower", "99th percentile of generator send time minus due time",
        "nothing: benchmark health"),
    "host.steal_ticks": (
        "count", "lower", "/proc/stat steal delta over the traced run",
        "nothing: environment health"),
    "trace.overhead_ratio": (
        "ratio", "lower", "traced run's fit_s over the untraced run's",
        "nothing: tracing cost"),
}

#: Per-layer metrics a workload actually exercises; the rest read 0.
_FIT_LAYERS = tuple(
    name for name in PER_LAYER
    if name.startswith(("core.sbrl.", "core.regularizers.", "core.loop.", "nn.", "data."))
)
LAYERS_BY_WORKLOAD: Dict[str, Tuple[str, ...]] = {
    "fit-fullbatch": _FIT_LAYERS,
    "fit-minibatch": _FIT_LAYERS,
    "grid": tuple(
        name for name in PER_LAYER
        if name.startswith(("scenarios.", "experiments.", "data.generate"))
    ),
    "serve-drift": tuple(
        name for name in PER_LAYER
        if name.startswith((
            "core.sbrl.", "core.regularizers.", "core.estimator.", "nn.tape.replay_s",
            "nn.tape.replay_calls", "nn.optim.", "serve.", "diagnostics.", "loadgen.",
            "data.generate",
        ))
    ),
}
ALWAYS = ("host.steal_ticks", "trace.overhead_ratio")
