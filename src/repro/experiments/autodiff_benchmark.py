"""Autodiff hot-path benchmark: fused kernels, compiled serving, dtype policy.

Quantifies the PR-4 engine overhaul along four axes:

* **per-op** — graph-node counts and forward+backward wall-clock of the
  fused kernels, with the node reduction against the unfused op chains
  the regularizers built before PR 4 (frozen history,
  :data:`PR4_UNFUSED_GRAPH_NODES`);
* **training step** — seconds and tensor allocations per alternating-
  optimisation iteration at the ``BENCH_training.json`` full-batch setting,
  directly comparable to the committed PR-2 baseline (80.2 s / 40 it);
* **serving** — ``backbone.predict`` (the compiled forward over the op
  table, bitwise the autodiff forward) vs the autodiff forward itself
  under ``no_grad`` at request-sized batches, plus end-to-end single-row
  latency of the in-process :meth:`ModelRegistry.predict
  <repro.serve.registry.ModelRegistry.predict>` path;
* **dtype** — float64 vs opt-in float32 training throughput.

``benchmarks/bench_autodiff.py`` wraps this module as a CI-runnable script
(``--smoke``) that can also gate on a committed baseline
(``--check-against``).
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Optional

import numpy as np

from ..core.config import BackboneConfig, SBRLConfig, TrainingConfig
from ..core.estimator import HTEEstimator
from ..data.synthetic import SyntheticConfig, SyntheticGenerator
from ..metrics.hsic import RandomFourierFeatures, pairwise_decorrelation_loss
from ..metrics.ipm import mmd_rbf_weighted
from ..nn import functional as F
from ..nn.tensor import Tensor, dtype_scope, graph_node_count, tensor_alloc_count
from ..serve import ModelRegistry
from .reporting import format_table, machine_block
from .training_benchmark import _engine_config

__all__ = ["benchmark_autodiff", "format_autodiff_benchmark"]

#: Seconds-per-iteration of the PR-2 full-batch baseline (committed
#: BENCH_training.json: 80.17 s over 40 iterations at the same setting).
PR2_FULL_BATCH_SECONDS_PER_ITERATION = 80.174 / 40.0
#: Single-row in-process serving latency of the PR-2 code, measured on the
#: same container with the protocol of the serving section below.
PR2_SERVICE_SINGLE_ROW_SECONDS = 225.5e-6
#: Graph nodes of the unfused op chains each fused kernel replaced in PR 4,
#: read from the committed record.  They hold for :func:`_per_op_section`'s
#: inputs: ``n_cols = 8`` (all 28 column pairs) for the decorrelation loss.
#: They do not depend on the row count (the same at 128, 200 and 512 rows).
PR4_UNFUSED_GRAPH_NODES = {
    "mmd_rbf_weighted": 80,
    "pairwise_decorrelation_loss": 1093,
    "linear": 6,
}


# --------------------------------------------------------------------------- #
# Measurement helpers
# --------------------------------------------------------------------------- #
def _time_loss(build: Callable[[], Tensor], repeats: int) -> Dict[str, float]:
    """Nodes and forward+backward seconds of a scalar-loss builder."""
    loss = build()
    nodes = graph_node_count(loss)
    loss.backward()
    start = time.perf_counter()
    for _ in range(repeats):
        build().backward()
    seconds = (time.perf_counter() - start) / repeats
    return {"graph_nodes": int(nodes), "seconds_per_call": float(seconds)}


def _per_op_section(num_samples: int, repeats: int, seed: int) -> Dict[str, object]:
    rng = np.random.default_rng(seed)
    rep_dim = 24
    control = rng.normal(size=(num_samples, rep_dim))
    treated = rng.normal(size=(num_samples, rep_dim))
    w_control = np.abs(rng.normal(size=num_samples)) + 0.2
    w_treated = np.abs(rng.normal(size=num_samples)) + 0.2

    section: Dict[str, object] = {}

    def measure(name: str, fused: Callable[[], Tensor]) -> None:
        fused_stats = _time_loss(fused, repeats)
        section[name] = {
            "fused": fused_stats,
            "node_reduction": PR4_UNFUSED_GRAPH_NODES[name] / max(fused_stats["graph_nodes"], 1),
        }

    def leaves():
        return (
            Tensor(control, requires_grad=True),
            Tensor(treated, requires_grad=True),
            Tensor(w_control, requires_grad=True),
            Tensor(w_treated, requires_grad=True),
        )

    measure("mmd_rbf_weighted", lambda: mmd_rbf_weighted(*leaves()))

    n_cols = 8  # PR4_UNFUSED_GRAPH_NODES holds for 8 columns only
    matrix = rng.normal(size=(num_samples, n_cols))
    weights = np.abs(rng.normal(size=num_samples)) + 0.2
    draws = [RandomFourierFeatures.draw(5, np.random.default_rng(seed + i)) for i in range(n_cols)]
    measure(
        "pairwise_decorrelation_loss",
        lambda: pairwise_decorrelation_loss(
            Tensor(matrix, requires_grad=True), Tensor(weights, requires_grad=True), draws, max_pairs=None
        ),
    )

    x = rng.normal(size=(num_samples, rep_dim))
    weight = rng.normal(size=(rep_dim, rep_dim))
    bias = rng.normal(size=rep_dim)
    measure(
        "linear",
        lambda: F.linear(
            Tensor(x, requires_grad=True), Tensor(weight, requires_grad=True), Tensor(bias, requires_grad=True)
        ).sum(),
    )
    return section


def _training_step_section(
    num_samples: int, iterations: int, seed: int, dtype: str = "float64"
) -> Dict[str, object]:
    """Fit at the BENCH_training full-batch setting; report per-step costs."""
    generator = SyntheticGenerator(SyntheticConfig(seed=seed))
    protocol = generator.generate_train_test_protocol(
        num_samples=num_samples, train_rho=2.5, test_rhos=(2.5,), seed=seed
    )
    config = _engine_config(iterations, None, None, 256, seed)
    config.training.dtype = dtype
    estimator = HTEEstimator(backbone="cfr", framework="sbrl-hap", config=config, seed=seed)
    allocations_before = tensor_alloc_count()
    start = time.perf_counter()
    estimator.fit(protocol["train"])
    seconds = time.perf_counter() - start
    allocations = tensor_alloc_count() - allocations_before
    pehe = float(estimator.evaluate(protocol["test_environments"][2.5])["pehe"])
    return {
        "num_samples": num_samples,
        "iterations": iterations,
        "dtype": dtype,
        "seconds": float(seconds),
        "seconds_per_iteration": float(seconds / iterations),
        "tensor_allocations_per_iteration": float(allocations / iterations),
        "pehe": pehe,
    }


def _interleaved_best(fn_a: Callable[[], object], fn_b: Callable[[], object], repeats: int, passes: int = 3):
    """Best-of mean latencies of two closures, measured in alternating
    chunks so transient CPU contention hits both sides equally."""
    fn_a()
    fn_b()
    best_a = best_b = float("inf")
    for _ in range(passes):
        start = time.perf_counter()
        for _ in range(repeats):
            fn_a()
        best_a = min(best_a, (time.perf_counter() - start) / repeats)
        start = time.perf_counter()
        for _ in range(repeats):
            fn_b()
        best_b = min(best_b, (time.perf_counter() - start) / repeats)
    return best_a, best_b


def _replay_step_comparison(num_samples: int, repeats: int, seed: int) -> Dict[str, object]:
    """Eager vs replayed network step at the training-benchmark setting."""
    generator = SyntheticGenerator(SyntheticConfig(seed=seed))
    protocol = generator.generate_train_test_protocol(
        num_samples=num_samples, train_rho=2.5, test_rhos=(2.5,), seed=seed
    )
    config = _engine_config(2, None, None, 256, seed)
    estimator = HTEEstimator(backbone="cfr", framework="sbrl-hap", config=config, seed=seed)
    estimator.fit(protocol["train"])  # leaves a live trainer + replay engine
    trainer = estimator.trainer
    train_std = protocol["train"].standardize()[0]
    covariates, treatment, outcome = (
        train_std.covariates,
        train_std.treatment,
        train_std.outcome,
    )
    with dtype_scope(config.training.dtype):
        replay_engine = trainer._replay

        def replay_step():
            trainer._replay = replay_engine
            trainer._network_step(covariates, treatment, outcome, None)

        def eager_step():
            trainer._replay = None
            trainer._network_step(covariates, treatment, outcome, None)

        replay_step()  # records once; subsequent calls are cache hits
        assert trainer.last_step_stats is not None
        allocs_before = tensor_alloc_count()
        replay_step()
        replay_allocs = tensor_alloc_count() - allocs_before
        graph_nodes = trainer.last_step_stats.get("graph_nodes")
        replay_seconds, eager_seconds = _interleaved_best(replay_step, eager_step, repeats)
        trainer._replay = replay_engine
    return {
        "num_samples": num_samples,
        "backbone": "cfr",
        "framework": "sbrl-hap",
        "eager_seconds_per_step": float(eager_seconds),
        "replay_seconds_per_step": float(replay_seconds),
        "speedup": float(eager_seconds / replay_seconds),
        "graph_nodes": graph_nodes,
        "tensor_allocs_per_replay": int(replay_allocs),
    }


def _graph_replay_section(num_samples: int, seed: int, smoke: bool) -> Dict[str, object]:
    """Record-once / replay-many training vs eager graph construction."""
    step = _replay_step_comparison(num_samples, 8 if smoke else 3, seed)
    # Headline replayed-vs-eager training-step ratio: the single program.
    return {"network_step": step, "replay_speedup": step["speedup"]}


def _serving_section(num_samples: int, rows_grid, service_rows: int, seed: int) -> Dict[str, object]:
    generator = SyntheticGenerator(SyntheticConfig(seed=seed))
    protocol = generator.generate_train_test_protocol(num_samples=num_samples, seed=seed)
    config = SBRLConfig(
        backbone=BackboneConfig(rep_layers=3, rep_units=128, head_layers=3, head_units=64),
        training=TrainingConfig(iterations=3, early_stopping_patience=None, seed=seed),
    )
    estimator = HTEEstimator(backbone="cfr", framework="vanilla", config=config, seed=seed)
    estimator.fit(protocol["train"])
    backbone = estimator.trainer.backbone
    rng = np.random.default_rng(seed + 1)
    num_features = protocol["train"].num_features

    def timed(fn: Callable[[], object], repeats: int, passes: int = 3) -> float:
        """Best-of-``passes`` mean latency (timeit-style, robust to GC and
        transient CPU contention spikes)."""
        fn()
        best = float("inf")
        for _ in range(passes):
            start = time.perf_counter()
            for _ in range(repeats):
                fn()
            best = min(best, (time.perf_counter() - start) / repeats)
        return best

    batches = {}
    for rows in rows_grid:
        x = rng.normal(size=(rows, num_features))
        repeats = max(20, min(500, 4000 // rows))
        graph = timed(lambda x=x: backbone._predict_eager(x), repeats)
        compiled = timed(lambda x=x: backbone.predict(x), repeats)
        batches[str(rows)] = {
            "graph_seconds": float(graph),
            "compiled_seconds": float(compiled),
            "speedup": float(graph / compiled),
        }

    registry = ModelRegistry()
    registry.deploy("bench", estimator)
    pool = rng.normal(size=(service_rows, num_features))
    cursor = [0]

    def one_request():
        registry.predict(pool[cursor[0] % service_rows])
        cursor[0] += 1

    # Every timing pass must stay inside the unique-row pool: wrapping would
    # hit the version's LRU cache and report warm- instead of cold-path
    # latency (passes=3 plus the warm-up call).
    single_row = timed(one_request, min(1000, (service_rows - 1) // 4))
    return {
        "backbone_predict": batches,
        "service_single_row_seconds": float(single_row),
        "pr2_service_single_row_seconds": PR2_SERVICE_SINGLE_ROW_SECONDS,
        "service_latency_reduction_vs_pr2": float(PR2_SERVICE_SINGLE_ROW_SECONDS / single_row),
    }


def benchmark_autodiff(
    smoke: bool = False,
    num_samples: Optional[int] = None,
    iterations: Optional[int] = None,
    seed: int = 2024,
    include_smoke_reference: bool = True,
) -> Dict[str, object]:
    """Run all four sections and return one JSON-serialisable record.

    ``smoke=True`` shrinks every unset knob to a seconds-scale CI run;
    explicitly passed arguments win over the smoke defaults.  Full runs
    embed a ``smoke_reference`` block (the smoke-sized numbers measured on
    the same machine) that the CI perf gate compares against.
    """
    per_op_samples, per_op_repeats = (128, 3) if smoke else (512, 5)
    step_samples = num_samples if num_samples is not None else (600 if smoke else 4000)
    step_iterations = iterations if iterations is not None else (4 if smoke else 40)
    serving_samples = 300 if smoke else 600
    rows_grid = (1, 64) if smoke else (1, 16, 256, 2048)
    service_rows = 500 if smoke else 3000

    # Serving is measured FIRST: its microsecond-scale latencies are
    # sensitive to the allocator state the multi-gigabyte training sections
    # leave behind (observed ~30% inflation when measured after them).
    serving = _serving_section(serving_samples, rows_grid, service_rows, seed)
    step = _training_step_section(step_samples, step_iterations, seed)
    result: Dict[str, object] = {
        "benchmark": "autodiff-hot-path",
        "mode": "smoke" if smoke else "full",
        "machine": machine_block(),
        "per_op": _per_op_section(per_op_samples, per_op_repeats, seed),
        "training_step": step,
        "graph_replay": _graph_replay_section(step_samples, seed, smoke),
        "serving": serving,
        "dtype": {
            "float64": {
                "seconds_per_iteration": step["seconds_per_iteration"],
            },
            "float32": _training_step_section(
                step_samples, max(2, step_iterations // 2), seed, dtype="float32"
            ),
        },
    }
    if not smoke:
        result["training_step"]["pr2_seconds_per_iteration"] = PR2_FULL_BATCH_SECONDS_PER_ITERATION
        result["training_step"]["speedup_vs_pr2"] = float(
            PR2_FULL_BATCH_SECONDS_PER_ITERATION / step["seconds_per_iteration"]
        )
    if include_smoke_reference and not smoke:
        reference = benchmark_autodiff(
            smoke=True, seed=seed, include_smoke_reference=False
        )
        result["smoke_reference"] = {
            "training_step_seconds_per_iteration": reference["training_step"][
                "seconds_per_iteration"
            ],
            "service_single_row_seconds": reference["serving"]["service_single_row_seconds"],
            # Graph-node counts are deterministic and hardware-independent,
            # so this gate entry catches a de-fused regularizer graph even
            # when CI-runner timing noise would mask the slowdown.
            "decorrelation_fused_graph_nodes": reference["per_op"][
                "pairwise_decorrelation_loss"
            ]["fused"]["graph_nodes"],
        }
    return result


def format_autodiff_benchmark(result: Dict[str, object]) -> str:
    """Human-readable tables for the script output."""
    rows = []
    for name, stats in result["per_op"].items():
        rows.append(
            [
                name,
                PR4_UNFUSED_GRAPH_NODES[name],
                stats["fused"]["graph_nodes"],
                stats["node_reduction"],
                stats["fused"]["seconds_per_call"] * 1e3,
            ]
        )
    text = format_table(
        ["op", "nodes before PR 4", "nodes", "node x", "ms/call"],
        rows,
        title="Fused kernels (forward+backward, per call)",
    )

    step = result["training_step"]
    step_rows = [
        ["fused engine", step["seconds_per_iteration"], step["tensor_allocations_per_iteration"]],
    ]
    if "pr2_seconds_per_iteration" in step:
        step_rows.insert(0, ["PR 2 baseline", step["pr2_seconds_per_iteration"], float("nan")])
    text += "\n" + format_table(
        ["engine", "sec/iteration", "tensor allocs/iteration"],
        step_rows,
        title=(
            f"Full-batch training step ({step['num_samples']} samples"
            + (
                f", {step['speedup_vs_pr2']:.2f}x vs PR 2)"
                if "speedup_vs_pr2" in step
                else ")"
            )
        ),
    )

    replay = result.get("graph_replay")
    if replay is not None:
        step_stats = replay["network_step"]
        replay_rows = [
            [
                f"single ({step_stats['backbone']}/{step_stats['framework']}, "
                f"n={step_stats['num_samples']})",
                step_stats["eager_seconds_per_step"] * 1e3,
                step_stats["replay_seconds_per_step"] * 1e3,
                step_stats["speedup"],
            ],
        ]
        text += "\n" + format_table(
            ["mode", "eager ms/step", "replay ms/step", "speedup"],
            replay_rows,
            title=(
                "Graph replay (TrainingConfig.graph_replay; replayed step "
                f"{replay['replay_speedup']:.2f}x vs eager)"
            ),
        )

    serving = result["serving"]
    serve_rows = [
        [rows_key, stats["graph_seconds"] * 1e6, stats["compiled_seconds"] * 1e6, stats["speedup"]]
        for rows_key, stats in serving["backbone_predict"].items()
    ]
    text += "\n" + format_table(
        ["rows", "graph us", "compiled us", "speedup"],
        serve_rows,
        title=(
            "Compiled inference (service single-row: "
            f"{serving['service_single_row_seconds'] * 1e6:.0f} us, "
            f"{serving['service_latency_reduction_vs_pr2']:.2f}x vs PR 2)"
        ),
    )

    dtype = result["dtype"]
    text += "\n" + format_table(
        ["dtype", "sec/iteration"],
        [
            ["float64", dtype["float64"]["seconds_per_iteration"]],
            ["float32", dtype["float32"]["seconds_per_iteration"]],
        ],
        title="Training precision (TrainingConfig.dtype)",
    )
    return text
