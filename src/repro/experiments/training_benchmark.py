"""Training-engine benchmark: full-batch vs minibatch vs parallel grid.

Records the performance trajectory of the minibatch execution engine on a
synthetic benchmark:

* **full-batch** — the original Algorithm 1 path: every iteration forwards
  the whole population and the RBF-MMD / HSIC regularizers are exact
  (O(n²) kernels);
* **minibatch** — stratified ``batch_size`` batches with the anchor-
  subsampled regularizers, run for fewer epochs (stochastic steps converge
  per-epoch much faster, so the protocol grants the full-batch path twice
  the epoch budget and still compares PEHE directly);
* **parallel grid** — the paper's 3×3 method grid through
  :func:`repro.experiments.run_methods` serially and with ``n_jobs``
  worker processes, checking the results are identical.

``benchmarks/bench_training.py`` wraps this module as a script that writes
``BENCH_training.json`` (run in CI with ``--smoke``); ``repro train-bench``
exposes it from the CLI.
"""

from __future__ import annotations

import json
import os
import platform
import time
from typing import Dict, List, Optional, Tuple

from ..core.config import BackboneConfig, RegularizerConfig, SBRLConfig, TrainingConfig
from ..core.estimator import HTEEstimator
from ..core.loop import Callback
from ..data.synthetic import SyntheticConfig, SyntheticGenerator
from .protocols import experiment_config, get_scale
from .reporting import format_table
from .runner import default_method_grid, run_methods

__all__ = ["benchmark_training", "format_benchmark", "write_benchmark"]

#: (num_samples, batch_size, full_batch_epochs, minibatch_epochs,
#:  grid_num_samples, n_jobs, optimizer_num_samples, optimizer_iterations)
#: — one source of truth for each mode, shared by the --smoke defaults and
#: the smoke_reference block the CI gate reads.
SMOKE_DEFAULTS = (600, 128, 4, 2, 300, 2, 300, 60)
FULL_DEFAULTS = (4000, 256, 40, 20, 800, 4, 1200, 400)

#: Optimizer/schedule combinations measured by the steps-to-target-PEHE
#: section: (optimizer, schedule, learning_rate, optimizer_params,
#: warmup_steps).  The first row — the paper's Adam + exponential-decay
#: recipe at its default learning rate — defines the target.
OPTIMIZER_COMBOS: Tuple[Tuple[str, str, float, Dict[str, object], int], ...] = (
    ("adam", "exponential", 1e-3, {}, 0),
    ("adamw", "cosine", 3e-3, {"weight_decay": 1e-4}, 0),
    ("rmsprop", "exponential", 2e-3, {}, 0),
    ("sgd", "cosine", 5e-2, {"momentum": 0.9}, 10),
)


def _engine_config(
    iterations: int,
    batch_size: Optional[int],
    subsample_threshold: Optional[int],
    num_anchors: int,
    seed: int,
) -> SBRLConfig:
    """SBRL-HAP configuration with the costly RBF-MMD balancing active."""
    return SBRLConfig(
        backbone=BackboneConfig(rep_layers=3, rep_units=48, head_layers=3, head_units=24),
        regularizers=RegularizerConfig(
            alpha=1e-3,
            gamma1=1.0,
            gamma2=1e-3,
            gamma3=1e-3,
            ipm_kind="mmd_rbf",
            max_pairs_per_layer=24,
            subsample_threshold=subsample_threshold,
            num_anchors=num_anchors,
        ),
        training=TrainingConfig(
            iterations=iterations,
            learning_rate=1e-3,
            weight_update_every=5,
            weight_steps_per_iteration=2,
            weight_learning_rate=5e-2,
            weight_clip=(1e-3, 3.0),
            evaluation_interval=max(10, iterations // 10),
            early_stopping_patience=None,
            seed=seed,
            batch_size=batch_size,
        ),
    )


def _fit_and_time(config: SBRLConfig, train, test_environments, seed: int) -> Dict[str, object]:
    estimator = HTEEstimator(backbone="cfr", framework="sbrl-hap", config=config, seed=seed)
    start = time.perf_counter()
    estimator.fit(train)
    seconds = time.perf_counter() - start
    pehe = {
        str(name): float(estimator.evaluate(dataset)["pehe"])
        for name, dataset in test_environments.items()
    }
    return {"seconds": float(seconds), "iterations": config.training.iterations, "pehe": pehe}


class _PEHETracker(Callback):
    """Records ``(iteration, test PEHE)`` at every evaluation tick."""

    def __init__(self, test) -> None:
        self.test = test
        self.trace: List[Tuple[int, float]] = []

    def on_evaluation(self, loop, record) -> None:
        metrics = loop.trainer.evaluate(self.test)
        self.trace.append((record.iteration, float(metrics["pehe"])))


def _optimizer_section(num_samples: int, iterations: int, seed: int) -> Dict[str, object]:
    """Steps-to-target-PEHE across the registered optimizer/schedule combos.

    Each combo fits the same vanilla-CFR architecture on the same protocol,
    tracking test-environment PEHE on the evaluation cadence.  The target is
    the Adam + exponential-decay baseline's final PEHE plus 5%; a combo's
    ``steps_to_target`` is the first evaluated iteration at or below it
    (``None`` when never reached), so lower means faster convergence — the
    "steps, not just s/step" metric the optimizer layer exists for.
    """
    generator = SyntheticGenerator(SyntheticConfig(seed=seed))
    protocol = generator.generate_train_test_protocol(
        num_samples=num_samples, train_rho=2.5, test_rhos=(2.5,), seed=seed
    )
    train = protocol["train"]
    test = next(iter(protocol["test_environments"].values()))
    interval = max(5, iterations // 20)

    combos: List[Dict[str, object]] = []
    for optimizer, schedule, lr, optimizer_params, warmup in OPTIMIZER_COMBOS:
        config = SBRLConfig(
            backbone=BackboneConfig(rep_layers=2, rep_units=32, head_layers=2, head_units=16),
            regularizers=RegularizerConfig(max_pairs_per_layer=12),
            training=TrainingConfig(
                iterations=iterations,
                learning_rate=lr,
                evaluation_interval=interval,
                early_stopping_patience=None,
                seed=seed,
                optimizer=optimizer,
                optimizer_params=dict(optimizer_params),
                lr_schedule=schedule,
                lr_warmup_steps=warmup,
            ),
        )
        estimator = HTEEstimator(backbone="cfr", framework="vanilla", config=config, seed=seed)
        trainer = estimator.build_trainer(train)
        tracker = _PEHETracker(test)
        start = time.perf_counter()
        trainer.fit(train, callbacks=[tracker])
        seconds = time.perf_counter() - start
        pehes = [pehe for _, pehe in tracker.trace]
        combos.append(
            {
                "optimizer": optimizer,
                "schedule": schedule,
                "learning_rate": lr,
                "optimizer_params": dict(optimizer_params),
                "warmup_steps": warmup,
                "seconds": float(seconds),
                "final_pehe": pehes[-1],
                "best_pehe": min(pehes),
                "trace": [[it, pehe] for it, pehe in tracker.trace],
            }
        )

    target = combos[0]["final_pehe"] * 1.05
    for combo in combos:
        reached = [it for it, pehe in combo["trace"] if pehe <= target]
        combo["steps_to_target"] = (reached[0] + 1) if reached else None
    baseline_steps = combos[0]["steps_to_target"]
    for combo in combos:
        combo["improves_on_baseline"] = bool(
            combo["steps_to_target"] is not None
            and baseline_steps is not None
            and combo["steps_to_target"] < baseline_steps
        )
    reaching = [c for c in combos if c["steps_to_target"] is not None]
    best = min(reaching, key=lambda c: c["steps_to_target"]) if reaching else combos[0]
    return {
        "num_samples": num_samples,
        "iterations": iterations,
        "evaluation_interval": interval,
        "backbone": "cfr",
        "framework": "vanilla",
        "target_pehe": float(target),
        "baseline": "adam+exponential",
        "best_combo": f"{best['optimizer']}+{best['schedule']}",
        "combos": combos,
        "seconds": float(sum(c["seconds"] for c in combos)),
    }


def benchmark_training(
    smoke: bool = False,
    num_samples: Optional[int] = None,
    batch_size: Optional[int] = None,
    full_batch_epochs: Optional[int] = None,
    minibatch_epochs: Optional[int] = None,
    num_anchors: int = 256,
    grid_num_samples: Optional[int] = None,
    n_jobs: Optional[int] = None,
    optimizer_num_samples: Optional[int] = None,
    optimizer_iterations: Optional[int] = None,
    seed: int = 2024,
) -> Dict[str, object]:
    """Run the three benchmark sections and return one JSON-serialisable dict.

    ``smoke=True`` shrinks the *default* of every unset knob so the whole
    run takes seconds — the CI mode that tracks the result schema per PR;
    explicitly passed arguments always win over the smoke defaults.  The
    committed ``BENCH_training.json`` comes from a full run with the
    defaults.
    """
    defaults = SMOKE_DEFAULTS if smoke else FULL_DEFAULTS
    num_samples = num_samples if num_samples is not None else defaults[0]
    batch_size = batch_size if batch_size is not None else defaults[1]
    full_batch_epochs = full_batch_epochs if full_batch_epochs is not None else defaults[2]
    minibatch_epochs = minibatch_epochs if minibatch_epochs is not None else defaults[3]
    grid_num_samples = grid_num_samples if grid_num_samples is not None else defaults[4]
    n_jobs = n_jobs if n_jobs is not None else defaults[5]
    optimizer_num_samples = (
        optimizer_num_samples if optimizer_num_samples is not None else defaults[6]
    )
    optimizer_iterations = (
        optimizer_iterations if optimizer_iterations is not None else defaults[7]
    )

    generator = SyntheticGenerator(SyntheticConfig(seed=seed))
    protocol = generator.generate_train_test_protocol(
        num_samples=num_samples, train_rho=2.5, test_rhos=(2.5, -2.5), seed=seed
    )
    train = protocol["train"]
    environments = protocol["test_environments"]
    batches_per_epoch = -(-num_samples // batch_size)

    # ---------------- full-batch vs minibatch ----------------------------- #
    full = _fit_and_time(
        _engine_config(full_batch_epochs, None, None, num_anchors, seed),
        train,
        environments,
        seed,
    )
    mini = _fit_and_time(
        _engine_config(
            minibatch_epochs * batches_per_epoch, batch_size, 4 * batch_size, num_anchors, seed
        ),
        train,
        environments,
        seed,
    )
    mini["batch_size"] = batch_size
    mini["epochs"] = minibatch_epochs
    full["epochs"] = full_batch_epochs
    primary = "2.5"
    minibatch_section = {
        "full_batch": full,
        "minibatch": mini,
        "speedup": full["seconds"] / mini["seconds"],
        "pehe_ratio": mini["pehe"][primary] / full["pehe"][primary],
        "primary_environment": primary,
    }

    # ---------------- serial vs parallel method grid ---------------------- #
    grid_protocol = generator.generate_train_test_protocol(
        num_samples=grid_num_samples, train_rho=2.5, test_rhos=(-2.5,), seed=seed
    )
    grid_config = experiment_config(get_scale("smoke"), seed=seed)
    if smoke:
        specs = default_method_grid(
            config=grid_config, backbones=("tarnet", "cfr"), frameworks=("vanilla", "sbrl"), seed=seed
        )
    else:
        specs = default_method_grid(config=grid_config, seed=seed)

    start = time.perf_counter()
    serial = run_methods(
        specs, grid_protocol["train"], grid_protocol["test_environments"], n_jobs=1
    )
    serial_seconds = time.perf_counter() - start
    start = time.perf_counter()
    parallel = run_methods(
        specs, grid_protocol["train"], grid_protocol["test_environments"], n_jobs=n_jobs
    )
    parallel_seconds = time.perf_counter() - start
    identical = all(
        s.name == p.name and s.per_environment == p.per_environment
        for s, p in zip(serial, parallel)
    )
    grid_section = {
        "methods": [spec.name for spec in specs],
        "num_samples": grid_num_samples,
        "n_jobs": n_jobs,
        "serial_seconds": float(serial_seconds),
        "parallel_seconds": float(parallel_seconds),
        "speedup": serial_seconds / parallel_seconds,
        "identical_results": bool(identical),
    }

    result = {
        "benchmark": "training-engine",
        "mode": "smoke" if smoke else "full",
        "machine": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "dataset": {
            "name": "syn_8_8_8_2",
            "num_samples": num_samples,
            "train_rho": 2.5,
            "seed": seed,
        },
        "minibatch": minibatch_section,
        "parallel_grid": grid_section,
        "optimizer_comparison": _optimizer_section(
            num_samples=optimizer_num_samples,
            iterations=optimizer_iterations,
            seed=seed,
        ),
    }
    if not smoke:
        # Smoke-sized timings measured on the same machine as the full run:
        # the CI perf gate compares its own --smoke numbers against these.
        # Sizes come from SMOKE_DEFAULTS so the gate always compares
        # identically-sized workloads.
        smoke_samples, smoke_batch, smoke_full_epochs, smoke_mini_epochs = SMOKE_DEFAULTS[:4]
        smoke_protocol = generator.generate_train_test_protocol(
            num_samples=smoke_samples, train_rho=2.5, test_rhos=(2.5,), seed=seed
        )
        smoke_batches = -(-smoke_samples // smoke_batch)
        smoke_full = _fit_and_time(
            _engine_config(smoke_full_epochs, None, None, num_anchors, seed),
            smoke_protocol["train"],
            smoke_protocol["test_environments"],
            seed,
        )
        smoke_mini = _fit_and_time(
            _engine_config(
                smoke_mini_epochs * smoke_batches, smoke_batch, 4 * smoke_batch, num_anchors, seed
            ),
            smoke_protocol["train"],
            smoke_protocol["test_environments"],
            seed,
        )
        smoke_opt_samples, smoke_opt_iterations = SMOKE_DEFAULTS[6:8]
        smoke_optimizer = _optimizer_section(
            num_samples=smoke_opt_samples, iterations=smoke_opt_iterations, seed=seed
        )
        result["smoke_reference"] = {
            "full_batch_seconds": smoke_full["seconds"],
            "minibatch_seconds": smoke_mini["seconds"],
            "optimizer_comparison_seconds": smoke_optimizer["seconds"],
        }
    return result


def format_benchmark(result: Dict[str, object]) -> str:
    """Human-readable tables for the CLI / script output."""
    mini = result["minibatch"]
    rows = [
        [
            "full-batch (exact regularizers)",
            mini["full_batch"]["epochs"],
            mini["full_batch"]["seconds"],
            mini["full_batch"]["pehe"][mini["primary_environment"]],
            1.0,
        ],
        [
            f"minibatch (b={mini['minibatch']['batch_size']}, subsampled)",
            mini["minibatch"]["epochs"],
            mini["minibatch"]["seconds"],
            mini["minibatch"]["pehe"][mini["primary_environment"]],
            mini["speedup"],
        ],
    ]
    text = format_table(
        ["strategy", "epochs", "seconds", "PEHE", "speedup"],
        rows,
        title=f"Minibatch engine on {result['dataset']['num_samples']} samples",
    )
    grid = result["parallel_grid"]
    grid_rows = [
        ["serial", grid["serial_seconds"], 1.0],
        [f"n_jobs={grid['n_jobs']}", grid["parallel_seconds"], grid["speedup"]],
    ]
    text += "\n" + format_table(
        ["execution", "seconds", "speedup"],
        grid_rows,
        title=(
            f"{len(grid['methods'])}-method grid on {grid['num_samples']} samples "
            f"(identical results: {grid['identical_results']}, "
            f"cpus: {result['machine']['cpu_count']})"
        ),
    )
    optimizers = result.get("optimizer_comparison")
    if optimizers:
        opt_rows = [
            [
                f"{combo['optimizer']}+{combo['schedule']}"
                + ("+warmup" if combo["warmup_steps"] else ""),
                combo["learning_rate"],
                combo["steps_to_target"] if combo["steps_to_target"] is not None else "-",
                combo["final_pehe"],
                combo["best_pehe"],
                combo["seconds"],
            ]
            for combo in optimizers["combos"]
        ]
        text += "\n" + format_table(
            ["optimizer/schedule", "lr", "steps-to-target", "final PEHE", "best PEHE", "seconds"],
            opt_rows,
            title=(
                f"Steps to target PEHE ({optimizers['target_pehe']:.4f} = "
                f"{optimizers['baseline']} final +5%) on "
                f"{optimizers['num_samples']} samples, "
                f"{optimizers['iterations']} iterations "
                f"(best: {optimizers['best_combo']})"
            ),
        )
    return text


def write_benchmark(result: Dict[str, object], path: str) -> str:
    """Write the benchmark dict as pretty-printed JSON; returns the path."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=2, sort_keys=False)
        handle.write("\n")
    return path
