"""Command-line interface for the reproduction harness.

Exposes the experiment harness without writing Python::

    repro list                       # available experiments / benchmarks
    repro run table1 --scale smoke   # regenerate one table or figure
    repro quickstart                 # train two estimators on a tiny benchmark
    repro ood --benchmark syn_8_8_8_2  # OOD-level report for each environment

    repro save --benchmark syn_8_8_8_2 --output artifacts/model   # train + persist
    repro predict --model artifacts/model --benchmark syn_8_8_8_2 # serve from artifact
    repro serve-bench --rows 2000                                 # microbatching benchmark
    repro scenarios --smoke                                       # stress-test matrix
    repro scenarios --smoke --cache-dir .cache                    # cached; re-run resumes
    repro scenarios --smoke --cache-dir .cache --shard 1/2        # one shard of the grid

(Also runnable as ``python -m repro.cli`` when not installed.)  The CLI is
intentionally thin: every command is a small wrapper over the public library
API, so anything it does can also be done programmatically.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Callable, Dict, Optional, Sequence

import numpy as np

from .core.config import SBRLConfig
from .core.estimator import HTEEstimator
from .data.loaders import available_benchmarks, load_benchmark
from .diagnostics import assess_ood_level
from .serve import ModelRegistry
from .experiments import (
    experiment_config,
    figure3_pehe_curves,
    figure4_f1_stability,
    figure5_decorrelation,
    figure6_hyperparameter_sensitivity,
    format_table,
    get_scale,
    table1_synthetic,
    table2_ablation,
    table3_realworld,
    table6_training_cost,
    write_record,
)

__all__ = ["main", "build_parser", "EXPERIMENTS"]

EXPERIMENTS: Dict[str, Callable[..., object]] = {
    "table1": table1_synthetic,
    "table2": table2_ablation,
    "table3": table3_realworld,
    "table6": table6_training_cost,
    "fig3": figure3_pehe_curves,
    "fig4": figure4_f1_stability,
    "fig5": figure5_decorrelation,
    "fig6": figure6_hyperparameter_sensitivity,
}


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro", description="SBRL-HAP reproduction command-line interface"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list experiments and benchmark datasets")

    run = subparsers.add_parser("run", help="regenerate one of the paper's tables or figures")
    run.add_argument("experiment", choices=sorted(EXPERIMENTS), help="experiment identifier")
    run.add_argument("--scale", default="default", choices=("smoke", "default", "paper"))
    run.add_argument("--seed", type=int, default=2024)

    quickstart = subparsers.add_parser("quickstart", help="train CFR and CFR+SBRL-HAP on a small benchmark")
    quickstart.add_argument("--benchmark", default="syn_8_8_8_2", choices=available_benchmarks())
    quickstart.add_argument("--num-samples", type=int, default=800)
    quickstart.add_argument("--scale", default="smoke", choices=("smoke", "default", "paper"))
    quickstart.add_argument("--seed", type=int, default=2024)

    ood = subparsers.add_parser("ood", help="report the OOD level of each test environment")
    ood.add_argument("--benchmark", default="syn_8_8_8_2", choices=available_benchmarks())
    ood.add_argument("--num-samples", type=int, default=1000)
    ood.add_argument("--seed", type=int, default=2024)

    save = subparsers.add_parser(
        "save", help="train an estimator on a benchmark and persist it as an artifact"
    )
    save.add_argument("--output", required=True, help="artifact directory to write")
    save.add_argument("--benchmark", default="syn_8_8_8_2", choices=available_benchmarks())
    save.add_argument("--backbone", default="cfr")
    save.add_argument("--framework", default="sbrl-hap")
    save.add_argument("--num-samples", type=int, default=800)
    save.add_argument("--scale", default="smoke", choices=("smoke", "default", "paper"))
    save.add_argument("--seed", type=int, default=2024)

    predict = subparsers.add_parser(
        "predict", help="predict treatment effects from a saved estimator artifact"
    )
    predict.add_argument("--model", required=True, help="artifact directory written by 'repro save'")
    source = predict.add_mutually_exclusive_group()
    source.add_argument("--covariates", help="CSV file of covariate rows (no header)")
    source.add_argument("--benchmark", choices=available_benchmarks(), help="predict on a benchmark test environment")
    predict.add_argument("--environment", default=None, help="benchmark test-environment key (default: first)")
    predict.add_argument("--num-samples", type=int, default=800)
    predict.add_argument("--seed", type=int, default=2024)
    predict.add_argument("--output", default=None, help="write mu0,mu1,ite rows to this CSV instead of printing")
    predict.add_argument("--head", type=int, default=5, help="number of example rows to print")

    bench = subparsers.add_parser(
        "serve-bench", help="benchmark microbatched serving against per-row prediction"
    )
    bench.add_argument("--model", default=None, help="artifact directory (default: train a smoke model)")
    bench.add_argument("--benchmark", default="syn_8_8_8_2", choices=available_benchmarks())
    bench.add_argument("--rows", type=_positive_int, default=2000)
    bench.add_argument(
        "--requests", type=_positive_int, default=200, help="number of microbatched requests"
    )
    bench.add_argument("--num-samples", type=int, default=600)
    bench.add_argument("--seed", type=int, default=2024)

    scenarios = subparsers.add_parser(
        "scenarios",
        help="run the scenario-matrix stress test (scenario x severity x method)",
    )
    scenarios.add_argument(
        "--smoke", action="store_true", help="seconds-scale run (CI mode)"
    )
    scenarios.add_argument(
        "--scenario",
        action="append",
        default=None,
        dest="scenario_names",
        help="restrict to one scenario (repeatable; default: all registered)",
    )
    scenarios.add_argument(
        "--severities",
        type=float,
        nargs="+",
        default=None,
        help="severity grid in [0, 1] (default: each scenario's own grid)",
    )
    scenarios.add_argument(
        "--num-samples", type=_positive_int, default=None, help="default: 500 (250 with --smoke)"
    )
    scenarios.add_argument("--replications", type=_positive_int, default=1)
    scenarios.add_argument("--n-jobs", type=int, default=1)
    scenarios.add_argument("--seed", type=int, default=2024)
    scenarios.add_argument(
        "--cache-dir",
        default=None,
        help="content-addressed result cache directory; unchanged cells are "
        "served from it across invocations and machines, and re-running "
        "with the same directory resumes an interrupted grid",
    )
    scenarios.add_argument(
        "--shard",
        type=_shard_spec,
        default=None,
        metavar="K/N",
        help="run only shard K of N (1-based, stable key hash); requires "
        "--cache-dir. The same command without --shard over the union of "
        "the shards' caches assembles the full record",
    )
    scenarios.add_argument(
        "--output", default=None, help="write the JSON record to this path"
    )
    # Option combinations are checked after parsing; they exit 2 with the
    # verb's usage, like every other usage error.
    scenarios.set_defaults(usage_error=scenarios.error)

    return parser


def _positive_int(value: str) -> int:
    """argparse type for a count of at least 1 (clear error instead of traceback)."""
    number = int(value)
    if number < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {number}")
    return number


def _shard_spec(value: str):
    """argparse type for ``--shard K/N`` (clear error instead of traceback)."""
    from .experiments.scheduler import parse_shard

    try:
        return parse_shard(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _command_list(_: argparse.Namespace) -> int:
    print("Experiments (python -m repro.cli run <name>):")
    for name in sorted(EXPERIMENTS):
        print(f"  {name:8s} -> {EXPERIMENTS[name].__name__}")
    print()
    print("Benchmark datasets (python -m repro.cli quickstart --benchmark <name>):")
    for name in available_benchmarks():
        print(f"  {name}")
    return 0


def _command_run(args: argparse.Namespace) -> int:
    experiment = EXPERIMENTS[args.experiment]
    result = experiment(scale=args.scale, seed=args.seed)
    print(result.text)
    return 0


def _command_quickstart(args: argparse.Namespace) -> int:
    protocol = load_benchmark(args.benchmark, num_samples=args.num_samples, seed=args.seed)
    train = protocol["train"]
    validation = protocol.get("validation")
    config: SBRLConfig = experiment_config(get_scale(args.scale), seed=args.seed)
    rows = []
    for framework in ("vanilla", "sbrl-hap"):
        estimator = HTEEstimator(backbone="cfr", framework=framework, config=config, seed=args.seed)
        estimator.fit(train, validation)
        for name, dataset in protocol["test_environments"].items():
            metrics = estimator.evaluate(dataset)
            rows.append([estimator.name, str(name), metrics["pehe"], metrics["ate_error"]])
    print(format_table(["method", "environment", "PEHE", "ATE bias"], rows,
                       title=f"Quickstart on {args.benchmark}"))
    return 0


def _command_ood(args: argparse.Namespace) -> int:
    protocol = load_benchmark(args.benchmark, num_samples=args.num_samples, seed=args.seed)
    train = protocol["train"]
    rows = []
    for name, dataset in protocol["test_environments"].items():
        report = assess_ood_level(train, dataset)
        rows.append([str(name), report.domain_auc, report.moment_score, report.severity])
    print(
        format_table(
            ["environment", "domain AUC", "moment shift", "severity"],
            rows,
            title=f"OOD level of {args.benchmark} test environments",
        )
    )
    return 0


def _train_benchmark_estimator(
    benchmark: str,
    backbone: str,
    framework: str,
    scale: str,
    num_samples: int,
    seed: int,
):
    """Train one estimator on a benchmark; returns (estimator, protocol)."""
    protocol = load_benchmark(benchmark, num_samples=num_samples, seed=seed)
    config: SBRLConfig = experiment_config(get_scale(scale), seed=seed)
    estimator = HTEEstimator(backbone=backbone, framework=framework, config=config, seed=seed)
    estimator.fit(protocol["train"], protocol.get("validation"))
    return estimator, protocol


def _command_save(args: argparse.Namespace) -> int:
    estimator, protocol = _train_benchmark_estimator(
        args.benchmark, args.backbone, args.framework, args.scale, args.num_samples, args.seed
    )
    path = estimator.save(args.output)
    rows = []
    for name, dataset in protocol["test_environments"].items():
        metrics = estimator.evaluate(dataset)
        rows.append([str(name), metrics["pehe"], metrics["ate_error"]])
    print(format_table(
        ["environment", "PEHE", "ATE bias"], rows,
        title=f"{estimator.name} on {args.benchmark} (saved to {path})",
    ))
    return 0


def _resolve_environment(protocol: dict, key: Optional[str]):
    environments = protocol["test_environments"]
    if key is None:
        return next(iter(environments.values()))
    by_name = {str(name): dataset for name, dataset in environments.items()}
    if key not in by_name:
        raise SystemExit(f"unknown environment {key!r}; available: {sorted(by_name)}")
    return by_name[key]


def _command_predict(args: argparse.Namespace) -> int:
    estimator = HTEEstimator.load(args.model)
    if args.covariates is not None:
        covariates = np.loadtxt(args.covariates, delimiter=",", ndmin=2)
    else:
        benchmark = args.benchmark or "syn_8_8_8_2"
        protocol = load_benchmark(benchmark, num_samples=args.num_samples, seed=args.seed)
        covariates = _resolve_environment(protocol, args.environment).covariates
    outputs = estimator.predict_potential_outcomes(covariates)
    if args.output is not None:
        stacked = np.column_stack([outputs["mu0"], outputs["mu1"], outputs["ite"]])
        np.savetxt(args.output, stacked, delimiter=",", header="mu0,mu1,ite", comments="")
        print(f"wrote {len(stacked)} predictions to {args.output}")
        return 0
    print(f"model: {estimator.name} ({args.model})")
    print(f"rows: {len(covariates)}   predicted ATE: {float(np.mean(outputs['ite'])):+.4f}")
    head = min(args.head, len(covariates))
    rows = [
        [index, outputs["mu0"][index], outputs["mu1"][index], outputs["ite"][index]]
        for index in range(head)
    ]
    print(format_table(["row", "mu0", "mu1", "ite"], rows, title=f"first {head} predictions"))
    return 0


def _command_serve_bench(args: argparse.Namespace) -> int:
    if args.model is not None:
        estimator = HTEEstimator.load(args.model)
    else:
        print("no --model given; training a smoke-scale model first...")
        estimator, _ = _train_benchmark_estimator(
            args.benchmark, "cfr", "sbrl-hap", "smoke", args.num_samples, args.seed
        )
    rng = np.random.default_rng(args.seed)
    num_features = estimator.trainer.backbone.num_features
    covariates = rng.normal(size=(args.rows, num_features))
    requests = np.array_split(covariates, min(args.requests, args.rows))

    start = time.perf_counter()
    per_row = np.concatenate([estimator.predict_ite(row.reshape(1, -1)) for row in covariates])
    per_row_seconds = time.perf_counter() - start

    registry = ModelRegistry()
    registry.deploy("bench", estimator)
    start = time.perf_counter()
    batched = registry.predict_many(requests, model="bench")
    batched_seconds = time.perf_counter() - start
    batched_ite = np.concatenate([result["ite"] for result in batched])
    if not np.allclose(per_row, batched_ite):
        raise SystemExit("serving results diverged from per-row predictions")

    start = time.perf_counter()
    registry.predict_many(requests, model="bench")
    cached_seconds = time.perf_counter() - start

    stats = registry.stats("bench")["bench"]
    rows = [
        ["per-row predict_ite", per_row_seconds, args.rows / per_row_seconds, 1.0],
        ["microbatched predict_many", batched_seconds, args.rows / batched_seconds,
         per_row_seconds / batched_seconds],
        ["microbatched (warm cache)", cached_seconds, args.rows / cached_seconds,
         per_row_seconds / cached_seconds],
    ]
    print(format_table(
        ["strategy", "seconds", "rows/s", "speedup"], rows,
        title=f"Serving benchmark: {args.rows} rows, {len(requests)} requests",
    ))
    print(f"cache hit rate: {stats['cache_hit_rate']:.2%}   "
          f"forward batches: {int(stats['batches'])}")
    return 0


def _command_scenarios(args: argparse.Namespace) -> int:
    from .experiments.scenario_suite import (
        ScenarioSuiteConfig,
        format_scenario_suite,
        format_suite_summary,
        report_error_cells,
        run_scenario_suite,
    )

    if args.shard is not None and args.cache_dir is None:
        args.usage_error("--shard requires --cache-dir")
    config = ScenarioSuiteConfig.from_options(
        smoke=args.smoke,
        scenario_names=args.scenario_names,
        severities=args.severities,
        num_samples=args.num_samples,
        replications=args.replications,
        n_jobs=args.n_jobs,
        seed=args.seed,
        cache_dir=args.cache_dir,
        shard=args.shard,
    )
    result = run_scenario_suite(config)
    print(format_scenario_suite(result))
    summary = format_suite_summary(result)
    if summary:
        print(summary)
    if args.output is not None:
        print(f"wrote {write_record(result, args.output)}")
    return report_error_cells(result)


_COMMANDS: Dict[str, Callable[[argparse.Namespace], int]] = {
    "list": _command_list,
    "run": _command_run,
    "quickstart": _command_quickstart,
    "ood": _command_ood,
    "save": _command_save,
    "predict": _command_predict,
    "serve-bench": _command_serve_bench,
    "scenarios": _command_scenarios,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    from .persistence import ArtifactError

    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ArtifactError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
